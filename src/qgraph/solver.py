"""Real-wavenumber spectra of closed metric graphs.

The spectrum is computed from the bond propagation matrix
U(k) = D(k) S on the 2E directed bonds: D(k) carries the metric and
magnetic phases exp(i (k + phi_b) L_b) and S the Neumann vertex
amplitudes 2/d - delta.  Eigenvalues of the graph are the k > 0 where
det(I - U(k)) = 0.

Because U(k) is unitary, I - U(k) is normal: its singular values are the
distances |1 - e^{i theta_j}| of the eigenphases from zero, and every
eigenphase moves upward with velocity between the shortest and longest
bond.  Two consequences drive the solver:

* the principal eigenphases sum to 2 L k minus 2 pi times the number of
  eigenvalues passed, so the exact level count between two probe points
  is available from two eigendecompositions.  One batched scan counts
  the roots of every grid cell; batched bisection splits cells with
  several roots, and the same winding count verifies at the end that no
  root was missed;
* near a simple root exactly one eigenphase crosses zero, upward, so the
  signed eigenphase nearest zero changes sign across the root and a
  batched Anderson-Bjorck (regula falsi) iteration on it polishes every
  root at once.

An independent finite-difference discretization of the graph Laplacian
(with Peierls phases on the links) serves as a cross-method oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .graphs import MetricGraph, negate_phases, validate
from .units import ghz_from_k

__all__ = [
    "SolverConfig",
    "Spectrum",
    "bond_basis",
    "bond_matrix",
    "secular_residual",
    "solve_spectrum",
    "fd_oracle_spectrum",
    "spectrum_under_phase_reversal",
    "drop_levels",
    "NFL_BOUND",
]

TWO_PI = 2.0 * math.pi

# O(1) bound on the fluctuating part of the counting function; exceeding it
# marks the spectrum incomplete.
NFL_BOUND = 3.0


# ---------------------------------------------------------------------------
# bond basis and the propagation matrix
# ---------------------------------------------------------------------------


def bond_basis(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed-bond arrays for a graph.

    Edge at position e yields bond 2e (stored direction u -> v) and bond
    2e+1 (reversed); reversal is the involution b ^ 1.  Returns
    (lengths, chis, S): per-bond metric lengths, fixed magnetic phase
    offsets phi_b * L_b, and the vertex scattering matrix with Neumann
    amplitudes sigma_{b'b} = 2/d - delta_{b', reversal(b)}.
    """
    m = 2 * len(graph.edges)
    lengths = np.empty(m)
    chis = np.empty(m)
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    for e_pos, e in enumerate(graph.edges):
        f, r = 2 * e_pos, 2 * e_pos + 1
        lengths[f] = lengths[r] = e.length
        chis[f] = e.phase_per_m * e.length
        chis[r] = -e.phase_per_m * e.length
        tails[f], heads[f] = e.u, e.v
        tails[r], heads[r] = e.v, e.u
    smat = np.zeros((m, m), dtype=np.complex128)
    for v in graph.vertices:
        incoming = np.nonzero(heads == v)[0]
        outgoing = np.nonzero(tails == v)[0]
        d = len(outgoing)
        for b_in in incoming:
            for b_out in outgoing:
                amp = 2.0 / d
                if b_out == b_in ^ 1:  # back-reflection along the same edge end
                    amp -= 1.0
                smat[b_out, b_in] = amp
    return lengths, chis, smat


def bond_matrix(graph: MetricGraph, k: float) -> np.ndarray:
    """Unitary bond propagation matrix U(k) = D(k) S at wavenumber k."""
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")
    lengths, chis, smat = bond_basis(graph)
    d = np.exp(1j * (k * lengths + chis))
    return d[:, None] * smat


def secular_residual(graph: MetricGraph, k: float) -> float:
    """Smallest singular value of I - U(k); zero exactly at eigenvalues."""
    u = bond_matrix(graph, k)
    a = np.eye(u.shape[0], dtype=np.complex128) - u
    return float(np.linalg.svd(a, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# solver configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Window and tolerances for a spectral solve.

    scan_step defaults to pi / (2 L): the mean level density is L/pi per
    unit k, so the scan places two points per mean spacing.  The winding
    count of every scan cell is exact at any step, so the step trades scan
    points against bisection steps, not completeness.
    """

    k_min: float
    k_max: float
    scan_step: float | None = None
    root_tolerance: float = 1e-10
    residual_threshold: float = 1e-6
    max_refinement_iterations: int = 200

    def check(self) -> None:
        if not (0.0 < self.k_min < self.k_max):
            raise ValueError(f"need 0 < k_min < k_max, got ({self.k_min}, {self.k_max})")
        if self.scan_step is not None and not (self.scan_step > 0.0):
            raise ValueError(f"scan_step must be positive, got {self.scan_step}")
        if not (self.root_tolerance > 0.0):
            raise ValueError("root_tolerance must be positive")
        if not (self.residual_threshold > 0.0):
            raise ValueError("residual_threshold must be positive")
        if self.max_refinement_iterations < 10:
            raise ValueError("max_refinement_iterations must be at least 10")

    def effective_step(self, total_length: float) -> float:
        if self.scan_step is not None:
            return self.scan_step
        return math.pi / (2.0 * total_length)


@dataclass(frozen=True)
class Spectrum:
    """Sorted real wavenumbers with multiplicities over a k-window.

    The completeness flag records whether the fluctuating part of the
    counting function, N_fl(k) = N(k) - L (k - k_min) / pi taken relative
    to the window's lower edge, stays within NFL_BOUND throughout the
    window.  `status` is "ok" only when the exact eigenphase-winding count
    matched the roots found.
    """

    wavenumbers: np.ndarray
    multiplicities: np.ndarray
    window: tuple[float, float]
    total_length: float
    residuals: np.ndarray
    complete: bool
    status: str
    nfl_max: float
    messages: tuple[str, ...] = ()

    def __post_init__(self):
        for arr in (self.wavenumbers, self.multiplicities, self.residuals):
            arr.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.multiplicities.sum())

    def expanded(self) -> np.ndarray:
        """Wavenumbers repeated by multiplicity (sorted ascending)."""
        return np.repeat(self.wavenumbers, self.multiplicities)

    def frequencies_ghz(self) -> np.ndarray:
        return np.array([ghz_from_k(k) for k in self.wavenumbers])


def fluctuation_envelope(
    expanded: np.ndarray, window: tuple[float, float], total_length: float
) -> float:
    """max over the identified levels of |i - L (k_i - k_min) / pi|.

    The fluctuating part of the counting function is evaluated at the
    identified eigenvalues, N(k_i) = i counted from the window's lower
    edge; a missing level leaves a persistent unit offset in the sequence.
    """
    k_lo, k_hi = window
    if expanded.size == 0:
        return total_length * (k_hi - k_lo) / math.pi
    weyl = total_length * (expanded - k_lo) / math.pi
    idx = np.arange(1, expanded.size + 1)
    return float(np.max(np.abs(idx - weyl)))


# ---------------------------------------------------------------------------
# scan / isolate / verify
# ---------------------------------------------------------------------------

# The Cayley-map kernel's eigenphase errors are about eps * max|tan(phi/2)|,
# which its rotations keep below eps * max(100, 2 (2E + 1) / pi), 2.2e-14 up
# to 78 edges.  A phase this close to zero is taken as a root whatever
# root_tolerance asks for, so no decision rests on the sign of noise.
PHASE_FLOOR = 1e-12


class _BondProblem:
    """Cached bond arrays plus the phase-based evaluations the solver needs."""

    def __init__(self, graph: MetricGraph, root_tolerance: float):
        self.lengths, self.chis, self.smat = bond_basis(graph)
        self.total_length = graph.total_length
        # eigenphases move upward no slower than the shortest bond, so a
        # phase within phase_tol of zero puts k within root_tolerance of a root
        self.v_min = float(self.lengths.min())
        self.phase_tol = max(self.v_min * root_tolerance, PHASE_FLOOR)

    def phases(self, ks: np.ndarray) -> np.ndarray:
        return kernels.eigenphases(ks, self.lengths, self.chis, self.smat)

    def evaluate(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winding, signed nearest phase and number of roots at each k.

        A phase within phase_tol of zero marks a root at k.  Its sign is
        rounding noise, so it always counts as passed: the winding
        (2 L k - sum of principal phases) / 2 pi then steps by one at each
        root, and w(b) - w(a) is exactly the number of roots in (a, b].
        The signed phase is the one nearest zero among the others, in
        (-pi, pi]; it is negative just below a root and positive above.
        """
        theta = self.phases(ks)
        signed = np.where(theta > math.pi, theta - TWO_PI, theta)
        at_root = np.abs(signed) <= self.phase_tol
        passed = np.where(at_root, signed, theta)
        winding = (2.0 * self.total_length * ks - passed.sum(axis=1)) / TWO_PI
        others = np.where(at_root, math.pi, signed)
        nearest = np.take_along_axis(others, np.abs(others).argmin(axis=1)[:, None], axis=1)
        return winding, nearest[:, 0], at_root.sum(axis=1)


def _isolate_roots(
    problem: _BondProblem,
    grid: np.ndarray,
    scan: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots in (grid[0], grid[-1]] with multiplicities.

    The scan's windings give the exact root count of every grid cell
    (a, b].  Each iteration evaluates one point x per cell in a single
    kernel call: an Anderson-Bjorck (safeguarded regula falsi) step on the
    signed phase when the cell holds one root and that phase goes from - at
    a to + at b, the midpoint otherwise.  The winding at x splits the count
    between (a, x] and (x, b]; empty halves are dropped.  A cell is done
    when all its roots sit on its right end, or when it is narrower than
    root_tolerance (a multiple root, reported at its midpoint).  Cells
    still open after max_refinement_iterations are left out, which the
    final winding verification reports.
    """
    w, f, on_root = scan
    count = np.rint(np.diff(w)).astype(np.int64)
    keep = count > 0
    cells = {
        "a": grid[:-1], "b": grid[1:], "wa": w[:-1], "fa": f[:-1], "fb": f[1:],
        "on_b": on_root[1:], "count": count,
    }
    cells = {key: v[keep] for key, v in cells.items()}
    # regula falsi end values (scaled down when the same end is kept twice
    # in a row) and the end the last such step kept: -1 for a, +1 for b, 0
    # for none
    cells.update(ga=cells["fa"], gb=cells["fb"], kept=np.zeros(keep.sum(), dtype=np.int64))

    roots: list[np.ndarray] = []
    mults: list[np.ndarray] = []
    for _ in range(config.max_refinement_iterations):
        a, b, count = cells["a"], cells["b"], cells["count"]
        on_end = cells["on_b"] >= count
        narrow = ~on_end & (b - a < config.root_tolerance)
        roots += [b[on_end], 0.5 * (a + b)[narrow]]
        mults += [count[on_end], count[narrow]]
        cells = {key: v[~(on_end | narrow)] for key, v in cells.items()}
        if cells["count"].size == 0:
            break
        a, b, fa, fb, ga, gb, kept = (
            cells[key] for key in ("a", "b", "fa", "fb", "ga", "gb", "kept")
        )
        falsi = (cells["count"] == 1) & (fa < 0.0) & (fb > 0.0)
        x = b - gb * (b - a) / np.where(falsi, gb - ga, 1.0)
        x = np.where(falsi & (x > a) & (x < b), x, 0.5 * (a + b))
        wx, fx, on_x = problem.evaluate(x)

        below = np.rint(wx - cells["wa"]).astype(np.int64)
        # Anderson-Bjorck: the end kept twice in a row is scaled by
        # m = 1 - f(x) / f(replaced end), or by 1/2 when m <= 0
        m_a = 1.0 - fx / np.where(falsi, fb, 1.0)
        m_b = 1.0 - fx / np.where(falsi, fa, 1.0)
        m_a = np.where(m_a > 0.0, m_a, 0.5)
        m_b = np.where(m_b > 0.0, m_b, 0.5)
        left = dict(cells, b=x, fb=fx, on_b=on_x, count=below, gb=fx,
                    ga=np.where(falsi, np.where(kept == -1, m_a * ga, ga), fa),
                    kept=np.where(falsi, -1, 0))
        right = dict(cells, a=x, wa=wx, fa=fx, count=cells["count"] - below, ga=fx,
                     gb=np.where(falsi, np.where(kept == 1, m_b * gb, gb), fb),
                     kept=np.where(falsi, 1, 0))
        live = np.concatenate([left["count"], right["count"]]) > 0
        cells = {key: np.concatenate([left[key], right[key]])[live] for key in cells}

    ks = np.concatenate(roots)
    order = np.argsort(ks)
    return ks[order], np.concatenate(mults)[order]


def _merge_close(
    ks: np.ndarray, mults: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Join sorted roots closer than radius into one multiple root.

    Returns the mask of the roots kept (the first of each group) and the
    summed multiplicities.
    """
    first = np.ones(ks.size, dtype=bool)
    first[1:] = np.diff(ks) > radius
    group = np.cumsum(first) - 1
    return first, np.bincount(group, weights=mults, minlength=first.sum()).astype(np.int64)


def _svd_residuals(problem: _BondProblem, ks: np.ndarray) -> np.ndarray:
    """Smallest singular value of I - U(k) at each k."""
    d = np.exp(1j * (ks[:, None] * problem.lengths + problem.chis))
    a = np.eye(problem.lengths.size) - d[:, :, None] * problem.smat
    return np.linalg.svd(a, compute_uv=False)[:, -1]


def solve_spectrum(graph: MetricGraph, config: SolverConfig) -> Spectrum:
    """All eigenvalues of the graph in (k_min, k_max], verified complete.

    A scan gives the exact eigenphase-winding count of every grid cell;
    batched bisection and Anderson-Bjorck steps isolate and polish the
    roots cell by cell (`_isolate_roots`).  The winding count is then
    checked once more between consecutive roots: a segment holding fewer
    roots than its count is reported through `status` and the
    completeness flag, never silently dropped.  A root within
    root_tolerance of a window edge lies on it: excluded at k_min,
    included at k_max.
    """
    violations = validate(graph)
    if violations:
        raise ValueError("invalid graph: " + "; ".join(violations))
    config.check()

    problem = _BondProblem(graph, config.root_tolerance)
    k_lo, k_hi = config.k_min, config.k_max
    step = config.effective_step(problem.total_length)
    grid = np.linspace(k_lo, k_hi, max(int(math.ceil((k_hi - k_lo) / step)) + 1, 9))
    scan = problem.evaluate(grid)
    ks, mults = _isolate_roots(problem, grid, scan, config)

    # contract residuals: smallest singular value of I - U at each root
    residuals = _svd_residuals(problem, ks)
    good = residuals <= config.residual_threshold
    # roots are accurate to root_tolerance (phase_tol / v_min), and the
    # probe midway between two roots must stay farther than that from both
    # true roots, so roots closer than four tolerances become one root
    keep, mults = _merge_close(ks[good], mults[good], 4.0 * problem.phase_tol / problem.v_min)
    ks, residuals = ks[good][keep], residuals[good][keep]

    # exact count verification: probes at the window edges and midway
    # between consecutive roots, so segment i holds root i alone
    probes = 0.5 * (ks[1:] + ks[:-1])
    edges = np.concatenate(([k_lo], probes, [k_hi]))
    w_mid = problem.evaluate(probes)[0] if probes.size else probes
    raw = np.diff(np.concatenate(([scan[0][0]], w_mid, [scan[0][-1]])))
    expected = np.rint(raw).astype(np.int64)
    found = mults if ks.size else np.zeros(1, dtype=np.int64)

    messages: list[str] = []
    inconclusive = np.abs(raw - expected) > 1e-5
    for i in np.flatnonzero(inconclusive):
        messages.append(
            f"count validation inconclusive on ({edges[i]:.9g}, {edges[i + 1]:.9g}): "
            f"{float(raw[i])!r}"
        )
    excess = ~inconclusive & (found > expected)
    for i in np.flatnonzero(excess):
        messages.append(
            f"more roots than the winding count on ({edges[i]:.9g}, {edges[i + 1]:.9g}); "
            f"found {found[i]}, expected {expected[i]}"
        )
    deficits = int(np.sum(~inconclusive & (found < expected)))
    if inconclusive.any() or excess.any():
        status = "anomaly"
    elif deficits:
        status = "incomplete"
        messages.append(f"{deficits} window segment(s) still missing roots")
    else:
        status = "ok"

    expanded = np.repeat(ks, mults)
    nfl_max = fluctuation_envelope(expanded, (k_lo, k_hi), problem.total_length)
    complete = bool(nfl_max <= NFL_BOUND + 1e-12)
    if status != "ok" and complete:
        # winding says a root is missing even though N_fl looks tame
        complete = False

    return Spectrum(
        wavenumbers=ks,
        multiplicities=mults,
        window=(k_lo, k_hi),
        total_length=problem.total_length,
        residuals=residuals,
        complete=complete,
        status=status,
        nfl_max=nfl_max,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# independent finite-difference oracle
# ---------------------------------------------------------------------------


def fd_oracle_spectrum(
    graph: MetricGraph, n_points_per_edge: int = 2000, count: int = 10
) -> np.ndarray:
    """Lowest `count` positive wavenumbers from a discretized Laplacian.

    Each edge is divided into n_points_per_edge intervals of a lumped-mass
    linear-element discretization of -d^2/dx^2; magnetic phases enter as
    per-link Peierls factors, and Kirchhoff current conservation at the
    vertices is the natural condition of the assembled form.  Eigenvalue
    accuracy is O(h^2) with h = L_e / n_points_per_edge.  The zero mode
    (lambda below 1e-6) is excluded.
    """
    if n_points_per_edge < 100:
        raise ValueError("need at least 100 points per edge")
    if count < 1:
        raise ValueError("count must be positive")
    violations = validate(graph)
    if violations:
        raise ValueError("invalid graph: " + "; ".join(violations))

    n_vert = len(graph.vertices)
    n_interior = n_points_per_edge - 1
    n_nodes = n_vert + n_interior * len(graph.edges)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    mass = np.zeros(n_nodes)

    def add(i: int, j: int, v: complex) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for e_pos, edge in enumerate(graph.edges):
        h = edge.length / n_points_per_edge
        hop = np.exp(1j * edge.phase_per_m * h)  # phase per link along u -> v
        base = n_vert + e_pos * n_interior
        chain = [edge.u] + [base + j for j in range(n_interior)] + [edge.v]
        w = 1.0 / h
        for x, y in zip(chain, chain[1:]):
            add(x, x, w)
            add(y, y, w)
            add(y, x, -hop * w)
            add(x, y, -np.conj(hop) * w)
            mass[x] += 0.5 * h
            mass[y] += 0.5 * h

    stiff = sp.csr_matrix(
        (np.array(vals, dtype=np.complex128), (rows, cols)), shape=(n_nodes, n_nodes)
    )
    mmat = sp.diags(mass).tocsc()

    n_eig = min(count + 4, n_nodes - 2)
    try:
        lam = spla.eigsh(
            stiff, k=n_eig, M=mmat, sigma=-1.0, which="LM", return_eigenvectors=False
        )
    except Exception as exc:  # factorization or convergence failure
        raise RuntimeError(f"discretized eigenproblem failed: {exc}") from exc
    lam = np.sort(np.real(lam))
    lam = lam[lam > 1e-6]
    if lam.size < count:
        raise RuntimeError(
            f"oracle produced only {lam.size} positive eigenvalues, wanted {count}"
        )
    return np.sqrt(lam[:count])


def spectrum_under_phase_reversal(
    graph: MetricGraph, config: SolverConfig
) -> tuple[Spectrum, Spectrum]:
    """Spectra at vector potential +A and -A over the same window."""
    plus = solve_spectrum(graph, config)
    minus = solve_spectrum(negate_phases(graph), config)
    return plus, minus


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def drop_levels(spectrum: Spectrum, indices: list[int] | tuple[int, ...]) -> Spectrum:
    """Remove levels by 1-based position in the multiplicity-expanded list.

    Test and diagnostic helper: the returned spectrum has its fluctuation
    envelope and completeness flag recomputed and carries status
    "fault-injected".
    """
    expanded = spectrum.expanded()
    n = expanded.size
    drop = set()
    for idx in indices:
        if not (1 <= idx <= n):
            raise ValueError(f"level index {idx} out of range 1..{n}")
        drop.add(idx - 1)
    keep = np.array([i for i in range(n) if i not in drop], dtype=np.int64)
    kept = expanded[keep]
    ks, mults = _recollapse(kept)
    nfl_max = fluctuation_envelope(kept, spectrum.window, spectrum.total_length)
    return Spectrum(
        wavenumbers=ks,
        multiplicities=mults,
        window=spectrum.window,
        total_length=spectrum.total_length,
        residuals=np.zeros(ks.size),
        complete=bool(nfl_max <= NFL_BOUND + 1e-12),
        status="fault-injected",
        nfl_max=nfl_max,
        messages=spectrum.messages + (f"dropped level(s) {sorted(indices)}",),
    )


def _recollapse(expanded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if expanded.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    ks = [expanded[0]]
    mults = [1]
    for k in expanded[1:]:
        if k == ks[-1]:
            mults[-1] += 1
        else:
            ks.append(k)
            mults.append(1)
    return np.array(ks), np.array(mults, dtype=np.int64)
