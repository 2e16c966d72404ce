"""Real-wavenumber spectra of closed metric graphs.

The spectrum is computed from the bond propagation matrix
U(k) = D(k) S on the 2E directed bonds: D(k) carries the metric and
magnetic phases exp(i (k + phi_b) L_b) and S the Neumann vertex
amplitudes 2/d - delta.  Eigenvalues of the graph are the k > 0 where
det(I - U(k)) = 0.

Two exact level counts come with it:

* the eigenphase winding.  U(k) is unitary and its eigenphases move
  upward, so the principal eigenphases sum to 2 L k minus 2 pi times the
  number of eigenvalues passed;
* the vertex count.  The Hermitian V x V vertex secular matrix M(k)
  (Kottos & Smilansky, Ann. Phys. 274, 76 (1999)) is singular exactly at
  the eigenvalues away from the poles k l_e in pi Z, and its eigenvalues
  rise with k.  sum_e floor(k l_e / pi) + n_+(M(k)) counts the levels up
  to a constant (the graph form of Friedlander's Dirichlet-Neumann
  count), with the constant equal to the winding's.

The vertex count drives the search: one batched scan counts the roots of
every grid cell, batched bisection splits cells with several roots, and a
batched Anderson-Bjorck (regula falsi) iteration on a sign-changing
function of M's eigenvalues polishes every root at once.  On the
four-vertex networks its 4 x 4 eigenproblems cost about a tenth of the
12 x 12 eigenphase problem.  Points where rounding could decide the
vertex count are counted by eigenphases instead.  The eigenphase winding
then verifies the result independently, between consecutive roots, and
the smallest singular value of I - U(k) is reported at each root.

`solve_spectra` runs the scan and the isolation of several graphs with
one vertex and edge count in lockstep, one kernel call per step for all
of them; verification and residuals run graph by graph.  Each spectrum
is bit for bit the one its graph gives alone (`solve_spectrum`).

An independent finite-difference discretization of the graph Laplacian
(with Peierls phases on the links) serves as a cross-method oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .graphs import MetricGraph, negate_phases, validate

__all__ = [
    "SolverConfig",
    "Spectrum",
    "bond_basis",
    "bond_matrix",
    "vertex_basis",
    "secular_residual",
    "solve_spectrum",
    "solve_spectra",
    "fd_oracle_spectrum",
    "spectrum_under_phase_reversal",
    "drop_levels",
    "NFL_BOUND",
]

TWO_PI = 2.0 * math.pi

# O(1) bound on the fluctuating part of the counting function; exceeding it
# marks the spectrum incomplete.
NFL_BOUND = 3.0

# Isolation iterations before cells still open are left to the final
# winding verification.
MAX_REFINEMENT_ITERATIONS = 200


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


def vertex_basis(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lengths and the constant parts of the vertex secular matrix.

    With x_e = k l_e, the Hermitian V x V matrix
    M = cot(x) @ cot_part + csc(x) @ csc_part, flattened row-major, has
    M_uu = -sum over edge ends at u of cot x_e and
    M_uv = sum over edges u -> v of exp(-i a_e l_e) / sin x_e (a the vector
    potential along the stored direction); a loop at u adds
    2 (cos(a l) - cos x) / sin x to M_uu.  Away from the poles
    sin x_e = 0, k is an eigenvalue exactly when M(k) is singular, with
    the same multiplicity.
    """
    n, m = len(graph.vertices), len(graph.edges)
    lengths = np.array([e.length for e in graph.edges])
    cot_part = np.zeros((m, n * n))
    csc_part = np.zeros((m, n * n), dtype=np.complex128)
    for i, e in enumerate(graph.edges):
        flux = e.phase_per_m * e.length
        cot_part[i, e.u * n + e.u] -= 1.0
        cot_part[i, e.v * n + e.v] -= 1.0
        if e.is_loop():
            csc_part[i, e.u * n + e.u] += 2.0 * math.cos(flux)
        else:
            csc_part[i, e.u * n + e.v] += np.exp(-1j * flux)
            csc_part[i, e.v * n + e.u] += np.exp(1j * flux)
    return lengths, cot_part, csc_part


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

    def check(self) -> None:
        if not (0.0 < self.k_min < self.k_max):
            raise ValueError(f"need 0 < k_min < k_max, got ({self.k_min}, {self.k_max})")
        if self.scan_step is not None and not (self.scan_step > 0.0):
            raise ValueError(f"scan_step must be positive, got {self.scan_step}")
        if not (self.root_tolerance > 0.0):
            raise ValueError("root_tolerance must be positive")
        if not (self.residual_threshold > 0.0):
            raise ValueError("residual_threshold must be positive")

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

# Every eigenvalue of the vertex matrix M(k) is computed to within
# VERTEX_ROUNDING * eps * 2 d_max / min_e |sin k l_e|: the summed magnitudes
# of the cot and csc terms bound each row of M by 2 d_max / min|sin|, and
# their rounding plus the Hermitian eigensolver's backward error stayed at
# or below 2.1 eps times that bound against 40-digit eigenvalues of the
# same matrices, at 800 points from 1e-13 to 1e-1 off a pole on K4, star
# and multi-edge graphs with a loop.  8 leaves a margin of four.
VERTEX_ROUNDING = 8.0

EPS = float(np.finfo(float).eps)


class _BondProblem:
    """Cached bond and vertex arrays of one graph plus its two level counts.

    `evaluate` counts with the vertex matrix and drives the search;
    `phase_count` counts with the eigenphases of U(k), verifies the
    result and stands in where the vertex count cannot decide.
    """

    def __init__(self, graph: MetricGraph, root_tolerance: float):
        self.lengths, self.chis, self.smat = bond_basis(graph)
        self.edge_lengths, self.cot_part, self.csc_part = vertex_basis(graph)
        self.total_length = graph.total_length
        # eigenphases move upward no slower than the shortest bond, so a
        # phase within phase_tol of zero puts k within root_tolerance of a root
        self.v_min = float(self.lengths.min())
        self.phase_tol = max(self.v_min * root_tolerance, PHASE_FLOOR)
        # eigenvalues of M rise no slower than v_min / 2 (each edge block's
        # k-derivative has eigenvalues l / (1 -/+ |cos k l|), a loop's at
        # least l), so an eigenvalue computed within eig_tol of zero with an
        # error below eig_tol puts k within root_tolerance of a root
        self.eig_tol = 0.25 * self.v_min * root_tolerance
        self.rounding = VERTEX_ROUNDING * EPS * 2.0 * max(map(graph.degree, graph.vertices))
        self.n_vertices = len(graph.vertices)
        self.offset = 0.5 * (len(graph.edges) + self.n_vertices)

    def evaluate(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_Batch.evaluate` for this graph alone."""
        return _Batch([self]).evaluate(ks, np.zeros(ks.size, dtype=np.intp))

    def phase_count(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`evaluate`'s three arrays from the eigenphases of U(k).

        A phase within phase_tol of zero marks a root at k.  Its sign is
        rounding noise, so it always counts as passed: the winding
        (2 L k - sum of principal phases) / 2 pi then steps by one at each
        root.  The polishing value is the distance of the nearest phase
        from zero, with the sign `evaluate`'s g has at the same winding,
        (-1)^(w + (E + V) / 2 + V).
        """
        theta = kernels.eigenphases(ks, self.lengths, self.chis, self.smat)
        signed = np.where(theta > math.pi, theta - TWO_PI, theta)
        at_root = np.abs(signed) <= self.phase_tol
        passed = np.where(at_root, signed, theta)
        winding = (2.0 * self.total_length * ks - passed.sum(axis=1)) / TWO_PI
        parity = np.rint(winding + self.offset + self.n_vertices) % 2
        g = (1.0 - 2.0 * parity) * np.abs(signed).min(axis=1)
        return winding, g, at_root.sum(axis=1)


class _Batch:
    """The problems of graphs with one vertex and one edge count, stacked
    so that one vertex-kernel call counts points of all of them.

    Every point's three numbers come out bit for bit as its graph's own
    problem alone would give them: the kernel multiplies each graph's rows
    with that graph's arrays, and the eigenphase fallback runs per graph.
    """

    def __init__(self, problems: list[_BondProblem]):
        self.problems = problems
        self.edge_lengths = np.stack([p.edge_lengths for p in problems])
        self.cot_part = np.stack([p.cot_part for p in problems])
        self.csc_part = np.stack([p.csc_part for p in problems])
        self.eig_tol = np.array([p.eig_tol for p in problems])
        self.rounding = np.array([p.rounding for p in problems])
        self.offset = np.array([p.offset for p in problems])

    def evaluate(
        self, ks: np.ndarray, owner: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Winding, polishing value and number of roots at each k.

        ks[i] belongs to graph owner[i].  The winding is
        sum_e floor(k l_e / pi) + n_+(M(k)) - (E + V) / 2, the number
        `phase_count` gives: n_+ loses one where an eigenvalue of M jumps
        from +inf to -inf at a pole, and the floor term gains it.  An
        eigenvalue within eig_tol of zero marks a root at k and counts as
        passed, so w(b) - w(a) is exactly the number of roots in (a, b].
        The polishing value
        g = (-1)^(sum_e floor(k l_e / pi)) prod_i (2 / pi) arctan(lambda_i)
        is continuous through the poles for the same reason, vanishes only
        at roots and changes sign at every simple root.  Points where
        rounding could flip the sign of an eigenvalue, or where
        floor(x / pi) could disagree with the sign of sin x, are counted by
        `phase_count`.
        """
        x = ks[:, None] * self.edge_lengths[owner]
        s_min = np.abs(np.sin(x)).min(axis=1)
        # x / pi carries a rounding of about eps x / pi, so floor(x / pi) is
        # exact wherever every |sin x_e| exceeds 4 eps max x
        idx = np.flatnonzero(s_min > 4.0 * EPS * x.max(axis=1))
        own = owner[idx]
        lam = kernels.vertex_eigenvalues(x[idx], self.cot_part, self.csc_part, own)
        # an eigenvalue decides its sign only when it lies farther from zero
        # than its rounding error, or inside the root band when that error
        # fits in the band
        eig_tol = self.eig_tol[own][:, None]
        mag, err = np.abs(lam), (self.rounding[own] / s_min[idx])[:, None]
        ambiguous = (mag <= err) & ((mag > eig_tol) | (err > eig_tol))
        trusted = ~ambiguous.any(axis=1)
        idx, own, lam, mag, eig_tol = (v[trusted] for v in (idx, own, lam, mag, eig_tol))

        winding, g = np.empty(ks.size), np.empty(ks.size)
        on_root = np.empty(ks.size, dtype=np.int64)
        floors = np.floor(x[idx] / math.pi).sum(axis=1)
        winding[idx] = floors + (lam >= -eig_tol).sum(axis=1) - self.offset[own]
        g[idx] = (1.0 - 2.0 * (floors % 2)) * (np.arctan(lam) / (0.5 * math.pi)).prod(axis=1)
        on_root[idx] = (mag <= eig_tol).sum(axis=1)
        rest = np.ones(ks.size, dtype=bool)
        rest[idx] = False
        for i in np.flatnonzero(np.bincount(owner[rest], minlength=len(self.problems))):
            pts = np.flatnonzero(rest & (owner == i))
            winding[pts], g[pts], on_root[pts] = self.problems[i].phase_count(ks[pts])
        return winding, g, on_root


def _isolate_roots(
    batch: _Batch,
    grid: np.ndarray,
    owner: np.ndarray,
    scan: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: SolverConfig,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sorted roots with multiplicities in (first, last grid point] of
    every graph of the batch.

    `grid` holds the graphs' scan grids one after another, owner[i] the
    graph of grid[i].  The scan's windings give the exact root count of
    every grid cell (a, b] within one graph.  Each iteration evaluates one
    point x per cell, of every graph, in a single call: an Anderson-Bjorck
    (safeguarded regula falsi) step on the polishing value g when the cell
    holds one root, across which g changes sign, the midpoint otherwise.
    A step stays half a tolerance inside the cell.  The winding at x
    splits the count between (a, x] and (x, b]; empty halves are dropped.
    A cell is done when all its roots sit on its right end, or when it is
    narrower than root_tolerance (a multiple root, reported at its
    midpoint).  Cells still open after MAX_REFINEMENT_ITERATIONS are left
    out, which the final winding verification reports.  Each graph's
    cells keep the order a batch of that graph alone gives them, so its
    roots do not depend on the other graphs.
    """
    w, f, on_root = scan
    count = np.rint(np.diff(w)).astype(np.int64)
    keep = (count > 0) & (owner[1:] == owner[:-1])
    cells = {
        "owner": owner[1:], "a": grid[:-1], "b": grid[1:], "wa": w[:-1], "fa": f[:-1],
        "fb": f[1:], "on_b": on_root[1:], "count": count,
    }
    cells = {key: v[keep] for key, v in cells.items()}
    # regula falsi end values (scaled down when the same end is kept twice
    # in a row) and the end the last such step kept: -1 for a, +1 for b, 0
    # for none
    cells.update(ga=cells["fa"], gb=cells["fb"], kept=np.zeros(keep.sum(), dtype=np.int64))

    roots: list[np.ndarray] = []
    mults: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    for _ in range(MAX_REFINEMENT_ITERATIONS):
        a, b, count = cells["a"], cells["b"], cells["count"]
        on_end = cells["on_b"] >= count
        narrow = ~on_end & (b - a < config.root_tolerance)
        roots += [b[on_end], 0.5 * (a + b)[narrow]]
        mults += [count[on_end], count[narrow]]
        owners += [cells["owner"][on_end], cells["owner"][narrow]]
        cells = {key: v[~(on_end | narrow)] for key, v in cells.items()}
        if cells["count"].size == 0:
            break
        a, b, fa, fb, ga, gb, kept = (
            cells[key] for key in ("a", "b", "fa", "fb", "ga", "gb", "kept")
        )
        falsi = (cells["count"] == 1) & (np.sign(fa) * np.sign(fb) < 0.0)
        x = b - gb * (b - a) / np.where(falsi, gb - ga, 1.0)
        # a root within half a tolerance of an end is then closed in by a
        # cell narrower than root_tolerance, not approached from one side
        half = 0.5 * config.root_tolerance
        x = np.where(falsi, np.clip(x, a + half, b - half), 0.5 * (a + b))
        wx, fx, on_x = batch.evaluate(x, cells["owner"])

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

    ks, mults, owners = (np.concatenate(v) for v in (roots, mults, owners))
    found = []
    for i in range(len(batch.problems)):
        k, m = ks[owners == i], mults[owners == i]
        order = np.argsort(k)
        found.append((k[order], m[order]))
    return found


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


def _verified_spectrum(
    problem: _BondProblem, ks: np.ndarray, mults: np.ndarray, config: SolverConfig
) -> Spectrum:
    """The spectrum of one graph from its isolated roots: SVD residuals,
    merged close roots and the eigenphase-winding verification."""
    k_lo, k_hi = config.k_min, config.k_max
    # contract residuals: smallest singular value of I - U at each root
    residuals = _svd_residuals(problem, ks)
    good = residuals <= config.residual_threshold
    # roots are accurate to root_tolerance (phase_tol / v_min), and the
    # probe midway between two roots must stay farther than that from both
    # true roots, so roots closer than four tolerances become one root
    keep, mults = _merge_close(ks[good], mults[good], 4.0 * problem.phase_tol / problem.v_min)
    ks, residuals = ks[good][keep], residuals[good][keep]

    # exact count verification by the eigenphase winding, independent of
    # the vertex count that found the roots: probes at the window edges and
    # midway between consecutive roots, so segment i holds root i alone
    edges = np.concatenate(([k_lo], 0.5 * (ks[1:] + ks[:-1]), [k_hi]))
    raw = np.diff(problem.phase_count(edges)[0])
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


def solve_spectra(graphs: Sequence[MetricGraph], config: SolverConfig) -> list[Spectrum]:
    """All eigenvalues of each graph in (k_min, k_max], verified complete.

    The graphs must share one vertex count and one edge count (a switch
    pair or a length-jittered ensemble does); they are solved in lockstep.
    One scan gives the exact vertex count of every grid cell of every
    graph; batched bisection and Anderson-Bjorck steps isolate and polish
    the roots of all graphs together (`_isolate_roots`).  Then, graph by
    graph, the eigenphase winding counts each segment between consecutive
    roots independently: a segment holding fewer roots than its count is
    reported through `status` and the completeness flag, never silently
    dropped.  A root within root_tolerance of a window edge lies on it:
    excluded at k_min, included at k_max.  Each spectrum is bit for bit
    the one the graph gives when solved alone.
    """
    graphs = list(graphs)
    for graph in graphs:
        violations = validate(graph)
        if violations:
            raise ValueError("invalid graph: " + "; ".join(violations))
    config.check()
    if len({(len(g.vertices), len(g.edges)) for g in graphs}) > 1:
        raise ValueError("graphs solved together need one vertex count and one edge count")
    if not graphs:
        return []

    problems = [_BondProblem(g, config.root_tolerance) for g in graphs]
    k_lo, k_hi = config.k_min, config.k_max
    grids = []
    for problem in problems:
        step = config.effective_step(problem.total_length)
        grids.append(np.linspace(k_lo, k_hi, max(int(math.ceil((k_hi - k_lo) / step)) + 1, 9)))
    grid = np.concatenate(grids)
    owner = np.repeat(np.arange(len(grids)), [g.size for g in grids])
    batch = _Batch(problems)
    scan = batch.evaluate(grid, owner)
    roots = _isolate_roots(batch, grid, owner, scan, config)
    return [
        _verified_spectrum(problem, ks, mults, config)
        for problem, (ks, mults) in zip(problems, roots)
    ]


def solve_spectrum(graph: MetricGraph, config: SolverConfig) -> Spectrum:
    """All eigenvalues of one graph in (k_min, k_max]: `solve_spectra`
    of a one-graph list."""
    return solve_spectra([graph], config)[0]


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

    This is the only place scipy is needed (its sparse shift-invert
    eigensolver); it is imported here so that importing qgraph, solving
    and campaigns stay numpy-only.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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
    plus, minus = solve_spectra([graph, negate_phases(graph)], config)
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
    for idx in indices:
        if not (1 <= idx <= n):
            raise ValueError(f"level index {idx} out of range 1..{n}")
    kept = np.delete(expanded, np.asarray(indices, dtype=np.int64) - 1)
    ks, mults = np.unique(kept, return_counts=True)
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
