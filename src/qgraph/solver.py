"""Real-wavenumber spectra of closed metric graphs.

The spectrum is computed from the bond propagation matrix
U(k) = D(k) S on the 2E directed bonds: D(k) carries the metric and
magnetic phases exp(i (k + phi_b) L_b) and S the Neumann vertex
amplitudes 2/d - delta.  Eigenvalues of the graph are the k > 0 where
det(I - U(k)) = 0.  One numbering of the directed bonds (`_bonds`) builds
both S and the vertex matrix M below, a loop as two bonds like any other
edge.

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
vertex count, and the window edges, are counted by eigenphases instead.
One eigenphase pass at the roots themselves then verifies the result
independently, the winding up to each root counting the roots since the
one before, and gives each root's residual: U unitary makes I - U
normal, so the smallest singular value of I - U(k) is the distance
2 |sin(theta / 2)| of the nearest eigenvalue e^{i theta} of U from 1.

`solve_spectra` solves graphs with one vertex and edge count in lockstep
over one window, a (k_min, k_max) pair of floats checked by
`check_window`, from their stacked arrays, each kernel call taking a
point's graph from an owner index: one vertex-kernel call per search
step, one eigenphase call for all window edges, at most one per step
next to a pole, and one per graph to verify.  A verification call over
all roots of a chunk would hold all their 2E x 2E matrices at once,
which raised a 6-side chunk's peak memory by a fifth.  Each spectrum is
bit for bit the one its graph gives alone (`solve_spectrum`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .graphs import MetricGraph, validate

__all__ = [
    "check_window",
    "Spectrum",
    "bond_basis",
    "vertex_basis",
    "solve_spectrum",
    "solve_spectra",
    "drop_levels",
    "ROOT_TOLERANCE",
    "RESIDUAL_THRESHOLD",
]

TWO_PI = 2.0 * math.pi

# O(1) bound on |N_fl|, read only by perfbench/workloads.py, which builds synthetic
# spectra with it and runs unchanged against every commit it compares.
NFL_BOUND = 3.0

# Isolation iterations before cells still open are left to the final
# winding verification.
MAX_REFINEMENT_ITERATIONS = 200


# ---------------------------------------------------------------------------
# bond basis and the propagation matrix
# ---------------------------------------------------------------------------


def _bonds(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2E directed bonds of a graph, the numbering both bases share.

    Bond 2e is the edge at position e in its stored direction u -> v, bond
    2e+1 its reverse v -> u, so reversal is the involution b ^ 1.  Returns
    (tails, heads, lengths, chis): each bond's start and end vertex, its
    metric length and its magnetic phase chi_b = +/- a_e l_e, signed along
    the bond.  A loop is two bonds from u to u and needs no case of its own.
    """
    ends = np.array([(e.u, e.v) for e in graph.edges], dtype=np.int64).reshape(-1, 2)
    flux = np.array([e.phase_per_m * e.length for e in graph.edges])
    lengths = np.repeat([e.length for e in graph.edges], 2)
    return ends.ravel(), ends[:, ::-1].ravel(), lengths, np.stack([flux, -flux], 1).ravel()


def bond_basis(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bond lengths, phase offsets chi_b and the vertex scattering matrix.

    Returns (lengths, chis, S) on the bonds of `_bonds`, S with the Neumann
    amplitudes S[b', b] = 2/d - delta_{b', b ^ 1} wherever bond b' leaves
    the vertex d bonds leave and bond b enters.
    """
    tails, heads, lengths, chis = _bonds(graph)
    degree = np.bincount(tails)[tails]
    smat = np.where(tails[:, None] == heads, 2.0 / degree[:, None], 0.0)
    bonds = np.arange(tails.size)
    smat[bonds ^ 1, bonds] -= 1.0  # back-reflection along the same edge end
    return lengths, chis, smat.astype(np.complex128)


def vertex_basis(graph: MetricGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge lengths and the constant parts of the vertex secular matrix.

    With x_e = k l_e, the Hermitian V x V matrix
    M = cot(x) @ cot_part + csc(x) @ csc_part, flattened row-major, sums
    over the bonds b = u -> v of `_bonds`, b on edge e: -cot x_e at (u, u)
    and exp(-i chi_b) / sin x_e at (u, v).  A loop's two bonds both land
    on (u, u) and give it -2 cot x + 2 cos(a l) / sin x.  Away from the
    poles sin x_e = 0, k is an eigenvalue exactly when M(k) is singular,
    with the same multiplicity.
    """
    tails, heads, lengths, chis = _bonds(graph)
    n, m = len(graph.vertices), len(graph.edges)
    edge = np.arange(2 * m) // 2
    cot_part = np.zeros((m, n * n))
    csc_part = np.zeros((m, n * n), dtype=np.complex128)
    np.add.at(cot_part, (edge, tails * (n + 1)), -1.0)
    np.add.at(csc_part, (edge, tails * n + heads), np.exp(-1j * chis))
    return lengths[::2].copy(), cot_part, csc_part


# ---------------------------------------------------------------------------
# windows and results
# ---------------------------------------------------------------------------


def check_window(window: tuple[float, float]) -> None:
    """Refuse a window (k_min, k_max] unless 0 < k_min < k_max < inf and
    the float spacing at k_max is within ROOT_TOLERANCE, which holds below
    2^19 = 524288 rad/m: past it no cell narrows below the tolerance."""
    k_min, k_max = window
    if not (0.0 < k_min < k_max < math.inf):
        raise ValueError(f"need 0 < k_min < k_max, both finite, got ({k_min}, {k_max})")
    if math.ulp(k_max) > ROOT_TOLERANCE:
        raise ValueError(
            f"need k_max below 2^19 = 524288 rad/m, where the float spacing stays within "
            f"ROOT_TOLERANCE = {ROOT_TOLERANCE:g}, got {k_max!r}"
        )


@dataclass(frozen=True)
class Spectrum:
    """Sorted real wavenumbers with multiplicities over a k-window.

    `status` is "ok" only when the exact eigenphase-winding count matched
    the roots found: the one completeness verdict, and every spectrum the
    package makes has `complete == (status == "ok")`.  `nfl_max` is the
    largest |N_fl(k)|, the fluctuating part of the counting function
    N(k) - L (k - k_min) / pi relative to the window's lower edge, a
    diagnostic only: the equilateral K5, with multiplicities up to 7,
    reaches 5.5 while complete.  `levels_below` is the exact number of
    levels in [0, k_min], the Neumann zero mode included, from the
    winding at k_min: it anchors the counting function at the bottom.
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
    levels_below: int = 0

    def __post_init__(self):
        for name in ("wavenumbers", "multiplicities", "residuals"):
            arr = np.array(getattr(self, name))  # a copy: the caller's array stays writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

# Roots are polished to within ROOT_TOLERANCE in k.  A root whose residual,
# the smallest singular value of I - U(k), exceeds RESIDUAL_THRESHOLD is
# dropped.
ROOT_TOLERANCE = 1e-10
RESIDUAL_THRESHOLD = 1e-6

# The Cayley-map kernel's eigenphase errors are about eps * max|tan(phi/2)|,
# which its rotations keep below eps * max(100, 2 (2E + 1) / pi): 2.2e-14 up
# to 78 edges, then growing linearly with E and still below PHASE_FLOOR up
# to about 3500 edges (K13 and K14, 78 and 91 edges, solve "ok").  A phase
# this close to zero is taken as a root whatever ROOT_TOLERANCE asks for, so
# no decision rests on the sign of noise.
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

# winding, polishing value and number of roots at each point (`_Batch.evaluate`)
Counts = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Batch:
    """Bond and vertex arrays of graphs with one vertex and one edge count,
    stacked along a first axis, plus their two level counts.

    `evaluate` counts with the vertex matrix and drives the search;
    `phase_count` counts with the eigenphases of U(k), verifies the
    result, decides the window edges and stands in where the vertex count
    cannot decide.  Both take the graph of each point from an owner index,
    so one kernel call serves points of every graph.  The kernels treat
    each graph's rows on their own, so every point's three numbers come
    out bit for bit as a batch of its graph alone gives them.
    """

    def __init__(self, graphs: Sequence[MetricGraph]):
        self.lengths, self.chis, self.smat = map(np.stack, zip(*map(bond_basis, graphs)))
        self.edge_lengths, self.cot_part, self.csc_part = map(
            np.stack, zip(*map(vertex_basis, graphs))
        )
        self.total_length = np.array([g.total_length for g in graphs])
        # eigenphases move upward no slower than the shortest bond, so a
        # phase within phase_tol of zero puts k within ROOT_TOLERANCE of a root
        self.v_min = self.lengths.min(axis=1)
        self.phase_tol = np.maximum(self.v_min * ROOT_TOLERANCE, PHASE_FLOOR)
        # eigenvalues of M rise no slower than v_min / 2 (each edge block's
        # k-derivative has eigenvalues l / (1 -/+ |cos k l|), a loop's at
        # least l), so an eigenvalue computed within eig_tol of zero with an
        # error below eig_tol puts k within ROOT_TOLERANCE of a root
        self.eig_tol = 0.25 * self.v_min * ROOT_TOLERANCE
        degrees = np.array([max(map(g.degree, g.vertices)) for g in graphs])
        self.rounding = VERTEX_ROUNDING * EPS * 2.0 * degrees
        self.n_vertices = len(graphs[0].vertices)
        self.offset = 0.5 * (len(graphs[0].edges) + self.n_vertices)

    def evaluate(self, ks: np.ndarray, owner: np.ndarray) -> Counts:
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
        one `phase_count` call.
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
        winding[idx] = floors + (lam >= -eig_tol).sum(axis=1) - self.offset
        g[idx] = (1.0 - 2.0 * (floors % 2)) * (np.arctan(lam) / (0.5 * math.pi)).prod(axis=1)
        on_root[idx] = (mag <= eig_tol).sum(axis=1)
        rest = np.ones(ks.size, dtype=bool)
        rest[idx] = False
        if rest.any():
            winding[rest], g[rest], on_root[rest] = self.phase_count(ks[rest], owner[rest])
        return winding, g, on_root

    def phase_count(self, ks: np.ndarray, owner: np.ndarray, band: float | None = None) -> Counts:
        """`evaluate`'s three arrays from the eigenphases of U(k).

        ks[i] belongs to graph owner[i].  A phase within band (the graph's
        phase_tol unless given) of zero marks a root at k.  Its sign is
        rounding noise, so it always counts as passed: the winding
        (2 L k - sum of principal phases) / 2 pi then steps by one at each
        root.  The polishing value is the distance of the nearest phase
        from zero, with the sign `evaluate`'s g has at the same winding,
        (-1)^(w + (E + V) / 2 + V).
        """
        theta = kernels.eigenphases(ks, self.lengths[owner], self.chis[owner], self.smat[owner])
        signed = np.where(theta > math.pi, theta - TWO_PI, theta)
        tol = self.phase_tol[owner] if band is None else np.full(ks.size, band)
        at_root = np.abs(signed) <= tol[:, None]
        passed = np.where(at_root, signed, theta)
        winding = (2.0 * self.total_length[owner] * ks - passed.sum(axis=1)) / TWO_PI
        parity = np.rint(winding + self.offset + self.n_vertices) % 2
        g = (1.0 - 2.0 * parity) * np.abs(signed).min(axis=1)
        return winding, g, at_root.sum(axis=1)


def _isolate_roots(
    batch: _Batch, grid: np.ndarray, owner: np.ndarray, scan: Counts
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
    narrower than ROOT_TOLERANCE (a multiple root, reported at its
    midpoint).  Cells still open after MAX_REFINEMENT_ITERATIONS are left
    out, which the final winding verification reports.  Each graph's
    cells keep the order a batch of that graph alone gives them, so its
    roots do not depend on the other graphs.
    """
    w, f, on_root = scan
    count = np.rint(np.diff(w)).astype(np.int64)
    keep = (count > 0) & (owner[1:] == owner[:-1])
    cells = {
        "owner": owner[1:], "a": grid[:-1], "b": grid[1:], "wa": w[:-1], "ga": f[:-1],
        "gb": f[1:], "on_b": on_root[1:], "count": count,
    }
    cells = {key: v[keep] for key, v in cells.items()}
    # ga and gb are the regula falsi end values: the polishing value at each
    # end, scaled by factors > 0 while the same end is kept, so their signs
    # are the polishing value's.  kept is the end the last step kept by
    # regula falsi: -1 for a, +1 for b, 0 for none
    cells["kept"] = np.zeros(keep.sum(), dtype=np.int64)

    roots: list[np.ndarray] = []
    mults: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    for _ in range(MAX_REFINEMENT_ITERATIONS):
        a, b, count = cells["a"], cells["b"], cells["count"]
        on_end = cells["on_b"] >= count
        narrow = ~on_end & (b - a < ROOT_TOLERANCE)
        roots += [b[on_end], 0.5 * (a + b)[narrow]]
        mults += [count[on_end], count[narrow]]
        owners += [cells["owner"][on_end], cells["owner"][narrow]]
        cells = {key: v[~(on_end | narrow)] for key, v in cells.items()}
        if cells["count"].size == 0:
            break
        a, b, ga, gb, kept = (cells[key] for key in ("a", "b", "ga", "gb", "kept"))
        falsi = (cells["count"] == 1) & (np.sign(ga) * np.sign(gb) < 0.0)
        x = b - gb * (b - a) / np.where(falsi, gb - ga, 1.0)
        # a root within half a tolerance of an end is then closed in by a
        # cell narrower than ROOT_TOLERANCE, not approached from one side
        half = 0.5 * ROOT_TOLERANCE
        x = np.where(falsi, np.clip(x, a + half, b - half), 0.5 * (a + b))
        wx, fx, on_x = batch.evaluate(x, cells["owner"])

        below = np.rint(wx - cells["wa"]).astype(np.int64)
        # Anderson-Bjorck: the end kept twice in a row is scaled by
        # m = 1 - g(x) / g(replaced end), or by 1/2 when m <= 0; the end it
        # replaces is then the last step's x, whose g is still unscaled
        m_a = 1.0 - fx / np.where(falsi, gb, 1.0)
        m_b = 1.0 - fx / np.where(falsi, ga, 1.0)
        m_a = np.where(m_a > 0.0, m_a, 0.5)
        m_b = np.where(m_b > 0.0, m_b, 0.5)
        left = dict(cells, b=x, gb=fx, on_b=on_x, count=below,
                    ga=np.where(falsi & (kept == -1), m_a * ga, ga), kept=np.where(falsi, -1, 0))
        right = dict(cells, a=x, wa=wx, ga=fx, count=cells["count"] - below,
                     gb=np.where(falsi & (kept == 1), m_b * gb, gb), kept=np.where(falsi, 1, 0))
        live = np.concatenate([left["count"], right["count"]]) > 0
        cells = {key: np.concatenate([left[key], right[key]])[live] for key in cells}

    ks, mults, owners = (np.concatenate(v) for v in (roots, mults, owners))
    found = []
    for i in range(len(batch.total_length)):
        k, m = ks[owners == i], mults[owners == i]
        order = np.argsort(k)
        found.append((k[order], m[order]))
    return found


def _merge_close(
    ks: np.ndarray, mults: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Join sorted roots closer than radius into one multiple root.

    Returns the mask of the roots kept (the first of each group) and the
    summed multiplicities; radius 0 groups equal values, like np.unique.
    """
    first = np.ones(ks.size, dtype=bool)
    first[1:] = ks[1:] - ks[:-1] > radius
    return first, np.add.reduceat(mults, np.flatnonzero(first)).astype(np.int64, copy=False)


def _verified_spectrum(
    batch: _Batch, i: int, ks: np.ndarray, mults: np.ndarray, ends: np.ndarray, window: tuple
) -> Spectrum:
    """The spectrum of graph i of the batch from its isolated roots and the
    eigenphase windings `ends` at k_min and k_max.

    One eigenphase call at the roots gives each root's residual, the
    smallest singular value 2 sin(|theta| / 2) of I - U over the phases
    theta of U, and the winding there.  Roots above RESIDUAL_THRESHOLD are
    dropped and close roots merge into one multiple root.  The winding
    then counts, independently of the vertex count that found the roots,
    each segment (previous root, root]: it must hold that root's
    multiplicity, and (last root, k_max] none.  Each segment that does not
    gets one message with its bounds, the levels found and the count.
    """
    k_lo, k_hi = window
    v_min, total_length = batch.v_min[i], float(batch.total_length[i])
    # a polished root lies within tol of its level, and eigenphases move no
    # faster than the longest bond, so at a root its own phase lies within
    # band of zero and passes
    tol = batch.phase_tol[i] / v_min
    band = batch.lengths[i].max() * tol
    w_roots, g, _ = batch.phase_count(ks, np.full(ks.size, i), band)
    residuals = 2.0 * np.sin(0.5 * np.abs(g))
    good = residuals <= RESIDUAL_THRESHOLD
    ks, w_roots, residuals = ks[good], w_roots[good], residuals[good]
    # the band passes levels up to band / v_min past a probe's root, so
    # roots closer than tol more (and always within four tol) become one
    # multiple root: no probe passes the next root
    keep, mults = _merge_close(ks, mults[good], max(4.0 * tol, tol + band / v_min))
    # a group's winding is read at its last root, so its segment holds all
    # of its roots
    last = np.roll(keep, -1)
    edges = np.concatenate(([k_lo], ks[last], [k_hi]))
    raw = np.diff(np.concatenate(([ends[0]], w_roots[last], [ends[1]])))
    ks, residuals = ks[keep], residuals[keep]
    expected = np.rint(raw).astype(np.int64)
    found = np.append(mults, 0)

    inconclusive = np.abs(raw - expected) > 1e-5
    mismatched = np.flatnonzero(inconclusive | (found != expected))
    messages = tuple(
        f"({edges[j]:.9g}, {edges[j + 1]:.9g}]: found {found[j]} level(s), winding count "
        + (f"{float(raw[j])!r} (inconclusive)" if inconclusive[j] else f"{expected[j]}")
        for j in mismatched
    )
    if inconclusive.any() or (found > expected).any():
        status = "anomaly"
    else:
        status = "incomplete" if mismatched.size else "ok"

    expanded = np.repeat(ks, mults)
    nfl_max = fluctuation_envelope(expanded, (k_lo, k_hi), total_length)

    return Spectrum(
        wavenumbers=ks,
        multiplicities=mults,
        window=(k_lo, k_hi),
        total_length=total_length,
        residuals=residuals,
        complete=status == "ok",
        status=status,
        nfl_max=nfl_max,
        messages=messages,
        levels_below=int(np.rint(ends[0] + batch.offset)),
    )


def solve_spectra(graphs: Sequence[MetricGraph], window: tuple[float, float]) -> list[Spectrum]:
    """All eigenvalues of each graph in the window (k_min, k_max], verified
    complete.

    The graphs must share one vertex count and one edge count (a switch
    pair or a length-jittered ensemble does); they are solved in lockstep.
    One scan gives the exact vertex count of every grid cell of every
    graph; batched bisection and Anderson-Bjorck steps isolate and polish
    the roots of all graphs together (`_isolate_roots`).  Then, one call
    per graph, the eigenphase winding at the roots counts each segment up
    to a root independently (`_verified_spectrum`): a segment holding
    fewer roots than its count is reported through `status` and the
    completeness flag, never silently dropped.  A root whose eigenphase at
    a window edge lies within phase_tol of zero, as it does within
    ROOT_TOLERANCE l_min / l_max of the edge, lies on it: excluded at
    k_min, included at k_max.  One eigenphase call counts the edges of all
    graphs, for the search and the verification alike.  Each spectrum is bit
    for bit the one the graph gives when solved alone.

    The scan steps pi / (2 L) for total length L, at least 9 points over
    the window: the mean level density is L/pi per unit k, so the scan
    places two points per mean spacing.  The count of every scan cell is
    exact at any step, so the step trades scan points against bisection
    steps, not completeness.
    """
    graphs = list(graphs)
    for graph in graphs:
        violations = validate(graph)
        if violations:
            raise ValueError("invalid graph: " + "; ".join(violations))
    check_window(window)
    if len({(len(g.vertices), len(g.edges)) for g in graphs}) > 1:
        raise ValueError("graphs solved together need one vertex count and one edge count")
    if not graphs:
        return []

    k_lo, k_hi = window
    grids = []
    for graph in graphs:
        step = math.pi / (2.0 * graph.total_length)
        grids.append(np.linspace(k_lo, k_hi, max(int(math.ceil((k_hi - k_lo) / step)) + 1, 9)))
    grid = np.concatenate(grids)
    owner = np.repeat(np.arange(len(grids)), [g.size for g in grids])
    batch = _Batch(graphs)
    scan = batch.evaluate(grid, owner)
    # the window edges take the verifying eigenphase count, so a level near
    # an edge falls on the same side of it for the search and the
    # verification; the polishing value stays on the vertex count's scale,
    # which the isolation's regula falsi steps compare it with
    edge_pts = np.array([np.flatnonzero(owner == i)[[0, -1]] for i in range(len(graphs))])
    pts = edge_pts.ravel()
    scan[0][pts], _, scan[2][pts] = batch.phase_count(grid[pts], owner[pts])
    roots = _isolate_roots(batch, grid, owner, scan)
    return [
        _verified_spectrum(batch, i, ks, mults, scan[0][ends], window)
        for i, ((ks, mults), ends) in enumerate(zip(roots, edge_pts))
    ]


def solve_spectrum(graph: MetricGraph, window: tuple[float, float]) -> Spectrum:
    """All eigenvalues of one graph in the window (k_min, k_max]:
    `solve_spectra` of a one-graph list."""
    return solve_spectra([graph], window)[0]


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------


def drop_levels(spectrum: Spectrum, indices: list[int] | tuple[int, ...]) -> Spectrum:
    """Remove levels by 1-based position in the multiplicity-expanded list,
    each position at most once.

    Test and diagnostic helper: the returned spectrum carries status
    "fault-injected" and is never complete, since it lacks the removed
    levels; its fluctuation envelope is recomputed as a diagnostic.
    """
    expanded = spectrum.expanded()
    n = expanded.size
    for pos, idx in enumerate(indices):
        if not (1 <= idx <= n):
            raise ValueError(f"level index {idx} out of range 1..{n}")
        if idx in indices[:pos]:
            raise ValueError(f"level index {idx} repeated")
    kept = np.delete(expanded, np.asarray(indices, dtype=np.int64) - 1)
    dropped = ", ".join(f"{i} at k = {expanded[i - 1]:.9g} rad/m" for i in sorted(indices))
    first, mults = _merge_close(kept, np.ones(kept.size), 0.0)
    nfl_max = fluctuation_envelope(kept, spectrum.window, spectrum.total_length)
    return replace(
        spectrum,
        wavenumbers=kept[first],
        multiplicities=mults,
        residuals=np.zeros(mults.size),
        complete=False,
        status="fault-injected",
        nfl_max=nfl_max,
        messages=spectrum.messages + (f"dropped level(s) {dropped}",),
    )
