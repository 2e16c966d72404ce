import math

import numpy as np
import pytest

from qgraph.graphs import Edge, MetricGraph, validate
from qgraph.presets import gue_numerics_window
from qgraph.solver import Spectrum, bond_basis, fluctuation_envelope
from qgraph.stats import (
    BIN_WIDTH,
    MIN_FIT_SPACINGS,
    SpacingSample,
    TransitionFitResult,
    _inverse_cdf,
    spacing_histogram,
    transition_pdf,
    wigner_pdf,
)


def interval_graph(length=1.0):
    return MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, length),))


def loop_graph(length=1.0):
    return MetricGraph(vertices=(0,), edges=(Edge(1, 0, 0, length),))


def three_star(arms=(1.0, 0.7, 0.5)):
    edges = tuple(Edge(i + 1, 0, i + 1, arm) for i, arm in enumerate(arms))
    return MetricGraph(vertices=tuple(range(len(arms) + 1)), edges=edges)


def gue_numerics_manifest(count=40, jitter=0.02, seed=20260809):
    """The paper's broken-time-reversal numerics campaign as a manifest:
    seeded length jitters of the gue preset at constant total length, each
    paired with its switch image, over the window of gue_numerics_window."""
    return {
        "preset": "gue",
        "randomized": {"count": count, "jitter": jitter},
        "seed": seed,
        "window_k": list(gue_numerics_window()),
    }


def canonical_edges(graph: MetricGraph) -> tuple[tuple[int, int, float, float], ...]:
    """Sorted orientation-independent edge tuples: (min, max) endpoints, the
    phase sign following min -> max.  Equal tuples mean the same edges up to
    orientation."""
    return tuple(
        sorted(
            (e.u, e.v, e.length, e.phase_per_m)
            if e.u <= e.v
            else (e.v, e.u, e.length, -e.phase_per_m)
            for e in graph.edges
        )
    )


def random_k4(rng, phase_scale=0.0):
    """Connected four-vertex graph with generic lengths (and optional phases)."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = tuple(
        Edge(
            i + 1,
            u,
            v,
            float(rng.uniform(0.3, 1.2)),
            float(rng.uniform(-1.0, 1.0) * phase_scale),
        )
        for i, (u, v) in enumerate(pairs)
    )
    return MetricGraph(vertices=(0, 1, 2, 3), edges=edges)


def eigvals_eigenphases(ks, lengths, chis, smat):
    """Reference kernel: the phases of the general eigenvalues of U(k), in
    [0, 2 pi); same signature as qgraph.kernels.eigenphases, one graph's
    (2E,) arrays or per-row (n, 2E) ones."""
    d = np.exp(1j * (ks[:, None] * lengths + chis))
    u = d[:, :, None] * smat
    return np.mod(np.angle(np.linalg.eigvals(u)), 2 * np.pi)


def bond_matrix(graph: MetricGraph, k: float) -> np.ndarray:
    """Reference propagation matrix: the unitary U(k) = D(k) S on the
    directed bonds of qgraph.solver.bond_basis, at one wavenumber."""
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")
    lengths, chis, smat = bond_basis(graph)
    d = np.exp(1j * (k * lengths + chis))
    return d[:, None] * smat


def vertex_matrix(graph: MetricGraph, k: float) -> np.ndarray:
    """Reference vertex secular matrix M(k) (Kottos & Smilansky, Ann. Phys.
    274, 76 (1999)), written edge by edge with x = k l_e and a the vector
    potential along the stored direction u -> v: an edge adds -cot x to M_uu
    and to M_vv, exp(-i a l) / sin x to M_uv and exp(i a l) / sin x to M_vu;
    a loop at u adds 2 (cos(a l) - cos x) / sin x to M_uu."""
    n = len(graph.vertices)
    m = np.zeros((n, n), dtype=np.complex128)
    for e in graph.edges:
        x, flux = k * e.length, e.phase_per_m * e.length
        if e.u == e.v:
            m[e.u, e.u] += 2.0 * (math.cos(flux) - math.cos(x)) / math.sin(x)
        else:
            m[e.u, e.u] -= 1.0 / math.tan(x)
            m[e.v, e.v] -= 1.0 / math.tan(x)
            m[e.u, e.v] += np.exp(-1j * flux) / math.sin(x)
            m[e.v, e.u] += np.exp(1j * flux) / math.sin(x)
    return m


def secular_residual(graph: MetricGraph, k: float) -> float:
    """Reference residual: the smallest singular value of I - U(k) from an
    SVD; zero exactly at eigenvalues."""
    u = bond_matrix(graph, k)
    a = np.eye(u.shape[0], dtype=np.complex128) - u
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def fd_oracle_spectrum(
    graph: MetricGraph, n_points_per_edge: int = 2000, count: int = 10
) -> np.ndarray:
    """Reference spectrum: the lowest `count` positive wavenumbers of a
    discretized Laplacian, independent of the secular equation.

    Each edge is divided into n_points_per_edge intervals of a lumped-mass
    linear-element discretization of -d^2/dx^2; magnetic phases enter as
    per-link Peierls factors, and Kirchhoff current conservation at the
    vertices is the natural condition of the assembled form.  Eigenvalue
    accuracy is O(h^2) with h = L_e / n_points_per_edge.  The zero mode
    (lambda below 1e-6) is excluded.  scipy's sparse shift-invert
    eigensolver does the work.
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


def least_squares_fit_xi(sample: SpacingSample) -> TransitionFitResult:
    """Reference fit: scipy's trust-region least squares from xi = 1, an
    unweighted pass then a Poisson-weighted one; same result type as
    qgraph.stats.fit_xi.  Its answer depends on the path from xi = 1 where
    the objective has several local minima."""
    from scipy.optimize import least_squares

    n_samples = sample.spacings.size
    if n_samples < MIN_FIT_SPACINGS:
        raise ValueError(f"need at least {MIN_FIT_SPACINGS} spacings, got {n_samples}")
    centers, density = spacing_histogram(sample)
    first = least_squares(
        lambda p: transition_pdf(centers, p[0]) - density, x0=[1.0], bounds=([0.0], [np.inf])
    )
    if not first.success:
        raise RuntimeError(
            f"xi fit did not converge: {first.message}; final cost {first.cost!r}"
        )
    model = np.maximum(transition_pdf(centers, float(first.x[0])), 1e-3)
    sigma = np.sqrt(model / (n_samples * BIN_WIDTH))
    result = least_squares(
        lambda p: (transition_pdf(centers, p[0]) - density) / sigma,
        x0=first.x,
        bounds=([0.0], [np.inf]),
    )
    if not result.success:
        raise RuntimeError(
            f"xi fit did not converge: {result.message}; final cost {result.cost!r}"
        )
    xi = float(result.x[0])
    rss = 2.0 * result.cost
    dof = max(centers.size - 1, 1)
    jtj = float((result.jac.T @ result.jac).item())
    if jtj > 0.0:
        uncertainty = math.sqrt((rss / dof) / jtj)
    else:
        uncertainty = math.inf
    return TransitionFitResult(xi=xi, xi_uncertainty=uncertainty, goodness=rss / dof)


def sample_wigner(ensemble: str, n: int, rng) -> np.ndarray:
    """n spacings drawn from the GOE or GUE Wigner surmise.

    GOE inverts its CDF in closed form; GUE interpolates the inverse of its
    tabulated CDF (`qgraph.stats._inverse_cdf`, built once per process).
    """
    if ensemble == "GOE":
        u = rng.random(n)
        return np.sqrt(-4.0 * np.log1p(-u) / math.pi)
    grid, cdf = _inverse_cdf(wigner_pdf, ensemble)
    return np.interp(rng.random(n), cdf, grid)


def make_spectrum(ks, window, total_length, mults=None):
    """Hand-built Spectrum for statistics tests."""
    ks = np.asarray(ks, dtype=float)
    if mults is None:
        mults = np.ones(ks.size, dtype=np.int64)
    else:
        mults = np.asarray(mults, dtype=np.int64)
    expanded = np.repeat(ks, mults)
    nfl = fluctuation_envelope(expanded, window, total_length)
    return Spectrum(
        wavenumbers=ks,
        multiplicities=mults,
        window=window,
        total_length=total_length,
        residuals=np.zeros(ks.size),
        complete=bool(nfl <= 3.0),
        status="ok",
        nfl_max=nfl,
        messages=(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
