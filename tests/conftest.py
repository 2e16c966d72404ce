import math

import numpy as np
import pytest

from qgraph.graphs import Edge, MetricGraph
from qgraph.solver import Spectrum, fluctuation_envelope
from qgraph.stats import (
    BIN_WIDTH,
    MIN_FIT_SPACINGS,
    SpacingSample,
    TransitionFitResult,
    spacing_histogram,
    transition_pdf,
)


def interval_graph(length=1.0):
    return MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, length),))


def loop_graph(length=1.0):
    return MetricGraph(vertices=(0,), edges=(Edge(1, 0, 0, length),))


def three_star(arms=(1.0, 0.7, 0.5)):
    edges = tuple(Edge(i + 1, 0, i + 1, arm) for i, arm in enumerate(arms))
    return MetricGraph(vertices=tuple(range(len(arms) + 1)), edges=edges)


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
