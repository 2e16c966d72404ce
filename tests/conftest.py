import numpy as np
import pytest

from qgraph.graphs import Edge, MetricGraph
from qgraph.solver import Spectrum, fluctuation_envelope


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
    [0, 2 pi); same signature as qgraph.kernels.eigenphases."""
    d = np.exp(1j * (ks[:, None] * lengths[None, :] + chis[None, :]))
    u = d[:, :, None] * smat[None, :, :]
    return np.mod(np.angle(np.linalg.eigvals(u)), 2 * np.pi)


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
