import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgraph import kernels
from qgraph.graphs import Edge, MetricGraph
from qgraph.solver import bond_basis, bond_matrix

from conftest import eigvals_eigenphases, interval_graph, random_k4

K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def phase_distance(got, want):
    """Largest distance between matched eigenphases, row by row.

    Both rows are cut at the middle of the widest gap between the phases
    of `want`, so a phase near 0 ~ 2 pi cannot pair with its wrapped twin.
    """
    worst = 0.0
    for g, w in zip(np.atleast_2d(got), np.atleast_2d(want)):
        ws = np.sort(w)
        gaps = np.diff(np.append(ws, ws[0] + 2 * np.pi))
        cut = ws[gaps.argmax()] + 0.5 * gaps.max()
        gs = np.sort(np.mod(g - cut, 2 * np.pi))
        worst = max(worst, float(np.abs(gs - np.sort(np.mod(w - cut, 2 * np.pi))).max()))
    return worst


def test_eigenphases_match_bond_matrix_reference(rng):
    # the batched kernel against one eigvals call per bond_matrix(g, k)
    for _ in range(10):
        g = random_k4(rng, phase_scale=1.5)
        lengths, chis, smat = bond_basis(g)
        ks = rng.uniform(0.1, 60.0, size=20)
        got = np.sort(kernels.eigenphases(ks, lengths, chis, smat), axis=1)
        want = np.sort(
            [
                np.mod(np.angle(np.linalg.eigvals(bond_matrix(g, float(k)))), 2 * np.pi)
                for k in ks
            ],
            axis=1,
        )
        assert np.abs(got - want).max() < 1e-12


def _pole_offset(k, basis):
    """Signed distance from pi of the eigenphase nearest pi (eigvals)."""
    theta = eigvals_eigenphases(np.array([k]), *basis)[0] - math.pi
    return theta[np.abs(theta).argmin()]


def _near_pole_k(basis, lo=1.0, hi=4.0):
    """A k at which one eigenphase crosses pi, bisected down to one ulp.

    Eigenphases move upward with k, so the offset goes from - to + across
    the crossing; a small k keeps one ulp of k below 1e-15 in phase.
    """
    grid = np.linspace(lo, hi, 301)
    f = np.array([_pole_offset(k, basis) for k in grid])
    i = np.nonzero((f[:-1] < 0.0) & (f[1:] > 0.0) & (f[1:] - f[:-1] < 0.2))[0][0]
    a, b = grid[i], grid[i + 1]
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if _pole_offset(mid, basis) < 0.0:
            a = mid
        else:
            b = mid
    return min((a, b), key=lambda k: abs(_pole_offset(k, basis)))


def test_eigenphases_near_pole(rng):
    # an eigenphase within 1e-15 of pi is the pole of the Cayley map at
    # alpha = 0; the rotated pass must keep every phase at eigvals accuracy
    for _ in range(6):
        basis = bond_basis(random_k4(rng, phase_scale=1.5))
        k = _near_pole_k(basis)
        assert abs(_pole_offset(k, basis)) <= 1e-15
        got = kernels.eigenphases(np.array([k]), *basis)
        want = eigvals_eigenphases(np.array([k]), *basis)
        assert phase_distance(got, want) < 1e-12
        assert abs(got.sum() - want.sum()) < 1e-12


def test_eigenphases_complete_k6(rng):
    # 30 bonds: a larger rotation step count and bound than on K4
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    edges = tuple(
        Edge(i + 1, u, v, float(rng.uniform(0.3, 1.2)), float(rng.uniform(-1.0, 1.0)))
        for i, (u, v) in enumerate(pairs)
    )
    basis = bond_basis(MetricGraph(vertices=tuple(range(6)), edges=edges))
    assert basis[0].size == 30
    ks = rng.uniform(0.1, 60.0, size=200)
    got = kernels.eigenphases(ks, *basis)
    assert got.shape == (200, 30)
    assert phase_distance(got, eigvals_eigenphases(ks, *basis)) < 1e-12


def test_eigenphases_single_point(rng):
    basis = bond_basis(random_k4(rng, phase_scale=1.0))
    for k in rng.uniform(0.1, 60.0, size=20):
        ks = np.array([k])
        got = kernels.eigenphases(ks, *basis)
        assert got.shape == (1, 12)
        assert np.all((got >= 0.0) & (got < 2 * math.pi))
        assert phase_distance(got, eigvals_eigenphases(ks, *basis)) < 1e-12


def test_eigenphases_singular_first_pass():
    # on the interval at k = 0, U = S swaps the two bonds exactly, so I + U
    # is exactly singular: the whole batch moves on to the first rotation
    basis = bond_basis(interval_graph())
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(2) + basis[2])
    ks = np.array([0.0, 1.3, 2.0])
    got = kernels.eigenphases(ks, *basis)
    assert np.abs(np.sort(got[0]) - [0.0, math.pi]).max() < 1e-15
    assert phase_distance(got, eigvals_eigenphases(ks, *basis)) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6),
    phases=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    k=st.floats(1e-3, 200.0),
)
def test_eigenphases_match_eigvals_property(lengths, phases, k):
    edges = tuple(
        Edge(i + 1, u, v, length, phase)
        for i, ((u, v), length, phase) in enumerate(zip(K4_PAIRS, lengths, phases))
    )
    basis = bond_basis(MetricGraph(vertices=(0, 1, 2, 3), edges=edges))
    ks = np.array([k])
    assert phase_distance(kernels.eigenphases(ks, *basis), eigvals_eigenphases(ks, *basis)) < 1e-12


def test_unitarity_of_bond_matrix(rng):
    # 1000 random (graph, k) draws: every singular value of U equals 1
    for _ in range(50):
        g = random_k4(rng, phase_scale=float(rng.uniform(0, 2)))
        for k in rng.uniform(0.1, 60.0, size=20):
            u = bond_matrix(g, float(k))
            sv = np.linalg.svd(u, compute_uv=False)
            assert np.abs(sv - 1.0).max() < 1e-10


def test_norm_preservation_random_vectors(rng):
    g = random_k4(rng, phase_scale=0.7)
    for k in rng.uniform(0.5, 30.0, size=10):
        u = bond_matrix(g, float(k))
        x = rng.normal(size=u.shape[0]) + 1j * rng.normal(size=u.shape[0])
        assert abs(np.linalg.norm(u @ x) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)
