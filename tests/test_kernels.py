import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qgraph import kernels
from qgraph.graphs import Edge, MetricGraph
from qgraph.presets import preset
from qgraph.solver import bond_basis, vertex_basis

from conftest import (
    bond_matrix,
    eigvals_eigenphases,
    interval_graph,
    loop_graph,
    random_k4,
    three_star,
    vertex_matrix,
)
from test_solver import loopy_graphs

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


@pytest.mark.parametrize("graph", [interval_graph(), loop_graph()], ids=["interval", "loop"])
def test_eigenphases_half_open_range(graph):
    # at k = n pi every phase of these graphs is a multiple of pi, and one a
    # hair below 0 must fold to 0, not to 2 pi
    basis = bond_basis(graph)
    ks = np.arange(1, 400) * math.pi
    singles = [kernels.eigenphases(ks[i : i + 1], *basis) for i in range(ks.size)]
    for got in [kernels.eigenphases(ks, *basis)] + singles:
        assert np.all((got >= 0.0) & (got < 2 * math.pi))


def test_eigenphases_per_row_arrays_match_one_graph_calls(rng):
    # graphs with one bond count share a call through per-row arrays, and
    # each row's phases are bit for bit those of its graph's own call, the
    # rows that need a rotated pass included
    bases = [bond_basis(random_k4(rng, phase_scale=1.0)) for _ in range(3)]
    bases.append(bond_basis(preset("gue").graph))
    ks = rng.uniform(0.1, 60.0, size=400)
    owner = rng.integers(0, len(bases), size=ks.size)
    got = kernels.eigenphases(ks, *(np.stack(arrays)[owner] for arrays in zip(*bases)))
    for i, basis in enumerate(bases):
        assert np.array_equal(got[owner == i], kernels.eigenphases(ks[owner == i], *basis))


def test_vertex_eigenvalues_per_graph_rows_match_one_graph_calls(rng):
    # graphs with one vertex and edge count share a call through an owner
    # per row, and each row's eigenvalues are bit for bit those of its
    # graph's own call, a flux-free graph among phased ones
    graphs = [random_k4(rng, phase_scale=1.0) for _ in range(3)] + [random_k4(rng)]
    lengths, cot_parts, csc_parts = (np.stack(a) for a in zip(*map(vertex_basis, graphs)))
    ks = rng.uniform(0.1, 60.0, size=400)
    owner = rng.integers(0, len(graphs), size=ks.size)
    got = kernels.vertex_eigenvalues(ks[:, None] * lengths[owner], cot_parts, csc_parts, owner)
    for i in range(len(graphs)):
        rows = owner == i
        alone = kernels.vertex_eigenvalues(
            ks[rows, None] * lengths[i], cot_parts[i : i + 1], csc_parts[i : i + 1],
            np.zeros(rows.sum(), dtype=np.int64),
        )
        assert np.array_equal(got[rows], alone)


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


def _count_graphs(rng):
    """Graphs for the count identity: presets, phased K4, the small graphs,
    and a three-vertex graph with a phased loop and a phased double edge."""
    multi = MetricGraph(
        vertices=(0, 1, 2),
        edges=(
            Edge(1, 0, 1, 0.7, 0.9),
            Edge(2, 1, 0, 0.45, 1.3),
            Edge(3, 1, 1, 0.33, -0.8),
            Edge(4, 1, 2, 0.61, 0.4),
            Edge(5, 2, 0, 0.5),
        ),
    )
    graphs = [preset(name).graph for name in ("gue", "goe_a", "goe_b")]
    graphs += [random_k4(rng, phase_scale=1.5) for _ in range(3)]
    return graphs + [interval_graph(), loop_graph(0.8), three_star(), multi]


def test_vertex_count_matches_eigenphase_winding(rng):
    # sum_e floor(k l_e / pi) + n_+(M(k)) - (E + V) / 2 is the eigenphase
    # winding (2 L k - sum of principal phases) / 2 pi, with no calibration
    for g in _count_graphs(rng):
        lengths, cot_part, csc_part = vertex_basis(g)
        bonds = bond_basis(g)
        ks = rng.uniform(0.1, 60.0, size=2000)
        theta = kernels.eigenphases(ks, *bonds)
        signed = np.where(theta > math.pi, theta - 2 * math.pi, theta)
        off_root = np.abs(signed).min(axis=1) > 1e-9
        winding = (2 * g.total_length * ks - theta.sum(axis=1)) / (2 * math.pi)
        x = ks[:, None] * lengths
        lam = kernels.vertex_eigenvalues(x, cot_part[None], csc_part[None], np.zeros(ks.size, int))
        count = np.floor(x / math.pi).sum(axis=1) + (lam > 0).sum(axis=1)
        offset = 0.5 * (len(g.edges) + len(g.vertices))
        assert off_root.mean() > 0.99
        assert np.abs(count - offset - winding)[off_root].max() < 1e-9


def test_vertex_matrix_singular_at_eigenvalues():
    # the smallest |eigenvalue| of M vanishes at the three-star's levels
    # that avoid the poles, and M is Hermitian by construction
    from test_solver import THREE_STAR_ORACLE

    lengths, cot_part, csc_part = vertex_basis(three_star())
    x = THREE_STAR_ORACLE[:, None] * lengths
    off_pole = np.abs(np.sin(x)).min(axis=1) > 1e-3
    lam = kernels.vertex_eigenvalues(
        x[off_pole], cot_part[None], csc_part[None], np.zeros(off_pole.sum(), int)
    )
    assert off_pole.sum() >= 10
    assert np.abs(lam).min(axis=1).max() < 1e-7
    m = np.cos(x) / np.sin(x) @ cot_part + (1 / np.sin(x)) @ csc_part
    m = m.reshape(-1, 4, 4)
    assert np.array_equal(m, m.conj().swapaxes(1, 2))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(graph=loopy_graphs(), k=st.floats(0.1, 30.0))
def test_vertex_basis_matches_the_edge_by_edge_matrix(graph, k):
    # the vertex matrix of vertex_basis, built from the directed bonds,
    # equals M(k) written edge by edge with a loop case of its own, on
    # graphs with a loop, a double edge and vector potentials
    lengths, cot_part, csc_part = vertex_basis(graph)
    x = k * lengths
    assume(np.abs(np.sin(x)).min() > 1e-2)
    n = len(graph.vertices)
    m = (np.cos(x) / np.sin(x) @ cot_part + (1 / np.sin(x)) @ csc_part).reshape(n, n)
    want = vertex_matrix(graph, k)
    assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()


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
