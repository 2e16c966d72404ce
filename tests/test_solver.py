import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qgraph import kernels, solver
from qgraph.graphs import Edge, MetricGraph, SwitchDescriptor, edge_switch, negate_phases
from qgraph.ensemble import plan_from_manifest
from qgraph.presets import preset
from qgraph.solver import (
    RESIDUAL_THRESHOLD,
    ROOT_TOLERANCE,
    _Batch,
    _merge_close,
    check_window,
    drop_levels,
    solve_spectra,
    solve_spectrum,
)
from qgraph.stats import interlacing_degree
from qgraph.units import k_from_ghz

from conftest import (
    bond_matrix,
    eigvals_eigenphases,
    fd_oracle_spectrum,
    gue_numerics_manifest,
    interval_graph,
    loop_graph,
    make_spectrum,
    random_k4,
    secular_residual,
    three_star,
)

# dense k-scan of the secular residual at step 1e-5 over (0.1, 20) with
# parabolic refinement of the squared residual; arms 1.0 / 0.7 / 0.5
THREE_STAR_ORACLE = np.array(
    [
        1.7969261491752164,
        2.6485326905767383,
        4.219580524743771,
        5.651110036314364,
        7.323259956126184,
        8.445753969570912,
        10.24465377411493,
        11.092578179614371,
        12.859860997718222,
        14.529170828812862,
        15.707963267948966,
        16.886755707085268,
        18.556065538179002,
    ]
)


def test_neumann_amplitudes_degree_one():
    # dead end reflects with amplitude 2/1 - 1 = +1
    u = bond_matrix(interval_graph(), 1.0)
    assert u.shape == (2, 2)
    d = np.exp(1j * 1.0)
    assert np.allclose(u, d * np.array([[0, 1], [1, 0]]))


def test_neumann_amplitudes_degree_two_transparent():
    # a degree-2 vertex transmits with amplitude 1 and reflects with 0
    g = MetricGraph(vertices=(0, 1, 2), edges=(Edge(1, 0, 1, 0.6), Edge(2, 1, 2, 0.4)))
    u = bond_matrix(g, 2.0)
    # incoming bond 0 (edge 1 forward, into vertex 1) scatters into bond 2
    # (edge 2 forward) with amplitude 1 and back into bond 1 with 0
    assert abs(abs(u[2, 0]) - 1.0) < 1e-14
    assert abs(u[1, 0]) < 1e-14


def test_bond_matrix_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        bond_matrix(interval_graph(), 0.0)


def test_secular_residual_interval():
    g = interval_graph()
    assert secular_residual(g, math.pi) < 1e-10
    assert secular_residual(g, math.pi / 2) > 0.1


def test_secular_residual_loop_double_root():
    g = loop_graph()
    u = bond_matrix(g, 2 * math.pi)
    sv = np.linalg.svd(np.eye(2) - u, compute_uv=False)
    assert sv.max() < 1e-10  # both singular values vanish together


def test_interval_spectrum():
    spec = solve_spectrum(interval_graph(), (0.1, 10.0))
    assert np.allclose(spec.expanded(), math.pi * np.arange(1, 4), rtol=1e-9)
    assert list(spec.multiplicities) == [1, 1, 1]
    assert spec.complete and spec.status == "ok"


def test_window_is_half_open_at_edge_eigenvalues():
    # (k_min, k_max]: an eigenvalue on k_min is left out, one on k_max kept
    above = solve_spectrum(interval_graph(), (math.pi, 10.0))
    assert np.allclose(above.expanded(), [2 * math.pi, 3 * math.pi], rtol=1e-9)
    assert above.status == "ok" and above.complete
    upto = solve_spectrum(interval_graph(), (0.1, 3 * math.pi))
    assert np.allclose(upto.expanded(), math.pi * np.arange(1, 4), rtol=1e-9)
    assert upto.status == "ok" and upto.complete


@pytest.mark.parametrize("name", ["gue", "goe_a"])
def test_window_edges_within_a_tolerance_of_levels(name):
    # a reported level, or a point within a tolerance of it, as k_min of one
    # solve and k_max of another: the search and the verification put the
    # level on the same side of the edge, so both solves are "ok" and
    # split the levels between them
    p = preset(name)
    ref = solve_spectrum(p.graph, p.window)
    k_lo, k_hi = p.window[0], float(ref.wavenumbers[8:10].mean())
    want = ref.expanded()[ref.expanded() <= k_hi]
    for k in ref.wavenumbers[:8]:
        for offset in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9):
            edge = k + offset * ROOT_TOLERANCE
            upto = solve_spectrum(p.graph, (k_lo, edge))
            above = solve_spectrum(p.graph, (edge, k_hi))
            assert upto.status == above.status == "ok"
            got = np.concatenate((upto.expanded(), above.expanded()))
            assert got.size == want.size
            assert np.abs(got - want).max() < 1e-9


def test_roots_on_scan_grid_points():
    # both windows get the 9-point minimum grid, steps of pi/4 and pi/2,
    # which puts scan points on every root
    spec = solve_spectrum(interval_graph(), (math.pi / 2, 2.5 * math.pi))
    assert np.allclose(spec.expanded(), [math.pi, 2 * math.pi], rtol=1e-9)
    assert spec.status == "ok"
    loop = solve_spectrum(loop_graph(), (math.pi, 5 * math.pi))
    assert np.allclose(loop.wavenumbers, [2 * math.pi, 4 * math.pi], rtol=1e-9)
    assert list(loop.multiplicities) == [2, 2] and loop.status == "ok"


def test_zero_mode_window_rejected():
    # k = 0 is the Neumann constant mode, not a root of the secular equation
    with pytest.raises(ValueError):
        check_window((0.0, 10.5))
    with pytest.raises(ValueError):
        solve_spectrum(interval_graph(), (0.0, 10.5))


SPLIT_RINGS = [
    pytest.param(alpha, 0.4, id=str(alpha)) for alpha in (1e-11, 1e-10, 1e-5, 1e-4, 1e-3, 2e-2)
]
# edges nine times apart: a root probe's band reaches nine tolerances past
# its root, so pairs 4.2, 4.8 and 7 tolerances apart must merge
SPLIT_RINGS += [pytest.param(sep * 5e-11, 0.1, id=f"unequal-{sep}") for sep in (4.2, 4.8, 7.0)]


@pytest.mark.parametrize("alpha, short", SPLIT_RINGS)
def test_split_ring_pairs_resolved(alpha, short):
    # a ring of length 1 with flux alpha has levels 2 pi n -/+ alpha: each
    # pair is 2 alpha apart, well inside one scan cell; pairs within a few
    # root tolerances come back as one double root
    ring = MetricGraph(
        vertices=(0, 1),
        edges=(Edge(1, 0, 1, short, alpha), Edge(2, 1, 0, 1.0 - short, alpha)),
    )
    spec = solve_spectrum(ring, (0.1, 40.0))
    n = 2 * math.pi * np.arange(1, 7)
    expect = np.sort(np.concatenate([n - alpha, n + alpha]))
    assert spec.count == 12
    assert spec.status == "ok" and spec.complete
    assert np.abs(spec.expanded() - expect).max() < 1e-9


def test_numerics_solve_kernel_budget(monkeypatch):
    # root isolation is batched: a handful of kernel calls per solve, not
    # one call per refinement step
    calls, points = [], []

    def counted(kernel):
        def run(ks, *rest):
            calls.append(1)
            points.append(len(ks))
            return kernel(ks, *rest)

        return run

    # the vertex kernel searches and the eigenphase kernel verifies: both
    # count, so moving work from one to the other cannot pass vacuously
    for name in ("eigenphases", "vertex_eigenvalues"):
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
    # the residuals come from the verifying eigenphases, not from an SVD
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svd_calls.append(1) or svd(*a, **kw))
    plan = plan_from_manifest(gue_numerics_manifest(count=1, seed=5))
    spec = solve_spectrum(plan.pairs[0][0], plan.window)
    assert spec.status == "ok" and spec.complete
    assert len(calls) <= 40
    assert sum(points) <= 10 * spec.count
    assert not svd_calls


@pytest.mark.parametrize(
    "fault, status",
    [("drop first", "incomplete"), ("drop middle", "incomplete"), ("drop last", "incomplete"),
     ("one more", "anomaly")],
)
def test_verification_catches_search_faults(monkeypatch, fault, status):
    # the eigenphase verification is independent of the search: a root the
    # search loses, or a multiplicity it overcounts, never comes back "ok",
    # and a message names a segment (a, b] around the lost root
    isolate = solver._isolate_roots
    lost = []

    def faulty(*args):
        found = []
        for ks, mults in isolate(*args):
            i = {"drop first": 0, "drop last": ks.size - 1}.get(fault, ks.size // 2)
            if fault == "one more":
                mults = mults.copy()
                mults[i] += 1
            else:
                lost.append(ks[i])
                ks, mults = np.delete(ks, i), np.delete(mults, i)
            found.append((ks, mults))
        return found

    monkeypatch.setattr(solver, "_isolate_roots", faulty)
    p = preset("gue")
    spec = solve_spectrum(p.graph, p.window)
    assert spec.status == status and not spec.complete
    assert spec.messages
    for k in lost:
        segments = [re.match(r"\((\S+), (\S+)\]: found", m).groups() for m in spec.messages]
        assert any(float(a) < k <= float(b) for a, b in segments), (k, spec.messages)


def _tetrahedron(rng, spread):
    """goe_a wiring with all edges 0.5 m within +/- spread, A = 0."""
    base = preset("goe_a").graph
    return base.with_edges(
        tuple(
            replace(e, length=0.5 + spread * rng.uniform(-1.0, 1.0), phase_per_m=0.0)
            for e in base.edges
        )
    )


@pytest.mark.parametrize("spread", [0.0, 1e-7, 1e-5])
def test_vertex_count_near_poles(rng, spread):
    # at 1e-4 ... 1e-12 from the poles k l_e in pi Z the vertex matrix is
    # huge and the Dirichlet-type levels of a (near-)regular tetrahedron sit
    # on or beside the poles; the guarded count still equals the eigenphase
    # winding wherever neither count marks a root, while the plain inertia
    # of the computed 4 x 4 eigenvalues does not
    g = _tetrahedron(rng, spread)
    batch = _Batch([g])
    poles = np.concatenate([np.arange(1, 12) * math.pi / e.length for e in g.edges])
    offsets = np.concatenate([s * 10.0 ** -np.arange(4, 13) for s in (-1.0, 1.0)])
    ks = (poles[:, None] + offsets).ravel()
    owner = np.zeros(ks.size, dtype=np.intp)
    w_vertex, _, on_vertex = batch.evaluate(ks, owner)
    w_phase, _, on_phase = batch.phase_count(ks, owner)
    off_root = (on_vertex == 0) & (on_phase == 0)
    assert off_root.mean() > 0.5
    assert np.abs(w_vertex - w_phase)[off_root].max() < 1e-9

    x = ks[:, None] * batch.edge_lengths[0]
    lam = kernels.vertex_eigenvalues(x, batch.cot_part, batch.csc_part, owner)
    plain = np.floor(x / math.pi).sum(axis=1) + (lam > 0).sum(axis=1) - batch.offset
    assert np.any(np.abs(plain - w_phase)[off_root] > 0.5)


@st.composite
def loopy_graphs(draw):
    """Connected graphs on 5 or 6 vertices with a loop, a double edge and
    random extra edges, lengths and vector potentials."""
    n = draw(st.integers(5, 6))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # spanning tree
    pairs.append((draw(st.integers(0, n - 1)),) * 2)
    pairs.append(pairs[draw(st.integers(0, n - 2))][::-1])
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = tuple(
        Edge(i + 1, u, v, draw(st.floats(0.2, 1.2)), draw(st.floats(-2.0, 2.0)))
        for i, (u, v) in enumerate(pairs)
    )
    return MetricGraph(vertices=tuple(range(n)), edges=edges)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graph=loopy_graphs(), cuts=st.lists(st.floats(0.1, 12.0), min_size=8, max_size=8))
def test_window_counts_match_both_counts_property(graph, cuts):
    # every level count of a verified spectrum over a sub-window equals the
    # eigenphase-winding difference and the vertex-count difference
    spec = solve_spectrum(graph, (0.1, 12.0))
    assume(spec.status == "ok")
    levels = spec.expanded()
    cuts = np.array([k for k in cuts if np.abs(levels - k).min(initial=1.0) > 1e-6])
    assume(cuts.size >= 2)
    a, b = np.minimum(cuts[:-1], cuts[1:]), np.maximum(cuts[:-1], cuts[1:])
    inside = (levels[None, :] > a[:, None]) & (levels[None, :] <= b[:, None])
    batch = _Batch([graph])
    owner = np.zeros(a.size, dtype=np.intp)
    for count in (batch.phase_count, batch.evaluate):
        wa, wb = count(a, owner)[0], count(b, owner)[0]
        assert np.array_equal(np.rint(wb - wa), inside.sum(axis=1))
        assert np.abs(wb - wa - np.rint(wb - wa)).max() < 1e-9


@st.composite
def k4_graphs(draw):
    """The four-vertex complete graph with random lengths and vector
    potentials."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = tuple(
        Edge(i + 1, u, v, draw(st.floats(0.3, 1.2)), draw(st.floats(-1.0, 1.0)))
        for i, (u, v) in enumerate(pairs)
    )
    return MetricGraph(vertices=(0, 1, 2, 3), edges=edges)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graph=st.one_of(k4_graphs(), loopy_graphs()), data=st.data())
def test_spectrum_invariant_under_edge_order_and_orientation(graph, data):
    # edge order is bookkeeping, and an edge traversed v -> u with the
    # opposite vector potential is the same edge; A -> -A conjugates the
    # Hamiltonian, whose real spectrum stays
    order = data.draw(st.permutations(graph.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    edges = tuple(
        replace(e, u=e.v, v=e.u, phase_per_m=-e.phase_per_m) if flip else e
        for e, flip in zip(order, flips)
    )
    window = (0.1, 12.0)
    a, reversed_phases = solve_spectra([graph, negate_phases(graph)], window)
    for b in (solve_spectrum(graph.with_edges(edges), window), reversed_phases):
        assert a.status == b.status
        assert a.count == b.count
        assert np.array_equal(a.multiplicities, b.multiplicities)
        assert np.abs(a.wavenumbers - b.wavenumbers).max(initial=0.0) <= 2.0 * ROOT_TOLERANCE


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graph=k4_graphs(), data=st.data())
def test_switch_pairs_interlace_at_level_one_property(graph, data):
    # the edge switch moves no level past its neighbour: sup |N - N_tilde|
    # <= 1 (Aizenman, Schanz, Smilansky & Warzel, Acta Phys. Pol. A 132,
    # 1699 (2017)), with or without a vector potential
    if data.draw(st.booleans()):
        graph = graph.with_edges(tuple(replace(e, phase_per_m=0.0) for e in graph.edges))
    pivot = data.draw(st.integers(0, 3))
    incident = [e.id for e in graph.edges if pivot in (e.u, e.v)]
    edge_a, edge_b = data.draw(st.permutations(incident))[:2]
    switched = edge_switch(graph, SwitchDescriptor(pivot, edge_a, edge_b))
    # the theorem counts from the bottom of the spectrum, and so does the
    # degree, through levels_below (a magnetic ground state can lie below
    # k_min on one side only)
    before, after = solve_spectra([graph, switched], (0.1, 12.0))
    assume(before.status == after.status == "ok")
    assert interlacing_degree(before, after) <= 1


def test_solve_spectra_bit_identical_to_solving_alone(rng, monkeypatch):
    # sides solved in lockstep come out bit for bit as each solved alone,
    # so a campaign's digest does not depend on how its sides are chunked:
    # switch pairs of the presets, a regular tetrahedron with multiple
    # levels and a near-regular one whose search counts points next to a
    # pole by eigenphases
    window = (0.1, 40.0)
    graphs = []
    for name in ("gue", "goe_a", "goe_b"):
        p = preset(name)
        graphs += [p.graph, edge_switch(p.graph, p.sweep.switch)]
    regular, near = _tetrahedron(rng, 0.0), _tetrahedron(rng, 1e-7)
    graphs += [regular, near]

    calls = []
    eigenphases = kernels.eigenphases

    def counted(ks, *rest):
        calls.append(1)
        return eigenphases(ks, *rest)

    monkeypatch.setattr(kernels, "eigenphases", counted)
    alone = [solve_spectrum(g, window) for g in graphs]
    assert len(calls) > len(graphs)  # more than one verification call each
    assert alone[-2].multiplicities.max() > 1

    together = solve_spectra(graphs, window)
    # no scan cell spans two graphs' grids, also where the next graph's
    # winding at k_min exceeds this graph's at k_max: such a cell would
    # put the count difference on the window's midpoint, 2.5, which is a
    # level of the 8 pi interval
    short, long = interval_graph(1.0), interval_graph(8.0 * math.pi)
    narrow = (2.0, 3.0)
    together += solve_spectra([short, long], narrow)
    alone += [solve_spectrum(short, narrow), solve_spectrum(long, narrow)]
    for a, b in zip(together, alone, strict=True):
        assert np.array_equal(a.wavenumbers, b.wavenumbers)
        assert np.array_equal(a.multiplicities, b.multiplicities)
        assert np.array_equal(a.residuals, b.residuals)
        assert (a.status, a.complete, a.nfl_max, a.messages) == (
            b.status, b.complete, b.nfl_max, b.messages
        )


def test_phase_count_mixing_owners_matches_each_graph_alone(rng):
    # one phase_count call over the points of several graphs gives every
    # point's winding, polishing value and root count bit for bit as a
    # batch of its graph alone does, at the default band and a given one;
    # each graph's levels are among the points, so roots are marked
    graphs = [random_k4(rng, phase_scale=1.0) for _ in range(3)] + [preset("gue").graph]
    levels = [solve_spectrum(g, (0.1, 10.0)).wavenumbers for g in graphs]
    ks = np.concatenate([rng.uniform(0.1, 60.0, size=200)] + levels)
    owner = np.concatenate(
        [rng.integers(0, len(graphs), size=200)]
        + [np.full(k.size, i) for i, k in enumerate(levels)]
    )
    order = rng.permutation(ks.size)
    ks, owner = ks[order], owner[order]
    batch = _Batch(graphs)
    for band in (None, 1e-3):
        mixed = batch.phase_count(ks, owner, band)
        assert mixed[2].any()
        for i, graph in enumerate(graphs):
            mine = owner == i
            alone = _Batch([graph]).phase_count(ks[mine], np.zeros(mine.sum(), dtype=np.intp), band)
            for got, want in zip(mixed, alone, strict=True):
                assert np.array_equal(got[mine], want)


def test_solve_spectra_needs_one_vertex_and_edge_count():
    window = (0.1, 10.0)
    with pytest.raises(ValueError):
        solve_spectra([preset("goe_a").graph, three_star()], window)  # 6 and 3 edges
    with pytest.raises(ValueError):
        solve_spectra([interval_graph(), loop_graph()], window)  # 2 and 1 vertices
    assert solve_spectra([], window) == []


def test_coarse_default_scan_matches_fine_scan(rng):
    # per-cell counts are exact at any step, so the default two points per
    # mean spacing finds what an eight-point scan finds: the union of solves
    # over sub-windows at most one mean spacing wide, each of which gets the
    # 9-point minimum grid, a step of at most pi / (8 L)
    for _ in range(20):
        g = random_k4(rng, phase_scale=1.0)
        coarse = solve_spectrum(g, (0.1, 40.0))
        n = math.ceil((40.0 - 0.1) * g.total_length / math.pi)
        edges = np.linspace(0.1, 40.0, n + 1)
        parts = [solve_spectrum(g, (lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        assert coarse.status == "ok" and all(part.status == "ok" for part in parts)
        fine_ks = np.concatenate([part.wavenumbers for part in parts])
        fine_mults = np.concatenate([part.multiplicities for part in parts])
        assert coarse.count == fine_mults.sum()
        assert np.array_equal(coarse.multiplicities, fine_mults)
        assert np.abs(coarse.wavenumbers - fine_ks).max() < 1e-9


def test_spectra_match_eigvals_kernel(rng, monkeypatch):
    # the solver with the Cayley kernel against the solver with the general
    # eigvals phases, which verify every solve and count the points next to
    # a pole: phased random K4 graphs and near-regular tetrahedra, whose
    # close levels put phase pairs near zero together
    cases = [(random_k4(rng, phase_scale=1.0), (0.1, 40.0)) for _ in range(20)]
    for spread in (1e-7, 4e-3):
        for _ in range(3):
            cases.append((_tetrahedron(rng, spread), (0.1, 60.0)))
    cayley = [solve_spectrum(g, window) for g, window in cases]
    monkeypatch.setattr(kernels, "eigenphases", eigvals_eigenphases)
    for (g, window), got in zip(cases, cayley):
        want = solve_spectrum(g, window)
        assert got.status == want.status == "ok"
        assert got.count == want.count
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert np.abs(got.wavenumbers - want.wavenumbers).max() < 1e-10


def test_loop_spectrum_degenerate():
    spec = solve_spectrum(loop_graph(), (0.1, 14.0))
    assert np.allclose(spec.wavenumbers, 2 * math.pi * np.arange(1, 3), rtol=1e-9)
    assert list(spec.multiplicities) == [2, 2]


def test_analytic_spectra_random_lengths(rng):
    for _ in range(20):
        length = float(rng.uniform(0.3, 2.5))
        spec = solve_spectrum(interval_graph(length), (0.1, 12.0 / length))
        n = np.arange(1, spec.count + 1)
        assert np.abs(spec.expanded() - n * math.pi / length).max() < 1e-9
        lspec = solve_spectrum(loop_graph(length), (0.1, 16.0 / length))
        expect = 2 * math.pi * np.arange(1, lspec.wavenumbers.size + 1) / length
        assert np.abs(lspec.wavenumbers - expect).max() < 1e-9
        assert all(m == 2 for m in lspec.multiplicities)


def _complete(n):
    return [(u, v) for v in range(n) for u in range(v)]


# vertex pairs of the equilateral graphs below; the cube's vertices are the
# 3-bit words, joined when they differ in one bit
EQUILATERAL = {
    "K4": _complete(4),
    "K5": _complete(5),
    "K6": _complete(6),
    "K3,3": [(u, v) for u in range(3) for v in range(3, 6)],
    "cube": [(u, u | b) for u in range(8) for b in (1, 2, 4) if not u & b],
    "petersen": [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
}


@pytest.mark.parametrize("name", EQUILATERAL)
def test_equilateral_spectra_match_von_below(name):
    # the exact spectrum of an equilateral Neumann graph, edge length l
    # (J. von Below, Linear Algebra Appl. 71, 365 (1985)): off k l in pi Z,
    # k is a level exactly when cos(k l) is an eigenvalue mu of D^-1 A, with
    # its multiplicity; at k l = m pi the multiplicity is E - V + 2, or
    # E - V for odd m on a graph that is not bipartite
    pairs, length, (k_lo, k_hi) = EQUILATERAL[name], 0.7, (0.1, 40.0)
    graph = MetricGraph(
        vertices=tuple(sorted({v for pair in pairs for v in pair})),
        edges=tuple(Edge(i + 1, u, v, length) for i, (u, v) in enumerate(pairs)),
    )
    n_v, n_e = len(graph.vertices), len(pairs)
    adjacency = np.zeros((n_v, n_v))
    for u, v in pairs:
        adjacency[u, v] = adjacency[v, u] = 1.0
    degree = adjacency.sum(axis=1)
    mu = np.linalg.eigvalsh(adjacency / np.sqrt(np.outer(degree, degree)))
    # mu = -1 only on a bipartite graph; mu = +-1 give the levels on the
    # poles, and a computed -1 can be 1e-8 off
    bipartite = abs(mu[0] + 1.0) < 1e-6
    theta = np.arccos(mu[np.abs(np.abs(mu) - 1.0) > 1e-6])
    turns = 2.0 * math.pi * np.arange(int(k_hi * length / (2.0 * math.pi)) + 2)[:, None]
    off_poles = np.concatenate([turns + theta, turns - theta]).ravel() / length
    m = np.arange(1, int(k_hi * length / math.pi) + 1)
    on_poles = np.repeat(m * math.pi / length, n_e - n_v + np.where(bipartite | (m % 2 == 0), 2, 0))
    expected = np.sort(np.concatenate([off_poles, on_poles]))
    expected = expected[(expected > k_lo) & (expected <= k_hi)]

    spec = solve_spectrum(graph, (k_lo, k_hi))
    assert spec.status == "ok"
    assert spec.count == expected.size
    assert np.abs(spec.expanded() - expected).max() < 1e-8
    first = np.flatnonzero(np.diff(expected, prepend=-1.0) > 1e-8)
    assert np.array_equal(spec.multiplicities, np.diff(first, append=expected.size))


def test_three_star_matches_dense_scan_oracle():
    spec = solve_spectrum(three_star(), (0.1, 20.0))
    assert spec.count == THREE_STAR_ORACLE.size
    assert np.abs(spec.expanded() - THREE_STAR_ORACLE).max() < 1e-8


def test_goe_a_window_count():
    spec = solve_spectrum(preset("goe_a").graph, (k_from_ghz(0.01), k_from_ghz(2.5)))
    assert 35 <= spec.count <= 38
    assert spec.status == "ok" and spec.complete


def test_residuals_below_threshold():
    window = (0.1, 20.0)
    spec = solve_spectrum(three_star(), window)
    assert spec.residuals.max() <= RESIDUAL_THRESHOLD


@pytest.mark.parametrize("name", ["gue", "goe_a", "loop", "three_star"])
def test_residuals_match_secular_residual(name):
    # the residual from the nearest eigenphase is the smallest singular
    # value of I - U that the SVD reference computes
    if name in ("gue", "goe_a"):
        graph, window = preset(name).graph, preset(name).window
    else:
        graph = loop_graph() if name == "loop" else three_star()
        window = (0.1, 20.0)
    spec = solve_spectrum(graph, window)
    assert spec.status == "ok" and spec.wavenumbers.size > 2
    want = [secular_residual(graph, k) for k in spec.wavenumbers]
    assert np.abs(spec.residuals - want).max() < 1e-12


def test_fd_oracle_interval():
    ks = fd_oracle_spectrum(interval_graph(), 2000, 3)
    assert np.abs(ks / (math.pi * np.arange(1, 4)) - 1).max() < 1e-5


def test_fd_oracle_loop_degenerate_pair():
    ks = fd_oracle_spectrum(loop_graph(), 2000, 2)
    assert np.abs(ks - 2 * math.pi).max() < 1e-3


def test_fd_oracle_agrees_with_solver_on_preset():
    g = preset("goe_a").graph
    oracle = fd_oracle_spectrum(g, 2000, 12)
    spec = solve_spectrum(g, (k_from_ghz(0.01), k_from_ghz(2.5)))
    oracle = oracle[oracle > spec.window[0]][:10]
    mine = spec.expanded()[:10]
    assert np.abs(mine - oracle).max() < 1e-3 * oracle.max()


def test_fd_oracle_validates_input():
    with pytest.raises(ValueError):
        fd_oracle_spectrum(interval_graph(), 50, 3)
    with pytest.raises(ValueError):
        fd_oracle_spectrum(interval_graph(), 2000, 0)


def test_phase_reversal_symmetry():
    g = preset("gue").graph
    window = (k_from_ghz(0.8), k_from_ghz(1.6))
    plus, minus = solve_spectra([g, negate_phases(g)], window)
    assert plus.count == minus.count
    assert np.abs(plus.expanded() - minus.expanded()).max() <= 2 * ROOT_TOLERANCE


def test_phase_reversal_identity_without_phases():
    g = preset("goe_a").graph
    window = (0.5, 15.0)
    plus, minus = solve_spectra([g, negate_phases(g)], window)
    assert np.array_equal(plus.wavenumbers, minus.wavenumbers)


def test_doubling_the_phases_moves_levels():
    g = preset("gue").graph
    window = (k_from_ghz(0.8), k_from_ghz(1.6))
    base = solve_spectrum(g, window)
    doubled = solve_spectrum(
        g.with_edges(
            tuple(Edge(e.id, e.u, e.v, e.length, 2 * e.phase_per_m) for e in g.edges)
        ),
        window,
    )
    n = min(base.count, doubled.count)
    shift = np.abs(base.expanded()[:n] - doubled.expanded()[:n]).max()
    assert shift > 10 * ROOT_TOLERANCE


def test_determinism_bit_identical():
    window = (k_from_ghz(0.01), k_from_ghz(2.5))
    g = preset("goe_a").graph
    a = solve_spectrum(g, window)
    b = solve_spectrum(g, window)
    assert np.array_equal(a.wavenumbers, b.wavenumbers)
    assert np.array_equal(a.residuals, b.residuals)
    assert a.nfl_max == b.nfl_max


def test_drop_levels_flags_incomplete():
    g = preset("goe_a").graph
    spec = solve_spectrum(g, (k_from_ghz(0.01), k_from_ghz(2.5)))
    assert spec.complete
    # dropping enough consecutive levels must push |N_fl| past the bound
    faulted = drop_levels(spec, list(range(10, 14)))
    assert faulted.status == "fault-injected"
    assert not faulted.complete
    assert faulted.count == spec.count - 4
    # the levels kept keep their residuals, bit for bit
    assert spec.multiplicities.max() == 1 and faulted.residuals.any()
    assert np.array_equal(faulted.residuals, np.delete(spec.residuals, range(9, 13)))


def test_drop_levels_validates_index():
    spec = solve_spectrum(interval_graph(), (0.1, 10.0))
    with pytest.raises(ValueError):
        drop_levels(spec, [99])
    # a repeated index would remove one level and name it twice
    with pytest.raises(ValueError, match="level index 3 repeated"):
        drop_levels(spec, [3, 3])
    # nothing to drop is no fault to inject
    for indices in ([], ()):
        with pytest.raises(ValueError, match="no level index to drop"):
            drop_levels(spec, indices)


def test_spectrum_freezes_copies_not_the_callers_arrays():
    ks, mults, res = np.array([1.0, 2.0]), np.array([1, 2]), np.zeros(2)
    spec = solver.Spectrum(
        wavenumbers=ks,
        multiplicities=mults,
        window=(0.5, 3.0),
        total_length=1.0,
        residuals=res,
        complete=True,
        status="ok",
        nfl_max=0.0,
    )
    ks[0], mults[0], res[0] = 5.0, 3, 1.0  # the caller's arrays stay writable
    assert spec.wavenumbers.tolist() == [1.0, 2.0] and spec.count == 3
    assert spec.residuals.tolist() == [0.0, 0.0]
    for arr in (spec.wavenumbers, spec.multiplicities, spec.residuals):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


# sorted levels with ties: values from a small pool repeat, others may not
SORTED_WITH_TIES = st.lists(
    st.sampled_from([0.5, 1.0, 2.5]) | st.floats(0.2, 9.8), max_size=30
).map(sorted)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ks=SORTED_WITH_TIES)
def test_merge_close_at_radius_zero_is_np_unique(ks):
    ks = np.array(ks, dtype=float)
    first, counts = _merge_close(ks, np.ones(ks.size), 0.0)
    values, reference = np.unique(ks, return_counts=True)
    assert np.array_equal(ks[first], values)
    assert np.array_equal(counts, reference) and counts.dtype == reference.dtype


@st.composite
def spectra_and_drops(draw):
    """Distinct levels in (0.1, 10] with multiplicities up to 3, each with
    its own residual, and a non-empty set of 1-based positions in the
    expanded list to drop."""
    ks = draw(st.lists(st.floats(0.2, 9.8), unique=True, min_size=1, max_size=12).map(sorted))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(ks), max_size=len(ks)))
    n = sum(mults)
    drops = draw(st.lists(st.integers(1, n), unique=True, min_size=1, max_size=n))
    spec = make_spectrum(ks, (0.1, 10.0), 1.0, mults)
    return replace(spec, residuals=np.arange(1, len(ks) + 1) * 1e-9), drops


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=spectra_and_drops())
def test_drop_levels_groups_like_np_unique(case):
    spec, drops = case
    kept = np.delete(spec.expanded(), np.array(drops, dtype=np.int64) - 1)
    values, counts = np.unique(kept, return_counts=True)
    faulted = drop_levels(spec, drops)
    assert np.array_equal(faulted.wavenumbers, values)
    assert np.array_equal(faulted.multiplicities, counts)
    assert faulted.multiplicities.dtype == counts.dtype
    # each level kept keeps its residual
    assert np.array_equal(faulted.residuals, spec.residuals[np.isin(spec.wavenumbers, values)])


def test_check_window_refuses_bad_windows():
    for window in ((5.0, 1.0), (-1.0, 1.0), (0.1, math.inf), (0.1, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="need 0 < k_min < k_max, both finite"):
            check_window(window)
    check_window((0.1, 1.0))
    # from 2^19 rad/m up the float spacing exceeds ROOT_TOLERANCE, so no
    # isolation cell could ever close
    limit = 2.0**19
    assert math.ulp(math.nextafter(limit, 0.0)) <= ROOT_TOLERANCE < math.ulp(limit)
    check_window((limit - 100.0, math.nextafter(limit, 0.0)))
    for k_max in (limit, 6e5, 1e300):
        with pytest.raises(ValueError, match=r"k_max below 2\^19 = 524288 rad/m"):
            check_window((limit - 100.0, k_max))


def test_solve_rejects_invalid_graph():
    bad = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, -1.0),))
    with pytest.raises(ValueError):
        solve_spectrum(bad, (0.1, 5.0))
