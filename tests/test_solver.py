import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qgraph import kernels
from qgraph.graphs import Edge, MetricGraph, SwitchDescriptor, edge_switch, negate_phases
from qgraph.presets import gue_numerics_plan, preset
from qgraph.solver import (
    SolverConfig,
    _BondProblem,
    bond_matrix,
    drop_levels,
    fd_oracle_spectrum,
    secular_residual,
    solve_spectra,
    solve_spectrum,
    spectrum_under_phase_reversal,
)
from qgraph.stats import interlacing_degree
from qgraph.units import k_from_ghz

from conftest import eigvals_eigenphases, interval_graph, loop_graph, random_k4, three_star

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
    spec = solve_spectrum(interval_graph(), SolverConfig(0.1, 10.0))
    assert np.allclose(spec.expanded(), math.pi * np.arange(1, 4), rtol=1e-9)
    assert list(spec.multiplicities) == [1, 1, 1]
    assert spec.complete and spec.status == "ok"


def test_window_is_half_open_at_edge_eigenvalues():
    # (k_min, k_max]: an eigenvalue on k_min is left out, one on k_max kept
    above = solve_spectrum(interval_graph(), SolverConfig(math.pi, 10.0))
    assert np.allclose(above.expanded(), [2 * math.pi, 3 * math.pi], rtol=1e-9)
    assert above.status == "ok" and above.complete
    upto = solve_spectrum(interval_graph(), SolverConfig(0.1, 3 * math.pi))
    assert np.allclose(upto.expanded(), math.pi * np.arange(1, 4), rtol=1e-9)
    assert upto.status == "ok" and upto.complete


def test_roots_on_scan_grid_points():
    # grid steps of pi/4 and pi/2 put scan points on every root
    spec = solve_spectrum(
        interval_graph(), SolverConfig(math.pi / 2, 2.5 * math.pi, scan_step=math.pi / 4)
    )
    assert np.allclose(spec.expanded(), [math.pi, 2 * math.pi], rtol=1e-9)
    assert spec.status == "ok"
    loop = solve_spectrum(loop_graph(), SolverConfig(math.pi, 5 * math.pi, scan_step=math.pi / 2))
    assert np.allclose(loop.wavenumbers, [2 * math.pi, 4 * math.pi], rtol=1e-9)
    assert list(loop.multiplicities) == [2, 2] and loop.status == "ok"


def test_zero_mode_window_rejected():
    # k = 0 is the Neumann constant mode, not a root of the secular equation
    with pytest.raises(ValueError):
        SolverConfig(0.0, 10.5).check()
    with pytest.raises(ValueError):
        solve_spectrum(interval_graph(), SolverConfig(0.0, 10.5))


@pytest.mark.parametrize("alpha", [1e-11, 1e-10, 1e-5, 1e-4, 1e-3, 2e-2])
def test_split_ring_pairs_resolved(alpha):
    # a ring of length 1 with flux alpha has levels 2 pi n -/+ alpha: each
    # pair is 2 alpha apart, well inside one scan cell; pairs within a few
    # root tolerances come back as one double root
    ring = MetricGraph(
        vertices=(0, 1), edges=(Edge(1, 0, 1, 0.4, alpha), Edge(2, 1, 0, 0.6, alpha))
    )
    spec = solve_spectrum(ring, SolverConfig(0.1, 40.0))
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
    plan = gue_numerics_plan(count=1, seed=5)
    spec = solve_spectrum(plan.pairs[0][0], plan.solver)
    assert spec.status == "ok" and spec.complete
    assert len(calls) <= 40
    assert sum(points) <= 10 * spec.count


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
    problem = _BondProblem(g, 1e-10)
    poles = np.concatenate([np.arange(1, 12) * math.pi / e.length for e in g.edges])
    offsets = np.concatenate([s * 10.0 ** -np.arange(4, 13) for s in (-1.0, 1.0)])
    ks = (poles[:, None] + offsets).ravel()
    w_vertex, _, on_vertex = problem.evaluate(ks)
    w_phase, _, on_phase = problem.phase_count(ks)
    off_root = (on_vertex == 0) & (on_phase == 0)
    assert off_root.mean() > 0.5
    assert np.abs(w_vertex - w_phase)[off_root].max() < 1e-9

    x = ks[:, None] * problem.edge_lengths
    lam = kernels.vertex_eigenvalues(x, problem.cot_part, problem.csc_part)
    plain = np.floor(x / math.pi).sum(axis=1) + (lam > 0).sum(axis=1) - problem.offset
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
    spec = solve_spectrum(graph, SolverConfig(0.1, 12.0))
    assume(spec.status == "ok")
    levels = spec.expanded()
    cuts = np.array([k for k in cuts if np.abs(levels - k).min(initial=1.0) > 1e-6])
    assume(cuts.size >= 2)
    a, b = np.minimum(cuts[:-1], cuts[1:]), np.maximum(cuts[:-1], cuts[1:])
    inside = (levels[None, :] > a[:, None]) & (levels[None, :] <= b[:, None])
    problem = _BondProblem(graph, 1e-10)
    for count in (problem.phase_count, problem.evaluate):
        wa, wb = count(a)[0], count(b)[0]
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
    cfg = SolverConfig(0.1, 12.0)
    a, reversed_phases = spectrum_under_phase_reversal(graph, cfg)
    for b in (solve_spectrum(graph.with_edges(edges), cfg), reversed_phases):
        assert a.status == b.status
        assert a.count == b.count
        assert np.array_equal(a.multiplicities, b.multiplicities)
        assert np.abs(a.wavenumbers - b.wavenumbers).max(initial=0.0) <= 2.0 * cfg.root_tolerance


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
    cfg = SolverConfig(0.1, 12.0)
    # the theorem counts from the bottom of the spectrum and the degree from
    # k_min; the winding plus (E + V) / 2 counts the levels in [0, k], so
    # equal windings at k_min mean the two counts start together (a
    # magnetic ground state can lie below k_min on one side only)
    w = [_BondProblem(g, 1e-10).evaluate(np.array([cfg.k_min]))[0] for g in (graph, switched)]
    assume(w[0] == w[1])
    before, after = solve_spectra([graph, switched], cfg)
    assume(before.status == after.status == "ok")
    assert interlacing_degree(before, after) <= 1


def test_solve_spectra_bit_identical_to_solving_alone(rng, monkeypatch):
    # sides solved in lockstep come out bit for bit as each solved alone,
    # so a campaign's digest does not depend on how its sides are chunked:
    # switch pairs of the presets, a regular tetrahedron with multiple
    # levels and a near-regular one whose search counts points next to a
    # pole by eigenphases
    cfg = SolverConfig(0.1, 40.0)
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
    alone = [solve_spectrum(g, cfg) for g in graphs]
    assert len(calls) > len(graphs)  # more than one verification call each
    assert alone[-2].multiplicities.max() > 1

    together = solve_spectra(graphs, cfg)
    # no scan cell spans two graphs' grids, also where the next graph's
    # winding at k_min exceeds this graph's at k_max: such a cell would
    # put the count difference on the window's midpoint, 2.5, which is a
    # level of the 8 pi interval
    short, long = interval_graph(1.0), interval_graph(8.0 * math.pi)
    narrow = SolverConfig(2.0, 3.0)
    together += solve_spectra([short, long], narrow)
    alone += [solve_spectrum(short, narrow), solve_spectrum(long, narrow)]
    for a, b in zip(together, alone, strict=True):
        assert np.array_equal(a.wavenumbers, b.wavenumbers)
        assert np.array_equal(a.multiplicities, b.multiplicities)
        assert np.array_equal(a.residuals, b.residuals)
        assert (a.status, a.complete, a.nfl_max, a.messages) == (
            b.status, b.complete, b.nfl_max, b.messages
        )


def test_solve_spectra_needs_one_vertex_and_edge_count():
    cfg = SolverConfig(0.1, 10.0)
    with pytest.raises(ValueError):
        solve_spectra([preset("goe_a").graph, three_star()], cfg)  # 6 and 3 edges
    with pytest.raises(ValueError):
        solve_spectra([interval_graph(), loop_graph()], cfg)  # 2 and 1 vertices
    assert solve_spectra([], cfg) == []


def test_coarse_default_scan_matches_fine_scan(rng):
    # per-cell winding counts are exact at any step, so the default two
    # points per mean spacing finds what an eight-point scan finds
    for _ in range(20):
        g = random_k4(rng, phase_scale=1.0)
        cfg = SolverConfig(0.1, 40.0)
        coarse = solve_spectrum(g, cfg)
        fine = solve_spectrum(
            g, SolverConfig(0.1, 40.0, scan_step=math.pi / (8.0 * g.total_length))
        )
        assert coarse.status == "ok" and fine.status == "ok"
        assert coarse.count == fine.count
        assert np.array_equal(coarse.multiplicities, fine.multiplicities)
        assert np.abs(coarse.wavenumbers - fine.wavenumbers).max() < 1e-9


def test_spectra_match_eigvals_kernel(rng, monkeypatch):
    # the solver with the Cayley kernel against the solver with the general
    # eigvals phases, which verify every solve and count the points next to
    # a pole: phased random K4 graphs and near-regular tetrahedra, whose
    # close levels put phase pairs near zero together
    cases = [(random_k4(rng, phase_scale=1.0), SolverConfig(0.1, 40.0)) for _ in range(20)]
    for spread in (1e-7, 4e-3):
        for _ in range(3):
            cases.append((_tetrahedron(rng, spread), SolverConfig(0.1, 60.0)))
    cayley = [solve_spectrum(g, cfg) for g, cfg in cases]
    monkeypatch.setattr(kernels, "eigenphases", eigvals_eigenphases)
    for (g, cfg), got in zip(cases, cayley):
        want = solve_spectrum(g, cfg)
        assert got.status == want.status == "ok"
        assert got.count == want.count
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert np.abs(got.wavenumbers - want.wavenumbers).max() < 1e-10


def test_loop_spectrum_degenerate():
    spec = solve_spectrum(loop_graph(), SolverConfig(0.1, 14.0))
    assert np.allclose(spec.wavenumbers, 2 * math.pi * np.arange(1, 3), rtol=1e-9)
    assert list(spec.multiplicities) == [2, 2]


def test_analytic_spectra_random_lengths(rng):
    for _ in range(20):
        length = float(rng.uniform(0.3, 2.5))
        spec = solve_spectrum(interval_graph(length), SolverConfig(0.1, 12.0 / length))
        n = np.arange(1, spec.count + 1)
        assert np.abs(spec.expanded() - n * math.pi / length).max() < 1e-9
        lspec = solve_spectrum(loop_graph(length), SolverConfig(0.1, 16.0 / length))
        expect = 2 * math.pi * np.arange(1, lspec.wavenumbers.size + 1) / length
        assert np.abs(lspec.wavenumbers - expect).max() < 1e-9
        assert all(m == 2 for m in lspec.multiplicities)


def test_three_star_matches_dense_scan_oracle():
    spec = solve_spectrum(three_star(), SolverConfig(0.1, 20.0))
    assert spec.count == THREE_STAR_ORACLE.size
    assert np.abs(spec.expanded() - THREE_STAR_ORACLE).max() < 1e-8


def test_goe_a_window_count():
    spec = solve_spectrum(
        preset("goe_a").graph, SolverConfig(k_from_ghz(0.01), k_from_ghz(2.5))
    )
    assert 35 <= spec.count <= 38
    assert spec.status == "ok" and spec.complete


def test_residuals_below_threshold():
    cfg = SolverConfig(0.1, 20.0)
    spec = solve_spectrum(three_star(), cfg)
    assert spec.residuals.max() <= cfg.residual_threshold


def test_fd_oracle_interval():
    ks = fd_oracle_spectrum(interval_graph(), 2000, 3)
    assert np.abs(ks / (math.pi * np.arange(1, 4)) - 1).max() < 1e-5


def test_fd_oracle_loop_degenerate_pair():
    ks = fd_oracle_spectrum(loop_graph(), 2000, 2)
    assert np.abs(ks - 2 * math.pi).max() < 1e-3


def test_fd_oracle_agrees_with_solver_on_preset():
    g = preset("goe_a").graph
    oracle = fd_oracle_spectrum(g, 2000, 12)
    spec = solve_spectrum(g, SolverConfig(k_from_ghz(0.01), k_from_ghz(2.5)))
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
    cfg = SolverConfig(k_from_ghz(0.8), k_from_ghz(1.6))
    plus, minus = spectrum_under_phase_reversal(g, cfg)
    assert plus.count == minus.count
    assert np.abs(plus.expanded() - minus.expanded()).max() <= 2 * cfg.root_tolerance


def test_phase_reversal_identity_without_phases():
    g = preset("goe_a").graph
    cfg = SolverConfig(0.5, 15.0)
    plus, minus = spectrum_under_phase_reversal(g, cfg)
    assert np.array_equal(plus.wavenumbers, minus.wavenumbers)


def test_doubling_the_phases_moves_levels():
    g = preset("gue").graph
    cfg = SolverConfig(k_from_ghz(0.8), k_from_ghz(1.6))
    base = solve_spectrum(g, cfg)
    doubled = solve_spectrum(
        g.with_edges(
            tuple(Edge(e.id, e.u, e.v, e.length, 2 * e.phase_per_m) for e in g.edges)
        ),
        cfg,
    )
    n = min(base.count, doubled.count)
    shift = np.abs(base.expanded()[:n] - doubled.expanded()[:n]).max()
    assert shift > 10 * cfg.root_tolerance


def test_determinism_bit_identical():
    cfg = SolverConfig(k_from_ghz(0.01), k_from_ghz(2.5))
    g = preset("goe_a").graph
    a = solve_spectrum(g, cfg)
    b = solve_spectrum(g, cfg)
    assert np.array_equal(a.wavenumbers, b.wavenumbers)
    assert np.array_equal(a.residuals, b.residuals)
    assert a.nfl_max == b.nfl_max


def test_drop_levels_flags_incomplete():
    g = preset("goe_a").graph
    spec = solve_spectrum(g, SolverConfig(k_from_ghz(0.01), k_from_ghz(2.5)))
    assert spec.complete
    # dropping enough consecutive levels must push |N_fl| past the bound
    faulted = drop_levels(spec, list(range(10, 14)))
    assert faulted.status == "fault-injected"
    assert not faulted.complete
    assert faulted.count == spec.count - 4


def test_drop_levels_validates_index():
    spec = solve_spectrum(interval_graph(), SolverConfig(0.1, 10.0))
    with pytest.raises(ValueError):
        drop_levels(spec, [99])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(5.0, 1.0).check()
    with pytest.raises(ValueError):
        SolverConfig(-1.0, 1.0).check()
    with pytest.raises(ValueError):
        SolverConfig(0.1, 1.0, scan_step=-1.0).check()
    with pytest.raises(ValueError):
        SolverConfig(0.1, 1.0, root_tolerance=0.0).check()


def test_solve_rejects_invalid_graph():
    bad = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, -1.0),))
    with pytest.raises(ValueError):
        solve_spectrum(bad, SolverConfig(0.1, 5.0))
