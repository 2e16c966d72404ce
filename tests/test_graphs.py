import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgraph.graphs import (
    Edge,
    MetricGraph,
    SwitchDescriptor,
    edge_switch,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    pin_total_length,
    save_graph,
    transfer_length,
    validate,
)
from qgraph.presets import preset

from conftest import canonical_edges, random_k4


def test_validate_preset_clean():
    for name in ("goe_a", "goe_b", "gue"):
        assert validate(preset(name).graph) == []


def test_validate_zero_length_edge():
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 0.0),))
    violations = validate(g)
    assert len(violations) == 1
    assert "edge 1" in violations[0]


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_validate_non_finite_phase(phase):
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, 1.0, phase),))
    violations = validate(g)
    assert len(violations) == 1
    assert "edge 1" in violations[0] and "phase_per_m" in violations[0]


def test_validate_infinite_length():
    g = MetricGraph(vertices=(0, 1), edges=(Edge(1, 0, 1, math.inf),))
    violations = validate(g)
    assert len(violations) == 1
    assert "finite" in violations[0] and "non-positive" not in violations[0]


def test_validate_disconnected():
    g = MetricGraph(
        vertices=(0, 1, 2, 3),
        edges=(Edge(1, 0, 1, 1.0), Edge(2, 2, 3, 1.0)),
    )
    assert any("not connected" in v for v in validate(g))


def test_validate_isolated_vertex():
    g = MetricGraph(vertices=(0, 1, 2), edges=(Edge(1, 0, 1, 1.0),))
    violations = validate(g)
    assert any("vertex 2" in v for v in violations)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ((0, 2), ((1, 0, 2),), "vertices must be densely indexed 0..1, got [0, 2]"),
        ((0, 1), ((1, 0, 1), (1, 1, 0)), "duplicate edge id 1"),
        ((0, 1), ((1, 0, 1), (2, 1, 5)), "edge 2 references unknown vertex 5"),
        ((0,), (), "graph has no edges"),
    ],
)
def test_validate_names_each_structural_violation(vertices, edges, message):
    g = MetricGraph(vertices=vertices, edges=tuple(Edge(i, u, v, 1.0) for i, u, v in edges))
    assert message in validate(g)


def test_graph_from_dict_refuses_a_vertex_count():
    # "vertices" is a list of indices, not their number
    with pytest.raises(ValueError, match="malformed graph file"):
        graph_from_dict({"version": 1, "vertices": 5, "edges": []})


def test_edge_switch_goe_a_cables():
    # cables 3 and 5 meeting at vertex a swap their far endpoints
    g = preset("goe_a").graph
    sw = SwitchDescriptor(pivot=0, edge_a=3, edge_b=5)
    out = edge_switch(g, sw)
    e3, e5 = out.edge_by_id(3), out.edge_by_id(5)
    assert e3.length == 0.170 and e5.length == 0.243
    assert {e3.u, e3.v} == {0, 2}
    assert {e5.u, e5.v} == {0, 1}
    assert out.total_length == g.total_length


def test_edge_switch_at_vertex_b():
    # cables 2 and 3 keep their connectivity in vertex b
    g = preset("goe_b").graph
    sw = SwitchDescriptor(pivot=1, edge_a=3, edge_b=2)
    out = edge_switch(g, sw)
    e2, e3 = out.edge_by_id(2), out.edge_by_id(3)
    assert 1 in (e2.u, e2.v) and 1 in (e3.u, e3.v)
    assert {e2.u, e2.v} == {0, 1}  # edge 2 now runs b-a
    assert {e3.u, e3.v} == {1, 2}  # edge 3 now runs b-c


def test_edge_switch_parallel_edges_isomorphic():
    g = MetricGraph(
        vertices=(0, 1),
        edges=(Edge(1, 0, 1, 0.4), Edge(2, 0, 1, 0.7)),
    )
    out = edge_switch(g, SwitchDescriptor(pivot=0, edge_a=1, edge_b=2))
    assert canonical_edges(out) == canonical_edges(g)


def test_edge_switch_involution(rng):
    for _ in range(20):
        g = random_k4(rng, phase_scale=1.0)
        sw = SwitchDescriptor(pivot=0, edge_a=1, edge_b=2)
        twice = edge_switch(edge_switch(g, sw), sw)
        assert canonical_edges(twice) == canonical_edges(g)


def test_edge_switch_preserves_degree_sequence():
    g = preset("goe_a").graph
    out = edge_switch(g, SwitchDescriptor(pivot=0, edge_a=3, edge_b=5))
    for v in g.vertices:
        assert out.degree(v) == g.degree(v)


def test_edge_switch_rejects_bad_descriptor():
    g = preset("goe_a").graph
    with pytest.raises(ValueError):
        edge_switch(g, SwitchDescriptor(pivot=0, edge_a=3, edge_b=3))
    with pytest.raises(ValueError):
        edge_switch(g, SwitchDescriptor(pivot=0, edge_a=3, edge_b=2))  # 2 not at a
    gl = MetricGraph(
        vertices=(0, 1),
        edges=(Edge(1, 0, 0, 0.3), Edge(2, 0, 1, 0.5), Edge(3, 0, 1, 0.4)),
    )
    with pytest.raises(ValueError):
        edge_switch(gl, SwitchDescriptor(pivot=0, edge_a=1, edge_b=2))  # loop at pivot


def test_edge_switch_reanchors_phases():
    # stored direction of edge 2 points into the pivot; its pivot-to-far
    # phase is the negated stored value and must survive the switch
    g = MetricGraph(
        vertices=(0, 1, 2),
        edges=(Edge(1, 0, 1, 0.5, 0.3), Edge(2, 2, 0, 0.7, 0.9), Edge(3, 1, 2, 0.4)),
    )
    out = edge_switch(g, SwitchDescriptor(pivot=0, edge_a=1, edge_b=2))
    e1, e2 = out.edge_by_id(1), out.edge_by_id(2)
    assert (e1.u, e1.v, e1.phase_per_m) == (0, 2, 0.3)
    assert (e2.u, e2.v, e2.phase_per_m) == (0, 1, -0.9)


def test_transfer_length_paper_step():
    g = preset("goe_a").graph
    out = transfer_length(g, from_edge=2, to_edge=1, delta=0.005)
    assert out.edge_by_id(1).length == pytest.approx(0.702, abs=1e-12)
    assert out.edge_by_id(2).length == pytest.approx(0.607, abs=1e-12)
    assert out.total_length == g.total_length


def test_transfer_length_identity_and_errors():
    g = preset("goe_a").graph
    assert transfer_length(g, 2, 1, 0.0) is g
    with pytest.raises(ValueError):
        transfer_length(g, 2, 1, g.edge_by_id(2).length)
    with pytest.raises(ValueError):
        transfer_length(g, 2, 1, -0.1)


def test_transfer_preserves_total_bit_for_bit(rng):
    for _ in range(200):
        g = random_k4(rng)
        ids = [e.id for e in g.edges]
        a, b = rng.choice(ids, size=2, replace=False)
        delta = float(rng.uniform(0.0, 0.9) * g.edge_by_id(int(a)).length)
        out = transfer_length(g, int(a), int(b), delta)
        assert out.total_length == g.total_length


def test_with_lengths_sets_named_edges_only():
    g = preset("goe_a").graph
    assert all(a is b for a, b in zip(g.with_lengths({}).edges, g.edges))
    lengths = {2: 0.5, 4: 0.25}
    out = g.with_lengths(lengths)
    assert [e.length for e in out.edges] == [lengths.get(e.id, e.length) for e in g.edges]
    assert [(e.id, e.u, e.v, e.phase_per_m) for e in out.edges] == [
        (e.id, e.u, e.v, e.phase_per_m) for e in g.edges
    ]
    assert pin_total_length(g, 2, g.total_length) is g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8),
    data=st.data(),
    relative=st.floats(-1e-9, 1e-9),
    ulps=st.integers(-8, 8),
)
def test_pin_total_length_restores_total(lengths, data, relative, ulps):
    # one edge knocked off by up to 1e-9 relative and a few ulps is pinned
    # back to the original total: exactly, alone, and within rounding of
    # where it started
    n = len(lengths)
    g = MetricGraph(
        vertices=tuple(range(n + 1)),
        edges=tuple(Edge(i + 1, i, i + 1, length) for i, length in enumerate(lengths)),
    )
    target = g.total_length
    edge_id = data.draw(st.integers(1, n))
    length = g.edge_by_id(edge_id).length * (1.0 + relative)
    for _ in range(abs(ulps)):
        length = math.nextafter(length, math.copysign(math.inf, ulps))
    out = pin_total_length(g.with_lengths({edge_id: length}), edge_id, target)
    assert out.total_length == target
    assert [e for e in out.edges if e.id != edge_id] == [e for e in g.edges if e.id != edge_id]
    moved = abs(out.edge_by_id(edge_id).length - g.edge_by_id(edge_id).length)
    assert moved <= 2 * math.ulp(target)


def test_graph_json_roundtrip(tmp_path, rng):
    g = random_k4(rng, phase_scale=2.0)
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert canonical_edges(back) == canonical_edges(g)
    for e_in, e_out in zip(g.edges, back.edges):
        assert e_in.length == e_out.length  # exact, full float precision
        assert e_in.phase_per_m == e_out.phase_per_m


def test_graph_file_schema_fields(tmp_path):
    g = preset("goe_a").graph
    path = tmp_path / "g.json"
    save_graph(g, path)
    data = json.loads(path.read_text())
    assert data["version"] == 1
    assert set(data) == {"version", "vertices", "edges", "metadata"}
    assert set(data["edges"][0]) == {"id", "u", "v", "length_m", "phase_per_m"}


def test_graph_from_dict_rejects_bad_version():
    with pytest.raises(ValueError):
        graph_from_dict({"version": 99, "vertices": [], "edges": []})


# each preset's edges (id, u, v, length, phase), sweep (grow, shrink, step,
# count), switch (pivot, edge_a, edge_b) and window (k_min, k_max), bit for bit
PINNED_PRESETS = {
    "goe_a": (
        [(1, 0, 3, 0.697, 0.0), (2, 1, 2, 0.612, 0.0), (3, 0, 1, 0.17, 0.0),
         (4, 3, 1, 0.3250858780824449, 0.0), (5, 2, 0, 0.243, 0.0),
         (6, 2, 3, 0.20091412191755537, 0.0)],
        (1, 2, 0.005, 10), (0, 3, 5), (0.2095845021951682, 52.39612554879204),
    ),
    "goe_b": (
        [(1, 0, 3, 0.697, 0.0), (2, 1, 2, 0.327, 0.0), (3, 0, 1, 0.17, 0.0),
         (4, 3, 1, 0.27317102302745366, 0.0), (5, 2, 0, 0.1688289769725465, 0.0),
         (6, 2, 3, 0.612, 0.0)],
        (1, 6, 0.005, 10), (1, 3, 2), (0.2095845021951682, 52.39612554879204),
    ),
    "gue": (
        [(1, 0, 3, 0.697, 2.0), (2, 1, 2, 0.327, 2.0), (3, 0, 1, 0.17, 2.0),
         (4, 3, 1, 0.6872537954898832, 2.0), (5, 2, 0, 0.4247462045101169, 2.0),
         (6, 2, 3, 0.612, 2.0)],
        (1, 6, 0.005, 7), (1, 3, 2), (16.766760175613452, 52.39612554879204),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PRESETS))
def test_preset_pinned(name):
    edges, sweep, switch, window = PINNED_PRESETS[name]
    p = preset(name)
    assert [(e.id, e.u, e.v, e.length, e.phase_per_m) for e in p.graph.edges] == edges
    s = p.sweep
    assert (s.grow_edge, s.shrink_edge, s.step_delta, s.step_count) == sweep
    assert (s.switch.pivot, s.switch.edge_a, s.switch.edge_b) == switch
    assert p.window == window
    assert p.graph.metadata == {"preset": name}


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("gse")
