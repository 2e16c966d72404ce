"""Metric graphs and the structural operations performed on them.

A metric graph is a set of vertices joined by edges that carry an optical
length (meters) and, optionally, a magnetic vector potential (radians per
meter, signed along the stored edge direction).  Graphs are immutable;
every operation returns a new graph, so values can be shared freely
between parallel workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "Edge",
    "MetricGraph",
    "SwitchDescriptor",
    "SweepSpec",
    "validate",
    "edge_switch",
    "transfer_length",
    "generate_configurations",
    "pin_total_length",
    "negate_phases",
    "load_graph",
    "save_graph",
    "graph_to_dict",
    "graph_from_dict",
]

GRAPH_FILE_VERSION = 1


@dataclass(frozen=True)
class Edge:
    """Undirected edge with a stored orientation.

    The magnetic phase is the vector potential component along the stored
    direction u -> v; traversing v -> u picks up the opposite sign.  Loops
    (u == v) are allowed.
    """

    id: int
    u: int
    v: int
    length: float
    phase_per_m: float = 0.0


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph with Neumann (standard) vertex conditions."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def total_length(self) -> float:
        # fsum: exactly rounded, independent of edge order
        return math.fsum(e.length for e in self.edges)

    def degree(self, vertex: int) -> int:
        d = 0
        for e in self.edges:
            if e.u == vertex:
                d += 1
            if e.v == vertex:
                d += 1
        return d

    def edge_by_id(self, edge_id: int) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise ValueError(f"no edge with id {edge_id}")

    def with_edges(self, edges: tuple[Edge, ...]) -> "MetricGraph":
        return replace(self, edges=edges)

    def with_lengths(self, lengths: dict[int, float]) -> "MetricGraph":
        """The graph with each edge named by id in `lengths` at that length."""
        return self.with_edges(
            tuple(replace(e, length=lengths[e.id]) if e.id in lengths else e for e in self.edges)
        )


@dataclass(frozen=True)
class SwitchDescriptor:
    """Two edges meeting at a pivot vertex, ready to have their far
    endpoints exchanged."""

    pivot: int
    edge_a: int
    edge_b: int

    def check(self, graph: MetricGraph) -> None:
        if self.edge_a == self.edge_b:
            raise ValueError("switch needs two distinct edges")
        for eid in (self.edge_a, self.edge_b):
            e = graph.edge_by_id(eid)
            if self.pivot not in (e.u, e.v):
                raise ValueError(
                    f"edge {eid} is not incident to pivot vertex {self.pivot}"
                )
            if e.u == e.v:
                raise ValueError(f"edge {eid} is a loop at the pivot; cannot switch")


def validate(graph: MetricGraph) -> list[str]:
    """Check every structural invariant; return human-readable violations.

    Diagnostics are returned, never raised, so callers can report all
    problems at once.
    """
    violations: list[str] = []
    n = len(graph.vertices)
    if sorted(graph.vertices) != list(range(n)):
        violations.append(
            f"vertices must be densely indexed 0..{n - 1}, got {sorted(graph.vertices)}"
        )
    seen_ids = set()
    length_ok = True
    for e in graph.edges:
        if e.id in seen_ids:
            violations.append(f"duplicate edge id {e.id}")
        seen_ids.add(e.id)
        if not (0.0 < e.length < math.inf):
            violations.append(f"edge {e.id} length must be positive and finite, got {e.length}")
            length_ok = False
        if not math.isfinite(e.phase_per_m):
            violations.append(f"edge {e.id} phase_per_m must be finite, got {e.phase_per_m}")
        for endpoint in (e.u, e.v):
            if endpoint not in graph.vertices:
                violations.append(f"edge {e.id} references unknown vertex {endpoint}")
    if not graph.edges:
        violations.append("graph has no edges")
        return violations
    if length_ok:
        try:
            graph.total_length  # fsum raises where the exact sum is not a float
        except OverflowError:
            violations.append("total length overflows a float")
    for v in graph.vertices:
        if graph.degree(v) < 1:
            violations.append(f"vertex {v} is isolated (degree 0)")
    if not _connected(graph):
        violations.append("graph is not connected")
    return violations


def _connected(graph: MetricGraph) -> bool:
    if not graph.vertices:
        return True
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        if e.u in adj and e.v in adj:
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
    stack = [graph.vertices[0]]
    seen = {graph.vertices[0]}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(graph.vertices)


def edge_switch(graph: MetricGraph, d: SwitchDescriptor) -> MetricGraph:
    """Exchange the far endpoints of two edges sharing the pivot vertex.

    Lengths are untouched and magnetic phases are re-anchored so that the
    sign convention still runs pivot -> far endpoint; the total length is
    therefore preserved bit for bit.  Applying the same descriptor twice
    returns the same edges up to orientation.
    """
    d.check(graph)
    ea = graph.edge_by_id(d.edge_a)
    eb = graph.edge_by_id(d.edge_b)

    def pivot_to_far_phase(e: Edge) -> float:
        return e.phase_per_m if e.u == d.pivot else -e.phase_per_m

    far_a = ea.v if ea.u == d.pivot else ea.u
    far_b = eb.v if eb.u == d.pivot else eb.u
    new_a = Edge(ea.id, d.pivot, far_b, ea.length, pivot_to_far_phase(ea))
    new_b = Edge(eb.id, d.pivot, far_a, eb.length, pivot_to_far_phase(eb))
    new_edges = tuple(
        new_a if e.id == ea.id else new_b if e.id == eb.id else e for e in graph.edges
    )
    return graph.with_edges(new_edges)


def transfer_length(
    graph: MetricGraph, from_edge: int, to_edge: int, delta: float
) -> MetricGraph:
    """Move `delta` meters of optical length from one edge to another.

    Models a paired phase-shifter move: one bond grows while the other
    shrinks by the same amount, keeping the total length constant to full
    floating precision (a correction pass pins the exactly-rounded sum).
    """
    if delta < 0.0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    src = graph.edge_by_id(from_edge)
    dst = graph.edge_by_id(to_edge)
    if from_edge == to_edge:
        raise ValueError("from_edge and to_edge must differ")
    if delta >= src.length:
        raise ValueError(
            f"transfer of {delta} m would degenerate edge {from_edge} "
            f"(length {src.length} m)"
        )
    if delta == 0.0:
        return graph
    moved = graph.with_lengths({from_edge: src.length - delta, to_edge: dst.length + delta})
    return pin_total_length(moved, to_edge, graph.total_length)


@dataclass(frozen=True)
class SweepSpec:
    """A length-transfer schedule and a switch, applied to a base graph.

    Configuration i (i = 0..step_count) moves i * step_delta meters from
    the shrink edge to the grow edge, then pairs the result with its
    edge-switch image; the sweep yields step_count + 1 pairs of constant
    total length.
    """

    grow_edge: int
    shrink_edge: int
    step_delta: float
    step_count: int
    switch: SwitchDescriptor

    def check(self, base: MetricGraph) -> None:
        violations = validate(base)
        if violations:
            raise ValueError("invalid base graph: " + "; ".join(violations))
        if self.step_count < 1:
            raise ValueError(f"step_count must be >= 1, got {self.step_count}")
        if not 0.0 <= self.step_delta < math.inf:
            raise ValueError(f"step_delta must be non-negative and finite, got {self.step_delta}")
        shrink_len = base.edge_by_id(self.shrink_edge).length
        if self.step_delta * self.step_count >= shrink_len:
            raise ValueError(
                f"sweep would degenerate edge {self.shrink_edge}: transfers "
                f"{self.step_delta * self.step_count} m of {shrink_len} m"
            )
        self.switch.check(base)


def generate_configurations(
    base: MetricGraph, spec: SweepSpec
) -> list[tuple[MetricGraph, MetricGraph]]:
    """All (before, after) pairs of the sweep on `base`, constant total length."""
    spec.check(base)
    pairs = []
    for i in range(spec.step_count + 1):
        g = transfer_length(base, spec.shrink_edge, spec.grow_edge, i * spec.step_delta)
        pairs.append((g, edge_switch(g, spec.switch)))
    return pairs


def pin_total_length(graph: MetricGraph, edge_id: int, target: float) -> MetricGraph:
    """The graph with edge `edge_id` adjusted until the exactly-rounded total
    length equals `target`.

    Bulk corrections first, then single-ulp steps in the right direction;
    the edge stays within rounding distance of its length in `graph`, and
    every other edge is untouched.
    """
    length = graph.edge_by_id(edge_id).length
    out = graph
    for _ in range(4):
        err = out.total_length - target
        if err == 0.0:
            return out
        length -= err
        out = graph.with_lengths({edge_id: length})
    for _ in range(64):
        err = out.total_length - target
        if err == 0.0:
            return out
        length = math.nextafter(length, -math.inf if err > 0.0 else math.inf)
        out = graph.with_lengths({edge_id: length})
    raise ArithmeticError("could not preserve total length to full precision")


def negate_phases(graph: MetricGraph) -> MetricGraph:
    """Flip the sign of every magnetic phase (time-reversal image)."""
    return graph.with_edges(
        tuple(replace(e, phase_per_m=-e.phase_per_m) for e in graph.edges)
    )


# ---------------------------------------------------------------------------
# graph file format (JSON): round-trips losslessly at full float precision
# ---------------------------------------------------------------------------


def graph_to_dict(graph: MetricGraph) -> dict:
    return {
        "version": GRAPH_FILE_VERSION,
        "vertices": list(graph.vertices),
        "edges": [
            {
                "id": e.id,
                "u": e.u,
                "v": e.v,
                "length_m": e.length,
                "phase_per_m": e.phase_per_m,
            }
            for e in graph.edges
        ],
        "metadata": dict(graph.metadata),
    }


_KINDS = {str: "a string", float: "a number", int: "a whole number"}


def json_value(value, name: str, kind):
    """A JSON string or number as `kind`; int also needs a whole number."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and (
            kind is float or isinstance(value, int) or value.is_integer()
        )
    if not ok:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def check_keys(what: str, keys, fields) -> None:
    """Refuse `keys` unless they are exactly `fields`, naming the difference."""
    unexpected, missing = sorted(set(keys) - set(fields)), sorted(set(fields) - set(keys))
    if unexpected or missing:
        raise ValueError(f"{what}: " + ", ".join(
            f"{label} key(s) {names}"
            for label, names in (("unexpected", unexpected), ("missing", missing)) if names
        ))


def read_json(path, what: str):
    """The JSON value of a file, refusing a key repeated in one object
    (json keeps the last)."""

    def unique_keys(pairs: list) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ValueError(f"{what} repeats key {key!r}")
            out[key] = value
        return out

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=unique_keys)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def _edge_from_dict(entry) -> Edge:
    entry = _object(entry, "an edge entry")
    # phase_per_m is optional
    check_keys("an edge entry", set(entry) - {"phase_per_m"}, ("id", "u", "v", "length_m"))
    return Edge(
        id=json_value(entry["id"], "edge id", int),
        u=json_value(entry["u"], "edge end u", int),
        v=json_value(entry["v"], "edge end v", int),
        length=json_value(entry["length_m"], "length_m", float),
        phase_per_m=json_value(entry.get("phase_per_m", 0.0), "phase_per_m", float),
    )


def graph_from_dict(data) -> MetricGraph:
    """The graph a file's JSON value describes; a key outside the format, a
    missing key and any value of the wrong JSON type are refused with
    ValueError, never dropped or converted."""
    data = _object(data, "a graph file")
    version = json_value(data.get("version"), "version", int)
    if version != GRAPH_FILE_VERSION:
        raise ValueError(f"unsupported graph file version {version!r}")
    # metadata is optional
    check_keys("a graph file", set(data) - {"metadata"}, ("version", "vertices", "edges"))
    try:
        vertices = tuple(json_value(v, "a vertex", int) for v in data["vertices"])
        edges = tuple(_edge_from_dict(e) for e in data["edges"])
    except TypeError as exc:
        raise ValueError(f"malformed graph file: {exc}") from exc
    metadata = _object(data.get("metadata", {}), "metadata")
    return MetricGraph(vertices=vertices, edges=edges, metadata=metadata)


def save_graph(graph: MetricGraph, path) -> None:
    # json floats use repr: shortest string that round-trips exactly
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> MetricGraph:
    return graph_from_dict(read_json(path, "graph file"))
