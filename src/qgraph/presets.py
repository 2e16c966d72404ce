"""The tetrahedral network geometries used throughout the experiments.

All three presets are fully connected four-vertex graphs (vertices a, b,
c, d = 0..3) with the published cable lengths; where a length was never
published the remainder is split by the golden ratio, an artifact choice
giving incommensurate defaults (see the per-preset notes).  Each preset
carries a phase-shifter sweep schedule and the switch descriptor of its
experiment.

goe_a   time-reversal invariant; sweep moves 0.050 m from edge 2 to
        edge 1 in ten 0.005 m steps; switch exchanges edges 3 and 5 at
        vertex a.  Total optical length 2.248 m.
goe_b   same total length; edge 2 is 0.327 m here; sweep shrinks edge 6;
        switch exchanges edges 3 and 2 at vertex b.
gue     total length 2.918 m, magnetic vector potential on every edge
        breaking time reversal; sweep of seven 0.005 m steps; switch
        exchanges edges 3 and 2 at vertex b.  The solve window is the
        circulator band 0.8-2.5 GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensemble import CampaignPlan, SweepSpec, randomized_plan
from .graphs import Edge, MetricGraph, SwitchDescriptor
from .solver import SolverConfig
from .units import k_from_ghz

__all__ = [
    "Preset",
    "preset",
    "preset_names",
    "GUE_PHASE_PER_M",
    "GUE_NUMERICS_LEVELS_PER_CONFIG",
    "gue_numerics_window",
    "gue_numerics_plan",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Vector potential (rad/m) applied to every edge of the gue preset, with the
# edge orientations below chosen so the three independent cycle fluxes are
# of order one radian: strong enough time-reversal breaking for GUE spacing
# statistics over the numerics window.
GUE_PHASE_PER_M = 2.0

# The published count of numerically identified resonances, 5960 over 40
# configurations, fixes the per-configuration level target; with the mean
# density L/pi this pins the upper edge of the numerics window.
GUE_NUMERICS_LEVELS_PER_CONFIG = 149

_A, _B, _C, _D = 0, 1, 2, 3


@dataclass(frozen=True)
class Preset:
    name: str
    graph: MetricGraph
    sweep: SweepSpec
    notes: str


def _k4(lengths: dict[int, float], phase_per_m: float, name: str) -> MetricGraph:
    # canonical tetrahedron wiring; orientations matter only when phases
    # are nonzero (they set the cycle fluxes)
    ends = {1: (_A, _D), 2: (_B, _C), 3: (_A, _B), 4: (_D, _B), 5: (_C, _A), 6: (_C, _D)}
    edges = tuple(
        Edge(i, ends[i][0], ends[i][1], lengths[i], phase_per_m) for i in sorted(lengths)
    )
    return MetricGraph(
        vertices=(_A, _B, _C, _D), edges=edges, metadata={"preset": name}
    )


def _goe_window() -> SolverConfig:
    return SolverConfig(k_min=k_from_ghz(0.01), k_max=k_from_ghz(2.5))


def _goe_a() -> Preset:
    rem = 2.248 - (0.697 + 0.612 + 0.170 + 0.243)
    lengths = {
        1: 0.697,
        2: 0.612,
        3: 0.170,
        4: rem * INV_PHI,
        5: 0.243,
        6: rem - rem * INV_PHI,
    }
    graph = _k4(lengths, 0.0, "goe_a")
    sweep = SweepSpec(
        base=graph,
        grow_edge=1,
        shrink_edge=2,
        step_delta=0.005,
        step_count=10,
        switch=SwitchDescriptor(pivot=_A, edge_a=3, edge_b=5),
        solver=_goe_window(),
        label="goe_a",
    )
    return Preset(
        name="goe_a",
        graph=graph,
        sweep=sweep,
        notes="edges 4 and 6 unpublished; remainder 0.526 m split by the golden ratio",
    )


def _goe_b() -> Preset:
    rem = 2.248 - (0.697 + 0.327 + 0.170 + 0.612)
    lengths = {
        1: 0.697,
        2: 0.327,
        3: 0.170,
        4: rem * INV_PHI,
        5: rem - rem * INV_PHI,
        6: 0.612,
    }
    graph = _k4(lengths, 0.0, "goe_b")
    sweep = SweepSpec(
        base=graph,
        grow_edge=1,
        shrink_edge=6,
        step_delta=0.005,
        step_count=10,
        switch=SwitchDescriptor(pivot=_B, edge_a=3, edge_b=2),
        solver=_goe_window(),
        label="goe_b",
    )
    return Preset(
        name="goe_b",
        graph=graph,
        sweep=sweep,
        notes=(
            "edge 2 is the 0.327 m cable of the second configuration half; "
            "edges 4 and 5 unpublished, remainder split by the golden ratio; "
            "the relocated shrink shifter sits in edge 6 (artifact choice)"
        ),
    )


def _gue() -> Preset:
    rem = 2.918 - (0.697 + 0.327 + 0.170 + 0.612)
    lengths = {
        1: 0.697,
        2: 0.327,
        3: 0.170,
        4: rem * INV_PHI,
        5: rem - rem * INV_PHI,
        6: 0.612,
    }
    graph = _k4(lengths, GUE_PHASE_PER_M, "gue")
    sweep = SweepSpec(
        base=graph,
        grow_edge=1,
        shrink_edge=6,
        step_delta=0.005,
        step_count=7,
        switch=SwitchDescriptor(pivot=_B, edge_a=3, edge_b=2),
        solver=SolverConfig(k_min=k_from_ghz(0.8), k_max=k_from_ghz(2.5)),
        label="gue",
    )
    return Preset(
        name="gue",
        graph=graph,
        sweep=sweep,
        notes=(
            "edges 1, 4, 5, 6 unpublished for this network: edge 1 and 6 reuse "
            "the shifter cable lengths, the rest is a golden-ratio split; the "
            "vector potential value and orientations are artifact choices"
        ),
    )


_BUILDERS = {"goe_a": _goe_a, "goe_b": _goe_b, "gue": _gue}


def preset_names() -> list[str]:
    return sorted(_BUILDERS)


def preset(name: str) -> Preset:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def gue_numerics_window(graph: MetricGraph | None = None) -> tuple[float, float]:
    """k-window of the extended-range numerics campaign.

    The lower edge matches the sweep windows (0.01 GHz, excluding k = 0);
    the upper edge is set so the mean level count per configuration equals
    the published per-configuration target.
    """
    if graph is None:
        graph = preset("gue").graph
    k_min = k_from_ghz(0.01)
    k_max = k_min + GUE_NUMERICS_LEVELS_PER_CONFIG * math.pi / graph.total_length
    return k_min, k_max


def gue_numerics_plan(
    count: int = 40, jitter: float = 0.02, seed: int = 20260809
) -> CampaignPlan:
    """The 40-configuration broken-time-reversal campaign.

    Configurations are seeded length jitters of the gue preset at constant
    total length, each paired with its edge-switch image and solved over
    the count-derived window.
    """
    p = preset("gue")
    k_min, k_max = gue_numerics_window(p.graph)
    return randomized_plan(
        p.graph,
        p.sweep.switch,
        SolverConfig(k_min=k_min, k_max=k_max),
        count,
        jitter,
        seed,
        "gue",
    )
