"""The tetrahedral network geometries used throughout the experiments.

All presets are fully connected four-vertex graphs (vertices a, b, c, d =
0..3) with the published cable lengths.  Where two lengths were never
published, the rest of the total length is split between them by the
golden ratio, an artifact choice giving incommensurate defaults.  Each
preset carries the phase-shifter sweep, the switch and the solve window of
its experiment.  goe_a and goe_b are time-reversal invariant; gue breaks
time reversal with a magnetic vector potential on every edge and is solved
over the circulator band.  `_TABLE` holds the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Edge, MetricGraph, SweepSpec, SwitchDescriptor
from .units import k_from_ghz

__all__ = [
    "Preset",
    "preset",
    "preset_names",
    "GOE_WINDOW",
    "GUE_PHASE_PER_M",
    "GUE_NUMERICS_LEVELS_PER_CONFIG",
    "gue_numerics_window",
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

# The window of the time-reversal-invariant sweeps, 0.01-2.5 GHz, and the
# default of a campaign on a graph file, which carries no window
GOE_WINDOW = (k_from_ghz(0.01), k_from_ghz(2.5))

_A, _B, _C, _D = 0, 1, 2, 3
# the tetrahedron's ends by edge id; orientations matter only when phases
# are nonzero (they set the cycle fluxes)
_ENDS = {1: (_A, _D), 2: (_B, _C), 3: (_A, _B), 4: (_D, _B), 5: (_C, _A), 6: (_C, _D)}


@dataclass(frozen=True)
class Preset:
    name: str
    graph: MetricGraph
    sweep: SweepSpec
    window: tuple[float, float]
    notes: str


# name: (published lengths in m by edge id, the two edges splitting the rest
# by the golden ratio (the larger share first), total length in m, vector
# potential in rad/m, sweep with its switch, window, notes)
_TABLE = {
    "goe_a": (
        {1: 0.697, 2: 0.612, 3: 0.170, 5: 0.243}, (4, 6), 2.248, 0.0,
        SweepSpec(grow_edge=1, shrink_edge=2, step_delta=0.005, step_count=10,
                  switch=SwitchDescriptor(pivot=_A, edge_a=3, edge_b=5)),
        GOE_WINDOW,
        "edges 4 and 6 unpublished; remainder 0.526 m split by the golden ratio",
    ),
    "goe_b": (
        {1: 0.697, 2: 0.327, 3: 0.170, 6: 0.612}, (4, 5), 2.248, 0.0,
        SweepSpec(grow_edge=1, shrink_edge=6, step_delta=0.005, step_count=10,
                  switch=SwitchDescriptor(pivot=_B, edge_a=3, edge_b=2)),
        GOE_WINDOW,
        "edge 2 is the 0.327 m cable of the second configuration half; "
        "edges 4 and 5 unpublished, remainder split by the golden ratio; "
        "the relocated shrink shifter sits in edge 6 (artifact choice)",
    ),
    "gue": (
        {1: 0.697, 2: 0.327, 3: 0.170, 6: 0.612}, (4, 5), 2.918, GUE_PHASE_PER_M,
        SweepSpec(grow_edge=1, shrink_edge=6, step_delta=0.005, step_count=7,
                  switch=SwitchDescriptor(pivot=_B, edge_a=3, edge_b=2)),
        (k_from_ghz(0.8), k_from_ghz(2.5)),  # the circulator band
        "edges 1, 4, 5, 6 unpublished for this network: edge 1 and 6 reuse "
        "the shifter cable lengths, the rest is a golden-ratio split; the "
        "vector potential value and orientations are artifact choices",
    ),
}


def preset_names() -> list[str]:
    return sorted(_TABLE)


def preset(name: str) -> Preset:
    try:
        published, (golden, rest), total, phase_per_m, sweep, window, notes = _TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    remainder = total - sum(published[i] for i in sorted(published))
    lengths = {**published, golden: remainder * INV_PHI, rest: remainder - remainder * INV_PHI}
    graph = MetricGraph(
        vertices=(_A, _B, _C, _D),
        edges=tuple(Edge(i, *_ENDS[i], lengths[i], phase_per_m) for i in sorted(lengths)),
        metadata={"preset": name},
    )
    return Preset(name, graph, sweep, window, notes)


def gue_numerics_window(graph: MetricGraph | None = None) -> tuple[float, float]:
    """k-window of the extended-range numerics campaign.

    The lower edge matches the sweep windows (0.01 GHz, excluding k = 0);
    the upper edge is set so the mean level count per configuration equals
    the published per-configuration target.
    """
    if graph is None:
        graph = preset("gue").graph
    k_min = GOE_WINDOW[0]
    k_max = k_min + GUE_NUMERICS_LEVELS_PER_CONFIG * math.pi / graph.total_length
    return k_min, k_max
