"""Configuration ensembles: phase-shifter sweeps, switch pairs, campaigns.

A campaign is a list of (before, after) graph pairs solved under one
solver configuration.  Its sides are split into one contiguous chunk per
worker, and each chunk is solved in lockstep by one `solve_spectra` call.
A side's spectrum does not depend on the chunk it is solved in, and the
reducer is a deterministic fold over results in configuration order, so
a campaign returns bit-identical results at any worker count.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import (
    MetricGraph,
    SwitchDescriptor,
    edge_switch,
    load_graph,
    pin_total_length,
    transfer_length,
    validate,
)
# campaigns solve through solve_spectra; solve_spectrum stays importable here
# because perfbench/tracing.py patches qgraph.ensemble.solve_spectrum, and
# traced benchmark runs fail without it
from .solver import SolverConfig, Spectrum, solve_spectra, solve_spectrum  # noqa: F401
from .stats import (
    ShiftDistribution,
    SpacingSample,
    _shift_steps,
    pool_shift_distributions,
    pool_spacings,
    shift_distribution,
    unfold_spacings,
)
from .units import k_from_ghz

__all__ = [
    "SweepSpec",
    "CampaignPlan",
    "PairResult",
    "CampaignResult",
    "generate_configurations",
    "randomized_ensemble",
    "sweep_plan",
    "randomized_plan",
    "run_campaign",
    "plan_from_manifest",
    "load_manifest",
]


@dataclass(frozen=True)
class SweepSpec:
    """A base graph plus a length-transfer schedule and a switch.

    Configuration i (i = 0..step_count) moves i * step_delta meters from
    the shrink edge to the grow edge, then pairs the result with its
    edge-switch image; the sweep yields step_count + 1 pairs of constant
    total length.
    """

    base: MetricGraph
    grow_edge: int
    shrink_edge: int
    step_delta: float
    step_count: int
    switch: SwitchDescriptor
    solver: SolverConfig
    label: str = ""

    def check(self) -> None:
        violations = validate(self.base)
        if violations:
            raise ValueError("invalid base graph: " + "; ".join(violations))
        if self.step_count < 1:
            raise ValueError(f"step_count must be >= 1, got {self.step_count}")
        if self.step_delta < 0.0:
            raise ValueError(f"step_delta must be non-negative, got {self.step_delta}")
        shrink_len = self.base.edge_by_id(self.shrink_edge).length
        if self.step_delta * self.step_count >= shrink_len:
            raise ValueError(
                f"sweep would degenerate edge {self.shrink_edge}: transfers "
                f"{self.step_delta * self.step_count} m of {shrink_len} m"
            )
        self.switch.check(self.base)
        self.solver.check()


def generate_configurations(
    spec: SweepSpec,
) -> list[tuple[MetricGraph, MetricGraph]]:
    """All (before, after) pairs of the sweep, constant total length."""
    spec.check()
    pairs = []
    for i in range(spec.step_count + 1):
        g = transfer_length(
            spec.base, spec.shrink_edge, spec.grow_edge, i * spec.step_delta
        )
        pairs.append((g, edge_switch(g, spec.switch)))
    return pairs


def randomized_ensemble(
    base: MetricGraph,
    count: int,
    length_jitter: float,
    seed: int,
) -> list[MetricGraph]:
    """Seeded length-jittered copies of a graph at constant total length.

    Every edge except the longest is scaled by 1 + jitter * u with u
    uniform on [-1, 1]; the longest (the compensation edge) absorbs the
    difference so the exactly-rounded total matches the base bit for bit.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if length_jitter < 0.0:
        raise ValueError("length_jitter must be non-negative")
    if length_jitter == 0.0:
        if count != 1:
            raise ValueError("zero jitter cannot produce distinct configurations")
        return [base]
    compensation_edge = max(base.edges, key=lambda e: e.length).id
    total = base.total_length
    rng = np.random.default_rng(seed)
    out = []
    seen = set()
    for _ in range(count):
        factors = 1.0 + length_jitter * rng.uniform(-1.0, 1.0, size=len(base.edges))
        jittered = tuple(
            e if e.id == compensation_edge else replace(e, length=e.length * f)
            for e, f in zip(base.edges, factors)
        )
        comp_len = total - math.fsum(
            e.length for e in jittered if e.id != compensation_edge
        )
        if comp_len <= 0.0:
            raise ValueError(
                f"jitter {length_jitter} infeasible: compensation edge "
                f"{compensation_edge} would need length {comp_len}"
            )

        def build(length: float) -> MetricGraph:
            return base.with_edges(
                tuple(
                    replace(e, length=length) if e.id == compensation_edge else e
                    for e in jittered
                )
            )

        g = pin_total_length(build, comp_len, total)
        key = tuple(e.length for e in g.edges)
        if key in seen:
            raise ValueError("jitter produced duplicate length vectors; increase it")
        seen.add(key)
        out.append(g)
    return out


@dataclass(frozen=True)
class CampaignPlan:
    """Explicit pair list plus solver settings and provenance."""

    pairs: tuple[tuple[MetricGraph, MetricGraph], ...]
    solver: SolverConfig
    provenance: dict = field(default_factory=dict)


def sweep_plan(*specs: SweepSpec) -> CampaignPlan:
    """The pairs of one or more sweeps that share one solver configuration."""
    pairs: list[tuple[MetricGraph, MetricGraph]] = []
    labels = []
    solver = specs[0].solver
    for s in specs:
        if s.solver != solver:
            raise ValueError("combined sweeps must share one solver configuration")
        pairs.extend(generate_configurations(s))
        labels.append(s.label or "sweep")
    return CampaignPlan(
        pairs=tuple(pairs), solver=solver, provenance={"sweeps": labels}
    )


def randomized_plan(
    base: MetricGraph,
    switch: SwitchDescriptor,
    solver: SolverConfig,
    count: int,
    jitter: float,
    seed: int,
    source: str,
) -> CampaignPlan:
    """Seeded length jitters of `base`, each paired with its switch image."""
    graphs = randomized_ensemble(base, count, jitter, seed)
    return CampaignPlan(
        pairs=tuple((g, edge_switch(g, switch)) for g in graphs),
        solver=solver,
        provenance={
            "source": source,
            "mode": "randomized",
            "count": count,
            "jitter": jitter,
            "seed": seed,
        },
    )


@dataclass(frozen=True)
class PairResult:
    index: int
    before: Spectrum
    after: Spectrum
    shift: ShiftDistribution
    degree: int

    @property
    def ok(self) -> bool:
        return (
            self.before.complete
            and self.after.complete
            and self.before.status == "ok"
            and self.after.status == "ok"
            and _unfoldable(self.before)
            and _unfoldable(self.after)
        )


def _unfoldable(spectrum: Spectrum) -> bool:
    """At least two levels, all simple: a multiple level gives zero spacings."""
    return spectrum.wavenumbers.size >= 2 and not np.any(spectrum.multiplicities > 1)


def _pair_degree(before: Spectrum, after: Spectrum) -> int:
    """The maximum |Delta N|: the interlacing degree, also where a side is
    empty and `interlacing_degree` refuses."""
    return int(np.abs(_shift_steps(before, after)[1]).max())


@dataclass(frozen=True)
class CampaignResult:
    pairs: tuple[PairResult, ...]
    shift: ShiftDistribution
    spacings: SpacingSample
    interlacing_degrees: tuple[int, ...]
    levels_before: int
    levels_after: int
    degraded: bool
    degraded_pairs: tuple[int, ...]
    provenance: dict


def run_campaign(plan: CampaignPlan, workers: int = 1) -> CampaignResult:
    """Solve every pair of the plan and aggregate the statistics.

    The sides, in plan order, form min(workers, sides) contiguous chunks;
    one chunk is solved in this process, several in a process pool, each
    chunk in one `solve_spectra` call.  Degraded pairs (either side
    incomplete, holding a multiple level or fewer than two levels) are
    excluded from the pooled statistics but retained in the report.  When
    every pair is degraded all of them are pooled, except that sides that
    cannot be unfolded never enter the spacing pool.
    """
    sides = [graph for pair in plan.pairs for graph in pair]
    n = min(workers, len(sides))
    if n <= 1:
        spectra = solve_spectra(sides, plan.solver)
    else:
        chunks = [sides[i * len(sides) // n:(i + 1) * len(sides) // n] for i in range(n)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            solved = pool.map(solve_spectra, chunks, itertools.repeat(plan.solver))
            spectra = [spectrum for chunk in solved for spectrum in chunk]

    pair_results = []
    for i in range(len(plan.pairs)):
        before, after = spectra[2 * i], spectra[2 * i + 1]
        pair_results.append(
            PairResult(
                index=i,
                before=before,
                after=after,
                shift=shift_distribution(before, after),
                degree=_pair_degree(before, after),
            )
        )

    good = [p for p in pair_results if p.ok]
    degraded_pairs = tuple(p.index for p in pair_results if not p.ok)
    pool_from = good if good else pair_results
    shift = pool_shift_distributions([p.shift for p in pool_from])
    spacings = pool_spacings(
        [
            unfold_spacings(spec, source=f"pair{p.index}/{side}")
            for p in pool_from
            for side, spec in (("before", p.before), ("after", p.after))
            if _unfoldable(spec)
        ],
        source="campaign",
    )
    return CampaignResult(
        pairs=tuple(pair_results),
        shift=shift,
        spacings=spacings,
        interlacing_degrees=tuple(p.degree for p in pair_results),
        levels_before=sum(p.before.count for p in pool_from),
        levels_after=sum(p.after.count for p in pool_from),
        degraded=bool(degraded_pairs),
        degraded_pairs=degraded_pairs,
        provenance=dict(plan.provenance),
    )


# ---------------------------------------------------------------------------
# campaign manifests
# ---------------------------------------------------------------------------


def load_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or not manifest:
        raise ValueError("manifest must be a non-empty JSON object")
    return manifest


def _switch_from(entry: dict) -> SwitchDescriptor:
    return SwitchDescriptor(int(entry["pivot"]), int(entry["edge_a"]), int(entry["edge_b"]))


def plan_from_manifest(manifest: dict) -> CampaignPlan:
    """Build a campaign plan from a manifest dictionary.

    Supported shapes:
      {"presets": ["goe_a", "goe_b"], ...}                    sweep pairs
      {"preset": "gue", "randomized": {"count": 40,
          "jitter": 0.02}, "seed": 7, ...}                    jittered pairs
      {"graph_file": "g.json", "switch": {"pivot": 1,
          "edge_a": 3, "edge_b": 2}, "randomized": {...}}     jittered pairs
      {"graph_file": "g.json", "sweep": {"grow_edge": 1,
          "shrink_edge": 2, "step_delta": 0.001,
          "step_count": 10, "switch": {...}}}                 step_count + 1
                                                              sweep pairs
    Optional keys: "window_ghz": [lo, hi], "window_k": [lo, hi] (finite),
    "solver": {"scan_step": ...}, "seed".  Any other solver setting is
    refused.  A graph file carries no window, so both graph_file shapes
    default to 0.01-2.5 GHz.
    """
    from . import presets as presets_mod  # deferred: presets import this module

    def solver_override(base: SolverConfig) -> SolverConfig:
        cfg = base
        if "window_ghz" in manifest:
            lo, hi = manifest["window_ghz"]
            cfg = replace(cfg, k_min=k_from_ghz(float(lo)), k_max=k_from_ghz(float(hi)))
        if "window_k" in manifest:
            lo, hi = manifest["window_k"]
            cfg = replace(cfg, k_min=float(lo), k_max=float(hi))
        overrides = manifest.get("solver", {})
        unknown = sorted(set(overrides) - {"scan_step"})
        if unknown:
            raise ValueError(f"unknown solver setting(s) {unknown}; only scan_step is accepted")
        if "scan_step" in overrides:
            cfg = replace(cfg, scan_step=overrides["scan_step"])
        cfg.check()
        return cfg

    seed = int(manifest.get("seed", 0))
    graph_file_solver = SolverConfig(k_min=k_from_ghz(0.01), k_max=k_from_ghz(2.5))

    if "presets" in manifest or (
        "preset" in manifest and "randomized" not in manifest
    ):
        names = manifest.get("presets") or [manifest["preset"]]
        specs = []
        for name in names:
            p = presets_mod.preset(name)
            specs.append(replace(p.sweep, solver=solver_override(p.sweep.solver)))
        return replace(
            sweep_plan(*specs),
            provenance={"presets": list(names), "seed": seed, "mode": "sweep"},
        )

    if "randomized" in manifest:
        rnd = manifest["randomized"]
        count = int(rnd["count"])
        jitter = float(rnd["jitter"])
        if "preset" in manifest:
            p = presets_mod.preset(manifest["preset"])
            base, switch, solver = p.graph, p.sweep.switch, p.sweep.solver
            source = manifest["preset"]
        elif "graph_file" in manifest:
            base = load_graph(manifest["graph_file"])
            switch = _switch_from(manifest["switch"])
            solver = graph_file_solver
            source = manifest["graph_file"]
        else:
            raise ValueError("randomized manifest needs a preset or graph_file")
        return randomized_plan(
            base, switch, solver_override(solver), count, jitter, seed, source
        )

    if "graph_file" in manifest:
        base = load_graph(manifest["graph_file"])
        sw = manifest["sweep"]
        spec = SweepSpec(
            base=base,
            grow_edge=int(sw["grow_edge"]),
            shrink_edge=int(sw["shrink_edge"]),
            step_delta=float(sw["step_delta"]),
            step_count=int(sw["step_count"]),
            switch=_switch_from(sw["switch"]),
            solver=solver_override(graph_file_solver),
            label=manifest.get("label", "manifest"),
        )
        return replace(
            sweep_plan(spec),
            provenance={"graph_file": manifest["graph_file"], "seed": seed, "mode": "sweep"},
        )

    raise ValueError("manifest does not describe a campaign")
