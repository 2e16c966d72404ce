"""Configuration ensembles: phase-shifter sweeps, switch pairs, campaigns.

A campaign is a list of (before, after) graph pairs solved over one
window (k_min, k_max), built from a manifest by `plan_from_manifest`.
Each switch pair enters a plan once: a repeated pair would double its
weight in the pooled statistics, so `CampaignPlan` refuses it.  The
sides are split into one contiguous chunk per worker, and each chunk is
solved in lockstep by one `solve_spectra` call, in a child forked for it
that pickles its spectra back through a pipe.
A side's spectrum does not depend on the chunk it is solved in, and the
reducer is a deterministic fold over results in configuration order, so
a campaign returns bit-identical results at any worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import traceback
from dataclasses import dataclass, field

import numpy as np

from .graphs import (
    MetricGraph,
    SweepSpec,
    SwitchDescriptor,
    check_keys,
    edge_switch,
    generate_configurations,
    json_value,
    load_graph,
    pin_total_length,
    read_json,
)
from .presets import GOE_WINDOW, preset
# campaigns solve through solve_spectra; solve_spectrum stays importable here
# because perfbench/tracing.py patches qgraph.ensemble.solve_spectrum, and
# traced benchmark runs fail without it
from .solver import Spectrum, check_window, solve_spectra, solve_spectrum  # noqa: F401
from .stats import (
    ShiftDistribution,
    SpacingSample,
    interlacing_degree,
    pool_shift_distributions,
    pool_spacings,
    shift_distribution,
    unfold_spacings,
)
from .units import k_from_ghz

__all__ = [
    "CampaignPlan",
    "PairResult",
    "CampaignResult",
    "randomized_ensemble",
    "run_campaign",
    "plan_from_manifest",
    "load_manifest",
]


def randomized_ensemble(
    base: MetricGraph,
    count: int,
    length_jitter: float,
    seed: int,
) -> list[MetricGraph]:
    """Seeded length-jittered copies of a graph at constant total length.

    Every edge except the longest is scaled by 1 + jitter * u, jitter in
    [0, 1) and u uniform on [-1, 1); the longest (the compensation edge)
    absorbs the difference so the exactly-rounded total matches the base
    bit for bit.  Copies that coincide are not refused here but by the
    `CampaignPlan` that pairs them.

    u is 2 * random() - 1 from `random.Random(seed)`, one draw per edge in
    edge order, the compensation edge's draw included and discarded.
    Python keeps `random()`'s sequence for a given integer seed across
    versions, while numpy's generator streams may change between releases
    (NEP 19), so a seed names the same graphs under any numpy.  Ensembles
    drawn before this generator was adopted, from numpy's
    `default_rng(seed)`, differ, and so do their digests.
    `random.Random(-n)` equals `random.Random(n)`, so a negative seed is
    refused rather than folded onto its absolute value.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 <= length_jitter < 1.0:
        raise ValueError(f"length_jitter must lie in [0, 1), got {length_jitter}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if length_jitter == 0.0:
        if count != 1:
            raise ValueError("zero jitter cannot produce distinct configurations")
        return [base]
    compensation_edge = max(base.edges, key=lambda e: e.length).id
    total = base.total_length
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        factors = [1.0 + length_jitter * (2.0 * rng.random() - 1.0) for _ in base.edges]
        lengths = {
            e.id: e.length * f for e, f in zip(base.edges, factors) if e.id != compensation_edge
        }
        comp_len = total - math.fsum(lengths.values())
        if comp_len <= 0.0:
            raise ValueError(
                f"jitter {length_jitter} infeasible: compensation edge "
                f"{compensation_edge} would need length {comp_len}"
            )
        jittered = base.with_lengths({**lengths, compensation_edge: comp_len})
        out.append(pin_total_length(jittered, compensation_edge, total))
    return out


@dataclass(frozen=True)
class CampaignPlan:
    """Explicit pair list, the window (k_min, k_max) every side is solved
    over, and provenance.

    No (before, after) pair may repeat, graphs compared by value (their
    vertices and edges): ValueError names the first two indices that hold
    one pair.
    """

    pairs: tuple[tuple[MetricGraph, MetricGraph], ...]
    window: tuple[float, float]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        first = {}
        for i, pair in enumerate(self.pairs):
            j = first.setdefault(pair, i)
            if j != i:
                raise ValueError(f"pairs {j} and {i} are the same switch pair")


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
            self.before.status == self.after.status == "ok"
            and _unfoldable(self.before)
            and _unfoldable(self.after)
        )


def _unfoldable(spectrum: Spectrum) -> bool:
    """At least two levels, all simple: a multiple level gives zero spacings."""
    return spectrum.wavenumbers.size >= 2 and not np.any(spectrum.multiplicities > 1)


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

    The sides, in plan order, form min(workers, sides) contiguous chunks,
    each solved in one `solve_spectra` call: a single chunk in this
    process, or else each chunk in a child forked for it (see
    `_forked_spectra`).  Where `os.fork` does not exist every side is
    solved in this process, with the same results.  Degraded pairs (a
    side whose status is not "ok", or with a multiple level or fewer than
    two levels) are excluded from the pooled statistics but kept in the
    report.  When every pair is degraded all of them are pooled, except
    that sides that cannot be unfolded never enter the spacing pool.
    """
    sides = [graph for pair in plan.pairs for graph in pair]
    n = min(workers, len(sides))
    if n <= 1 or not hasattr(os, "fork"):
        spectra = solve_spectra(sides, plan.window)
    else:
        bounds = [i * len(sides) // n for i in range(n + 1)]
        spectra = _forked_spectra(sides, bounds, plan.window)

    pair_results = []
    for i in range(len(plan.pairs)):
        before, after = spectra[2 * i], spectra[2 * i + 1]
        pair_results.append(
            PairResult(
                index=i,
                before=before,
                after=after,
                shift=shift_distribution(before, after),
                degree=interlacing_degree(before, after),
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


def _forked_spectra(sides: list, bounds: list[int], window) -> list[Spectrum]:
    """The spectra of the sides, each chunk sides[lo:hi] between
    consecutive bounds solved in a child forked for it.

    A forked child starts with numpy loaded, where a spawned interpreter
    would import it again.  The parent solves nothing itself, so LAPACK is
    never mapped into it.  It reads each child's pipe to its end and reaps
    the child, in chunk order.  A child's exception is re-raised here with
    its own type; a child that ended without a result raises RuntimeError
    naming its sides and exit status.  Whatever ends this call, no child
    outlives it: those still running are killed and reaped.
    """
    children = []  # (pid, read end of its pipe), in chunk order, until reaped
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _solve_in_child(sides[lo:hi], window, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        spectra = []
        for lo, hi in zip(bounds, bounds[1:]):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"the worker for sides {lo}-{hi - 1} left no result: {how}")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            spectra += outcome
        return spectra
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _solve_in_child(chunk: list, window, write_fd: int):
    """A forked child's whole life: solve the chunk, write the pickled
    spectra or exception to write_fd, and leave through os._exit.

    The exception carries the child's traceback as a note; one that does
    not survive pickling is sent as a RuntimeError carrying it instead.
    """
    code = 1
    try:
        try:
            outcome = solve_spectra(chunk, window)
        except BaseException as exc:  # the child's boundary: the parent re-raises it
            trace = "".join(traceback.format_exception(exc))
            # a note travels in the pickled exception and is printed with it
            exc.__notes__ = [*getattr(exc, "__notes__", ()), "in a campaign worker:\n" + trace]
            outcome = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                outcome = RuntimeError(trace)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# campaign manifests
# ---------------------------------------------------------------------------


def load_manifest(path) -> dict:
    manifest = read_json(path, "manifest")
    if not isinstance(manifest, dict) or not manifest:
        raise ValueError("manifest must be a non-empty JSON object")
    return manifest


# the keys that name a campaign's graphs and its pairs, one set per shape
_SHAPES = (
    frozenset({"presets"}),
    frozenset({"preset", "randomized"}),
    frozenset({"graph_file", "switch", "randomized"}),
    frozenset({"graph_file", "sweep"}),
)
_COMMON_KEYS = frozenset({"seed", "out_dir", "window_ghz", "window_k"})
# the fields of each nested block and their kinds; None marks a nested block
_FIELDS = {
    "randomized": {"count": int, "jitter": float},
    "switch": {"pivot": int, "edge_a": int, "edge_b": int},
    "sweep": {"grow_edge": int, "shrink_edge": int, "step_delta": float, "step_count": int,
              "switch": None},
}


def _block(value, name: str) -> dict:
    """A nested block with exactly its fields, each read as its kind."""
    fields = _FIELDS[name]
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object with keys {sorted(fields)}")
    check_keys(name, value, fields)
    return {
        key: _block(value[key], key) if kind is None else json_value(value[key], key, kind)
        for key, kind in fields.items()
    }


def _window(manifest: dict) -> tuple[float, float] | None:
    """The manifest's window, checked, or None where the source's holds."""
    keys = [key for key in ("window_ghz", "window_k") if key in manifest]
    if len(keys) > 1:
        raise ValueError("give at most one of window_ghz and window_k")
    if not keys:
        return None
    value = manifest[keys[0]]
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{keys[0]} must be [lo, hi], got {value!r}")
    to_k = k_from_ghz if keys[0] == "window_ghz" else float
    window = tuple(to_k(json_value(x, keys[0], float)) for x in value)
    check_window(window)
    return window


def plan_from_manifest(manifest: dict) -> CampaignPlan:
    """Build a campaign plan from a manifest dictionary.

    The keys that name the graphs and the pairs select one of four shapes:
      {"presets": [name, ...]}                      each preset's own sweep
      {"preset": name, "randomized": {"count", "jitter"}}    jittered pairs
      {"graph_file": path, "switch": {"pivot", "edge_a", "edge_b"},
       "randomized": {...}}                                  jittered pairs
      {"graph_file": path, "sweep": {"grow_edge", "shrink_edge",
       "step_delta", "step_count", "switch": {...}}}   step_count + 1 pairs
    Each shape may add "seed" (whole, >= 0, default 0), "out_dir", and one of
    "window_ghz": [lo, hi] or "window_k": [lo, hi] (finite).  The source,
    presets or a graph file, gives the base graphs and the window: a
    preset its own, a graph file GOE_WINDOW.  Presets whose windows differ
    need the manifest's window.  The schedule, a preset's own sweep, the
    manifest's sweep or `randomized`, gives the pairs.  Keys outside one
    shape, a nested block whose keys are not exactly its fields, and a
    malformed value are refused with ValueError.
    """
    # the shape sharing most keys with the manifest, the first on a tie,
    # names the keys that are unexpected or missing
    shape = max(_SHAPES, key=lambda keys: len(keys & set(manifest)))
    check_keys("manifest does not describe a campaign", set(manifest) - _COMMON_KEYS, shape)
    seed = json_value(manifest.get("seed", 0), "seed", int)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    json_value(manifest.get("out_dir", ""), "out_dir", str)
    window = _window(manifest)

    # source: (name, base graph, the preset's sweep or None), and its windows
    if "graph_file" in shape:
        path = json_value(manifest["graph_file"], "graph_file", str)
        sources, windows = [(path, load_graph(path), None)], {GOE_WINDOW}
    else:
        names = manifest["presets"] if "presets" in shape else [manifest["preset"]]
        if not isinstance(names, list) or not names:
            raise ValueError(f"presets must be a non-empty list, got {names!r}")
        presets = [preset(json_value(name, "preset", str)) for name in names]
        sources = [(p.name, p.graph, p.sweep) for p in presets]
        windows = {p.window for p in presets}
    if window is None:
        if len(windows) > 1:
            raise ValueError(
                f"presets {', '.join(names)} have different windows; "
                "give window_ghz or window_k"
            )
        [window] = windows

    # schedule
    if "randomized" in shape:
        [(source, base, sweep)] = sources
        rnd = _block(manifest["randomized"], "randomized")
        switch = sweep.switch if sweep else SwitchDescriptor(**_block(manifest["switch"], "switch"))
        graphs = randomized_ensemble(base, rnd["count"], rnd["jitter"], seed)
        return CampaignPlan(
            tuple((g, edge_switch(g, switch)) for g in graphs),
            window,
            {"source": source, "mode": "randomized", **rnd, "seed": seed},
        )
    if "sweep" in shape:
        [(source, base, _)] = sources
        sw = _block(manifest["sweep"], "sweep")
        sweeps = [(base, SweepSpec(switch=SwitchDescriptor(**sw.pop("switch")), **sw))]
        head = {"graph_file": source}
    else:
        sweeps = [(base, sweep) for _, base, sweep in sources]
        head = {"presets": list(names)}
    pairs = tuple(pair for base, sweep in sweeps for pair in generate_configurations(base, sweep))
    return CampaignPlan(pairs, window, {**head, "seed": seed, "mode": "sweep"})
