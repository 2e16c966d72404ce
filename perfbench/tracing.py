"""In-memory spans around the public names each qgraph layer is called through.

The tracer replaces module attributes (``qgraph.ensemble.solve_spectrum``,
``qgraph.io.emit_campaign_outputs``, ...) with wrappers that open a span,
call the original and close the span; nothing under ``src/`` changes.
Kernel calls are too many to keep one span each, so the eigenphase wrapper
only adds counters to the innermost open span.  ``layer_metrics`` folds
the spans into the per-layer numbers of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time

# metric name -> the qgraph.stats functions it covers
STATS_FUNCTIONS = {
    "shift_distribution": ("shift_distribution",),
    "interlacing_degree": ("interlacing_degree",),
    "detect_missing_resonances": ("detect_missing_resonances",),
    "unfold_spacings": ("unfold_spacings",),
    "pool": ("pool_shift_distributions", "pool_spacings"),
    "fit_xi": ("fit_xi",),
    "ks_distance": ("ks_distance",),
}

READERS = (
    "read_spectrum_csv",
    "read_shift_csv",
    "read_histogram_csv",
    "read_interlacing_csv",
    "read_spacings_csv",
)

KERNEL_COUNTERS = ("single.calls", "single.s", "batch.calls", "batch.points", "batch.s")


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.info = dict.fromkeys(KERNEL_COUNTERS, 0)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root = Span("root", None)  # kernel calls made outside any span
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str, name: str, note=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def _wrap_kernel(self, module) -> None:
        original = module.eigenphases

        def traced(ks, *rest):
            t0 = time.perf_counter()
            out = original(ks, *rest)
            dt = time.perf_counter() - t0
            info = (self._open[-1] if self._open else self.root).info
            if len(ks) == 1:
                info["single.calls"] += 1
                info["single.s"] += dt
            else:
                info["batch.calls"] += 1
                info["batch.points"] += len(ks)
                info["batch.s"] += dt
            return out

        module.eigenphases = traced
        self._patched.append((module, "eigenphases", original))

    def install(self) -> None:
        from qgraph import cli, ensemble, io, kernels, stats

        self._wrap_kernel(kernels)
        self._wrap(ensemble, "solve_spectrum", "solver.solve", _note_spectrum)
        self._wrap(cli, "plan_from_manifest", "cli.plan")
        self._wrap(cli, "run_campaign", "ensemble.run_campaign")
        self._wrap(io, "emit_campaign_outputs", "io.emit", _note_emitted)
        for attr in READERS:
            self._wrap(io, attr, "io.read", _note_read)
        for module in (ensemble, io, cli, stats):
            for metric, attrs in STATS_FUNCTIONS.items():
                for attr in attrs:
                    if hasattr(module, attr):
                        self._wrap(module, attr, "stats." + metric)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _note_spectrum(span: Span, args, spectrum) -> None:
    span.info["levels"] = spectrum.count
    span.info["status"] = spectrum.status
    span.info["messages"] = list(spectrum.messages)


def _note_emitted(span: Span, args, paths) -> None:
    span.info["files"] = len(paths)
    span.info["bytes"] = sum(os.path.getsize(p) for p in paths)


def _note_read(span: Span, args, result) -> None:
    span.info["bytes"] = os.path.getsize(args[0])


def solve_records(tracer: Tracer) -> list[dict]:
    """One record per solve in call order: levels, status and messages."""
    return [
        {k: s.info[k] for k in ("levels", "status", "messages")}
        for s in tracer.spans
        if s.name == "solver.solve"
    ]


def tail_of(sorted_values: list[float]) -> float:
    """Value with ten samples above it, or the maximum when too few samples
    put that point at or below the median."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    if n >= 21:
        return sorted_values[n - 11]
    return sorted_values[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bodies: int) -> dict[str, float]:
    """Per-layer numbers, summed over spans and divided by the traced bodies.

    `bodies` is the number of timed bodies the tracer saw (one campaign,
    or several reanalysis passes).  Layers a workload never calls read 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str, key: str | None = None) -> float:
        group = by_name.get(name, [])
        if key is None:
            return sum(s.duration for s in group)
        return sum(s.info.get(key, 0) for s in group)

    counters = {
        key: sum(s.info[key] for s in spans) + tracer.root.info[key]
        for key in KERNEL_COUNTERS
    }
    solves = by_name.get("solver.solve", [])
    solve_times = sorted(s.duration for s in solves)
    solve_s = sum(solve_times)
    kernel_in_solve = sum(s.info["single.s"] + s.info["batch.s"] for s in solves)
    levels = total("solver.solve", "levels")
    statuses = [s.info["status"] for s in solves]
    points = counters["single.calls"] + counters["batch.points"]
    run_campaign_s = total("ensemble.run_campaign")

    out = {
        "kernels.single.calls": counters["single.calls"],
        "kernels.single.s": counters["single.s"],
        "kernels.single.us_per_call": 1e6 * _ratio(counters["single.s"], counters["single.calls"]),
        "kernels.batch.calls": counters["batch.calls"],
        "kernels.batch.points": counters["batch.points"],
        "kernels.batch.s": counters["batch.s"],
        "kernels.batch.us_per_point": 1e6 * _ratio(counters["batch.s"], counters["batch.points"]),
        "kernels.points_per_level": _ratio(points, levels),
        "solver.solves": len(solves),
        "solver.solve_s": solve_s,
        "solver.solve_s.p50": solve_times[len(solve_times) // 2] if solve_times else 0.0,
        "solver.solve_s.tail": tail_of(solve_times),
        "solver.self_s": solve_s - kernel_in_solve,
        "solver.kernel_share": _ratio(kernel_in_solve, solve_s),
        "solver.levels": levels,
        "solver.incomplete_sides": statuses.count("incomplete"),
        "solver.anomaly_sides": statuses.count("anomaly"),
    }
    for metric in STATS_FUNCTIONS:
        out[f"stats.{metric}.calls"] = len(by_name.get("stats." + metric, []))
        out[f"stats.{metric}.s"] = total("stats." + metric)
    out.update(
        {
            "io.emit.s": total("io.emit"),
            "io.emit.bytes": total("io.emit", "bytes"),
            "io.emit.files": total("io.emit", "files"),
            "io.read.s": total("io.read"),
            "io.read.bytes": total("io.read", "bytes"),
            "ensemble.run_campaign.s": run_campaign_s,
            "ensemble.reduce_s": run_campaign_s - solve_s if run_campaign_s else 0.0,
            "cli.plan_s": total("cli.plan"),
        }
    )
    # p50 and tail describe single solves; everything else is per body
    per_solve = ("solver.solve_s.p50", "solver.solve_s.tail", "kernels.single.us_per_call",
                 "kernels.batch.us_per_point", "kernels.points_per_level",
                 "solver.kernel_share")
    return {k: (v if k in per_solve else v / bodies) for k, v in out.items()}
