"""Inputs, timed bodies and output gates of the three workloads.

Every function reaches qgraph through module attributes at call time
(``stats.shift_distribution``, ``qio.emit_campaign_outputs``), so the
tracer's wrappers see the calls the benchmark makes itself.
"""

from __future__ import annotations

import io as _stdio
import json
import math
import resource
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from qgraph import cli, ensemble, solver, stats
from qgraph import io as qio
from qgraph.graphs import save_graph
from qgraph.presets import GUE_NUMERICS_LEVELS_PER_CONFIG, gue_numerics_window, preset

REANALYSIS_LENGTH = 2.918  # total length of the gue preset, m
DROP_EVERY = 8  # every 8th reanalysis pair loses a before-level
DROP_LEVEL = 75  # 1-based position of the dropped level


def cpu_now() -> float:
    """CPU seconds of this process (all threads) plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and the largest reaped child's ru_maxrss."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, pairs: int, job_dir: Path) -> dict:
    """Build one input from `seed` under `job_dir`; returns what the body needs."""
    job_dir.mkdir(parents=True, exist_ok=True)
    if workload == "gue_numerics":
        manifest = {
            "preset": "gue",
            "randomized": {"count": pairs, "jitter": 0.02},
            "seed": seed,
            "window_k": list(gue_numerics_window()),
        }
    elif workload == "near_degenerate":
        base = preset("goe_a").graph  # the preset tetrahedron wiring
        base = base.with_edges(
            tuple(replace(e, length=2.248 / 6.0, phase_per_m=0.0) for e in base.edges)
        )
        graph_path = job_dir / "tetrahedron.json"
        save_graph(base, graph_path)
        manifest = {
            "graph_file": str(graph_path),
            "switch": {"pivot": 1, "edge_a": 3, "edge_b": 2},
            "randomized": {"count": pairs, "jitter": 0.004},
            "seed": seed,
            "window_ghz": [0.01, 2.5],
        }
    elif workload == "reanalysis":
        return {"spectra": synthetic_pairs(seed, pairs), "manifest": {"synthetic": seed}}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest_path = job_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return {"manifest_path": str(manifest_path), "pairs": pairs}


def _ordered_spacings(s: np.ndarray) -> np.ndarray:
    """Reorder spacings so their running sum stays within about one spacing
    of the level index: a rigid spectrum whose N_fl passes the completeness
    bound, with exactly the sampled spacing distribution."""
    s = np.sort(s * (s.size / s.sum()))
    lo, hi = 0, s.size - 1
    out = np.empty_like(s)
    total = 0.0
    for i in range(s.size):
        if total < i + 0.5:
            out[i], hi = s[hi], hi - 1
        else:
            out[i], lo = s[lo], lo + 1
        total += out[i]
    return out


def _spectrum(ks: np.ndarray, window: tuple[float, float]) -> solver.Spectrum:
    nfl = solver.fluctuation_envelope(ks, window, REANALYSIS_LENGTH)
    return solver.Spectrum(
        wavenumbers=ks,
        multiplicities=np.ones(ks.size, dtype=np.int64),
        window=window,
        total_length=REANALYSIS_LENGTH,
        residuals=np.zeros(ks.size),
        complete=bool(nfl <= solver.NFL_BOUND),
        status="ok",
        nfl_max=nfl,
    )


def synthetic_pairs(seed: int, count: int) -> list[tuple[solver.Spectrum, solver.Spectrum]]:
    """Switch pairs shaped like the numerics campaign, without solving.

    Each side has 149 levels over a window of 149 mean spacings; after-level
    i lies between before-levels i-1 and i, so Delta N stays in {-1, 0}.
    Every 8th pair has before-level 75 dropped, which drives Delta N to -2.
    """
    rng = np.random.default_rng(seed)
    n = GUE_NUMERICS_LEVELS_PER_CONFIG
    unit = math.pi / REANALYSIS_LENGTH
    k_min = gue_numerics_window()[0]
    window = (k_min, k_min + n * unit)
    pairs = []
    for i in range(count):
        x = np.cumsum(_ordered_spacings(stats.sample_transition(1.0, n, rng))) - 0.5
        before = k_min + unit * x
        prev = np.concatenate(([k_min], before[:-1]))
        after = prev + rng.uniform(0.2, 0.8, n) * (before - prev)
        b, a = _spectrum(before, window), _spectrum(after, window)
        if not (b.complete and a.complete):
            raise RuntimeError(f"synthetic pair {i} is not complete")
        if i % DROP_EVERY == DROP_EVERY - 1:
            b = solver.drop_levels(b, [DROP_LEVEL])
        pairs.append((b, a))
    return pairs


def injected_pairs(count: int) -> list[int]:
    return [i for i in range(count) if i % DROP_EVERY == DROP_EVERY - 1]


# ---------------------------------------------------------------------------
# timed bodies
# ---------------------------------------------------------------------------


def campaign_body(inputs: dict, workers: int, out_dir: Path) -> dict:
    """`qgraph campaign` through cli.main: plan, solve, reduce and emit."""
    argv = ["campaign", inputs["manifest_path"], "--workers", str(workers), "--out", str(out_dir)]
    summary = _stdio.StringIO()
    c0, w0 = cpu_now(), time.perf_counter()
    with redirect_stdout(summary):
        code = cli.main(argv)
    wall = time.perf_counter() - w0
    return {"wall_s": wall, "cpu_s": cpu_now() - c0, "exit_code": code}


def reanalysis_pass(inputs: dict, out_dir: Path) -> dict:
    """Statistics, emission, read-back and `qgraph fit-xi` on the synthetic pairs."""
    pairs = inputs["spectra"]
    c0, w0 = cpu_now(), time.perf_counter()
    results, reports = [], []
    for i, (before, after) in enumerate(pairs):
        shift = stats.shift_distribution(before, after)
        degree = stats.interlacing_degree(before, after)
        reports.append(stats.detect_missing_resonances(before, after))
        results.append(ensemble.PairResult(i, before, after, shift, degree))
    good = [p for p in results if p.ok]
    spacings = stats.pool_spacings(
        [stats.unfold_spacings(p.before, source=f"pair{p.index}/before") for p in good]
        + [stats.unfold_spacings(p.after, source=f"pair{p.index}/after") for p in good],
        source="campaign",
    )
    degraded = tuple(p.index for p in results if not p.ok)
    result = ensemble.CampaignResult(
        pairs=tuple(results),
        shift=stats.pool_shift_distributions([p.shift for p in good]),
        spacings=spacings,
        interlacing_degrees=tuple(p.degree for p in results),
        levels_before=sum(p.before.count for p in good),
        levels_after=sum(p.after.count for p in good),
        degraded=bool(degraded),
        degraded_pairs=degraded,
        provenance={"mode": "reanalysis"},
    )
    qio.emit_campaign_outputs(result, out_dir, inputs["manifest"])
    spectra = {
        (p.index, side): qio.read_spectrum_csv(out_dir / "spectra" / f"pair{p.index:03d}_{side}.csv")
        for p in results
        for side in ("before", "after")
    }
    read_back = {
        "spectra": spectra,
        "shift": qio.read_shift_csv(out_dir / "shift_distribution.csv"),
        "spacings": qio.read_spacings_csv(out_dir / "spacings.csv"),
        "histogram": qio.read_histogram_csv(out_dir / "spacing_histogram.csv"),
        "interlacing": qio.read_interlacing_csv(out_dir / "interlacing.csv"),
    }
    with redirect_stdout(_stdio.StringIO()):
        code = cli.main(
            ["fit-xi", str(out_dir / "spacings.csv"), "--out", str(out_dir / "overlay.csv")]
        )
    wall = time.perf_counter() - w0
    return {
        "wall_s": wall,
        "cpu_s": cpu_now() - c0,
        "exit_code": code,
        "result": result,
        "reports": reports,
        "read_back": read_back,
    }


# ---------------------------------------------------------------------------
# output gates
# ---------------------------------------------------------------------------


def _echo(out_dir: Path) -> dict:
    with open(out_dir / "manifest_echo.json", encoding="utf-8") as fh:
        return json.load(fh)


def aggregate_sha(out_dir: Path) -> str:
    return _echo(out_dir)["aggregate_sha256"]


def check_campaign(workload: str, inputs: dict, out_dir: Path, exit_code: int) -> dict:
    """Gates on a campaign's files; returns levels, sha, degraded pairs, gates."""
    echo = _echo(out_dir)
    degraded = list(echo["degraded_pairs"])
    gates = {"exit_code": exit_code == (1 if degraded else 0)}
    if workload == "gue_numerics":
        n = inputs["pairs"]
        target = GUE_NUMERICS_LEVELS_PER_CONFIG * n
        degrees = [d for _, d, _ in qio.read_interlacing_csv(out_dir / "interlacing.csv")]
        shift = qio.read_shift_csv(out_dir / "shift_distribution.csv")
        sample = qio.read_spacings_csv(out_dir / "spacings.csv")
        gates.update(
            {
                "no_degraded_pairs": not degraded,
                "interlacing_degrees_all_1": degrees == [1] * n,
                "shift_support_within_1": {m for m, (p, _) in shift.items() if p > 0}
                <= {-1, 0, 1},
                "levels_per_side": all(
                    abs(echo[key] - target) <= 0.05 * target
                    for key in ("levels_before", "levels_after")
                ),
                "ks_gue_below_goe": stats.ks_distance(sample, "GUE")
                < stats.ks_distance(sample, "GOE"),
            }
        )
    return {
        "levels": echo["levels_before"] + echo["levels_after"],
        "sha": echo["aggregate_sha256"],
        "degraded_pairs": degraded,
        "failed_pairs": len(degraded),
        "gates": gates,
    }


def check_reanalysis(inputs: dict, done: dict) -> dict:
    """Gates on one reanalysis pass: detection and lossless read-back."""
    pairs = inputs["spectra"]
    result, back = done["result"], done["read_back"]
    flagged = [i for i, r in enumerate(done["reports"]) if not r.clean]
    suspects = {done["reports"][i].suspect for i in flagged}
    spectra_equal = all(
        np.array_equal(back["spectra"][(p.index, side)]["k_rad_per_m"], spec.wavenumbers)
        and np.array_equal(back["spectra"][(p.index, side)]["multiplicity"], spec.multiplicities)
        and np.array_equal(back["spectra"][(p.index, side)]["residual"], spec.residuals)
        for p in result.pairs
        for side, spec in (("before", p.before), ("after", p.after))
    )
    centers, density = stats.spacing_histogram(result.spacings)
    gates = {
        "exit_code": done["exit_code"] == 0,
        "flags_exactly_injected": flagged == injected_pairs(len(pairs))
        and suspects == {"before"},
        "spectra_read_back": spectra_equal,
        "shift_read_back": {m: p for m, (p, _) in back["shift"].items()}
        == result.shift.probabilities,
        "spacings_read_back": np.array_equal(back["spacings"].spacings, result.spacings.spacings),
        "histogram_read_back": np.array_equal(back["histogram"]["s_bin_center"], centers)
        and np.array_equal(back["histogram"]["density_empirical"], density),
        "interlacing_read_back": [d for _, d, _ in back["interlacing"]]
        == list(result.interlacing_degrees),
    }
    return {
        "levels": sum(b.count + a.count for b, a in pairs),
        "degraded_pairs": list(result.degraded_pairs),
        "failed_pairs": 0,
        "gates": gates,
    }


# ---------------------------------------------------------------------------
# kernel microbenchmark
# ---------------------------------------------------------------------------


def kernel_micro(repeat: int = 5) -> dict[str, float]:
    """The 1192-point scan and 2000 single calls on the gue numerics window,
    numpy kernel only; medians of `repeat` timings."""
    from qgraph import kernels
    from qgraph.solver import bond_basis

    graph = preset("gue").graph
    lengths, chis, smat = bond_basis(graph)
    k_lo, k_hi = gue_numerics_window(graph)
    scan = np.arange(k_lo, k_hi, math.pi / (8.0 * graph.total_length))
    singles = [np.array([k]) for k in np.linspace(k_lo, k_hi, 2000)]
    fn = kernels.eigenphases_numpy

    def timed(call) -> float:
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    batch = timed(lambda: fn(scan, lengths, chis, smat))
    single = timed(lambda: [fn(k, lengths, chis, smat) for k in singles])
    return {
        "kernels.micro.batch_us_per_point": 1e6 * batch / scan.size,
        "kernels.micro.single_us_per_call": 1e6 * single / len(singles),
    }
