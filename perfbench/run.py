"""Campaign benchmark for qgraph: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload gue_numerics --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each job is a fresh `python3 perfbench/job.py` process that imports
`qgraph.cli`, generates its input from the seed and runs the timed body
(`qgraph.cli.main(["campaign", ...])`, or reanalysis passes).

--trace 0  A closed loop of untraced jobs, one at a time, with `--workers`
           set to the number of usable cores, for about `--seconds` and at
           least one job per input.  Jobs cycle through two or three inputs
           made from the seed; each metric is the mean over the inputs of
           the median over their jobs.
--trace 1  One untraced serial job, one traced serial job and one untraced
           job at full worker count, all on the first input, for the
           per-layer metrics.

Output: human-readable lines (machine facts, every metric with its unit,
degraded pairs), then one JSON line with `correct`, `attempted`, `failed`
and `metrics`, the metrics named in BENCHMARK.json.  `attempted` and
`failed` count switch pairs: a degraded pair or a pair of a body that
raised or exited 2 is failed, so failed/attempted is `failed_share`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# pairs per input; "smoke" is the minimal size of perfbench/smoke.py
SIZES = {
    "full": {"gue_numerics": 6, "near_degenerate": 16, "reanalysis": 40},
    "smoke": {"gue_numerics": 1, "near_degenerate": 2, "reanalysis": 8},
}
# input sets per untraced run; job j runs input j % INPUTS.  near_degenerate
# averages more configurations because its cost varies most from seed to seed
INPUTS = {"gue_numerics": 2, "near_degenerate": 3, "reanalysis": 2}
SEED_STRIDE = 1_000_000  # input i is made from seed + i * SEED_STRIDE
SETUP_PROBES = 3  # setup-only jobs per run, on top of each job's own setup
TRACE_PASSES = 10  # reanalysis passes per job of a traced run
RUN_LIMIT_S = 170.0


class Job:
    """Starts job.py in its own process group; kills the group on failure."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def __call__(self, mode: str, index: int, workers: int, slice_s: float = 0.0,
                 min_passes: int = 1) -> dict | None:
        self.count += 1
        spec = {
            "mode": mode,
            "workload": self.args.workload,
            "seed": self.args.seed + index * SEED_STRIDE,
            "pairs": SIZES[self.args.size][self.args.workload],
            "workers": workers,
            "slice_s": slice_s,
            "min_passes": min_passes,
            "job_dir": str(self.work / f"job{self.count:03d}"),
            "src": str(SRC),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"job {self.count} timed out", file=sys.stderr)
            _kill_group(proc.pid)
            proc.communicate()
            return None
        finally:
            shutil.rmtree(spec["job_dir"], ignore_errors=True)
        if proc.returncode != 0 or not stdout.strip():
            print(f"job {self.count} exited {proc.returncode}", file=sys.stderr)
            _kill_group(proc.pid)
            return None
        result = json.loads(stdout.strip().splitlines()[-1])
        result["input"] = index
        return result


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a job's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QGRAPH_NUMBA", "QGRAPH_WORKERS")
        },
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _accounting(job: dict | None, pairs: int, reanalysis: bool) -> tuple[int, int]:
    """(attempted, failed) pairs of one job."""
    if job is None or job["error"] is not None:
        bodies = max(len(job["bodies"]) if job else 0, 1)
        return bodies * pairs, bodies * pairs
    attempted = failed = 0
    for body in job["bodies"]:
        attempted += pairs
        if body["exit_code"] == 2 or (reanalysis and body["exit_code"] != 0):
            failed += pairs
        else:
            failed += job["check"]["failed_pairs"]
    return attempted, failed


def _correct(jobs: list[dict | None]) -> tuple[bool, list[str]]:
    """All jobs ran, every gate held, and each input gave one aggregate digest."""
    problems = []
    shas: dict[int, set] = {}
    for n, job in enumerate(jobs):
        if job is None or job["error"] is not None:
            problems.append(f"job {n} failed")
            continue
        problems += [f"job {n} gate {g}" for g, ok in job["check"]["gates"].items() if not ok]
        shas.setdefault(job["input"], set()).update(job["shas"])
    problems += [f"input {i}: {len(s)} distinct aggregate_sha256" for i, s in shas.items() if len(s) != 1]
    return not problems, problems


def _job_values(job: dict) -> dict[str, float]:
    wall = statistics.median(b["wall_s"] for b in job["bodies"])
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(b["cpu_s"] for b in job["bodies"]),
        "levels_per_s": job["check"]["levels"] / wall if job["error"] is None else 0.0,
        "peak_rss_mb": job["peak_rss_mb"],
    }


def setup_probes(job: Job, cores: int) -> list[dict]:
    probes = [job("setup", 0, cores) for _ in range(SETUP_PROBES)]
    if None in probes:
        raise RuntimeError("set-up failed: qgraph.cli did not import or the input failed")
    return probes


def run_untraced(args, job: Job, cores: int) -> tuple[dict, list]:
    setups = setup_probes(job, cores)
    inputs = INPUTS[args.workload]
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(job("run", len(jobs) % inputs, cores, slice_s=args.seconds / 5.0, min_passes=3))
        elapsed = time.monotonic() - start
        # start another job only if it should end by half a job past --seconds
        if len(jobs) >= inputs and elapsed * (1.0 + 0.5 / len(jobs)) > args.seconds:
            break
    timed = [j for j in jobs if j is not None and j["bodies"]]
    if not timed:
        raise RuntimeError("no job produced a timing")
    per_input = {}
    for j in timed:
        per_input.setdefault(j["input"], []).append(_job_values(j))
    metrics = {
        name: statistics.fmean(
            statistics.median(v[name] for v in values) for values in per_input.values()
        )
        for name in ("wall_s", "cpu_s", "levels_per_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(
        s["setup_s"] for s in setups + jobs if s is not None
    )
    return metrics, jobs


def run_traced(args, job: Job, cores: int) -> tuple[dict, list]:
    setups = setup_probes(job, cores)
    passes = {"min_passes": TRACE_PASSES}
    serial = job("run", 0, 1, **passes)
    traced = job("trace", 0, 1, **passes)
    parallel = job("run", 0, cores) if args.workload != "reanalysis" else None
    jobs = [serial, traced] + ([parallel] if args.workload != "reanalysis" else [])
    if any(j is None or not j["bodies"] for j in jobs):
        raise RuntimeError("a job of the traced run produced no timing")
    layers = dict(traced["layers"])
    wall = {name: statistics.median(b["wall_s"] for b in j["bodies"])
            for name, j in (("serial", serial), ("traced", traced), ("parallel", parallel))
            if j is not None}
    layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    layers["ensemble.parallel_efficiency"] = (
        layers["solver.solve_s"] / (cores * wall["parallel"]) if "parallel" in wall else 0.0
    )
    layers["trace.overhead_share"] = wall["traced"] / wall["serial"] - 1.0
    for n, rec in enumerate(traced.get("solves", [])):
        if rec["status"] != "ok":
            side = "before" if n % 2 == 0 else "after"
            print(f"degraded side: pair {n // 2} {side}: {rec['status']} "
                  f"({'; '.join(rec['messages'])})")
    return layers, jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qgraph" / "__init__.py").is_file():
        print(f"error: no qgraph sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    # build: byte-compile once so set-up samples never include compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)], check=True)
    cores = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    job = Job(args, work)
    try:
        metrics, jobs = (run_traced if args.trace else run_untraced)(args, job, cores)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pairs = SIZES[args.size][args.workload]
    attempted = failed = 0
    for j in jobs:
        a, f = _accounting(j, pairs, args.workload == "reanalysis")
        attempted, failed = attempted + a, failed + f
    correct, problems = _correct(jobs)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{job.count} jobs, {cores} workers")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for j in jobs:
        if j is not None and j.get("check"):
            print(f"input {j['input']}: aggregate_sha256 {j['shas'][-1][:16]} "
                  f"degraded pairs {j['check']['degraded_pairs']}")
    for p in problems:
        print(f"INCORRECT: {p}")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} pairs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
