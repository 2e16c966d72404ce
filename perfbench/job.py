"""One benchmark job in a fresh process; run.py starts it, one at a time.

    python3 perfbench/job.py '<json spec>'

The spec names the workload, the input seed, the pair count, the job
directory, the worker count and the mode:

  setup  import qgraph.cli and generate the input, nothing else;
  run    also run the timed body (one campaign, or reanalysis passes for
         `slice_s` seconds but at least `min_passes`), then gate its output;
  trace  as run, with the layer wrappers installed, then the kernel
         microbenchmark.

The job prints one JSON object as its only stdout line.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import qgraph.cli  # the import users pay on every CLI call

    import_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(qgraph.cli.__file__).resolve().parents:
        print(f"qgraph imported from {qgraph.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads as wl

    job_dir = Path(spec["job_dir"])
    workload = spec["workload"]
    inputs = wl.prepare(workload, spec["seed"], spec["pairs"], job_dir)
    out = {"import_s": import_s, "setup_s": time.perf_counter() - t0}
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = job_dir / "out"
    bodies, shas, last = [], [], None
    out["error"] = None
    try:
        if workload == "reanalysis":
            start = time.perf_counter()
            while len(bodies) < spec["min_passes"] or (
                time.perf_counter() - start < spec["slice_s"]
            ):
                last = wl.reanalysis_pass(inputs, out_dir)
                bodies.append({k: last[k] for k in ("wall_s", "cpu_s", "exit_code")})
                shas.append(wl.aggregate_sha(out_dir))
        else:
            bodies.append(wl.campaign_body(inputs, spec["workers"], out_dir))
    except Exception:  # the job boundary: report the failure, keep the timings
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = wl.peak_rss_mb()
    out["bodies"] = bodies

    if out["error"] is None:
        try:
            if workload == "reanalysis":
                out["check"] = wl.check_reanalysis(inputs, last)
            else:
                out["check"] = wl.check_campaign(workload, inputs, out_dir, bodies[0]["exit_code"])
                shas.append(out["check"]["sha"])
        except Exception:
            out["error"] = traceback.format_exc()
    out["shas"] = shas
    if out["error"] is not None:
        print(out["error"], file=sys.stderr)

    if tracer is not None:
        from tracing import layer_metrics, solve_records

        out["layers"] = layer_metrics(tracer, max(len(bodies), 1))
        out["layers"].update(wl.kernel_micro())
        out["solves"] = solve_records(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
