"""Smoke test of the benchmark: every workload once, at minimal size.

    python3 perfbench/smoke.py

Runs run.py with `--size smoke --seconds 1` on each workload, untraced and
traced, and checks that every metric BENCHMARK.json declares is printed by
name with its unit, on its own line and in the final JSON line, and that
the output gates held.  It also checks that run.py refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and the
benchmark's files.  Exits 1 and lists the problems on failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "1", "--size", "smoke"]


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: JSON metric {m['name']} is {got}")
        line = re.compile(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$")
        if not any(line.match(ln) for ln in lines[:-1]):
            problems.append(f"{where}: no line '{m['name']} <value> {m['unit']}'")
    if not trace and not any(ln.startswith("failed_share ") for ln in lines):
        problems.append(f"{where}: no failed_share line")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *RUN, "--workload", "reanalysis", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory()
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
