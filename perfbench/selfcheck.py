#!/usr/bin/env python3
"""Self-check of the benchmark: a brief run of every workload, both modes.

    python3 perfbench/selfcheck.py

Asserts that each run exits 0, that every output check passes on the
current code, that the last line carries exactly the metrics BENCHMARK.json
names (end-to-end untraced, per-layer traced) with their units, that every
metric the workload is documented to report is printed with its unit, and
that the benchmark refuses to run without the source tree next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "0.5"

# the named metrics each workload prints besides the gated ones
NAMED = {
    "interp-hot": {"runs_per_s": "1/s", "run_latency_p50_us": "us",
                   "run_latency_p99_us": "us", "interp_overhead_us": "us"},
    "repair-storm": {"runs_per_s": "1/s", "adapt_latency_p50_us": "us",
                     "adapt_latency_p999_us": "us"},
    "evolve-churn": {"evolutions_per_s": "1/s", "patch_latency_p50_ms": "ms",
                     "patch_latency_p99_ms": "ms", "command_latency_p50_us": "us",
                     "snapshot_export_ms": "ms", "snapshot_import_ms": "ms"},
}
UNTRACED = {"setup_s": "s", "peak_rss_mb": "MB"}
LINE = re.compile(r"^([A-Za-z0-9_.-]+) = (\S+) (\S+)")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    problems = []
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in lines if line.startswith("# failure")]
        problems.append(f"{where}: output checks failed: {failures}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
        elif not trace and metric["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {metric['value']}")
    printed = {m.group(1): m.group(3) for m in map(LINE.match, lines[:-1]) if m}
    expected = {"error_ratio": "ratio"}
    if not trace:
        expected.update(UNTRACED)
        expected.update(NAMED[workload])
    for name, unit in expected.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the source tree the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "interp-hot", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(NAMED):
        print(f"BENCHMARK.json workloads {spec['workloads']} differ from {sorted(NAMED)}")
        return 1
    problems = check_bare_directory()
    for workload in NAMED:
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: done", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
