#!/usr/bin/env python3
"""The megaloop benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload interp-hot --seed 1 --seconds 10 --trace 0

Workloads: interp-hot, repair-storm, evolve-churn (see perfbench/NOTES.md for
why each exists and which layers it loads).  The seed fixes every input.

--trace 0 measures untraced for --seconds and prints the end-to-end metrics.
--trace 1 measures untraced for half the time, then attaches the layer probes
and measures traced for the other half; it prints the per-layer metrics and
writes every span to .perfbench_out/spans-<workload>.tsv.

Report lines (each with its unit and sample count) come first; the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from pathlib import Path

from common import Result, percentile
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"interp-hot": "interp_hot", "repair-storm": "repair_storm",
             "evolve-churn": "evolve_churn"}
SETUP_SAMPLES = 21
OUT_DIR = Path(".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload, result) -> None:
    """Time several set-ups, from the fixtures to the first timed unit."""
    for _ in range(SETUP_SAMPLES):
        result.calibration.slice()
        start = time.perf_counter_ns()
        state = workload.setup()
        result.record("setup", time.perf_counter_ns() - start)
        workload.teardown(state)


def measure(workload, seed: int, seconds: float, result) -> None:
    """Whole episodes, each on a fresh engine, until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    while result.episodes == 0 or time.perf_counter() < deadline:
        state = workload.setup()
        try:
            workload.episode(state, seed, result.episodes, result)
        finally:
            workload.teardown(state)
        result.episode_done()
        gc.collect()  # the finished episode's engine is not the next one's garbage


def end_to_end(module, result, ref: bool) -> list[tuple[str, float, str, int]]:
    setups = result.view("setup", ref)
    latencies = result.view("latency", ref)
    return [
        ("setup_s", percentile(setups, 0.5) / 1e9, "s", len(setups)),
        ("units_per_s", result.units / result.busy_s(ref), "1/s", result.units),
        ("latency_p50_us", percentile(latencies, 0.5) / 1e3, "us", len(latencies)),
        ("latency_tail_us", percentile(latencies, module.TAIL) / 1e3, "us", len(latencies)),
        ("peak_rss_mb", result.peak_rss_mb, "MB", 1),
    ]


def untraced_run(module, workload, args, lines):
    result = Result()
    measure_setup(workload, result)
    measure(workload, args.seed, args.seconds, result)
    tail_n = len(result.raw["latency"]) * (1 - module.TAIL)
    if tail_n < 10:
        lines.append(f"# warning: only {tail_n:.1f} samples beyond p{module.TAIL * 100:g}")
    lines.append(f"# times and rates are at the reference speed "
                 f"({len(result.calibration.slices)} calibration slices); "
                 f"the measured value follows each")
    metrics = {}
    for (name, value, unit, n), (_, measured, _, _) in zip(end_to_end(module, result, True),
                                                          end_to_end(module, result, False)):
        metrics[name] = (value, unit)
        lines.append(f"{name} = {value!r} {unit} (n={n}, measured {measured!r})")
    lines.append(f"# {module.NAME}: unit = one {module.UNIT}; latency_tail_us is "
                 f"p{module.TAIL * 100:g}; the same figures under their workload names:")
    for (name, value, unit, n), (_, measured, _, _) in zip(module.report(result, True),
                                                          module.report(result, False)):
        lines.append(f"{name} = {value!r} {unit} (n={n}, measured {measured!r})")
    return metrics, [result]


def traced_run(module, workload, args, lines):
    import probes  # imports megaloop, so only once the source tree is on the path

    untraced = Result()
    measure(workload, args.seed, args.seconds / 2, untraced)
    tracer = Tracer()
    probes.install(tracer)
    workload.tracer = tracer
    traced = Result()
    try:
        measure(workload, args.seed, args.seconds / 2, traced)
    finally:
        tracer.uninstall()
        workload.tracer = None
    trace_gauges = getattr(workload, "trace_gauges", None)
    if trace_gauges is not None:
        trace_gauges(tracer, traced)
    kept, dropped = tracer.span_count()
    untraced_rate = untraced.units / untraced.busy_s(ref=True)
    traced_rate = traced.units / traced.busy_s(ref=True)
    gauges = dict(traced.gauges)
    gauges.update({
        "trace.units": traced.units,
        "trace.spans": kept + dropped,
        "trace.units_per_s.untraced": untraced_rate,
        "trace.units_per_s.traced": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
    })
    values = probes.layer_metrics(tracer, gauges)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{module.NAME}.tsv"
    tracer.write(spans_file)
    lines.append(f"# {kept} spans written to {spans_file}"
                 + (f", {dropped} more counted but not kept" if dropped else ""))
    metrics = {}
    for name, unit in probes.metric_names():
        metrics[name] = (values[name], unit)
        lines.append(f"{name} = {values[name]!r} {unit}")
    return metrics, [untraced, traced]


def pin_to_one_cpu() -> str:
    """One CPU for every thread: the calibration then times the CPU the work
    runs on, and the closed loop never has two threads running at once."""
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        return f"# not pinned to one CPU: {exc}"
    return f"# pinned to CPU {cpu}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "megaloop" / "__init__.py").is_file() or \
            not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no megaloop source tree and fixtures under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    pinning = pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    lines = [f"# {module.NAME} (seed {args.seed}): {module.WHY}",
             f"# loads {', '.join(module.LOADS)}; bypasses {', '.join(module.BYPASSES)}",
             pinning]
    workload = module.Workload(ROOT)
    try:
        run = traced_run if args.trace else untraced_run
        metrics, results = run(module, workload, args, lines)
    finally:
        workload.close()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    lines.append(f"error_ratio = {failed / attempted!r} ratio "
                 f"(failed {failed} of {attempted} units and output checks)")
    for result in results:
        lines.extend(f"# failure: {message}" for message in result.failures)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
