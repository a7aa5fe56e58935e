"""interp-hot: the paper's five-operation repair loop, interpreted back to back.

One caller runs `Engine.execute_run` in a closed loop over zero-compute
mocks, with trace records off and the monotonic clock, and times every run.
The hard-coded baseline (the same five mocks called in the loop's control
flow, including the runsSince(...) > 5 decision) runs in the same process,
in blocks interleaved with the interpreter's, so both see the same machine.
"""

from __future__ import annotations

from megaloop import bench, dsl
from megaloop.clock import MonotonicClock
from megaloop.model import EventTypeRegistry
from megaloop.runtime import Engine, EngineError

import gen
from common import Result, check_engine, now_ns, percentile

NAME = "interp-hot"
WHY = ("interpretation is the whole cost: the paper's loop over zero-compute mocks, "
       "measured against a hard-coded baseline")
LOADS = ("runtime", "history", "conditions")
BYPASSES = ("triggers", "reflection", "harness", "control", "loader",
            "dsl and model after setup")
UNIT = "run"
TAIL = 0.99
# a fresh engine every EPISODE_RUNS runs keeps the retained history, and with
# it the garbage collector's work per run, the same on every machine
EPISODE_RUNS = 20_000


class _InertSystem:
    """Layer-0 stand-in; the mocks never touch it."""


class _Episode:
    def __init__(self, tracer) -> None:
        self.interp_ops: list[tuple[str, str]] = []
        self.baseline_ops: list[tuple[str, str]] = []
        mocks = bench.make_mocks(0.0, self.interp_ops)
        if tracer is not None:
            # child spans, so execute_run's self time excludes the mocks
            mocks = {name: tracer.wrap("interp-hot.mock", fn) for name, fn in mocks.items()}
        self.engine = Engine(clock=MonotonicClock(), software={"bench-system": _InertSystem()},
                             default_ops=mocks, event_types=EventTypeRegistry(),
                             collect_traces=False)
        self.engine.registry["Self-repair"] = dsl.parse_fld(bench.LOOP_FLD, "<interp-hot>").unwrap()
        self.engine.load_architecture(dsl.parse_ld(bench.LOOP_LD, "<interp-hot>").unwrap())
        self.instance = self.engine.instances["loop"]
        self.baseline = _hard_coded_loop(
            bench.make_mocks(0.0, self.baseline_ops),
            {slot: self.engine.model_of("loop", slot)
             for slot in ("TGGRules", "ArchitecturalModel", "FailureAnalysisRules",
                          "RepairStrategies")})
        for _ in range(bench.WARMUP_RUNS):
            self.engine.execute_run(self.instance, "Monitor")
            self.baseline()
        del self.interp_ops[:], self.baseline_ops[:]


def _hard_coded_loop(mocks: dict, models: dict):
    """The loop written out by hand over the same mocks and models."""
    update, check, deep = mocks["Update"], mocks["CheckForFailures"], mocks["DeepCheck"]
    repair, effect = mocks["Repair"], mocks["Effect"]
    runs = 0
    last_clean = None

    def run() -> None:
        nonlocal runs, last_clean
        update(None, models)
        if check(None, models) == "no_failures":
            last_clean = runs
        else:
            if last_clean is None or runs - last_clean > 5:
                deep(None, models)
            repair(None, models)
            effect(None, models)
        runs += 1

    return run


class Workload:
    def __init__(self, root) -> None:
        self.tracer = None

    def setup(self) -> _Episode:
        return _Episode(self.tracer)

    def teardown(self, episode: _Episode) -> None:
        pass

    def close(self) -> None:
        pass

    def episode(self, ep: _Episode, seed: int, index: int, result: Result) -> None:
        execute_run, instance = ep.engine.execute_run, ep.instance
        raw, ref = result.series("latency")
        base_raw, base_ref = result.series("baseline")
        tracer = self.tracer
        run_id = result.units
        for mode, size in gen.interp_blocks(seed, index, EPISODE_RUNS):
            result.calibration.idle()
            scale = result.calibration.scale
            if mode == "baseline":
                baseline = ep.baseline
                for _ in range(size):
                    start = now_ns()
                    baseline()
                    elapsed = now_ns() - start
                    base_raw.append(elapsed)
                    base_ref.append(elapsed * scale)
                continue
            block_start = now_ns()
            for _ in range(size):
                start = now_ns()
                try:
                    if tracer is None:
                        final = execute_run(instance, "Monitor").final_state
                    else:
                        run_id += 1
                        with tracer.unit("unit.run", run_id):
                            final = execute_run(instance, "Monitor").final_state
                except EngineError as err:
                    result.fail(f"run aborted: {err}")
                    final = "Executed"
                elapsed = now_ns() - start
                raw.append(elapsed)
                ref.append(elapsed * scale)
                if final != "Executed":
                    result.fail(f"run ended in {final}")
            result.add_busy(now_ns() - block_start)
            result.units_done(size)
            result.completed_runs += size

        result.check("interp-hot.op_sequence", ep.interp_ops == ep.baseline_ops,
                     f"{len(ep.interp_ops)} interpreted vs {len(ep.baseline_ops)} hard-coded ops")
        check_engine(NAME, ep.engine, result)


def report(result: Result, ref: bool) -> list[tuple[str, float, str, int]]:
    runs = result.view("latency", ref)
    base = result.view("baseline", ref)
    p50 = percentile(runs, 0.5)
    return [
        ("runs_per_s", result.completed_runs / result.busy_s(ref), "1/s", result.completed_runs),
        ("run_latency_p50_us", p50 / 1e3, "us", len(runs)),
        ("run_latency_p99_us", percentile(runs, 0.99) / 1e3, "us", len(runs)),
        ("interp_overhead_us", (p50 - percentile(base, 0.5)) / 1e3, "us", len(base)),
    ]
