"""repair-storm: the three-layer repair stack under a storm of failures.

`layered-strategies.ld` is built with the bundled harness and a virtual
clock.  RepairStrategies starts as {crash: restart} and the self-repair
trigger becomes `RtException; 10ms; Monitor;`.  For each event one caller
either injects a failure or emits a plain RtException, then steps the
engine by 50 virtual milliseconds; the event's adapt latency runs from the
call to the return of that step, interceptions included.  An episode has a
fixed event count, because reflective queries cost more as the history
grows, and ends with plain emits that drain every failure.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

from megaloop import loader, reflection
from megaloop.clock import VirtualClock
from megaloop.runtime import EngineError

import gen
from common import Result, check_engine, now_ns, percentile

NAME = "repair-storm"
WHY = ("novel failure kinds drive escalation, interception and reflective edits "
       "over a growing history")
LOADS = ("triggers", "runtime scheduling", "reflection", "harness", "history")
BYPASSES = ("dsl and model after setup", "control", "conditions beyond one decision")
UNIT = "event"
TAIL = 0.999  # interceptions are about 0.5% of events
EPISODE_EVENTS = 10_000
STEP_S = 0.05
SOURCE = "mRUBiS"
ESCALATE_AFTER = 5  # the megamodel's runsSince(CheckForFailures -> no_failures) > 5


def expected_outcome(events: list[tuple]) -> dict:
    """What the loop must do with these events, worked out without the engine.

    Every event causes exactly one self-repair run.  A run with failures
    escalates to the deep check when more than five runs passed since the
    last clean one; the strategies loop then adds `replace` for every
    failure kind without a strategy, and the repair heals every failure
    whose kind has one.
    """
    failed: dict[str, str] = {}
    strategies = {gen.KNOWN_KIND: "restart"}
    last_clean = None
    clean = deep = unresolved_runs = 0
    for run, event in enumerate(events):
        if event[0] == "inject":
            failed[event[1]] = event[2]
        if not failed:
            last_clean = run
            clean += 1
            continue
        if last_clean is None or run - last_clean > ESCALATE_AFTER:
            deep += 1
            for kind in failed.values():
                strategies.setdefault(kind, "replace")
        if any(kind not in strategies for kind in failed.values()):
            unresolved_runs += 1
        failed = {c: k for c, k in failed.items() if k not in strategies}
    runs = len(events)
    counts = {
        "Update": {"done": runs},
        "CheckForFailures": {"failures": runs - clean, "no_failures": clean},
        "DeepCheck": {"done": deep},
        "Repair": {"planned": runs - clean - unresolved_runs, "no_strategy": unresolved_runs},
        "Effect": {"done": runs - clean},
    }
    return {
        "strategies": strategies,
        "failed": failed,
        "interceptions": deep,
        "exit_counts": {op: {exit: n for exit, n in exits.items() if n}
                        for op, exits in counts.items() if any(exits.values())},
    }


def recount(history) -> dict[str, dict[str, int]]:
    """Exit counters straight from the run records, skipping aborted runs."""
    out: dict[str, dict[str, int]] = {}
    for run in history.runs:
        if run.aborted:
            continue
        for ex in run.op_executions:
            per_op = out.setdefault(ex.op, {})
            per_op[ex.exit] = per_op.get(ex.exit, 0) + 1
    return out


class Workload:
    def __init__(self, root: Path) -> None:
        self.tracer = None
        self.ld = root / "fixtures" / "lds" / "layered-strategies.ld"
        self.flds = root / "fixtures" / "flds"

    def setup(self):
        engine, _ = loader.build_engine(self.ld, self.flds, clock=VirtualClock())
        engine.seed_model("selfRepair", "RepairStrategies", {gen.KNOWN_KIND: "restart"})
        reflection.set_trigger_now(engine, "selfRepair", SOURCE, "RtException; 10ms; Monitor;")
        return engine

    def teardown(self, engine) -> None:
        pass

    def close(self) -> None:
        pass

    def episode(self, engine, seed: int, index: int, result: Result) -> None:
        events = gen.storm_events(seed, index, EPISODE_EVENTS)
        tracer = self.tracer
        inject, emit, step = engine.inject_failure, engine.emit, engine.run
        errors = engine.errors
        event_id = result.units
        for event in events:
            result.calibration.idle()
            seen_errors = len(errors)
            start = now_ns()
            try:
                if tracer is not None:
                    event_id += 1
                    with tracer.unit("unit.event", event_id):
                        _deliver(event, inject, emit, step)
                else:
                    _deliver(event, inject, emit, step)
            except EngineError as err:
                result.fail(f"event {event}: {err}")
            elapsed = now_ns() - start
            result.record("latency", elapsed)
            result.add_busy(elapsed)
            if len(errors) != seen_errors:
                result.fail(f"event {event}: {errors[-1]}")
        result.units_done(len(events))
        result.completed_runs += sum(1 for entry in engine.run_audit if entry["depth"] == 0)
        with tracer.suspend() if tracer is not None else contextlib.nullcontext():
            self._check(engine, events, result)

    def _check(self, engine, events: list[tuple], result: Result) -> None:
        expected = expected_outcome(events)
        system = engine.software["mrubis"]
        repair = engine.instances["selfRepair"]
        strategies_loop = engine.instances["selfRepairStrategies"]
        failed = system.failed_components()
        result.check("repair-storm.all_healed", not failed and not expected["failed"],
                     f"still failed: {failed}")
        table = engine.model_of("selfRepair", "RepairStrategies").body
        result.check("repair-storm.strategies", table == expected["strategies"],
                     f"{len(table)} strategies, expected {len(expected['strategies'])}")
        for inst in (repair, strategies_loop):
            result.check(f"repair-storm.exit_counts.{inst.name}",
                         inst.history.exit_counts() == recount(inst.history))
        result.check("repair-storm.exit_counts.expected",
                     recount(repair.history) == expected["exit_counts"],
                     f"{recount(repair.history)} != {expected['exit_counts']}")
        result.check("repair-storm.runs_per_event", repair.history.run_count() == len(events),
                     f"{repair.history.run_count()} runs for {len(events)} events")
        result.check("repair-storm.interceptions",
                     strategies_loop.history.run_count() == expected["interceptions"],
                     f"{strategies_loop.history.run_count()} vs {expected['interceptions']}")
        check_engine(NAME, engine, result)


def _deliver(event: tuple, inject, emit, step) -> None:
    if event[0] == "inject":
        inject(event[1], event[2])
    else:
        emit("RtException", SOURCE)
    step(duration=STEP_S)


def report(result: Result, ref: bool) -> list[tuple[str, float, str, int]]:
    events = result.view("latency", ref)
    return [
        ("runs_per_s", result.completed_runs / result.busy_s(ref), "1/s", result.completed_runs),
        ("adapt_latency_p50_us", percentile(events, 0.5) / 1e3, "us", len(events)),
        ("adapt_latency_p999_us", percentile(events, 0.999) / 1e3, "us", len(events)),
    ]
