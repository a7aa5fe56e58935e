"""Interpreter semantics: dispatch, routing, destruction, run integrity."""

from __future__ import annotations

import copy

import pytest

from megaloop import bench, build_engine, dsl
from megaloop.clock import VirtualClock
from megaloop.conditions import compile_condition, parse_condition
from megaloop.history import ABORT_STATE
from megaloop.model import EventTypeRegistry, Operation
from megaloop.runtime import Engine, EngineError, route_complex

from conftest import FLD_DIR, LD_DIR, BruteForceView, scripted_loop_engine


def ops_of(result):
    """(name, exit) pairs in dispatch order from one run's trace."""
    return [(e.name, e.detail) for e in result.trace if e.kind == "opEnd"]


def flat_sink(lines):
    def sink(instance, entry):
        lines.append((instance, entry.kind, entry.name, entry.detail))
    return sink


@pytest.fixture
def repair_engine():
    engine, _ = build_engine(LD_DIR / "self-repair.ld", FLD_DIR, clock=VirtualClock())
    engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
    return engine


class TestExecuteRun:
    def test_no_failures_terminates_analyzed(self, repair_engine):
        engine = repair_engine
        result = engine.execute_run(engine.instances["selfRepair"], "Monitor")
        assert result.final_state == "Analyzed"
        assert ops_of(result) == [("Update", "done"), ("Analyze", "OK")]

    def test_first_failing_run_repairs_without_deep_check(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")  # one healthy run on record
        engine.software["mrubis"].inject_failure("c3", "crash")
        lines = []
        engine.trace_sink = flat_sink(lines)
        result = engine.execute_run(inst, "Monitor")
        assert result.final_state == "Executed"
        dispatched = [(i, n, d) for i, k, n, d in lines if k == "opEnd"]
        assert dispatched == [
            ("selfRepair", "Update", "done"),
            ("selfRepairA", "CheckForFailures", "failures"),
            ("selfRepair", "Analyze", "Failures"),
            ("selfRepair", "Repair", "planned"),
            ("selfRepair", "Effect", "done"),
        ]
        decisions = [(n, d) for i, k, n, d in lines if k == "decision"]
        assert decisions == [("NeedDeepAnalysis", "else")]
        assert engine.software["mrubis"].failed_components() == {}

    def test_trace_starts_initial_ends_final(self, repair_engine):
        engine = repair_engine
        result = engine.execute_run(engine.instances["selfRepair"], "Monitor")
        assert result.trace[0].kind == "enterState"
        assert result.trace[0].name == "Monitor"
        assert result.trace[-1].kind == "enterState"
        assert result.trace[-1].name == result.final_state

    def test_trace_follows_declared_flow_graph(self, repair_engine):
        engine = repair_engine
        engine.software["mrubis"].inject_failure("c4", "crash")
        inst = engine.instances["selfRepair"]
        result = engine.execute_run(inst, "Monitor")
        mm = inst.megamodel
        edges = {(f.source.node, f.source.compartment, f.target.node) for f in mm.flows}
        steps = [e for e in result.trace if e.kind in ("enterState", "opEnd", "decision")]
        for prev, cur in zip(steps, steps[1:]):
            comp = prev.detail if prev.kind == "opEnd" else None
            if prev.kind == "decision":
                continue  # branch targets live on the decision node
            assert any(s == prev.name and (c == comp or c is None) and t == cur.name
                       for s, c, t in edges), (prev, cur)

    def test_history_append_only(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")
        frozen = copy.deepcopy(inst.history.runs[0])
        engine.execute_run(inst, "Monitor")
        assert inst.history.runs[0] == frozen

    def test_model_store_conserved_without_create_destroy(self, repair_engine):
        engine = repair_engine
        before = set(engine.store)
        engine.execute_run(engine.instances["selfRepair"], "Monitor")
        assert set(engine.store) == before

    def test_reentry_rejected(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]

        def reenter(ctx, models):
            ctx.engine.execute_run(inst, "Monitor")
            return "done"

        inst.bindings["Update"] = ("call", reenter)
        with pytest.raises(EngineError) as err:
            engine.execute_run(inst, "Monitor")
        assert err.value.code == "E-REENTRY"
        assert inst.status == "idle"


class TestDispatch:
    def test_update_receives_exactly_its_declared_models(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        seen = {}

        def spy(ctx, models):
            seen["slots"] = sorted(models)
            seen["op"] = ctx.op
            return "done"

        inst.bindings["Update"] = ("call", spy)
        inst.invalidate()
        engine.execute_run(inst, "Monitor")
        assert seen == {"slots": ["ArchitecturalModel", "TGGRules"], "op": "Update"}

    def test_undeclared_exit_aborts_run(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        inst.bindings["Update"] = ("call", lambda ctx, models: "maybe")
        inst.invalidate()
        with pytest.raises(EngineError) as err:
            engine.execute_run(inst, "Monitor")
        assert err.value.code == "E-EXIT-UNKNOWN"
        assert inst.status == "idle"
        assert inst.history.runs[-1].final_state == ABORT_STATE

    def test_implementation_exception_wrapped_with_trace(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]

        def boom(ctx, models):
            raise RuntimeError("sensor offline")

        inst.bindings["Update"] = ("call", boom)
        inst.invalidate()
        with pytest.raises(EngineError) as err:
            engine.execute_run(inst, "Monitor")
        assert err.value.code == "E-OP-IMPL"
        assert "opStart:Update" in str(err.value)

    def test_aborted_run_invisible_to_conditions(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")
        assert inst.history.executions("Analyze", "OK") == 1
        inst.bindings["Repair"] = ("call", lambda ctx, models: "maybe")
        inst.invalidate()
        engine.software["mrubis"].inject_failure("c5", "crash")
        with pytest.raises(EngineError):
            engine.execute_run(inst, "Monitor")
        # the aborted run completed Update and Analyze, but none of it counts
        assert inst.history.executions("Update") == 1
        assert inst.history.runs_since("Analyze", "OK") == 1

    def test_annotation_visible_across_runs(self, repair_engine):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")
        body = engine.model_of("selfRepair", "ArchitecturalModel").body
        assert body["annotations"].get("effected") is None
        engine.software["mrubis"].inject_failure("c3", "crash")
        engine.execute_run(inst, "Monitor")
        body = engine.model_of("selfRepair", "ArchitecturalModel").body
        assert body["annotations"]["effected"] is True


class TestRouteComplex:
    def test_identity_by_name(self):
        op = Operation("Optimize", "complex", entries=("Monitor", "Analyze"),
                       exits=("Analyzed", "Executed"))
        assert route_complex("Analyzed", op) == "Analyzed"
        assert route_complex("Executed", op) == "Executed"

    def test_singleton_exit_implicit(self):
        op = Operation("Call", "complex", exits=("done",))
        assert route_complex("Whatever", op) == "done"


class TestInstantiate:
    def make_engine(self, registry):
        engine = Engine(clock=VirtualClock(), event_types=EventTypeRegistry())
        engine.registry.update(copy.deepcopy(registry))
        return engine

    def test_explicit_bindings(self, registry):
        engine = self.make_engine(registry)
        fns = {name: (lambda ctx, models: "done") for name in
               ("Update", "DeepCheck", "Effect")}
        fns["CheckForFailures"] = lambda ctx, models: "no_failures"
        fns["Repair"] = lambda ctx, models: "planned"
        inst = engine.instantiate("Self-repair", "loop", fns)
        assert inst.status == "idle"
        assert inst.history.run_count() == 0
        result = engine.execute_run(inst, "Monitor")
        assert result.final_state == "Analyzed"

    def test_missing_binding(self, registry):
        engine = self.make_engine(registry)
        with pytest.raises(EngineError) as err:
            engine.instantiate("Self-repair", "loop", {})
        assert err.value.code == "E-BIND-MISSING"

    def test_duplicate_name(self, registry):
        engine = self.make_engine(registry)
        fns = {name: (lambda ctx, models: "done") for name in
               ("Update", "CheckForFailures", "DeepCheck", "Repair", "Effect")}
        engine.instantiate("Self-repair", "loop", fns)
        with pytest.raises(EngineError) as err:
            engine.instantiate("Self-repair", "loop", fns)
        assert err.value.code == "E-NAME-DUP"

    def test_two_instances_independent_histories(self, registry):
        engine = self.make_engine(registry)
        fns = {"Update": lambda ctx, models: "done",
               "CheckForFailures": lambda ctx, models: "no_failures",
               "DeepCheck": lambda ctx, models: "done",
               "Repair": lambda ctx, models: "planned",
               "Effect": lambda ctx, models: "done"}
        one = engine.instantiate("Self-repair", "one", fns)
        two = engine.instantiate("Self-repair", "two", fns)
        engine.execute_run(one, "Monitor")
        assert one.history.run_count() == 1
        assert two.history.run_count() == 0
        assert one.megamodel is not two.megamodel  # per-instance deep copies


class TestDestruction:
    def test_patch_module_destroys_itself(self, registry):
        engine, _ = build_engine(LD_DIR / "layered-base.ld", FLD_DIR,
                                 clock=VirtualClock())
        from megaloop.reflection import apply_patch_now, parse_patch
        from conftest import PATCH_DIR
        patch = parse_patch((PATCH_DIR / "update-software.patch").read_text()).unwrap()
        apply_patch_now(engine, patch)
        assert "updater" in engine.instances
        result = engine.execute_run(engine.instances["updater"], "Start")
        assert result.destructed and result.final_state == "Done"
        assert "updater" not in engine.instances
        assert engine.arch.find_module("updater") is None
        assert not any(mid.startswith("updater.") for mid in engine.store)
        # the replaced component carries a bumped version
        comp = engine.software["mrubis"].state.components["c5"]
        assert comp.params["version"] == 2 and comp.lifecycle == "started"


class SinkDown(Exception):
    """Raised by a trace sink; deliberately not an EngineError."""


class TestRunAbortsOnAnyException:
    # sink call 1 is the run's first enterState, 3 the end of its first
    # operation, 5 the first entry of the nested selfRepairA run
    @pytest.mark.parametrize("failing_call", [1, 3, 5])
    def test_raising_sink_aborts_run_cleanly(self, repair_engine, failing_call):
        engine = repair_engine
        inst = engine.instances["selfRepair"]
        calls = []

        def sink(instance, entry):
            calls.append(instance)
            if len(calls) == failing_call:
                raise SinkDown(f"sink call {failing_call}")

        engine.trace_sink = sink
        with pytest.raises(SinkDown):
            engine.execute_run(inst, "Monitor")
        for name in ("selfRepair", "selfRepairA"):
            assert engine.instances[name].status == "idle"
            assert engine.instances[name].history.current is None
        assert engine._run_depth == 0
        assert inst.history.runs[-1].aborted
        assert engine.run_audit[-1]["instance"] == "selfRepair"
        assert engine.run_audit[-1]["aborted"] and engine.run_audit[-1]["depth"] == 0
        assert inst.history.executions("Update") == 0  # the aborted run counts nothing

        engine.trace_sink = None
        result = engine.execute_run(inst, "Monitor")
        assert result.final_state == "Analyzed"
        assert not inst.history.runs[-1].aborted
        engine.require_quiescent("probe")  # no run is left active


class CountingClock(VirtualClock):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def now(self) -> float:
        self.reads += 1
        return super().now()


WATCHER_FLD = """
megamodel "Watcher" {
  initial Start
  final Done
  operation Tick {
    exits { done }
  }
  flow Start -> Tick
  flow Tick.done -> Done
}
"""

WATCHED_LD = """
architecture "Watched-loop" {
  layer 0 "Adaptable Software" {
    software sys : "bench-system"
  }
  layer 1 "Loop" {
    module loop : "Self-repair"
  }
  layer 2 "Watch" {
    module watch : "Watcher"
  }
  sense loop <- sys [r]
  effect loop -> sys [w]
  sense watch <- loop [r] trigger "After[CheckForFailures]; ; Start;"
}
"""


class _InertSystem:
    """Layer-0 stand-in; the bench mocks never touch it."""


class TestClockReads:
    def loop_engine(self, ld: str, extra_ops: dict | None = None):
        ops: list = []
        clock = CountingClock()
        default_ops = dict(bench.make_mocks(0.0, ops), **(extra_ops or {}))
        engine = Engine(clock=clock, software={"bench-system": _InertSystem()},
                        default_ops=default_ops, event_types=EventTypeRegistry(),
                        collect_traces=False)
        engine.registry["Self-repair"] = dsl.parse_fld(bench.LOOP_FLD, "<loop>").unwrap()
        engine.registry["Watcher"] = dsl.parse_fld(WATCHER_FLD, "<watcher>").unwrap()
        engine.load_architecture(dsl.parse_ld(ld, "<loop>").unwrap())
        return engine, clock

    def test_five_op_run_reads_clock_at_most_six_times(self):
        engine, clock = self.loop_engine(bench.LOOP_LD)
        inst = engine.instances["loop"]
        for _ in range(2):  # the first run also builds the dispatch plans
            before = clock.reads
            engine.execute_run(inst, "Monitor")
            assert clock.reads - before <= 6
            assert [e.op for e in inst.history.runs[-1].op_executions] == list(bench.OP_ORDER)

    def test_op_after_interception_starts_when_watcher_run_ends(self):
        def tick(ctx, models):
            ctx.engine.clock.advance_to(ctx.now + 1.0)
            return "done"

        engine, clock = self.loop_engine(WATCHED_LD, {"Tick": tick})
        engine.execute_run(engine.instances["loop"], "Monitor")
        watched = engine.instances["watch"].history.runs[-1]
        assert watched.end == 1.0
        ops = engine.instances["loop"].history.runs[-1].op_executions
        assert [e.op for e in ops] == list(bench.OP_ORDER)
        assert ops[1].end == 0.0  # CheckForFailures, before the watcher ran
        assert ops[2].start == watched.end  # DeepCheck starts after the watcher run


DEEP_PATH = ["Update", "CheckForFailures", "DeepCheck", "Repair", "Effect"]
REPAIR_PATH = ["Update", "CheckForFailures", "Repair", "Effect"]


def last_ops(inst) -> list[str]:
    return [e.op for e in inst.history.runs[-1].op_executions]


class TestBoundRoutes:
    """Routes and branch conditions hold their history's index cells."""

    def test_abort_rolls_back_what_conditions_and_exit_counts_see(self):
        exits = dict(bench.MOCK_EXITS)
        engine = scripted_loop_engine(exits)
        loop = engine.instances["loop"]
        engine.reflect_edit("loop", ("setDecisionCondition", "NeedDeepAnalysis", 0,
                                     "executions(CheckForFailures -> failures) >= 3"))
        one_update = compile_condition(parse_condition("executions(Update -> done) == 1"),
                                       loop.history)
        engine.execute_run(loop, "Monitor")
        assert last_ops(loop) == REPAIR_PATH
        exits["Repair"] = RuntimeError("repair fault")
        with pytest.raises(EngineError) as err:
            engine.execute_run(loop, "Monitor")  # counted Update and CheckForFailures first
        assert err.value.code == "E-OP-IMPL" and loop.history.runs[-1].aborted
        assert one_update(0.0) is True
        exits["Repair"] = "planned"
        engine.execute_run(loop, "Monitor")  # the second failing check on record, not the third
        assert last_ops(loop) == REPAIR_PATH
        expected = {"Update": {"done": 2}, "CheckForFailures": {"failures": 2},
                    "Repair": {"planned": 2}, "Effect": {"done": 2}}
        assert loop.history.exit_counts() == BruteForceView(loop.history.runs).exit_counts()
        assert loop.history.exit_counts() == expected

    def test_condition_edit_mid_run_is_taken_at_the_next_decision(self):
        engine = scripted_loop_engine(dict(bench.MOCK_EXITS))
        loop = engine.instances["loop"]
        engine.execute_run(loop, "Monitor")
        assert last_ops(loop) == DEEP_PATH  # runsSince(CheckForFailures -> no_failures) is inf

        def editing_update(ctx, models):
            ctx.engine.reflect_edit("loop", ("setDecisionCondition", "NeedDeepAnalysis", 0,
                                             "runCount() > 100"))
            return "done"

        update = loop.bindings["Update"]
        loop.bindings["Update"] = ("call", editing_update)
        engine.execute_run(loop, "Monitor")
        assert last_ops(loop) == REPAIR_PATH
        loop.bindings["Update"] = update
        engine.reflect_edit("loop", ("setDecisionCondition", "NeedDeepAnalysis", 0,
                                     "runCount() > 2"))
        engine.execute_run(loop, "Monitor")
        assert last_ops(loop) == DEEP_PATH

    def test_undeclared_or_unhashable_exit_is_exit_unknown(self):
        for returned in ("nonsense", ["done"]):
            exits = dict(bench.MOCK_EXITS, Update=returned)
            engine = scripted_loop_engine(exits)
            loop = engine.instances["loop"]
            with pytest.raises(EngineError) as err:
                engine.execute_run(loop, "Monitor")
            assert err.value.code == "E-EXIT-UNKNOWN"
            assert loop.history.runs[-1].aborted and loop.status == "idle"
            assert loop.history.exit_counts() == {}

    def test_run_audit_holds_the_run_records(self):
        engine = scripted_loop_engine(dict(bench.MOCK_EXITS), collect_traces=False)
        loop = engine.instances["loop"]
        result = engine.execute_run(loop, "Monitor", cause="test")
        assert result.trace == ()  # nothing collects or sinks trace entries
        entry = engine.run_audit[-1]
        assert entry is loop.history.runs[-1]
        keys = ("instance", "index", "start", "end", "start_seq", "end_seq", "final",
                "aborted", "depth", "cause")
        assert {key: entry[key] for key in keys} == {
            "instance": "loop", "index": 0, "start": 0.0, "end": 0.0, "start_seq": 1,
            "end_seq": 2, "final": "Executed", "aborted": False, "depth": 0, "cause": "test"}
        with pytest.raises(KeyError):
            entry["op_log"]
