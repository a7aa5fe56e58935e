"""Reflective evolution: patches, rebinding, edits, snapshots, audits."""

from __future__ import annotations

import pytest

from megaloop import build_engine, dsl
from megaloop.clock import VirtualClock
from megaloop.reflection import (Patch, PatchStep, apply_patch_now, audit_quiescence,
                                 export_snapshot, import_snapshot, parse_patch,
                                 rebind_now, set_trigger_now)
from megaloop.runtime import EngineError
from megaloop.scenario import parse_script

from conftest import FLD_DIR, LD_DIR, PATCH_DIR


def fresh(ld_name, **kwargs):
    engine, script = build_engine(LD_DIR / ld_name, FLD_DIR, clock=VirtualClock(),
                                  **kwargs)
    return engine


def state_fingerprint(engine):
    snapshot = export_snapshot(engine).to_json()
    return "\n".join(l for l in snapshot.splitlines() if '"engineTime"' not in l)


class TestPatches:
    def test_add_strategies_reaches_golden_three_layer_ld(self):
        engine = fresh("layered-base.ld")
        patch = parse_patch((PATCH_DIR / "add-strategies.patch").read_text()).unwrap()
        report = apply_patch_now(engine, patch)
        assert report.added_modules == ["selfRepairStrategies"]
        golden = dsl.parse_ld((LD_DIR / "layered-strategies.ld").read_text()).unwrap()
        assert dsl.serialize_ld(engine.arch) == dsl.serialize_ld(golden)
        assert engine.arch == golden
        # new instance live, reflection slot bound to the running loop
        inst = engine.instances["selfRepairStrategies"]
        assert inst.model_bindings["feedbackLoopModel"] == ("instance", "selfRepair")

    def test_empty_patch_is_identity(self):
        engine = fresh("layered-base.ld")
        before = state_fingerprint(engine)
        report = apply_patch_now(engine, Patch("noop", []))
        assert report.steps_applied == 0
        assert state_fingerprint(engine) == before

    def test_unknown_megamodel_resolves_to_error_and_leaves_state_untouched(self):
        engine = fresh("layered-base.ld")
        before = state_fingerprint(engine)
        patch = Patch("bad", [PatchStep("addModule", (1, "ghost", "No-such"))])
        with pytest.raises(EngineError) as err:
            apply_patch_now(engine, patch)
        assert err.value.code == "E-PATCH-RESOLVE"
        assert state_fingerprint(engine) == before

    def test_invalid_post_state_is_atomic(self):
        engine = fresh("layered-strategies.ld")
        before = state_fingerprint(engine)
        # effect pointing above its layer fails validation after the steps apply
        patch = Patch("upward", [PatchStep("addEffect",
                                           ("selfRepair", "selfRepairStrategies", "w"))])
        with pytest.raises(EngineError) as err:
            apply_patch_now(engine, patch)
        assert err.value.code == "E-PATCH-INVALID"
        assert state_fingerprint(engine) == before

    def test_validation_closure_after_mutations(self):
        from megaloop.model import check_architecture
        engine = fresh("layered-base.ld")
        patch = parse_patch((PATCH_DIR / "add-strategies.patch").read_text()).unwrap()
        apply_patch_now(engine, patch)
        assert check_architecture(engine.arch, engine.registry, engine.event_types,
                                  engine.default_ops) == []

    def test_remove_module_retires_instance(self):
        engine = fresh("layered-strategies.ld")
        patch = Patch("rm", [
            PatchStep("removeEdge", ("sense", "selfRepairStrategies", "selfRepair")),
            PatchStep("removeEdge", ("effect", "selfRepairStrategies", "selfRepair")),
            PatchStep("removeModule", ("selfRepairStrategies",)),
            PatchStep("removeLayer", (2,)),
        ])
        report = apply_patch_now(engine, patch)
        assert report.removed_modules == ["selfRepairStrategies"]
        assert "selfRepairStrategies" not in engine.instances
        assert engine.arch.find_module("selfRepairStrategies") is None
        assert not any(mid.startswith("selfRepairStrategies.") for mid in engine.store)

    def test_failed_patch_leaves_shared_structure_untouched(self):
        engine = fresh("self-repair.ld")
        before = state_fingerprint(engine)
        listing = dsl.serialize_ld(engine.arch)
        edge = engine.arch.sense_edges[0]
        trigger = edge.trigger
        layers = [(layer, layer.modules, list(layer.modules)) for layer in engine.arch.layers]
        patch = parse_patch(
            'patch "half" {\n'
            '  set-trigger selfRepair <- mRUBiS "RtException; 1s; Monitor;"\n'
            '  add-module 1 ghost "Self-repair-A"\n'
            '  remove-module nobody\n'
            '}\n').unwrap()
        with pytest.raises(EngineError) as err:
            apply_patch_now(engine, patch)
        assert err.value.code == "E-PATCH-RESOLVE" and "nobody" in str(err.value)
        assert state_fingerprint(engine) == before
        assert dsl.serialize_ld(engine.arch) == listing
        assert engine.arch.sense_edges[0] is edge and edge.trigger is trigger
        for layer, modules, saved in layers:
            assert layer.modules is modules and modules == saved

        # event routing and the period gate still follow the old 10 s trigger:
        # the events at 3 s and 5 s wait for the gate (the staged 1 s one would not)
        script = parse_script("event RtException\n" + "\n".join(
            f"at {t}s emit RtException from mRUBiS" for t in (1, 3, 5)))
        control = fresh("self-repair.ld")
        for e in (engine, control):
            e.run(duration=25, script=script.unwrap())
        runs = [(r["instance"], r["start"], r["cause"]) for r in engine.run_audit]
        assert runs == [(r["instance"], r["start"], r["cause"]) for r in control.run_audit]
        starts = [start for name, start, _ in runs if name == "selfRepair"]
        assert starts == pytest.approx([1.0, 11.0])


class TestRebinding:
    def test_rebind_to_alternative_analysis(self):
        engine = fresh("self-repair-variants.ld")
        engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
        inst = engine.instances["selfRepair"]
        engine.software["mrubis"].inject_failure("c3", "crash")
        engine.execute_run(inst, "Monitor")
        a_runs = engine.instances["selfRepairA"].history.run_count()
        assert a_runs == 1
        rebind_now(engine, "selfRepair", "Analyze", "selfRepairA2")
        engine.software["mrubis"].inject_failure("c3", "crash")
        result = engine.execute_run(inst, "Monitor")
        # the alternative analysis deep-checks immediately on failures
        a2 = engine.instances["selfRepairA2"]
        assert [e.op for e in a2.history.runs[-1].op_executions] == \
            ["CheckForFailures", "DeepCheck"]
        # old target's history is preserved, and it saw no new run
        assert engine.instances["selfRepairA"].history.run_count() == a_runs
        assert result.final_state == "Executed"

    def test_rebind_signature_mismatch(self):
        engine = fresh("self-management-1.ld")
        with pytest.raises(EngineError) as err:
            rebind_now(engine, "selfRepair", "Analyze", "selfOptimization")
        assert err.value.code == "E-SIG-MISMATCH"

    def test_rebind_basic_operation_to_alternate_software_module(self, registry):
        calls = []

        class AltImpl:
            operations = {"Work": lambda ctx, models: calls.append("alt") or "done"}

        from megaloop.model import EventTypeRegistry
        from megaloop.runtime import Engine
        engine = Engine(clock=VirtualClock(),
                        software={"alt": AltImpl(), "sysA": object()},
                        default_ops={"Work": lambda ctx, models: calls.append("default") or "done"},
                        event_types=EventTypeRegistry())
        engine.registry["Ping-loop"] = dsl.parse_fld(
            'megamodel "Ping-loop" { initial Start final Done '
            'operation Work { exits { done } } flow Start -> Work flow Work.done -> Done }'
        ).unwrap()
        ld = ('architecture "X" { layer 0 "s" { software sysA : "sysA" '
              'software altMod : "alt" } layer 1 "l" { module loop : "Ping-loop" } }')
        engine.load_architecture(dsl.parse_ld(ld).unwrap())
        engine.execute_run(engine.instances["loop"], "Start")
        rebind_now(engine, "loop", "Work", "altMod")
        engine.execute_run(engine.instances["loop"], "Start")
        assert calls == ["default", "alt"]


class TestReflectQueryAndEdit:
    def test_query_counts_match_recount(self):
        engine = fresh("self-repair.ld")
        engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
        inst = engine.instances["selfRepair"]
        for i in range(7):
            if i % 3 == 0:
                engine.software["mrubis"].inject_failure("c2", "crash")
            engine.execute_run(inst, "Monitor")
        view = engine.reflect_query("selfRepair")
        assert view["runCount"] == 7
        assert view["exitCounts"] == inst.history.exit_counts()
        recount = {}
        for run in inst.history.runs:
            for ex in run.op_executions:
                recount.setdefault(ex.op, {}).setdefault(ex.exit, 0)
                recount[ex.op][ex.exit] += 1
        assert view["exitCounts"] == recount

    def test_query_unknown_instance(self):
        engine = fresh("self-repair.ld")
        with pytest.raises(EngineError) as err:
            engine.reflect_query("nobody")
        assert err.value.code == "E-NO-INSTANCE"

    def test_query_exposes_slot_binding_identity(self):
        engine = fresh("layered-strategies.ld")
        view = engine.reflect_query("selfRepairStrategies")
        assert view["modelBindings"]["feedbackLoopModel"] == "@instance:selfRepair"
        repair_view = engine.reflect_query("selfRepair")
        assert repair_view["modelBindings"]["RepairStrategies"] == \
            "selfRepair.RepairStrategies"

    def test_replace_model_on_unknown_slot(self):
        engine = fresh("self-repair.ld")
        with pytest.raises(EngineError) as err:
            engine.reflect_edit("selfRepair", ("replaceModel", "NoSuch", {}))
        assert err.value.code == "E-EDIT-INVALID"

    def test_set_decision_condition_changes_routing(self):
        engine = fresh("layered-base.ld")
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")  # healthy baseline run
        engine.reflect_edit("selfRepair", (
            "setDecisionCondition", "NeedDeepAnalysis", 0,
            "runsSince(CheckForFailures -> no_failures) > 3"))
        engine.software["mrubis"].inject_failure("c7", "poison")
        deep_runs = []
        for i in range(6):
            result = engine.execute_run(inst, "Monitor")
            if any(e.name == "DeepCheck" for e in result.trace if e.kind == "opEnd"):
                deep_runs.append(inst.history.runs[-1].index)
        # runsSince first exceeds 3 on the fourth failing run (index 4)
        assert deep_runs[0] == 4

    def test_edit_during_interception_applies_immediately(self):
        engine = fresh("layered-strategies.ld")
        engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
        inst = engine.instances["selfRepair"]
        engine.execute_run(inst, "Monitor")
        engine.software["mrubis"].inject_failure("c3", "poison")
        for _ in range(5):
            engine.execute_run(inst, "Monitor")  # unsuccessful repairs
        result = engine.execute_run(inst, "Monitor")  # deep check + interception
        ops = [(e.name, e.detail) for e in result.trace if e.kind == "opEnd"]
        assert ("DeepCheck", "done") in ops
        # the resumed run already reads the synthesized strategies
        assert ("Repair", "planned") in ops
        assert engine.model_of("selfRepair", "RepairStrategies").body == \
            {"crash": "restart", "poison": "replace"}
        assert len(engine.model_edits) == 1

    @pytest.mark.parametrize("change", ["rebind", "setTrigger", "patch"])
    def test_structural_edit_rejected_mid_run(self, change):
        engine = fresh("self-repair-variants.ld")
        inst = engine.instances["selfRepair"]
        before = dsl.serialize_ld(engine.arch)
        patch = parse_patch((PATCH_DIR / "update-software.patch").read_text()).unwrap()
        attempts = {
            "rebind": lambda e: rebind_now(e, "selfRepair", "Analyze", "selfRepairA2"),
            "setTrigger": lambda e: set_trigger_now(e, "selfRepair", "mRUBiS",
                                                    "RtException; 1s; Monitor;"),
            "patch": lambda e: apply_patch_now(e, patch),
        }

        def meddling_update(ctx, models):
            attempts[change](ctx.engine)
            return "done"

        inst.bindings["Update"] = ("call", meddling_update)
        with pytest.raises(EngineError) as err:
            engine.execute_run(inst, "Monitor")
        assert err.value.code == "E-EDIT-INVALID"
        assert dsl.serialize_ld(engine.arch) == before
        assert engine.structural_mutations == []


class TestInstanceIsolation:
    def test_condition_edit_stays_in_its_instance(self):
        engine = fresh("layered-base.ld")
        definition = dsl.serialize_fld(engine.registry["Self-repair"])
        twin = engine.instantiate("Self-repair", "twin")
        edited = engine.instances["selfRepair"]
        assert twin.megamodel.operations[0] is edited.megamodel.operations[0]
        engine.reflect_edit("selfRepair", ("setDecisionCondition", "NeedDeepAnalysis", 0,
                                           "runsSince(CheckForFailures -> no_failures) > 3"))
        edited_text = dsl.serialize_fld(edited.megamodel)
        assert "no_failures) > 3" in edited_text
        assert dsl.serialize_fld(engine.registry["Self-repair"]) == definition
        assert dsl.serialize_fld(twin.megamodel) == definition

        # a condition naming an unknown operation fails the probe's validation
        with pytest.raises(EngineError) as err:
            engine.reflect_edit("selfRepair", ("setDecisionCondition", "NeedDeepAnalysis",
                                               0, "executions(GhostOp) > 1"))
        assert err.value.code == "E-EDIT-INVALID"
        assert dsl.serialize_fld(edited.megamodel) == edited_text
        assert dsl.serialize_fld(engine.registry["Self-repair"]) == definition
        assert dsl.serialize_fld(twin.megamodel) == definition


class TestSetTrigger:
    def test_set_trigger_replaces_spec(self):
        engine = fresh("layered-base.ld")
        set_trigger_now(engine, "selfRepair", "mRUBiS", "RtException; 0.2s; Monitor;")
        edge = engine.arch.sense_edges[0]
        assert edge.trigger.period == pytest.approx(0.2)
        assert len(engine.structural_mutations) == 1

    def test_set_trigger_replaces_the_edge(self):
        engine = fresh("layered-base.ld")
        old = engine.arch.sense_edges[0]
        old_trigger = old.trigger
        set_trigger_now(engine, "selfRepair", "mRUBiS", "RtException; 0.2s; Monitor;")
        assert engine.arch.sense_edges[0] is not old
        assert old.trigger is old_trigger  # a staging copy sharing `old` sees no change

    def test_set_trigger_validates_initial_state(self):
        engine = fresh("layered-base.ld")
        with pytest.raises(EngineError) as err:
            set_trigger_now(engine, "selfRepair", "mRUBiS", "RtException; 1s; Bogus;")
        assert err.value.code == "E-EDIT-INVALID"


class TestSnapshots:
    def test_export_import_export_is_byte_stable(self):
        engine = fresh("layered-strategies.ld")
        engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
        engine.execute_run(engine.instances["selfRepair"], "Monitor")
        first = export_snapshot(engine)
        clone = import_snapshot(first.to_json(), software=engine.software,
                                default_ops=engine.default_ops)
        second = export_snapshot(clone)
        strip = lambda text: [l for l in text.splitlines() if '"engineTime"' not in l]
        assert strip(first.to_json()) == strip(second.to_json())

    def test_truncated_snapshot(self):
        engine = fresh("self-repair.ld")
        text = export_snapshot(engine).to_json()
        with pytest.raises(EngineError) as err:
            import_snapshot(text[: len(text) // 2])
        assert err.value.code == "E-SNAP-PARSE"

    def test_replay_equivalence_after_import(self):
        script_text = (
            "event RtException\n"
            'seed selfRepair.RepairStrategies { "crash" = "restart" }\n'
            + "\n".join(f"at {t}s emit RtException from mRUBiS"
                        for t in (1, 12, 23, 34, 45))
        )
        prefix = parse_script(script_text).unwrap()
        engine = fresh("layered-strategies.ld")
        engine.run(duration=30, script=prefix)
        ran_before = len(engine.run_audit)
        assert ran_before >= 2

        snapshot = export_snapshot(engine)
        from megaloop import harness
        software, default_ops = harness.build_runtime_inputs()
        clone = import_snapshot(snapshot.to_json(), software=software,
                                default_ops=default_ops)
        from megaloop.model import check_architecture
        assert check_architecture(clone.arch, clone.registry, clone.event_types,
                                  clone.default_ops) == []
        assert clone.clock.now() == pytest.approx(engine.clock.now())

        suffix = parse_script("\n".join(
            f"at {t}s emit RtException from mRUBiS" for t in (31, 42, 53))).unwrap()
        traces = {"a": [], "b": []}
        engine.trace_sink = lambda i, e: traces["a"].append((i, e.kind, e.name, e.detail))
        clone.trace_sink = lambda i, e: traces["b"].append((i, e.kind, e.name, e.detail))
        engine.run(duration=30, script=suffix)
        clone.run(duration=30, script=suffix)
        assert traces["a"] == traces["b"]
        assert traces["a"]  # the suffix actually produced runs


class TestQuiescenceAudit:
    def test_clean_engine_audits_clean(self):
        engine = fresh("layered-base.ld")
        patch = parse_patch((PATCH_DIR / "add-strategies.patch").read_text()).unwrap()
        engine.execute_run(engine.instances["selfRepair"], "Monitor")
        apply_patch_now(engine, patch)
        engine.execute_run(engine.instances["selfRepair"], "Monitor")
        assert audit_quiescence(engine) == []

    def test_audit_flags_in_run_mutation(self):
        engine = fresh("layered-base.ld")
        # a mutation that consumed a sequence number while a run was open
        engine.run_audit.append({"instance": "forged", "index": 0, "start": 0.0,
                                 "end": 1.0, "start_seq": 100, "end_seq": 104,
                                 "final": "Done", "aborted": False, "depth": 0,
                                 "cause": None})
        engine.structural_mutations.append((102, 0.5, "forged", "inside a run"))
        assert audit_quiescence(engine)
