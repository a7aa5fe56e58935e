"""Metamodel invariants: signatures, labels, structural checks, events."""

from __future__ import annotations

import copy

import pytest

from megaloop.model import (ControlState, Endpoint, EventTypeRegistry, FlowEdge,
                            Megamodel, ModuleDecl, Operation,
                            check_architecture, check_megamodel, mape_label,
                            signature_of)
from megaloop import dsl

from conftest import LD_DIR


def codes(diags):
    return {d.code for d in diags}


class TestSignatures:
    def test_self_repair_a(self, registry):
        sig = signature_of(registry["Self-repair-A"])
        assert sig.entry_states == {"Start"}
        assert sig.exit_states == {"OK", "Failures"}
        assert sig.single_entry and not sig.single_exit

    def test_self_optimization_two_initials(self, registry):
        sig = signature_of(registry["Self-optimization"])
        assert sig.entry_states == {"Monitor", "Analyze"}
        assert sig.exit_states == {"Analyzed", "Executed"}

    def test_singleton_flags(self):
        mm = Megamodel("Tiny", states=[ControlState("Start", "initial"),
                                       ControlState("Done", "final")])
        sig = signature_of(mm)
        assert sig.single_entry and sig.single_exit

    def test_pure(self, registry):
        mm = registry["Self-repair"]
        assert signature_of(mm) == signature_of(mm)


class TestMapeLabels:
    @pytest.mark.parametrize("name,label", [
        ("Self-repair-modular", "M..PE"),
        ("Self-repair-A", "A"),
        ("Self-repair", "MAPE"),
        ("Self-optimization", "MAPE"),
        ("Self-management-1", ""),
        ("Self-management-2", "M..E"),
        ("Self-repair-AP", "AP"),
        ("Self-repair-strategies", "AP"),
    ])
    def test_labels(self, registry, name, label):
        assert mape_label(registry[name]) == label


class TestCheckMegamodel:
    def test_fixture_corpus_is_clean(self, registry):
        for mm in registry.values():
            assert check_megamodel(mm) == []

    def test_operation_without_exits(self, registry):
        mm = copy.deepcopy(registry["Self-repair"])
        mm.operations[0].exits = ()
        assert "E-OP-EXITS" in codes(check_megamodel(mm))

    def test_destruction_state_must_be_final(self):
        mm = Megamodel("Bad", states=[
            ControlState("Start", "initial", destruction=True),
            ControlState("Done", "final"),
        ], operations=[Operation("Op", exits=("done",))],
            flows=[FlowEdge(Endpoint("Start"), Endpoint("Op")),
                   FlowEdge(Endpoint("Op", "done"), Endpoint("Done"))])
        assert "E-STATE-DESTR" in codes(check_megamodel(mm))

    def test_diagnostics_carry_paths(self, registry):
        mm = copy.deepcopy(registry["Self-repair"])
        mm.operations[0].exits = ()
        diag = next(d for d in check_megamodel(mm) if d.code == "E-OP-EXITS")
        assert diag.path.startswith("Self-repair/")


class TestCheckArchitecture:
    def load(self, name):
        text = (LD_DIR / name).read_text()
        return dsl.parse_ld(text, name).unwrap()

    def test_corpus_clean(self, registry):
        for ld in sorted(LD_DIR.glob("*.ld")):
            arch = dsl.parse_ld(ld.read_text(), str(ld)).unwrap()
            assert check_architecture(arch, registry) == [], ld.name

    def test_signature_mismatch(self, registry):
        arch = self.load("self-repair.ld")
        fewer = copy.deepcopy(registry)
        ok_only = fewer["Self-repair-A"]
        # shrink the analysis module to a single OK exit
        ok_only.states = [s for s in ok_only.states if s.name != "Failures"]
        ok_only.decisions = []
        ok_only.operations = [op for op in ok_only.operations if op.name != "DeepCheck"]
        ok_only.flows = [FlowEdge(Endpoint("Start"), Endpoint("CheckForFailures")),
                         FlowEdge(Endpoint("CheckForFailures", "no_failures"), Endpoint("OK")),
                         FlowEdge(Endpoint("CheckForFailures", "failures"), Endpoint("OK"))]
        assert check_megamodel(ok_only) == []
        assert "E-SIG-MISMATCH" in codes(check_architecture(arch, fewer))

    def test_trigger_unknown_initial_state(self, registry):
        arch = self.load("self-repair.ld")
        edge = arch.sense_edges[0]
        edge.trigger = type(edge.trigger)(edge.trigger.events, 10.0, "Bogus")
        assert "E-TRIG-STATE" in codes(check_architecture(arch, registry))

    def test_upward_effect_forbidden(self, registry):
        arch = self.load("layered-strategies.ld")
        from megaloop.model import EffectEdge
        arch.effect_edges.append(EffectEdge("selfRepair", "selfRepairStrategies", "w"))
        assert "E-LAYER-DIR" in codes(check_architecture(arch, registry))

    def test_use_cycle_rejected(self, registry):
        arch = self.load("self-repair.ld")
        from megaloop.model import UseEdge
        cyc = copy.deepcopy(registry)
        loop_a = dsl.parse_fld(
            'megamodel "Loop-A" { initial S final F complex Call { exits { F } } '
            'flow S -> Call flow Call.F -> F }').unwrap()
        cyc["Loop-A"] = loop_a
        arch.layers[1].modules.append(ModuleDecl("a1", "megamodel", "Loop-A"))
        arch.layers[1].modules.append(ModuleDecl("a2", "megamodel", "Loop-A"))
        arch.use_edges.append(UseEdge("a1", "Call", "a2"))
        arch.use_edges.append(UseEdge("a2", "Call", "a1"))
        assert "E-USE-CYCLE" in codes(check_architecture(arch, cyc))

    def test_basic_binding_checked_only_with_registry(self, registry):
        arch = self.load("self-repair.ld")
        # bare validation cannot know implementations; engine-level default_ops can
        assert check_architecture(arch, registry) == []
        missing = codes(check_architecture(arch, registry, default_ops={}))
        assert "E-BIND-MISSING" in missing


class TestStructuralCopies:
    def test_architecture_copy_owns_its_lists_and_shares_elements(self):
        arch = dsl.parse_ld((LD_DIR / "layered-strategies.ld").read_text()).unwrap()
        text = dsl.serialize_ld(arch)
        staged = arch.copy()
        assert staged == arch
        assert not any(a is b for a, b in zip(staged.layers, arch.layers))
        pairs = [(staged.use_edges, arch.use_edges), (staged.sense_edges, arch.sense_edges),
                 (staged.effect_edges, arch.effect_edges),
                 (staged.model_bindings, arch.model_bindings)]
        pairs += [(a.modules, b.modules) for a, b in zip(staged.layers, arch.layers)]
        for mine, theirs in pairs:
            assert mine is not theirs
            assert all(x is y for x, y in zip(mine, theirs))
        staged.layers[1].modules.append(ModuleDecl("extra", "megamodel", "Self-repair"))
        staged.remove_module("selfRepairStrategies")
        staged.sense_edges.clear()
        assert dsl.serialize_ld(arch) == text

    def test_instance_copy_owns_decisions_only(self, registry):
        mm = registry["Self-repair"]
        text = dsl.serialize_fld(mm)
        inst = mm.instance_copy()
        assert inst == mm
        assert inst.operations[0] is mm.operations[0] and inst.flows[0] is mm.flows[0]
        assert inst.decisions[0] is not mm.decisions[0]
        assert inst.decisions[0].branches[0] is not mm.decisions[0].branches[0]
        inst.decisions[0].branches[0].condition = None
        assert dsl.serialize_fld(mm) == text


class TestEventTypes:
    def test_hierarchy_walk(self):
        reg = EventTypeRegistry()
        reg.declare("RtException")
        reg.declare("OutOfMemoryRtException", "RtException")
        reg.declare("HeapExhausted", "OutOfMemoryRtException")
        # oracle: walk the 3-node chain by hand
        assert reg.is_subtype("HeapExhausted", "RtException")
        assert reg.is_subtype("OutOfMemoryRtException", "RtException")
        assert reg.is_subtype("RtException", "RtException")
        assert not reg.is_subtype("RtException", "HeapExhausted")

    def test_cycle_rejected(self):
        reg = EventTypeRegistry()
        reg.declare("A")
        reg.declare("B", "A")
        with pytest.raises(ValueError):
            reg.declare("A", "B")

    def test_unknown_parent_rejected(self):
        reg = EventTypeRegistry()
        with pytest.raises(ValueError):
            reg.declare("X", "Nope")
