"""Evolution of a running engine: patches, rebinding, snapshots, audits.

A patch is an ordered list of name-resolved steps applied all-or-nothing
against the live architecture.  Its steps run on a structural copy
(`ArchitectureDecl.copy`): new layer module lists and edge lists that share
the module and edge objects with the live architecture.  Sharing is safe
because no step changes a module or an edge in place; a trigger change
replaces its sense edge with a new one, here and in `set_trigger_now`.  The
copy becomes the live architecture only after it validates, so a failed
patch leaves the engine untouched.

Every structural change (patch, rebind, trigger change) lands at a
quiescent point: from other threads it is submitted to the engine inbox,
which the loop drains only between runs, and called from inside a run it
is refused with E-EDIT-INVALID.  The one structural change a run makes
itself is a destruction state, which removes its instance after the run's
end record.  A change is re-validated and leaves the engine untouched on
failure.

Snapshots are a single JSON container that embeds the .ld/.fld texts
verbatim next to model bodies and per-instance histories:

  engineTime     clock reading at export
  architecture   canonical .ld text of the live layer diagram
  megamodels     {name: .fld text} for every loaded definition
  instances      {name: {megamodel: live .fld text, modelBindings: {...}}}
  runtimeModels  {modelId: {name, kind, body}}
  histories      {name: run records}
  eventTypes     declared event-type hierarchy

Instances carry their own megamodel text because procedural reflection may
have diverged an instance from its loaded definition.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

from . import dsl
from .clock import MonotonicClock, VirtualClock
from .diagnostics import Diagnostic, has_errors
from .history import ExecutionHistory
from .model import (ArchitectureDecl, EffectEdge, EventTypeRegistry, Layer, ModelBinding,
                    ModuleDecl, SenseEdge, UseEdge, check_architecture, check_megamodel,
                    check_signature_binding)
from .runtime import Engine, EngineError, ModuleInstance, RuntimeModel
from .triggers import parse_trigger


@dataclass
class PatchStep:
    kind: str
    args: tuple

    def __str__(self) -> str:
        return f"{self.kind}{self.args!r}"


@dataclass
class Patch:
    name: str
    steps: list[PatchStep] = field(default_factory=list)


@dataclass
class PatchReport:
    patch: str
    steps_applied: int
    added_modules: list[str] = field(default_factory=list)
    removed_modules: list[str] = field(default_factory=list)


# --- patch file parsing -----------------------------------------------------------

def parse_patch(text: str, filename: str = "<patch>") -> dsl.ParseResult[Patch]:
    try:
        parser = dsl._Parser(text, filename)
        patch = _parse_patch(parser)
    except dsl.LexError as exc:
        return dsl.ParseResult(None, [exc.diagnostic])
    return dsl.ParseResult(patch)


def _parse_patch(p: dsl._Parser) -> Patch:
    p.expect("patch")
    patch = Patch(p.string("patch name").value)
    p.expect("{")
    while not p.at("}"):
        tok = p.peek()
        if tok.kind == "eof":
            raise p.fail("unexpected end of file inside patch block")
        if p.accept("load-megamodel"):
            mm = dsl.parse_megamodel_block(p)
            patch.steps.append(PatchStep("loadMegamodel", (mm,)))
        elif p.accept("unload-megamodel"):
            patch.steps.append(PatchStep("unloadMegamodel", (p.string("megamodel name").value,)))
        elif p.accept("add-layer"):
            index = p.number("layer index", int)
            patch.steps.append(PatchStep("addLayer", (index, p.string("layer name").value)))
        elif p.accept("remove-layer"):
            patch.steps.append(PatchStep("removeLayer", (p.number("layer index", int),)))
        elif p.accept("add-module"):
            layer = p.number("layer index", int)
            name = p.ident("instance name").value
            source = p.string("megamodel name").value
            patch.steps.append(PatchStep("addModule", (layer, name, source)))
        elif p.accept("remove-module"):
            patch.steps.append(PatchStep("removeModule", (p.ident("instance name").value,)))
        elif p.accept("add-sense"):
            src = p.ident("sensing module").value
            p.expect("<-")
            sensed = p.ident("sensed module").value
            trigger = None
            if p.accept("trigger"):
                trigger = p.string("trigger").value
            patch.steps.append(PatchStep("addSense", (src, sensed, trigger)))
        elif p.accept("add-effect"):
            src = p.ident("effecting module").value
            p.expect("->")
            effected = p.ident("effected module").value
            p.expect("[")
            mode = p.ident("mode").value
            p.expect("]")
            patch.steps.append(PatchStep("addEffect", (src, effected, mode)))
        elif p.accept("remove-edge"):
            patch.steps.append(_parse_edge_ref(p))
        elif p.accept("bind-use"):
            module = p.ident("module").value
            p.expect(".")
            op = p.ident("operation").value
            p.expect("->")
            patch.steps.append(PatchStep("bindUse", (module, op, p.ident("target").value)))
        elif p.accept("bind-model"):
            module = p.ident("module").value
            p.expect(".")
            slot = p.ident("slot").value
            p.expect("->")
            patch.steps.append(PatchStep("bindModel", (module, slot, p.ident("target").value)))
        elif p.accept("set-trigger"):
            src = p.ident("sensing module").value
            p.expect("<-")
            sensed = p.ident("sensed module").value
            patch.steps.append(PatchStep("setTrigger", (src, sensed, p.string("trigger").value)))
        elif p.accept("seed-model"):
            module = p.ident("module").value
            p.expect(".")
            slot = p.ident("slot").value
            patch.steps.append(PatchStep("seedModel", (module, slot, dsl.parse_literal(p))))
        else:
            raise p.fail(f"unexpected {tok.value!r} in patch block")
    p.expect("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after patch block")
    return patch


def _parse_edge_ref(p: dsl._Parser) -> PatchStep:
    kind = p.ident("edge kind").value
    if kind == "use":
        module = p.ident("module").value
        p.expect(".")
        op = p.ident("operation").value
        p.expect("->")
        return PatchStep("removeEdge", ("use", module, op, p.ident("target").value))
    if kind == "sense":
        src = p.ident("module").value
        p.expect("<-")
        return PatchStep("removeEdge", ("sense", src, p.ident("module").value))
    if kind == "effect":
        src = p.ident("module").value
        p.expect("->")
        return PatchStep("removeEdge", ("effect", src, p.ident("module").value))
    raise p.fail(f"unknown edge kind {kind!r} (use, sense, or effect)")


# --- patch application --------------------------------------------------------------

def apply_patch(engine: Engine, patch: Patch, timeout: float | None = 10.0) -> PatchReport:
    """Thread-safe entry point: queue the patch and wait for quiescent application."""
    return engine.submit(apply_patch_now, engine, patch).wait(timeout)


def apply_patch_now(engine: Engine, patch: Patch) -> PatchReport:
    """Apply on the engine loop at a quiescent point; all-or-nothing."""
    engine.require_quiescent("patch")
    if engine.arch is None:
        raise EngineError("E-PATCH-RESOLVE", "engine has no loaded architecture")
    arch = engine.arch.copy()
    registry = dict(engine.registry)
    added: list[str] = []
    removed: list[str] = []
    seeds: list[tuple[str, str, dict]] = []

    def resolve_fail(msg: str) -> EngineError:
        return EngineError("E-PATCH-RESOLVE", f"patch {patch.name!r}: {msg}")

    for step in patch.steps:
        kind, args = step.kind, step.args
        if kind == "loadMegamodel":
            mm = args[0]
            if isinstance(mm, str):
                result = dsl.parse_fld(mm)
                if not result.ok:
                    raise EngineError("E-PATCH-INVALID",
                                      f"patch {patch.name!r}: embedded megamodel is invalid",
                                      result.diagnostics)
                mm = result.value
            diags = check_megamodel(mm)
            if has_errors(diags):
                raise EngineError("E-PATCH-INVALID",
                                  f"patch {patch.name!r}: megamodel {mm.name!r} is invalid",
                                  diags)
            if mm.name in registry and registry[mm.name] != mm:
                raise resolve_fail(f"a different megamodel {mm.name!r} is already loaded")
            registry[mm.name] = mm
        elif kind == "unloadMegamodel":
            name = args[0]
            if name not in registry:
                raise resolve_fail(f"megamodel {name!r} is not loaded")
            if any(m.kind == "megamodel" and m.source_ref == name for m in arch.modules()):
                raise resolve_fail(f"megamodel {name!r} still has instances")
            del registry[name]
        elif kind == "addLayer":
            index, name = args
            if any(l.index == index for l in arch.layers):
                raise resolve_fail(f"layer {index} already exists")
            arch.layers.append(Layer(index, name))
        elif kind == "removeLayer":
            index = args[0]
            layer = next((l for l in arch.layers if l.index == index), None)
            if layer is None:
                raise resolve_fail(f"layer {index} does not exist")
            if layer.modules:
                raise resolve_fail(f"layer {index} is not empty")
            arch.layers.remove(layer)
        elif kind == "addModule":
            layer_idx, name, source = args
            layer = next((l for l in arch.layers if l.index == layer_idx), None)
            if layer is None:
                raise resolve_fail(f"layer {layer_idx} does not exist")
            if arch.find_module(name) is not None:
                raise resolve_fail(f"module {name!r} already exists")
            if source not in registry:
                raise resolve_fail(f"megamodel {source!r} is not loaded")
            layer.modules.append(ModuleDecl(name, "megamodel", source))
            added.append(name)
        elif kind == "removeModule":
            name = args[0]
            if arch.find_module(name) is None:
                raise resolve_fail(f"module {name!r} does not exist")
            arch.remove_module(name)
            removed.append(name)
        elif kind == "addSense":
            src, sensed, trigger_text = args
            _need_module(arch, src, resolve_fail)
            _need_module(arch, sensed, resolve_fail)
            trigger = None
            if trigger_text is not None:
                trigger = parse_trigger(trigger_text)
                if isinstance(trigger, Diagnostic):
                    raise resolve_fail(f"bad trigger: {trigger.message}")
            arch.sense_edges.append(SenseEdge(src, sensed, trigger))
        elif kind == "addEffect":
            src, effected, mode = args
            _need_module(arch, src, resolve_fail)
            _need_module(arch, effected, resolve_fail)
            arch.effect_edges.append(EffectEdge(src, effected, mode))
        elif kind == "removeEdge":
            _remove_edge(arch, args, resolve_fail)
        elif kind == "bindUse":
            module, op, target = args
            _need_module(arch, module, resolve_fail)
            _need_module(arch, target, resolve_fail)
            arch.use_edges = [e for e in arch.use_edges
                              if not (e.source == module and e.op == op)]
            arch.use_edges.append(UseEdge(module, op, target))
        elif kind == "bindModel":
            module, slot, target = args
            _need_module(arch, module, resolve_fail)
            _need_module(arch, target, resolve_fail)
            arch.model_bindings = [b for b in arch.model_bindings
                                   if not (b.module == module and b.slot == slot)]
            arch.model_bindings.append(ModelBinding(module, slot, target))
        elif kind == "setTrigger":
            src, sensed, trigger_text = args
            at = _sense_edge_at(arch, src, sensed)
            if at is None:
                raise resolve_fail(f"no sense edge {src} <- {sensed}")
            trigger = parse_trigger(trigger_text)
            if isinstance(trigger, Diagnostic):
                raise resolve_fail(f"bad trigger: {trigger.message}")
            arch.sense_edges[at] = replace(arch.sense_edges[at], trigger=trigger)
        elif kind == "seedModel":
            module, slot, body = args
            mod = arch.find_module(module)
            if mod is None or mod.kind != "megamodel":
                raise resolve_fail(f"no megamodel module {module!r}")
            mm = registry.get(mod.source_ref)
            if mm is None or mm.slot(slot) is None:
                raise resolve_fail(f"module {module!r} has no slot {slot!r}")
            seeds.append((module, slot, body))
        else:
            raise resolve_fail(f"unknown step kind {kind!r}")

    diags = check_architecture(arch, registry, engine.event_types, engine.default_ops)
    if has_errors(diags):
        raise EngineError("E-PATCH-INVALID",
                          f"patch {patch.name!r} produces an invalid architecture", diags)

    # commit
    engine.registry = registry
    engine.arch = arch
    for name in removed:
        inst = engine.instances.get(name)
        if inst is not None:
            engine._discard_instance(inst)
    for mod in arch.modules():
        if mod.kind == "megamodel" and mod.instance_name not in engine.instances:
            engine._create_instance(mod)
    engine._wire_instances(arch.modules())
    for module, slot, body in seeds:
        engine.seed_model(module, slot, body)
    engine._rebuild_routing()
    engine.log_mutation("patch", patch.name)
    return PatchReport(patch.name, len(patch.steps), added, removed)


def _need_module(arch: ArchitectureDecl, name: str, resolve_fail) -> ModuleDecl:
    mod = arch.find_module(name)
    if mod is None:
        raise resolve_fail(f"no module {name!r}")
    return mod


def _sense_edge_at(arch: ArchitectureDecl, src: str, sensed: str) -> int | None:
    return next((i for i, e in enumerate(arch.sense_edges)
                 if e.source == src and e.sensed == sensed), None)


def _remove_edge(arch: ArchitectureDecl, args: tuple, resolve_fail) -> None:
    kind = args[0]
    if kind == "use":
        _, module, op, target = args
        before = len(arch.use_edges)
        arch.use_edges = [e for e in arch.use_edges
                          if not (e.source == module and e.op == op and e.target == target)]
        if len(arch.use_edges) == before:
            raise resolve_fail(f"no use edge {module}.{op} -> {target}")
    elif kind == "sense":
        _, src, sensed = args
        before = len(arch.sense_edges)
        arch.sense_edges = [e for e in arch.sense_edges
                            if not (e.source == src and e.sensed == sensed)]
        if len(arch.sense_edges) == before:
            raise resolve_fail(f"no sense edge {src} <- {sensed}")
    else:
        _, src, effected = args
        before = len(arch.effect_edges)
        arch.effect_edges = [e for e in arch.effect_edges
                             if not (e.source == src and e.effected == effected)]
        if len(arch.effect_edges) == before:
            raise resolve_fail(f"no effect edge {src} -> {effected}")


# --- rebinding and triggers ------------------------------------------------------------

def rebind_use(engine: Engine, module: str, op_name: str, new_target: str,
               timeout: float | None = 10.0) -> None:
    engine.submit(rebind_now, engine, module, op_name, new_target).wait(timeout)


def rebind_now(engine: Engine, module: str, op_name: str, new_target: str) -> None:
    """Re-route one use edge; only the changed edge is re-validated."""
    engine.require_quiescent("rebind")
    inst = engine.instances.get(module)
    if inst is None:
        raise EngineError("E-NO-INSTANCE", f"unknown instance {module!r}")
    op = inst.megamodel.operation(op_name)
    if op is None:
        raise EngineError("E-NO-INSTANCE", f"{module!r} has no operation {op_name!r}")
    if op.kind == "complex":
        target = engine.instances.get(new_target)
        if target is None:
            raise EngineError("E-NO-INSTANCE", f"unknown instance {new_target!r}")
        diags = check_signature_binding(op, target.megamodel,
                                        path=f"rebind/{module}.{op_name}")
        if has_errors(diags):
            raise EngineError("E-SIG-MISMATCH",
                              f"{new_target!r} does not fit {module}.{op_name}", diags)
        inst.bindings[op_name] = ("instance", new_target)
    else:
        if engine.arch is None or engine.arch.find_module(new_target) is None:
            raise EngineError("E-NO-INSTANCE", f"unknown module {new_target!r}")
        inst.bindings[op_name] = ("call", engine._resolve_basic(inst, op_name, new_target))
    inst.invalidate()
    if engine.arch is not None:
        engine.arch.use_edges = [e for e in engine.arch.use_edges
                                 if not (e.source == module and e.op == op_name)]
        engine.arch.use_edges.append(UseEdge(module, op_name, new_target))
    engine.log_mutation("rebind", f"{module}.{op_name} -> {new_target}")


def set_trigger_now(engine: Engine, sensing: str, sensed: str, trigger_text: str) -> None:
    engine.require_quiescent("setTrigger")
    if engine.arch is None:
        raise EngineError("E-EDIT-INVALID", "engine has no loaded architecture")
    at = _sense_edge_at(engine.arch, sensing, sensed)
    if at is None:
        raise EngineError("E-EDIT-INVALID", f"no sense edge {sensing} <- {sensed}")
    trigger = parse_trigger(trigger_text)
    if isinstance(trigger, Diagnostic):
        raise EngineError("E-EDIT-INVALID", f"bad trigger: {trigger.message}")
    inst = engine.instances.get(sensing)
    if inst is not None:
        entries = {s.name for s in inst.megamodel.initial_states()}
        if trigger.initial_state not in entries:
            raise EngineError("E-EDIT-INVALID",
                              f"initial state {trigger.initial_state!r} is not an "
                              f"entry state of {sensing!r}")
    edges = engine.arch.sense_edges
    edges[at] = replace(edges[at], trigger=trigger)
    engine._rebuild_routing()
    engine.log_mutation("setTrigger", f"{sensing} <- {sensed}: {trigger.to_text()}")


# --- listing ----------------------------------------------------------------------

def describe_architecture(engine: Engine) -> str:
    """The `list` projection: exactly the canonical text of the live LD."""
    if engine.arch is None:
        return "architecture \"\" {\n}\n"
    return dsl.serialize_ld(engine.arch)


# --- snapshots ----------------------------------------------------------------------

@dataclass
class Snapshot:
    engine_time: float
    architecture: str | None
    megamodels: dict[str, str]
    instances: dict[str, dict]
    runtime_models: dict[str, dict]
    histories: dict[str, list]
    event_types: list[dict]

    def to_json(self) -> str:
        payload = {
            "engineTime": self.engine_time,
            "architecture": self.architecture,
            "megamodels": self.megamodels,
            "instances": self.instances,
            "runtimeModels": self.runtime_models,
            "histories": self.histories,
            "eventTypes": self.event_types,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        try:
            payload = json.loads(text)
            return cls(
                engine_time=payload["engineTime"],
                architecture=payload["architecture"],
                megamodels=payload["megamodels"],
                instances=payload["instances"],
                runtime_models=payload["runtimeModels"],
                histories=payload["histories"],
                event_types=payload["eventTypes"],
            )
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise EngineError("E-SNAP-PARSE", f"corrupt snapshot: {exc!r}") from exc


def export_snapshot(engine: Engine) -> Snapshot:
    """Serialize the whole engine state; call at quiescence (the loop does)."""
    instances = {}
    histories = {}
    for name, inst in sorted(engine.instances.items()):
        bindings = {}
        for slot, bound in sorted(inst.model_bindings.items()):
            bindings[slot] = bound if isinstance(bound, str) else f"@instance:{bound[1]}"
        instances[name] = {
            "megamodel": dsl.serialize_fld(inst.megamodel),
            "modelBindings": bindings,
        }
        histories[name] = inst.history.to_json()
    models = {mid: {"name": m.name, "kind": m.kind, "body": m.body}
              for mid, m in sorted(engine.store.items())}
    event_types = [{"name": et.name, "parent": et.parent}
                   for et in engine.event_types.types.values()]
    return Snapshot(
        engine_time=engine.clock.now(),
        architecture=dsl.serialize_ld(engine.arch) if engine.arch else None,
        megamodels={name: dsl.serialize_fld(mm)
                    for name, mm in sorted(engine.registry.items())},
        instances=instances,
        runtime_models=models,
        histories=histories,
        event_types=sorted(event_types, key=lambda e: e["name"]),
    )


def import_snapshot(snapshot: Snapshot | str, *, software=None, default_ops=None,
                    clock=None, trace_sink=None, period_anchor: str = "end") -> Engine:
    """Rebuild an engine from a snapshot; clocks re-anchor at engineTime."""
    if isinstance(snapshot, str):
        snapshot = Snapshot.from_json(snapshot)
    event_types = EventTypeRegistry()
    remaining = {e["name"]: e.get("parent") for e in snapshot.event_types}
    while remaining:
        ready = [n for n, p in remaining.items() if p is None or event_types.knows(p)]
        if not ready:
            raise EngineError("E-SNAP-PARSE", "event-type hierarchy does not resolve")
        for name in sorted(ready):
            event_types.declare(name, remaining.pop(name))

    if clock is None:
        clock = VirtualClock(snapshot.engine_time)
    elif isinstance(clock, MonotonicClock):
        clock = MonotonicClock(snapshot.engine_time)

    engine = Engine(clock=clock, software=software, default_ops=default_ops,
                    event_types=event_types, trace_sink=trace_sink,
                    period_anchor=period_anchor)
    for name, text in snapshot.megamodels.items():
        result = dsl.parse_fld(text, f"<snapshot:{name}>")
        if not result.ok:
            raise EngineError("E-SNAP-PARSE", f"embedded megamodel {name!r} is invalid",
                              result.diagnostics)
        engine.registry[name] = result.value
    if snapshot.architecture is None:
        raise EngineError("E-SNAP-PARSE", "snapshot has no architecture")
    arch_result = dsl.parse_ld(snapshot.architecture, "<snapshot:architecture>")
    if not arch_result.ok:
        raise EngineError("E-SNAP-PARSE", "embedded architecture is invalid",
                          arch_result.diagnostics)
    arch = arch_result.value
    diags = check_architecture(arch, engine.registry, event_types, engine.default_ops)
    if has_errors(diags):
        raise EngineError("E-SNAP-PARSE", "snapshot architecture fails validation", diags)
    engine.arch = arch

    if not isinstance(snapshot.histories, dict):
        raise EngineError("E-SNAP-PARSE", "snapshot histories are not a mapping")
    histories = {}
    for name, runs in snapshot.histories.items():
        try:
            histories[name] = ExecutionHistory.from_json(runs)
        except ValueError as exc:
            raise EngineError("E-SNAP-PARSE", f"history of {name!r}: {exc}") from exc

    for mid, payload in snapshot.runtime_models.items():
        engine.store[mid] = RuntimeModel(mid, payload["name"], payload.get("kind"),
                                         copy.deepcopy(payload["body"]))
    for mod in arch.modules():
        if mod.kind != "megamodel":
            continue
        entry = snapshot.instances.get(mod.instance_name)
        if entry is None:
            raise EngineError("E-SNAP-PARSE",
                              f"snapshot misses instance {mod.instance_name!r}")
        live = dsl.parse_fld(entry["megamodel"], f"<snapshot:{mod.instance_name}>")
        if not live.ok:
            raise EngineError("E-SNAP-PARSE",
                              f"live megamodel of {mod.instance_name!r} is invalid",
                              live.diagnostics)
        # the routes bind the imported history's index cells
        inst = ModuleInstance(mod.instance_name, live.value, histories.get(mod.instance_name))
        for slot, bound in entry["modelBindings"].items():
            if isinstance(bound, str) and bound.startswith("@instance:"):
                inst.model_bindings[slot] = ("instance", bound[len("@instance:"):])
            else:
                inst.model_bindings[slot] = bound
        engine.instances[mod.instance_name] = inst
    engine._wire_instances(arch.modules())
    engine._rebuild_routing()
    engine._seq = max((max(run.start_seq, run.end_seq)
                       for history in histories.values() for run in history.runs), default=0)
    return engine


# --- audits -----------------------------------------------------------------------

def audit_quiescence(engine: Engine) -> list[str]:
    """Structural mutations whose sequence number falls inside any run."""
    violations = []
    for seq, _, kind, detail in engine.structural_mutations:
        for run in engine.run_audit:
            if run["start_seq"] < seq < run["end_seq"]:
                violations.append(
                    f"mutation {kind} ({detail}) at seq {seq} inside run "
                    f"{run['instance']}#{run['index']}")
    return violations
