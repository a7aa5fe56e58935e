"""In-memory metamodel: feedback-loop megamodels and the layered architecture.

A megamodel is a named graph of model operations, runtime-model slots,
control states, flow edges, and decision nodes.  An architecture places
instantiated modules into layers and wires them with use, sense, and
effect edges.  `check_megamodel` / `check_architecture` enforce every
well-formedness rule; diagnostics carry an element path and a rule id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .conditions import ConditionExpr, atoms_of
from .diagnostics import Diagnostic, SourceSpan, error
from .triggers import InterceptPattern, TriggerSpec

USAGE_KINDS = ("create", "destroy", "write", "read", "annotate")
OP_STEREOTYPES = ("Monitor", "Analyze", "Plan", "Execute")
MODEL_STEREOTYPES = (
    "MonitoringModel", "ExecutionModel", "CausalConnectionModel",
    "ReflectionModel", "EvaluationModel", "ChangeModel", "AdaptationModel",
)


# --- megamodel elements -------------------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    """A flow endpoint: a state, a decision, or an operation compartment."""

    node: str
    compartment: str | None = None

    def __str__(self) -> str:
        return self.node if self.compartment is None else f"{self.node}.{self.compartment}"


@dataclass
class ModelUsage:
    kind: str
    slot: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Operation:
    name: str
    kind: str = "basic"  # "basic" | "complex"
    stereotype: str | None = None
    entries: tuple[str, ...] = ()
    exits: tuple[str, ...] = ()
    usages: list[ModelUsage] = field(default_factory=list)
    display: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class ControlState:
    name: str
    role: str  # "initial" | "final"
    destruction: bool = False
    display: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class ModelSlot:
    name: str
    stereotype: str | None = None
    megamodel_ref: bool = False
    display: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class FlowEdge:
    source: Endpoint
    target: Endpoint
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class DecisionBranch:
    condition: ConditionExpr | None  # None is the ELSE branch
    target: Endpoint
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class DecisionNode:
    name: str
    branches: list[DecisionBranch] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Megamodel:
    name: str
    slots: list[ModelSlot] = field(default_factory=list)
    states: list[ControlState] = field(default_factory=list)
    operations: list[Operation] = field(default_factory=list)
    decisions: list[DecisionNode] = field(default_factory=list)
    flows: list[FlowEdge] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False)

    def initial_states(self) -> list[ControlState]:
        return [s for s in self.states if s.role == "initial"]

    def final_states(self) -> list[ControlState]:
        return [s for s in self.states if s.role == "final"]

    def state(self, name: str) -> ControlState | None:
        return next((s for s in self.states if s.name == name), None)

    def operation(self, name: str) -> Operation | None:
        return next((o for o in self.operations if o.name == name), None)

    def decision(self, name: str) -> DecisionNode | None:
        return next((d for d in self.decisions if d.name == name), None)

    def slot(self, name: str) -> ModelSlot | None:
        return next((s for s in self.slots if s.name == name), None)

    def instance_copy(self) -> "Megamodel":
        """A copy for one module instance.

        Slots, states, operations and flows are shared: nothing changes them
        after parsing.  Decisions and their branches are copied, because a
        branch condition is the one element a reflective edit replaces.
        """
        decisions = [DecisionNode(d.name, [DecisionBranch(b.condition, b.target, b.span)
                                           for b in d.branches], d.span)
                     for d in self.decisions]
        return Megamodel(self.name, list(self.slots), list(self.states),
                         list(self.operations), decisions, list(self.flows), self.span)


@dataclass(frozen=True)
class Signature:
    """Entry/exit state sets of a megamodel; derived, never stored."""

    entry_states: frozenset[str]
    exit_states: frozenset[str]

    @property
    def single_entry(self) -> bool:
        return len(self.entry_states) == 1

    @property
    def single_exit(self) -> bool:
        return len(self.exit_states) == 1


def signature_of(megamodel: Megamodel) -> Signature:
    """Entry and exit state sets; assumes the megamodel passed its checks."""
    return Signature(
        frozenset(s.name for s in megamodel.initial_states()),
        frozenset(s.name for s in megamodel.final_states()),
    )


_MAPE_LETTER = {"Monitor": "M", "Analyze": "A", "Plan": "P", "Execute": "E"}
_MAPE_ORDER = "MAPE"


def mape_label(megamodel: Megamodel) -> str:
    """Adaptation-activity label, e.g. "MAPE", "M..PE", "M..E", "AP", "A".

    Present letters appear in canonical M,A,P,E order; a ".." marks each
    gap between non-adjacent present letters.
    """
    present = {_MAPE_LETTER[o.stereotype] for o in megamodel.operations if o.stereotype}
    letters = [c for c in _MAPE_ORDER if c in present]
    if not letters:
        return ""
    out = letters[0]
    for prev, cur in zip(letters, letters[1:]):
        adjacent = _MAPE_ORDER.index(cur) - _MAPE_ORDER.index(prev) == 1
        out += cur if adjacent else ".." + cur
    return out


# --- megamodel validation -----------------------------------------------------

def check_megamodel(megamodel: Megamodel) -> list[Diagnostic]:
    """Empty iff every structural invariant holds."""
    diags: list[Diagnostic] = []
    mm = megamodel
    prefix = mm.name

    def err(code: str, msg: str, path: str, span: SourceSpan | None = None) -> None:
        diags.append(error(code, msg, span=span, path=f"{prefix}/{path}"))

    if not mm.initial_states():
        err("E-STATE-INITIAL", "megamodel has no initial state", "states")
    if not mm.final_states():
        err("E-STATE-FINAL", "megamodel has no final state", "states")

    seen: dict[str, str] = {}
    for category, items in (("state", mm.states), ("operation", mm.operations),
                            ("model", mm.slots), ("decision", mm.decisions)):
        for item in items:
            if item.name in seen:
                err("E-NAME-DUP",
                    f"{category} {item.name!r} collides with {seen[item.name]}",
                    f"{category}s/{item.name}", item.span)
            else:
                seen[item.name] = f"{category} {item.name!r}"

    for state in mm.states:
        if state.destruction and state.role != "final":
            err("E-STATE-DESTR", f"destruction state {state.name!r} must be final",
                f"states/{state.name}", state.span)

    for slot in mm.slots:
        if slot.stereotype and slot.stereotype not in MODEL_STEREOTYPES:
            err("E-STEREO", f"unknown model stereotype {slot.stereotype!r}",
                f"models/{slot.name}", slot.span)
        if slot.megamodel_ref and slot.stereotype not in (None, "ReflectionModel"):
            err("E-SLOT-STEREO",
                f"megamodel-ref slot {slot.name!r} must be a ReflectionModel",
                f"models/{slot.name}", slot.span)

    slot_names = {s.name for s in mm.slots}
    for op in mm.operations:
        path = f"operations/{op.name}"
        if not op.exits:
            err("E-OP-EXITS", f"operation {op.name!r} has no exit compartments",
                path, op.span)
        if op.kind == "basic" and op.entries:
            err("E-OP-ENTRIES", f"basic operation {op.name!r} declares entries",
                path, op.span)
        if op.stereotype and op.stereotype not in OP_STEREOTYPES:
            err("E-STEREO", f"unknown operation stereotype {op.stereotype!r}",
                path, op.span)
        for usage in op.usages:
            if usage.kind not in USAGE_KINDS:
                err("E-USAGE-KIND", f"unknown usage kind {usage.kind!r}", path,
                    usage.span)
            if usage.slot not in slot_names:
                err("E-USAGE-SLOT",
                    f"operation {op.name!r} uses undeclared model {usage.slot!r}",
                    path, usage.span)

    _check_flow_graph(mm, err)
    _check_decisions(mm, err)
    return diags


def _check_flow_graph(mm: Megamodel, err) -> None:
    outgoing: dict[tuple[str, str | None], int] = {}
    for flow in mm.flows:
        src = flow.source
        path = f"flows/{src}->{flow.target}"
        state = mm.state(src.node)
        op = mm.operation(src.node)
        if state is not None and src.compartment is None:
            if state.role != "initial":
                err("E-FLOW-SRC", f"flow source {src} is not an initial state",
                    path, flow.span)
        elif op is not None:
            if src.compartment is None:
                err("E-FLOW-SRC", f"flow source {src.node!r} needs an exit compartment",
                    path, flow.span)
            elif src.compartment not in op.exits:
                err("E-FLOW-SRC",
                    f"operation {src.node!r} has no exit {src.compartment!r}",
                    path, flow.span)
        else:
            err("E-FLOW-SRC", f"flow source {src} is not a state or operation exit",
                path, flow.span)
        outgoing[(src.node, src.compartment)] = outgoing.get((src.node, src.compartment), 0) + 1
        _check_target(mm, flow.target, path, flow.span, err)

    for op in mm.operations:
        for exit_name in op.exits:
            count = outgoing.get((op.name, exit_name), 0)
            if count != 1:
                err("E-FLOW-EXIT",
                    f"exit {op.name}.{exit_name} has {count} outgoing flows, expected 1",
                    f"operations/{op.name}/{exit_name}", op.span)
    for state in mm.initial_states():
        count = outgoing.get((state.name, None), 0)
        if count != 1:
            err("E-FLOW-INIT",
                f"initial state {state.name!r} has {count} outgoing flows, expected 1",
                f"states/{state.name}", state.span)


def _check_target(mm: Megamodel, target: Endpoint, path: str,
                  span: SourceSpan | None, err) -> None:
    state = mm.state(target.node)
    op = mm.operation(target.node)
    decision = mm.decision(target.node)
    if state is not None and target.compartment is None:
        if state.role != "final":
            err("E-FLOW-TGT", f"target state {target.node!r} is not final", path, span)
    elif op is not None:
        if target.compartment is None:
            # plain target is fine for basic ops and complex ops without
            # declared entries (singleton-entry invocation)
            if op.entries and len(op.entries) > 1:
                err("E-FLOW-TGT",
                    f"operation {target.node!r} has several entries, one must be named",
                    path, span)
        elif target.compartment not in op.entries:
            err("E-FLOW-TGT",
                f"operation {target.node!r} has no entry {target.compartment!r}",
                path, span)
    elif decision is not None and target.compartment is None:
        pass
    else:
        err("E-FLOW-TGT", f"target {target} is not a state, operation, or decision",
            path, span)


def _check_decisions(mm: Megamodel, err) -> None:
    for dec in mm.decisions:
        path = f"decisions/{dec.name}"
        else_branches = [i for i, b in enumerate(dec.branches) if b.condition is None]
        if len(else_branches) != 1 or else_branches[0] != len(dec.branches) - 1:
            err("E-DECISION-ELSE",
                f"decision {dec.name!r} needs exactly one trailing else branch",
                path, dec.span)
        for branch in dec.branches:
            _check_target(mm, branch.target, path, branch.span, err)
            if branch.condition is None:
                continue
            for atom in atoms_of(branch.condition):
                if atom.op is None:
                    continue
                op = mm.operation(atom.op)
                if op is None:
                    err("E-DECISION-REF",
                        f"condition references unknown operation {atom.op!r}",
                        path, branch.span)
                elif atom.exit is not None and atom.exit not in op.exits:
                    err("E-DECISION-REF",
                        f"operation {atom.op!r} has no exit {atom.exit!r}",
                        path, branch.span)


# --- architecture elements -----------------------------------------------------

@dataclass
class ModuleDecl:
    instance_name: str
    kind: str  # "megamodel" | "software"
    source_ref: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class Layer:
    index: int
    name: str
    modules: list[ModuleDecl] = field(default_factory=list)


@dataclass
class UseEdge:
    source: str
    op: str
    target: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class SenseEdge:
    source: str        # the sensing module
    sensed: str
    trigger: TriggerSpec | None = None
    span: SourceSpan | None = field(default=None, compare=False)

    mode = "r"


@dataclass
class EffectEdge:
    source: str
    effected: str
    mode: str = "w"  # "w" | "a"
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class ModelBinding:
    module: str
    slot: str
    target: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class ArchitectureDecl:
    name: str
    layers: list[Layer] = field(default_factory=list)
    use_edges: list[UseEdge] = field(default_factory=list)
    sense_edges: list[SenseEdge] = field(default_factory=list)
    effect_edges: list[EffectEdge] = field(default_factory=list)
    model_bindings: list[ModelBinding] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False)

    def modules(self) -> Iterable[ModuleDecl]:
        for layer in self.layers:
            yield from layer.modules

    def find_module(self, name: str) -> ModuleDecl | None:
        return next((m for m in self.modules() if m.instance_name == name), None)

    def layer_of(self, name: str) -> int | None:
        for layer in self.layers:
            if any(m.instance_name == name for m in layer.modules):
                return layer.index
        return None

    def copy(self) -> "ArchitectureDecl":
        """A staging copy: new layer module lists and edge lists, shared elements.

        Modules and edges are never changed in place (a trigger change
        replaces its sense edge), so sharing them cannot leak a staged
        change into the original.
        """
        layers = [Layer(l.index, l.name, list(l.modules)) for l in self.layers]
        return ArchitectureDecl(self.name, layers, list(self.use_edges),
                                list(self.sense_edges), list(self.effect_edges),
                                list(self.model_bindings), self.span)

    def use_edge_for(self, module: str, op: str) -> UseEdge | None:
        return next((e for e in self.use_edges if e.source == module and e.op == op), None)

    def remove_module(self, name: str) -> None:
        """Drop a module with every edge and model binding that touches it."""
        for layer in self.layers:
            layer.modules = [m for m in layer.modules if m.instance_name != name]
        self.use_edges = [e for e in self.use_edges if name not in (e.source, e.target)]
        self.sense_edges = [e for e in self.sense_edges if name not in (e.source, e.sensed)]
        self.effect_edges = [e for e in self.effect_edges
                             if name not in (e.source, e.effected)]
        self.model_bindings = [b for b in self.model_bindings
                               if name not in (b.module, b.target)]


# --- architecture validation ----------------------------------------------------

def check_architecture(arch: ArchitectureDecl, registry: dict[str, Megamodel],
                       event_types: "EventTypeRegistry | None" = None,
                       default_ops: dict[str, object] | None = None) -> list[Diagnostic]:
    """Empty iff the architecture is consistent against the megamodel registry.

    Basic-operation binding completeness is only enforced when `default_ops`
    is given (the engine's software-operation registry); a bare validation
    run cannot know which implementations exist.
    """
    diags: list[Diagnostic] = []
    prefix = arch.name

    def err(code: str, msg: str, path: str, span: SourceSpan | None = None) -> None:
        diags.append(error(code, msg, span=span, path=f"{prefix}/{path}"))

    seen: dict[str, int] = {}
    layer_indices: set[int] = set()
    for layer in arch.layers:
        if layer.index in layer_indices:
            err("E-NAME-DUP", f"duplicate layer index {layer.index}", f"layers/{layer.index}")
        layer_indices.add(layer.index)
        for mod in layer.modules:
            if mod.instance_name in seen:
                err("E-NAME-DUP", f"duplicate module instance {mod.instance_name!r}",
                    f"modules/{mod.instance_name}", mod.span)
            seen[mod.instance_name] = layer.index
            if mod.kind == "megamodel":
                if layer.index == 0:
                    err("E-LAYER-ZERO",
                        f"megamodel module {mod.instance_name!r} in layer 0 "
                        "(reserved for the adaptable software)",
                        f"modules/{mod.instance_name}", mod.span)
                if mod.source_ref not in registry:
                    err("E-MM-UNKNOWN",
                        f"module {mod.instance_name!r} references unknown "
                        f"megamodel {mod.source_ref!r}",
                        f"modules/{mod.instance_name}", mod.span)

    def module_of(name: str) -> ModuleDecl | None:
        return arch.find_module(name)

    def megamodel_of(mod: ModuleDecl) -> Megamodel | None:
        return registry.get(mod.source_ref) if mod.kind == "megamodel" else None

    # use edges: resolve operations and signatures
    bound: dict[tuple[str, str], UseEdge] = {}
    for edge in arch.use_edges:
        path = f"use/{edge.source}.{edge.op}"
        src = module_of(edge.source)
        if src is None or src.kind != "megamodel" or megamodel_of(src) is None:
            err("E-USE-SRC", f"use edge from unknown megamodel module {edge.source!r}",
                path, edge.span)
            continue
        mm = megamodel_of(src)
        op = mm.operation(edge.op)
        if op is None:
            err("E-USE-SRC", f"module {edge.source!r} has no operation {edge.op!r}",
                path, edge.span)
            continue
        if (edge.source, edge.op) in bound:
            err("E-USE-DUP", f"operation {edge.source}.{edge.op} bound twice", path,
                edge.span)
            continue
        bound[(edge.source, edge.op)] = edge
        target = module_of(edge.target)
        if target is None:
            err("E-USE-TARGET", f"use edge to unknown module {edge.target!r}", path,
                edge.span)
            continue
        if op.kind == "complex":
            target_mm = megamodel_of(target)
            if target.kind != "megamodel" or target_mm is None:
                err("E-USE-TARGET",
                    f"complex operation {edge.op!r} must target a megamodel module",
                    path, edge.span)
                continue
            diags.extend(check_signature_binding(op, target_mm, path=f"{prefix}/{path}",
                                                 span=edge.span))
            callee_slots = {s.name for s in target_mm.slots}
            for usage in op.usages:
                if usage.slot not in callee_slots:
                    err("E-PARAM-SLOT",
                        f"parameter model {usage.slot!r} of {edge.op!r} has no "
                        f"same-named slot in {target_mm.name!r}",
                        path, edge.span)
        else:
            if target.kind != "software":
                err("E-USE-TARGET",
                    f"basic operation {edge.op!r} must target a software module",
                    path, edge.span)

    # binding completeness per instantiated megamodel module
    for mod in arch.modules():
        mm = megamodel_of(mod)
        if mm is None:
            continue
        for op in mm.operations:
            if (mod.instance_name, op.name) in bound:
                continue
            if op.kind == "complex":
                err("E-BIND-MISSING",
                    f"complex operation {mod.instance_name}.{op.name} has no use edge",
                    f"use/{mod.instance_name}.{op.name}", mod.span)
            elif default_ops is not None:
                if f"{mm.name}.{op.name}" not in default_ops and op.name not in default_ops:
                    err("E-BIND-MISSING",
                        f"basic operation {mod.instance_name}.{op.name} has no use "
                        "edge and no registered implementation",
                        f"use/{mod.instance_name}.{op.name}", mod.span)
        for slot in mm.slots:
            if slot.megamodel_ref:
                has_binding = any(b.module == mod.instance_name and b.slot == slot.name
                                  for b in arch.model_bindings)
                if not has_binding:
                    err("E-BIND-MISSING",
                        f"megamodel-ref slot {mod.instance_name}.{slot.name} is unbound",
                        f"bind-model/{mod.instance_name}.{slot.name}", mod.span)

    for binding in arch.model_bindings:
        path = f"bind-model/{binding.module}.{binding.slot}"
        mod = module_of(binding.module)
        mm = megamodel_of(mod) if mod else None
        if mm is None:
            err("E-BINDMODEL", f"bind-model on unknown megamodel module {binding.module!r}",
                path, binding.span)
            continue
        slot = mm.slot(binding.slot)
        if slot is None or not slot.megamodel_ref:
            err("E-BINDMODEL",
                f"slot {binding.slot!r} of {binding.module!r} is not a megamodel-ref slot",
                path, binding.span)
        target = module_of(binding.target)
        if target is None or target.kind != "megamodel":
            err("E-BINDMODEL",
                f"bind-model target {binding.target!r} is not a megamodel module",
                path, binding.span)

    # sense/effect layering and triggers
    for edge in arch.sense_edges:
        path = f"sense/{edge.source}<-{edge.sensed}"
        _check_direction(arch, edge.source, edge.sensed, path, edge.span, err)
        if edge.trigger is not None:
            _check_trigger(arch, registry, edge, event_types, path, err)
    for edge in arch.effect_edges:
        path = f"effect/{edge.source}->{edge.effected}"
        if edge.mode not in ("w", "a"):
            err("E-SYNTAX", f"effect mode must be w or a, got {edge.mode!r}", path,
                edge.span)
        _check_direction(arch, edge.source, edge.effected, path, edge.span, err)

    diags.extend(_check_use_cycles(arch, prefix))
    return diags


def check_signature_binding(op: Operation, callee: Megamodel, *, path: str,
                            span: SourceSpan | None = None) -> list[Diagnostic]:
    """Compartment/state compatibility of one complex-operation binding.

    Matching is by name-set equality; a singleton side may stay implicit
    (omitted entries, or a lone exit compartment with a different name).
    """
    diags: list[Diagnostic] = []
    sig = signature_of(callee)
    if op.entries:
        if set(op.entries) != set(sig.entry_states):
            diags.append(error(
                "E-SIG-MISMATCH",
                f"entries {sorted(op.entries)} of {op.name!r} do not match "
                f"initial states {sorted(sig.entry_states)} of {callee.name!r}",
                span=span, path=path))
    elif not sig.single_entry:
        diags.append(error(
            "E-SIG-MISMATCH",
            f"{op.name!r} omits entry compartments but {callee.name!r} has "
            f"{len(sig.entry_states)} initial states",
            span=span, path=path))
    if len(op.exits) == 1 and sig.single_exit:
        pass  # lone compartments map onto each other regardless of name
    elif set(op.exits) != set(sig.exit_states):
        diags.append(error(
            "E-SIG-MISMATCH",
            f"exits {sorted(op.exits)} of {op.name!r} do not match final "
            f"states {sorted(sig.exit_states)} of {callee.name!r}",
            span=span, path=path))
    return diags


def _check_direction(arch: ArchitectureDecl, source: str, target: str, path: str,
                     span: SourceSpan | None, err) -> None:
    src_layer = arch.layer_of(source)
    tgt_layer = arch.layer_of(target)
    if src_layer is None:
        err("E-NO-INSTANCE", f"edge from unknown module {source!r}", path, span)
        return
    if tgt_layer is None:
        err("E-NO-INSTANCE", f"edge to unknown module {target!r}", path, span)
        return
    if tgt_layer > src_layer:
        err("E-LAYER-DIR",
            f"{source!r} (layer {src_layer}) may not sense/effect {target!r} "
            f"(layer {tgt_layer}) above it",
            path, span)


def _check_trigger(arch: ArchitectureDecl, registry: dict[str, Megamodel],
                   edge: SenseEdge, event_types, path: str, err) -> None:
    spec = edge.trigger
    mod = arch.find_module(edge.source)
    mm = registry.get(mod.source_ref) if mod and mod.kind == "megamodel" else None
    if mm is not None:
        entries = {s.name for s in mm.initial_states()}
        if spec.initial_state not in entries:
            err("E-TRIG-STATE",
                f"trigger initial state {spec.initial_state!r} is not an entry "
                f"state of {mod.source_ref!r} (has {sorted(entries)})",
                path, edge.span)
    sensed = arch.find_module(edge.sensed)
    sensed_mm = registry.get(sensed.source_ref) if sensed and sensed.kind == "megamodel" else None
    for item in spec.events:
        if isinstance(item, InterceptPattern):
            if sensed_mm is not None and sensed_mm.operation(item.op) is None:
                err("E-TRIG-EVENT",
                    f"interception pattern names unknown operation {item.op!r} "
                    f"of {sensed.source_ref!r}",
                    path, edge.span)
        elif event_types is not None and not event_types.knows(item):
            err("E-TRIG-EVENT", f"undeclared event type {item!r}", path, edge.span)


def _check_use_cycles(arch: ArchitectureDecl, prefix: str) -> list[Diagnostic]:
    graph: dict[str, list[str]] = {}
    megamodules = {m.instance_name for m in arch.modules() if m.kind == "megamodel"}
    for edge in arch.use_edges:
        if edge.source in megamodules and edge.target in megamodules:
            graph.setdefault(edge.source, []).append(edge.target)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(node: str, trail: list[str]) -> list[str] | None:
        state[node] = 1
        for nxt in graph.get(node, ()):
            if state.get(nxt) == 1:
                return trail + [node, nxt]
            if state.get(nxt) is None:
                cycle = visit(nxt, trail + [node])
                if cycle:
                    return cycle
        state[node] = 2
        return None

    for node in megamodules:
        if state.get(node) is None:
            cycle = visit(node, [])
            if cycle:
                return [error("E-USE-CYCLE",
                              "cyclic invocation: " + " -> ".join(cycle),
                              path=f"{prefix}/use")]
    return []


# --- events ---------------------------------------------------------------------

@dataclass(frozen=True)
class EventType:
    name: str
    parent: str | None = None


@dataclass
class Event:
    type_name: str
    source: str
    timestamp: float
    payload: dict = field(default_factory=dict)


class EventTypeRegistry:
    """Acyclic hierarchy of declared event types."""

    def __init__(self) -> None:
        self.types: dict[str, EventType] = {}

    def declare(self, name: str, parent: str | None = None) -> EventType:
        if parent is not None and parent not in self.types:
            raise ValueError(f"unknown parent event type {parent!r}")
        ancestor = parent
        while ancestor is not None:
            if ancestor == name:
                raise ValueError(f"event type cycle through {name!r}")
            ancestor = self.types[ancestor].parent
        et = EventType(name, parent)
        self.types[name] = et
        return et

    def knows(self, name: str) -> bool:
        return name in self.types

    def is_subtype(self, name: str, ancestor: str) -> bool:
        cur: str | None = name
        while cur is not None:
            if cur == ancestor:
                return True
            et = self.types.get(cur)
            cur = et.parent if et else None
        return False
