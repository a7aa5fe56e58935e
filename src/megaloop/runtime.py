"""The engine: instances, model store, interpreter, and run scheduling.

The engine core is single-threaded: every run, decision, and model
mutation happens on one logical execution loop.  Other threads (control
channel, demo drivers) communicate only by submitting callables onto the
thread-safe inbox; the loop calls each one between runs, so everything a
command does happens at a quiescent point by construction.  Structural
changes check `require_quiescent` themselves, so the same functions called
from inside a run are refused.

Top-level runs never overlap.  Nested frames do exist within one call
chain: a complex operation synchronously runs the invoked instance, and
interception synchronously runs a higher-layer instance at a Before/After
point of the current run.
"""

from __future__ import annotations

import copy
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable

from .clock import MonotonicClock
from .conditions import compile_condition, number_text, parse_condition
from .diagnostics import Diagnostic, has_errors
from .history import ExecutionHistory, RunRecord
from .model import (ArchitectureDecl, Event, EventTypeRegistry, Megamodel,
                    ModuleDecl, Operation, check_architecture, check_megamodel,
                    signature_of)
from .triggers import PendingActivation, TriggerSpec, match_event

_EPS = 1e-9  # clock granularity guard for period gates
_STEP_PENDING = object()  # a step command replies once the loop reaches its target


class EngineError(RuntimeError):
    def __init__(self, code: str, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.diagnostics = diagnostics or []


@dataclass(slots=True)
class RuntimeModel:
    """An opaque named document in the engine's model store."""

    id: str
    name: str
    kind: str | None = None
    body: dict = field(default_factory=dict)


@dataclass(slots=True)
class TraceEntry:
    kind: str  # opStart | opEnd | decision | enterState
    name: str
    detail: str | None
    time: float


@dataclass(slots=True)
class RunResult:
    instance: str
    final_state: str
    destructed: bool
    trace: list[TraceEntry]  # an empty tuple when nothing collects or sinks traces
    start: float
    end: float
    index: int


@dataclass(slots=True)
class OperationContext:
    """Handed to software-operation implementations next to their models."""

    engine: "Engine"
    instance: str
    op: str
    now: float
    sensed: tuple[str, ...] = ()
    effected: tuple[str, ...] = ()


class ReflectionHandle:
    """Live view of another instance, bound into a megamodel-ref slot."""

    def __init__(self, engine: "Engine", target: str):
        self.engine = engine
        self.target = target

    def query(self) -> dict:
        return self.engine.reflect_query(self.target)

    def replace_model(self, slot: str, body: dict) -> None:
        self.engine.reflect_edit(self.target, ("replaceModel", slot, body))

    def set_decision_condition(self, decision: str, branch: int, expr: str) -> None:
        self.engine.reflect_edit(self.target, ("setDecisionCondition", decision, branch, expr))

    def __repr__(self) -> str:
        return f"ReflectionHandle({self.target!r})"


def route_complex(final_state: str, op: Operation) -> str:
    """Map the invoked instance's final state onto an exit compartment."""
    if len(op.exits) == 1:
        return op.exits[0]
    return final_state


def _bind_branch(branch, history: ExecutionHistory):
    if branch.condition is None:
        return None
    # the binder form, so a profiler wrapping `compile_condition(expr)` still fits
    return compile_condition(branch.condition)(history)


class _DispatchPlan:
    """Per-operation dispatch cache, rebuilt when the instance is rewired.

    Operations without create/destroy usages resolve their model references
    once; create/destroy usages force the slow path every dispatch.
    """

    __slots__ = ("version", "static", "models", "ctx")

    def __init__(self, version: int, static: bool, models: dict | None,
                 ctx: "OperationContext | None"):
        self.version = version
        self.static = static
        self.models = models
        self.ctx = ctx


class ModuleInstance:
    """A live megamodel module: its megamodel, bindings, history and routes.

    The megamodel is an instance copy (`Megamodel.instance_copy`): it shares
    the immutable slots, states, operations and flows with the registry's
    definition and owns its decisions, so a reflective condition edit on one
    instance is seen by no other.

    Routes are built once, against the instance's own history, so a run
    resolves no name on its way.  An operation node carries one map
    `exit -> (next node, exit cell, any-exit cell)`, and a decision node its
    branches, each with its condition bound to the history's index cells.
    A condition edit rebinds its branch in place (`rebind_condition`), so a
    run in flight takes it at its next decision.  An instance built over an
    existing history (a snapshot import) must get it here, as routes hold
    its cells.
    """

    def __init__(self, name: str, megamodel: Megamodel,
                 history: ExecutionHistory | None = None):
        self.name = name
        self.megamodel = megamodel
        self.bindings: dict[str, tuple] = {}       # op -> ("call", fn) | ("instance", name)
        self.model_bindings: dict[str, object] = {}  # slot -> model id | ("instance", name)
        self.history = ExecutionHistory() if history is None else history
        self.status = "idle"
        self.sensed: tuple[str, ...] = ()    # cached from the architecture's edges
        self.effected: tuple[str, ...] = ()
        self.wiring_version = 0              # bumped whenever bindings/models move
        self._plans: dict[str, _DispatchPlan] = {}
        self._starts: dict[str, tuple] = {}         # initial state -> first node
        self._branches: dict[str, list] = {}        # decision -> [(branch, test, target)]
        self.rebuild_routes()

    def invalidate(self) -> None:
        self.wiring_version += 1

    def rebuild_routes(self) -> None:
        """Nodes: ("op", op, entry, exits), ("state", state), ("decision", dec, branches)."""
        mm, history = self.megamodel, self.history
        exits = {op.name: {} for op in mm.operations}
        self._branches = {dec.name: [] for dec in mm.decisions}
        initial = {s.name for s in mm.initial_states()}
        self._starts = {}
        for flow in mm.flows:
            src, target = flow.source, self._resolve_target(flow.target, exits)
            if src.compartment is None:
                if src.node in initial:
                    self._starts[src.node] = target
            elif src.node in exits:
                exits[src.node][src.compartment] = (
                    target, history.cell(src.node, src.compartment), history.cell(src.node))
        for dec in mm.decisions:
            self._branches[dec.name][:] = [
                (branch, _bind_branch(branch, history), self._resolve_target(branch.target, exits))
                for branch in dec.branches]

    def rebind_condition(self, decision: str, index: int) -> None:
        """Bind branch `index` of `decision` again after its condition changed."""
        branches = self._branches[decision]
        branch, _, target = branches[index]
        branches[index] = (branch, _bind_branch(branch, self.history), target)

    def _resolve_target(self, target, exits: dict) -> tuple:
        mm = self.megamodel
        state = mm.state(target.node)
        if state is not None:
            return ("state", state)
        op = mm.operation(target.node)
        if op is not None:
            entry = target.compartment
            if entry is None and len(op.entries) == 1:
                entry = op.entries[0]
            return ("op", op, entry, exits[op.name])
        decision = mm.decision(target.node)
        return ("decision", decision, self._branches[decision.name])


class Engine:
    def __init__(self, *, clock=None, software: dict[str, object] | None = None,
                 default_ops: dict[str, Callable] | None = None,
                 event_types: EventTypeRegistry | None = None,
                 trace_sink: Callable[[str, TraceEntry], None] | None = None,
                 period_anchor: str = "end", collect_traces: bool = True):
        if period_anchor not in ("end", "start"):
            raise ValueError(f"period_anchor must be 'end' or 'start', not {period_anchor!r}")
        self.clock = clock or MonotonicClock()
        self.software = dict(software or {})
        self.default_ops = dict(default_ops or {})
        self.event_types = event_types or EventTypeRegistry()
        self.trace_sink = trace_sink
        self.period_anchor = period_anchor
        self.collect_traces = collect_traces  # benchmarks may skip trace records

        self.registry: dict[str, Megamodel] = {}
        self.arch: ArchitectureDecl | None = None
        self.instances: dict[str, ModuleInstance] = {}
        self.store: dict[str, RuntimeModel] = {}

        self.inbox: "queue.Queue" = queue.Queue()
        self.pending: list[PendingActivation] = []
        self.event_log: list[Event] = []
        self.structural_mutations: list[tuple[int, float, str, str]] = []
        self.model_edits: list[tuple[int, float, str, str]] = []
        self.run_audit: list[RunRecord] = []  # every closed run, nested ones included
        self.errors: list[EngineError] = []

        self._seq = 0
        self._run_depth = 0
        self._deferred: list[Callable[[], None]] = []
        self._intercept_watchers: dict[tuple[str, str, str], list] = {}
        self._event_edges: list = []
        self._periodic_edges: list = []
        self._stop = False
        self._step_target: float | None = None
        self._step_waiters: list = []

        # hook for the adaptable system(s) to emit events through the engine
        for system in self.software.values():
            attach = getattr(system, "attach_engine", None)
            if attach:
                attach(self)

    # --- loading -----------------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def load_architecture(self, arch: ArchitectureDecl) -> None:
        """Validate and instantiate an architecture into an empty engine."""
        diags = check_architecture(arch, self.registry, self.event_types, self.default_ops)
        if has_errors(diags):
            raise EngineError("E-PATCH-INVALID",
                              f"architecture {arch.name!r} failed validation", diags)
        self.arch = arch
        for mod in arch.modules():
            if mod.kind == "megamodel":
                self._create_instance(mod)
        self._wire_instances(arch.modules())
        self._rebuild_routing()

    def _create_instance(self, mod: ModuleDecl) -> ModuleInstance:
        if mod.instance_name in self.instances:
            raise EngineError("E-NAME-DUP", f"instance {mod.instance_name!r} already exists")
        inst = ModuleInstance(mod.instance_name, self.registry[mod.source_ref].instance_copy())
        self.instances[mod.instance_name] = inst
        for slot in inst.megamodel.slots:
            if not slot.megamodel_ref:
                self._allocate_model(inst, slot.name)
        return inst

    def _wire_instances(self, mods) -> None:
        """Second pass: resolve operation and reflection-slot bindings."""
        for mod in mods:
            if mod.kind != "megamodel":
                continue
            inst = self.instances[mod.instance_name]
            for op in inst.megamodel.operations:
                edge = self.arch.use_edge_for(mod.instance_name, op.name) if self.arch else None
                if op.kind == "complex":
                    if edge is None:
                        raise EngineError("E-BIND-MISSING",
                                          f"{mod.instance_name}.{op.name} has no use edge")
                    inst.bindings[op.name] = ("instance", edge.target)
                else:
                    inst.bindings[op.name] = ("call", self._resolve_basic(
                        inst, op.name, edge.target if edge else None))
            for binding in (self.arch.model_bindings if self.arch else []):
                if binding.module == mod.instance_name:
                    inst.model_bindings[binding.slot] = ("instance", binding.target)
            inst.invalidate()

    def _resolve_basic(self, inst: ModuleInstance, op_name: str,
                      target: str | None = None) -> Callable:
        """The implementation of a basic operation.

        With a use-edge `target` it is the software module's operation of
        that name; without, the default op registered for the megamodel's
        operation or for the bare operation name.
        """
        if target is not None:
            target_mod = self.arch.find_module(target) if self.arch else None
            impl_holder = self.software.get(target_mod.source_ref) if target_mod else None
            fn = (getattr(impl_holder, "operations", None) or {}).get(op_name)
            if fn is None:
                raise EngineError("E-BIND-MISSING",
                                  f"software module {target!r} provides no "
                                  f"operation {op_name!r}")
            return fn
        fn = (self.default_ops.get(f"{inst.megamodel.name}.{op_name}")
              or self.default_ops.get(op_name))
        if fn is None:
            raise EngineError("E-BIND-MISSING",
                              f"no implementation registered for {inst.name}.{op_name}")
        return fn

    def instantiate(self, megamodel: Megamodel | str, instance_name: str,
                    bindings: dict[str, object] | None = None, *,
                    model_refs: dict[str, str] | None = None) -> ModuleInstance:
        """Register a standalone instance (no architecture wiring).

        Binding values are callables for basic operations and instance
        names for complex ones; `model_refs` binds megamodel-ref slots to
        instance names.
        """
        mm = self.registry[megamodel] if isinstance(megamodel, str) else megamodel
        diags = check_megamodel(mm)
        if has_errors(diags):
            raise EngineError("E-PATCH-INVALID", f"megamodel {mm.name!r} is invalid", diags)
        if instance_name in self.instances:
            raise EngineError("E-NAME-DUP", f"instance {instance_name!r} already exists")
        inst = ModuleInstance(instance_name, mm.instance_copy())
        bindings = bindings or {}
        for op in inst.megamodel.operations:
            bound = bindings.get(op.name)
            if isinstance(bound, str):
                inst.bindings[op.name] = ("instance", bound)
            else:
                inst.bindings[op.name] = ("call", bound if callable(bound)
                                          else self._resolve_basic(inst, op.name))
        self.instances[instance_name] = inst
        for slot in inst.megamodel.slots:
            if not slot.megamodel_ref:
                self._allocate_model(inst, slot.name)
        for slot_name, target in (model_refs or {}).items():
            inst.model_bindings[slot_name] = ("instance", target)
        return inst

    # --- model store ---------------------------------------------------------------

    def _allocate_model(self, inst: ModuleInstance, slot_name: str) -> RuntimeModel:
        slot = inst.megamodel.slot(slot_name)
        model = RuntimeModel(f"{inst.name}.{slot_name}", slot_name,
                             slot.stereotype if slot else None)
        self.store[model.id] = model
        inst.model_bindings[slot_name] = model.id
        inst.invalidate()
        return model

    def _drop_model(self, inst: ModuleInstance, slot_name: str) -> None:
        bound = inst.model_bindings.pop(slot_name, None)
        if isinstance(bound, str):
            self.store.pop(bound, None)
        inst.invalidate()

    def seed_model(self, instance: str, slot: str, body: dict) -> None:
        inst = self.instances.get(instance)
        if inst is None:
            raise EngineError("E-NO-INSTANCE", f"unknown instance {instance!r}")
        bound = inst.model_bindings.get(slot)
        if not isinstance(bound, str) or bound not in self.store:
            raise EngineError("E-EDIT-INVALID", f"{instance}.{slot} holds no runtime model")
        self.store[bound].body = copy.deepcopy(body)

    def model_of(self, instance: str, slot: str) -> RuntimeModel:
        inst = self.instances[instance]
        bound = inst.model_bindings.get(slot)
        if not isinstance(bound, str) or bound not in self.store:
            raise EngineError("E-MODEL-MISSING", f"{instance}.{slot} holds no runtime model")
        return self.store[bound]

    # --- events and interception -----------------------------------------------------

    def emit(self, type_name: str, source: str, payload: dict | None = None) -> Event:
        """Emit a typed event; matching triggers enqueue (never preempt) runs."""
        if not self.event_types.knows(type_name):
            raise EngineError("E-TRIG-EVENT", f"undeclared event type {type_name!r}")
        event = Event(type_name, source, self.clock.now(), payload or {})
        self.event_log.append(event)
        self.on_event(event)
        return event

    def on_event(self, event: Event) -> None:
        for edge in self._event_edges:
            if match_event(edge.trigger, event, edge, self.event_types):
                self._enqueue_activation(edge, event)

    def _enqueue_activation(self, edge, event: Event | None) -> None:
        spec: TriggerSpec = edge.trigger
        key = (edge.source, spec.initial_state)
        if any((a.target, a.initial_state) == key for a in self.pending):
            return  # coalesce: one queued run replays any backlog of matches
        cause = f"event:{event.type_name}" if event else "periodic"
        self.pending.append(PendingActivation(edge.source, spec.initial_state,
                                              self.clock.now(), cause, spec.period))

    def _emit_intercept(self, phase: str, inst: ModuleInstance, op_name: str) -> bool:
        """Run the watchers of a Before/After point synchronously, inside the run.

        Returns whether any watcher ran.
        """
        watchers = self._intercept_watchers.get((inst.name, phase, op_name))
        if not watchers:
            return False
        cause = f"intercept:{phase.capitalize()}[{op_name}]"
        ran = False
        for spec, target_name in watchers:
            target = self.instances.get(target_name)
            if target is None or target.status != "idle":
                continue
            now = self.clock.now()
            if self._gate_opens(target, spec.period, now) > now + _EPS:
                continue  # gated interceptions are skipped, not deferred
            self.execute_run(target, spec.initial_state, cause=cause)
            ran = True
        return ran

    def _rebuild_routing(self) -> None:
        self._intercept_watchers = {}
        self._event_edges = []
        self._periodic_edges = []
        if self.arch is None:
            return
        for inst in self.instances.values():
            inst.sensed = tuple(e.sensed for e in self.arch.sense_edges
                                if e.source == inst.name)
            inst.effected = tuple(e.effected for e in self.arch.effect_edges
                                  if e.source == inst.name)
            inst.invalidate()  # cached dispatch contexts carry these tuples
        ordered = sorted(
            (e for e in self.arch.sense_edges if e.trigger is not None),
            key=lambda e: (self.arch.layer_of(e.source) or 0, e.source))
        for edge in ordered:
            spec = edge.trigger
            for pattern in spec.intercept_patterns():
                key = (edge.sensed, pattern.phase, pattern.op)
                self._intercept_watchers.setdefault(key, []).append((spec, edge.source))
            if spec.event_names():
                self._event_edges.append(edge)
            if spec.pure_period:
                self._periodic_edges.append(edge)

    # --- gates and scheduling ------------------------------------------------------

    def _gate_opens(self, inst: ModuleInstance, period: float | None, now: float) -> float:
        """When the period gate opens: now without a period or a completed run."""
        if not period:
            return now
        last = (inst.history.last_completed_end if self.period_anchor == "end"
                else inst.history.last_completed_start)
        return now if last is None else last + period

    def _layer(self, name: str) -> int:
        if self.arch is None:
            return 0
        layer = self.arch.layer_of(name)
        return 0 if layer is None else layer

    def _activations(self, now: float) -> list[tuple]:
        """(gate opens, enqueue time, target, activation or edge) of every idle target."""
        found = []
        for act in self.pending:
            inst = self.instances.get(act.target)
            if inst is not None and inst.status == "idle":
                found.append((self._gate_opens(inst, act.period, now), act.enqueue_time,
                              act.target, act))
        for edge in self._periodic_edges:
            inst = self.instances.get(edge.source)
            if inst is not None and inst.status == "idle":
                opens = self._gate_opens(inst, edge.trigger.period, now)
                found.append((opens, opens, edge.source, edge))
        return found

    def next_action(self, now: float) -> PendingActivation | None:
        """Oldest ready activation; ties go to the lower layer, then the name."""
        best = None
        for opens, at, target, item in self._activations(now):
            if opens <= now + _EPS:
                key = (at, self._layer(target), target)
                if best is None or key < best[0]:
                    best = (key, item)
        if best is None:
            return None
        (at, _, target), item = best
        if isinstance(item, PendingActivation):
            self.pending.remove(item)
            return item
        spec = item.trigger
        return PendingActivation(target, spec.initial_state, at, "periodic", spec.period)

    def _next_wake(self, now: float) -> float | None:
        wake = None
        for opens, _, _, _ in self._activations(now):
            if wake is None or opens < wake:
                wake = opens
        return wake

    # --- interpreter ------------------------------------------------------------------

    def execute_run(self, inst: ModuleInstance, initial_state: str,
                    cause: str | None = None) -> RunResult:
        """Execute one run: walk the flow graph from an initial state to a final.

        The walk follows the instance's prebuilt routes: one lookup of the
        returned exit in the operation node's map gives the next node and
        the two index cells the execution is counted in, and a decision
        calls its branches' bound conditions.  The run's record is its
        `run_audit` entry; trace entries are built only when something
        collects or sinks them.

        The clock is read once at the run start and once as each operation
        returns.  An operation starts at the previous read (the run start or
        the previous operation's end), and decisions and the final state use
        the last read.  Interception runs other instances in between, so after
        a Before/After point that ran a watcher the clock is read again.

        Any exception aborts the run: the record is closed as aborted, the
        instance returns to idle, and the exception propagates unchanged.
        Exceptions raised by a basic operation's implementation propagate as
        E-OP-IMPL.
        """
        if inst.status == "running":
            raise EngineError("E-REENTRY", f"instance {inst.name!r} is already running")
        node = inst._starts.get(initial_state)
        if node is None:
            raise EngineError("E-NO-INSTANCE",
                              f"{initial_state!r} is not an initial state of {inst.name!r}")
        now_fn = self.clock.now
        history = inst.history
        sink = self.trace_sink
        tracing = self.collect_traces or sink is not None
        name = inst.name
        trace: list[TraceEntry] = [] if tracing else ()
        now = now_fn()
        self._seq += 1
        run = history.begin_run(now, initial_state, self._seq, cause)
        index, op_log = run.index, run.op_log
        inst.status = "running"
        self._run_depth += 1
        try:
            if tracing:
                trace.append(TraceEntry("enterState", initial_state, None, now))
                if sink:
                    sink(name, trace[0])
            while True:
                kind = node[0]
                if kind == "op":
                    _, op, entry, exits = node
                    op_name = op.name
                    if self._intercept_watchers and self._emit_intercept("before", inst, op_name):
                        now = now_fn()
                    if tracing:
                        trace.append(TraceEntry("opStart", op_name, None, now))
                        if sink:
                            sink(name, trace[-1])
                    binding = inst.bindings.get(op_name)
                    if binding is None:
                        raise EngineError("E-BIND-MISSING", f"{name}.{op_name} is unbound")
                    if binding[0] == "instance":
                        exit_name = self._dispatch_complex(inst, op, entry, binding[1])
                    else:
                        plan = inst._plans.get(op_name)
                        try:
                            if plan is None or plan.version != inst.wiring_version:
                                plan = self._build_plan(inst, op)
                            if plan.static:
                                ctx = plan.ctx
                                ctx.now = now
                                exit_name = binding[1](ctx, plan.models)
                            else:
                                exit_name = self._dispatch_dynamic(inst, op, binding[1], now)
                        except EngineError:
                            raise
                        except Exception as exc:  # implementation failure aborts the run
                            raise EngineError(
                                "E-OP-IMPL",
                                f"{name}.{op_name} raised {exc!r} "
                                f"(trace: {_trace_text(trace)})") from exc
                    try:
                        node, cell, any_cell = exits[exit_name]
                    except (KeyError, TypeError):  # not a declared exit, or not even hashable
                        raise EngineError(
                            "E-EXIT-UNKNOWN",
                            f"{name}.{op_name} returned undeclared exit "
                            f"{exit_name!r} (trace: {_trace_text(trace)})") from None
                    started, now = now, now_fn()
                    op_log += (op_name, exit_name, started, now)
                    cell.count += 1
                    cell.last_run = index
                    cell.last_end = now
                    any_cell.count += 1
                    any_cell.last_run = index
                    any_cell.last_end = now
                    if tracing:
                        trace.append(TraceEntry("opEnd", op_name, exit_name, now))
                        if sink:
                            sink(name, trace[-1])
                    if self._intercept_watchers and self._emit_intercept("after", inst, op_name):
                        now = now_fn()
                elif kind == "state":
                    final = node[1]
                    if tracing:
                        trace.append(TraceEntry("enterState", final.name, None, now))
                        if sink:
                            sink(name, trace[-1])
                    break
                else:
                    _, decision, branches = node
                    for idx, (branch, test, target) in enumerate(branches):
                        if test is None or test(now):
                            node = target
                            break
                    if tracing:
                        label = "else" if branch.condition is None else f"when#{idx}"
                        trace.append(TraceEntry("decision", decision.name, label, now))
                        if sink:
                            sink(name, trace[-1])
        except BaseException:
            history.abort_run(now_fn(), self.next_seq())
            inst.status = "idle"
            self._after_run(run, inst)
            raise
        self._seq += 1
        history.end_run(now, final.name, self._seq, destructed=final.destruction)
        inst.status = "idle"
        self._after_run(run, inst)
        if final.destruction:
            self._destroy_instance(inst)
        return RunResult(name, final.name, final.destruction, trace, run.start, now, index)

    def _after_run(self, run: RunRecord, inst: ModuleInstance) -> None:
        self._run_depth -= 1
        run.instance = inst.name
        run.depth = self._run_depth
        self.run_audit.append(run)

    def _dispatch_complex(self, inst: ModuleInstance, op: Operation,
                          entry: str | None, target_name: str) -> str:
        target = self.instances.get(target_name)
        if target is None:
            raise EngineError("E-NO-INSTANCE",
                              f"{inst.name}.{op.name} is bound to missing instance "
                              f"{target_name!r}")
        if entry is None:
            sig = signature_of(target.megamodel)
            entry = next(iter(sig.entry_states))
        # parameter models: alias same-named slots of the invoked instance
        for usage in op.usages:
            bound = inst.model_bindings.get(usage.slot)
            if bound is None:
                raise EngineError("E-MODEL-MISSING",
                                  f"{inst.name}.{usage.slot} is unbound")
            target.model_bindings[usage.slot] = bound
        target.invalidate()
        sub = self.execute_run(target, entry)
        return route_complex(sub.final_state, op)

    def _build_plan(self, inst: ModuleInstance, op: Operation) -> "_DispatchPlan":
        static = all(u.kind not in ("create", "destroy") for u in op.usages)
        models = None
        ctx = None
        if static:
            models = {u.slot: self._resolve_model(inst, op, u.slot) for u in op.usages}
            ctx = OperationContext(self, inst.name, op.name, 0.0,
                                   inst.sensed, inst.effected)
        plan = _DispatchPlan(inst.wiring_version, static, models, ctx)
        inst._plans[op.name] = plan
        return plan

    def _resolve_model(self, inst: ModuleInstance, op: Operation, slot: str):
        bound = inst.model_bindings.get(slot)
        if bound is None:
            raise EngineError("E-MODEL-MISSING",
                              f"{inst.name}.{op.name} needs model {slot!r}, "
                              "which is unbound")
        if isinstance(bound, str):
            model = self.store.get(bound)
            if model is None:
                raise EngineError("E-MODEL-MISSING",
                                  f"{inst.name}.{slot} points at a dropped model")
            return model
        return ReflectionHandle(self, bound[1])

    def _dispatch_dynamic(self, inst: ModuleInstance, op: Operation, fn: Callable,
                          now: float) -> str:
        """Slow path for operations that create or destroy models."""
        models: dict[str, object] = {}
        for usage in op.usages:
            if usage.kind == "create":
                self._allocate_model(inst, usage.slot)
            models[usage.slot] = self._resolve_model(inst, op, usage.slot)
        ctx = OperationContext(self, inst.name, op.name, now, inst.sensed, inst.effected)
        exit_name = fn(ctx, models)
        for usage in op.usages:
            if usage.kind == "destroy":
                self._drop_model(inst, usage.slot)
        return exit_name

    # --- destruction and structural bookkeeping ------------------------------------------

    def _destroy_instance(self, inst: ModuleInstance) -> None:
        self._discard_instance(inst)
        if self.arch is not None:
            self.arch.remove_module(inst.name)
            self._rebuild_routing()
        self.log_mutation("destroyInstance", inst.name)

    def _discard_instance(self, inst: ModuleInstance) -> None:
        """Forget an instance with its queued activations and the models it owns."""
        self.instances.pop(inst.name, None)
        self.pending = [a for a in self.pending if a.target != inst.name]
        own = inst.name + "."
        for bound in inst.model_bindings.values():
            if isinstance(bound, str) and bound.startswith(own):
                self.store.pop(bound, None)

    def require_quiescent(self, what: str) -> None:
        """Refuse a structural change while any run is active."""
        if self._run_depth > 0:
            raise EngineError("E-EDIT-INVALID",
                              f"structural change {what!r} is not allowed mid-run; "
                              "submit it through the engine inbox")

    def log_mutation(self, kind: str, detail: str) -> None:
        self.structural_mutations.append((self.next_seq(), self.clock.now(), kind, detail))

    def log_model_edit(self, kind: str, detail: str) -> None:
        self.model_edits.append((self.next_seq(), self.clock.now(), kind, detail))

    # --- reflection surface ----------------------------------------------------------

    def reflect_query(self, instance: str) -> dict:
        inst = self.instances.get(instance)
        if inst is None:
            raise EngineError("E-NO-INSTANCE", f"unknown instance {instance!r}")
        models = {}
        bindings = {}
        for slot, bound in inst.model_bindings.items():
            if isinstance(bound, str):
                model = self.store.get(bound)
                bindings[slot] = bound
                if model is not None:
                    models[slot] = copy.deepcopy(model.body)
            else:
                bindings[slot] = f"@instance:{bound[1]}"
        hist = inst.history
        return {
            "instance": inst.name,
            "megamodel": inst.megamodel.name,
            "status": inst.status,
            "runCount": hist.run_count(),
            "lastFinalState": hist.runs[-1].final_state if hist.runs else None,
            "exitCounts": hist.exit_counts(),
            "modelBindings": bindings,
            "models": models,
        }

    def reflect_edit(self, instance: str, edit: tuple) -> None:
        """Apply a reflective edit immediately, even mid-run.

        Model bodies and decision conditions are what a synchronously
        intercepting higher layer may change inside a run; structural
        changes go through `reflection` and `require_quiescent`.
        """
        inst = self.instances.get(instance)
        if inst is None:
            raise EngineError("E-NO-INSTANCE", f"unknown instance {instance!r}")
        kind = edit[0]
        if kind == "replaceModel":
            _, slot, body = edit
            self.seed_model(instance, slot, body)
            self.log_model_edit("replaceModel", f"{instance}.{slot}")
            return
        if kind == "setDecisionCondition":
            _, decision_name, branch_idx, expr_text = edit
            decision = inst.megamodel.decision(decision_name)
            if decision is None or not (0 <= branch_idx < len(decision.branches) - 1):
                raise EngineError("E-EDIT-INVALID",
                                  f"no such decision branch {decision_name}[{branch_idx}]")
            expr = parse_condition(expr_text)
            if isinstance(expr, Diagnostic):
                raise EngineError("E-EDIT-INVALID", f"bad condition: {expr}")
            probe = inst.megamodel.instance_copy()
            probe.decision(decision_name).branches[branch_idx].condition = expr
            diags = check_megamodel(probe)
            if has_errors(diags):
                raise EngineError("E-EDIT-INVALID", "condition fails validation", diags)
            decision.branches[branch_idx].condition = expr
            inst.rebind_condition(decision_name, branch_idx)
            self.log_model_edit("setDecisionCondition",
                                f"{instance}.{decision_name}[{branch_idx}]")
            return
        raise EngineError("E-EDIT-INVALID", f"unknown edit kind {kind!r}")

    # --- commands and the engine loop ---------------------------------------------------

    def submit(self, fn: Callable, *args) -> "CommandHandle":
        """Thread-safe: queue `fn(*args)` for the engine loop and return its reply slot."""
        handle = CommandHandle(fn, args)
        self.inbox.put(handle)
        return handle

    def _drain_inbox(self, block_for: float | None = None) -> bool:
        """Handle queued commands; block_for waits for the first one (inf = forever)."""
        handled = False
        while True:
            try:
                if block_for is not None and not handled:
                    timeout = None if block_for == math.inf else block_for
                    cmd = self.inbox.get(timeout=timeout)
                else:
                    cmd = self.inbox.get_nowait()
            except queue.Empty:
                return handled
            handled = True
            self._handle_command(cmd)
            if self._stop:
                return handled

    def _handle_command(self, cmd: "CommandHandle") -> None:
        try:
            result = cmd.fn(*cmd.args)
        except EngineError as err:
            cmd.reject(err)
        except Exception as err:  # command bugs must not kill the loop
            cmd.reject(EngineError("E-CTL", f"command failed: {err!r}"))
        else:
            if result is _STEP_PENDING:
                self._step_waiters.append((self._step_target, cmd))
            else:
                cmd.resolve(result)

    def step(self, seconds: float):
        """Command: let a paced engine advance `seconds` further; replies on arrival."""
        now = self.clock.now()
        base = self._step_target if (self._step_target is not None and
                                     self._step_target > now) else now
        self._step_target = base + seconds
        return _STEP_PENDING

    def stop(self) -> str:
        """Command: end the engine loop."""
        self._stop = True
        return "stopping"

    def inject_failure(self, component: str, kind: str):
        for system in self.software.values():
            inject = getattr(system, "inject_failure", None)
            if inject:
                return inject(component, kind)
        raise EngineError("E-NO-COMPONENT", "no adaptable system is attached")

    def run(self, *, duration: float | None = None, script=None, paced: bool = False) -> None:
        """Drive the engine loop.

        With a virtual clock the loop jumps between interesting instants;
        with the monotonic clock it sleeps, waking early for inbox traffic.
        `paced` starts the loop frozen: time only advances under `step`
        commands (how a control client drives a virtual-clock engine).
        """
        start = self.clock.now()
        end_time = None if duration is None else start + duration
        commands = sorted(script.commands, key=lambda c: c.time) if script else []
        if script:
            for instance, slot, body in script.seeds:
                self.seed_model(instance, slot, body)
        ci = 0
        self._stop = False
        self._step_target = self.clock.now() if paced else None

        while not self._stop:
            self._drain_inbox()
            if self._stop:
                break
            now = self.clock.now()
            progressed = False
            while ci < len(commands) and commands[ci].time <= now + _EPS:
                self._run_script_command(commands[ci])
                ci += 1
                progressed = True
            act = self.next_action(now)
            if act is not None:
                inst = self.instances[act.target]
                try:
                    self.execute_run(inst, act.initial_state, cause=act.cause)
                except EngineError as err:
                    self.errors.append(err)
                continue
            if progressed:
                continue

            horizon = math.inf
            if end_time is not None:
                horizon = min(horizon, end_time)
            if self._step_target is not None:
                horizon = min(horizon, self._step_target)
            upcoming = []
            if ci < len(commands):
                upcoming.append(commands[ci].time)
            wake = self._next_wake(now)
            if wake is not None and wake > now:
                upcoming.append(wake)
            target = min(upcoming) if upcoming else None

            if target is not None and target <= horizon:
                self._advance_to(target)
                continue
            if now < horizon < math.inf:
                self._advance_to(horizon)
                continue
            # nothing left to do before the horizon
            self._resolve_steps(now)
            if end_time is not None and now + _EPS >= end_time:
                break
            if self._step_target is not None:
                # paced: stay frozen until the next control command
                self._drain_inbox(block_for=math.inf if self.clock.virtual else 0.05)
            elif self.clock.virtual:
                break  # an unpaced virtual loop cannot make further progress
            else:
                self._drain_inbox(block_for=0.05)
        self._resolve_steps(self.clock.now())

    def _advance_to(self, t: float) -> None:
        if self.clock.virtual:
            if t > self.clock.now():
                self.clock.advance_to(t)
            return
        delay = t - self.clock.now()
        if delay > 0:
            self._drain_inbox(block_for=delay)

    def _resolve_steps(self, now: float) -> None:
        remaining = []
        for target, cmd in self._step_waiters:
            if now + _EPS >= target:
                cmd.resolve(f"stepped to {number_text(target)}s")
            else:
                remaining.append((target, cmd))
        self._step_waiters = remaining

    def _run_script_command(self, command) -> None:
        try:
            if command.kind == "inject":
                self.inject_failure(*command.args)
            elif command.kind == "load":
                for system in self.software.values():
                    setter = getattr(system, "set_load", None)
                    if setter:
                        setter(command.args[0])
            elif command.kind == "emit":
                type_name, source = command.args
                if source is None:
                    source = self._default_event_source()
                self.emit(type_name, source)
        except EngineError as err:
            self.errors.append(err)

    def _default_event_source(self) -> str:
        if self.arch is not None:
            for mod in self.arch.modules():
                if mod.kind == "software":
                    return mod.instance_name
        return "system"


def _trace_text(trace: list[TraceEntry]) -> str:
    return " ".join(f"{e.kind}:{e.name}" + (f"({e.detail})" if e.detail else "")
                    for e in trace)


class CommandHandle:
    """Reply slot for a callable submitted to the engine inbox."""

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args
        self._done = threading.Event()
        self.result = None
        self.error: EngineError | None = None

    def resolve(self, result) -> None:
        self.result = result
        self._done.set()

    def reject(self, error: EngineError) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout: float | None = None):
        if not self._done.wait(timeout):
            raise TimeoutError(f"command {self.fn.__name__!r} timed out")
        if self.error is not None:
            raise self.error
        return self.result
