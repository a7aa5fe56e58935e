"""Layer probes for the traced run, and the per-layer metrics built from them.

Each probe wraps a public function or method of one megaloop module (the
layers: loader, dsl, model, conditions, history, triggers, runtime,
reflection, harness, control).  Functions imported by name into other
modules are wrapped under every name, so calls from inside the package are
seen too.  Installing the probes edits no source file and `Tracer.uninstall`
restores every original.
"""

from __future__ import annotations

from megaloop import control, dsl, harness, loader, model, reflection, runtime
from megaloop.history import ExecutionHistory
from megaloop.runtime import Engine

# spans reported as <name>.calls and <name>.ms
TIMED = (
    "loader.build_engine", "dsl.parse", "dsl.serialize", "model.check",
    "conditions.eval", "history.record_op", "history.exit_counts", "history.to_json",
    "history.from_json", "runtime.next_action", "reflection.reflect_query",
    "reflection.reflect_edit", "reflection.apply_patch", "reflection.rebind",
    "reflection.export_snapshot", "reflection.snapshot_to_json", "reflection.import_snapshot",
)
# the harness operations some workload dispatches to
HARNESS_OPS = ("Update", "CheckForFailures", "DeepCheck", "Repair", "Effect",
               "CheckSuccess", "Synthesize", "CreateModel", "Reconfigure",
               "Update-software.Effect")
CONTROL_VERBS = ("step", "patch", "rebind", "inject", "list", "snapshot")

# values a workload reports itself, with their units
GAUGES = (
    ("history.records_retained", "count"),
    ("runtime.event_log.len", "count"),
    ("runtime.run_audit.len", "count"),
    ("runtime.errors", "count"),
    ("runtime.aborted_runs", "count"),
    ("reflection.snapshot_bytes", "B"),
    ("reflection.quiescence_violations", "count"),
    ("control.inbox_wait_ms", "ms"),
    ("control.transport_us", "us"),
)

MATCH_CALLS = "triggers.match_event.calls"
MATCH_HITS = "triggers.match_event.hits"
COALESCED = "triggers.activations_coalesced"


def install(tracer) -> None:
    t = tracer
    t.patch_function(loader.build_engine, "loader.build_engine")
    for fn in (dsl.parse_fld, dsl.parse_ld, reflection.parse_patch):
        t.patch_function(fn, "dsl.parse", collapse=True)
    for fn in (dsl.serialize_fld, dsl.serialize_ld):
        t.patch_function(fn, "dsl.serialize", collapse=True)
    for fn in (model.check_megamodel, model.check_architecture,
               model.check_signature_binding):
        t.patch_function(fn, "model.check", collapse=True)

    # branch conditions are compiled into closures when routes are built;
    # the probe wraps each compiled closure
    compile_condition = runtime.compile_condition
    t.patch(runtime, "compile_condition",
            lambda expr: t.wrap("conditions.eval", compile_condition(expr)))

    for attr in ("record_op", "exit_counts", "to_json"):
        t.patch_method(ExecutionHistory, attr, f"history.{attr}")
    from_json = vars(ExecutionHistory)["from_json"].__func__
    t.patch(ExecutionHistory, "from_json",
            classmethod(t.wrap("history.from_json", from_json)))

    match_event = runtime.match_event

    def match_counted(spec, event, edge, event_types):
        hit = match_event(spec, event, edge, event_types)
        t.count(MATCH_CALLS)
        if hit:
            t.count(MATCH_HITS)
        return hit

    t.patch(runtime, "match_event", match_counted)

    emit = Engine.emit

    def emit_counted(engine, *args, **kwargs):
        # a match that adds no pending activation was coalesced into a queued one
        hits, pending = t.counter(MATCH_HITS), len(engine.pending)
        try:
            return t.call("runtime.emit", emit, (engine,) + args, kwargs)
        finally:
            t.count(COALESCED, (t.counter(MATCH_HITS) - hits)
                    - (len(engine.pending) - pending))

    t.patch(Engine, "emit", emit_counted)
    for attr in ("execute_run", "next_action", "inject_failure"):
        t.patch_method(Engine, attr, f"runtime.{attr}")

    t.patch_method(Engine, "reflect_query", "reflection.reflect_query")
    t.patch_method(Engine, "reflect_edit", "reflection.reflect_edit")
    t.patch_function(reflection.apply_patch_now, "reflection.apply_patch")
    t.patch_function(reflection.rebind_now, "reflection.rebind")
    t.patch_function(reflection.export_snapshot, "reflection.export_snapshot")
    t.patch_method(reflection.Snapshot, "to_json", "reflection.snapshot_to_json")
    t.patch_function(reflection.import_snapshot, "reflection.import_snapshot")

    build_runtime_inputs = harness.build_runtime_inputs

    def build_traced(*args, **kwargs):
        software, ops = build_runtime_inputs(*args, **kwargs)
        return software, {name: t.wrap(f"harness.op.{name}", fn) for name, fn in ops.items()}

    t.patch(harness, "build_runtime_inputs", build_traced)

    handle_request = control.handle_request

    def handle_traced(engine, line, *args, **kwargs):
        verb = (line.split() or ["-"])[0]
        return t.call(f"control.handle_request.{verb}", handle_request,
                      (engine, line) + args, kwargs)

    t.patch(control, "handle_request", handle_traced)


TRACE_GAUGES = (
    ("trace.units", "count"),
    ("trace.spans", "count"),
    ("trace.units_per_s.untraced", "1/s"),
    ("trace.units_per_s.traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _timed_spans() -> list[str]:
    return (list(TIMED) + [f"harness.op.{op}" for op in HARNESS_OPS]
            + [f"control.handle_request.{verb}" for verb in CONTROL_VERBS])


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in print order, with its unit."""
    names = []
    for span in _timed_spans():
        names += [(f"{span}.calls", "count"), (f"{span}.ms", "ms")]
    names += [("runtime.execute_run.calls", "count"), ("runtime.execute_run.self_ms", "ms"),
              (MATCH_CALLS, "count"), ("triggers.match_ratio", "ratio"), (COALESCED, "count")]
    return names + list(GAUGES) + list(TRACE_GAUGES)


def layer_metrics(tracer, gauges: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the tracer's totals plus the workload's gauges."""
    totals = tracer.totals()
    counts = tracer.counts()
    values: dict[str, float] = {}
    for span in _timed_spans():
        calls, total_ns, _ = totals.get(span, (0, 0, 0))
        values[f"{span}.calls"] = calls
        values[f"{span}.ms"] = total_ns / 1e6
    calls, _, self_ns = totals.get("runtime.execute_run", (0, 0, 0))
    values["runtime.execute_run.calls"] = calls
    values["runtime.execute_run.self_ms"] = self_ns / 1e6
    attempts = counts.get(MATCH_CALLS, 0)
    values[MATCH_CALLS] = attempts
    values["triggers.match_ratio"] = counts.get(MATCH_HITS, 0) / attempts if attempts else 0.0
    values[COALESCED] = counts.get(COALESCED, 0)
    for name, _ in GAUGES + TRACE_GAUGES:
        values[name] = gauges.get(name, 0)
    return values
