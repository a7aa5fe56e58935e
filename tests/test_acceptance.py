"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 9 performs the full benchmark sweep and takes several minutes.
"""

from __future__ import annotations

import math
import random
import threading
import time

import pytest

from megaloop import build_engine, dsl, harness
from megaloop.bench import BenchConfig, run_benchmark
from megaloop.clock import VirtualClock
from megaloop.control import ControlClient, ControlServer
from megaloop.model import EventTypeRegistry
from megaloop.reflection import (apply_patch_now, audit_quiescence, export_snapshot,
                                 import_snapshot, parse_patch, set_trigger_now)
from megaloop.runtime import Engine
from megaloop.scenario import parse_script

from conftest import FLD_DIR, LD_DIR, PATCH_DIR, SCENARIO_DIR, random_megamodel


def report(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {summary}")


def fresh_engine(ld, **kwargs):
    engine, script = build_engine(LD_DIR / ld, FLD_DIR, clock=VirtualClock(), **kwargs)
    return engine, script


# --- criterion 1: trace-oracle equivalence over 1000 randomized runs ---------------------

class HandCodedSelfRepair:
    """Independent oracle: the self-repair behavior re-derived by hand.

    Tracks its own component states, strategy table, and run counter; never
    touches the engine, the megamodel, or the condition evaluator.
    """

    def __init__(self, strategies):
        self.strategies = dict(strategies)
        self.failed: dict[str, str] = {}
        self.run_index = -1
        self.last_ok_run = None

    def inject(self, component, kind):
        self.failed[component] = kind

    def run(self):
        self.run_index += 1
        ops = [("Update", "done")]
        if not self.failed:
            ops.append(("CheckForFailures", "no_failures"))
            self.last_ok_run = self.run_index
            return ops, "Analyzed"
        ops.append(("CheckForFailures", "failures"))
        runs_since = (math.inf if self.last_ok_run is None
                      else self.run_index - self.last_ok_run)
        if runs_since > 5:
            ops.append(("DeepCheck", "done"))
        repairable = sorted(c for c, k in self.failed.items() if k in self.strategies)
        unresolved = any(k not in self.strategies for k in self.failed.values())
        ops.append(("Repair", "no_strategy" if unresolved else "planned"))
        ops.append(("Effect", "done"))
        for component in repairable:
            del self.failed[component]
        return ops, "Executed"


def test_criterion_1_trace_oracle_equivalence():
    strategies = {"crash": "restart", "hang": "restart", "oom": "replace"}
    engine, _ = fresh_engine("self-repair.ld")
    engine.seed_model("selfRepair", "RepairStrategies", strategies)
    oracle = HandCodedSelfRepair(strategies)
    system = engine.software["mrubis"]
    instance = engine.instances["selfRepair"]

    dispatched = []
    engine.trace_sink = (lambda inst, e:
                         dispatched.append((e.name, e.detail)) if e.kind == "opEnd" else None)

    rng = random.Random(20140711)
    kinds = ["crash", "hang", "oom", "poison"]
    components = [f"c{i}" for i in range(1, 10)]
    started = time.perf_counter()
    for i in range(1000):
        if rng.random() < 0.45:
            component, kind = rng.choice(components), rng.choice(kinds)
            system.inject_failure(component, kind)
            oracle.inject(component, kind)
        dispatched.clear()
        result = engine.execute_run(instance, "Monitor")
        expected_ops, expected_final = oracle.run()
        flattened = [(n, d) for n, d in dispatched if n != "Analyze"]
        assert flattened == expected_ops, f"run {i}"
        assert result.final_state == expected_final, f"run {i}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"1000 randomized runs matched the hand-coded oracle exactly "
              f"({elapsed:.2f}s wall)")


# --- criterion 2: decision semantics against the brute-force oracle ----------------------

def brute_force_first_deep_run(history):
    """Recompute, per run, the value runsSince(CheckForFailures -> no_failures)
    had at that run's decision point, by full rescan of the raw records."""
    first = None
    last_ok = None
    for run in history.runs:
        index = run.index
        value = math.inf if last_ok is None else index - last_ok
        took_deep = any(e.op == "DeepCheck" for e in run.op_executions)
        if value > 5 and first is None and any(
                e.op == "CheckForFailures" and e.exit == "failures"
                for e in run.op_executions):
            first = index
        if any(e.op == "CheckForFailures" and e.exit == "no_failures"
               for e in run.op_executions):
            last_ok = index
    return first


def test_criterion_2_decision_semantics_exact_run_index():
    engine, _ = fresh_engine("layered-base.ld")
    engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
    instance = engine.instances["selfRepair"]
    engine.execute_run(instance, "Monitor")  # healthy run 0
    engine.software["mrubis"].inject_failure("c3", "poison")
    first_deep = None
    for _ in range(10):
        result = engine.execute_run(instance, "Monitor")
        if any(e.kind == "opEnd" and e.name == "DeepCheck" for e in result.trace):
            first_deep = instance.history.runs[-1].index
            break
    predicted = brute_force_first_deep_run(instance.history)
    assert first_deep is not None
    assert first_deep == predicted == 6  # runsSince first exceeds 5 on run 6
    report(2, f"DeepCheck first taken on run {first_deep}, matching the "
              f"brute-force oracle's prediction")


# --- criterion 3: trigger semantics under the virtual clock -----------------------------

PING_FLD = """
megamodel "Ping-loop" {
  initial Start
  final Done
  operation Work { exits { done } }
  flow Start -> Work
  flow Work.done -> Done
}
"""

TRIG_LD = """
architecture "Trig" {
  layer 0 "systems" { software sysA : "sysA" software sysB : "sysB" }
  layer 1 "loops" { module loop : "Ping-loop" }
  sense loop <- sysA [r] trigger "%s"
  effect loop -> sysA [w]
}
"""


def trig_engine(trigger, work=None):
    types = EventTypeRegistry()
    types.declare("Ping")
    engine = Engine(clock=VirtualClock(), software={"sysA": object(), "sysB": object()},
                    default_ops={"Work": work or (lambda ctx, models: "done")},
                    event_types=types)
    engine.registry["Ping-loop"] = dsl.parse_fld(PING_FLD).unwrap()
    engine.load_architecture(dsl.parse_ld(TRIG_LD % trigger).unwrap())
    return engine


def test_criterion_3_trigger_semantics():
    # (a) events during a run queue exactly one activation
    state = {"burst": True}

    def bursting(ctx, models):
        if state["burst"]:
            state["burst"] = False
            for _ in range(4):
                ctx.engine.emit("Ping", "sysA")
        return "done"

    engine = trig_engine("Ping; 1s; Start;", work=bursting)
    engine.run(duration=10, script=parse_script("at 0.1s emit Ping from sysA").unwrap())
    runs = [r for r in engine.run_audit if r["instance"] == "loop"]
    assert len(runs) == 2

    # (b) inter-run gaps equal the period exactly while events flood in
    engine = trig_engine("Ping; 1s; Start;")
    flood = parse_script("\n".join(
        f"at {0.05 + 0.1 * i:.2f}s emit Ping from sysA" for i in range(60))).unwrap()
    engine.run(duration=6.5, script=flood)
    runs = [r for r in engine.run_audit if r["instance"] == "loop"]
    assert len(runs) >= 5
    for prev, cur in zip(runs, runs[1:]):
        assert cur["start"] - prev["end"] == pytest.approx(1.0, abs=1e-9)

    # (c) a pure-period trigger fires with gaps equal to the period
    engine = trig_engine("; 2s; Start;")
    engine.run(duration=9)
    runs = [r for r in engine.run_audit if r["instance"] == "loop"]
    assert len(runs) == 5
    for prev, cur in zip(runs, runs[1:]):
        assert cur["start"] - prev["end"] >= 2.0 - 1e-9
        assert cur["start"] - prev["end"] == pytest.approx(2.0, abs=1e-9)

    # (d) events from a module the loop does not sense never activate it
    engine = trig_engine("Ping; 1s; Start;")
    engine.run(duration=3, script=parse_script(
        "at 0.2s emit Ping from sysB\nat 1.2s emit Ping from sysB").unwrap())
    assert [r for r in engine.run_audit if r["instance"] == "loop"] == []

    report(3, "queueing, exact period gaps, pure-period firing, and source "
              "filtering all verified on the virtual clock")


# --- criterion 4: coordination fixtures ---------------------------------------------------

def test_criterion_4_self_management_1():
    engine, _ = fresh_engine("self-management-1.ld")
    engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
    sm1 = engine.instances["selfManagement1"]
    lines = []
    engine.trace_sink = lambda inst, e: lines.append((inst, e.kind, e.name, e.detail))

    result = engine.execute_run(sm1, "Monitor")  # healthy: repair changes nothing
    updates = [l for l in lines if l[1] == "opStart" and l[2] == "Update"]
    assert len(updates) == 1  # no second Update: optimization skipped its monitor
    opt_runs = engine.instances["selfOptimization"].history.runs
    assert opt_runs[-1].initial_state == "Analyze"
    assert result.final_state == "Analyzed"

    lines.clear()
    engine.software["mrubis"].inject_failure("c3", "crash")
    result = engine.execute_run(sm1, "Monitor")  # repair executes an adaptation
    updates = [l for l in lines if l[1] == "opStart" and l[2] == "Update"]
    assert len(updates) == 2  # optimization re-monitors after the adaptation
    assert engine.instances["selfOptimization"].history.runs[-1].initial_state == "Monitor"
    assert result.final_state == "Analyzed"
    report(4, "sequencing: Analyzed routes into Analyze (one Update), Executed "
              "into Monitor (two Updates); shared-MAPE combinations verified")


def test_criterion_4_self_management_2_all_exit_combinations():
    engine, _ = fresh_engine("self-management-2.ld")
    engine.seed_model("repairAP", "RepairStrategies", {"crash": "restart"})
    engine.seed_model("optimizeAP", "QueueingModel", {"threshold": 0.8})
    sm2 = engine.instances["selfManagement2"]
    system = engine.software["mrubis"]

    def run_combo(failure, high_load):
        if failure:
            system.inject_failure("c3", "crash")
        system.state.load = 0.9 if high_load else 0.2
        lines = []
        engine.trace_sink = lambda inst, e: lines.append((inst, e.kind, e.name))
        result = engine.execute_run(sm2, "Monitor")
        effected = any(l == ("selfManagement2", "opStart", "Effect") for l in lines)
        repair_exit = engine.instances["repairAP"].history.runs[-1].final_state
        optimize_exit = engine.instances["optimizeAP"].history.runs[-1].final_state
        return repair_exit, optimize_exit, effected, result.final_state

    # order exercises the ==0 current-run encoding against stale history too
    assert run_combo(False, False) == ("Analyzed", "Analyzed", False, "Analyzed")
    assert run_combo(True, False) == ("Planned", "Analyzed", True, "Executed")
    assert run_combo(False, False) == ("Analyzed", "Analyzed", False, "Analyzed")
    assert run_combo(False, True) == ("Analyzed", "Planned", True, "Executed")
    assert run_combo(True, True) == ("Planned", "Planned", True, "Executed")
    report(4, "shared-MAPE: Effect dispatched iff at least one planner "
              "terminated in Planned, across all four exit combinations")


# --- criterion 5: layered scenario end to end ---------------------------------------------

def test_criterion_5_layered_scenario():
    engine, script = fresh_engine("layered-strategies.ld",
                                  script=SCENARIO_DIR / "layered-poison.script")
    set_trigger_now(engine, "selfRepair", "mRUBiS", "RtException; 0.2s; Monitor;")
    lines = []
    engine.trace_sink = lambda inst, e: lines.append((inst, e.kind, e.name, e.detail))
    engine.run(duration=4, script=script)
    assert engine.errors == []

    runs = [r for r in engine.run_audit if r["instance"] == "selfRepair"]
    failing = [r for r in runs if any(
        e.op == "CheckForFailures" and e.exit == "failures"
        for e in engine.instances["selfRepair"].history.runs[r["index"]].op_executions)]
    deep_indices = [r.index for r in engine.instances["selfRepair"].history.runs
                    if any(e.op == "DeepCheck" for e in r.op_executions)]
    assert deep_indices and deep_indices[0] == 6
    assert len([r for r in failing if r["index"] < 6]) == 5  # more than five needed

    # interception ran synchronously inside the deep-check run
    idx_deep = lines.index(("selfRepair", "opEnd", "DeepCheck", "done"))
    idx_repair = next(i for i, l in enumerate(lines)
                      if i > idx_deep and l[:3] == ("selfRepair", "opStart", "Repair"))
    nested = [l for l in lines[idx_deep:idx_repair] if l[0] == "selfRepairStrategies"]
    assert [(l[1], l[2]) for l in nested if l[1] == "opEnd"] == \
        [("opEnd", "CheckSuccess"), ("opEnd", "Synthesize")]

    assert engine.model_of("selfRepair", "RepairStrategies").body == \
        {"crash": "restart", "poison": "replace"}
    interception_run = engine.instances["selfRepair"].history.runs[6]
    assert interception_run.final_state == "Executed"
    assert engine.software["mrubis"].failed_components() == {}
    # the following run finds a healthy system again
    assert engine.instances["selfRepair"].history.runs[7].final_state == "Analyzed"
    assert engine.clock.now() <= 5.0
    report(5, f"novel failure healed: interception at run 6, strategies "
              f"synthesized, recovery within {engine.clock.now():.1f}s virtual time")


# --- criterion 6: offline adaptation through the control channel -------------------------

def test_criterion_6_offline_patch_during_flood(tmp_path):
    engine, _ = fresh_engine("layered-base.ld")
    flood_lines = ["event RtException",
                   'seed selfRepair.RepairStrategies { "crash" = "restart" }']
    flood_lines += [f"at {0.5 * i + 0.25:.2f}s emit RtException" for i in range(120)]
    script = parse_script("\n".join(flood_lines)).unwrap()

    server = ControlServer(engine, f"unix:{tmp_path}/control.sock")
    addr = server.start()
    thread = threading.Thread(target=lambda: engine.run(script=script, paced=True),
                              daemon=True)
    thread.start()
    client = ControlClient(addr)
    try:
        assert client.request("step 20").startswith("ok stepped")
        response = client.request(f"patch {PATCH_DIR / 'add-strategies.patch'}")
        assert response.startswith("ok patch AddStrategiesLoop")
        assert client.request("step 41").startswith("ok stepped")
        listing = client.request("list")
        assert client.request("stop") == "ok stopping"
    finally:
        thread.join(10)
        client.close()
        server.close()
    assert not thread.is_alive()

    golden = dsl.parse_ld((LD_DIR / "layered-strategies.ld").read_text()).unwrap()
    assert listing.strip() == dsl.serialize_ld(golden).strip()
    runs = [r for r in engine.run_audit if r["instance"] == "selfRepair"]
    assert len(runs) >= 6  # the flood kept running through the patch
    assert sum(r["aborted"] for r in engine.run_audit) == 0
    assert audit_quiescence(engine) == []
    before_patch = [r for r in runs if r["start"] < 20]
    after_patch = [r for r in runs if r["start"] > 20]
    assert before_patch and after_patch
    report(6, f"patch applied mid-flood at quiescence: {len(runs)} runs, zero "
              f"aborted, audit clean, post-state equals the golden three-layer LD")


# --- criterion 7: destruction-state patch module ------------------------------------------

def test_criterion_7_one_shot_update_module():
    from megaloop.control import handle_request
    engine, _ = fresh_engine("layered-base.ld")
    patch = parse_patch((PATCH_DIR / "update-software.patch").read_text()).unwrap()
    apply_patch_now(engine, patch)
    assert engine.arch.find_module("updater") is not None
    engine.run(duration=1)

    updater_runs = [r for r in engine.run_audit if r["instance"] == "updater"]
    assert len(updater_runs) == 1  # executed exactly once
    component = engine.software["mrubis"].state.components["c5"]
    assert component.params["version"] == 2 and component.lifecycle == "started"
    assert "updater" not in engine.instances

    thread = threading.Thread(target=lambda: engine.run(paced=True), daemon=True)
    thread.start()
    listing = handle_request(engine, "list")
    handle_request(engine, "stop")
    thread.join(5)
    assert "updater" not in listing
    assert listing.strip() == dsl.serialize_ld(engine.arch).strip()
    report(7, "updater ran once, replaced c5, and vanished from the listing")


# --- criterion 8: round-trips and snapshot stability ---------------------------------------

def test_criterion_8_roundtrips_and_snapshot_stability():
    from megaloop.model import check_megamodel
    for path in sorted(FLD_DIR.glob("*.fld")):
        mm = dsl.parse_fld(path.read_text(), path.name).unwrap()
        assert dsl.parse_fld(dsl.serialize_fld(mm), "rt").unwrap() == mm
    for path in sorted(LD_DIR.glob("*.ld")):
        arch = dsl.parse_ld(path.read_text(), path.name).unwrap()
        assert dsl.parse_ld(dsl.serialize_ld(arch), "rt").unwrap() == arch

    rng = random.Random(24601)
    for _ in range(500):
        mm = random_megamodel(rng)
        assert check_megamodel(mm) == []
        assert dsl.parse_fld(dsl.serialize_fld(mm), "gen").unwrap() == mm

    engine, _ = fresh_engine("layered-strategies.ld")
    engine.seed_model("selfRepair", "RepairStrategies", {"crash": "restart"})
    engine.software["mrubis"].inject_failure("c3", "crash")
    engine.execute_run(engine.instances["selfRepair"], "Monitor")
    first = export_snapshot(engine)
    clone = import_snapshot(first.to_json(), software=engine.software,
                            default_ops=engine.default_ops)
    second = export_snapshot(clone)
    strip = lambda s: [l for l in s.splitlines() if '"engineTime"' not in l]
    assert strip(first.to_json()) == strip(second.to_json())
    report(8, "corpus plus 500 generated megamodels round-trip structurally; "
              "snapshot export-import-export byte-stable modulo engineTime")


# --- criterion 9: the overhead benchmark ----------------------------------------------------

def test_criterion_9_overhead_benchmark():
    config = BenchConfig(duration_s=10.0)
    started = time.perf_counter()
    result = run_benchmark(config)
    sweep_wall = time.perf_counter() - started
    assert sweep_wall <= 600.0, f"sweep took {sweep_wall:.0f}s"

    expected_infeasible = {(5, 15), (10, 15), (10, 30), (20, 15), (20, 30), (20, 60)}
    assert {(c, p) for c, p, _ in result.infeasible} == expected_infeasible

    for compute in config.compute_ms_values:
        for period in config.period_ms_values:
            interp = result.result(compute, period, "interpreter")
            base = result.result(compute, period, "baseline")
            if (compute, period) in expected_infeasible:
                assert interp is None and base is None
                continue
            # (a) op-sequence equality between the two modes
            n = min(len(base.op_sequence), len(interp.op_sequence))
            assert base.op_sequence[:n] == interp.op_sequence[:n], (compute, period)
            # each mode may end up one run either side of the expected count
            assert abs(len(base.op_sequence) - len(interp.op_sequence)) <= 10
            expected_runs = int(config.duration_s * 1000 / period)
            assert abs(base.runs - expected_runs) <= 1
            assert abs(interp.runs - expected_runs) <= 1
            # (c) overhead below half a percentage point everywhere
            overhead = result.overhead_pp(compute, period)
            assert overhead < 0.5, f"c{compute}p{period}: {overhead:.3f}pp"

    # (b) pure interpreter load below 1% at the slowest rate
    idle = result.result(0, 960, "interpreter")
    assert idle.mean_cpu_pct < 1.0

    # (d) mean CPU non-increasing as the period doubles, 0.3pp noise allowance
    for compute in config.compute_ms_values:
        series = [(p, result.result(compute, p, "interpreter"))
                  for p in config.period_ms_values
                  if result.result(compute, p, "interpreter") is not None]
        for (p1, r1), (p2, r2) in zip(series, series[1:]):
            assert r2.mean_cpu_pct <= r1.mean_cpu_pct + 0.3, \
                f"c{compute}: {p1}ms={r1.mean_cpu_pct:.3f}% -> {p2}ms={r2.mean_cpu_pct:.3f}%"

    worst, worst_c, worst_p = max((result.overhead_pp(c, p), c, p)
                                  for c in config.compute_ms_values
                                  for p in config.period_ms_values
                                  if (c, p) not in expected_infeasible)
    report(9, f"22 feasible combos in {sweep_wall:.0f}s: sequences identical, "
              f"idle interpreter at {idle.mean_cpu_pct:.3f}% CPU, worst overhead "
              f"{worst:+.3f}pp at c{worst_c}p{worst_p}, monotone within tolerance")


# --- criterion 10: the validation suite ------------------------------------------------------

def test_criterion_10_validation_suite():
    from test_validation_corpus import ARCH_CASES, MEGAMODEL_CASES, TRIGGER_CASES
    total = len(MEGAMODEL_CASES) + len(ARCH_CASES) + len(TRIGGER_CASES)
    assert total >= 30
    # the corpus itself runs as test_validation_corpus; here we assert its size
    # and that the pristine fixtures stay clean
    from megaloop import load_fld_dir
    from megaloop.model import check_architecture, check_megamodel
    reg = load_fld_dir(FLD_DIR)
    for mm in reg.values():
        assert check_megamodel(mm) == []
    types = EventTypeRegistry()
    harness.declare_default_event_types(types)
    for path in sorted(LD_DIR.glob("*.ld")):
        arch = dsl.parse_ld(path.read_text(), str(path)).unwrap()
        assert check_architecture(arch, reg, types) == []
    report(10, f"{total} corruption cases each yield their rule id; pristine "
               f"fixtures validate clean")
