"""Trigger scheduling: queueing, coalescing, period gates, interception."""

from __future__ import annotations

import threading

import pytest

from megaloop import build_engine, dsl
from megaloop.clock import MonotonicClock, VirtualClock
from megaloop.model import EventTypeRegistry
from megaloop.reflection import apply_patch_now, parse_patch
from megaloop.runtime import Engine
from megaloop.scenario import parse_script

from conftest import FLD_DIR, LD_DIR, PATCH_DIR

PING_FLD = """
megamodel "Ping-loop" {
  initial Start
  final Done
  operation Work {
    exits { done }
  }
  flow Start -> Work
  flow Work.done -> Done
}
"""

LD_TEMPLATE = """
architecture "Trig" {{
  layer 0 "systems" {{
    software sysA : "sysA"
    software sysB : "sysB"
  }}
  layer 1 "loops" {{
    module loop : "Ping-loop"
  }}
  sense loop <- sysA [r] trigger "{trigger}"
  effect loop -> sysA [w]
}}
"""


def make_engine(trigger, work=None, extra_ld=None):
    types = EventTypeRegistry()
    types.declare("Ping")
    engine = Engine(clock=VirtualClock(), software={"sysA": object(), "sysB": object()},
                    default_ops={"Work": work or (lambda ctx, models: "done")},
                    event_types=types)
    engine.registry["Ping-loop"] = dsl.parse_fld(PING_FLD).unwrap()
    ld = extra_ld or LD_TEMPLATE.format(trigger=trigger)
    engine.load_architecture(dsl.parse_ld(ld).unwrap())
    return engine


def runs_of(engine, instance="loop"):
    return [r for r in engine.run_audit if r["instance"] == instance]


def ping_script(times):
    text = "\n".join(f"at {t}s emit Ping from sysA" for t in times)
    return parse_script(text).unwrap()


class TestQueueingAndCoalescing:
    def test_events_during_run_coalesce_to_one_activation(self):
        emitted = {"count": 0}

        def work(ctx, models):
            if emitted["count"] == 0:
                emitted["count"] += 1
                for _ in range(3):  # a burst while this very instance is running
                    ctx.engine.emit("Ping", "sysA")
            return "done"

        engine = make_engine("Ping; 1s; Start;", work=work)
        engine.run(duration=10, script=ping_script([0.1]))
        audit = runs_of(engine)
        assert len(audit) == 2  # the burst of three yields exactly one later run
        assert audit[1]["cause"] == "event:Ping"

    def test_event_while_idle_and_gated_waits_for_period(self):
        engine = make_engine("Ping; 1s; Start;")
        engine.run(duration=5, script=ping_script([0.1, 0.2]))
        audit = runs_of(engine)
        assert len(audit) == 2
        assert audit[0]["start"] == pytest.approx(0.1)
        # second event queued at 0.2, delayed until the period elapsed
        assert audit[1]["start"] == pytest.approx(audit[0]["end"] + 1.0)

    def test_flood_yields_period_spaced_runs_exactly(self):
        times = [round(0.05 + 0.1 * i, 2) for i in range(50)]
        engine = make_engine("Ping; 1s; Start;", extra_ld=None)
        engine.run(duration=5.5, script=ping_script(times))
        audit = runs_of(engine)
        assert len(audit) >= 4
        for prev, cur in zip(audit, audit[1:]):
            gap = cur["start"] - prev["end"]
            assert gap >= 1.0 - 1e-9
            assert gap == pytest.approx(1.0, abs=1e-9)  # exact under the virtual clock

    def test_event_from_non_sensed_module_never_activates(self):
        engine = make_engine("Ping; 1s; Start;")
        script = parse_script("at 0.5s emit Ping from sysB\nat 1s emit Ping from sysB").unwrap()
        engine.run(duration=3, script=script)
        assert runs_of(engine) == []

    def test_every_event_caused_run_matched_its_spec(self):
        engine = make_engine("Ping; 0.5s; Start;")
        engine.run(duration=4, script=ping_script([0.1, 1.0, 2.2]))
        audit = runs_of(engine)
        assert audit and all(r["cause"] == "event:Ping" for r in audit)


class TestPeriodGate:
    def test_pure_period_trigger_fires_with_exact_gaps(self):
        engine = make_engine("; 2s; Start;")
        engine.run(duration=7)
        audit = runs_of(engine)
        assert len(audit) == 4  # t = 0, 2, 4, 6
        assert all(r["cause"] == "periodic" for r in audit)
        for prev, cur in zip(audit, audit[1:]):
            assert cur["start"] - prev["end"] == pytest.approx(2.0, abs=1e-9)

    def test_first_run_passes_the_gate(self):
        engine = make_engine("; 3s; Start;")
        engine.run(duration=1)
        assert len(runs_of(engine)) == 1

    def test_start_anchored_gate(self):
        engine = make_engine("; 2s; Start;")
        engine.period_anchor = "start"
        engine.run(duration=7)
        audit = runs_of(engine)
        for prev, cur in zip(audit, audit[1:]):
            assert cur["start"] - prev["start"] == pytest.approx(2.0, abs=1e-9)


class TestRealClock:
    def test_pure_period_trigger_fires_before_a_first_run(self):
        # the updater's trigger "; 0s; Start;" has no event: only the gate starts it
        engine, _ = build_engine(LD_DIR / "self-repair.ld", FLD_DIR, clock=MonotonicClock())
        patch = parse_patch((PATCH_DIR / "update-software.patch").read_text()).unwrap()
        apply_patch_now(engine, patch)
        thread = threading.Thread(target=engine.run, kwargs={"duration": 0.5}, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "updater" not in engine.instances
        assert [r["final"] for r in runs_of(engine, "updater")] == ["Done"]
        assert engine.errors == []


class TestTieBreak:
    def test_lower_layer_runs_first_on_equal_ticks(self):
        types = EventTypeRegistry()
        types.declare("Ping")
        engine = Engine(clock=VirtualClock(), software={"sysA": object()},
                        default_ops={"Work": lambda ctx, models: "done"},
                        event_types=types)
        engine.registry["Ping-loop"] = dsl.parse_fld(PING_FLD).unwrap()
        ld = """
        architecture "Tie" {
          layer 0 "systems" { software sysA : "sysA" }
          layer 1 "low" { module zephyr : "Ping-loop" }
          layer 2 "high" { module alpha : "Ping-loop" }
          sense zephyr <- sysA [r] trigger "Ping; ; Start;"
          sense alpha <- sysA [r] trigger "Ping; ; Start;"
        }
        """
        engine.load_architecture(dsl.parse_ld(ld).unwrap())
        engine.run(duration=2, script=ping_script([0.5]))
        order = [r["instance"] for r in engine.run_audit]
        # same enqueue instant: the layer-1 module wins despite its name
        assert order == ["zephyr", "alpha"]


INTERCEPT_LD = """
architecture "Layered" {{
  layer 0 "systems" {{ software sysA : "sysA" }}
  layer 1 "low" {{ module loop : "Ping-loop" }}
  layer 2 "high" {{ module watcher : "Ping-loop" }}
  sense loop <- sysA [r] trigger "Ping; ; Start;"
  sense watcher <- loop [r] trigger "{pattern}; {period}; Start;"
  effect watcher -> loop [w]
}}
"""


def make_layered(pattern, period=""):
    types = EventTypeRegistry()
    types.declare("Ping")
    calls = []

    def work(ctx, models):
        calls.append(ctx.instance)
        return "done"

    engine = Engine(clock=VirtualClock(), software={"sysA": object()},
                    default_ops={"Work": work}, event_types=types)
    engine.registry["Ping-loop"] = dsl.parse_fld(PING_FLD).unwrap()
    ld = INTERCEPT_LD.format(pattern=pattern, period=period)
    engine.load_architecture(dsl.parse_ld(ld).unwrap())
    return engine, calls


class TestInterception:
    def test_after_pattern_runs_watcher_synchronously(self):
        engine, calls = make_layered("After[Work]")
        engine.run(duration=1, script=ping_script([0.1]))
        assert calls == ["loop", "watcher"]
        loop_run = next(r for r in engine.run_audit if r["instance"] == "loop")
        watcher_run = next(r for r in engine.run_audit if r["instance"] == "watcher")
        # nested inside the intercepted run, by sequence numbers
        assert loop_run["start_seq"] < watcher_run["start_seq"]
        assert watcher_run["end_seq"] < loop_run["end_seq"]
        assert watcher_run["cause"] == "intercept:After[Work]"
        # interception points are not events: only the emitted Ping is logged
        assert [e.type_name for e in engine.event_log] == ["Ping"]

    def test_before_pattern(self):
        engine, calls = make_layered("Before[Work]")
        engine.run(duration=1, script=ping_script([0.1]))
        assert calls == ["watcher", "loop"]

    def test_gated_interception_is_skipped_not_deferred(self):
        engine, calls = make_layered("After[Work]", period="10s")
        engine.run(duration=3, script=ping_script([0.1, 1.1]))
        # two loop runs, but the watcher only ran inside the first one
        assert calls == ["loop", "watcher", "loop"]
        assert len([r for r in engine.run_audit if r["instance"] == "watcher"]) == 1

    def test_interception_not_queued(self):
        engine, calls = make_layered("After[Work]", period="10s")
        engine.run(duration=3, script=ping_script([0.1, 1.1]))
        assert engine.pending == []
