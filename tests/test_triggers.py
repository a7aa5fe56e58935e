"""Trigger parsing and event matching."""

from __future__ import annotations

import pytest

from megaloop.diagnostics import Diagnostic
from megaloop.model import Event, EventTypeRegistry, SenseEdge
from megaloop.triggers import InterceptPattern, TriggerSpec, match_event, parse_trigger


@pytest.fixture
def types():
    reg = EventTypeRegistry()
    reg.declare("RtException")
    reg.declare("OutOfMemoryRtException", "RtException")
    reg.declare("LoadIncrease")
    return reg


class TestParsing:
    def test_paper_example(self):
        spec = parse_trigger("RtException; 10s; Monitor;")
        assert spec == TriggerSpec(("RtException",), 10.0, "Monitor")

    def test_load_increase_60s(self):
        spec = parse_trigger("LoadIncrease; 60s; Monitor")
        assert spec == TriggerSpec(("LoadIncrease",), 60.0, "Monitor")

    def test_both_parts_empty(self):
        result = parse_trigger("; ; Monitor")
        assert isinstance(result, Diagnostic) and result.code == "E-TRIG-EMPTY"

    def test_unknown_unit(self):
        result = parse_trigger("RtException; 10x; Monitor")
        assert isinstance(result, Diagnostic) and result.code == "E-TRIG-UNIT"

    def test_milliseconds(self):
        spec = parse_trigger("; 250ms; Start;")
        assert spec.period == 0.25 and spec.pure_period

    def test_event_list_and_patterns(self):
        spec = parse_trigger("RtException, LoadIncrease, After[DeepCheck]; ; Start")
        assert spec.event_names() == ["RtException", "LoadIncrease"]
        assert spec.intercept_patterns() == [InterceptPattern("after", "DeepCheck")]

    def test_period_only_zero_allowed(self):
        spec = parse_trigger("; 0s; Start;")
        assert spec.period == 0.0 and spec.pure_period

    def test_missing_part(self):
        result = parse_trigger("RtException; Monitor")
        assert isinstance(result, Diagnostic) and result.code == "E-TRIG-SYNTAX"

    @pytest.mark.parametrize("text", [
        "RtException; 10s; Monitor;",
        "Before[Update], After[DeepCheck]; ; CheckStrategies;",
        "; 250ms; Start;",
        "RtException, LoadIncrease; 0.5s; Monitor;",
    ])
    def test_to_text_roundtrip(self, text):
        spec = parse_trigger(text)
        assert parse_trigger(spec.to_text()) == spec


class TestMatching:
    edge = SenseEdge("selfRepair", "mRUBiS")

    def test_exact_type_from_sensed_module(self, types):
        spec = parse_trigger("RtException; 10s; Monitor;")
        event = Event("RtException", "mRUBiS", 1.0)
        assert match_event(spec, event, self.edge, types)

    def test_subtype_matches(self, types):
        spec = parse_trigger("RtException; 10s; Monitor;")
        event = Event("OutOfMemoryRtException", "mRUBiS", 1.0)
        assert match_event(spec, event, self.edge, types)

    def test_other_source_never_matches(self, types):
        spec = parse_trigger("RtException; 10s; Monitor;")
        event = Event("RtException", "otherSystem", 1.0)
        assert not match_event(spec, event, self.edge, types)

    def test_unrelated_type(self, types):
        spec = parse_trigger("RtException; 10s; Monitor;")
        event = Event("LoadIncrease", "mRUBiS", 1.0)
        assert not match_event(spec, event, self.edge, types)

    def test_typed_events_do_not_match_patterns(self, types):
        edge = SenseEdge("strategies", "selfRepair")
        spec = parse_trigger("After[DeepCheck]; ; CheckStrategies;")
        event = Event("RtException", "selfRepair", 1.0)
        assert not match_event(spec, event, edge, types)
