"""Condition language: parsing, semantics, and oracle equivalence."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from megaloop.conditions import (Atom, Compare, Number, condition_to_text,
                                 eval_condition, parse_condition)
from megaloop.diagnostics import Diagnostic
from megaloop.history import ExecutionHistory

from conftest import BruteForceView


def make_history(runs, *, abort_last=False) -> ExecutionHistory:
    """runs: list of (ops, final) where ops is a list of (op, exit)."""
    hist = ExecutionHistory()
    t = 0.0
    for i, (ops, final) in enumerate(runs):
        hist.begin_run(t, "Start", seq=2 * i + 1)
        for op, exit in ops:
            hist.record_op(op, exit, t, t + 0.1)
            t += 0.1
        if abort_last and i == len(runs) - 1:
            hist.abort_run(t, seq=2 * i + 2)
        else:
            hist.end_run(t, final, seq=2 * i + 2)
        t += 1.0
    return hist


class TestParsing:
    def test_runs_since_comparison_ast(self):
        expr = parse_condition("runsSince(CheckForFailures -> no_failures) > 5")
        assert expr == Compare(">", Atom("runsSince", "CheckForFailures", "no_failures"),
                               Number(5.0))

    def test_tautology(self):
        expr = parse_condition("runCount() >= 0")
        assert eval_condition(expr, ExecutionHistory(), now=0.0) is True

    def test_malformed_is_a_diagnostic(self):
        result = parse_condition("executions(Update) >")
        assert isinstance(result, Diagnostic)
        assert result.code == "E-SYNTAX"

    def test_non_boolean_rejected(self):
        assert isinstance(parse_condition("executions(Update)"), Diagnostic)

    def test_comparing_booleans_rejected(self):
        result = parse_condition("(runCount() > 1) > 2")
        assert isinstance(result, Diagnostic)

    def test_unknown_atom(self):
        assert isinstance(parse_condition("frobnicate(Update) > 1"), Diagnostic)

    def test_runs_since_requires_exit(self):
        assert isinstance(parse_condition("runsSince(Update) > 1"), Diagnostic)

    @pytest.mark.parametrize("text", [
        "runsSince(CheckForFailures -> no_failures) > 5",
        "executions(Update) == 0",
        "secondsSince(Effect -> done) <= 2.5 and runCount() != 7",
        "not (executions(A) > 1 or executions(B) < 2)",
        "runCount() >= 0 or runCount() < 5 and executions(Op) > 0",
    ])
    def test_render_parse_roundtrip(self, text):
        expr = parse_condition(text)
        assert not isinstance(expr, Diagnostic)
        assert parse_condition(condition_to_text(expr)) == expr


class TestSemantics:
    def test_runs_since_hand_trace(self):
        # no_failures seen only in r1; evaluating in r7 gives 6 whole runs
        runs = [([("CheckForFailures", "no_failures")], "Analyzed")]
        runs += [([("CheckForFailures", "failures")], "Executed") for _ in range(6)]
        hist = make_history(runs)
        assert hist.runs_since("CheckForFailures", "no_failures") == 6
        expr = parse_condition("runsSince(CheckForFailures -> no_failures) > 5")
        assert eval_condition(expr, hist, now=100.0) is True

    def test_never_happened_is_infinite(self):
        hist = ExecutionHistory()
        expr = parse_condition("runsSince(CheckForFailures -> no_failures) > 5")
        assert eval_condition(expr, hist, now=0.0) is True  # inf > 5

    def test_zero_executions_on_empty_history(self):
        expr = parse_condition("executions(Update) == 0")
        assert eval_condition(expr, ExecutionHistory(), now=0.0) is True

    def test_seconds_since(self):
        hist = make_history([([("Update", "done")], "Done")])
        assert hist.seconds_since("Update", None, now=10.1) == pytest.approx(10.0)
        assert hist.seconds_since("Update", "other", now=10.1) == math.inf

    def test_match_in_current_run_is_zero(self):
        hist = make_history([([("Op", "ok")], "Done")])
        assert hist.runs_since("Op", "ok") == 0

    def test_aborted_run_matches_are_dropped(self):
        hist = make_history([([("Op", "ok")], "Done"), ([("Op", "ok")], "Done")],
                            abort_last=True)
        # only the first run's match survives the aborted second run
        assert hist.executions("Op", "ok") == 1
        assert hist.runs_since("Op", "ok") == 1
        view = BruteForceView(hist.runs)
        assert view.executions("Op", "ok") == 1
        assert view.runs_since("Op", "ok") == 1


# small alphabet keeps collision coverage high
_ops = st.sampled_from(["A", "B", "C"])
_exits = st.sampled_from(["ok", "fail"])
_run = st.tuples(st.lists(st.tuples(_ops, _exits), max_size=4),
                 st.sampled_from(["Done", "Other"]))


@given(st.lists(_run, min_size=0, max_size=12), st.booleans())
def test_index_equals_brute_force_recount(runs, abort_last):
    if not runs:
        abort_last = False
    hist = make_history(runs, abort_last=abort_last)
    view = BruteForceView(hist.runs)
    now = 1000.0
    assert hist.run_count() == view.run_count()
    assert hist.exit_counts() == view.exit_counts()
    for op in ("A", "B", "C"):
        assert hist.executions(op) == view.executions(op)
        assert hist.seconds_since(op, None, now) == view.seconds_since(op, None, now)
        for exit in ("ok", "fail"):
            assert hist.executions(op, exit) == view.executions(op, exit)
            assert hist.runs_since(op, exit) == view.runs_since(op, exit)
            assert (hist.seconds_since(op, exit, now)
                    == view.seconds_since(op, exit, now))


@given(st.lists(_run, min_size=0, max_size=8), st.integers(1, 5))
def test_runs_since_resets_then_counts_up(prefix, tail_runs):
    hist = make_history(prefix)
    t = 1000.0
    hist.begin_run(t, "Start", seq=900)
    hist.record_op("A", "ok", t, t + 0.1)
    assert hist.runs_since("A", "ok") == 0  # evaluated inside the matching run
    hist.end_run(t + 0.2, "Done", seq=901)
    for extra in range(1, tail_runs + 1):
        hist.begin_run(t + extra, "Start", seq=902 + 2 * extra)
        hist.record_op("B", "ok", t + extra, t + extra)
        assert hist.runs_since("A", "ok") == extra  # +1 per subsequent run
        hist.end_run(t + extra + 0.5, "Done", seq=903 + 2 * extra)


def test_eval_is_pure():
    hist = make_history([([("A", "ok")], "Done")])
    expr = parse_condition("executions(A -> ok) == 1 and secondsSince(A) >= 0")
    first = eval_condition(expr, hist, now=5.0)
    assert all(eval_condition(expr, hist, now=5.0) == first for _ in range(5))


@given(st.lists(_run, min_size=0, max_size=10),
       st.sampled_from([
           "runsSince(A -> ok) > 2",
           "executions(B) >= 1 and runCount() < 9",
           "not (secondsSince(C -> fail) <= 3 or executions(A -> ok) == 0)",
           "runCount() != 4",
       ]))
def test_compiled_conditions_equal_tree_eval(runs, text):
    from megaloop.conditions import compile_condition
    expr = parse_condition(text)
    compiled = compile_condition(expr)
    hist = make_history(runs)
    for now in (0.0, 5.0, 1e6):
        assert compiled(hist, now) == eval_condition(expr, hist, now)
