"""Condition language: parsing, semantics, and oracle equivalence."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from megaloop import dsl
from megaloop.conditions import (COMPARE_OPS, MAX_NESTING, Atom, BoolOp, Compare, Not,
                                 Number, compile_condition, condition_to_text,
                                 eval_condition, parse_condition)
from megaloop.diagnostics import Diagnostic
from megaloop.history import ABORT_STATE, ExecutionHistory

from conftest import BruteForceView, tree_eval


def make_history(runs, *, abort_last=False, hist=None) -> ExecutionHistory:
    """runs: list of (ops, final) where ops is a list of (op, exit).

    A run whose final is ABORT_STATE is aborted, as is the last with abort_last.
    """
    hist = ExecutionHistory() if hist is None else hist
    t = 0.0
    for i, (ops, final) in enumerate(runs):
        hist.begin_run(t, "Start", seq=2 * i + 1)
        for op, exit in ops:
            hist.record_op(op, exit, t, t + 0.1)
            t += 0.1
        if final == ABORT_STATE or (abort_last and i == len(runs) - 1):
            hist.abort_run(t, seq=2 * i + 2)
        else:
            hist.end_run(t, final, seq=2 * i + 2)
        t += 1.0
    return hist


# Malformed conditions and the (code, message, column) each must give.  A bad
# number literal is reported at the literal itself; every other error at the
# token where parsing stopped.  The last four rows, numeric operands of
# and/or, were accepted before those connectives required booleans.
MALFORMED = [
    ('', 'E-SYNTAX', "expected a value, found 'end of input'", 1),
    ('   ', 'E-SYNTAX', "expected a value, found 'end of input'", 4),
    ('executions(Update) >', 'E-SYNTAX', "expected a value, found 'end of input'", 21),
    ('executions(Update)', 'E-SYNTAX', 'condition must be a boolean expression', 19),
    ('(runCount() > 1) > 2', 'E-SYNTAX', 'comparison operands must be numeric', 21),
    ('frobnicate(Update) > 1', 'E-SYNTAX', "unknown atom 'frobnicate'", 1),
    ('runsSince(Update) > 1', 'E-SYNTAX', "runsSince() requires an 'op -> exit' argument", 17),
    ('runCount() > 1 $', 'E-SYNTAX', "unexpected character '$' in condition", 16),
    ('1.2.3 > runCount()', 'E-SYNTAX', "bad number literal '1.2.3'", 1),
    ('runCount() > 1..5', 'E-SYNTAX', "bad number literal '1..5'", 14),
    ('runCount( > 1', 'E-SYNTAX', "expected ')', found '>'", 11),
    ('runCount() > 1)', 'E-SYNTAX', "unexpected trailing input ')'", 15),
    ('executions() > 1', 'E-SYNTAX', 'executions() needs an operation name', 12),
    ('executions(A -> ) > 1', 'E-SYNTAX', "executions() needs an exit name after '->'", 17),
    ('executions(A -> b c) > 1', 'E-SYNTAX', "expected ')', found 'c'", 19),
    ('not runCount()', 'E-SYNTAX', "'not' applies to a boolean expression", 15),
    ('not not executions(A)', 'E-SYNTAX', "'not' applies to a boolean expression", 22),
    ('runCount() > 1 and', 'E-SYNTAX', "expected a value, found 'end of input'", 19),
    ('runCount() > 1 or or runCount() < 2', 'E-SYNTAX', "unknown atom 'or'", 19),
    ('(runCount() > 1', 'E-SYNTAX', "expected ')', found 'end of input'", 16),
    ('runCount > 1', 'E-SYNTAX', "expected '(', found '>'", 10),
    ('> 1', 'E-SYNTAX', "expected a value, found '>'", 1),
    ('runCount() > 1 runCount() > 2', 'E-SYNTAX', "unexpected trailing input 'runCount'", 16),
    ('executions(A) < < 2', 'E-SYNTAX', "expected a value, found '<'", 17),
    ('runCount() == ->', 'E-SYNTAX', "expected a value, found '->'", 15),
    ('executions(A -> ok) > 1 and not 3', 'E-SYNTAX', "'not' applies to a boolean expression", 34),
    ('runCount() = 1', 'E-SYNTAX', "unexpected character '=' in condition", 12),
    ('secondsSince(A -> -> b) > 1', 'E-SYNTAX', "secondsSince() needs an exit name after '->'", 19),
    ('1 < 2 < 3', 'E-SYNTAX', "unexpected trailing input '<'", 7),
    ('executions(A) >= 1e5', 'E-SYNTAX', "unexpected trailing input 'e5'", 19),
    ('runsSince(A -> ok > 1', 'E-SYNTAX', "expected ')', found '>'", 19),
    ('executions(A -> ok) > 1 and runsSince(B) == 0', 'E-SYNTAX', "runsSince() requires an 'op -> exit' argument", 40),
    ('runCount() > ²', 'E-SYNTAX', "bad number literal '²'", 14),
    ('executions(A) > 1 and executions(B)', 'E-SYNTAX', "'and' applies to boolean expressions", 36),
    ('executions(A) or runCount() > 1', 'E-SYNTAX', "'or' applies to boolean expressions", 15),
    ('runCount() > 1 and 2 or runCount() < 3', 'E-SYNTAX', "'and' applies to boolean expressions", 22),
    ('(executions(A)) and runCount() > 0', 'E-SYNTAX', "'and' applies to boolean expressions", 17),
]


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

    @pytest.mark.parametrize("text", [
        "runsSince(CheckForFailures -> no_failures) > 5",
        "executions(Update) == 0",
        "secondsSince(Effect -> done) <= 2.5 and runCount() != 7",
        "runCount() > 1234567 or secondsSince(A) > 0.1234567",
        "secondsSince(A) >= 0.00001",
    ])
    def test_canonical_text_renders_unchanged(self, text):
        assert condition_to_text(parse_condition(text)) == text

    @pytest.mark.parametrize("text,code,message,column", MALFORMED)
    def test_malformed_corpus(self, text, code, message, column):
        result = parse_condition(text)
        assert isinstance(result, Diagnostic)
        assert (result.code, result.message, result.span.column) == (code, message, column)


class TestNestingCap:
    def test_nesting_up_to_the_cap_parses(self):
        parens = "(" * MAX_NESTING + "runCount() > 1" + ")" * MAX_NESTING
        nots = "not " * MAX_NESTING + "runCount() > 1"
        mixed = "not (" * (MAX_NESTING // 2) + "runCount() > 1" + ")" * (MAX_NESTING // 2)
        for text in (parens, nots, mixed):
            expr = parse_condition(text)
            assert not isinstance(expr, Diagnostic)
            assert eval_condition(expr, ExecutionHistory(), now=0.0) == tree_eval(
                expr, ExecutionHistory(), 0.0)

    @pytest.mark.parametrize("text,column", [
        ("(" * (MAX_NESTING + 1) + "runCount() > 1" + ")" * (MAX_NESTING + 1),
         MAX_NESTING + 1),
        ("not " * (MAX_NESTING + 1) + "runCount() > 1", 4 * MAX_NESTING + 1),
        ("(" * 5000, MAX_NESTING + 1),
        ("not " * 5000 + "runCount() > 1", 4 * MAX_NESTING + 1),
        ("not (" * 3000 + "runCount() > 1" + ")" * 3000, 5 * (MAX_NESTING // 2) + 1),
    ])
    def test_nesting_past_the_cap_is_a_syntax_error(self, text, column):
        result = parse_condition(text)
        assert isinstance(result, Diagnostic)
        assert (result.code, result.span.column) == ("E-SYNTAX", column)
        assert result.message == f"condition nested deeper than {MAX_NESTING} levels"

    def test_deep_condition_in_fld_is_a_diagnostic(self):
        text = ('megamodel "X" {\n  initial S\n  final F\n'
                '  decision D {\n    when "' + "(" * 200 + 'runCount() > 1' + ")" * 200
                + '" -> F\n    else -> F\n  }\n  flow S -> D\n}\n')
        result = dsl.parse_fld(text, "x.fld")
        assert not result.ok
        assert [(d.code, d.span.line) for d in result.diagnostics] == [("E-SYNTAX", 5)]


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
_run_or_abort = st.tuples(st.lists(st.tuples(_ops, _exits), max_size=4),
                          st.sampled_from(["Done", "Other", ABORT_STATE]))


@given(st.lists(_run_or_abort, min_size=0, max_size=12), st.booleans())
def test_index_equals_brute_force_recount(runs, abort_last):
    if not runs:
        abort_last = False
    hist = ExecutionHistory()
    hist.cell("D", "ok")  # a key made by a route or a condition, never executed
    make_history(runs, abort_last=abort_last, hist=hist)
    view = BruteForceView(hist.runs)
    now = 1000.0
    assert hist.run_count() == view.run_count()
    assert hist.exit_counts() == view.exit_counts()
    # "D" and "skip" never execute
    for op in ("A", "B", "C", "D"):
        assert hist.executions(op) == view.executions(op)
        assert hist.seconds_since(op, None, now) == view.seconds_since(op, None, now)
        for exit in ("ok", "fail", "skip"):
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
    expr = parse_condition(text)
    hist = make_history(runs)
    compiled = compile_condition(expr, hist)
    for now in (0.0, 5.0, 1e6):
        assert compiled(now) is tree_eval(expr, hist, now)
        assert eval_condition(expr, hist, now) is tree_eval(expr, hist, now)


_numeric = st.one_of(
    st.integers(0, 12).map(lambda n: Number(float(n))),
    st.just(Atom("runCount")),
    st.builds(lambda op, exit: Atom("executions", op, exit), _ops, st.none() | _exits),
    st.builds(lambda op, exit: Atom("runsSince", op, exit), _ops, _exits),
    st.builds(lambda op, exit: Atom("secondsSince", op, exit), _ops, st.none() | _exits),
)
_conditions = st.recursive(
    st.builds(Compare, st.sampled_from(COMPARE_OPS), _numeric, _numeric),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(BoolOp, st.sampled_from(["and", "or"]),
                  st.lists(inner, min_size=2, max_size=3).map(tuple))),
    max_leaves=8)


@given(st.lists(_run_or_abort, min_size=0, max_size=8), _conditions)
def test_random_conditions_compiled_equal_tree_eval(runs, expr):
    # bound before any run exists: the cells it holds must stay valid through
    # every later run and every abort's recount
    hist = ExecutionHistory()
    compiled = compile_condition(expr, hist)
    make_history(runs, hist=hist)
    view = BruteForceView(hist.runs)
    for now in (0.0, 5.0, 1e6):
        assert compiled(now) is tree_eval(expr, hist, now)
        assert compiled(now) is tree_eval(expr, view, now)
    assert parse_condition(condition_to_text(expr)) == expr


_literals = st.one_of(
    st.integers(0, 10**400).map(str),
    st.decimals(min_value=0, max_value=10**12, places=9).map(lambda d: format(d, "f")),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(
        lambda x: format(x, ".400f")),
)


@given(_literals)
def test_number_literals_survive_render_and_reparse(literal):
    expr = parse_condition(f"secondsSince(A) > {literal}")
    assert not isinstance(expr, Diagnostic)
    assert expr.right.value == float(literal)
    assert parse_condition(condition_to_text(expr)) == expr
