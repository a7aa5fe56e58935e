"""Decision-node condition language over execution histories.

Conditions branch the control flow of a feedback loop using counter and
timing information about its past runs.  Atoms:

  executions(op)            completed executions of op, all runs incl. current
  executions(op -> exit)    ditto, restricted to one exit status
  runsSince(op -> exit)     runs started after the most recent run containing
                            a matching execution, counting the current run;
                            +inf if it never happened
  secondsSince(op)          now - end of the most recent execution; +inf never
  secondsSince(op -> exit)  ditto, restricted to one exit status
  runCount()                number of runs including the current one

Atoms are numeric (extended reals), combined with comparisons and the
boolean connectives and/or/not.  A condition as a whole must be boolean.

Runs aborted by an engine error do not contribute matches: a failed run
must not be counted as a success by any condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Union

from .diagnostics import Diagnostic, SourceSpan, error

ATOM_NAMES = ("executions", "runsSince", "secondsSince", "runCount")
COMPARE_OPS = ("<", "<=", "==", "!=", ">=", ">")


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Atom:
    func: str                 # one of ATOM_NAMES
    op: str | None = None     # operation name, None only for runCount
    exit: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Compare:
    op: str                   # one of COMPARE_OPS
    left: "ConditionExpr"
    right: "ConditionExpr"


@dataclass(frozen=True)
class BoolOp:
    op: str                   # "and" | "or"
    items: tuple["ConditionExpr", ...]


@dataclass(frozen=True)
class Not:
    item: "ConditionExpr"


ConditionExpr = Union[Number, Atom, Compare, BoolOp, Not]


class HistoryView(Protocol):
    """What a condition needs to know about an instance's execution history."""

    def executions(self, op: str, exit: str | None = None) -> int: ...

    def runs_since(self, op: str, exit: str) -> float: ...

    def seconds_since(self, op: str, exit: str | None, now: float) -> float: ...

    def run_count(self) -> int: ...


# --- parsing -----------------------------------------------------------------

_PUNCT = ("->", "(", ")", "<=", ">=", "==", "!=", "<", ">")


def _tokenize(text: str, filename: str) -> list[tuple[str, str, int]] | Diagnostic:
    """Return (kind, value, column) tokens or a syntax diagnostic."""
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, i + 1))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("number", text[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            # '-' is legal inside identifiers, but never as part of '->'
            while j < n and (text[j].isalnum() or text[j] == "_"
                             or (text[j] == "-" and not text.startswith("->", j))):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
            continue
        return error("E-SYNTAX", f"unexpected character {c!r} in condition",
                     span=SourceSpan(filename, 1, i + 1, 1, i + 1))
    tokens.append(("eof", "", n + 1))
    return tokens


class _CondParser:
    def __init__(self, tokens: list[tuple[str, str, int]], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> Diagnostic:
        col = self.peek()[2]
        return Diagnostic("error", "E-SYNTAX", message,
                          span=SourceSpan(self.filename, 1, col, 1, col))

    def expect(self, value: str) -> Diagnostic | None:
        kind, got, _ = self.peek()
        if got != value:
            return self.fail(f"expected {value!r}, found {got or 'end of input'!r}")
        self.take()
        return None

    # expr := or_expr ; boolean required at top level
    def parse(self) -> ConditionExpr | Diagnostic:
        expr = self.or_expr()
        if isinstance(expr, Diagnostic):
            return expr
        if self.peek()[0] != "eof":
            return self.fail(f"unexpected trailing input {self.peek()[1]!r}")
        if not _is_boolean(expr):
            return self.fail("condition must be a boolean expression")
        return expr

    def or_expr(self) -> ConditionExpr | Diagnostic:
        items = []
        first = self.and_expr()
        if isinstance(first, Diagnostic):
            return first
        items.append(first)
        while self.peek()[1] == "or":
            self.take()
            nxt = self.and_expr()
            if isinstance(nxt, Diagnostic):
                return nxt
            items.append(nxt)
        return items[0] if len(items) == 1 else BoolOp("or", tuple(items))

    def and_expr(self) -> ConditionExpr | Diagnostic:
        items = []
        first = self.not_expr()
        if isinstance(first, Diagnostic):
            return first
        items.append(first)
        while self.peek()[1] == "and":
            self.take()
            nxt = self.not_expr()
            if isinstance(nxt, Diagnostic):
                return nxt
            items.append(nxt)
        return items[0] if len(items) == 1 else BoolOp("and", tuple(items))

    def not_expr(self) -> ConditionExpr | Diagnostic:
        if self.peek()[1] == "not":
            self.take()
            inner = self.not_expr()
            if isinstance(inner, Diagnostic):
                return inner
            if not _is_boolean(inner):
                return self.fail("'not' applies to a boolean expression")
            return Not(inner)
        return self.comparison()

    def comparison(self) -> ConditionExpr | Diagnostic:
        left = self.value()
        if isinstance(left, Diagnostic):
            return left
        kind, val, _ = self.peek()
        if kind == "punct" and val in COMPARE_OPS:
            self.take()
            right = self.value()
            if isinstance(right, Diagnostic):
                return right
            if _is_boolean(left) or _is_boolean(right):
                return self.fail("comparison operands must be numeric")
            return Compare(val, left, right)
        return left

    def value(self) -> ConditionExpr | Diagnostic:
        kind, val, col = self.peek()
        if val == "(":
            self.take()
            inner = self.or_expr()
            if isinstance(inner, Diagnostic):
                return inner
            err = self.expect(")")
            return err if err else inner
        if kind == "number":
            self.take()
            try:
                return Number(float(val))
            except ValueError:
                return self.fail(f"bad number literal {val!r}")
        if kind == "ident" and val in ATOM_NAMES:
            return self.atom()
        if kind == "ident":
            return self.fail(f"unknown atom {val!r}")
        return self.fail(f"expected a value, found {val or 'end of input'!r}")

    def atom(self) -> ConditionExpr | Diagnostic:
        _, func, col = self.take()
        err = self.expect("(")
        if err:
            return err
        if func == "runCount":
            err = self.expect(")")
            if err:
                return err
            return Atom("runCount", span=self._span(col))
        kind, op_name, _ = self.peek()
        if kind != "ident":
            return self.fail(f"{func}() needs an operation name")
        self.take()
        exit_name = None
        if self.peek()[1] == "->":
            self.take()
            kind, exit_name, _ = self.peek()
            if kind != "ident":
                return self.fail(f"{func}() needs an exit name after '->'")
            self.take()
        if func == "runsSince" and exit_name is None:
            return self.fail("runsSince() requires an 'op -> exit' argument")
        err = self.expect(")")
        if err:
            return err
        return Atom(func, op_name, exit_name, span=self._span(col))

    def _span(self, col: int) -> SourceSpan:
        return SourceSpan(self.filename, 1, col, 1, col)


def parse_condition(text: str, filename: str = "<condition>") -> ConditionExpr | Diagnostic:
    """Parse a condition string; returns the AST or a single diagnostic."""
    tokens = _tokenize(text, filename)
    if isinstance(tokens, Diagnostic):
        return tokens
    return _CondParser(tokens, filename).parse()


def _is_boolean(expr: ConditionExpr) -> bool:
    return isinstance(expr, (Compare, BoolOp, Not))


def atoms_of(expr: ConditionExpr) -> list[Atom]:
    if isinstance(expr, Atom):
        return [expr]
    if isinstance(expr, Compare):
        return atoms_of(expr.left) + atoms_of(expr.right)
    if isinstance(expr, BoolOp):
        return [a for item in expr.items for a in atoms_of(item)]
    if isinstance(expr, Not):
        return atoms_of(expr.item)
    return []


def condition_to_text(expr: ConditionExpr) -> str:
    """Canonical textual form; parse(condition_to_text(e)) == e."""
    return _render(expr, 0)


# precedence levels: or=1, and=2, not=3, cmp=4, value=5
def _render(expr: ConditionExpr, parent_level: int) -> str:
    if isinstance(expr, Number):
        return f"{expr.value:g}"
    if isinstance(expr, Atom):
        if expr.func == "runCount":
            return "runCount()"
        inner = expr.op if expr.exit is None else f"{expr.op} -> {expr.exit}"
        return f"{expr.func}({inner})"
    if isinstance(expr, Compare):
        text = f"{_render(expr.left, 5)} {expr.op} {_render(expr.right, 5)}"
        return f"({text})" if parent_level >= 4 else text
    if isinstance(expr, Not):
        return f"not {_render(expr.item, 3)}"
    if isinstance(expr, BoolOp):
        level = 2 if expr.op == "and" else 1
        text = f" {expr.op} ".join(_render(item, level) for item in expr.items)
        return f"({text})" if parent_level >= level else text
    raise TypeError(f"not a condition expression: {expr!r}")


# --- evaluation --------------------------------------------------------------

def eval_condition(expr: ConditionExpr, history: HistoryView, now: float) -> bool:
    """Evaluate a validated condition; total, pure in (expr, history, now)."""
    result = _eval(expr, history, now)
    assert isinstance(result, bool)
    return result


def _eval(expr: ConditionExpr, history: HistoryView, now: float) -> float | bool:
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Atom):
        if expr.func == "runCount":
            return float(history.run_count())
        if expr.func == "executions":
            return float(history.executions(expr.op, expr.exit))
        if expr.func == "runsSince":
            return history.runs_since(expr.op, expr.exit)
        if expr.func == "secondsSince":
            return history.seconds_since(expr.op, expr.exit, now)
        raise ValueError(f"unknown atom {expr.func}")
    if isinstance(expr, Compare):
        left = _eval(expr.left, history, now)
        right = _eval(expr.right, history, now)
        return {
            "<": left < right, "<=": left <= right,
            "==": left == right, "!=": left != right,
            ">=": left >= right, ">": left > right,
        }[expr.op]
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            return all(_eval(item, history, now) for item in expr.items)
        return any(_eval(item, history, now) for item in expr.items)
    if isinstance(expr, Not):
        return not _eval(expr.item, history, now)
    raise TypeError(f"not a condition expression: {expr!r}")


def compile_condition(expr: ConditionExpr):
    """Compile to a `(history, now) -> bool` closure; equals eval_condition."""
    if isinstance(expr, Number):
        value = expr.value
        return lambda h, now: value
    if isinstance(expr, Atom):
        op, exit = expr.op, expr.exit
        if expr.func == "runCount":
            return lambda h, now: float(h.run_count())
        if expr.func == "executions":
            return lambda h, now: float(h.executions(op, exit))
        if expr.func == "runsSince":
            return lambda h, now: h.runs_since(op, exit)
        if expr.func == "secondsSince":
            return lambda h, now: h.seconds_since(op, exit, now)
        raise ValueError(f"unknown atom {expr.func}")
    if isinstance(expr, Compare):
        left, right = compile_condition(expr.left), compile_condition(expr.right)
        cmp = expr.op
        if cmp == "<":
            return lambda h, now: left(h, now) < right(h, now)
        if cmp == "<=":
            return lambda h, now: left(h, now) <= right(h, now)
        if cmp == "==":
            return lambda h, now: left(h, now) == right(h, now)
        if cmp == "!=":
            return lambda h, now: left(h, now) != right(h, now)
        if cmp == ">=":
            return lambda h, now: left(h, now) >= right(h, now)
        return lambda h, now: left(h, now) > right(h, now)
    if isinstance(expr, BoolOp):
        items = [compile_condition(item) for item in expr.items]
        if expr.op == "and":
            return lambda h, now: all(item(h, now) for item in items)
        return lambda h, now: any(item(h, now) for item in items)
    if isinstance(expr, Not):
        inner = compile_condition(expr.item)
        return lambda h, now: not inner(h, now)
    raise TypeError(f"not a condition expression: {expr!r}")

