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
boolean connectives and/or/not, whose operands must be boolean.  A
condition as a whole must be boolean.

Runs aborted by an engine error do not contribute matches: a failed run
must not be counted as a success by any condition.

`compile_condition` is the one evaluator.  `compile_condition(expr,
history)` resolves every atom to that `ExecutionHistory`'s index cells and
run list once and returns a `now -> bool` closure in which an atom is an
attribute read and a subtraction, not a method call or a dictionary lookup.
Without a history it returns the binder `history -> closure`, which is how
the engine binds each branch condition when it builds an instance's
routes; `eval_condition` compiles, binds and calls.  The tree-walking evaluator it
replaced is kept in `tests/conftest.py` as the oracle the compiled closures
are checked against.
"""

from __future__ import annotations

import math
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
    """What a condition binds to: an instance's run records and index cells.

    `ExecutionHistory` is the implementation; a cell has `count`, `last_run`
    and `last_end`, and stays the same object for the history's lifetime.
    """

    runs: list

    def cell(self, op: str, exit: str | None = None): ...


# --- parsing -----------------------------------------------------------------

_PUNCT = ("->", "(", ")", "<=", ">=", "==", "!=", "<", ">")
MAX_NESTING = 64  # '(' and 'not' open at once; deeper text is a syntax error


class _SyntaxFailure(Exception):
    """(message, column) of the first syntax error; parse_condition reports it."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, column) tokens, ending with an "eof" token."""
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        punct = next((p for p in _PUNCT if text.startswith(p, i)), None)
        if punct is not None:
            tokens.append(("punct", punct, i + 1))
            i += len(punct)
        elif c.isdigit() or (c == "." and text[i + 1:i + 2].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("number", text[i:j], i + 1))
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            # '-' is legal inside identifiers, but never as part of '->'
            while j < n and (text[j].isalnum() or text[j] == "_"
                             or (text[j] == "-" and not text.startswith("->", j))):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
        else:
            raise _SyntaxFailure(f"unexpected character {c!r} in condition", i + 1)
    tokens.append(("eof", "", n + 1))
    return tokens


class _CondParser:
    def __init__(self, tokens: list[tuple[str, str, int]], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0  # '(' and 'not' currently open

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, column: int | None = None) -> _SyntaxFailure:
        return _SyntaxFailure(message, self.peek()[2] if column is None else column)

    def expect(self, value: str) -> None:
        got = self.peek()[1]
        if got != value:
            raise self.fail(f"expected {value!r}, found {got or 'end of input'!r}")
        self.take()

    def name(self, message: str) -> str:
        kind, value, _ = self.peek()
        if kind != "ident":
            raise self.fail(message)
        self.take()
        return value

    def nest(self) -> None:
        """Take a '(' or 'not', refusing to open more than MAX_NESTING at once."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"condition nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        self.take()

    # expr := or_expr ; boolean required at top level
    def parse(self) -> ConditionExpr:
        expr = self.or_expr()
        if self.peek()[0] != "eof":
            raise self.fail(f"unexpected trailing input {self.peek()[1]!r}")
        if not _is_boolean(expr):
            raise self.fail("condition must be a boolean expression")
        return expr

    def or_expr(self) -> ConditionExpr:
        return self.chain("or", self.and_expr)

    def and_expr(self) -> ConditionExpr:
        return self.chain("and", self.not_expr)

    def chain(self, op: str, operand) -> ConditionExpr:
        """`operand (op operand)*`; every operand of a connective must be boolean."""
        items = [operand()]
        while self.peek()[1] == op:
            self.boolean_operand(items[-1], op)
            self.take()
            items.append(operand())
        if len(items) == 1:
            return items[0]
        self.boolean_operand(items[-1], op)
        return BoolOp(op, tuple(items))

    def boolean_operand(self, item: ConditionExpr, op: str) -> None:
        if not _is_boolean(item):
            raise self.fail(f"'{op}' applies to boolean expressions")

    def not_expr(self) -> ConditionExpr:
        if self.peek()[1] != "not":
            return self.comparison()
        self.nest()
        inner = self.not_expr()
        self.depth -= 1
        if not _is_boolean(inner):
            raise self.fail("'not' applies to a boolean expression")
        return Not(inner)

    def comparison(self) -> ConditionExpr:
        left = self.value()
        kind, val, _ = self.peek()
        if kind != "punct" or val not in COMPARE_OPS:
            return left
        self.take()
        right = self.value()
        if _is_boolean(left) or _is_boolean(right):
            raise self.fail("comparison operands must be numeric")
        return Compare(val, left, right)

    def value(self) -> ConditionExpr:
        kind, val, col = self.peek()
        if val == "(":
            self.nest()
            inner = self.or_expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if kind == "number":
            self.take()
            try:
                return Number(float(val))
            except ValueError:
                raise self.fail(f"bad number literal {val!r}", col) from None
        if kind == "ident" and val in ATOM_NAMES:
            return self.atom()
        if kind == "ident":
            raise self.fail(f"unknown atom {val!r}")
        raise self.fail(f"expected a value, found {val or 'end of input'!r}")

    def atom(self) -> Atom:
        _, func, col = self.take()
        self.expect("(")
        op_name = exit_name = None
        if func != "runCount":
            op_name = self.name(f"{func}() needs an operation name")
            if self.peek()[1] == "->":
                self.take()
                exit_name = self.name(f"{func}() needs an exit name after '->'")
            if func == "runsSince" and exit_name is None:
                raise self.fail("runsSince() requires an 'op -> exit' argument")
        self.expect(")")
        return Atom(func, op_name, exit_name, span=SourceSpan(self.filename, 1, col, 1, col))


def parse_condition(text: str, filename: str = "<condition>") -> ConditionExpr | Diagnostic:
    """Parse a condition string; returns the AST or a single diagnostic."""
    try:
        return _CondParser(_tokenize(text), filename).parse()
    except _SyntaxFailure as failure:
        message, col = failure.args
        return error("E-SYNTAX", message, span=SourceSpan(filename, 1, col, 1, col))


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
        return number_text(expr.value)
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


def number_text(value: float) -> str:
    """A literal the lexer reads back as `value`: whole values as integers,
    others in positional notation (the lexer has no exponents).  The
    control channel's `step` reply renders times the same way."""
    if value.is_integer():
        return str(int(value))
    if value == math.inf:
        return "1" + "0" * 309  # a whole literal past the float range reads as inf
    mantissa, _, exponent = repr(value).partition("e")
    if not exponent:
        return mantissa
    # only values below 1e-4 print with an exponent: every float from 2**53 up is whole
    return "0." + "0" * (-int(exponent) - 1) + mantissa.replace(".", "")


# --- evaluation --------------------------------------------------------------

def eval_condition(expr: ConditionExpr, history: HistoryView, now: float) -> bool:
    """Evaluate a validated condition; total, pure in (expr, history, now)."""
    return compile_condition(expr, history)(now)


def compile_condition(expr: ConditionExpr, history: HistoryView | None = None):
    """The condition as a `now -> bool` closure over `history`'s cells, or
    without a history the binder `history -> closure`."""
    if history is None:
        return lambda history: _bind(expr, history)
    return _bind(expr, history)


def _bind(expr: ConditionExpr, history: HistoryView):
    if isinstance(expr, Number):
        value = expr.value
        return lambda now: value
    if isinstance(expr, Atom):
        runs = history.runs
        if expr.func == "runCount":
            return lambda now: len(runs)
        cell = history.cell(expr.op, expr.exit)
        if expr.func == "executions":
            return lambda now: cell.count
        if expr.func == "runsSince":
            return lambda now: len(runs) - 1 - cell.last_run
        if expr.func == "secondsSince":
            return lambda now: now - cell.last_end
        raise ValueError(f"unknown atom {expr.func}")
    if isinstance(expr, Compare):
        left, right = _bind(expr.left, history), _bind(expr.right, history)
        cmp = expr.op
        if cmp == "<":
            return lambda now: left(now) < right(now)
        if cmp == "<=":
            return lambda now: left(now) <= right(now)
        if cmp == "==":
            return lambda now: left(now) == right(now)
        if cmp == "!=":
            return lambda now: left(now) != right(now)
        if cmp == ">=":
            return lambda now: left(now) >= right(now)
        return lambda now: left(now) > right(now)
    if isinstance(expr, BoolOp):
        items = [_bind(item, history) for item in expr.items]
        if expr.op == "and":
            return lambda now: all(item(now) for item in items)
        return lambda now: any(item(now) for item in items)
    if isinstance(expr, Not):
        inner = _bind(expr.item, history)
        return lambda now: not inner(now)
    raise TypeError(f"not a condition expression: {expr!r}")
