"""Shared fixtures: paths, engine builders, and independent test oracles."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest
from hypothesis import settings

from megaloop import bench, dsl, load_fld_dir
from megaloop.clock import VirtualClock
from megaloop.history import ABORT_STATE
from megaloop.model import (ControlState, DecisionBranch, DecisionNode, Endpoint,
                            EventTypeRegistry, FlowEdge, Megamodel, ModelSlot, ModelUsage,
                            Operation)
from megaloop.runtime import Engine
from megaloop.conditions import (Atom, BoolOp, Compare, Not, Number,
                                 parse_condition)

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
FLD_DIR = FIXTURES / "flds"
LD_DIR = FIXTURES / "lds"
PATCH_DIR = FIXTURES / "patches"
SCENARIO_DIR = FIXTURES / "scenarios"


@pytest.fixture(scope="session")
def registry():
    return load_fld_dir(FLD_DIR)


def scripted_loop_engine(exits: dict, **engine_options) -> Engine:
    """The benchmark's five-operation loop on a virtual clock, over scripted mocks.

    Each mock returns `exits[op]` as it stands when the mock is called, and
    raises it instead when it is an exception.
    """
    def mock(op):
        def impl(ctx, models):
            exit = exits[op]
            if isinstance(exit, Exception):
                raise exit
            return exit
        return impl

    engine = Engine(clock=VirtualClock(), software={"bench-system": object()},
                    default_ops={op: mock(op) for op in bench.OP_ORDER},
                    event_types=EventTypeRegistry(), **engine_options)
    engine.registry["Self-repair"] = dsl.parse_fld(bench.LOOP_FLD, "<loop>").unwrap()
    engine.load_architecture(dsl.parse_ld(bench.LOOP_LD, "<loop>").unwrap())
    return engine


# --- independent recount oracle over raw run records --------------------------------

class BruteForceView:
    """Naive full-scan evaluation of every condition atom.

    Completely independent of the incremental index: it only reads the raw
    run records, skipping aborted runs.
    """

    def __init__(self, runs):
        self.runs = [r for r in runs]

    def _live(self):
        return (r for r in self.runs if r.final_state != ABORT_STATE)

    def run_count(self) -> int:
        return len(self.runs)

    def executions(self, op, exit=None) -> int:
        total = 0
        for run in self._live():
            for ex in run.op_executions:
                if ex.op == op and (exit is None or ex.exit == exit):
                    total += 1
        return total

    def runs_since(self, op, exit) -> float:
        last = None
        for run in self._live():
            if any(ex.op == op and ex.exit == exit for ex in run.op_executions):
                last = run.index
        if last is None:
            return math.inf
        return float(self.runs[-1].index - last)

    def seconds_since(self, op, exit, now) -> float:
        best = None
        for run in self._live():
            for ex in run.op_executions:
                if ex.op == op and (exit is None or ex.exit == exit):
                    if best is None or ex.end > best:
                        best = ex.end
        return math.inf if best is None else now - best

    def exit_counts(self) -> dict:
        out: dict = {}
        for run in self._live():
            for ex in run.op_executions:
                counts = out.setdefault(ex.op, {})
                counts[ex.exit] = counts.get(ex.exit, 0) + 1
        return out


def tree_eval(expr, history, now):
    """The tree-walking evaluator that `compile_condition` replaced.

    Kept as an oracle for the compiled closures: it walks the AST on every
    call and shares no code with the compiler.
    """
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
        left = tree_eval(expr.left, history, now)
        right = tree_eval(expr.right, history, now)
        return {
            "<": left < right, "<=": left <= right,
            "==": left == right, "!=": left != right,
            ">=": left >= right, ">": left > right,
        }[expr.op]
    if isinstance(expr, BoolOp):
        if expr.op == "and":
            return all(tree_eval(item, history, now) for item in expr.items)
        return any(tree_eval(item, history, now) for item in expr.items)
    if isinstance(expr, Not):
        return not tree_eval(expr.item, history, now)
    raise TypeError(f"not a condition expression: {expr!r}")


# --- random valid megamodel generator ------------------------------------------------

STEREO_MODELS = (None, "MonitoringModel", "ReflectionModel", "EvaluationModel",
                 "ChangeModel", "AdaptationModel", "ExecutionModel",
                 "CausalConnectionModel")
STEREO_OPS = (None, "Monitor", "Analyze", "Plan", "Execute")
USAGES = ("read", "write", "annotate", "create", "destroy")


def random_megamodel(rng: random.Random) -> Megamodel:
    """Generate a structurally valid megamodel (check_megamodel returns [])."""
    mm = Megamodel(f"Gen-{rng.randrange(10**6)}")
    for i in range(rng.randint(0, 3)):
        mm.slots.append(ModelSlot(f"slot_{i}", rng.choice(STEREO_MODELS)))
    initials = [f"in_{i}" for i in range(rng.randint(1, 3))]
    finals = [f"fin_{i}" for i in range(rng.randint(1, 3))]
    for name in initials:
        mm.states.append(ControlState(name, "initial"))
    for idx, name in enumerate(finals):
        destruction = idx == 0 and rng.random() < 0.2
        display = "The final state" if rng.random() < 0.2 else None
        mm.states.append(ControlState(name, "final", destruction, display))
    for i in range(rng.randint(1, 5)):
        kind = "complex" if rng.random() < 0.25 else "basic"
        entries = ()
        if kind == "complex" and rng.random() < 0.5:
            entries = tuple(f"en{i}_{j}" for j in range(rng.randint(1, 2)))
        exits = tuple(f"ex{i}_{j}" for j in range(rng.randint(1, 3)))
        usages = [ModelUsage(rng.choice(USAGES), rng.choice(mm.slots).name)
                  for _ in range(rng.randint(0, 3)) if mm.slots]
        mm.operations.append(Operation(f"op_{i}", kind, rng.choice(STEREO_OPS),
                                       entries, exits, usages))
    for i in range(rng.randint(0, 2)):
        op = rng.choice(mm.operations)
        exit = rng.choice(op.exits)
        cond = rng.choice([
            f"runsSince({op.name} -> {exit}) > {rng.randint(0, 9)}",
            f"executions({op.name}) >= {rng.randint(0, 5)} and runCount() < 100",
            f"secondsSince({op.name}) > {rng.randint(1, 60)} or not runCount() == 0",
        ])
        branches = [DecisionBranch(parse_condition(cond), _random_target(rng, mm)),
                    DecisionBranch(None, _random_target(rng, mm))]
        mm.decisions.append(DecisionNode(f"dec_{i}", branches))
    for state in initials:
        mm.flows.append(FlowEdge(Endpoint(state), _random_target(rng, mm)))
    for op in mm.operations:
        for exit in op.exits:
            mm.flows.append(FlowEdge(Endpoint(op.name, exit), _random_target(rng, mm)))
    return mm


def _random_target(rng: random.Random, mm: Megamodel) -> Endpoint:
    choices = [Endpoint(s.name) for s in mm.states if s.role == "final"]
    for op in mm.operations:
        if op.entries:
            choices.extend(Endpoint(op.name, entry) for entry in op.entries)
        else:
            choices.append(Endpoint(op.name))
    choices.extend(Endpoint(d.name) for d in mm.decisions)
    return rng.choice(choices)


# --- reference lexer ------------------------------------------------------------------

_PUNCT = ("->", "<-", "<<", ">>", "{", "}", "[", "]", ".", ",", ";", ":", "=")


def char_loop_tokens(text: str) -> list[tuple]:
    """The character-by-character tokenizer that `dsl.tokenize` replaced.

    Kept as an oracle for the one-pass lexer.  Yields one
    `(kind, value, line, column, end_line, end_column)` tuple per token; a
    lexical error ends the list with `("error", message, line, column, ...)`.
    """
    tokens: list[tuple] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def tok(kind: str, value: str, length: int) -> tuple:
        return (kind, value, line, col, line, col + length - 1)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        punct = next((p for p in _PUNCT if text.startswith(p, i)), None)
        if punct is not None:
            tokens.append(tok("punct", punct, len(punct)))
            i += len(punct)
            col += len(punct)
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append({"n": "\n", "t": "\t"}.get(text[j + 1], text[j + 1]))
                    j += 2
                elif text[j] == "\n":
                    break
                else:
                    out.append(text[j])
                    j += 1
            if j >= n or text[j] != '"':
                return tokens + [tok("error", "unterminated string", 1)]
            length = j - i + 1
            tokens.append(tok("string", "".join(out), length))
            i = j + 1
            col += length
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(tok("number", text[i:j], j - i))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"
                             or (text[j] == "-" and not text.startswith("->", j))):
                j += 1
            tokens.append(tok("ident", text[i:j], j - i))
            col += j - i
            i = j
            continue
        return tokens + [tok("error", f"unexpected character {c!r}", 1)]
    tokens.append(("eof", "", line, col, line, col))
    return tokens
