"""Textual syntax for feedback-loop megamodels (.fld) and architectures (.ld).

Line-oriented block grammar, chosen for hand-authoring and diffable
snapshots.  Identifiers are `[A-Za-z_][A-Za-z0-9_-]*`; display names with
spaces are attached with `as "..."`.  Comments run from `#` to end of line.
Parsing never yields a partial document: the result carries either a
validated value or diagnostics.

The lexer is one pass of a compiled pattern over the text: whitespace and
comments are skipped inside the match, and a token keeps only its kind,
value and source offsets.  A `SourceSpan` is built on demand, from a
line-start table, for the tokens the parser stores on an element or names
in a diagnostic; columns count characters, so a tab or a `\r` is one.

Serialization is canonical: category order is fixed (models, states,
operations, decisions, flows), declaration order is preserved within each
category, and whitespace is normalized, so serialize(parse(x)) is a
fixpoint.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Generic, NamedTuple, TypeVar

from . import conditions
from .diagnostics import Diagnostic, SourceSpan, error, has_errors
from .model import (ArchitectureDecl, ControlState, DecisionBranch, DecisionNode,
                    Endpoint, EffectEdge, FlowEdge, Layer, Megamodel, ModelBinding,
                    ModelSlot, ModelUsage, ModuleDecl, Operation, SenseEdge, UseEdge,
                    check_megamodel)
from .triggers import parse_trigger

T = TypeVar("T")

MAX_LITERAL_NESTING = 64  # '{' and '[' open at once in a literal document

_USAGE_KEYWORDS = {
    "creates": "create", "destroys": "destroy", "writes": "write",
    "reads": "read", "annotates": "annotate",
}
_USAGE_WORDS = {v: k for k, v in _USAGE_KEYWORDS.items()}


@dataclass
class ParseResult(Generic[T]):
    """Either a parsed value or the diagnostics that prevented one."""

    value: T | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.value is not None and not has_errors(self.diagnostics)

    def unwrap(self) -> T:
        if not self.ok:
            raise ValueError("parse failed:\n" + "\n".join(str(d) for d in self.diagnostics))
        return self.value


# --- lexer ---------------------------------------------------------------------

# One pass over the text: each match skips whitespace and comments, then
# takes one token.  The group that matched names the token kind.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | \#[^\n]* )*
    (?: ( -> | <- | << | >> | [{}\[\].,;:=] )            # 1 punct
      | " ( [^"\\\n]* (?: \\[\s\S] [^"\\\n]* )* ) "     # 2 string body
      | ( \d[\d.]* )                                     # 3 number
      | ( [^\W\d] \w* (?: -(?!>) \w* )* )               # 4 ident (a hyphen, never an arrow)
      | ( \Z )                                           # 5 end of text
      | ( [\s\S] )                                       # 6 anything else is an error
    )""", re.VERBOSE)
_KINDS = (None, "punct", "string", "number", "ident")
_WORD_KINDS = ("ident", "punct")  # kinds a keyword or punctuation match accepts
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    kind: str   # ident | string | number | punct | eof
    value: str  # a string token holds its unescaped body
    start: int  # offset of the token's first source character
    end: int    # offset just past its last source character


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class SpanMap:
    """Maps token offsets of one document to SourceSpans by a line-start table."""

    __slots__ = ("filename", "_starts")

    def __init__(self, text: str, filename: str):
        self.filename = filename
        starts = [0]
        find = text.find
        i = find("\n")
        while i >= 0:
            starts.append(i + 1)
            i = find("\n", i + 1)
        self._starts = starts

    def span(self, start: int, end: int) -> SourceSpan:
        """The 1-based span of [start, end), measured on the start line."""
        line = bisect_right(self._starts, start)
        column = start - self._starts[line - 1] + 1
        return SourceSpan(self.filename, line, column, line,
                          column + max(end - start, 1) - 1)


def tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without the call frame of Token(...)
    ascii_only = text.isascii()
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 2:
            value = m[2]
            if "\\" in value:
                value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), value)
            start, end = m.span(2)
            append(new(Token, ("string", value, start - 1, end + 1)))
        elif group < 5:
            start, end = m.span(group)
            value = m[group]
            if group == 4 and not ascii_only and not (value[0].isalpha() or value[0] == "_"):
                # \w also admits numerals such as '½', which may not start a name
                raise _lex_error(text, filename, f"unexpected character {value[0]!r}", start)
            append(new(Token, (_KINDS[group], value, start, end)))
        elif group == 5:
            break
        else:
            char, start = m[6], m.start(6)
            message = "unterminated string" if char == '"' else f"unexpected character {char!r}"
            raise _lex_error(text, filename, message, start)
    # the end-of-file token sits at the '#' of a comment that ends the text
    # without a newline, else just past the last character
    tail = m.start()
    hash_at = text.find("#", max(tail, text.rfind("\n", tail) + 1))
    end = len(text) if hash_at < 0 else hash_at
    append(new(Token, ("eof", "", end, end)))
    return tokens


def _lex_error(text: str, filename: str, message: str, start: int) -> LexError:
    span = SpanMap(text, filename).span(start, start + 1)
    return LexError(error("E-SYNTAX", message, span=span))


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = tokenize(text, filename)
        self.pos = 0
        self.filename = filename
        self.spans = SpanMap(text, filename)

    def span(self, tok: Token) -> SourceSpan:
        return self.spans.span(tok.start, tok.end)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # Matched tokens are never the end-of-file token, so the matchers below
    # step past them without the check in `take`.

    def at(self, value: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.value == value and tok.kind in _WORD_KINDS

    def accept(self, value: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.value == value and tok.kind in _WORD_KINDS:
            self.pos += 1
            return tok
        return None

    def fail(self, message: str) -> LexError:
        return LexError(error("E-SYNTAX", message, span=self.span(self.peek())))

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != value or tok.kind not in _WORD_KINDS:
            raise self.fail(f"expected {value!r}, found {tok.value or 'end of file'!r}")
        self.pos += 1
        return tok

    def ident(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.value or 'end of file'!r}")
        self.pos += 1
        return tok

    def string(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "string":
            raise self.fail(f"expected {what} string, found {tok.value or 'end of file'!r}")
        self.pos += 1
        return tok

    def number(self, what: str, convert: Callable[[str], float] = float) -> float:
        """Take a number token as `convert` reads it; a literal it refuses is E-SYNTAX."""
        tok = self.tokens[self.pos]
        if tok.kind != "number":
            raise self.fail(f"expected {what}, found {tok.value or 'end of file'!r}")
        try:
            value = convert(tok.value)
        except ValueError:
            raise self.fail(f"bad {what} {tok.value!r}") from None
        self.pos += 1
        return value

    def display(self) -> str | None:
        if self.accept("as"):
            return self.string("display name").value
        return None

    def endpoint(self) -> Endpoint:
        node = self.ident("endpoint name")
        if self.accept("."):
            comp = self.ident("compartment name")
            return Endpoint(node.value, comp.value)
        return Endpoint(node.value)


# --- .fld -----------------------------------------------------------------------

def parse_fld(text: str, filename: str = "<fld>") -> ParseResult[Megamodel]:
    """Parse one megamodel; on success the result passes check_megamodel."""
    try:
        parser = _Parser(text, filename)
        mm = _parse_megamodel(parser)
    except LexError as exc:
        return ParseResult(None, [exc.diagnostic])
    diags = check_megamodel(mm)
    if has_errors(diags):
        return ParseResult(None, diags)
    return ParseResult(mm, diags)


def _parse_megamodel(p: _Parser) -> Megamodel:
    mm = parse_megamodel_block(p)
    if p.peek().kind != "eof":
        raise p.fail("trailing input after megamodel block (one megamodel per file)")
    return mm


def parse_megamodel_block(p: _Parser) -> Megamodel:
    """Parse `megamodel STRING { ... }` from the current token position."""
    start = p.span(p.expect("megamodel"))
    name = p.string("megamodel name").value
    mm = Megamodel(name, span=start)
    p.expect("{")
    while not p.at("}"):
        tok = p.peek()
        if tok.kind == "eof":
            raise p.fail("unexpected end of file inside megamodel block")
        if p.accept("model"):
            ident = p.ident("model name")
            display = p.display()
            stereotype = None
            if p.accept(":"):
                stereotype = p.ident("model stereotype").value
            ref = bool(p.accept("megamodel-ref"))
            mm.slots.append(ModelSlot(ident.value, stereotype, ref, display, p.span(ident)))
        elif tok.value in ("initial", "final", "destruction"):
            role = p.take().value
            ident = p.ident("state name")
            display = p.display()
            mm.states.append(ControlState(
                ident.value, "final" if role == "destruction" else role,
                destruction=role == "destruction", display=display, span=p.span(ident)))
        elif tok.value in ("operation", "complex"):
            mm.operations.append(_parse_operation(p))
        elif p.accept("decision"):
            mm.decisions.append(_parse_decision(p))
        elif p.accept("flow"):
            src = p.endpoint()
            arrow = p.expect("->")
            dst = p.endpoint()
            mm.flows.append(FlowEdge(src, dst, p.span(arrow)))
        else:
            raise p.fail(f"unexpected {tok.value!r} in megamodel block")
    p.expect("}")
    return mm


def _parse_operation(p: _Parser) -> Operation:
    kind = "complex" if p.take().value == "complex" else "basic"
    ident = p.ident("operation name")
    display = p.display()
    stereotype = None
    if p.accept("<<"):
        stereotype = p.ident("stereotype").value
        p.expect(">>")
    op = Operation(ident.value, kind, stereotype, display=display, span=p.span(ident))
    p.expect("{")
    if p.accept("entries"):
        op.entries = tuple(_ident_list(p))
    if p.accept("exits"):
        op.exits = tuple(_ident_list(p))
    while p.peek().value in _USAGE_KEYWORDS:
        keyword = p.take()
        slot = p.ident("model name")
        op.usages.append(ModelUsage(_USAGE_KEYWORDS[keyword.value], slot.value, p.span(slot)))
    p.expect("}")
    return op


def _ident_list(p: _Parser) -> list[str]:
    p.expect("{")
    names = [p.ident("name").value]
    while p.accept(","):
        names.append(p.ident("name").value)
    p.expect("}")
    return names


def _parse_decision(p: _Parser) -> DecisionNode:
    ident = p.ident("decision name")
    dec = DecisionNode(ident.value, span=p.span(ident))
    p.expect("{")
    while p.at("when"):
        p.take()
        raw = p.string("condition")
        expr = conditions.parse_condition(raw.value, p.filename)
        if isinstance(expr, Diagnostic):
            expr.span = p.span(raw)
            raise LexError(expr)
        arrow = p.expect("->")
        dec.branches.append(DecisionBranch(expr, p.endpoint(), p.span(arrow)))
    p.expect("else")
    arrow = p.expect("->")
    dec.branches.append(DecisionBranch(None, p.endpoint(), p.span(arrow)))
    p.expect("}")
    return dec


def serialize_fld(mm: Megamodel) -> str:
    out = [f'megamodel {_quote(mm.name)} {{']
    for slot in mm.slots:
        line = f"  model {slot.name}{_as(slot.display)}"
        if slot.stereotype:
            line += f" : {slot.stereotype}"
        if slot.megamodel_ref:
            line += " megamodel-ref"
        out.append(line)
    for state in mm.states:
        role = "destruction" if state.destruction else state.role
        out.append(f"  {role} {state.name}{_as(state.display)}")
    for op in mm.operations:
        keyword = "complex" if op.kind == "complex" else "operation"
        stereo = f" <<{op.stereotype}>>" if op.stereotype else ""
        out.append(f"  {keyword} {op.name}{_as(op.display)}{stereo} {{")
        if op.entries:
            out.append("    entries { " + ", ".join(op.entries) + " }")
        out.append("    exits { " + ", ".join(op.exits) + " }")
        for usage in op.usages:
            out.append(f"    {_USAGE_WORDS[usage.kind]} {usage.slot}")
        out.append("  }")
    for dec in mm.decisions:
        out.append(f"  decision {dec.name} {{")
        for branch in dec.branches:
            if branch.condition is None:
                out.append(f"    else -> {branch.target}")
            else:
                cond = conditions.condition_to_text(branch.condition)
                out.append(f'    when "{cond}" -> {branch.target}')
        out.append("  }")
    for flow in mm.flows:
        out.append(f"  flow {flow.source} -> {flow.target}")
    out.append("}")
    return "\n".join(out) + "\n"


# --- .ld ------------------------------------------------------------------------

def parse_ld(text: str, filename: str = "<ld>") -> ParseResult[ArchitectureDecl]:
    """Parse one architecture; megamodel names stay unresolved until load."""
    try:
        parser = _Parser(text, filename)
        arch = _parse_architecture(parser)
    except LexError as exc:
        return ParseResult(None, [exc.diagnostic])
    return ParseResult(arch)


def _parse_architecture(p: _Parser) -> ArchitectureDecl:
    start = p.span(p.expect("architecture"))
    name = p.string("architecture name").value
    arch = ArchitectureDecl(name, span=start)
    p.expect("{")
    while not p.at("}"):
        tok = p.peek()
        if tok.kind == "eof":
            raise p.fail("unexpected end of file inside architecture block")
        if p.accept("layer"):
            index = p.number("layer index", int)
            layer = Layer(index, p.string("layer name").value)
            p.expect("{")
            while not p.at("}"):
                kw = p.peek().value
                if kw not in ("module", "software"):
                    raise p.fail(f"expected module or software, found {kw!r}")
                p.take()
                ident = p.ident("instance name")
                p.expect(":")
                source = p.string("source reference").value
                layer.modules.append(ModuleDecl(
                    ident.value, "megamodel" if kw == "module" else "software",
                    source, p.span(ident)))
            p.expect("}")
            arch.layers.append(layer)
        elif p.accept("use"):
            src = p.ident("module name")
            p.expect(".")
            op = p.ident("operation name")
            arrow = p.expect("->")
            target = p.ident("target module")
            arch.use_edges.append(UseEdge(src.value, op.value, target.value, p.span(arrow)))
        elif p.accept("sense"):
            src = p.ident("sensing module")
            p.expect("<-")
            sensed = p.ident("sensed module")
            p.expect("[")
            mode = p.ident("mode")
            if mode.value != "r":
                raise LexError(error("E-SYNTAX", "sense edges carry mode r",
                                     span=p.span(mode)))
            p.expect("]")
            trigger = None
            if p.accept("trigger"):
                raw = p.string("trigger")
                trigger = parse_trigger(raw.value, p.filename, p.span(raw))
                if isinstance(trigger, Diagnostic):
                    raise LexError(trigger)
            arch.sense_edges.append(SenseEdge(src.value, sensed.value, trigger, p.span(src)))
        elif p.accept("effect"):
            src = p.ident("effecting module")
            p.expect("->")
            effected = p.ident("effected module")
            p.expect("[")
            mode = p.ident("mode")
            if mode.value not in ("w", "a"):
                raise LexError(error("E-SYNTAX", "effect edges carry mode w or a",
                                     span=p.span(mode)))
            p.expect("]")
            arch.effect_edges.append(EffectEdge(src.value, effected.value, mode.value,
                                                p.span(src)))
        elif p.accept("bind-model"):
            module = p.ident("module name")
            p.expect(".")
            slot = p.ident("slot name")
            p.expect("->")
            target = p.ident("target instance")
            arch.model_bindings.append(ModelBinding(module.value, slot.value,
                                                    target.value, p.span(module)))
        else:
            raise p.fail(f"unexpected {tok.value!r} in architecture block")
    p.expect("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after architecture block (one architecture per file)")
    return arch


def serialize_ld(arch: ArchitectureDecl) -> str:
    out = [f'architecture {_quote(arch.name)} {{']
    for layer in sorted(arch.layers, key=lambda l: l.index):
        out.append(f"  layer {layer.index} {_quote(layer.name)} {{")
        for mod in layer.modules:
            keyword = "module" if mod.kind == "megamodel" else "software"
            out.append(f"    {keyword} {mod.instance_name} : {_quote(mod.source_ref)}")
        out.append("  }")
    for use in arch.use_edges:
        out.append(f"  use {use.source}.{use.op} -> {use.target}")
    for sense in arch.sense_edges:
        line = f"  sense {sense.source} <- {sense.sensed} [r]"
        if sense.trigger is not None:
            line += f' trigger "{sense.trigger.to_text()}"'
        out.append(line)
    for effect in arch.effect_edges:
        out.append(f"  effect {effect.source} -> {effect.effected} [{effect.mode}]")
    for binding in arch.model_bindings:
        out.append(f"  bind-model {binding.module}.{binding.slot} -> {binding.target}")
    out.append("}")
    return "\n".join(out) + "\n"


def parse_literal(p: _Parser, depth: int = 0):
    """Literal document: { key = value, ... }, [ ... ], strings, numbers, bools.

    At most MAX_LITERAL_NESTING '{' and '[' may be open at once."""
    tok = p.peek()
    if depth == MAX_LITERAL_NESTING and (p.at("{") or p.at("[")):
        raise p.fail(f"literal nested deeper than {MAX_LITERAL_NESTING} levels")
    if p.accept("{"):
        body = {}
        while not p.at("}"):
            key = p.take()
            if key.kind not in ("ident", "string"):
                raise p.fail("expected a key")
            if not p.accept("="):
                raise p.fail("expected '=' after key")
            body[key.value] = parse_literal(p, depth + 1)
            p.accept(",")
        p.expect("}")
        return body
    if p.accept("["):
        items = []
        while not p.at("]"):
            items.append(parse_literal(p, depth + 1))
            p.accept(",")
        p.expect("]")
        return items
    if tok.kind == "string":
        return p.take().value
    if tok.kind == "number":
        return p.number("number", float if "." in tok.value else int)
    if tok.value in ("true", "false"):
        return p.take().value == "true"
    raise p.fail(f"expected a literal value, found {tok.value!r}")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _as(display: str | None) -> str:
    return f" as {_quote(display)}" if display else ""
