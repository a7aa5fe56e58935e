"""Parser and serializer: fixture shapes, round-trips, diagnostics."""

from __future__ import annotations

import random

import pytest

from megaloop import dsl
from megaloop.model import check_megamodel
from megaloop.reflection import parse_patch
from megaloop.scenario import parse_script

from conftest import (FIXTURES, FLD_DIR, LD_DIR, char_loop_tokens,
                      random_megamodel)


def lexed(text: str) -> list[tuple]:
    """`dsl.tokenize` in the oracle's shape; a lexical error ends the list."""
    try:
        tokens = dsl.tokenize(text, "t")
    except dsl.LexError as err:
        span = err.diagnostic.span
        return [("error", err.diagnostic.message, span.line, span.column,
                 span.end_line, span.end_column)]
    spans = dsl.SpanMap(text, "t")
    return [(t.kind, t.value, *spans.span(t.start, t.end)[1:]) for t in tokens]


def generated_fld_texts() -> list[str]:
    rng = random.Random(1405)  # the megamodels of test_generated_random_megamodels
    return [dsl.serialize_fld(random_megamodel(rng)) for _ in range(60)]


class TestParseFld:
    def test_self_repair_fixture_shape(self):
        text = (FLD_DIR / "self-repair.fld").read_text()
        mm = dsl.parse_fld(text, "self-repair.fld").unwrap()
        assert mm.name == "Self-repair"
        assert [op.name for op in mm.operations] == \
            ["Update", "CheckForFailures", "DeepCheck", "Repair", "Effect"]
        assert len(mm.operations) == 5
        assert len(mm.slots) == 4
        assert len(mm.decisions) == 1
        assert {s.name for s in mm.initial_states()} == {"Monitor", "Analyze"}
        assert {s.name for s in mm.final_states()} == {"Analyzed", "Executed"}
        assert mm.operation("CheckForFailures").display == "Check for failures"

    def test_empty_megamodel_rejected(self):
        result = dsl.parse_fld('megamodel "Empty" {}')
        assert not result.ok
        assert {d.code for d in result.diagnostics} >= {"E-STATE-INITIAL", "E-STATE-FINAL"}

    def test_syntax_error_has_span_inside_text(self):
        text = 'megamodel "X" {\n  initial Start\n  ???\n}'
        result = dsl.parse_fld(text, "x.fld")
        assert not result.ok
        diag = result.diagnostics[0]
        assert diag.span is not None and diag.span.line == 3
        assert 1 <= diag.span.column <= len(text.splitlines()[2]) + 1

    def test_never_a_partial_model(self):
        result = dsl.parse_fld('megamodel "X" { initial Start')
        assert result.value is None and result.diagnostics

    def test_parse_is_deterministic(self):
        text = (FLD_DIR / "self-optimization.fld").read_text()
        assert dsl.parse_fld(text).unwrap() == dsl.parse_fld(text).unwrap()


class TestParseLd:
    def test_self_repair_ld_fixture_shape(self):
        text = (LD_DIR / "self-repair.ld").read_text()
        arch = dsl.parse_ld(text, "self-repair.ld").unwrap()
        assert len(arch.layers) == 2
        kinds = {m.instance_name: m.kind for m in arch.modules()}
        assert kinds == {"mRUBiS": "software", "selfRepair": "megamodel",
                         "selfRepairA": "megamodel"}
        assert len(arch.sense_edges) == 1
        assert arch.sense_edges[0].trigger is not None
        assert len(arch.effect_edges) == 1
        assert [(u.source, u.op, u.target) for u in arch.use_edges] == \
            [("selfRepair", "Analyze", "selfRepairA")]

    def test_bad_effect_mode(self):
        text = 'architecture "X" { layer 0 "l" { software s : "k" } effect s -> s [x] }'
        result = dsl.parse_ld(text)
        assert not result.ok

    def test_trigger_parse_error_surfaces(self):
        text = ('architecture "X" { layer 0 "l" { software s : "k" }\n'
                'layer 1 "m" { module a : "B" }\n'
                'sense a <- s [r] trigger "; ; Monitor;" }')
        result = dsl.parse_ld(text, "x.ld")
        assert not result.ok
        assert result.diagnostics[0].code == "E-TRIG-EMPTY"


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(FLD_DIR.glob("*.fld")),
                             ids=lambda p: p.name)
    def test_fld_corpus(self, path):
        first = dsl.parse_fld(path.read_text(), path.name).unwrap()
        text1 = dsl.serialize_fld(first)
        second = dsl.parse_fld(text1, "roundtrip").unwrap()
        assert second == first
        assert dsl.serialize_fld(second) == text1  # canonical fixpoint

    @pytest.mark.parametrize("path", sorted(LD_DIR.glob("*.ld")),
                             ids=lambda p: p.name)
    def test_ld_corpus(self, path):
        first = dsl.parse_ld(path.read_text(), path.name).unwrap()
        text1 = dsl.serialize_ld(first)
        second = dsl.parse_ld(text1, "roundtrip").unwrap()
        assert second == first
        assert dsl.serialize_ld(second) == text1

    def test_canonical_category_order(self):
        text = (FLD_DIR / "self-repair.fld").read_text()
        out = dsl.serialize_fld(dsl.parse_fld(text).unwrap()).splitlines()
        def first_index(prefix):
            return next(i for i, line in enumerate(out) if line.strip().startswith(prefix))
        assert first_index("model ") < first_index("initial ")
        assert first_index("initial ") < first_index("operation ")
        assert first_index("operation ") < first_index("flow ")

    def test_generated_random_megamodels(self):
        rng = random.Random(1405)
        for _ in range(60):
            mm = random_megamodel(rng)
            assert check_megamodel(mm) == []
            text = dsl.serialize_fld(mm)
            again = dsl.parse_fld(text, "gen").unwrap()
            assert again == mm
            assert dsl.serialize_fld(again) == text


class TestLexer:
    @pytest.mark.parametrize(
        "path", sorted(p for p in FIXTURES.rglob("*")
                       if p.suffix in (".fld", ".ld", ".patch", ".script")),
        ids=lambda p: p.name)
    def test_fixture_tokens_match_char_loop_oracle(self, path):
        text = path.read_text()
        assert lexed(text) == char_loop_tokens(text)

    def test_generated_megamodel_tokens_match_char_loop_oracle(self):
        for text in generated_fld_texts():
            assert lexed(text) == char_loop_tokens(text)

    @pytest.mark.parametrize("text, message, line, column", [
        ('megamodel "X {\n}', "unterminated string", 1, 11),
        ('megamodel "X" {\n  initial S ?\n}', "unexpected character '?'", 2, 13),
        ('a "b\\', "unterminated string", 1, 3),
        ("a ½", "unexpected character '½'", 1, 3),
    ])
    def test_lexical_error_position(self, text, message, line, column):
        oracle = char_loop_tokens(text)[-1]
        assert oracle[:4] == ("error", message, line, column)
        result = dsl.parse_fld(text, "x.fld")
        assert [(d.message, d.span.line, d.span.column) for d in result.diagnostics] == \
            [(message, line, column)]

    def test_arrow_without_spaces(self):
        text = "flow a->b a-->b a-b"
        assert lexed(text) == char_loop_tokens(text) == [
            ("ident", "flow", 1, 1, 1, 4), ("ident", "a", 1, 6, 1, 6),
            ("punct", "->", 1, 7, 1, 8), ("ident", "b", 1, 9, 1, 9),
            ("ident", "a-", 1, 11, 1, 12), ("punct", "->", 1, 13, 1, 14),
            ("ident", "b", 1, 15, 1, 15), ("ident", "a-b", 1, 17, 1, 19),
            ("eof", "", 1, 20, 1, 20)]

    def test_string_escapes(self):
        text = 'x "a\\nb\\tc\\"d\\\\e" y'
        assert lexed(text) == char_loop_tokens(text) == [
            ("ident", "x", 1, 1, 1, 1), ("string", 'a\nb\tc"d\\e', 1, 3, 1, 17),
            ("ident", "y", 1, 19, 1, 19), ("eof", "", 1, 20, 1, 20)]

    def test_trailing_comment_without_newline(self):
        # the end of file sits at the comment's '#'
        text = 'megamodel "X" { initial S # no newline'
        assert lexed(text)[-1] == char_loop_tokens(text)[-1] == ("eof", "", 1, 27, 1, 27)
        diag = dsl.parse_fld(text, "x.fld").diagnostics[0]
        assert (diag.message, diag.span.line, diag.span.column) == \
            ("unexpected end of file inside megamodel block", 1, 27)

    def test_crlf_line_endings(self):
        text = (FLD_DIR / "self-repair.fld").read_text().replace("\n", "\r\n")
        assert lexed(text) == char_loop_tokens(text)
        assert dsl.parse_fld(text).unwrap() == \
            dsl.parse_fld((FLD_DIR / "self-repair.fld").read_text()).unwrap()
        bad = 'megamodel "X" {\r\n  initial S\r\n  ???\r\n}'
        diag = dsl.parse_fld(bad, "x.fld").diagnostics[0]
        assert (diag.span.line, diag.span.column) == (3, 3)

    def test_escaped_newline_in_string_counts_the_line(self):
        # the character loop did not count this newline (it reported `c` at 1:8)
        text = '"a\\\nb" c'
        assert lexed(text) == [("string", "a\nb", 1, 1, 1, 6), ("ident", "c", 2, 4, 2, 4),
                               ("eof", "", 2, 5, 2, 5)]

    def test_non_ascii_text_matches_oracle(self):
        text = ('megamodel "Überwachung" {\n  model Zähler as "Zähler ü" # ü\n'
                '  initial Start_ä-b\n  final ٣x\n}\n')
        assert lexed(text) == char_loop_tokens(text)

    def test_numeral_that_is_no_decimal_digit(self):
        # the character loop made a number of '²', which int() then refused
        result = dsl.parse_ld('architecture "A" { layer ² "x" { } }', "x.ld")
        assert [(d.message, str(d.span)) for d in result.diagnostics] == \
            [("unexpected character '²'", "x.ld:1:26")]

    def test_flow_exit_error_at_operation_line(self):
        text = ('megamodel "X" {\n  initial Start\n  final Done\n'
                '  operation Work {\n    exits { done, failed }\n  }\n'
                '  flow Start -> Work\n  flow Work.done -> Done\n}\n')
        result = dsl.parse_fld(text, "x.fld")
        assert [(d.code, str(d.span)) for d in result.diagnostics] == \
            [("E-FLOW-EXIT", "x.fld:4:13")]

    def test_element_spans(self):
        text = (FLD_DIR / "self-repair.fld").read_text()
        mm = dsl.parse_fld(text, "self-repair.fld").unwrap()
        lines = text.splitlines()
        for element in [*mm.slots, *mm.states, *mm.operations, *mm.decisions]:
            span = element.span
            assert lines[span.line - 1][span.column - 1:span.end_column] == element.name


class TestLiterals:
    """Literal documents in patch `seed-model` and script `seed` lines."""

    def seed_patch(self, literal: str) -> str:
        return f'patch "P" {{\n  seed-model m.slot {literal}\n}}\n'

    def test_nesting_up_to_the_cap_parses(self):
        n = dsl.MAX_LITERAL_NESTING
        literal = "[" * (n - 1) + '{ "k" = 1.5 }' + "]" * (n - 1)
        value = parse_patch(self.seed_patch(literal)).unwrap().steps[0].args[2]
        for _ in range(n - 1):
            assert isinstance(value, list) and len(value) == 1
            value = value[0]
        assert value == {"k": 1.5}
        assert parse_script(f"seed m.slot {literal}").ok

    @pytest.mark.parametrize("level,closer,depth", [
        ("[", "]", dsl.MAX_LITERAL_NESTING + 1),
        ("[", "", 3000),
        ('{ "a" = ', "", 3000),
    ])
    def test_nesting_past_the_cap_is_a_syntax_error(self, level, closer, depth):
        literal = level * depth + closer * depth
        message = f"literal nested deeper than {dsl.MAX_LITERAL_NESTING} levels"
        # reported at the opening bracket of the first level past the cap
        column = len("  seed-model m.slot ") + 1 + len(level) * dsl.MAX_LITERAL_NESTING
        patch = parse_patch(self.seed_patch(literal), "p.patch")
        assert [(d.code, d.message, str(d.span)) for d in patch.diagnostics] == \
            [("E-SYNTAX", message, f"p.patch:2:{column}")]
        script = parse_script(f"seed m.slot {literal}", "s.script")
        assert [(d.code, d.message) for d in script.diagnostics] == [("E-SYNTAX", message)]

    @pytest.mark.parametrize("parse,text,message,where", [
        (parse_patch, 'patch "P" {\n  seed-model m.slot 2.3.4\n}', "bad number '2.3.4'", "2:21"),
        (parse_patch, 'patch "P" { remove-layer 1.5 }', "bad layer index '1.5'", "1:26"),
        (parse_script, "seed m.slot [1, 1..2]", "bad number '1..2'", "1:17"),
        (parse_script, "at 1.2.3s inject c1 crash", "bad time '1.2.3'", "1:4"),
        (parse_script, "at 1s load 0.9.1", "bad load '0.9.1'", "1:12"),
        (dsl.parse_ld, 'architecture "A" { layer 1.5 "x" { } }', "bad layer index '1.5'", "1:26"),
    ])
    def test_malformed_number_is_a_syntax_error(self, parse, text, message, where):
        result = parse(text, "f")
        assert [(d.code, d.message, str(d.span)) for d in result.diagnostics] == \
            [("E-SYNTAX", message, f"f:{where}")]
