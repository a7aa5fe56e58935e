"""Command-line interface: validation, scenario runs, benchmark output."""

from __future__ import annotations

from pathlib import Path

import pytest

from megaloop.cli import main

from conftest import FLD_DIR, LD_DIR, PATCH_DIR, SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def all_corpus_files():
    files = sorted(str(p) for p in FLD_DIR.glob("*.fld"))
    files += sorted(str(p) for p in LD_DIR.glob("*.ld"))
    files += sorted(str(p) for p in PATCH_DIR.glob("*.patch"))
    files += sorted(str(p) for p in SCENARIO_DIR.glob("*.script"))
    return files


class TestValidate:
    def test_corpus_validates_clean(self, capsys):
        assert main(["validate", *all_corpus_files()]) == 0
        assert "validated" in capsys.readouterr().out

    def test_corrupted_fixture_exits_one_with_span(self, tmp_path, capsys):
        bad = tmp_path / "bad.fld"
        bad.write_text('megamodel "Bad" {\n  initial Start\n  flow Start -> Nowhere\n}\n')
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.fld" in err and "E-" in err

    def test_empty_file_list_is_usage_error(self, capsys):
        assert main(["validate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_ld_checked_against_given_flds(self, tmp_path, capsys):
        ld = tmp_path / "x.ld"
        ld.write_text('architecture "X" {\n'
                      '  layer 0 "s" { software sys : "k" }\n'
                      '  layer 1 "l" { module loop : "No-such-megamodel" }\n'
                      '}\n')
        assert main(["validate", str(ld)]) == 1
        assert "E-MM-UNKNOWN" in capsys.readouterr().err


class TestRun:
    def run_crash_scenario(self, capsys):
        code = main(["run", str(LD_DIR / "self-repair.ld"),
                     "--fld-dir", str(FLD_DIR),
                     "--script", str(SCENARIO_DIR / "crash-once.script"),
                     "--virtual-clock", "--duration", "30"])
        out = capsys.readouterr().out
        return code, out

    def test_single_crash_dispatches_repair_once(self, capsys):
        code, out = self.run_crash_scenario(capsys)
        assert code == 0
        assert out.count("opStart Repair") == 1
        assert "selfRepairA opEnd CheckForFailures failures" in out

    def test_virtual_replay_is_byte_identical(self, capsys):
        _, first = self.run_crash_scenario(capsys)
        _, second = self.run_crash_scenario(capsys)
        assert first == second

    def test_unknown_megamodel_ref_is_load_error(self, tmp_path, capsys):
        ld = tmp_path / "broken.ld"
        ld.write_text('architecture "B" {\n'
                      '  layer 0 "s" { software mRUBiS : "mrubis" }\n'
                      '  layer 1 "l" { module loop : "Ghost" }\n'
                      '}\n')
        code = main(["run", str(ld), "--fld-dir", str(FLD_DIR),
                     "--virtual-clock", "--duration", "1"])
        assert code == 1
        assert "E-MM-UNKNOWN" in capsys.readouterr().err

    # each scenario with the architecture its scenario test loads
    @pytest.mark.parametrize("scenario, ld", [
        ("crash-once", "self-repair.ld"),
        ("layered-poison", "layered-strategies.ld"),
        ("optimization", "independent.ld"),
    ])
    def test_virtual_clock_trace_matches_golden(self, scenario, ld, capsys):
        code = main(["run", str(LD_DIR / ld), "--fld-dir", str(FLD_DIR),
                     "--script", str(SCENARIO_DIR / f"{scenario}.script"),
                     "--virtual-clock", "--duration", "30"])
        assert code == 0
        golden = (GOLDEN_DIR / f"{scenario}.trace").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden

    def test_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.log"
        code = main(["run", str(LD_DIR / "self-repair.ld"),
                     "--fld-dir", str(FLD_DIR),
                     "--script", str(SCENARIO_DIR / "crash-once.script"),
                     "--virtual-clock", "--duration", "30",
                     "--trace-file", str(trace)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert trace.read_text().count("opStart Update") == 2


class TestBench:
    def test_csv_shape_on_tiny_sweep(self, capsys):
        code = main(["bench", "--computes", "0", "--periods", "30,60",
                     "--duration", "0.4"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "combo,mode,runs,mean_cpu_pct,median_run_ms,overhead_pp"
        assert len(lines) == 5  # two combos, two modes each
        interp = [l for l in lines[1:] if ",interpreter," in l]
        assert all(l.split(",")[5] != "" for l in interp)

    def test_infeasible_combos_reported(self, capsys):
        code = main(["bench", "--computes", "20", "--periods", "15",
                     "--duration", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E-BENCH-INFEASIBLE" in out and ",skipped," in out
