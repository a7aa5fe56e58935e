"""Benchmark machinery: feasibility, mode equivalence, report format."""

from __future__ import annotations

import pytest

from megaloop.bench import BenchConfig, OP_ORDER, feasible, run_benchmark, run_combo


class TestFeasibility:
    @pytest.mark.parametrize("compute,period,ok", [
        (0, 15, True), (5, 15, False), (5, 30, True),
        (10, 30, False), (10, 60, True), (20, 60, False), (20, 120, True),
    ])
    def test_rule(self, compute, period, ok):
        assert feasible(compute, period) is ok

    def test_infeasible_combos_reported_not_run(self):
        report = run_benchmark(BenchConfig(compute_ms_values=(20,),
                                           period_ms_values=(15, 120),
                                           duration_s=0.3))
        assert [(c, p) for c, p, _ in report.infeasible] == [(20, 15)]
        assert {(r.compute_ms, r.period_ms) for r in report.results} == {(20, 120)}


class TestModes:
    def test_op_sequences_identical(self):
        base = run_combo(0, 30, "baseline", 0.6)
        interp = run_combo(0, 30, "interpreter", 0.6)
        n = min(len(base.op_sequence), len(interp.op_sequence))
        assert n > 0
        assert base.op_sequence[:n] == interp.op_sequence[:n]
        pattern = [(name, exit) for name, exit in base.op_sequence[:5]]
        assert [name for name, _ in pattern] == list(OP_ORDER)

    def test_run_counts_track_duration_over_period(self):
        for mode in ("baseline", "interpreter"):
            result = run_combo(0, 60, mode, 0.9)
            assert abs(result.runs - int(900 / 60)) <= 1

    def test_baseline_cheaper_than_interpreter(self):
        base = run_combo(0, 60, "baseline", 0.5)
        interp = run_combo(0, 60, "interpreter", 0.5)
        assert base.median_run_ms < interp.median_run_ms

    def test_end_anchor_supported(self):
        result = run_combo(0, 50, "interpreter", 0.5, anchor="end")
        assert result.runs >= 8


class TestReport:
    def test_csv_columns(self):
        report = run_benchmark(BenchConfig(compute_ms_values=(0,),
                                           period_ms_values=(60,), duration_s=0.3))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "combo,mode,runs,mean_cpu_pct,median_run_ms,overhead_pp"
        base, interp = lines[1], lines[2]
        assert base.startswith("c0ms-p60ms,baseline,")
        assert interp.startswith("c0ms-p60ms,interpreter,")
        assert report.overhead_pp(0, 60) == pytest.approx(
            float(interp.split(",")[5]), abs=1e-3)
