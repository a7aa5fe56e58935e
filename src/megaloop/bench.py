"""Interpreter-overhead benchmark against a hard-coded baseline.

Both modes execute the same self-repair loop shape: five mock operations
whose implementations busy-loop for a configurable compute time over
pre-created, never-changed runtime models.  The interpreter mode walks the
megamodel through the engine; the baseline invokes the five mocks
sequentially with the same model references.  Runs are paced on a shared
schedule so the two modes differ only in interpretation work.

Period anchoring: "start" paces runs on an absolute start-to-start grid
(the period is the time between two consecutive activations); "end" waits
out the period after each run ends, which is the engine's trigger default.

Pacing waits always spin.  Under virtualized kernels a blocking sleep
evicts the process working set, inflating whatever code runs next by an
order of magnitude; spinning keeps run costs representative of a host whose
caches stay warm between activations, and the wait strategy is identical
for both modes.  Mean CPU utilization integrates the per-run wall spans
over the window: the runs are pure computation that never blocks, and the
sandbox's process CPU clock only moves in ~10ms steps, far too coarse for
sub-percent comparisons.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from . import dsl
from .clock import MonotonicClock
from .model import EventTypeRegistry
from .runtime import Engine

STANDARD_COMPUTE_MS = (0, 5, 10, 20)
STANDARD_PERIOD_MS = (15, 30, 60, 120, 240, 480, 960)
OP_COUNT = 5
OVERHEAD_ALLOWANCE_MS = 2.0
WARMUP_RUNS = 6  # enough runs that the deep-analysis branch is warm

LOOP_FLD = """
megamodel "Self-repair" {
  model TGGRules : CausalConnectionModel
  model ArchitecturalModel : ReflectionModel
  model FailureAnalysisRules : EvaluationModel
  model RepairStrategies : ChangeModel
  initial Monitor
  initial Analyze
  final Analyzed
  final Executed
  operation Update <<Monitor>> {
    exits { done }
    reads TGGRules
    writes ArchitecturalModel
  }
  operation CheckForFailures <<Analyze>> {
    exits { failures, no_failures }
    reads FailureAnalysisRules
    annotates ArchitecturalModel
  }
  operation DeepCheck <<Analyze>> {
    exits { done }
    reads FailureAnalysisRules
    annotates ArchitecturalModel
  }
  operation Repair <<Plan>> {
    exits { planned, no_strategy }
    reads RepairStrategies
    writes ArchitecturalModel
  }
  operation Effect <<Execute>> {
    exits { done }
    reads TGGRules
    annotates ArchitecturalModel
  }
  decision NeedDeepAnalysis {
    when "runsSince(CheckForFailures -> no_failures) > 5" -> DeepCheck
    else -> Repair
  }
  flow Monitor -> Update
  flow Analyze -> CheckForFailures
  flow Update.done -> CheckForFailures
  flow CheckForFailures.no_failures -> Analyzed
  flow CheckForFailures.failures -> NeedDeepAnalysis
  flow DeepCheck.done -> Repair
  flow Repair.planned -> Effect
  flow Repair.no_strategy -> Effect
  flow Effect.done -> Executed
}
"""

LOOP_LD = """
architecture "Overhead-benchmark" {
  layer 0 "Adaptable Software" {
    software sys : "bench-system"
  }
  layer 1 "Loop" {
    module loop : "Self-repair"
  }
  sense loop <- sys [r]
  effect loop -> sys [w]
}
"""

MOCK_EXITS = {
    "Update": "done",
    "CheckForFailures": "failures",  # every run takes the full five-operation path
    "DeepCheck": "done",
    "Repair": "planned",
    "Effect": "done",
}
OP_ORDER = ("Update", "CheckForFailures", "DeepCheck", "Repair", "Effect")


@dataclass
class BenchConfig:
    compute_ms_values: tuple[int, ...] = STANDARD_COMPUTE_MS
    period_ms_values: tuple[int, ...] = STANDARD_PERIOD_MS
    duration_s: float = 10.0
    period_anchor: str = "start"  # see module docstring


@dataclass
class ComboResult:
    compute_ms: int
    period_ms: int
    mode: str
    runs: int
    median_run_ms: float
    mean_cpu_pct: float      # per-run compute spans integrated over the window
    op_sequence: list[tuple[str, str]] = field(repr=False, default_factory=list)


@dataclass
class BenchReport:
    duration_s: float
    results: list[ComboResult] = field(default_factory=list)
    infeasible: list[tuple[int, int, str]] = field(default_factory=list)

    def result(self, compute_ms: int, period_ms: int, mode: str) -> ComboResult | None:
        for r in self.results:
            if (r.compute_ms, r.period_ms, r.mode) == (compute_ms, period_ms, mode):
                return r
        return None

    def overhead_pp(self, compute_ms: int, period_ms: int) -> float | None:
        interp = self.result(compute_ms, period_ms, "interpreter")
        base = self.result(compute_ms, period_ms, "baseline")
        if interp is None or base is None:
            return None
        return interp.mean_cpu_pct - base.mean_cpu_pct

    def to_csv(self) -> str:
        lines = ["combo,mode,runs,mean_cpu_pct,median_run_ms,overhead_pp"]
        for r in self.results:
            overhead = ""
            if r.mode == "interpreter":
                value = self.overhead_pp(r.compute_ms, r.period_ms)
                overhead = f"{value:.4f}" if value is not None else ""
            lines.append(f"c{r.compute_ms}ms-p{r.period_ms}ms,{r.mode},{r.runs},"
                         f"{r.mean_cpu_pct:.4f},{r.median_run_ms:.4f},{overhead}")
        for compute, period, reason in self.infeasible:
            lines.append(f"c{compute}ms-p{period}ms,skipped,0,,,{reason}")
        return "\n".join(lines) + "\n"


def feasible(compute_ms: int, period_ms: int) -> bool:
    return OP_COUNT * compute_ms + OVERHEAD_ALLOWANCE_MS <= period_ms


def busy_wait(seconds: float) -> None:
    if seconds <= 0:
        return
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def make_mocks(compute_s: float, sink: list[tuple[str, str]]) -> dict:
    def mock(op_name: str, exit_name: str):
        def impl(ctx, models):
            busy_wait(compute_s)
            sink.append((op_name, exit_name))
            return exit_name
        return impl

    return {name: mock(name, exit) for name, exit in MOCK_EXITS.items()}


def _run_schedule(run_once, period_s: float, duration_s: float,
                  anchor: str) -> list[tuple[float, float]]:
    """Pace run_once on the period grid; returns per-run (start, end) times."""
    spans: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    deadline = t0 + duration_s
    k = 0
    while True:
        if anchor == "start":
            target = t0 + k * period_s
            if spans and target < spans[-1][1]:
                k += 1
                continue
        else:
            target = spans[-1][1] + period_s if spans else t0
        if target >= deadline:
            return spans
        while time.perf_counter() < target:  # spin: see module docstring
            pass
        start = time.perf_counter()
        run_once()
        spans.append((start, time.perf_counter()))
        k += 1


def _measure(run_once, sink: list, period_s: float, duration_s: float, anchor: str):
    """Warm up, then measure: (run spans, op sequence, window seconds).

    The loop's runs are pure computation (they never block), so the mean
    CPU utilization is the per-run wall spans integrated over the window.
    """
    for _ in range(WARMUP_RUNS):
        run_once()
    del sink[:]
    t0 = time.perf_counter()
    spans = _run_schedule(run_once, period_s, duration_s, anchor)
    return spans, list(sink), time.perf_counter() - t0


def run_combo(compute_ms: int, period_ms: int, mode: str, duration_s: float,
              anchor: str = "start") -> ComboResult:
    compute_s = compute_ms / 1000.0
    period_s = period_ms / 1000.0
    sink: list[tuple[str, str]] = []
    mocks = make_mocks(compute_s, sink)

    if mode == "interpreter":
        engine = Engine(clock=MonotonicClock(), software={"bench-system": _BenchSystem()},
                        default_ops=mocks, event_types=EventTypeRegistry(),
                        period_anchor=anchor, collect_traces=False)
        engine.registry["Self-repair"] = dsl.parse_fld(LOOP_FLD, "<bench>").unwrap()
        engine.load_architecture(dsl.parse_ld(LOOP_LD, "<bench>").unwrap())
        instance = engine.instances["loop"]

        def run_once() -> None:
            engine.execute_run(instance, "Monitor")
    elif mode == "baseline":
        models = {"TGGRules": {}, "ArchitecturalModel": {},
                  "FailureAnalysisRules": {}, "RepairStrategies": {}}
        calls = [(mocks[name], models) for name in OP_ORDER]

        def run_once() -> None:
            # hard-coded op sequence over the same pre-created models
            for fn, refs in calls:
                fn(None, refs)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    spans, sequence, window = _measure(run_once, sink, period_s, duration_s, anchor)
    run_ms = [(end - start) * 1000.0 for start, end in spans]
    median_ms = statistics.median(run_ms) if run_ms else 0.0
    # robust load estimate: typical per-run cost times the rate; immune to
    # preemption spikes that inflate individual wall spans
    busy = median_ms / 1000.0 * len(spans)
    return ComboResult(
        compute_ms=compute_ms, period_ms=period_ms, mode=mode, runs=len(spans),
        median_run_ms=median_ms,
        mean_cpu_pct=100.0 * busy / window if window > 0 else 0.0,
        op_sequence=sequence,
    )


class _BenchSystem:
    """Inert layer-0 stand-in; the mocks never touch it."""


def run_benchmark(config: BenchConfig | None = None, *, progress=None) -> BenchReport:
    config = config or BenchConfig()
    report = BenchReport(duration_s=config.duration_s)
    for compute_ms in config.compute_ms_values:
        for period_ms in config.period_ms_values:
            if not feasible(compute_ms, period_ms):
                report.infeasible.append(
                    (compute_ms, period_ms,
                     f"E-BENCH-INFEASIBLE {OP_COUNT}x{compute_ms}ms+"
                     f"{OVERHEAD_ALLOWANCE_MS:g}ms > {period_ms}ms"))
                continue
            for mode in ("baseline", "interpreter"):
                if progress:
                    progress(f"c{compute_ms}ms-p{period_ms}ms {mode}")
                report.results.append(run_combo(compute_ms, period_ms, mode,
                                                config.duration_s, config.period_anchor))
    return report
