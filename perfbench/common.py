"""Run bookkeeping shared by the workloads: samples, checks, percentiles."""

from __future__ import annotations

import gc
import math
import resource
import time
from array import array

now_ns = time.perf_counter_ns

# The calibration routine's time at the reference speed.  The routine is
# timed in short slices between the workload's units; every sample is also
# kept scaled by NOMINAL / (median of the last few slices), so the speed of
# a shared host, which drifts by 20% and more within seconds, cancels out of
# the reported figures.
CALIBRATION_NOMINAL_NS = 45_000
CALIBRATION_STEPS = 400
SLICE_CALLS = 5
SLICE_EVERY_NS = 25_000_000
SLICE_WINDOW = 5


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list; NaN when there are no samples."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def median(values) -> float:
    ordered = sorted(values)
    return percentile(ordered, 0.5)


def _calibration_routine() -> int:
    """Fixed interpreter work on small integers.

    Over half-second windows on a shared host its time moves with the
    workloads' unit times with a slope close to 1; routines that also walk
    megabytes of objects swing about half as much again as the workloads.
    """
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += (i * 7) ^ (i >> 3)
    return total


class Calibration:
    def __init__(self) -> None:
        self.slices: list[float] = []
        self.scale = 1.0  # reference time per measured time, right now
        self._last = 0
        self.slice()

    def slice(self) -> None:
        """Time the routine SLICE_CALLS times; keep the median call."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            calls = []
            for _ in range(SLICE_CALLS):
                start = now_ns()
                _calibration_routine()
                calls.append(now_ns() - start)
        finally:
            if enabled:
                gc.enable()
        self.slices.append(median(calls))
        self.scale = CALIBRATION_NOMINAL_NS / median(self.slices[-SLICE_WINDOW:])
        self._last = now_ns()

    def idle(self) -> None:
        """A point between timed units: slice if the last one is old enough."""
        if now_ns() - self._last >= SLICE_EVERY_NS:
            self.slice()


class Result:
    """What one measuring phase collected.

    Every timed series is kept twice: as measured (`raw`, ns) and at the
    reference speed (`ref`).  The series named "latency" is the workload's
    primary latency, one sample per unit: one run (interp-hot), one event
    (repair-storm) or one patch request (evolve-churn).
    """

    def __init__(self) -> None:
        self.units = 0
        self.completed_runs = 0
        self.busy_ns = 0
        self.busy_ref_ns = 0.0
        self.raw: dict[str, array] = {}  # packed, so the samples stay small next to the engine
        self.ref: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.gauges: dict[str, float] = {}
        self.episodes = 0
        self.peak_rss_mb = 0.0
        self.calibration = Calibration()

    def series(self, name: str) -> tuple[array, array]:
        """The (measured, reference-speed) samples of one series."""
        if name not in self.raw:
            self.raw[name], self.ref[name] = array("q"), array("d")
        return self.raw[name], self.ref[name]

    def record(self, name: str, ns: int) -> None:
        raw, ref = self.series(name)
        raw.append(ns)
        ref.append(ns * self.calibration.scale)

    def add_busy(self, ns: int) -> None:
        self.busy_ns += ns
        self.busy_ref_ns += ns * self.calibration.scale

    def episode_done(self) -> None:
        """After the first episode the process has reached its working size.

        Later episodes repeat the same work on fresh engines and only add
        samples, so the high-water mark taken here does not grow with the
        length of the run or the speed of the machine.
        """
        self.episodes += 1
        if self.episodes == 1:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def view(self, name: str, ref: bool) -> list:
        """One series, ascending, measured or at the reference speed."""
        return sorted((self.ref if ref else self.raw).get(name, []))

    def busy_s(self, ref: bool) -> float:
        return (self.busy_ref_ns if ref else self.busy_ns) / 1e9

    def units_done(self, n: int = 1) -> None:
        self.units += n
        self.attempted += n

    def fail(self, why: str) -> None:
        """A unit that counted in units_done failed."""
        self.failed += 1
        self._note(why)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"check {name} failed{': ' + detail if detail else ''}")
        return ok

    def _note(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0), value)

    def gauge_add(self, name: str, value: float) -> None:
        self.gauges[name] = self.gauges.get(name, 0) + value


def check_engine(workload: str, engine, result: Result) -> None:
    """The checks and gauges every workload shares, after an episode."""
    from megaloop.reflection import audit_quiescence  # once the source tree is on the path

    aborted = sum(1 for entry in engine.run_audit if entry["aborted"])
    violations = len(audit_quiescence(engine))
    result.check(f"{workload}.no_errors", not engine.errors, str(engine.errors[:1]))
    result.check(f"{workload}.no_aborted_runs", aborted == 0, f"{aborted} aborted")
    result.check(f"{workload}.quiescence", violations == 0, f"{violations} violations")
    result.gauge_add("runtime.errors", len(engine.errors))
    result.gauge_add("runtime.aborted_runs", aborted)
    result.gauge_add("reflection.quiescence_violations", violations)
    result.gauge_max("history.records_retained",
                     sum(len(inst.history.runs) for inst in engine.instances.values()))
    result.gauge_max("runtime.event_log.len", len(engine.event_log))
    result.gauge_max("runtime.run_audit.len", len(engine.run_audit))
