"""Per-instance execution history: run records and indexed condition queries.

The history is append-only.  An incremental index keeps every condition
atom O(1), and `exit_counts` reads its per-exit counters instead of
rescanning the run records; `BruteForceView` in `tests/conftest.py`
recomputes the same quantities by full scans and must always agree.

A run record is a slotted object that keeps its operation executions in
one flat list (`op, exit, start, end, op, ...`), so a retained run is two
objects for the garbage collector to walk: the record and its list.
`RunRecord.op_executions` is a read-only view that builds `OpExecution`
objects from that list on each access.

Aborted runs keep their run index and record but their operation
executions are rolled out of the index so conditions never count a failed
run as a success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

ABORT_STATE = "⊥(error)"  # synthetic final state of an aborted run


@dataclass(slots=True)
class OpExecution:
    op: str
    exit: str
    start: float
    end: float


@dataclass(slots=True)
class RunRecord:
    index: int
    start: float
    initial_state: str
    cause: str | None = None
    end: float | None = None
    final_state: str | None = None
    destructed: bool = False
    op_log: list = field(default_factory=list)  # flat: op, exit, start, end, op, ...
    start_seq: int = 0
    end_seq: int = 0

    @property
    def aborted(self) -> bool:
        return self.final_state == ABORT_STATE

    @property
    def op_executions(self) -> list[OpExecution]:
        log = self.op_log
        return [OpExecution(*log[i:i + 4]) for i in range(0, len(log), 4)]


class ExecutionHistory:
    """Ordered run records plus an index answering condition atoms."""

    def __init__(self) -> None:
        self.runs: list[RunRecord] = []
        self.current: RunRecord | None = None
        self.last_completed_end: float | None = None
        self.last_completed_start: float | None = None
        # keys are (op, exit) and (op, None) for the any-exit aggregates
        self._counts: dict[tuple[str, str | None], int] = {}
        self._last_run_idx: dict[tuple[str, str | None], int] = {}
        self._last_end: dict[tuple[str, str | None], float] = {}

    # --- lifecycle -----------------------------------------------------------

    def begin_run(self, now: float, initial_state: str, seq: int,
                  cause: str | None = None) -> RunRecord:
        if self.current is not None:
            raise RuntimeError("begin_run while a run is open")
        run = RunRecord(index=len(self.runs), start=now, initial_state=initial_state,
                        cause=cause, start_seq=seq)
        self.runs.append(run)
        self.current = run
        return run

    def record_op(self, op: str, exit: str, start: float, end: float) -> None:
        run = self.current
        run.op_log += (op, exit, start, end)
        index = run.index
        counts, last_run_idx, last_end = self._counts, self._last_run_idx, self._last_end
        key = (op, exit)
        counts[key] = counts.get(key, 0) + 1
        last_run_idx[key] = index
        last_end[key] = end
        key = (op, None)
        counts[key] = counts.get(key, 0) + 1
        last_run_idx[key] = index
        last_end[key] = end

    def end_run(self, now: float, final_state: str, seq: int,
                destructed: bool = False) -> RunRecord:
        run = self.current
        assert run is not None, "end_run outside a run"
        run.end = now
        run.final_state = final_state
        run.destructed = destructed
        run.end_seq = seq
        self.current = None
        self.last_completed_end = now
        self.last_completed_start = run.start
        return run

    def abort_run(self, now: float, seq: int) -> RunRecord:
        """Close the open run as aborted and drop its matches from the index."""
        run = self.end_run(now, ABORT_STATE, seq)
        self._rebuild_index()
        return run

    def _rebuild_index(self) -> None:
        # aborts are rare; rescanning beats undo bookkeeping on the hot path
        self._counts = {}
        self._last_run_idx = {}
        self._last_end = {}
        for run in self.runs:
            if run.aborted:
                continue
            log = run.op_log
            for i in range(0, len(log), 4):
                op, end = log[i], log[i + 3]
                for key in ((op, log[i + 1]), (op, None)):
                    self._counts[key] = self._counts.get(key, 0) + 1
                    self._last_run_idx[key] = run.index
                    self._last_end[key] = end

    # --- condition-atom queries (HistoryView) ----------------------------------

    def run_count(self) -> int:
        return len(self.runs)

    def executions(self, op: str, exit: str | None = None) -> int:
        return self._counts.get((op, exit), 0)

    def runs_since(self, op: str, exit: str) -> float:
        last = self._last_run_idx.get((op, exit))
        if last is None:
            return math.inf
        return float(self.runs[-1].index - last)

    def seconds_since(self, op: str, exit: str | None, now: float) -> float:
        last = self._last_end.get((op, exit))
        if last is None:
            return math.inf
        return now - last

    # --- summaries -------------------------------------------------------------

    def exit_counts(self) -> dict[str, dict[str, int]]:
        """Per-operation exit counters of every run that did not abort."""
        out: dict[str, dict[str, int]] = {}
        for (op, exit), count in self._counts.items():
            if exit is not None:
                out.setdefault(op, {})[exit] = count
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "index": r.index,
                "start": r.start,
                "end": r.end,
                "initialState": r.initial_state,
                "finalState": r.final_state,
                "destructed": r.destructed,
                "cause": r.cause,
                "startSeq": r.start_seq,
                "endSeq": r.end_seq,
                "ops": [r.op_log[i:i + 4] for i in range(0, len(r.op_log), 4)],
            }
            for r in self.runs
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "ExecutionHistory":
        hist = cls()
        for entry in data:
            run = hist.begin_run(entry["start"], entry["initialState"],
                                 entry.get("startSeq", 0), entry.get("cause"))
            assert run.index == entry["index"], "non-contiguous run records"
            for op, exit, start, end in entry["ops"]:
                hist.record_op(op, exit, start, end)
            if entry["finalState"] == ABORT_STATE:
                hist.abort_run(entry["end"], entry.get("endSeq", 0))
            else:
                hist.end_run(entry["end"], entry["finalState"],
                             entry.get("endSeq", 0), entry.get("destructed", False))
        return hist
