"""Per-instance execution history: run records and indexed condition queries.

The history is append-only.  Its index keeps one mutable `IndexCell` per
`(op, exit)` key and one per `(op, None)` key for the any-exit aggregates,
holding the execution count, the index of the last run with a match and
the end of the last match.  Cells are made on first use and never
replaced, so a route or a compiled condition can hold its cells and read
or bump them without a lookup (`ModuleInstance.rebuild_routes`,
`conditions.compile_condition`).  A key never executed reads as count 0
and last run and end `-inf`, so `runs_since` and `seconds_since` give
`inf` without a special case.  `BruteForceView` in `tests/conftest.py`
recomputes every quantity by full scans and must always agree.

A run record is a slotted object that keeps its operation executions in
one flat list (`op, exit, start, end, op, ...`), so a retained run is two
objects for the garbage collector to walk: the record and its list.
`RunRecord.op_executions` is a read-only view that builds `OpExecution`
objects from that list on each access.  The engine's `run_audit` holds
the records themselves; `record["final"]` and the other audit keys read
their fields.

Aborted runs keep their run index and record, but their operation
executions are rolled out of the index, so conditions never count a failed
run as a success: `abort_run` resets every cell in place and recounts the
runs that did not abort, which keeps every held cell valid.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

ABORT_STATE = "⊥(error)"  # synthetic final state of an aborted run

# run_audit entry keys -> RunRecord fields
_AUDIT_FIELDS = {"instance": "instance", "index": "index", "start": "start", "end": "end",
                 "start_seq": "start_seq", "end_seq": "end_seq", "final": "final_state",
                 "aborted": "aborted", "depth": "depth", "cause": "cause"}


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
    instance: str | None = None  # set with depth when the engine audits the run
    depth: int = 0               # runs still open around this one when it closed

    @property
    def aborted(self) -> bool:
        return self.final_state == ABORT_STATE

    @property
    def op_executions(self) -> list[OpExecution]:
        log = self.op_log
        return [OpExecution(*log[i:i + 4]) for i in range(0, len(log), 4)]

    def __getitem__(self, key: str):
        """The run's audit entry under its `run_audit` key ("final", "start_seq", ...)."""
        return getattr(self, _AUDIT_FIELDS[key])


class IndexCell:
    """Index totals of one key: executions, last matching run, last match end."""

    __slots__ = ("count", "last_run", "last_end")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.last_run = self.last_end = -math.inf


class ExecutionHistory:
    """Ordered run records plus an index answering condition atoms."""

    def __init__(self) -> None:
        self.runs: list[RunRecord] = []
        self.current: RunRecord | None = None
        self.last_completed_end: float | None = None
        self.last_completed_start: float | None = None
        self.cells: defaultdict[tuple[str, str | None], IndexCell] = defaultdict(IndexCell)

    def cell(self, op: str, exit: str | None = None) -> IndexCell:
        """The index cell of `(op, exit)`; `exit=None` aggregates every exit."""
        return self.cells[op, exit]

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
        """Log one execution in the open run and count it in the index.

        `Engine.execute_run` does the same through the cells its routes hold.
        """
        run = self.current
        run.op_log += (op, exit, start, end)
        self._count(op, exit, run.index, end)

    def _count(self, op: str, exit: str, index: int, end: float) -> None:
        for cell in (self.cell(op, exit), self.cell(op)):
            cell.count += 1
            cell.last_run = index
            cell.last_end = end

    def end_run(self, now: float, final_state: str, seq: int,
                destructed: bool = False) -> RunRecord:
        run = self.current
        if run is None:
            raise RuntimeError("end_run outside a run")
        run.end = now
        run.final_state = final_state
        run.destructed = destructed
        run.end_seq = seq
        self.current = None
        self.last_completed_end = now
        self.last_completed_start = run.start
        return run

    def abort_run(self, now: float, seq: int) -> RunRecord:
        """Close the open run as aborted and recount the index without it."""
        run = self.end_run(now, ABORT_STATE, seq)
        # aborts are rare; a recount beats undo bookkeeping on the hot path
        for cell in self.cells.values():
            cell.reset()
        for past in self.runs:
            if not past.aborted:
                log = past.op_log
                for i in range(0, len(log), 4):
                    self._count(log[i], log[i + 1], past.index, log[i + 3])
        return run

    # --- condition-atom queries ----------------------------------------------

    def run_count(self) -> int:
        return len(self.runs)

    def executions(self, op: str, exit: str | None = None) -> int:
        return self.cell(op, exit).count

    def runs_since(self, op: str, exit: str) -> float:
        return float(len(self.runs) - 1 - self.cell(op, exit).last_run)

    def seconds_since(self, op: str, exit: str | None, now: float) -> float:
        return now - self.cell(op, exit).last_end

    # --- summaries -------------------------------------------------------------

    def exit_counts(self) -> dict[str, dict[str, int]]:
        """Per-operation exit counters of every run that did not abort."""
        out: dict[str, dict[str, int]] = {}
        for (op, exit), cell in self.cells.items():
            if exit is not None and cell.count:
                out.setdefault(op, {})[exit] = cell.count
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
        """Rebuild a history from `to_json` output; ValueError if it is malformed."""
        hist = cls()
        try:
            for entry in data:
                index, final = entry["index"], entry["finalState"]
                start, end, initial = entry["start"], entry["end"], entry["initialState"]
                start_seq, end_seq = entry.get("startSeq", 0), entry.get("endSeq", 0)
                cause, destructed = entry.get("cause"), entry.get("destructed", False)
                if type(index) is not int or index != len(hist.runs):
                    raise ValueError(f"run record {index!r} where run {len(hist.runs)} belongs")
                if (type(initial) is not str or type(final) is not str
                        or type(start) not in _NUMBER or type(end) not in _NUMBER
                        or type(start_seq) is not int or type(end_seq) is not int
                        or type(destructed) is not bool
                        or not (cause is None or type(cause) is str)):
                    raise ValueError(f"run record {index} has a field of the wrong type")
                run = hist.begin_run(start, initial, start_seq, cause)
                for op, exit, op_start, op_end in entry["ops"]:
                    if (type(op) is not str or type(exit) is not str
                            or type(op_start) not in _NUMBER or type(op_end) not in _NUMBER):
                        raise ValueError(f"run record {index} has a malformed operation")
                    if final == ABORT_STATE:
                        run.op_log += (op, exit, op_start, op_end)  # an aborted run counts nothing
                    else:
                        hist.record_op(op, exit, op_start, op_end)
                hist.end_run(end, final, end_seq, destructed)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed run record: {exc!r}") from exc
        return hist


_NUMBER = (int, float)  # JSON numbers; `type` checks keep booleans out
