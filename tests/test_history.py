"""Run-record bookkeeping beyond what the condition tests cover."""

from __future__ import annotations

import pytest

from megaloop.history import ABORT_STATE, ExecutionHistory, OpExecution


def test_exit_counts_skip_aborted_runs():
    hist = ExecutionHistory()
    hist.begin_run(0.0, "Start", 1)
    hist.record_op("A", "ok", 0.0, 0.1)
    hist.end_run(0.2, "Done", 2)
    hist.begin_run(1.0, "Start", 3)
    hist.record_op("A", "ok", 1.0, 1.1)
    hist.record_op("B", "fail", 1.1, 1.2)
    hist.abort_run(1.3, 4)
    assert hist.exit_counts() == {"A": {"ok": 1}}
    assert hist.runs[-1].final_state == ABORT_STATE
    assert hist.runs[-1].aborted


def test_json_roundtrip_preserves_index_answers():
    hist = ExecutionHistory()
    for i in range(4):
        hist.begin_run(float(i), "Start", 2 * i + 1, cause="periodic")
        hist.record_op("A", "ok" if i % 2 else "fail", float(i), i + 0.5)
        if i == 2:
            hist.abort_run(i + 0.6, 2 * i + 2)
        else:
            hist.end_run(i + 0.6, "Done", 2 * i + 2)
    again = ExecutionHistory.from_json(hist.to_json())
    assert again.to_json() == hist.to_json()
    for exit in ("ok", "fail"):
        assert again.executions("A", exit) == hist.executions("A", exit)
        assert again.runs_since("A", exit) == hist.runs_since("A", exit)
    assert again.last_completed_end == hist.last_completed_end


def test_mid_run_visibility():
    hist = ExecutionHistory()
    hist.begin_run(0.0, "Start", 1)
    assert hist.run_count() == 1  # the in-flight run counts
    hist.record_op("A", "ok", 0.0, 0.1)
    assert hist.executions("A", "ok") == 1  # completed ops of the open run count
    hist.end_run(0.2, "Done", 2)
    assert hist.run_count() == 1


def three_runs() -> ExecutionHistory:
    hist = ExecutionHistory()
    hist.begin_run(0.0, "Start", 1, cause="periodic")
    hist.record_op("A", "ok", 0.0, 0.1)
    hist.record_op("B", "fail", 0.1, 0.25)
    hist.end_run(0.3, "Done", 2)
    hist.begin_run(1.0, "Start", 3, cause="event:Ping")
    hist.record_op("A", "fail", 1.0, 1.5)
    hist.abort_run(1.6, 4)
    hist.begin_run(2.0, "Start", 5)
    hist.end_run(2.0, "Idle", 6, destructed=True)
    return hist


def test_run_record_keeps_no_instance_dict():
    run = three_runs().runs[0]
    assert not hasattr(run, "__dict__")


def test_op_executions_view_matches_recorded_sequence():
    runs = three_runs().runs
    assert runs[0].op_executions == [OpExecution("A", "ok", 0.0, 0.1),
                                     OpExecution("B", "fail", 0.1, 0.25)]
    assert runs[1].op_executions == [OpExecution("A", "fail", 1.0, 1.5)]
    assert runs[2].op_executions == []
    with pytest.raises(AttributeError):
        runs[0].op_executions = []


def test_json_format_and_roundtrip_with_aborted_run():
    hist = three_runs()
    data = hist.to_json()
    assert data[0] == {
        "index": 0, "start": 0.0, "end": 0.3, "initialState": "Start",
        "finalState": "Done", "destructed": False, "cause": "periodic",
        "startSeq": 1, "endSeq": 2,
        "ops": [["A", "ok", 0.0, 0.1], ["B", "fail", 0.1, 0.25]],
    }
    assert data[1]["finalState"] == ABORT_STATE
    assert data[1]["ops"] == [["A", "fail", 1.0, 1.5]]
    again = ExecutionHistory.from_json(data)
    assert again.to_json() == data
    assert again.runs[1].aborted
    assert again.exit_counts() == hist.exit_counts() == {"A": {"ok": 1}, "B": {"fail": 1}}


def test_end_run_outside_a_run_raises():
    with pytest.raises(RuntimeError):
        ExecutionHistory().end_run(0.0, "Done", 1)


def _set(path, value):
    def corrupt(data):
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        target[last] = value
    return corrupt


def _drop(run, key):
    return lambda data: data[run].pop(key)


# checks that are statements, not asserts, so `python -O` keeps them too
MALFORMED_HISTORIES = {
    "non-contiguous": _set((1, "index"), 2),
    "bool-index": _set((0, "index"), True),
    "no-final-state": _drop(0, "finalState"),
    "no-ops": _drop(2, "ops"),
    "record-not-a-mapping": _set((0,), ["not", "a", "record"]),
    "short-op": _set((0, "ops", 0), ["A", "ok", 0.0]),
    "unhashable-exit": _set((0, "ops", 0, 1), ["ok"]),
    "op-time-string": _set((0, "ops", 0, 2), "0.0"),
    "ops-null": _set((0, "ops"), None),
    "start-string": _set((0, "start"), "0"),
    "end-null": _set((1, "end"), None),
    "seq-string": _set((0, "startSeq"), "1"),
    "cause-number": _set((0, "cause"), 3),
    "destructed-string": _set((2, "destructed"), "yes"),
    "final-null": _set((1, "finalState"), None),
}


@pytest.mark.parametrize("corrupt", MALFORMED_HISTORIES.values(), ids=MALFORMED_HISTORIES)
def test_malformed_history_is_a_value_error(corrupt):
    data = three_runs().to_json()
    corrupt(data)
    with pytest.raises(ValueError):
        ExecutionHistory.from_json(data)


@pytest.mark.parametrize("data", [5, None, {"index": 0}, "runs"])
def test_history_that_is_not_a_list_of_records_is_a_value_error(data):
    with pytest.raises(ValueError):
        ExecutionHistory.from_json(data)
