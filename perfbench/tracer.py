"""Span tracer for the traced run, attached from outside the engine.

Every probe wraps a public function, method or callable of a megaloop
module at the layer boundary; nothing inside the package is edited.  A span
records its name, start, end, parent and the id of the event or control
request that caused it.  Self time (duration minus time covered by child
spans) and call counts are accumulated at the same boundaries.  Spans stay
in memory, packed into integer arrays, and are written out once, when the
run ends.

Each thread keeps its own span stack and totals, so the engine loop and
the control listener never update shared counters.  A root span on one
thread takes as parent the unit span the workload opened on its own
thread, which is how engine work links back to the control request that
caused it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from array import array

_now_ns = time.perf_counter_ns

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request", "thread", "depth")
_WIDTH = len(SPAN_FIELDS)
MAX_SPANS = 250_000  # kept per thread; totals keep counting past it


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "dropped", "totals", "counts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[list] = []   # frames: [span id, name, child ns]
        self.spans = array("q")       # _WIDTH integers per span; 0 = no parent
        self.dropped = 0
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.request_id = 0   # the event or command the caller is working on
        self.unit_span = 0    # the caller's span for that unit
        self.suspended = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._names: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _name_index(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            with self._lock:
                index = self._names.setdefault(name, len(self._names))
        return index

    def _keep(self, state: _ThreadState, span: tuple) -> None:
        if len(state.spans) < MAX_SPANS * _WIDTH:
            state.spans.extend(span)
        else:
            state.dropped += 1

    # --- spans and counters --------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, collapse: bool = False):
        """Run fn inside a span; `collapse` folds a span into a same-named parent."""
        if self.suspended:
            return fn(*args, **kwargs)
        state = self._state()
        stack = state.stack
        if collapse and stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        frame = [next(self._ids), name, 0]
        stack.append(frame)
        start = _now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now_ns()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
                parent_id = parent[0]
            else:
                parent_id = self.unit_span
            self._keep(state, (frame[0], self._name_index(name), start, end, parent_id,
                               self.request_id, state.index, len(stack)))
            totals = state.totals.get(name)
            if totals is None:
                totals = state.totals[name] = [0, 0, 0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[2]

    def wrap(self, name: str, fn, collapse: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, collapse)
        return traced

    @contextlib.contextmanager
    def unit(self, name: str, request_id: int):
        """The caller's span for one event or command; engine spans hang off it."""
        state = self._state()
        self.request_id = request_id
        self.unit_span = span_id = next(self._ids)
        start = _now_ns()
        try:
            yield
        finally:
            self._keep(state, (span_id, self._name_index(name), start, _now_ns(), 0,
                               request_id, state.index, 0))
            self.unit_span = 0

    def count(self, name: str, n: int = 1) -> None:
        if self.suspended:
            return
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self._state().counts.get(name, 0)

    @contextlib.contextmanager
    def suspend(self):
        """Let output checks call wrapped code without adding to the layer totals."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    # --- attaching probes ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, name: str, collapse: bool = False) -> None:
        """Wrap fn under every megaloop module name bound to it."""
        traced = self.wrap(name, fn, collapse)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "megaloop":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str) -> None:
        self.patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results ------------------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns), summed over threads."""
        merged: dict[str, list[int]] = {}
        for state in self._states:
            for name, values in state.totals.items():
                into = merged.setdefault(name, [0, 0, 0])
                for i, value in enumerate(values):
                    into[i] += value
        return {name: tuple(values) for name, values in merged.items()}

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for state in self._states:
            for name, n in state.counts.items():
                merged[name] = merged.get(name, 0) + n
        return merged

    def spans(self):
        """Every kept span as a tuple in SPAN_FIELDS order, name resolved."""
        names = {index: name for name, index in self._names.items()}
        for state in self._states:
            packed = state.spans
            for i in range(0, len(packed), _WIDTH):
                span = packed[i:i + _WIDTH].tolist()
                span[1] = names[span[1]]
                yield tuple(span)

    def span_count(self) -> tuple[int, int]:
        """(kept, dropped) spans."""
        kept = sum(len(state.spans) for state in self._states) // _WIDTH
        return kept, sum(state.dropped for state in self._states)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans():
                out.write("\t".join(map(str, span)) + "\n")
