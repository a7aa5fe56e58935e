"""evolve-churn: offline evolution through the control channel while loops run.

A paced virtual-clock engine (`run(paced=True)`) runs on its own thread
behind a ControlServer on a unix socket; one ControlClient drives it in a
closed loop.  `self-repair-variants.ld` is loaded with the self-repair
trigger set to `RtException; 5ms; Monitor;`.  Every cycle steps the clock,
uploads the one-shot software updater (it creates and destroys a model,
then destructs), steps again so it runs, re-routes the analysis use edge
between the two variants, injects a crash and lists the live layer
diagram; every 20th cycle also exports a snapshot.  The virtual clock keeps
the outcome deterministic.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import threading
from pathlib import Path

from megaloop import harness, loader, reflection
from megaloop.clock import VirtualClock
from megaloop.control import ControlClient, ControlServer

import gen
from common import Result, check_engine, now_ns, percentile

NAME = "evolve-churn"
WHY = ("the paper's offline evolution during live loops: patches, rebinds and "
       "snapshots through the control channel")
LOADS = ("reflection", "dsl", "model", "control")
BYPASSES = ("conditions beyond one decision", "triggers beyond one event edge")
UNIT = "request"
TAIL = 0.99  # of the patch round trips
EPISODE_CYCLES = 250
SOURCE = "mRUBiS"
PATCH = "fixtures/patches/update-software.patch"
USE_LINE = "  use selfRepair.Analyze -> {}"
_ENGINE_TIME = re.compile(r'^  "engineTime": .*\n', re.MULTILINE)


class _Episode:
    def __init__(self, engine, thread, client, listing: str) -> None:
        self.engine = engine
        self.thread = thread
        self.client = client
        self.listing = listing


class Workload:
    def __init__(self, root: Path) -> None:
        self.tracer = None
        self.ld = root / "fixtures" / "lds" / "self-repair-variants.ld"
        self.flds = root / "fixtures" / "flds"
        # relative to the checkout root, which the runner makes the working
        # directory: a unix socket path must stay short
        self.tmp = Path(".perfbench_out") / f"evolve-churn-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.address = f"unix:{self.tmp}/control.sock"
        self.snapshot_path = str(self.tmp / "snapshot.json")
        self.server: ControlServer | None = None
        self.round_trips: list[tuple[int, int]] = []  # (request id, ns), traced only

    def setup(self) -> _Episode:
        engine, _ = loader.build_engine(self.ld, self.flds, clock=VirtualClock())
        reflection.set_trigger_now(engine, "selfRepair", SOURCE, "RtException; 5ms; Monitor;")
        thread = threading.Thread(target=engine.run, kwargs={"paced": True},
                                  name="engine-loop", daemon=True)
        thread.start()
        if self.server is None:
            self.server = ControlServer(engine, self.address)
            self.server.start()
        else:
            # the listener hands its engine to each connection it accepts
            self.server.engine = engine
        client = ControlClient(self.address)
        return _Episode(engine, thread, client, client.request("list"))

    def teardown(self, ep: _Episode) -> None:
        if ep.thread.is_alive():
            # `stop` also ends the listener's connection, so it accepts the next client
            ep.client.request("stop")
            ep.thread.join(30)
        ep.client.close()

    def close(self) -> None:
        # the listener thread stays parked in accept() until the process exits
        if self.server is not None:
            self.server.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def episode(self, ep: _Episode, seed: int, index: int, result: Result) -> None:
        tracer = self.tracer
        request = ep.client.request
        base_use = USE_LINE.format("selfRepairA")
        result.check("evolve-churn.initial_listing", base_use in ep.listing.splitlines(),
                     ep.listing)
        request_id = result.units
        paths = {"patch": PATCH, "snapshot": self.snapshot_path}
        for i, cycle in enumerate(gen.churn_cycles(seed, index, EPISODE_CYCLES)):
            result.calibration.idle()
            responses = []
            for verb, arg in cycle:
                line = f"{verb} {arg.format(**paths)}".rstrip()
                start = now_ns()
                if tracer is None:
                    response = request(line)
                else:
                    request_id += 1
                    with tracer.unit(f"unit.request.{verb}", request_id):
                        response = request(line)
                elapsed = now_ns() - start
                result.add_busy(elapsed)
                result.record("latency" if verb == "patch" else verb, elapsed)
                if tracer is not None:
                    self.round_trips.append((request_id, elapsed))
                responses.append((verb, response))
            result.units_done(len(cycle))
            variant = next(arg for verb, arg in cycle if verb == "rebind").split()[1]
            expected_listing = ep.listing.replace(base_use, USE_LINE.format(variant))
            for verb, response in responses:
                if verb == "list":
                    # the updater must already have destructed
                    if response != expected_listing:
                        result.fail(f"cycle {i}: listing differs from the expected diagram")
                elif not response.startswith("ok"):
                    result.fail(f"cycle {i}: {verb}: {response}")
                elif verb == "patch" and "added=updater" not in response:
                    result.fail(f"cycle {i}: patch: {response}")

        stopped = ep.client.request("stop")
        ep.thread.join(30)
        if not result.check("evolve-churn.engine_stopped",
                            stopped == "ok stopping" and not ep.thread.is_alive(), stopped):
            return
        self._final_checks(ep.engine, result)

    def _final_checks(self, engine, result: Result) -> None:
        start = now_ns()
        text = reflection.export_snapshot(engine).to_json()
        result.record("export", now_ns() - start)
        software, default_ops = harness.build_runtime_inputs()
        start = now_ns()
        clone = reflection.import_snapshot(text, software=software, default_ops=default_ops)
        result.record("import", now_ns() - start)
        with self.tracer.suspend() if self.tracer is not None else contextlib.nullcontext():
            again = reflection.export_snapshot(clone).to_json()
            result.check("evolve-churn.snapshot_roundtrip",
                         _ENGINE_TIME.sub("", text) == _ENGINE_TIME.sub("", again))
        result.gauge_max("reflection.snapshot_bytes", len(text.encode("utf-8")))
        check_engine(NAME, engine, result)

    def trace_gauges(self, tracer, result: Result) -> None:
        """Inbox wait and transport per request, from the kept spans.

        A request's own work is the listener's child spans under
        `handle_request` (parsing a patch file) plus the engine-loop root
        spans that carry the request's id; the rest of `handle_request` is
        time spent waiting on the engine inbox.  Transport is the client
        round trip minus `handle_request`.
        """
        handled: dict[int, int] = {}
        listener = set()
        client = set()
        for _, name, start, end, _, request, thread, _ in tracer.spans():
            if name.startswith("control.handle_request."):
                handled[request] = handled.get(request, 0) + end - start
                listener.add(thread)
            elif name.startswith("unit."):
                client.add(thread)
        worked: dict[int, int] = {}
        for _, name, start, end, _, request, thread, depth in tracer.spans():
            if thread in listener:
                own_work = depth == 1
            else:
                own_work = depth == 0 and thread not in client
            if own_work:
                worked[request] = worked.get(request, 0) + end - start
        wait_ns = sum(max(0, total - worked.get(r, 0)) for r, total in handled.items())
        transport = sorted(rtt - handled[r] for r, rtt in self.round_trips if r in handled)
        result.gauges["control.inbox_wait_ms"] = wait_ns / 1e6
        result.gauges["control.transport_us"] = percentile(transport, 0.5) / 1e3 if transport else 0.0


def report(result: Result, ref: bool) -> list[tuple[str, float, str, int]]:
    patches = result.view("latency", ref)
    commands = sorted(result.view("rebind", ref) + result.view("inject", ref)
                      + result.view("list", ref))
    exports = result.view("export", ref)
    imports = result.view("import", ref)
    return [
        ("evolutions_per_s", result.units / result.busy_s(ref), "1/s", result.units),
        ("patch_latency_p50_ms", percentile(patches, 0.5) / 1e6, "ms", len(patches)),
        ("patch_latency_p99_ms", percentile(patches, 0.99) / 1e6, "ms", len(patches)),
        ("command_latency_p50_us", percentile(commands, 0.5) / 1e3, "us", len(commands)),
        ("snapshot_export_ms", percentile(exports, 0.5) / 1e6, "ms", len(exports)),
        ("snapshot_import_ms", percentile(imports, 0.5) / 1e6, "ms", len(imports)),
    ]
