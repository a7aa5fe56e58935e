"""Control channel for a running engine.

Newline-delimited request/response: one request line, a response of one or
more lines terminated by a blank line.  Commands:

    snapshot <path>          export the engine state to a JSON file
    patch <path>             apply a patch file at the next quiescent point
    rebind <module.op> <target>
    list                     print the live layer diagram
    inject <component> <kind>
    step <seconds>           advance a paced virtual-clock engine (finite, >= 0)
    stop                     shut the engine down

The listener only enqueues commands onto the engine inbox and waits for
their completion; it never touches engine state itself.  A request that
fails in an unexpected way is answered `error E-CTL internal error: ...`
with its traceback on standard error, and the listener goes on serving
that client and the next.  The address comes from ENGINE_CONTROL_ADDR:
`stdin`, `unix:<path>`, or `tcp:<host>:<port>`.
"""

from __future__ import annotations

import math
import os
import socket
import sys
import threading
import traceback
from pathlib import Path

from .reflection import (apply_patch_now, describe_architecture, export_snapshot,
                         parse_patch, rebind_now)
from .runtime import Engine, EngineError

ADDR_ENV = "ENGINE_CONTROL_ADDR"


def handle_request(engine: Engine, line: str, timeout: float = 30.0) -> str:
    """Execute one control command; returns the response body (no terminator)."""
    parts = line.strip().split()
    if not parts:
        return "error E-CTL empty command"
    verb, args = parts[0], parts[1:]
    try:
        if verb == "list" and not args:
            return engine.submit(describe_architecture, engine).wait(timeout).rstrip("\n")
        if verb == "stop" and not args:
            return "ok " + engine.submit(engine.stop).wait(timeout)
        if verb == "inject" and len(args) == 2:
            engine.submit(engine.inject_failure, args[0], args[1]).wait(timeout)
            return f"ok injected {args[0]} {args[1]}"
        if verb == "step" and len(args) == 1:
            seconds = float(args[0])
            if not (math.isfinite(seconds) and seconds >= 0):
                raise ValueError(f"step needs a finite, non-negative time, got {args[0]!r}")
            return "ok " + engine.submit(engine.step, seconds).wait(timeout)
        if verb == "rebind" and len(args) == 2 and "." in args[0]:
            module, op = args[0].split(".", 1)
            engine.submit(rebind_now, engine, module, op, args[1]).wait(timeout)
            return f"ok rebound {args[0]} -> {args[1]}"
        if verb == "snapshot" and len(args) == 1:
            snapshot = engine.submit(export_snapshot, engine).wait(timeout)
            try:
                Path(args[0]).write_text(snapshot.to_json(), encoding="utf-8")
            except OSError as exc:
                return f"error E-CTL cannot write snapshot file: {exc}"
            return f"ok snapshot {args[0]}"
        if verb == "patch" and len(args) == 1:
            try:
                text = Path(args[0]).read_text(encoding="utf-8")
            except OSError as exc:
                return f"error E-CTL cannot read patch file: {exc}"
            result = parse_patch(text, args[0])
            if not result.ok:
                first = result.diagnostics[0]
                return f"error {first.code} {first.message}"
            report = engine.submit(apply_patch_now, engine, result.value).wait(timeout)
            return (f"ok patch {report.patch} steps={report.steps_applied} "
                    f"added={','.join(report.added_modules) or '-'} "
                    f"removed={','.join(report.removed_modules) or '-'}")
        return f"error E-CTL unknown or malformed command {line.strip()!r}"
    except EngineError as err:
        return f"error {err.code} {err}"
    except TimeoutError as err:
        return f"error E-CTL {err}"
    except ValueError as err:
        return f"error E-CTL bad argument: {err}"


def _serve_stream(engine: Engine, rfile, wfile) -> None:
    for raw in rfile:
        line = raw.strip()
        if not line:
            continue
        try:
            response = handle_request(engine, line)
        except Exception as exc:  # a fault in one request must not silence the channel
            traceback.print_exc(file=sys.stderr)
            response = f"error E-CTL internal error: {exc!r}"
        wfile.write(response + "\n\n")
        wfile.flush()
        if line.split()[0] == "stop":
            break


class ControlServer:
    """Socket listener feeding the engine inbox; one client at a time."""

    def __init__(self, engine: Engine, address: str):
        self.engine = engine
        self.address = address
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> str:
        if self.address.startswith("unix:"):
            path = self.address[len("unix:"):]
            if os.path.exists(path):
                os.unlink(path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(path)
            bound = f"unix:{path}"
        elif self.address.startswith("tcp:"):
            host, port = self.address[len("tcp:"):].rsplit(":", 1)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, int(port)))
            bound = f"tcp:{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        else:
            raise ValueError(f"bad control address {self.address!r}")
        sock.listen(1)
        self._sock = sock
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return bound

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._sock.accept()
            except OSError:
                return
            # closing the file objects too is what ends the connection for the client;
            # undecodable bytes become U+FFFD, so such a line is a malformed command
            try:
                with connection, \
                        connection.makefile("r", encoding="utf-8", errors="replace") as rfile, \
                        connection.makefile("w", encoding="utf-8") as wfile:
                    _serve_stream(self.engine, rfile, wfile)
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass


def serve_stdin(engine: Engine) -> None:
    _serve_stream(engine, sys.stdin, sys.stdout)


class ControlClient:
    """Minimal client used by tests and demo scripts."""

    def __init__(self, address: str):
        if address.startswith("unix:"):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(address[len("unix:"):])
        elif address.startswith("tcp:"):
            host, port = address[len("tcp:"):].rsplit(":", 1)
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.connect((host, int(port)))
        else:
            raise ValueError(f"bad control address {address!r}")
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def request(self, line: str) -> str:
        self._wfile.write(line + "\n")
        self._wfile.flush()
        lines = []
        while True:
            received = self._rfile.readline()
            if received == "" or received == "\n":
                break
            lines.append(received.rstrip("\n"))
        return "\n".join(lines)

    def close(self) -> None:
        # the socket stays connected until its file objects are closed too
        self._rfile.close()
        self._wfile.close()
        self._sock.close()
