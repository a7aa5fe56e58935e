"""Control-channel protocol over a local socket."""

from __future__ import annotations

import threading

import pytest

from megaloop import build_engine, control, dsl
from megaloop.clock import VirtualClock
from megaloop.control import ControlClient, ControlServer, handle_request
from megaloop.reflection import export_snapshot

from conftest import FLD_DIR, LD_DIR


def connect(addr: str) -> ControlClient:
    """A client whose reads fail after 60 s instead of hanging the suite."""
    client = ControlClient(addr)
    client._sock.settimeout(60)
    return client


def start_served(tmp_path):
    """A paced virtual-clock engine looping in a thread, behind a socket server."""
    engine, _ = build_engine(LD_DIR / "self-repair-variants.ld", FLD_DIR,
                             clock=VirtualClock())
    server = ControlServer(engine, f"unix:{tmp_path}/ctl.sock")
    addr = server.start()
    thread = threading.Thread(target=lambda: engine.run(paced=True), daemon=True)
    thread.start()
    return engine, server, addr, thread


@pytest.fixture
def served(tmp_path):
    engine, server, addr, thread = start_served(tmp_path)
    client = connect(addr)
    yield engine, client
    client.request("stop")
    thread.join(5)
    client.close()
    server.close()


class TestProtocol:
    def test_list_is_the_live_ld_projection(self, served):
        engine, client = served
        listing = client.request("list")
        assert listing.strip() == dsl.serialize_ld(engine.arch).strip()
        # and it equals the parse of the exported snapshot's architecture
        snapshot = export_snapshot(engine)
        assert listing.strip() == snapshot.architecture.strip()

    def test_inject_is_acknowledged(self, served):
        engine, client = served
        response = client.request("inject c3 crash")
        assert response == "ok injected c3 crash"
        assert engine.software["mrubis"].state.components["c3"].lifecycle == "failed"

    def test_rebind_via_control(self, served):
        engine, client = served
        response = client.request("rebind selfRepair.Analyze selfRepairA2")
        assert response.startswith("ok rebound")
        assert engine.instances["selfRepair"].bindings["Analyze"] == \
            ("instance", "selfRepairA2")

    def test_malformed_command_one_line_error_engine_unaffected(self, served):
        engine, client = served
        fingerprint = dsl.serialize_ld(engine.arch)
        response = client.request("frobnicate everything now")
        assert response.startswith("error E-CTL")
        assert "\n" not in response
        assert dsl.serialize_ld(engine.arch) == fingerprint

    def test_engine_error_is_reported_not_raised(self, served):
        engine, client = served
        response = client.request("inject c99 crash")
        assert response.startswith("error E-NO-COMPONENT")

    def test_snapshot_roundtrip_file(self, served, tmp_path):
        engine, client = served
        out = tmp_path / "snap.json"
        response = client.request(f"snapshot {out}")
        assert response == f"ok snapshot {out}"
        from megaloop.reflection import import_snapshot
        clone = import_snapshot(out.read_text(), software={},
                                default_ops=engine.default_ops)
        assert dsl.serialize_ld(clone.arch) == dsl.serialize_ld(engine.arch)


def test_handle_request_without_server():
    engine, _ = build_engine(LD_DIR / "self-repair.ld", FLD_DIR, clock=VirtualClock())
    # direct handler use (same code path the socket serves); engine not looping,
    # so only complete-now commands work via a drain from this thread
    thread = threading.Thread(target=lambda: engine.run(paced=True), daemon=True)
    thread.start()
    assert handle_request(engine, "list").startswith("architecture")
    assert handle_request(engine, "").startswith("error E-CTL")
    assert handle_request(engine, "stop") == "ok stopping"
    thread.join(5)


class TestRobustness:
    def test_step_rejects_a_non_finite_or_negative_time(self, served):
        engine, client = served
        assert client.request("step 1") == "ok stepped to 1s"
        for arg in ("nan", "inf", "-inf", "-1", "-0.5"):
            response = client.request(f"step {arg}")
            assert response.startswith("error E-CTL bad argument"), response
        assert client.request("step 0.5") == "ok stepped to 1.5s"
        assert engine.clock.now() == 1.5

    def test_step_reply_keeps_every_digit(self, served):
        engine, client = served
        assert client.request("step 1234567") == "ok stepped to 1234567s"
        assert engine.clock.now() == 1234567.0

    def test_request_that_raises_is_answered_and_the_server_keeps_serving(
            self, tmp_path, monkeypatch):
        engine, server, addr, thread = start_served(tmp_path)
        handle = control.handle_request

        def faulty(engine, line, *args, **kwargs):
            if line == "boom":
                raise RuntimeError("handler fault")
            return handle(engine, line, *args, **kwargs)

        monkeypatch.setattr(control, "handle_request", faulty)
        first = connect(addr)
        try:
            assert first.request("boom") == \
                "error E-CTL internal error: RuntimeError('handler fault')"
            assert first.request("inject c3 crash") == "ok injected c3 crash"
        finally:
            first.close()
        second = connect(addr)
        try:
            assert second.request("list").strip() == dsl.serialize_ld(engine.arch).strip()
            assert second.request("stop") == "ok stopping"
        finally:
            second.close()
            server.close()
        thread.join(5)
        assert not thread.is_alive()

    def test_timed_out_wait_is_an_error_reply(self):
        # no engine loop drains the inbox, so the command never completes
        engine, _ = build_engine(LD_DIR / "self-repair.ld", FLD_DIR, clock=VirtualClock())
        response = handle_request(engine, "list", timeout=0.05)
        assert response.startswith("error E-CTL ") and "timed out" in response

    def test_deep_patch_leaves_the_server_serving(self, tmp_path):
        engine, server, addr, thread = start_served(tmp_path)
        deep = tmp_path / "deep.patch"
        deep.write_text('patch "Deep" {\n  seed-model selfRepair.RepairStrategies '
                        + "[" * 3000 + "\n}\n", encoding="utf-8")
        first = connect(addr)
        try:
            assert first.request(f"patch {deep}").startswith("error E-SYNTAX literal nested")
        finally:
            first.close()
        second = connect(addr)
        try:
            assert second.request("list").strip() == dsl.serialize_ld(engine.arch).strip()
            assert second.request("stop") == "ok stopping"
        finally:
            second.close()
            server.close()
        thread.join(5)
        assert not thread.is_alive()

    def test_unwritable_snapshot_path_is_an_error_reply(self, served, tmp_path):
        engine, client = served
        response = client.request(f"snapshot {tmp_path}/no/such/dir/snap.json")
        assert response.startswith("error E-CTL cannot write snapshot file")
        assert client.request("inject c3 crash") == "ok injected c3 crash"

    def test_undecodable_request_is_a_malformed_command(self, served):
        engine, client = served
        client._sock.sendall(b"list \xff\xfe\n")
        assert client._rfile.readline().startswith("error E-CTL unknown or malformed command")
        assert client._rfile.readline() == "\n"
        assert client.request("inject c3 crash") == "ok injected c3 crash"
