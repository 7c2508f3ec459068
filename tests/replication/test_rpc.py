"""Tests for the length-prefixed JSON RPC transport."""

import socket
import threading
import time

import pytest

from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.replication.rpc import (
    MAX_FRAME_BYTES,
    RpcClient,
    RpcError,
    RpcServer,
    recv_message,
    send_message,
)


@pytest.fixture()
def server():
    calls = []

    def echo(req):
        calls.append(dict(req))
        return {"echo": req}

    def boom(req):
        raise ValueError("handler exploded")

    srv = RpcServer("127.0.0.1", 0, {"echo": echo, "boom": boom})
    srv.calls = calls
    yield srv
    srv.close()


class TestFrames:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "x", "n": 7, "s": "héllo"})
            assert recv_message(b) == ({"op": "x", "n": 7, "s": "héllo"}, None)
        finally:
            a.close()
            b.close()

    def test_oversized_announced_frame_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(RpcError, match="refusing"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_closed_mid_frame_is_an_error_not_a_hang(self):
        a, b = socket.socketpair()
        a.sendall((100).to_bytes(4, "big") + b"{}")
        a.close()
        try:
            with pytest.raises(RpcError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()


class TestClientServer:
    def test_call_round_trip(self, server):
        client = RpcClient(*server.address)
        try:
            response = client.call("echo", value=42)
            assert response["ok"] is True
            assert response["echo"] == {"value": 42}
            assert server.calls == [{"value": 42}]
        finally:
            client.close()

    def test_handler_exception_travels_as_rpc_error(self, server):
        client = RpcClient(*server.address)
        try:
            with pytest.raises(RpcError, match="handler exploded"):
                client.call("boom")
            # The connection survives a peer-level error.
            assert client.call("echo")["ok"] is True
        finally:
            client.close()

    def test_unknown_op_rejected(self, server):
        client = RpcClient(*server.address)
        try:
            with pytest.raises(RpcError, match="unknown op"):
                client.call("nope")
        finally:
            client.close()

    def test_reconnects_after_server_restart(self, server):
        client = RpcClient(*server.address)
        try:
            assert client.call("echo")["ok"] is True
            server.close()
            with pytest.raises(RpcError):
                client.call("echo")
            revived = RpcServer(
                server.address[0], server.address[1], {"echo": lambda r: {"again": True}}
            )
            try:
                assert client.call("echo")["again"] is True
            finally:
                revived.close()
        finally:
            client.close()

    def test_concurrent_callers_share_one_connection(self, server):
        client = RpcClient(*server.address)
        errors = []

        def hammer():
            try:
                for i in range(20):
                    assert client.call("echo", i=i)["ok"] is True
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert not errors
        assert len(server.calls) == 80

    def test_connect_failure_is_rpc_error(self):
        # Grab a free port and close it so nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = RpcClient("127.0.0.1", port, connect_timeout=0.5)
        with pytest.raises(RpcError):
            client.call("echo")


class TestClose:
    """``close()`` wakes the accept loop instead of waiting for a poll."""

    def test_an_idle_server_closes_at_once(self):
        srv = RpcServer("127.0.0.1", 0, {})
        time.sleep(0.05)  # the loop is blocked in accept
        started = time.perf_counter()
        srv.close()
        assert time.perf_counter() - started < 0.05
        assert not srv._accept_thread.is_alive()  # noqa: SLF001

    def test_the_ops_server_closes_at_once(self):
        broker = Scalia(enable_metrics=False)
        frontend = BrokerFrontend(broker)
        srv = OpsService(frontend).serve("127.0.0.1", 0)
        try:
            time.sleep(0.05)  # the loop is blocked in accept
            started = time.perf_counter()
            srv.close()
            assert time.perf_counter() - started < 0.05
            assert not srv._accept_thread.is_alive()  # noqa: SLF001
        finally:
            frontend.close()
            broker.close()
