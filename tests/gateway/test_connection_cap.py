"""Per-worker connection cap: admission control at accept time.

With ``max_connections=N`` the gateway holds a bounded semaphore over
live connections; connection N+1 is refused with a pre-rendered
``503 + Retry-After`` before any request parsing happens, so an
overloaded worker sheds load in O(1) instead of queueing unbounded
handler threads.  Releasing a slot readmits new connections, and a
connection that never sends a request head gives its slot back after
``HEAD_TIMEOUT_S``.
"""

import http.client
import socket
import time

import pytest

from repro.core.broker import Scalia
from repro.gateway import server as server_module
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway


@pytest.fixture()
def capped_gateway():
    frontend = BrokerFrontend(Scalia(), mode="direct")
    gw = ScaliaGateway(frontend, port=0, max_connections=2).start()
    yield gw
    gw.close()
    frontend.close()


def _wait_for_connections(gw, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if gw.active_connections >= count:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"gateway never reached {count} connections "
        f"(at {gw.active_connections})"
    )


def _read_all(sock, timeout=5.0):
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            piece = sock.recv(4096)
            if not piece:
                break
            chunks.append(piece)
    except socket.timeout:
        pass
    return b"".join(chunks)


class TestConnectionCap:
    def test_over_cap_connection_gets_503(self, capped_gateway):
        host, port = capped_gateway.address
        holders = [socket.create_connection((host, port)) for _ in range(2)]
        try:
            _wait_for_connections(capped_gateway, 2)
            extra = socket.create_connection((host, port))
            try:
                response = _read_all(extra)
            finally:
                extra.close()
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503"), response
            assert b"Retry-After: 1" in head
            assert b"Connection: close" in head
            assert b"503" in body
        finally:
            for sock in holders:
                sock.close()

    def test_rejection_is_counted(self, capped_gateway):
        host, port = capped_gateway.address
        holders = [socket.create_connection((host, port)) for _ in range(2)]
        try:
            _wait_for_connections(capped_gateway, 2)
            extra = socket.create_connection((host, port))
            _read_all(extra)
            extra.close()
        finally:
            for sock in holders:
                sock.close()
        text = capped_gateway.frontend.metrics.render_text()
        assert "scalia_gateway_overload_rejections_total 1" in text

    def test_slot_release_readmits(self, capped_gateway):
        host, port = capped_gateway.address
        holders = [socket.create_connection((host, port)) for _ in range(2)]
        _wait_for_connections(capped_gateway, 2)
        for sock in holders:
            sock.close()
        # Slots free as the server notices the closed connections.
        deadline = time.monotonic() + 5.0
        while True:
            conn = http.client.HTTPConnection(host, port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            assert time.monotonic() < deadline, "capacity never recovered"
            time.sleep(0.05)

    def test_silent_connections_time_out_and_free_their_slots(self, monkeypatch):
        monkeypatch.setattr(server_module, "HEAD_TIMEOUT_S", 0.2)
        frontend = BrokerFrontend(Scalia(), mode="direct")
        gw = ScaliaGateway(frontend, port=0, max_connections=2).start()
        try:
            host, port = gw.address
            silent = [socket.create_connection((host, port)) for _ in range(2)]
            try:
                for sock in silent:
                    sock.settimeout(5.0)
                    assert sock.recv(1) == b"", "the server should close it"
            finally:
                for sock in silent:
                    sock.close()
            # The slot is released just after the socket closes.
            deadline = time.monotonic() + 2.0
            while True:
                conn = http.client.HTTPConnection(host, port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    status = conn.getresponse().status
                finally:
                    conn.close()
                if status == 200 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert status == 200
        finally:
            gw.close()
            frontend.close()

    def test_uncapped_by_default(self):
        frontend = BrokerFrontend(Scalia(), mode="direct")
        gw = ScaliaGateway(frontend, port=0).start()
        try:
            host, port = gw.address
            socks = [socket.create_connection((host, port)) for _ in range(8)]
            try:
                _wait_for_connections(gw, 8)
            finally:
                for sock in socks:
                    sock.close()
        finally:
            gw.close()
            frontend.close()
