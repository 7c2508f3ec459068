"""HTTP/1.1 conformance of the gateway's connection layer, over raw sockets.

Each test writes request bytes by hand and reads the response bytes
back, so what is checked is the wire: status codes, which responses end
the connection, interim ``100 Continue``, pipelining, header-name case
and duplicates, ``//`` paths — and how many socket writes a response
costs.
"""

import socket
import time

import pytest

from repro.core.broker import Scalia
from repro.gateway import server as server_module
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway


@pytest.fixture()
def gateway():
    frontend = BrokerFrontend(Scalia())
    gw = ScaliaGateway(frontend, port=0).start()
    yield gw
    gw.close()
    frontend.close()


@pytest.fixture()
def stored(gateway):
    """``alpha``'s ``bkt/key`` holding 1 KiB; returns the payload."""
    payload = bytes(range(256)) * 4
    with GatewayClient(*gateway.address, tenant="alpha") as client:
        client.put("bkt", "key", payload)
    return payload


class _Wire:
    """One raw connection: send bytes, parse responses one at a time."""

    def __init__(self, gateway):
        self.sock = socket.create_connection(gateway.address, timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """``(status, headers, body)``, body sized by ``Content-Length``."""
        status_line = self.rfile.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        body = self.rfile.read(int(headers.get("content-length", 0)))
        return status, headers, body

    def closed_by_server(self) -> bool:
        try:
            return self.rfile.read(1) == b""
        except ConnectionResetError:
            return True
        except socket.timeout:
            return False

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@pytest.fixture()
def wire(gateway):
    w = _Wire(gateway)
    yield w
    w.close()


def _refused(gateway, raw: bytes):
    """Send a head the server must refuse; its status, and whether it
    closed the connection afterwards."""
    w = _Wire(gateway)
    try:
        w.send(raw)
        status, _headers, _body = w.response()
        return status, w.closed_by_server()
    finally:
        w.close()


class TestRefusedHeads:
    def test_request_line_over_64_kib_is_414(self, gateway):
        raw = b"GET /" + b"a" * 65_600 + b" HTTP/1.1\r\n\r\n"
        assert _refused(gateway, raw) == (414, True)

    def test_header_line_over_64_kib_is_431(self, gateway):
        raw = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65_600 + b"\r\n\r\n"
        assert _refused(gateway, raw) == (431, True)

    def test_more_than_100_headers_is_431(self, gateway):
        lines = b"".join(b"X-H-%d: v\r\n" % i for i in range(101))
        raw = b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n"
        assert _refused(gateway, raw) == (431, True)

    def test_100_headers_are_accepted(self, wire):
        lines = b"".join(b"X-H-%d: v\r\n" % i for i in range(100))
        wire.send(b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n")
        assert wire.response()[0] == 200

    @pytest.mark.parametrize(
        "line",
        [b"GARBAGE", b"GET /healthz HTTP/x.y", b"GET /healthz HTTP/1.1 extra"],
    )
    def test_malformed_request_line_is_400(self, gateway, line):
        assert _refused(gateway, line + b"\r\n\r\n") == (400, True)

    def test_malformed_header_line_is_400(self, gateway):
        raw = b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n"
        assert _refused(gateway, raw) == (400, True)

    def test_http_2_is_505(self, gateway):
        assert _refused(gateway, b"GET /healthz HTTP/2.0\r\n\r\n") == (505, True)

    def test_unknown_method_is_501(self, gateway):
        assert _refused(gateway, b"BREW /pot HTTP/1.1\r\n\r\n") == (501, True)


class TestConnectionState:
    def test_http_1_0_closes_after_the_response(self, wire):
        wire.send(b"GET /healthz HTTP/1.0\r\n\r\n")
        assert wire.response()[0] == 200
        assert wire.closed_by_server()

    def test_connection_close_closes_after_the_response(self, wire):
        wire.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert wire.response()[0] == 200
        assert wire.closed_by_server()

    def test_http_1_1_keeps_the_connection(self, wire):
        for _ in range(3):
            wire.send(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert wire.response()[0] == 200

    def test_expect_100_continue_before_a_2_mib_body(self, wire):
        body = b"z" * (2 * 1024 * 1024)
        wire.send(
            b"PUT /bkt/big HTTP/1.1\r\n"
            b"Content-Length: %d\r\n"
            b"Expect: 100-continue\r\n\r\n" % len(body)
        )
        status, _headers, interim = wire.response()
        assert (status, interim) == (100, b"")
        wire.send(body)
        status, _headers, reply = wire.response()
        assert status == 200
        assert b'"size": 2097152' in reply

    def test_pipelined_requests_are_answered_in_order(self, wire, stored):
        wire.send(
            b"GET /bkt/key HTTP/1.1\r\nX-Scalia-Tenant: alpha\r\n\r\n"
            b"GET /bkt/missing HTTP/1.1\r\nX-Scalia-Tenant: alpha\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n"
        )
        first, second, third = (wire.response() for _ in range(3))
        assert (first[0], first[2]) == (200, stored)
        assert second[0] == 404
        assert third[0] == 200 and b'"status": "ok"' in third[2]


class TestHeadParsing:
    def test_header_names_are_case_insensitive(self, wire, stored):
        wire.send(b"GET /bkt/key HTTP/1.1\r\nX-SCALIA-TENANT: alpha\r\n\r\n")
        status, _headers, body = wire.response()
        assert (status, body) == (200, stored)

    def test_a_duplicate_header_keeps_its_first_value(self, wire, stored):
        wire.send(
            b"GET /bkt/key HTTP/1.1\r\n"
            b"x-scalia-tenant: alpha\r\n"
            b"X-Scalia-Tenant: beta\r\n\r\n"
        )
        status, _headers, body = wire.response()
        assert (status, body) == (200, stored)

    def test_double_slash_path_reaches_the_object(self, wire, stored):
        wire.send(b"GET //bkt/key HTTP/1.1\r\nx-scalia-tenant: alpha\r\n\r\n")
        status, _headers, body = wire.response()
        assert (status, body) == (200, stored)


class TestPartialSend:
    @pytest.mark.parametrize("first", [0, 7, 17, 21, 31])
    def test_the_rest_follows_from_where_sendmsg_stopped(self, first):
        """``sendmsg`` may take only part of head + body; what follows
        starts at the first unsent byte, in the head or in the body."""

        class Sock:
            def __init__(self):
                self.out = bytearray()

            def sendmsg(self, buffers):
                self.out += b"".join(bytes(b) for b in buffers)[:first]
                return first

            def sendall(self, data):
                self.out += data

        head, body = b"HTTP/1.1 200 OK\r\n", memoryview(b"0123456789abcd")
        sock = Sock()
        server_module._send_with_head(sock, head, body)
        assert bytes(sock.out) == head + bytes(body)


class TestOneWritePerResponse:
    @pytest.fixture()
    def writes(self, gateway, monkeypatch):
        """Every send on a server-side socket (its local port is the
        gateway's), by method name."""
        port = gateway.address[1]
        calls = []
        for name in ("send", "sendall", "sendmsg"):
            original = getattr(socket.socket, name)

            def counted(sock, *args, _original=original, _name=name, **kwargs):
                try:
                    local_port = sock.getsockname()[1]
                except OSError:
                    local_port = None
                if local_port == port:
                    calls.append(_name)
                return _original(sock, *args, **kwargs)

            monkeypatch.setattr(socket.socket, name, counted)
        return calls

    def _writes_for(self, wire, writes, raw: bytes):
        del writes[:]
        wire.send(raw)
        status = wire.response()[0]
        time.sleep(0.05)  # a second write would follow the first at once
        return status, list(writes)

    def test_small_get_put_reply_and_404_are_one_write_each(self, wire, writes):
        body = b"k" * 1024
        put = b"PUT /bkt/one HTTP/1.1\r\nContent-Length: 1024\r\n\r\n" + body
        assert self._writes_for(wire, writes, put)[0] == 200
        assert len(writes) == 1, writes
        get = b"GET /bkt/one HTTP/1.1\r\n\r\n"
        assert self._writes_for(wire, writes, get)[0] == 200
        assert len(writes) == 1, writes
        missing = b"GET /bkt/none HTTP/1.1\r\n\r\n"
        assert self._writes_for(wire, writes, missing)[0] == 404
        assert len(writes) == 1, writes
