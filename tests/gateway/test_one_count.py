"""Each frontend operation is counted once, where it ran, in one family.

``scalia_frontend_ops_total{op, outcome}`` is incremented by the
``BrokerFrontend._run`` of the process that ran the operation: the
broker's for the in-process gateway, a worker's for a pre-forked one
(here a :class:`RemoteBrokerFrontend` over a live ops RPC server, in
process).  ``/stats`` reads ``ops`` and ``errors`` from the broker's
``collect()``, which folds every worker's last push, so both topologies
report one request sequence alike, and a frame the broker serves for a
worker counts nothing.
"""

import http.client
import socket
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from test_content_md5 import TENANT, Stack, payload_of  # same directory, rootless tests

from repro.cluster.engine import ObjectNotFoundError
from repro.core.broker import Scalia
from repro.gateway import server as gateway_server
from repro.gateway.frontend import BrokerFrontend

STRIPE = 64 * 1024


def _send(stack, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(*stack.gateway.address, timeout=30)
    try:
        headers = {"x-scalia-tenant": TENANT, **(headers or {})}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("ETag"), response.read()
    finally:
        conn.close()


def _family(stack):
    """The broker's frontend-ops children, ``{(op, outcome): count}``."""
    family = stack.broker.metrics.collect().get("scalia_frontend_ops_total", {"children": ()})
    return {tuple(labels): int(count) for labels, count in family["children"]}


def _moved(before, after):
    return {key: n - before.get(key, 0) for key, n in after.items() if n != before.get(key, 0)}


@pytest.fixture(params=["direct", "workers"])
def stack(request):
    rig = Stack(request.param, STRIPE)
    yield rig
    rig.close()


def _stall(stack, monkeypatch):
    """A sized PUT that sends 10 of its 1 000 bytes and stalls: a 408."""
    monkeypatch.setattr(gateway_server, "HEAD_TIMEOUT_S", 0.3)
    with socket.create_connection(stack.gateway.address) as sock:
        sock.sendall(
            b"PUT /bkt/stalled HTTP/1.1\r\nHost: gw\r\nx-scalia-tenant: "
            + TENANT.encode() + b"\r\nContent-Length: 1000\r\n\r\n" + b"x" * 10
        )
        sock.settimeout(5.0)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    assert answer.startswith(b"HTTP/1.1 408 ")


class TestOneCount:
    def test_the_same_sequence_counts_the_same_in_both_topologies(self, stack, monkeypatch):
        """The in-process dicts are what the frontend's own counters read
        for this sequence before the registry kept them."""
        body = payload_of(STRIPE + 1000, seed=3)  # two stripes
        status, etag, _ = _send(stack, "PUT", "/bkt/two", body)
        assert status == 200
        assert _send(stack, "GET", "/bkt/two")[::2] == (200, body)
        assert _send(stack, "HEAD", "/bkt/ghost")[0] == 404
        assert _send(stack, "GET", "/bkt/two", headers={"If-None-Match": etag})[0] == 304
        assert _send(stack, "GET", "/bkt/two", headers={"Range": "bytes=999999-"})[0] == 416
        assert _send(stack, "DELETE", "/bkt/two")[0] in (200, 204)
        assert _send(stack, "GET", "/bkt")[0] == 200
        upload_id = stack.create_upload("mp")
        assert stack.upload_part("mp", upload_id, b"part")[0] == 200
        assert _send(stack, "POST", f"/bkt/mp?uploadId={upload_id}")[0] == 200
        _stall(stack, monkeypatch)
        stack.push()
        status, stats = stack.request("GET", "/stats")
        assert status == 200
        assert stats["ops"] == {
            "put": 1, "get": 1, "get_stripe": 1, "head": 1, "delete": 1, "list": 1,
            "create_upload": 1, "upload_part": 1, "complete_upload": 1,
        }
        assert stats["errors"] == {"get": 2, "put": 1}

    def test_a_frame_served_for_a_worker_counts_nothing_at_the_broker(self):
        stack = Stack("workers", STRIPE)
        try:
            body = payload_of(STRIPE + 1000, seed=4)  # two stripes
            assert _send(stack, "PUT", "/bkt/two", body)[0] == 200
            stack.push()
            before = _family(stack)
            # open_get and read_stripe are served, the broker counts neither.
            assert _send(stack, "GET", "/bkt/two")[::2] == (200, body)
            assert _family(stack) == before
            stack.push()
            assert _moved(before, _family(stack)) == {
                ("get", "ok"): 1, ("get_stripe", "ok"): 1,
            }
        finally:
            stack.close()

    def test_threads_racing_their_first_count_lose_none(self):
        """Eight threads, each op's children first touched under a 10 us
        switch interval: every call is counted, once."""
        calls = 300
        frontend = BrokerFrontend(Scalia())

        def hammer(worker):
            for i in range(calls):
                assert frontend.head(TENANT, "bkt", f"k{worker}-{i}") is None
                with pytest.raises(ObjectNotFoundError):
                    frontend.get(TENANT, "bkt", f"k{worker}-{i}")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(hammer, w) for w in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        stats = frontend.stats()
        assert (stats["ops"], stats["errors"]) == ({"head": 8 * calls}, {"get": 8 * calls})
        frontend.close()
        frontend.broker.close()


class TestNoMetrics:
    def test_a_broker_without_metrics_counts_nothing_in_either_topology(self, request):
        for topology in ("direct", "workers"):
            stack = Stack(topology, STRIPE, enable_metrics=False)
            request.addfinalizer(stack.close)
            # A worker over such a broker instruments nothing.
            assert stack.gateway.m_requests is None
            assert _send(stack, "PUT", "/bkt/k", b"v")[0] == 200
            assert _send(stack, "GET", "/bkt/ghost")[0] == 404
            stack.push()
            status, stats = stack.request("GET", "/stats")
            assert (status, stats["ops"], stats["errors"]) == (200, {}, {}), topology
