"""``Content-MD5`` is checked by the write path, and a body is MD5'd once.

The gateway parses the header and hands the 16 bytes down; the write
driver compares them with its own ETag digest before commit, wherever it
runs: in the broker process or in a ``--workers`` worker (here a
:class:`RemoteBrokerFrontend` over a live ops RPC server, in process).
"""

import base64
import hashlib
import http.client
import json
import random
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster import writepath
from repro.cluster.engine import BadDigestError
from repro.core.broker import Scalia
from repro.gateway import server as gateway_server
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.obs.workers import WorkerMetricsAggregator

TENANT = "alice"
MiB = 1024 * 1024


def payload_of(size, seed=0):
    return random.Random(seed).randbytes(size)


def b64_md5(data):
    return base64.b64encode(hashlib.md5(data).digest()).decode()


class Stack:
    """A gateway over ``topology``: ``direct`` (the broker's own
    frontend) or ``workers`` (a worker's frontend over the ops RPC, whose
    metrics reach the broker when :meth:`push` ships them)."""

    def __init__(self, topology, stripe_size, **broker_options):
        self.broker = Scalia(stripe_size_bytes=stripe_size, **broker_options)
        self.local = BrokerFrontend(self.broker)
        self.server = None
        frontend = self.local
        if topology == "workers":
            aggregator = WorkerMetricsAggregator(self.broker.metrics)
            self.server = OpsService(self.local, aggregator=aggregator).serve("127.0.0.1", 0)
            frontend = RemoteBrokerFrontend(*self.server.address)
        self.frontend = frontend
        self.gateway = ScaliaGateway(frontend, port=0).start()

    def close(self):
        self.gateway.close()
        if self.server is not None:
            self.frontend.close()
            self.server.close()
        self.local.close()
        self.broker.close()

    def push(self):
        """What a worker's pusher does each second; nothing in process."""
        if self.server is not None:
            self.frontend.push_metrics(0, 1)

    def request(self, method, path, body=None, headers=None, *, chunked=False):
        conn = http.client.HTTPConnection(*self.gateway.address, timeout=30)
        try:
            send = {"x-scalia-tenant": TENANT}
            send.update(headers or {})
            conn.request(method, path, body=body, headers=send, encode_chunked=chunked)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def create_upload(self, key):
        status, doc = self.request("POST", f"/bkt/{key}?uploads")
        assert status == 200
        return doc["uploadId"]

    def upload_part(self, key, upload_id, body, headers=None):
        return self.request(
            "PUT", f"/bkt/{key}?partNumber=1&uploadId={upload_id}", body, headers
        )

    def stored_chunks(self):
        return [
            (p.name, k) for p in self.broker.registry.providers() for k in p.backend.keys()
        ]


@pytest.fixture(params=["direct", "workers"])
def stack(request):
    rig = Stack(request.param, 64 * 1024)
    yield rig
    rig.close()


class TestUploadPartDigest:
    def test_a_good_digest_returns_the_parts_etag(self, stack):
        data = payload_of(200 * 1024, seed=1)
        upload_id = stack.create_upload("mp.bin")
        status, doc = stack.upload_part(
            "mp.bin", upload_id, data, {"Content-MD5": b64_md5(data)}
        )
        assert status == 200
        assert doc["etag"] == hashlib.md5(data).hexdigest()

    def test_a_bad_digest_is_a_400_and_stages_nothing(self, stack):
        data = payload_of(200 * 1024, seed=2)
        upload_id = stack.create_upload("mp.bin")
        status, doc = stack.upload_part(
            "mp.bin", upload_id, data, {"Content-MD5": b64_md5(b"not it")}
        )
        assert status == 400
        assert "Content-MD5 mismatch" in doc["error"]
        assert stack.stored_chunks() == []
        # The upload is still open and takes the part when it is right.
        status, _ = stack.upload_part("mp.bin", upload_id, data)
        assert status == 200


class TestStreamedPutDigest:
    def test_a_bad_digest_on_a_streamed_put_stores_nothing(self, stack):
        data = payload_of(2 * 64 * 1024, seed=3)
        blocks = [data[i : i + 8192] for i in range(0, len(data), 8192)]
        status, doc = stack.request(
            "PUT", "/bkt/two.bin", iter(blocks),
            {"Content-MD5": b64_md5(b"not it")}, chunked=True,
        )
        assert status == 400
        assert "Content-MD5 mismatch" in doc["error"]
        assert stack.frontend.head(TENANT, "bkt", "two.bin") is None
        assert stack.stored_chunks() == []

    def test_a_good_digest_on_a_streamed_put_is_the_etag(self, stack):
        data = payload_of(2 * 64 * 1024 + 5, seed=4)
        status, doc = stack.request(
            "PUT", "/bkt/two.bin", iter([data[:70_000], data[70_000:]]),
            {"Content-MD5": b64_md5(data)}, chunked=True,
        )
        assert status == 200
        assert doc["stripes"] == 3
        assert doc["etag"] == hashlib.md5(data).hexdigest()


class TestStalledBody:
    def _stall(self, stack, monkeypatch, framing, sent):
        """Send a PUT head with ``framing`` and the ``sent`` body bytes,
        then stall: the write session the PUT began is released, and the
        client gets a 408 on a closed connection."""
        monkeypatch.setattr(gateway_server, "HEAD_TIMEOUT_S", 0.3)
        in_flight = stack.broker.cluster.locks.in_flight

        def session_open():
            return len(in_flight) > 0 or stack.stored_chunks() != []

        with socket.create_connection(stack.gateway.address) as sock:
            sock.sendall(
                b"PUT /bkt/stalled.bin HTTP/1.1\r\nHost: gw\r\n"
                b"x-scalia-tenant: " + TENANT.encode() + b"\r\n"
                + framing + b"\r\n" + sent
            )
            deadline = time.monotonic() + 2.0
            while not session_open():
                assert time.monotonic() < deadline, "the PUT never began its write"
                time.sleep(0.01)
            deadline = time.monotonic() + 2.0
            while session_open():
                assert time.monotonic() < deadline, (
                    f"a stalled body still holds {len(in_flight)} in-flight "
                    f"skey(s) and {len(stack.stored_chunks())} staged chunk(s)"
                )
                time.sleep(0.01)
            sock.settimeout(5.0)
            answer = b""
            while chunk := sock.recv(65536):  # the server closes after it
                answer += chunk
        head = answer.partition(b"\r\n\r\n")[0].split(b"\r\n")
        assert head[0] == b"HTTP/1.1 408 Request Timeout"
        assert b"Connection: close" in head[1:]
        assert stack.frontend.head(TENANT, "bkt", "stalled.bin") is None
        # Counted where it failed, and read back from one registry.
        stack.push()
        status, stats = stack.request("GET", "/stats")
        assert (status, stats["errors"].get("put")) == (200, 1)

    def test_a_put_that_stalls_mid_body_releases_its_write_session(
        self, stack, monkeypatch
    ):
        """The head timeout bounds each body read too: a chunked PUT that
        sends a stripe and a half and then stalls gets a 408, and the
        write driver aborts the session it opened."""
        body = payload_of(96 * 1024, seed=8)
        chunk = b"%x\r\n" % len(body) + body + b"\r\n"
        self._stall(stack, monkeypatch, b"Transfer-Encoding: chunked\r\n", chunk)

    def test_a_sized_put_that_stalls_mid_body_releases_its_write_session(
        self, stack, monkeypatch
    ):
        # More than one 256 KiB socket read, so stripes land before the stall.
        body = payload_of(300 * 1024, seed=9)
        self._stall(stack, monkeypatch, b"Content-Length: %d\r\n" % (2 * len(body)), body)


class TestBrokerDigest:
    def test_a_mismatch_raises_and_leaves_no_row_and_no_chunk(self):
        broker = Scalia(stripe_size_bytes=4096)
        try:
            data = payload_of(3 * 4096, seed=5)
            with pytest.raises(BadDigestError, match="Content-MD5 mismatch"):
                broker.put("c", "k", data, content_md5=hashlib.md5(b"x").digest())
            assert broker.head("c", "k") is None
            assert all(not p.backend.keys() for p in broker.registry.providers())
            meta = broker.put("c", "k", data, content_md5=hashlib.md5(data).digest())
            assert meta.checksum == hashlib.md5(data).hexdigest()
        finally:
            broker.close()


class _CountedMd5:
    def __init__(self, inner, counts):
        self._inner, self._counts = inner, counts

    def update(self, data):
        self._counts.append(memoryview(data).nbytes)
        self._inner.update(data)

    def digest(self):
        return self._inner.digest()

    def hexdigest(self):
        return self._inner.hexdigest()


@pytest.fixture()
def md5_bytes(monkeypatch):
    """Bytes MD5'd from here on, leaving out ``repro.util.ids``' hashes
    of short identifier strings (skeys, uuids, class keys)."""
    counts = []
    real = hashlib.md5

    def md5(data=b"", **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "repro.util.ids":
            return real(data, **kwargs)
        counted = _CountedMd5(real(**kwargs), counts)
        if data:
            counted.update(data)
        return counted

    monkeypatch.setattr(hashlib, "md5", md5)
    counts.clear()
    return counts


class TestOneMd5PerPut:
    """A body over the gateway's 1 MiB buffer limit is digested once,
    with or without ``Content-MD5``, on stripes above and below the
    write path's threaded-hash threshold."""

    @pytest.fixture(params=[4 * MiB, 256 * 1024], ids=["threaded", "inline"])
    def big_stack(self, request):
        rig = Stack("direct", request.param)
        yield rig
        rig.close()

    @pytest.mark.parametrize("with_header", [False, True], ids=["bare", "content-md5"])
    def test_a_sized_put_digests_its_body_once(self, big_stack, md5_bytes, with_header):
        data = payload_of(3 * MiB, seed=6)
        etag = hashlib.md5(data).hexdigest()
        headers = {"Content-MD5": b64_md5(data)} if with_header else {}
        md5_bytes.clear()
        status, doc = big_stack.request("PUT", "/bkt/three.bin", data, headers)
        assert sum(md5_bytes) == len(data)
        assert (status, doc["etag"]) == (200, etag)

    @pytest.mark.parametrize("with_header", [False, True], ids=["bare", "content-md5"])
    def test_a_part_digests_its_body_once(self, big_stack, md5_bytes, with_header):
        data = payload_of(8 * MiB, seed=7)
        etag = hashlib.md5(data).hexdigest()
        headers = {"Content-MD5": b64_md5(data)} if with_header else {}
        upload_id = big_stack.create_upload("parts.bin")
        md5_bytes.clear()
        status, doc = big_stack.upload_part("parts.bin", upload_id, data, headers)
        assert sum(md5_bytes) == len(data)
        assert (status, doc["etag"]) == (200, etag)


class TestHasherLifetime:
    def test_a_ship_that_raises_mid_stripe_still_joins_the_hasher(self, monkeypatch):
        """The hasher is joined before the error propagates: a slow MD5
        would otherwise still be running when ``put`` returns."""
        real = hashlib.md5

        class SlowMd5:
            def __init__(self):
                self._inner = real()

            def update(self, data):
                threading.Event().wait(0.2)
                self._inner.update(data)

        def failing_ship(*_args):
            raise RuntimeError("ship failed")

        broker = Scalia(stripe_size_bytes=writepath.OVERLAP_MIN_BYTES)
        try:
            monkeypatch.setattr(writepath, "hashlib", SimpleNamespace(md5=SlowMd5))
            monkeypatch.setattr(writepath, "_ship", failing_ship)
            # Only the hashers: another test's thread may exit meanwhile.
            def hashers():
                return sum(t.name == "etag-md5" for t in threading.enumerate())

            before = hashers()
            with pytest.raises(RuntimeError, match="ship failed"):
                broker.put("c", "k", bytes(2 * writepath.OVERLAP_MIN_BYTES))
            assert hashers() == before
            assert not any(t.name == "etag-md5" for t in threading.enumerate())
        finally:
            broker.close()
