"""A PUT body streams from the socket into the write path, and a provider
lost mid-stream is re-planned forward, in both topologies.

There is no spool: the gateway hands the body's block iterator down, the
write driver reads it once, a stripe at a time, and a provider that fails
after some stripes landed moves those stripes to the new placement instead
of rewinding the body (``Engine.staged_replan``).
"""

import hashlib
import http.client
import socket
import threading
import time
import tracemalloc

import pytest

from tests.gateway.test_content_md5 import (  # noqa: F401  (fixtures)
    MiB,
    TENANT,
    Stack,
    md5_bytes,
    payload_of,
    stack,
)

STRIPE = 64 * 1024  # the ``stack`` fixture's stripe size


def lose_a_provider_in_stripe_one(broker):
    """The first provider asked to store a chunk of stripe 1 goes down
    (a real outage: reads and deletes fail too) and refuses it.  Returns
    the list its name lands in."""
    lost = []
    for provider in broker.registry.providers():
        original = provider.put_chunk

        def put_chunk(key, chunk, name=provider.name, original=original):
            if ":1." in key and not lost:
                lost.append(name)
                broker.registry.fail(name)
            return original(key, chunk)

        provider.put_chunk = put_chunk
    return lost


def referenced(meta):
    return sorted((p, ck) for _s, _i, p, ck in meta.iter_chunks())


class TestReplanForward:
    def test_a_provider_lost_after_stripe_one_replans_forward(self, stack):
        data = payload_of(3 * STRIPE, seed=11)
        lost = lose_a_provider_in_stripe_one(stack.broker)
        blocks = [data[i : i + 8192] for i in range(0, len(data), 8192)]
        status, doc = stack.request("PUT", "/bkt/three.bin", iter(blocks), chunked=True)
        assert (status, doc["stripes"]) == (200, 3)
        assert doc["etag"] == hashlib.md5(data).hexdigest()
        assert len(lost) == 1
        meta = stack.frontend.head(TENANT, "bkt", "three.bin")
        assert lost[0] not in [p for _, p in meta.chunk_map]
        assert stack.frontend.get(TENANT, "bkt", "three.bin") == data
        # The lost provider's chunks wait in the pending-delete queue;
        # once it is back and the queue flushed, nothing is orphaned.
        stack.broker.registry.recover(lost[0])
        stack.broker.cluster.pending_deletes.flush(stack.broker.registry)
        assert sorted(stack.stored_chunks()) == referenced(meta)
        assert len(stack.broker.cluster.locks.in_flight) == 0

    def test_a_replanned_put_hashes_each_body_byte_once(self, stack, md5_bytes):
        data = payload_of(3 * STRIPE + 17, seed=12)
        lost = lose_a_provider_in_stripe_one(stack.broker)
        md5_bytes.clear()
        status, doc = stack.request("PUT", "/bkt/once.bin", iter([data]), chunked=True)
        assert lost and status == 200
        assert sum(md5_bytes) == len(data)
        assert doc["etag"] == hashlib.md5(data).hexdigest()


def _blocks(total, block=256 * 1024):
    pattern = bytes(range(256)) * (block // 256)
    for sent in range(0, total, block):
        yield pattern[: min(block, total - sent)]


@pytest.mark.parametrize("topology", ["direct", "workers"])
def test_a_16_mib_chunked_body_peaks_under_ten_stripes(tmp_path, topology):
    """Segment stores on disk, so the traced peak is the gateway's and the
    write path's buffers, not the stored bytes; a gateway that held the
    body would peak at 16 stripes or more."""
    total, stripe = 16 * MiB, 1 * MiB
    rig = Stack(topology, stripe, data_dir=str(tmp_path), storage_sync="never")
    try:
        tracemalloc.start()
        try:
            status, doc = rig.request("PUT", "/bkt/big.bin", _blocks(total), chunked=True)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (status, doc["size"]) == (200, total)
        assert peak / stripe < 10
    finally:
        rig.close()


def test_a_byte_per_ms_upload_stalls_no_get(stack):
    """A chunked upload that trickles in one byte a millisecond is read at
    the client's pace while 100 GETs of other keys complete."""
    keys = [f"k{i}" for i in range(10)]
    for key in keys:
        assert stack.request("PUT", f"/bkt/{key}", key.encode() * 100)[0] == 200
    stop = threading.Event()
    sent = bytearray()
    reply = []

    def trickle():
        with socket.create_connection(stack.gateway.address, timeout=30) as sock:
            sock.sendall(
                b"PUT /bkt/slow.bin HTTP/1.1\r\nHost: t\r\n"
                + f"x-scalia-tenant: {TENANT}\r\n".encode()
                + b"Transfer-Encoding: chunked\r\n\r\n"
            )
            while not stop.is_set() or len(sent) < 64:
                byte = bytes([len(sent) % 251])
                sock.sendall(b"1\r\n" + byte + b"\r\n")
                sent.extend(byte)
                time.sleep(0.001)
            sock.sendall(b"0\r\n\r\n")
            reply.append(sock.recv(65536))

    uploader = threading.Thread(target=trickle)
    uploader.start()
    try:
        conn = http.client.HTTPConnection(*stack.gateway.address, timeout=30)
        for i in range(100):
            key = keys[i % len(keys)]
            conn.request("GET", f"/bkt/{key}", headers={"x-scalia-tenant": TENANT})
            response = conn.getresponse()
            assert (response.status, response.read()) == (200, key.encode() * 100)
            # still streaming: every GET completed beside it
            assert uploader.is_alive()
        conn.close()
    finally:
        stop.set()
        uploader.join(30)
    assert reply and reply[0].startswith(b"HTTP/1.1 200")
    assert stack.frontend.get(TENANT, "bkt", "slow.bin") == bytes(sent)
