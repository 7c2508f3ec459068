"""Gateway behaviour in cluster mode: /cluster, forwarding, 503s.

Two full gateway+node stacks in one process — writes to the follower's
gateway must transparently land on the leader, reads stay local, and an
unavailable cluster answers 503 + Retry-After instead of hanging.  Each
stack can also grow the gateway of a pre-forked worker (``Stack.worker``:
the node's ``ClusterFrontend`` behind ``OpsService``, a
``RemoteBrokerFrontend`` over loopback), which must answer as the
in-process gateway does.
"""

import base64
import hashlib
import http.client
import json
import random
import time
from types import SimpleNamespace

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.replication.frontend import ClusterFrontend
from repro.replication.node import ClusterNode

HEARTBEAT = 0.05
ELECTION = 0.4


def wait_for(predicate, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


class Stack:
    """One broker + cluster node + gateway, like ``repro serve --join``."""

    def __init__(self, root, tag, join=None, **broker_options):
        self.broker = Scalia(data_dir=str(root / tag), **broker_options)
        self.node = ClusterNode(
            self.broker,
            node_id=tag,
            listen=("127.0.0.1", 0),
            join=join,
            heartbeat=HEARTBEAT,
            election_timeout=ELECTION,
            rng=random.Random(hash(tag) & 0xFFFF),
        )
        self.frontend = ClusterFrontend(self.broker, self.node)
        self.gateway = ScaliaGateway(self.frontend, port=0).start()
        self.node.gateway_url = self.gateway.url
        self.node.start()
        self._worker = None

    def client(self):
        host, port = self.gateway.address
        return GatewayClient(host, port, tenant="alice")

    def worker(self):
        """The gateway of a pre-forked worker of this node, minus the fork:
        ``ops`` serves the node's frontend, ``remote`` reaches it over the
        ops RPC, ``gateway`` is the worker's HTTP server."""
        if self._worker is None:
            ops = OpsService(self.frontend)
            server = ops.serve("127.0.0.1", 0)
            remote = RemoteBrokerFrontend(*server.address)
            gateway = ScaliaGateway(remote, port=0).start()
            self._worker = SimpleNamespace(
                ops=ops, server=server, remote=remote, gateway=gateway
            )
        return self._worker

    def stored_keys(self):
        return {
            (p.name, key)
            for p in self.broker.registry.providers()
            for key in p.backend.keys()
        }

    def close(self):
        if self._worker is not None:
            self._worker.gateway.close()
            self._worker.remote.close()
            self._worker.server.close()
        self.gateway.close()
        self.node.close()
        self.frontend.close()
        self.broker.close()


@pytest.fixture()
def pair(tmp_path):
    leader = Stack(tmp_path, "n1")
    wait_for(leader.node.is_leader, what="bootstrap election")
    follower = Stack(tmp_path, "n2", join=leader.node.rpc_address)
    wait_for(
        lambda: len(follower.node.members) == 2 and len(leader.node.members) == 2,
        what="membership",
    )
    yield leader, follower
    follower.close()
    leader.close()


def _raw(gateway, method, path, body=None, headers=None):
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


class TestClusterRoute:
    def test_cluster_document(self, pair):
        leader, follower = pair
        with leader.client() as client:
            doc = client.cluster()
        assert doc["role"] == "leader"
        assert doc["node_id"] == "n1"
        assert doc["quorum"] == 2
        assert set(doc["members"]) == {"n1", "n2"}
        with follower.client() as client:
            doc = client.cluster()
        assert doc["role"] == "follower"
        assert doc["leader"] == "n1"
        assert doc["leader_gateway"] == leader.gateway.url

    def test_non_cluster_gateway_404s(self):
        frontend = BrokerFrontend(Scalia())
        gw = ScaliaGateway(frontend, port=0).start()
        try:
            status, _, body = _raw(gw, "GET", "/cluster")
            assert status == 404
            assert b"not part of a cluster" in body
        finally:
            gw.close()
            frontend.close()

    def test_cluster_route_method_gate(self, pair):
        leader, _ = pair
        status, headers, _ = _raw(leader.gateway, "POST", "/cluster")
        assert status == 405
        assert headers.get("Allow") == "GET"


class TestWriteForwarding:
    def test_put_on_follower_lands_on_leader_and_replicates(self, pair):
        leader, follower = pair
        payload = b"via-the-follower" * 50
        with follower.client() as client:
            info = client.put("photos", "fwd.bin", payload)
        assert info["size"] == len(payload)
        # Served by the leader, readable from both gateways.
        with leader.client() as client:
            assert client.get("photos", "fwd.bin") == payload
        wait_for(
            lambda: follower.broker.durability.last_seq
            == leader.broker.durability.last_seq,
            what="replication to the follower",
        )
        with follower.client() as client:
            assert client.get("photos", "fwd.bin") == payload

    def test_a_chunked_put_on_follower_streams_through_to_the_leader(self, pair):
        # No length to relay: the follower forwards the body chunked as it
        # reads it from the client.
        leader, follower = pair
        payload = bytes(range(256)) * 1200
        blocks = [payload[i : i + 65536] for i in range(0, len(payload), 65536)]
        with follower.client() as client:
            info = client.put_stream("photos", "chunked.bin", iter(blocks))
        assert info["size"] == len(payload)
        with leader.client() as client:
            assert client.get("photos", "chunked.bin") == payload

    def test_forwarded_reply_relays_status_body_and_scalia_headers(self, pair):
        leader, follower = pair
        status, headers, body = _raw(
            follower.gateway, "PUT", "/photos/relayed.bin", body=b"r" * 100
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["size"] == 100
        assert headers["ETag"] == f'"{doc["etag"]}"'
        assert headers["x-scalia-placement"] == doc["placement"]
        assert headers["x-scalia-stripes"] == str(doc["stripes"])
        assert "x-scalia-forwarded" not in {name.lower() for name in headers}
        status, _, stored = _raw(leader.gateway, "GET", "/photos/relayed.bin")
        assert (status, stored) == (200, b"r" * 100)

    def test_content_md5_rides_the_forward_and_the_leader_checks_it(self, pair):
        # The follower hashes nothing: the header is relayed verbatim and
        # the leader's write path compares it with the body's MD5.
        leader, follower = pair
        body = b"m" * 3000
        wrong = base64.b64encode(hashlib.md5(b"not it").digest()).decode()
        status, _, reply = _raw(
            follower.gateway, "PUT", "/photos/md5.bin", body=body,
            headers={"Content-MD5": wrong},
        )
        assert status == 400
        assert b"Content-MD5 mismatch" in reply
        with leader.client() as client:
            assert client.head("photos", "md5.bin") is None
        assert leader.stored_keys() == set()
        right = base64.b64encode(hashlib.md5(body).digest()).decode()
        status, _, reply = _raw(
            follower.gateway, "PUT", "/photos/md5.bin", body=body,
            headers={"Content-MD5": right},
        )
        assert status == 200
        assert json.loads(reply)["etag"] == hashlib.md5(body).hexdigest()

    def test_delete_on_follower_forwards(self, pair):
        leader, follower = pair
        with leader.client() as client:
            client.put("photos", "gone.bin", b"x" * 32)
        with follower.client() as client:
            client.delete("photos", "gone.bin")
        with leader.client() as client:
            assert client.head("photos", "gone.bin") is None

    def test_follower_reads_never_forward(self, pair):
        leader, follower = pair
        with leader.client() as client:
            client.put("photos", "local.bin", b"y" * 64)
        wait_for(
            lambda: follower.broker.durability.last_seq
            == leader.broker.durability.last_seq,
            what="replication",
        )
        leader.gateway.close()  # reads must not depend on the leader
        with follower.client() as client:
            assert client.get("photos", "local.bin") == b"y" * 64

    def test_tenant_header_survives_forwarding(self, pair):
        leader, follower = pair
        host, port = follower.gateway.address
        with GatewayClient(host, port, tenant="bob") as client:
            client.put("photos", "bobs.bin", b"b" * 16)
        with GatewayClient(*leader.gateway.address, tenant="bob") as client:
            assert client.get("photos", "bobs.bin") == b"b" * 16
        # Another tenant's namespace stays empty.
        with leader.client() as alice:
            assert alice.head("photos", "bobs.bin") is None


class TestUnavailability:
    def test_write_503_with_retry_after_when_quorum_lost(self, pair):
        leader, follower = pair
        follower.close()  # quorum 2 of 2: commits now impossible
        leader.node.commit_timeout = 0.8  # fail fast for the test
        status, headers, body = _raw(
            leader.gateway,
            "PUT",
            "/photos/stranded.bin",
            body=b"z" * 16,
            headers={"Content-Length": "16"},
        )
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert b"quorum" in body

    def test_unavailable_write_journals_cluster_event(self, pair):
        leader, follower = pair
        follower.close()
        leader.node.commit_timeout = 0.8
        _raw(
            leader.gateway,
            "PUT",
            "/photos/evt.bin",
            body=b"z" * 8,
            headers={"Content-Length": "8"},
        )
        with leader.client() as client:
            events = client.events(type="cluster.unavailable")["events"]
        assert events
        assert events[-1]["method"] == "PUT"

    def test_follower_without_leader_503s_not_hangs(self, tmp_path):
        # A joiner that never reaches its target has no leader to forward
        # to; writes must fail fast with Retry-After.
        probe = random.Random(3).randrange(20000, 65000)
        stack = Stack(tmp_path, "orphan", join=("127.0.0.1", probe))
        try:
            started = time.monotonic()
            status, headers, body = _raw(
                stack.gateway,
                "PUT",
                "/photos/nope.bin",
                body=b"q" * 8,
                headers={"Content-Length": "8"},
            )
            assert status == 503
            assert "Retry-After" in headers
            assert b"no cluster leader" in body
            assert time.monotonic() - started < 10.0
        finally:
            stack.close()

    def test_reads_still_serve_during_unavailability(self, pair):
        leader, follower = pair
        with leader.client() as client:
            client.put("photos", "durable.bin", b"d" * 32)
        wait_for(
            lambda: follower.broker.durability.last_seq
            == leader.broker.durability.last_seq,
            what="replication",
        )
        leader.close()
        # 1-of-2 cannot elect, but the follower's local state serves GETs.
        with follower.client() as client:
            assert client.get("photos", "durable.bin") == b"d" * 32
            with pytest.raises(GatewayError) as excinfo:
                client.put("photos", "new.bin", b"n")
            assert excinfo.value.status == 503


def _replicated(leader, follower):
    wait_for(
        lambda: follower.broker.durability.last_seq
        == leader.broker.durability.last_seq,
        what="replication to the follower",
    )


class TestWorkerOnAClusterNode:
    """``--workers`` composed with ``--cluster-listen``: the worker asks
    its broker who leads, and the broker refuses what a follower may not
    start."""

    def test_worker_learns_from_hello_that_it_is_clustered(self, pair):
        _, follower = pair
        remote = follower.worker().remote
        assert remote.clustered
        assert remote.requires_leader("object", "PUT")
        assert not remote.requires_leader("object", "GET")
        assert not remote.requires_leader("faults", "POST")
        assert remote.is_leader() is False
        assert remote.leader_gateway_url() == pair[0].gateway.url

    def test_follower_worker_reads_locally_and_forwards_writes(self, pair):
        leader, follower = pair
        host, port = follower.worker().gateway.address
        payload = b"via-the-follower's-worker" * 40
        with GatewayClient(host, port, tenant="alice") as client:
            doc, own = client.cluster(), follower.node.status()  # its broker's
            for field in ("node_id", "role", "leader", "leader_gateway", "members"):
                assert doc[field] == own[field]
            info = client.put("photos", "w.bin", payload)  # forwarded, acked
            assert info["size"] == len(payload)
            assert leader.frontend.get("alice", "photos", "w.bin") == payload
            _replicated(leader, follower)
            leader.gateway.close()  # the read below is local
            assert client.get("photos", "w.bin") == payload

    def test_begins_on_a_follower_are_refused_before_anything_lands(self, pair):
        leader, follower = pair
        upload = leader.frontend.create_upload("alice", "photos", "mp")
        _replicated(leader, follower)
        worker = follower.worker()
        call = worker.remote.broker._call
        container = worker.remote.mapper.internal_container("alice", "photos")
        seq, landed = follower.node.dm.last_seq, follower.stored_keys()
        for op, args in (
            ("write_begin", dict(container=container, key="k", size_guess=64)),
            ("part_begin", dict(container=container, key="mp",
                                upload_id=upload.upload_id, part_number=1)),
        ):
            with pytest.raises(NotLeaderError) as refused:
                call(op, **args)
            # crossed the RPC as itself, with what the HTTP layer relays
            assert refused.value.leader_url == leader.gateway.url
        # not planned, not landed, not journaled (no part_begin row)
        assert follower.node.dm.last_seq == seq
        assert follower.stored_keys() == landed
        assert worker.ops._sessions == {}
        assert len(follower.broker.cluster.locks.in_flight) == 0

    def test_begin_with_no_leader_known_is_cluster_unavailable(self, tmp_path):
        probe = random.Random(5).randrange(20000, 65000)
        stack = Stack(tmp_path, "orphan", join=("127.0.0.1", probe))
        try:
            worker = stack.worker()
            with pytest.raises(ClusterUnavailableError) as refused:
                worker.remote.broker._call(
                    "write_begin", container="c", key="k", size_guess=1
                )
            assert refused.value.retry_after == stack.node.election_timeout
            assert worker.ops._sessions == {}
        finally:
            stack.close()

    def test_refused_begin_is_the_503_of_the_single_process_node(
        self, pair, monkeypatch
    ):
        # Leadership moved between the HTTP layer's check and the write:
        # both gateways believed they led when they looked.
        _, follower = pair
        worker = follower.worker()
        monkeypatch.setattr(follower.frontend, "is_leader", lambda: True)
        answers = []
        for gateway in (follower.gateway, worker.gateway):
            status, headers, body = _raw(
                gateway, "PUT", "/photos/late.bin", body=b"l" * 64,
                headers={"Content-Length": "64"},
            )
            answers.append((status, headers.get("Retry-After"), body))
        assert answers[0] == answers[1]
        assert answers[0][:2] == (503, "1")
        assert b"not the leader" in answers[0][2]
        assert worker.ops._sessions == {}

    def test_leader_deposed_between_begin_and_commit_leaves_nothing_behind(
        self, tmp_path, monkeypatch
    ):
        stripe = 4096
        leader = Stack(tmp_path, "solo", stripe_size_bytes=stripe)
        try:
            wait_for(leader.node.is_leader, what="bootstrap election")
            worker = leader.worker()
            landed = leader.stored_keys()

            def deposed():
                raise NotLeaderError("node solo is not the leader", leader_url=None)

            def body():
                yield b"a" * stripe  # read before the begin, shipped after it
                assert worker.ops._sessions  # begun, first stripe landed
                assert leader.stored_keys() != landed
                monkeypatch.setattr(leader.node, "ensure_leader", deposed)
                yield b"b" * 100

            with pytest.raises(NotLeaderError):
                worker.remote.put("alice", "photos", "torn.bin", body())
            # the commit was refused and the driver's abort cleaned up
            assert leader.stored_keys() == landed
            assert worker.ops._sessions == {}
            assert len(leader.broker.cluster.locks.in_flight) == 0
            monkeypatch.undo()
            assert leader.frontend.head("alice", "photos", "torn.bin") is None
        finally:
            leader.close()
