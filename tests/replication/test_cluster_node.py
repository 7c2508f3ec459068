"""In-process integration tests for the cluster runtime.

Real sockets, real threads, three brokers in one process.  Timings are
compressed (50 ms heartbeats) so the whole module stays in CI budget;
every wait is condition-polled with a generous ceiling, never a bare
sleep.
"""

import os
import random
import threading
import time

import pytest

from repro.core.broker import Scalia
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
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


class Harness:
    """Builds nodes on demand and tears everything down afterwards."""

    def __init__(self, root):
        self.root = root
        self.nodes = {}
        self.brokers = {}

    def spawn(self, tag, join=None, seed=None, sync="os"):
        broker = Scalia(data_dir=str(self.root / tag), storage_sync=sync)
        node = ClusterNode(
            broker,
            node_id=tag,
            listen=("127.0.0.1", 0),
            join=join,
            gateway_url=f"http://gw-{tag}",
            heartbeat=HEARTBEAT,
            election_timeout=ELECTION,
            rng=random.Random(seed if seed is not None else hash(tag) & 0xFFFF),
        )
        node.start()
        self.nodes[tag] = node
        self.brokers[tag] = broker
        return broker, node

    def kill(self, tag):
        """SIGKILL analogue: stop the runtime without a broker snapshot."""
        self.nodes.pop(tag).close()
        self.brokers.pop(tag).close()

    def leader(self):
        for node in self.nodes.values():
            if node.is_leader():
                return node
        return None

    def close(self):
        for node in self.nodes.values():
            node.close()
        for broker in self.brokers.values():
            broker.close()


@pytest.fixture()
def harness(tmp_path):
    h = Harness(tmp_path)
    yield h
    h.close()


def three_node_cluster(harness):
    _, n1 = harness.spawn("n1")
    wait_for(n1.is_leader, what="bootstrap self-election")
    harness.spawn("n2", join=n1.rpc_address)
    harness.spawn("n3", join=n1.rpc_address)
    wait_for(
        lambda: all(len(n.members) == 3 for n in harness.nodes.values()),
        what="membership convergence",
    )
    return harness.brokers, harness.nodes


class TestSingleNode:
    def test_bootstrap_node_elects_itself_and_commits_alone(self, harness):
        broker, node = harness.spawn("solo")
        wait_for(node.is_leader, what="self-election")
        broker.put("bkt", "k", b"alone" * 10)
        node.wait_committed(node.dm.last_seq, timeout=5.0)
        assert node.commit_seq == node.dm.last_seq
        doc = node.status()
        assert doc["role"] == "leader"
        assert doc["quorum"] == 1

    def test_requires_a_durable_broker(self):
        broker = Scalia()  # memory-only: no WAL, nothing to replicate
        try:
            with pytest.raises(ValueError, match="data_dir"):
                ClusterNode(broker, node_id="x", listen=("127.0.0.1", 0))
        finally:
            broker.close()

    def test_joiner_without_contact_never_self_elects(self, harness):
        # Split-brain guard: a --join node that cannot reach anyone must
        # not bootstrap a second cluster of its own.
        probe = random.Random(1).randrange(20000, 65000)
        _, node = harness.spawn("lost", join=("127.0.0.1", probe))
        time.sleep(3 * ELECTION)
        assert not node.is_leader()
        with pytest.raises(ClusterUnavailableError):
            node.ensure_leader()


class TestReplication:
    def test_writes_replicate_and_read_back_on_followers(self, harness):
        brokers, nodes = three_node_cluster(harness)
        leader = harness.leader()
        leader_broker = harness.brokers[leader.node_id]
        payload = b"stripe-me" * 200
        leader_broker.put("bkt", "doc", payload)
        leader.wait_committed(leader.dm.last_seq, timeout=10.0)
        wait_for(
            lambda: all(
                b.durability.last_seq == leader.dm.last_seq for b in brokers.values()
            ),
            what="follower catch-up",
        )
        for tag, broker in brokers.items():
            assert broker.get("bkt", "doc") == payload, f"read on {tag}"

    def test_leader_tracks_match_and_liveness(self, harness):
        brokers, nodes = three_node_cluster(harness)
        leader = harness.leader()
        harness.brokers[leader.node_id].put("bkt", "x", b"y" * 64)
        leader.wait_committed(leader.dm.last_seq, timeout=10.0)
        wait_for(
            lambda: all(
                info.get("match_seq") == leader.dm.last_seq and info.get("alive")
                for member, info in leader.status()["members"].items()
                if member != leader.node_id
            ),
            what="match/alive convergence",
        )

    def test_follower_rejects_writes_with_leader_hint(self, harness):
        brokers, nodes = three_node_cluster(harness)
        leader = harness.leader()
        follower = next(n for n in nodes.values() if n is not leader)
        with pytest.raises(NotLeaderError) as excinfo:
            follower.ensure_leader()
        assert excinfo.value.leader_url == f"http://gw-{leader.node_id}"

    def test_late_joiner_catches_up_through_a_snapshot(self, harness):
        _, n1 = harness.spawn("n1")
        wait_for(n1.is_leader, what="self-election")
        b1 = harness.brokers["n1"]
        payload = b"pre-snapshot" * 64
        b1.put("bkt", "old", payload)
        # Snapshot + truncate: the joiner cannot be served from the WAL.
        assert b1.durability.snapshot() is not None
        assert not b1.durability.can_tail(0)
        b2, n2 = harness.spawn("n2", join=n1.rpc_address)
        wait_for(
            lambda: b2.durability.last_seq >= b1.durability.last_seq,
            what="snapshot catch-up",
        )
        assert b2.get("bkt", "old") == payload
        # And the stream continues incrementally afterwards.
        b1.put("bkt", "new", b"post-snapshot" * 8)
        n1.wait_committed(n1.dm.last_seq, timeout=10.0)
        wait_for(
            lambda: b2.durability.last_seq == b1.durability.last_seq,
            what="post-snapshot streaming",
        )
        assert b2.get("bkt", "new") == b"post-snapshot" * 8


class WalFsyncs:
    """``os.fsync`` stand-in counting one journal's fsyncs; ``hold`` makes
    them wait until released."""

    def __init__(self, journal, real):
        self.journal, self.real = journal, real
        self.count = 0
        self.release = threading.Event()
        self.release.set()
        self.entered = threading.Event()

    def __call__(self, fd):
        if os.path.samestat(os.fstat(fd), os.stat(self.journal.path)):
            self.count += 1
            self.entered.set()
            self.release.wait(10.0)
        return self.real(fd)


class TestGroupCommit:
    def test_a_replicated_batch_costs_the_follower_one_wal_fsync(self, tmp_path, monkeypatch):
        broker = Scalia(data_dir=str(tmp_path), storage_sync="always")
        node = ClusterNode(broker, node_id="f", listen=("127.0.0.1", 0))
        try:
            fsyncs = WalFsyncs(broker.durability.journal, os.fsync)
            monkeypatch.setattr(os, "fsync", fsyncs)
            records = [{"t": "noop", "seq": seq, "rt": 1} for seq in range(1, 9)]
            reply = node._h_append(
                {"term": 1, "leader": "L", "records": records, "commit": 0}
            )
            assert reply == {"status": "ok", "term": 1, "last_seq": 8}
            assert fsyncs.count == 1
            assert broker.durability.synced_seq == 8
        finally:
            node.close()
            broker.close()

    def test_commit_never_passes_the_leaders_synced_seq(self, harness, monkeypatch):
        b1, n1 = harness.spawn("n1", sync="always")
        wait_for(n1.is_leader, what="self-election")
        _, n2 = harness.spawn("n2", join=n1.rpc_address)
        wait_for(
            lambda: all(len(n.members) == 2 for n in harness.nodes.values()),
            what="membership convergence",
        )
        b1.put("bkt", "warm", b"w" * 64)
        n1.wait_committed(n1.dm.last_seq, timeout=10.0)

        fsyncs = WalFsyncs(n1.dm.journal, os.fsync)
        fsyncs.release.clear()
        monkeypatch.setattr(os, "fsync", fsyncs)
        writer = threading.Thread(target=b1.put, args=("bkt", "held", b"h" * 64))
        writer.start()
        try:
            assert fsyncs.entered.wait(10.0)
            synced = n1.dm.synced_seq
            # The follower receives and acks the unsynced rows ...
            wait_for(
                lambda: n1.status()["members"]["n2"].get("match_seq") == n1.dm.last_seq,
                what="follower ack of the unsynced rows",
            )
            assert n1.dm.last_seq > synced
            # ... but the leader's own log is not durable past ``synced``.
            assert n1.commit_seq <= synced
        finally:
            fsyncs.release.set()
            writer.join(10.0)
        n1.wait_committed(n1.dm.last_seq, timeout=10.0)
        assert n1.dm.synced_seq == n1.commit_seq == n1.dm.last_seq


class TestFailover:
    def test_leader_death_elects_survivor_with_all_acked_writes(self, harness):
        brokers, nodes = three_node_cluster(harness)
        leader = harness.leader()
        leader_broker = harness.brokers[leader.node_id]
        acked = {}
        for i in range(5):
            key = f"doc-{i}"
            payload = bytes([i]) * (64 + i)
            leader_broker.put("bkt", key, payload)
            leader.wait_committed(leader.dm.last_seq, timeout=10.0)
            acked[key] = payload

        harness.kill(leader.node_id)
        wait_for(
            lambda: harness.leader() is not None,
            timeout=30.0,
            what="failover election",
        )
        new_leader = harness.leader()
        assert new_leader.node_id != leader.node_id
        new_broker = harness.brokers[new_leader.node_id]
        for key, payload in acked.items():
            assert new_broker.get("bkt", key) == payload

        # The cluster keeps accepting writes with one member dead (2/3).
        new_broker.put("bkt", "after", b"failover" * 4)
        new_leader.wait_committed(new_leader.dm.last_seq, timeout=10.0)
        surviving_follower = next(
            tag for tag in harness.brokers if tag != new_leader.node_id
        )
        wait_for(
            lambda: harness.brokers[surviving_follower].durability.last_seq
            == new_leader.dm.last_seq,
            what="post-failover replication",
        )
        assert harness.brokers[surviving_follower].get("bkt", "after") == b"failover" * 4

    def test_lost_quorum_fails_writes_instead_of_hanging(self, harness):
        _, n1 = harness.spawn("n1")
        wait_for(n1.is_leader, what="self-election")
        harness.spawn("n2", join=n1.rpc_address)
        wait_for(
            lambda: all(len(n.members) == 2 for n in harness.nodes.values()),
            what="membership",
        )
        b1 = harness.brokers["n1"]
        b1.put("bkt", "before", b"ok")
        n1.wait_committed(n1.dm.last_seq, timeout=10.0)

        harness.kill("n2")  # quorum is 2 of 2: no commits possible now
        b1.put("bkt", "stranded", b"never-acked")
        with pytest.raises(ClusterUnavailableError) as excinfo:
            n1.wait_committed(n1.dm.last_seq, timeout=1.0)
        assert excinfo.value.retry_after > 0

    def test_deposed_leader_steps_down_on_new_term_traffic(self, harness):
        brokers, nodes = three_node_cluster(harness)
        old = harness.leader()
        # Force a new election among the others by making one candidate
        # with a bumped term talk to the old leader.
        other = next(n for n in nodes.values() if n is not old)
        with other._lock:
            term = other.election.start_election()
        assert term > 0
        wait_for(
            lambda: not old.is_leader() or harness.leader() is not None,
            what="term fencing reaction",
        )
        # Eventually exactly one leader, and every node agrees on it.
        def converged():
            leaders = [n for n in nodes.values() if n.is_leader()]
            if len(leaders) != 1:
                return False
            want = leaders[0].node_id
            return all(n.status()["leader"] == want for n in nodes.values())

        wait_for(converged, timeout=30.0, what="single-leader convergence")
