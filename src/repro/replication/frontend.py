"""Cluster-aware gateway frontend: leader gating + commit barriers.

A :class:`ClusterFrontend` is a :class:`BrokerFrontend` whose write
operations (a) refuse to run on a follower — the HTTP layer forwards
them to the leader first, this is the backstop for leadership lost
mid-request — and (b) block until the write's WAL records are durable on
a commit quorum before returning.  Reads stay local and unguarded:
followers serve them from their replicated state, which is the paper's
eventually-consistent metadata model (Section III-D) applied across
nodes.

``set_fault`` is deliberately *not* leader-gated: fault injection is a
per-node chaos knob (each node simulates its own cloud latencies), and
the failover bench relies on configuring nodes independently.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import WRITE_OPS
from repro.replication.node import ClusterNode


class ClusterFrontend(BrokerFrontend):
    """Frontend for one node of a replicated cluster."""

    clustered = True

    def __init__(self, broker, node: ClusterNode, **kwargs) -> None:
        super().__init__(broker, **kwargs)
        self.node = node

    def gate(self, op: str, fn: Callable[[], Any]) -> Any:
        if op not in WRITE_OPS:
            return fn()
        self.node.ensure_leader()
        result = fn()
        # Barrier: everything this operation journaled has a sequence at
        # or below the WAL's current head; waiting for the head is at
        # worst waiting for a few unrelated-but-concurrent records that
        # would commit in the same quorum round anyway.  The head is
        # synced first: the leader counts only its durable log toward the
        # quorum, and an operation's last records (its chunk deletes) are
        # owed to no other barrier.
        head = self.node.dm.last_seq
        self.node.dm.journal.sync_through(head)
        self.node.wait_committed(head)
        return result

    # -- the gate's answers (overrides of the standalone defaults) ---------

    def ensure_leader(self) -> None:
        self.node.ensure_leader()

    def leader_gateway_url(self) -> Optional[str]:
        return self.node.leader_gateway_url()

    def is_leader(self) -> bool:
        return self.node.is_leader()

    def cluster_status(self) -> Optional[Dict[str, Any]]:
        return self.node.status()
