"""One cluster member: election, WAL shipping, catch-up, membership.

A :class:`ClusterNode` wraps a live broker (which must have a
``data_dir`` — the WAL *is* the replication stream) and speaks the RPC
protocol of :mod:`repro.replication.rpc` with its peers:

``append``
    Leader -> follower: a batch of WAL records (empty batch =
    heartbeat), plus the leader's term, commit sequence, gateway URL and
    member map.  The follower appends via
    :meth:`DurabilityManager.apply_replicated` (idempotent, deduped by
    sequence) and answers with its last sequence.  Replies of ``gap``
    (follower is behind the batch) and ``resync`` (follower's log
    diverged — it holds uncommitted records from a deposed leader) steer
    the leader's per-peer cursor.

``vote``
    Candidate -> everyone: Raft-style ballot.  The voter applies the log
    restriction in :meth:`~repro.cluster.leader.ElectionState.grant_vote`,
    so only nodes holding every quorum-acknowledged record can win.

``install_chunks`` / ``install_snapshot``
    Leader -> lagging/new follower: full-state catch-up.  Chunk pages
    first (put-if-missing), then the metadata snapshot; the follower
    truncates its WAL and resumes tailing from the snapshot sequence.

``join``
    New node -> any node: membership.  Followers redirect to the leader;
    the leader merges the node into the member map, which then gossips
    outward on every append.  The map is merge-only — a dead member
    still counts toward quorum (safety over availability; operators
    retire nodes by restarting the cluster).

Zero-loss argument (docs/CLUSTER.md has the long form): a write is
acknowledged only after its WAL records reach a majority
(:meth:`wait_committed`); elections need a majority of votes and voters
refuse candidates with older ``(term, seq)`` logs; therefore any elected
leader's log contains every acknowledged record, and term fencing makes
a deposed leader's late traffic rejectable.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.cluster.leader import CANDIDATE, FOLLOWER, LEADER, ElectionState
from repro.erasure.striping import chunk_from_doc, chunk_to_doc
from repro.replication.errors import ClusterUnavailableError, NotLeaderError
from repro.replication.rpc import RpcClient, RpcError, RpcServer

#: Leader-side in-memory record buffer (falls back to the WAL, then to a
#: snapshot transfer, for peers lagging beyond it).
BUFFER_MAX = 8192
#: Records per append batch (chunk records carry payloads, so batches
#: stay small enough to keep frames far below the RPC frame cap).
BATCH_MAX = 64
#: Chunk documents per catch-up page.
CHUNK_PAGE = 128
#: A follower this many records behind gets a ``replica.lagging`` event.
LAG_EVENT_THRESHOLD = 512


class ClusterNode:
    """Election + replication runtime for one broker process."""

    def __init__(
        self,
        broker,
        *,
        node_id: str,
        listen: tuple,
        gateway_url: Optional[str] = None,
        join: Optional[tuple] = None,
        heartbeat: float = 0.1,
        election_timeout: float = 1.0,
        commit_timeout: float = 10.0,
        rng=None,
    ) -> None:
        if broker.durability is None:
            raise ValueError("cluster mode requires a data_dir (the WAL is the stream)")
        self.broker = broker
        self.dm = broker.durability
        self.node_id = node_id
        self.gateway_url = gateway_url
        self.heartbeat = heartbeat
        self.election_timeout = election_timeout
        self.commit_timeout = commit_timeout
        self.events = broker.events
        self._listen = listen
        self._join_target: Optional[tuple] = tuple(join) if join else None

        # _lock (reentrant, with _cond) guards election state, the member
        # map, the record buffer and commit bookkeeping.  Lock order:
        # the durability manager's _append_lock may be held when _lock is
        # taken (the on_append observer); the reverse never happens — no
        # method calls into the durability manager while holding _lock.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.election = ElectionState(
            node_id, election_timeout=election_timeout, rng=rng
        )
        host, port = listen
        self.members: Dict[str, Dict[str, object]] = {
            node_id: {"host": host, "port": int(port), "gateway": gateway_url}
        }
        self.commit_seq = 0
        self._term_start_seq = 0
        self._leader_gateway: Optional[str] = None
        self._buffer: List[tuple] = []  # (seq, record, t_appended) in seq order
        self._next: Dict[str, int] = {}
        self._match: Dict[str, int] = {}
        self._peer_ok_at: Dict[str, float] = {}
        self._peer_alive: Dict[str, bool] = {}
        self._lag_warned_at: Dict[str, float] = {}

        # One mutex serializes everything that mutates broker state from
        # the network (append batches, snapshot installs) so a stale
        # leader's in-flight batch cannot interleave with a new leader's.
        self._apply_mutex = threading.Lock()

        self._server: Optional[RpcServer] = None
        self._clients: Dict[str, RpcClient] = {}
        self._clients_lock = threading.Lock()
        self._replicators: Dict[str, threading.Thread] = {}
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()

        metrics = broker.metrics
        self._m_lag = None
        self._m_commit = None
        if metrics is not None and metrics.enabled:
            self._m_lag = metrics.gauge(
                "scalia_replication_lag_records",
                "Records the leader has journaled but a peer has not acked.",
                ("peer",),
            )
            self._m_commit = metrics.histogram(
                "scalia_commit_quorum_latency_seconds",
                "Time from local WAL append to quorum commit on the leader.",
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._server = RpcServer(
            self._listen[0],
            int(self._listen[1]),
            {
                "append": self._h_append,
                "vote": self._h_vote,
                "join": self._h_join,
                "install_chunks": self._h_install_chunks,
                "install_snapshot": self._h_install_snapshot,
                "status": self._h_status,
            },
        )
        with self._lock:
            self.members[self.node_id]["port"] = self._server.address[1]
            self.members[self.node_id]["gateway"] = self.gateway_url
        self.dm.on_append = self._on_local_append
        self.dm.journal.on_synced = self._on_local_synced
        for provider in self.broker.registry.providers():
            provider.on_chunk_put = self._on_chunk_put
            provider.on_chunk_delete = self._on_chunk_delete
        self._ticker = threading.Thread(
            target=self._tick_loop, name=f"cluster-tick:{self.node_id}", daemon=True
        )
        self._ticker.start()

    def close(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        self.dm.on_append = None
        self.dm.journal.on_synced = None
        for provider in self.broker.registry.providers():
            provider.on_chunk_put = None
            provider.on_chunk_delete = None
        if self._server is not None:
            self._server.close()
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
        for thread in list(self._replicators.values()):
            thread.join(timeout=2.0)

    @property
    def rpc_address(self) -> tuple:
        return self._server.address if self._server is not None else self._listen

    # -- public state queries ----------------------------------------------

    def is_leader(self) -> bool:
        with self._lock:
            return self.election.role == LEADER

    def leader_gateway_url(self) -> Optional[str]:
        with self._lock:
            if self.election.role == LEADER:
                return self.gateway_url
            return self._leader_gateway

    def ensure_leader(self) -> None:
        """Raise unless this node currently leads (write-path backstop)."""
        with self._lock:
            if self.election.role == LEADER:
                return
            leader_url = self._leader_gateway
        if leader_url:
            raise NotLeaderError(
                f"node {self.node_id} is not the leader", leader_url=leader_url
            )
        raise ClusterUnavailableError(
            "no cluster leader elected", retry_after=self.election_timeout
        )

    def wait_committed(self, seq: int, timeout: Optional[float] = None) -> None:
        """Block until ``seq`` is quorum-committed; the write-ack barrier."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.commit_timeout
        )
        with self._cond:
            while True:
                if self.commit_seq >= seq:
                    return
                if self.election.role != LEADER:
                    raise ClusterUnavailableError(
                        "leadership lost before the write reached a quorum",
                        retry_after=self.election_timeout,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterUnavailableError(
                        f"commit quorum not reached within {self.commit_timeout}s",
                        retry_after=self.election_timeout,
                    )
                self._cond.wait(remaining)

    def status(self) -> Dict[str, object]:
        with self._lock:
            role = self.election.role
            members = {}
            for member_id, info in self.members.items():
                doc = dict(info)
                if role == LEADER and member_id != self.node_id:
                    doc["match_seq"] = self._match.get(member_id, 0)
                    doc["alive"] = self._peer_alive.get(member_id, False)
                members[member_id] = doc
            return {
                "node_id": self.node_id,
                "role": role,
                "term": self.election.term,
                "leader": self.election.leader_id,
                "leader_gateway": self.leader_gateway_url(),
                "last_seq": self.dm.last_seq,
                "last_record_term": self.dm.last_record_term,
                "commit_seq": self.commit_seq,
                "snapshot_floor_seq": self.dm.snapshot_floor_seq,
                "quorum": self._quorum_locked(),
                "members": members,
                "heartbeat_s": self.heartbeat,
                "election_timeout_s": self.election_timeout,
            }

    # -- local append observation (leader data path) -----------------------

    def _on_local_append(self, record: dict) -> None:
        # Called under the durability manager's _append_lock, in exact
        # WAL order; must stay cheap and must not call back into it.
        with self._cond:
            self._buffer.append((int(record["seq"]), record, time.monotonic()))
            if len(self._buffer) > BUFFER_MAX:
                del self._buffer[: len(self._buffer) - BUFFER_MAX]
            self._advance_commit_locked()
            self._cond.notify_all()

    def _on_local_synced(self) -> None:
        # A WAL barrier returned (sync="always"): the leader's own log
        # may now count further toward the commit quorum.
        with self._cond:
            self._advance_commit_locked()

    def _on_chunk_put(self, provider_name: str, key: str, chunk) -> None:
        if self.is_leader():
            self.dm.journal_chunk_put(provider_name, key, chunk)

    def _on_chunk_delete(self, provider_name: str, key: str) -> None:
        if self.is_leader():
            self.dm.journal_chunk_delete(provider_name, key)

    # -- commit bookkeeping ------------------------------------------------

    def _quorum_locked(self) -> int:
        return len(self.members) // 2 + 1

    def _advance_commit_locked(self) -> None:
        if self.election.role != LEADER:
            return
        # The leader's own log counts only as far as it is durable.
        acked = [self.dm.synced_seq] + [
            self._match.get(peer, 0) for peer in self.members if peer != self.node_id
        ]
        acked.sort(reverse=True)
        candidate = acked[self._quorum_locked() - 1]
        # Raft's commit restriction: only advance on a record of the
        # current term (the post-election noop guarantees one exists),
        # which transitively commits everything before it.
        if candidate <= self.commit_seq or candidate < self._term_start_seq:
            return
        previous = self.commit_seq
        self.commit_seq = candidate
        if self._m_commit is not None:
            now = time.monotonic()
            for seq, _record, t_appended in self._buffer:
                if previous < seq <= candidate:
                    self._m_commit.observe(now - t_appended)
        self._cond.notify_all()

    # -- RPC handlers (run on server connection threads) -------------------

    def _h_append(self, req: dict) -> dict:
        term = int(req["term"])
        with self._lock:
            prev_role = self.election.role
            if not self.election.note_heartbeat(term, req["leader"]):
                return {
                    "status": "stale",
                    "term": self.election.term,
                    "last_seq": self.dm.last_seq,
                }
            if prev_role == LEADER:
                self._demote_locked()
            if req.get("gateway"):
                self._leader_gateway = req["gateway"]
            self._merge_members_locked(req.get("members") or {})
        records = req.get("records") or []
        with self._apply_mutex:
            with self._lock:
                if self.election.term != term:
                    return {
                        "status": "stale",
                        "term": self.election.term,
                        "last_seq": self.dm.last_seq,
                    }
            if records:
                first_seq = int(records[0]["seq"])
                if first_seq > self.dm.last_seq + 1:
                    return {
                        "status": "gap",
                        "term": term,
                        "last_seq": self.dm.last_seq,
                    }
                # Raft's consistency check at the append boundary: when
                # the batch extends our log, the leader's record term at
                # our head must match ours — otherwise our tail is a
                # deposed leader's junk and only a snapshot can fix it.
                prev_term = req.get("prev_term")
                if (
                    prev_term is not None
                    and first_seq == self.dm.last_seq + 1
                    and first_seq > 1
                    and int(prev_term) != self.dm.last_record_term
                ):
                    return {
                        "status": "resync",
                        "term": term,
                        "last_seq": self.dm.last_seq,
                    }
                for record in records:
                    if int(record["seq"]) <= self.dm.last_seq:
                        if int(record.get("rt", 0)) > self.dm.last_record_term:
                            # Same sequence, newer term: our tail holds a
                            # deposed leader's uncommitted records.
                            return {
                                "status": "resync",
                                "term": term,
                                "last_seq": self.dm.last_seq,
                            }
                        continue  # at-least-once duplicate
                    self.dm.apply_replicated(self.broker, record)
                # One sync for the whole batch, before it is acknowledged.
                self.dm.settle()
            with self._lock:
                self.commit_seq = max(
                    self.commit_seq,
                    min(int(req.get("commit", 0)), self.dm.last_seq),
                )
        return {"status": "ok", "term": term, "last_seq": self.dm.last_seq}

    def _h_vote(self, req: dict) -> dict:
        with self._lock:
            prev_role = self.election.role
            granted = self.election.grant_vote(
                req["candidate"],
                int(req["term"]),
                (int(req["last_term"]), int(req["last_seq"])),
                (self.dm.last_record_term, self.dm.last_seq),
            )
            if prev_role == LEADER and self.election.role != LEADER:
                self._demote_locked()
            return {"granted": granted, "term": self.election.term}

    def _h_join(self, req: dict) -> dict:
        node_id = req["node_id"]
        with self._lock:
            if self.election.role != LEADER:
                leader = self.election.leader_id
                info = self.members.get(leader) if leader else None
                if info:
                    return {"redirect": [info["host"], info["port"]]}
                raise ClusterUnavailableError(
                    "no leader to admit the new member", retry_after=self.election_timeout
                )
            fresh = node_id not in self.members
            self.members[node_id] = {
                "host": req["host"],
                "port": int(req["port"]),
                "gateway": req.get("gateway"),
            }
            if node_id != self.node_id:
                self._next.setdefault(node_id, self.dm.last_seq + 1)
                self._match.setdefault(node_id, 0)
            term = self.election.term
            members = self._members_doc_locked()
        self._ensure_replicators()
        if fresh:
            self.events.emit("node.joined", key=node_id, members=len(members))
        return {
            "term": term,
            "leader": self.node_id,
            "gateway": self.gateway_url,
            "members": members,
        }

    def _h_install_chunks(self, req: dict) -> dict:
        with self._lock:
            prev_role = self.election.role
            if not self.election.note_heartbeat(int(req["term"]), req["leader"]):
                return {"status": "stale", "term": self.election.term}
            if prev_role == LEADER:
                self._demote_locked()
        name = req["provider"]
        if name in self.broker.registry:
            provider = self.broker.registry.get(name)
            for entry in req["chunks"]:
                provider.adopt_replicated_chunk(entry["k"], chunk_from_doc(entry["c"]))
        return {"status": "ok"}

    def _h_install_snapshot(self, req: dict) -> dict:
        term = int(req["term"])
        with self._lock:
            prev_role = self.election.role
            if not self.election.note_heartbeat(term, req["leader"]):
                return {"status": "stale", "term": self.election.term}
            if prev_role == LEADER:
                self._demote_locked()
            if req.get("gateway"):
                self._leader_gateway = req["gateway"]
            self._merge_members_locked(req.get("members") or {})
        state = req["state"]
        with self._apply_mutex:
            self.dm.adopt_snapshot(self.broker, state)
            for name, keys in (req.get("chunk_keys") or {}).items():
                if name not in self.broker.registry:
                    continue
                provider = self.broker.registry.get(name)
                keep = set(keys)
                for key in provider.snapshot_keys():
                    if key not in keep:
                        provider.drop_replicated_chunk(key)
            with self._lock:
                self.commit_seq = max(
                    self.commit_seq,
                    min(int(req.get("commit", 0)), self.dm.last_seq),
                )
        return {"status": "ok", "term": term, "last_seq": self.dm.last_seq}

    def _h_status(self, req: dict) -> dict:
        return {"status_doc": self.status()}

    # -- membership --------------------------------------------------------

    def _members_doc_locked(self) -> Dict[str, dict]:
        return {member: dict(info) for member, info in self.members.items()}

    def _merge_members_locked(self, incoming: Dict[str, dict]) -> None:
        for member_id, info in incoming.items():
            if member_id not in self.members:
                self.members[member_id] = dict(info)
                if self.election.role == LEADER and member_id != self.node_id:
                    self._next.setdefault(member_id, self.dm.last_seq + 1)
                    self._match.setdefault(member_id, 0)
            elif info.get("gateway") and not self.members[member_id].get("gateway"):
                self.members[member_id]["gateway"] = info["gateway"]

    def _client_for(self, member_id: str, info: dict) -> RpcClient:
        with self._clients_lock:
            client = self._clients.get(member_id)
            if client is None:
                client = RpcClient(
                    str(info["host"]),
                    int(info["port"]),
                    timeout=max(2.0, self.election_timeout),
                    connect_timeout=max(0.5, self.heartbeat * 2),
                )
                self._clients[member_id] = client
            return client

    def _try_join(self) -> None:
        target = self._join_target
        if target is None:
            return
        client = RpcClient(
            target[0], int(target[1]),
            timeout=max(2.0, self.election_timeout),
            connect_timeout=max(0.5, self.heartbeat * 2),
        )
        try:
            response = client.call(
                "join",
                node_id=self.node_id,
                host=self._listen[0],
                port=self.rpc_address[1],
                gateway=self.gateway_url,
            )
        except RpcError:
            return
        finally:
            client.close()
        if "redirect" in response:
            self._join_target = (response["redirect"][0], int(response["redirect"][1]))
            return
        with self._lock:
            self.election.note_heartbeat(int(response["term"]), response["leader"])
            if response.get("gateway"):
                self._leader_gateway = response["gateway"]
            self._merge_members_locked(response.get("members") or {})

    # -- ticker: elections, liveness, lag ----------------------------------

    def _tick_loop(self) -> None:
        interval = max(0.02, self.heartbeat / 2)
        while not self._stop.wait(interval):
            with self._lock:
                joined = self._join_target is None or len(self.members) > 1
                due = joined and self.election.election_due()
                is_leader = self.election.role == LEADER
            if not joined:
                self._try_join()
                continue
            if due:
                self._run_election()
            elif is_leader:
                self._observe_peers()

    def _observe_peers(self) -> None:
        now = time.monotonic()
        dead_after = self.election_timeout
        departed = []
        lagging = []
        with self._lock:
            if self.election.role != LEADER:
                return
            last = self.dm.last_seq
            for peer in self.members:
                if peer == self.node_id:
                    continue
                ok_at = self._peer_ok_at.get(peer)
                was_alive = self._peer_alive.get(peer, False)
                alive = ok_at is not None and (now - ok_at) <= dead_after
                self._peer_alive[peer] = alive
                if was_alive and not alive:
                    departed.append(peer)
                lag = last - self._match.get(peer, 0)
                if self._m_lag is not None:
                    self._m_lag.labels(peer).set(lag)
                if (
                    alive
                    and lag > LAG_EVENT_THRESHOLD
                    and now - self._lag_warned_at.get(peer, 0.0) > 5.0
                ):
                    self._lag_warned_at[peer] = now
                    lagging.append((peer, lag))
        for peer in departed:
            self.events.emit("node.left", key=peer, detected_by=self.node_id)
        for peer, lag in lagging:
            self.events.emit("replica.lagging", key=peer, lag_records=lag)

    def _run_election(self) -> None:
        with self._lock:
            if not self.election.election_due():
                return
            term = self.election.start_election()
            quorum = self._quorum_locked()
            last_term, last_seq = self.dm.last_record_term, self.dm.last_seq
            peers = [
                (peer, dict(info))
                for peer, info in self.members.items()
                if peer != self.node_id
            ]
            if self.election.votes_received >= quorum:
                self._become_leader_locked()
                won_alone = True
            else:
                won_alone = False
        if won_alone:
            self._after_become_leader(term)
            return
        for peer, info in peers:
            threading.Thread(
                target=self._solicit_vote,
                args=(peer, info, term, quorum, last_term, last_seq),
                daemon=True,
            ).start()

    def _solicit_vote(
        self, peer: str, info: dict, term: int, quorum: int, last_term: int, last_seq: int
    ) -> None:
        client = self._client_for(peer, info)
        try:
            response = client.call(
                "vote",
                term=term,
                candidate=self.node_id,
                last_term=last_term,
                last_seq=last_seq,
            )
        except RpcError:
            return
        became_leader = False
        with self._lock:
            if self.election.observe_term(int(response["term"])):
                return
            if self.election.role == CANDIDATE and self.election.record_vote(
                peer, term, bool(response.get("granted")), quorum
            ):
                self._become_leader_locked()
                became_leader = True
        if became_leader:
            self._after_become_leader(term)

    def _become_leader_locked(self) -> None:
        self.election.become_leader()
        self._leader_gateway = self.gateway_url
        self._term_start_seq = self.dm.last_seq + 1
        self.dm.record_term = self.election.term
        for peer in self.members:
            if peer != self.node_id:
                self._next[peer] = self.dm.last_seq + 1
                self._match[peer] = 0
        self._peer_ok_at = {}
        self._cond.notify_all()

    def _after_become_leader(self, term: int) -> None:
        # Outside _lock: the noop append re-enters via on_append and can
        # trigger a snapshot (metadata mutex), neither of which may nest
        # inside the node lock.
        self.dm.append_marker({"t": "noop", "term": term})
        self._ensure_replicators()
        with self._cond:
            self._advance_commit_locked()
        self.events.emit(
            "leader.elected", key=self.node_id, term=term, members=len(self.members)
        )

    def _demote_locked(self) -> None:
        self.dm.record_term = None
        self._cond.notify_all()

    # -- leader replication ------------------------------------------------

    def _ensure_replicators(self) -> None:
        with self._lock:
            peers = [peer for peer in self.members if peer != self.node_id]
        for peer in peers:
            thread = self._replicators.get(peer)
            if thread is None or not thread.is_alive():
                thread = threading.Thread(
                    target=self._replicate_loop,
                    args=(peer,),
                    name=f"replicate:{self.node_id}->{peer}",
                    daemon=True,
                )
                self._replicators[peer] = thread
                thread.start()

    def _replicate_loop(self, peer: str) -> None:
        while not self._stop.is_set():
            with self._cond:
                if self.election.role != LEADER or peer not in self.members:
                    self._cond.wait(self.heartbeat)
                    continue
                term = self.election.term
                info = dict(self.members[peer])
                next_seq = self._next.get(peer, self.dm.last_seq + 1)
                if next_seq > self.dm.last_seq:
                    # Fully shipped: idle until new records or the
                    # heartbeat interval elapses.
                    self._cond.wait(self.heartbeat)
                    if self._stop.is_set() or self.election.role != LEADER:
                        continue
                    term = self.election.term
                    next_seq = self._next.get(peer, self.dm.last_seq + 1)
                batch, source, prev_term = self._batch_locked(next_seq)
                commit = self.commit_seq
                members = self._members_doc_locked()
            if source == "wal":
                # Tail from one record earlier when possible so the batch
                # carries the boundary record's term (the consistency
                # check); at the snapshot floor the term is unknowable
                # from the WAL and prev_term stays None.
                if next_seq >= 2 and self.dm.can_tail(next_seq - 2):
                    batch = []
                    prev_term = None
                    for record in self.dm.tail(next_seq - 2):
                        if int(record["seq"]) == next_seq - 1:
                            prev_term = int(record.get("rt", 0))
                            continue
                        batch.append(record)
                        if len(batch) >= BATCH_MAX:
                            break
                elif self.dm.can_tail(next_seq - 1):
                    batch = []
                    prev_term = 0 if next_seq == 1 else None
                    for record in self.dm.tail(next_seq - 1):
                        batch.append(record)
                        if len(batch) >= BATCH_MAX:
                            break
                else:
                    self._send_snapshot(peer, info, term)
                    continue
            self._send_append(
                peer, info, term, next_seq, batch, commit, members, prev_term
            )

    def _batch_locked(self, next_seq: int):
        """Slice up to BATCH_MAX records >= next_seq from the buffer.

        Returns ``(batch, source, prev_term)`` where ``prev_term`` is the
        term of the record at ``next_seq - 1`` when cheaply known (``0``
        for the log head, ``None`` when only the WAL could tell).
        """
        if next_seq == 1:
            prev_term = 0
        elif next_seq == self.dm.last_seq + 1:
            prev_term = self.dm.last_record_term
        else:
            prev_term = None
        if next_seq > self.dm.last_seq:
            return [], "buffer", prev_term  # pure heartbeat
        if self._buffer and self._buffer[0][0] <= next_seq:
            batch = []
            for seq, record, _t in self._buffer:
                if seq == next_seq - 1:
                    prev_term = int(record.get("rt", 0))
                elif seq >= next_seq:
                    batch.append(record)
                    if len(batch) >= BATCH_MAX:
                        break
            if batch:
                return batch, "buffer", prev_term
        return [], "wal", prev_term

    def _send_append(
        self,
        peer: str,
        info: dict,
        term: int,
        next_seq: int,
        batch: list,
        commit: int,
        members: dict,
        prev_term: Optional[int] = None,
    ) -> None:
        client = self._client_for(peer, info)
        try:
            response = client.call(
                "append",
                term=term,
                leader=self.node_id,
                gateway=self.gateway_url,
                commit=commit,
                members=members,
                records=batch,
                prev_term=prev_term,
            )
        except RpcError:
            self._stop.wait(self.heartbeat)
            return
        status = response.get("status")
        with self._cond:
            if status == "stale":
                if self.election.observe_term(int(response["term"])):
                    self._demote_locked()
                return
            if self.election.role != LEADER or self.election.term != term:
                return
            self._peer_ok_at[peer] = time.monotonic()
            if status == "ok":
                # Cap at our own last: a follower claiming *more* than we
                # hold has a diverged tail (detected and resynced once
                # real records flow) and must not push commit forward.
                acked = min(int(response["last_seq"]), self.dm.last_seq)
                self._match[peer] = max(self._match.get(peer, 0), acked)
                # The follower's own position is the next cursor — it may
                # move *backwards* past what we assumed (a joiner or a
                # restarted peer that answered heartbeats while far
                # behind), which is what starts its catch-up.  Safe
                # because one replicator thread keeps exactly one request
                # in flight per peer.
                self._next[peer] = acked + 1
                self._advance_commit_locked()
            elif status == "gap":
                self._next[peer] = int(response["last_seq"]) + 1
            elif status == "resync":
                self._next[peer] = 0  # sentinel: next pass takes the snapshot path
        if status == "resync":
            self._send_snapshot(peer, info, term)

    def _send_snapshot(self, peer: str, info: dict, term: int) -> None:
        """Full catch-up: chunk pages, then the metadata snapshot."""
        state = self.dm.snapshot()
        if state is None:
            return
        client = self._client_for(peer, info)
        chunk_keys: Dict[str, list] = {}
        try:
            for provider in self.broker.registry.providers():
                keys = provider.snapshot_keys()
                chunk_keys[provider.name] = keys
                page = []
                for key in keys:
                    chunk = provider.export_chunk(key)
                    if chunk is None:
                        continue  # deleted since the key walk; a chunk- record follows
                    page.append({"k": key, "c": chunk_to_doc(chunk)})
                    if len(page) >= CHUNK_PAGE:
                        client.call(
                            "install_chunks",
                            term=term,
                            leader=self.node_id,
                            provider=provider.name,
                            chunks=page,
                        )
                        page = []
                if page:
                    client.call(
                        "install_chunks",
                        term=term,
                        leader=self.node_id,
                        provider=provider.name,
                        chunks=page,
                    )
            with self._lock:
                commit = self.commit_seq
                members = self._members_doc_locked()
            response = client.call(
                "install_snapshot",
                term=term,
                leader=self.node_id,
                gateway=self.gateway_url,
                commit=commit,
                members=members,
                state=state,
                chunk_keys=chunk_keys,
            )
        except RpcError:
            self._stop.wait(self.heartbeat)
            return
        with self._cond:
            if response.get("status") == "stale":
                if self.election.observe_term(int(response["term"])):
                    self._demote_locked()
                return
            if self.election.role != LEADER or self.election.term != term:
                return
            self._peer_ok_at[peer] = time.monotonic()
            if response.get("status") == "ok":
                acked = int(response["last_seq"])
                self._match[peer] = max(self._match.get(peer, 0), acked)
                self._next[peer] = acked + 1
                self._advance_commit_locked()
        self.events.emit(
            "replica.resynced", key=peer, wal_seq=int(state.get("wal_seq", 0))
        )
