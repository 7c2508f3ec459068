"""Replicated MVCC metadata store — the paper's NoSQL database layer.

Section III-C: object metadata is written with a per-update UUID as version
key; concurrent updates from different datacenters create *multiple live
versions* of a row (Figure 10).  Conflicts are detected with vector clocks
(anti-entropy) and resolved by keeping the freshest timestamp; the stale
versions are returned to the caller so their chunks can be garbage-collected
from the storage providers.  A network partition between datacenters queues
replication; healing runs anti-entropy and converges every replica
(eventual consistency, Section III-D3).
"""

from __future__ import annotations

import bisect
import contextlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Literal, Mapping, Optional, Tuple

Ordering = Literal["before", "after", "equal", "concurrent"]


@dataclass(frozen=True)
class VectorClock:
    """Immutable vector clock mapping node id -> event counter."""

    counters: Mapping[str, int] = field(default_factory=dict)

    def increment(self, node: str) -> "VectorClock":
        """Clock with ``node``'s counter advanced by one."""
        updated = dict(self.counters)
        updated[node] = updated.get(node, 0) + 1
        return VectorClock(updated)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Element-wise maximum of the two clocks."""
        merged = dict(self.counters)
        for node, count in other.counters.items():
            merged[node] = max(merged.get(node, 0), count)
        return VectorClock(merged)

    def compare(self, other: "VectorClock") -> Ordering:
        """Causal ordering between two clocks."""
        nodes = set(self.counters) | set(other.counters)
        less = any(self.counters.get(n, 0) < other.counters.get(n, 0) for n in nodes)
        more = any(self.counters.get(n, 0) > other.counters.get(n, 0) for n in nodes)
        if less and more:
            return "concurrent"
        if less:
            return "before"
        if more:
            return "after"
        return "equal"

    def dominates(self, other: "VectorClock") -> bool:
        """True when this clock causally supersedes (or equals) ``other``."""
        return self.compare(other) in ("after", "equal")


@dataclass(frozen=True)
class VersionedValue:
    """One MVCC version of a row: payload, origin, wall time, causality.

    ``value`` is ``None`` for tombstones (deleted rows).
    """

    uuid: str
    value: Optional[dict]
    timestamp: float
    vclock: VectorClock
    origin_dc: str

    @property
    def is_tombstone(self) -> bool:
        return self.value is None

    def to_dict(self) -> dict:
        """JSON-ready form for the durability journal and snapshots."""
        return {
            "uuid": self.uuid,
            "value": self.value,
            "timestamp": self.timestamp,
            "vclock": dict(self.vclock.counters),
            "origin_dc": self.origin_dc,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "VersionedValue":
        return cls(
            uuid=data["uuid"],
            value=data["value"],
            timestamp=data["timestamp"],
            vclock=VectorClock({str(k): int(v) for k, v in data["vclock"].items()}),
            origin_dc=data["origin_dc"],
        )


@dataclass
class ConflictResolution:
    """Outcome of reading a row: the winner plus any superseded versions.

    ``stale`` versions are what the engine must garbage-collect from the
    storage providers (Figure 10's "the chunks corresponding to the oldest
    version are removed").
    """

    winner: Optional[VersionedValue]
    stale: List[VersionedValue] = field(default_factory=list)
    had_conflict: bool = False


def _freshest(versions: Iterable[VersionedValue]) -> Optional[VersionedValue]:
    """Deterministic freshest-version pick: max (timestamp, uuid)."""
    best: Optional[VersionedValue] = None
    for version in versions:
        if best is None or (version.timestamp, version.uuid) > (best.timestamp, best.uuid):
            best = version
    return best


class _Replica:
    """One datacenter's replica: row_key -> {uuid -> VersionedValue}.

    ``ordered`` mirrors the row keys in sorted order (rows are never
    removed — deletion is a tombstone version) so range scans cost
    O(log rows + result) instead of sorting the whole replica per call.
    """

    def __init__(self, dc: str) -> None:
        self.dc = dc
        self.rows: Dict[str, Dict[str, VersionedValue]] = {}
        self.ordered: List[str] = []

    def apply(self, row_key: str, version: VersionedValue) -> None:
        """Insert a version, then drop versions it causally supersedes."""
        if row_key not in self.rows:
            bisect.insort(self.ordered, row_key)
        row = self.rows.setdefault(row_key, {})
        row[version.uuid] = version
        dominated = [
            u
            for u, v in row.items()
            if u != version.uuid and version.vclock.compare(v.vclock) == "after"
        ]
        for u in dominated:
            del row[u]

    def versions(self, row_key: str) -> List[VersionedValue]:
        return list(self.rows.get(row_key, {}).values())

    def prune(self, row_key: str, keep_uuid: str) -> None:
        """Drop every version of a row except ``keep_uuid``."""
        row = self.rows.get(row_key)
        if not row:
            return
        for u in [u for u in row if u != keep_uuid]:
            del row[u]


class MetadataCluster:
    """Multi-datacenter, multi-master replicated row store with MVCC.

    Writes land on the caller's local replica and replicate synchronously to
    every *reachable* datacenter; a partition queues the replication and an
    explicit :meth:`heal` runs anti-entropy until all replicas converge.
    Reads perform conflict resolution (and read-repair pruning) locally.

    Every public operation runs under one internal reentrant mutex, so a
    row mutation (and its replication fan-out) is atomic with respect to
    every concurrent reader or scanner.  The durability hooks fire while
    the mutex is held — they write to the WAL and may trigger a snapshot
    (which re-enters :meth:`export_state`, hence the reentrancy).  The
    mutex is a leaf-plus-journal lock in the broker's hierarchy: nothing
    called under it ever takes an object, container or statistics lock.
    A public call that journaled something runs ``on_settle`` (the WAL's
    sync barrier) after releasing the mutex, or, inside :meth:`batch`,
    once when the outermost batch ends.
    """

    def __init__(self, datacenters: Iterable[str]) -> None:
        names = list(datacenters)
        if not names:
            raise ValueError("at least one datacenter is required")
        if len(set(names)) != len(names):
            raise ValueError("datacenter names must be unique")
        self._mutex = threading.RLock()
        self._replicas: Dict[str, _Replica] = {dc: _Replica(dc) for dc in names}
        self._partitioned: set[frozenset[str]] = set()
        self._pending: Dict[frozenset[str], List[Tuple[str, VersionedValue]]] = {}
        self._clock_seed = 0
        # Durability hooks (set by the storage layer's DurabilityManager):
        # ``on_apply(dc, row_key, version)`` fires whenever a replica applies
        # a version, ``on_prune(dc, row_key, keep_uuid)`` when read-repair
        # drops the losers of a conflict.  ``None`` means no journaling.
        self.on_apply: Optional[Callable[[str, str, VersionedValue], None]] = None
        self.on_prune: Optional[Callable[[str, str, str], None]] = None
        # ``on_settle()`` makes what this thread journaled durable; never
        # called under the mutex.  ``_batches.depth`` defers it per thread.
        self.on_settle: Optional[Callable[[], None]] = None
        self._batches = threading.local()

    # -- locking ----------------------------------------------------------

    def locked(self):
        """The store's mutex as a context manager (reentrant).

        The durability manager wraps a snapshot in this so no metadata
        version can be applied (and journaled) between the state export
        and the WAL truncation — a record landing in that window would be
        erased while absent from the snapshot, losing an acknowledged
        write on the next recovery.
        """
        return self._mutex

    @contextlib.contextmanager
    def batch(self):
        """Journal every write inside as one batch with one sync.

        A commit's rows (object row, index row, a retired staging row)
        are durable together when the outermost batch ends, and the
        caller deletes the replaced version's chunks only after that.
        WAL replay is prefix-ordered, so a power loss keeps a prefix of
        the batch, never a later row without an earlier one.
        """
        local = self._batches
        local.depth = getattr(local, "depth", 0) + 1
        try:
            yield
        finally:
            local.depth -= 1
        self._settle()

    def _settle(self) -> None:
        if self.on_settle is not None and not getattr(self._batches, "depth", 0):
            self.on_settle()

    # -- topology ---------------------------------------------------------

    @property
    def datacenters(self) -> List[str]:
        return sorted(self._replicas)

    def partition(self, dc_a: str, dc_b: str) -> None:
        """Cut the replication link between two datacenters."""
        with self._mutex:
            self._check_dc(dc_a), self._check_dc(dc_b)
            self._partitioned.add(frozenset((dc_a, dc_b)))

    def heal(self, dc_a: str, dc_b: str) -> None:
        """Restore a link and run anti-entropy over the queued versions."""
        with self._mutex:
            link = frozenset((dc_a, dc_b))
            self._partitioned.discard(link)
            for row_key, version in self._pending.pop(link, []):
                # The queue holds (row, version) in both directions.
                for dc in (dc_a, dc_b):
                    self._apply(dc, row_key, version)
        self._settle()

    def _apply(self, dc: str, row_key: str, version: VersionedValue) -> None:
        """Apply a version to one replica, journaling when hooked."""
        self._replicas[dc].apply(row_key, version)
        if self.on_apply is not None:
            self.on_apply(dc, row_key, version)

    def apply_raw(self, dc: str, row_key: str, version: VersionedValue) -> None:
        """Directly apply a version to one replica (recovery replay path).

        Bypasses replication and the journal hooks: replay must reproduce
        exactly the per-replica applications the journal recorded, not
        re-replicate them.
        """
        with self._mutex:
            self._check_dc(dc)
            self._replicas[dc].apply(row_key, version)

    def prune_raw(self, dc: str, row_key: str, keep_uuid: str) -> None:
        """Directly re-run a journaled read-repair prune (recovery replay)."""
        with self._mutex:
            self._check_dc(dc)
            self._replicas[dc].prune(row_key, keep_uuid)

    def is_partitioned(self, dc_a: str, dc_b: str) -> bool:
        with self._mutex:
            return frozenset((dc_a, dc_b)) in self._partitioned

    def _check_dc(self, dc: str) -> None:
        if dc not in self._replicas:
            raise KeyError(f"unknown datacenter {dc!r}")

    # -- writes -------------------------------------------------------------

    def write(
        self,
        dc: str,
        row_key: str,
        value: Optional[dict],
        *,
        uuid: str,
        timestamp: float,
    ) -> VersionedValue:
        """Write a new version of ``row_key`` from datacenter ``dc``.

        The version's vector clock extends the merge of every version
        currently visible at the local replica, so sequential updates
        supersede their predecessors while concurrent cross-DC updates
        remain incomparable (and surface as conflicts).
        """
        with self._mutex:
            self._check_dc(dc)
            base = VectorClock()
            for existing in self._replicas[dc].versions(row_key):
                base = base.merge(existing.vclock)
            version = VersionedValue(
                uuid=uuid,
                value=value,
                timestamp=timestamp,
                vclock=base.increment(dc),
                origin_dc=dc,
            )
            self._apply(dc, row_key, version)
            self._replicate(dc, row_key, version)
        self._settle()
        return version

    def _replicate(self, origin: str, row_key: str, version: VersionedValue) -> None:
        for dc in self._replicas:
            if dc == origin:
                continue
            link = frozenset((origin, dc))
            if link in self._partitioned:
                self._pending.setdefault(link, []).append((row_key, version))
            else:
                self._apply(dc, row_key, version)

    # -- reads ---------------------------------------------------------------

    def read(self, dc: str, row_key: str, *, repair: bool = True) -> ConflictResolution:
        """Read ``row_key`` at ``dc``, resolving multi-version conflicts.

        With ``repair=True`` (default) the losing versions are pruned from
        the local replica after resolution, mirroring Scalia's
        keep-the-freshest policy (Section III-C1).
        """
        with self._mutex:
            self._check_dc(dc)
            versions = self._replicas[dc].versions(row_key)
            if not versions:
                return ConflictResolution(winner=None)
            winner = _freshest(versions)
            stale = [v for v in versions if v.uuid != winner.uuid]
            pruned = repair and bool(stale)
            if pruned:
                self._replicas[dc].prune(row_key, winner.uuid)
                if self.on_prune is not None:
                    self.on_prune(dc, row_key, winner.uuid)
            resolution = ConflictResolution(
                winner=winner, stale=stale, had_conflict=len(stale) > 0
            )
            if winner.is_tombstone:
                resolution.winner = None
                if winner not in resolution.stale:
                    # A tombstone that wins still implies the older versions'
                    # chunks must be GC'd; the tombstone itself carries none.
                    pass
        if pruned:
            # Before the caller collects the losers' chunks.
            self._settle()
        return resolution

    def scan_keys(
        self,
        dc: str,
        prefix: str = "",
        *,
        start_after: str = "",
        limit: Optional[int] = None,
    ) -> List[str]:
        """Sorted row keys matching ``prefix``, strictly after ``start_after``.

        Served from the replica's ordered key index by bisection:
        O(log rows + result), so a paginated listing's per-page cost
        depends on the page, not the container.  Tombstoned rows are
        included (resolve with :meth:`winner`); the caller decides what
        a live row is.
        """
        with self._mutex:
            self._check_dc(dc)
            ordered = self._replicas[dc].ordered
            start = bisect.bisect_left(ordered, prefix)
            if start_after:
                start = max(start, bisect.bisect_right(ordered, start_after))
            out: List[str] = []
            for index in range(start, len(ordered)):
                row_key = ordered[index]
                if not row_key.startswith(prefix):
                    break  # sorted: the prefix range is contiguous
                out.append(row_key)
                if limit is not None and len(out) == limit:
                    break
            return out

    def winner(self, dc: str, row_key: str) -> Optional[VersionedValue]:
        """Freshest non-tombstone version of a row, without read-repair."""
        with self._mutex:
            self._check_dc(dc)
            winner = _freshest(self._replicas[dc].versions(row_key))
            if winner is None or winner.is_tombstone:
                return None
            return winner

    def scan(self, dc: str, prefix: str = "") -> Dict[str, VersionedValue]:
        """All non-tombstone winners whose row key starts with ``prefix``."""
        with self._mutex:  # one atomic view across the whole prefix range
            out: Dict[str, VersionedValue] = {}
            for row_key in self.scan_keys(dc, prefix):
                winner = self.winner(dc, row_key)
                if winner is not None:
                    out[row_key] = winner
            return out

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-ready dump of every replica (snapshot support)."""
        with self._mutex:
            return {
                dc: {
                    row_key: [v.to_dict() for v in sorted(row.values(), key=lambda v: v.uuid)]
                    for row_key, row in replica.rows.items()
                }
                for dc, replica in self._replicas.items()
            }

    def restore_state(self, state: Mapping) -> None:
        """Inverse of :meth:`export_state`; unknown datacenters are ignored."""
        with self._mutex:
            for replica in self._replicas.values():
                replica.rows.clear()
                replica.ordered.clear()
            for dc, rows in state.items():
                if dc not in self._replicas:
                    continue
                for row_key, versions in rows.items():
                    for version in versions:
                        self._replicas[dc].apply(row_key, VersionedValue.from_dict(version))

    # -- introspection -------------------------------------------------------

    def raw_versions(self, dc: str, row_key: str) -> List[VersionedValue]:
        """All stored versions at a replica (for tests and debugging)."""
        with self._mutex:
            self._check_dc(dc)
            return self._replicas[dc].versions(row_key)

    def converged(self, row_key: str) -> bool:
        """True when every replica stores the identical version set."""
        with self._mutex:
            snapshots = [
                {v.uuid for v in replica.versions(row_key)}
                for replica in self._replicas.values()
            ]
            return all(s == snapshots[0] for s in snapshots)
