"""Durability manager: wires the data directory into a ``Scalia`` broker.

Layout of a data directory::

    <data_dir>/
      boot               # process boot counter (id-epoch source)
      chunks/<provider>/ # one FileChunkStore per provider
      meta/wal.log       # metadata write-ahead journal
      meta/snapshot.json # latest full-state snapshot

The manager owns three jobs:

* **Backend factory** — every provider the registry creates (including
  ones registered mid-run) gets a segment store under ``chunks/``.
* **Journaling** — it hooks :class:`MetadataCluster` so every applied
  metadata version and read-repair prune lands in the WAL *before* the
  client sees an acknowledgement, and records each closed sampling
  period's usage meters from the broker's tick.
* **Recovery** — on boot it restores the latest snapshot, replays the
  WAL on top (both idempotent), and advances the id epoch so ids issued
  after the crash cannot collide with persisted ones.
* **Replication stream** — every journal record carries a monotonic
  sequence number (stamped by the journal at append time), :meth:`tail`
  iterates records after a given sequence, ``on_append`` lets a cluster
  node observe records as they land, and :meth:`apply_replicated` is the
  follower-side entry point: append a leader's record to the local WAL
  (deduplicated by sequence) and apply it to the live broker.  In
  cluster mode chunk payloads are journaled too (``chunk``/``chunk-``
  records), so the WAL is a complete, self-contained replication stream
  and a promoted follower can serve every acknowledged object from its
  own providers.

Crash model: chunk payloads are durable the moment the provider's
``put_chunk`` returns (the segment store flushes per record), and the
metadata version that makes them reachable is journaled before the
broker's ``put`` returns.  A SIGKILL therefore loses only operations that
were never acknowledged.  Usage meters are journaled at period
granularity — increments inside the currently open period are the one
piece of state a crash forfeits, which affects billing introspection,
never object data.

Power-loss model (``sync="always"``): the hooks only *write* their
records; a thread's written records become durable at its next
:meth:`DurabilityManager.settle`, the journal's group-commit barrier.
The metadata store and the pending-delete queue settle at the end of
each public call, after releasing their mutex, and a commit's rows
(``MetadataCluster.batch``) share one settle that runs before any chunk
of the replaced version is deleted.  So the contract is unchanged —
durable when the call returns — while concurrent commits share fsyncs
and no fsync runs under either mutex.
"""

from __future__ import annotations

import os
import re
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

from repro.cluster.metadata import VersionedValue
from repro.erasure.striping import chunk_from_doc, chunk_to_doc
from repro.obs.events import resolve_journal
from repro.providers.pricing import ProviderSpec
from repro.storage.segment import FileChunkStore
from repro.storage.wal import Journal, fsync_directory, load_snapshot, write_snapshot

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX platforms
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (broker builds us)
    from repro.core.broker import Scalia

_UNSAFE = re.compile(r"[^A-Za-z0-9._()-]")


def _fs_name(provider_name: str) -> str:
    """Provider name mapped to a filesystem-safe directory name."""
    return _UNSAFE.sub("_", provider_name)


class DurabilityManager:
    """Owns one data directory and the recovery/journaling protocol."""

    def __init__(
        self,
        data_dir: str | os.PathLike,
        *,
        sync: str = "os",
        snapshot_every_records: int = 4096,
        segment_max_bytes: int = 64 * 1024 * 1024,
        metrics=None,
        events=None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.sync = sync
        self.snapshot_every_records = snapshot_every_records
        self.segment_max_bytes = segment_max_bytes
        (self.data_dir / "chunks").mkdir(parents=True, exist_ok=True)
        self._lock_fh = self._acquire_lock()
        self.boot_epoch = self._bump_boot_counter()
        self.journal = Journal(self.data_dir / "meta" / "wal.log", sync=sync, metrics=metrics)
        self.snapshot_path = self.data_dir / "meta" / "snapshot.json"
        # _counter_lock is a leaf guarding only the snapshot cadence
        # counter (safe to take under any other lock, including the
        # pending-queue mutex its hooks hold).  _snap_lock serializes
        # snapshot writes and is only ever acquired *after* the metadata
        # mutex — see snapshot() for the full ordering argument.
        self._counter_lock = threading.Lock()
        self._snap_lock = threading.RLock()
        # Serializes append + on_append notification pairs so the
        # replication stream observes records in exactly their WAL order,
        # and excludes appends during a snapshot's export+truncate window
        # so the truncation point is an exact sequence number.  Innermost
        # in the lock hierarchy after the journal's own mutex; the
        # on_append callback must not re-enter the durability manager.
        self._append_lock = threading.RLock()
        self._records_since_snapshot = 0
        # Per thread: the highest seq it wrote that no barrier covers yet.
        self._owed = threading.local()
        self._broker: Optional["Scalia"] = None
        self._replaying = False
        #: Observer for freshly appended records (the cluster node's
        #: replication feed).  Called in WAL order, after the append.
        self.on_append: Optional[Callable[[dict], None]] = None
        #: When set (by a cluster leader), every appended record is
        #: stamped with this term (``"rt"``) so followers can verify log
        #: consistency and a deposed leader's records are identifiable.
        self.record_term: Optional[int] = None
        #: Term of the most recently appended/applied record (election
        #: vote restriction compares (term, seq) pairs).
        self.last_record_term = 0
        #: Records at or below this sequence were folded into the latest
        #: snapshot and are no longer in the WAL; :meth:`tail` cannot
        #: serve below it (catch-up needs a snapshot transfer instead).
        self.snapshot_floor_seq = 0
        self.recovery_report: Dict[str, object] = {}
        self.snapshots_written = 0
        # Decision-event journal (distinct from self.journal, the WAL).
        self.events = resolve_journal(events)

    # -- data-dir ownership ------------------------------------------------

    def _acquire_lock(self):
        """Take an exclusive advisory lock on the data directory.

        Two brokers appending to the same WAL and segment files would
        interleave their histories into a state belonging to neither, so
        a second process (a supervisor restart racing a not-yet-dead
        predecessor, an operator mistake) must fail fast instead.
        """
        lock_fh = open(self.data_dir / "lock", "a+")
        if fcntl is not None:
            try:
                fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                lock_fh.close()
                raise RuntimeError(
                    f"data directory {self.data_dir} is locked by another "
                    "running broker; refusing to share it"
                ) from None
        return lock_fh

    # -- boot counter ------------------------------------------------------

    def _bump_boot_counter(self) -> int:
        path = self.data_dir / "boot"
        try:
            boots = int(path.read_text().strip())
        except (OSError, ValueError):
            boots = 0
        boots += 1
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write(f"{boots}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # Make the rename power-loss durable: replaying an epoch would
        # re-issue uuids that collide with persisted metadata versions.
        fsync_directory(self.data_dir)
        return boots

    # -- backend factory ---------------------------------------------------

    def backend_factory(self, spec: ProviderSpec) -> FileChunkStore:
        """Durable chunk store for one provider (used by the registry)."""
        return FileChunkStore(
            self.data_dir / "chunks" / _fs_name(spec.name),
            sync=self.sync,
            segment_max_bytes=self.segment_max_bytes,
        )

    # -- recovery ----------------------------------------------------------

    def recover(self, broker: "Scalia") -> Dict[str, object]:
        """Restore snapshot + WAL into a freshly built broker."""
        started = time.perf_counter()
        snapshot = load_snapshot(self.snapshot_path)
        if snapshot is not None:
            self._restore_snapshot_state(broker, snapshot)
        wal_records = 0
        self._replaying = True
        try:
            for record in self.journal.replay():
                self._replay_record(broker, record)
                if "rt" in record:
                    self.last_record_term = int(record["rt"])
                wal_records += 1
        finally:
            self._replaying = False
        # Whatever replay found in the file is the durable prefix now.
        self.journal.sync_through(self.journal.last_seq)
        self.recovery_report = {
            "boot_epoch": self.boot_epoch,
            "snapshot_loaded": snapshot is not None,
            "wal_records_replayed": wal_records,
            "wal_records_damaged": self.journal.last_replay_damaged,
            "period": broker.period,
            "duration_seconds": round(time.perf_counter() - started, 6),
        }
        return self.recovery_report

    def _restore_snapshot_state(self, broker: "Scalia", snapshot: dict) -> None:
        """Load one snapshot document into a live broker (replace, not merge)."""
        broker.cluster.metadata.restore_state(snapshot["metadata"])
        for name, meter_state in snapshot["meters"].items():
            if name in broker.registry:
                broker.registry.get(name).meter.restore_state(meter_state)
        broker.cluster.pending_deletes.entries = [
            (provider, key) for provider, key in snapshot["pending_deletes"]
        ]
        broker.cluster.clock.set(snapshot["now"], snapshot["period"])
        wal_seq = int(snapshot.get("wal_seq", 0))
        if wal_seq:
            self.journal.advance_seq(wal_seq)
            self.snapshot_floor_seq = max(self.snapshot_floor_seq, wal_seq)
        self.last_record_term = int(snapshot.get("wal_term", self.last_record_term))

    def _replay_record(self, broker: "Scalia", record: dict) -> None:
        kind = record.get("t")
        metadata = broker.cluster.metadata
        if kind == "md":
            if record["dc"] in metadata.datacenters:
                metadata.apply_raw(
                    record["dc"], record["row"], VersionedValue.from_dict(record["v"])
                )
        elif kind == "prune":
            if record["dc"] in metadata.datacenters:
                metadata.prune_raw(record["dc"], record["row"], record["keep"])
        elif kind == "period":
            period = int(record["period"])
            for name, usage in record["meters"].items():
                if name in broker.registry:
                    broker.registry.get(name).meter.restore_period(period, usage)
            broker.cluster.clock.set(record["now"], period + 1)
        elif kind == "pend+":
            broker.cluster.pending_deletes.entries.append((record["p"], record["k"]))
        elif kind == "pend-":
            entry = (record["p"], record["k"])
            # Tolerant removal: replaying a pre-snapshot suffix can name
            # entries the snapshot already dropped.
            if entry in broker.cluster.pending_deletes.entries:
                broker.cluster.pending_deletes.entries.remove(entry)
        elif kind == "chunk":
            # Cluster-mode chunk payload: put-if-missing, unmetered (the
            # leader already billed the simulated cloud for this write).
            if record["p"] in broker.registry:
                broker.registry.get(record["p"]).adopt_replicated_chunk(
                    record["k"], chunk_from_doc(record["c"])
                )
        elif kind == "chunk-":
            if record["p"] in broker.registry:
                broker.registry.get(record["p"]).drop_replicated_chunk(record["k"])
        # "noop" (a new leader's term marker) and unknown kinds are
        # skipped: an older binary replaying a newer WAL degrades to
        # snapshot-grade state instead of refusing to boot.

    # -- journaling hooks --------------------------------------------------

    def attach(self, broker: "Scalia") -> None:
        """Install the journal hooks (call after :meth:`recover`)."""
        self._broker = broker
        broker.cluster.metadata.on_apply = self._on_apply
        broker.cluster.metadata.on_prune = self._on_prune
        broker.cluster.pending_deletes.on_add = self._on_pending_add
        broker.cluster.pending_deletes.on_remove = self._on_pending_remove
        broker.cluster.metadata.on_settle = self.settle
        broker.cluster.pending_deletes.on_settle = self.settle

    def _append(self, record: dict, *, allow_snapshot: bool = True) -> None:
        """Stamp, write and publish one record (every local append path).

        Under ``_append_lock`` so the ``on_append`` observer sees records
        in exactly their WAL (sequence) order even when appenders race.
        The record is owed by the calling thread until its next
        :meth:`settle`.  The snapshot-cadence check runs after the lock
        is released — a snapshot acquires the metadata mutex, which
        on_append observers and the replication apply path must never
        wait behind.
        """
        with self._append_lock:
            if self.record_term is not None and "rt" not in record:
                record["rt"] = self.record_term
            seq = self.journal.write(record)
            if "rt" in record:
                self.last_record_term = int(record["rt"])
            observer = self.on_append
            if observer is not None:
                observer(record)
        self._owed.seq = seq
        self._bump_and_maybe_snapshot(allow_snapshot=allow_snapshot)

    def settle(self) -> None:
        """Make every record this thread has written durable.

        The barrier of the power-loss model (a no-op unless
        ``sync="always"``, and for a thread that owes nothing).  Records
        are a prefix on replay, so covering this thread's newest record
        covers its older ones and any other thread's before it.  Never
        call it holding the metadata or pending-queue mutex.
        """
        seq = getattr(self._owed, "seq", 0)
        if seq:
            self._owed.seq = 0
            self.journal.sync_through(seq)

    def _on_apply(self, dc: str, row_key: str, version: VersionedValue) -> None:
        if self._replaying:
            return
        self._append({"t": "md", "dc": dc, "row": row_key, "v": version.to_dict()})

    def _on_prune(self, dc: str, row_key: str, keep_uuid: str) -> None:
        if self._replaying:
            return
        self._append({"t": "prune", "dc": dc, "row": row_key, "keep": keep_uuid})

    def _on_pending_add(self, provider_name: str, chunk_key: str) -> None:
        if self._replaying:
            return
        # No snapshot from here: this hook fires while the pending-delete
        # queue's mutex is held, and a snapshot acquires the metadata
        # mutex — the reverse of the metadata -> queue order the apply
        # hook establishes.  The counter still advances; the next
        # metadata apply or period close takes the snapshot.
        self._append(
            {"t": "pend+", "p": provider_name, "k": chunk_key}, allow_snapshot=False
        )

    def _on_pending_remove(self, provider_name: str, chunk_key: str) -> None:
        if self._replaying:
            return
        self._append(
            {"t": "pend-", "p": provider_name, "k": chunk_key}, allow_snapshot=False
        )

    def on_period_closed(self, broker: "Scalia", closed_period: int) -> None:
        """Journal one closed sampling period's meters (broker tick hook)."""
        meters = {}
        for provider in broker.registry.providers():
            usage = provider.meter.usage_by_period().get(closed_period)
            if usage is not None:
                meters[provider.name] = usage.to_dict()
        self._append(
            {"t": "period", "period": closed_period, "now": broker.now, "meters": meters}
        )
        self.settle()

    # -- replication stream ------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest journaled record."""
        return self.journal.last_seq

    @property
    def synced_seq(self) -> int:
        """Sequence number through which the journal is durable."""
        return self.journal.synced_seq

    def append_marker(self, record: dict) -> int:
        """Journal a broker-state-free record (a new leader's ``noop``).

        Returns the stamped sequence number.  Replay skips unknown kinds,
        so markers are safe to ship to any follower.
        """
        self._append(record)
        self.settle()
        return int(record["seq"])

    def journal_chunk_put(self, provider_name: str, chunk_key: str, chunk) -> None:
        """Journal one chunk payload (cluster mode's replication stream).

        Called from the provider's chunk hook, so the snapshot (which
        takes the metadata mutex) must not trigger from here — the
        counter advances and the next metadata-path append takes it.
        Nor does it settle: a chunk record matters once a row names the
        chunk, and that row's barrier covers every record before it.
        """
        self._append(
            {"t": "chunk", "p": provider_name, "k": chunk_key, "c": chunk_to_doc(chunk)},
            allow_snapshot=False,
        )

    def journal_chunk_delete(self, provider_name: str, chunk_key: str) -> None:
        self._append(
            {"t": "chunk-", "p": provider_name, "k": chunk_key}, allow_snapshot=False
        )

    def can_tail(self, from_seq: int) -> bool:
        """True when :meth:`tail` can serve everything after ``from_seq``.

        False means records at or below the snapshot floor were truncated
        out of the WAL — a catch-up consumer needs a snapshot transfer.
        """
        return from_seq >= self.snapshot_floor_seq

    def tail(self, from_seq: int) -> Iterator[dict]:
        """Iterate intact journal records with ``seq > from_seq``, in order.

        The public replication surface: callers check :meth:`can_tail`
        first; below the snapshot floor the WAL no longer holds the
        records.  Reads the journal file, so it observes every record
        flushed at call time (concurrent appends may or may not appear).
        """
        for record in self.journal.replay():
            seq = record.get("seq")
            if isinstance(seq, int) and seq > from_seq:
                yield record

    def apply_replicated(self, broker: "Scalia", record: dict) -> bool:
        """Follower-side apply: write + apply one leader record.

        Deduplicates by sequence (at-least-once transports resend
        suffixes), preserving the leader's stamped seq/term.  Returns
        False when the record was already applied.  The caller (the
        cluster node's single RPC apply thread) delivers records in
        order; this method does not reorder on its behalf, and it calls
        :meth:`settle` once per batch before acknowledging it.
        """
        with self._append_lock:
            seq = record.get("seq")
            if isinstance(seq, int) and seq <= self.journal.last_seq:
                return False
            self._owed.seq = self.journal.write(record)
            if "rt" in record:
                self.last_record_term = int(record["rt"])
        was_replaying = self._replaying
        self._replaying = True
        try:
            self._replay_record(broker, record)
        finally:
            self._replaying = was_replaying
        self._bump_and_maybe_snapshot()
        return True

    def adopt_snapshot(self, broker: "Scalia", state: dict) -> None:
        """Replace local state with a leader's snapshot (follower resync).

        Restores the document into the live broker, persists it as the
        local snapshot, truncates the WAL and advances the sequence floor
        — after this the follower continues from ``state["wal_seq"]``.
        """
        was_replaying = self._replaying
        self._replaying = True
        try:
            with broker.cluster.metadata.locked():
                with self._snap_lock:
                    with broker.cluster.pending_deletes.locked():
                        with self._append_lock:
                            self._restore_snapshot_state(broker, state)
                            write_snapshot(self.snapshot_path, state)
                            self.journal.truncate()
                            self.snapshot_floor_seq = int(state.get("wal_seq", 0))
                    with self._counter_lock:
                        self._records_since_snapshot = 0
                    self.snapshots_written += 1
        finally:
            self._replaying = was_replaying
        self.events.emit(
            "wal.snapshot",
            adopted=True,
            wal_seq=self.snapshot_floor_seq,
            snapshots_written=self.snapshots_written,
        )

    # -- snapshots ---------------------------------------------------------

    def _bump_and_maybe_snapshot(self, *, allow_snapshot: bool = True) -> None:
        with self._counter_lock:
            self._records_since_snapshot += 1
            due = (
                allow_snapshot
                and self._broker is not None
                and self._records_since_snapshot >= self.snapshot_every_records
            )
        if due:
            self.snapshot()

    def snapshot(self) -> Optional[dict]:
        """Write a full-state snapshot, truncate the WAL, return the state.

        Lock order: ``metadata mutex -> _snap_lock -> pending-queue
        mutex -> _append_lock`` — the one order every snapshot trigger
        uses.  Holding the metadata mutex (reentrantly, when triggered
        from the apply hook) and the queue mutex across export *and*
        truncate guarantees no 'md'/'prune'/'pend±' record can land in
        the WAL between the state export and the truncation — such a
        record would be erased while absent from the snapshot, losing an
        acknowledged write on the next recovery.  The append lock
        additionally excludes 'period'/'chunk' appends from other
        threads, so the truncation point is the exact sequence recorded
        as ``wal_seq`` — the contract :meth:`can_tail` relies on.
        """
        broker = self._broker
        if broker is None:
            return None
        with broker.cluster.metadata.locked():
            with self._snap_lock:
                with broker.cluster.pending_deletes.locked():
                    with self._append_lock:
                        now, period = broker.cluster.clock.read()
                        state = {
                            "version": 1,
                            "boot": self.boot_epoch,
                            "period": period,
                            "now": now,
                            "metadata": broker.cluster.metadata.export_state(),
                            "meters": {
                                p.name: p.meter.export_state()
                                for p in broker.registry.providers()
                            },
                            "pending_deletes": [
                                list(entry)
                                for entry in broker.cluster.pending_deletes.entries
                            ],
                            "wal_seq": self.journal.last_seq,
                            "wal_term": self.last_record_term,
                        }
                        wal_bytes = self.journal.size_bytes()
                        write_snapshot(self.snapshot_path, state)
                        self.journal.truncate()
                        self.snapshot_floor_seq = self.journal.last_seq
                with self._counter_lock:
                    records_since = self._records_since_snapshot
                    self._records_since_snapshot = 0
                self.snapshots_written += 1
        self.events.emit(
            "wal.snapshot",
            wal_bytes_truncated=wal_bytes,
            records_since_snapshot=records_since,
            snapshots_written=self.snapshots_written,
        )
        return state

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "data_dir": str(self.data_dir),
            "boot_epoch": self.boot_epoch,
            "sync": self.sync,
            "wal_bytes": self.journal.size_bytes(),
            "wal_records_appended": self.journal.records_appended,
            "snapshots_written": self.snapshots_written,
            "recovery": dict(self.recovery_report),
        }

    def flush(self) -> None:
        self.journal.flush()

    def close(self) -> None:
        """Snapshot (clean shutdown) and release the journal + lock."""
        if self._broker is not None:
            self.snapshot()
        self.journal.close()
        self._release_lock()

    def abandon(self) -> None:
        """Release file handles *without* snapshotting or flushing.

        This is what a SIGKILL does from the kernel's point of view —
        the data-dir lock dies with the process, buffered-but-unflushed
        state is lost.  Crash-recovery tests use it to hand a data
        directory to a successor broker inside one process; production
        code should always :meth:`close`.
        """
        self.journal.close()
        self._release_lock()

    def _release_lock(self) -> None:
        if self._lock_fh is not None:
            self._lock_fh.close()  # releases the flock
            self._lock_fh = None
