"""Metadata write-ahead journal and snapshot files.

The broker's control-plane state (metadata rows, usage meters, the clock)
persists as a classic WAL + snapshot pair under ``<data_dir>/meta/``:

``wal.log``
    One JSON record per line, each wrapped with a CRC32C over the SHA-1
    of its canonical serialization (hashing at C speed, framing with the
    CRC).  A write is flushed to the kernel at once, so a SIGKILL loses at
    most a record the client was never told about.  Replay stops at the
    first unparseable or checksum-failing line — everything after a torn
    write is by definition unacknowledged.

    With ``sync="always"`` power-loss durability is a separate barrier,
    :meth:`Journal.sync_through`, that group-commits: one ``fsync``
    covers every record flushed before it started, and callers arriving
    while one is in flight wait for it instead of starting their own.
    Because the file is replayed as a prefix, a record is durable exactly
    when every record before it is.

    Every record is stamped with a monotonic sequence number (``"seq"``)
    at append time, under the same mutex that orders the bytes on disk —
    seq order and file order are therefore identical, which is what lets
    the replication layer ship the WAL as an ordered stream and lets a
    follower deduplicate at-least-once deliveries by sequence alone.
    Records arriving with a ``"seq"`` already assigned (a follower
    applying a leader's stream) keep it; the journal only advances its
    own counter past them.

``snapshot.json``
    A full state dump (written to a temp file and atomically renamed) that
    bounds replay time; after a successful snapshot the WAL is truncated.
    A crash between rename and truncate merely replays records the
    snapshot already contains — all journal records are idempotent.

This module is deliberately schema-agnostic: records are opaque dicts.
:mod:`repro.storage.persistence` owns what goes into them.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.storage.checksum import crc32c

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _canonical(record: dict) -> bytes:
    return json.dumps(record, **_JSON_KW).encode("utf-8")


def _checksum(body: bytes) -> int:
    # Same construction as the segment store's records: the CRC32C runs
    # over a SHA-1 of the body, so integrity checking of an arbitrarily
    # large snapshot costs one C-speed hash plus a 20-byte CRC.
    return crc32c(hashlib.sha1(body).digest())


class Journal:
    """Append-only, checksummed, line-oriented record log.

    Writes from concurrent threads serialize on an internal mutex so
    two records can never interleave bytes within one line; the mutex is
    a leaf in the broker's lock hierarchy (nothing is called under it).
    The sync barrier waits on its own condition and calls ``fsync``
    under no lock at all, so writes keep landing while a sync is in
    flight and the next barrier picks them up.
    """

    def __init__(
        self, path: str | os.PathLike, *, sync: str = "os", metrics=None
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self._lock = threading.Lock()
        existed = self.path.exists()
        self._fh = open(self.path, "ab")
        if sync == "always" and not existed:
            # The file creation itself must survive power loss, or the
            # first acknowledged records have no directory entry.
            fsync_directory(self.path.parent)
        self.records_appended = 0
        self.last_replay_damaged = 0
        #: Highest sequence number stamped on or observed in a record.
        #: Callers recovering from a snapshot seed it via advance_seq().
        self.last_seq = 0
        # Highest seq whose line has reached the kernel, and highest seq
        # an fsync has covered.  Only _sync_cond guards the second, and it
        # is taken after _lock where both are held (truncate, flush).
        self._flushed_seq = 0
        self._synced_seq = 0
        self._sync_cond = threading.Condition(threading.Lock())
        self._syncing = False
        #: Called each time a barrier returns under ``sync="always"``,
        #: holding no journal lock (a cluster leader counts its own log
        #: toward the commit quorum from :attr:`synced_seq`).
        self.on_synced: Optional[Callable[[], None]] = None
        self._m_appends = None
        self._m_fsync = None
        if metrics is not None and metrics.enabled:
            self._m_appends = metrics.counter(
                "scalia_wal_appends_total", "Records appended to the metadata WAL."
            )
            self._m_fsync = metrics.histogram(
                "scalia_wal_fsync_seconds",
                "Time of one WAL fsync (sync=always: one per group-commit "
                "barrier, covering every record flushed before it) or flush "
                "(sync=os: one per append).",
            )

    @property
    def synced_seq(self) -> int:
        """Highest sequence number durable under this journal's policy:
        fsynced with ``sync="always"``, flushed to the kernel otherwise."""
        return self._synced_seq if self.sync == "always" else self._flushed_seq

    def write(self, record: dict) -> int:
        """Stamp, frame and flush one record; returns its sequence number.

        Survives a SIGKILL on return; survives power loss under
        ``sync="always"`` once :meth:`sync_through` has covered it.
        """
        with self._lock:
            # Stamp inside the mutex: the seq must agree with the record's
            # position in the file even when writers race.
            seq = record.get("seq")
            if isinstance(seq, int):
                self.last_seq = max(self.last_seq, seq)
            else:
                self.last_seq += 1
                seq = record["seq"] = self.last_seq
            body = _canonical(record)
            # The wrapper's two keys sort as "c", "r": framing the body
            # directly is byte-identical to json.dumps of the wrapper and
            # serializes the record once.
            self._fh.write(b'{"c":%d,"r":%s}\n' % (_checksum(body), body))
            if self.sync != "never":
                if self._m_fsync is None or self.sync == "always":
                    self._fh.flush()
                else:
                    start = time.perf_counter()
                    self._fh.flush()
                    self._m_fsync.observe(time.perf_counter() - start)
            self._flushed_seq = self.last_seq
            self.records_appended += 1
            if self._m_appends is not None:
                self._m_appends.inc()
        return seq

    def sync_through(self, seq: int) -> None:
        """Return once every record up to ``seq`` is durable.

        The group-commit barrier (a no-op unless ``sync="always"``): one
        caller fsyncs on behalf of every record flushed before its fsync
        started, and callers that arrive meanwhile wait for that batch;
        a caller whose records it did not cover starts the next one.
        Never call it holding a lock a writer needs.
        """
        if self.sync != "always":
            return
        if seq > self._flushed_seq:
            with self._lock:
                pass  # a write of ``seq`` is still flushing: let it finish
        while True:
            with self._sync_cond:
                while self._syncing and self._synced_seq < seq:
                    self._sync_cond.wait()
                if self._synced_seq >= seq:
                    break
                self._syncing = True
                target = self._flushed_seq
            synced = False
            try:
                start = time.perf_counter()
                os.fsync(self._fh.fileno())
                if self._m_fsync is not None:
                    self._m_fsync.observe(time.perf_counter() - start)
                synced = True
            finally:
                with self._sync_cond:
                    self._syncing = False
                    if synced:
                        self._synced_seq = max(self._synced_seq, target)
                    self._sync_cond.notify_all()
        if self.on_synced is not None:
            self.on_synced()

    def append(self, record: dict) -> int:
        """:meth:`write` then :meth:`sync_through`: durable on return."""
        seq = self.write(record)
        self.sync_through(seq)
        return seq

    def _mark_synced(self) -> None:
        """Everything written so far is on disk (caller holds ``_lock``)."""
        with self._sync_cond:
            self._synced_seq = max(self._synced_seq, self.last_seq)
            self._sync_cond.notify_all()

    def replay(self) -> Iterator[dict]:
        """Yield every intact record in order.

        A damaged line in the *interior* is skipped (bit rot of one
        record must not drop every acknowledged record behind it — the
        records are independent and idempotent); damage on the *final*
        line is a torn write of an unacknowledged append and simply ends
        the replay.  Skipped interior lines are counted in
        :attr:`last_replay_damaged` so recovery can report them.
        """
        self._fh.flush()
        self.last_replay_damaged = 0
        lines = [
            line for line in self.path.read_bytes().splitlines() if line.strip()
        ]
        for position, line in enumerate(lines):
            try:
                wrapper = json.loads(line)
                record = wrapper["r"]
                if _checksum(_canonical(record)) != wrapper["c"]:
                    raise ValueError("checksum mismatch")
            except (ValueError, KeyError, TypeError):
                if position == len(lines) - 1:
                    return  # torn tail: never acknowledged
                self.last_replay_damaged += 1
                continue
            seq = record.get("seq")
            if isinstance(seq, int):
                self.advance_seq(seq)
            yield record

    def advance_seq(self, seq: int) -> None:
        """Raise the sequence floor (snapshot restore, replayed records)."""
        with self._lock:
            self.last_seq = max(self.last_seq, int(seq))
            self._flushed_seq = self.last_seq

    def truncate(self) -> None:
        """Drop every record (called after a successful snapshot).

        Counts as a sync of everything written before it: the snapshot
        that precedes it holds those records."""
        with self._lock:
            self._fh.truncate(0)
            self._fh.seek(0)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._mark_synced()

    def size_bytes(self) -> int:
        with self._lock:
            self._fh.flush()
            return self.path.stat().st_size

    def flush(self) -> None:
        with self._lock:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._mark_synced()

    def close(self) -> None:
        with self._sync_cond:
            while self._syncing:  # never close the fd under an fsync
                self._sync_cond.wait()
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


def fsync_directory(path: str | os.PathLike) -> None:
    """fsync a directory so a rename inside it is power-loss durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(path: str | os.PathLike, state: dict) -> None:
    """Atomically persist ``state`` (temp file + rename), checksummed.

    The parent directory is fsynced after the rename: the caller
    truncates the WAL next, and a power loss must never surface the
    truncation without the rename (old snapshot + empty WAL = lost
    acknowledged writes).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = _canonical(state)
    document = json.dumps({"c": _checksum(body), "state": state}, **_JSON_KW).encode("utf-8")
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(document)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def load_snapshot(path: str | os.PathLike) -> Optional[dict]:
    """Read a snapshot back, or ``None`` when absent or damaged."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        wrapper = json.loads(path.read_bytes())
        state = wrapper["state"]
        if _checksum(_canonical(state)) != wrapper["c"]:
            return None
        return state
    except (ValueError, KeyError, TypeError, OSError):
        return None
