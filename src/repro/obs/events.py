"""Bounded, thread-safe journal of control-plane decision events.

The metrics registry answers *how much*; this journal answers *why*.
Every layer that makes a decision — the placement planner, the periodic
optimizer, the circuit breakers, the scrubber, hedged reads, the WAL —
emits a small typed record here:

    journal.emit("migration.committed", key="photos/cat.gif",
                 saving=0.0123, migration_cost=0.0042, ...)

Design rules, mirroring :mod:`repro.obs.metrics`:

- **Per-broker, never global.**  Each :class:`Scalia` owns an
  :class:`EventJournal`; ``EventJournal(enabled=False)`` (the
  ``--no-events`` flag) makes every ``emit`` a cheap early return so
  call sites never branch.  :data:`NULL_JOURNAL` is the shared disabled
  instance; :func:`resolve_journal` maps ``None`` to it.
- **Emit never blocks on I/O and never raises.**  Breaker transitions
  emit while holding the health tracker's per-provider lock, so the
  critical section here is a few list operations under a plain mutex:
  the record is serialized *before* the lock is taken, eviction work is
  bounded by the budgets, and the optional JSONL sink is written outside
  the ring lock.  Any sink failure is swallowed (and counted).
- **Bounded two ways.**  The journal holds at most ``capacity`` events
  and at most ``max_bytes`` of serialized payload.  A single event larger
  than ``max_bytes`` is dropped (counted in ``dropped_oversize``), never
  stored.
- **One ring per event family** (the type up to its first dot), under
  the one total budget.  Over budget, the oldest event of the family
  holding the most bytes goes, so a chatty family (``placement.chosen``,
  one per PUT) can only push out itself once it is the largest, and the
  rare decisions the journal exists to keep (breaker transitions,
  alerts, migrations) outlive it.  A stream of one family is a plain
  oldest-first ring.
- **Totally ordered.**  Every stored event gets a monotonically
  increasing ``seq`` assigned under the ring lock, which makes
  ``query(since=seq)`` an exact resume cursor and preserves each
  emitter's per-thread order.

Events are plain dicts — ``seq``, ``ts``, ``type``, optional ``key``
(the object or provider the event is about), optional ``trace_id``
(adopted from the current trace), plus the emitter's fields.
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, TextIO

from repro.obs.trace import current_trace_id

__all__ = ["EventJournal", "NULL_JOURNAL", "resolve_journal"]

#: Default ring budgets: plenty for hours of control-plane activity,
#: bounded to ~a megabyte even under adversarial field sizes.
DEFAULT_CAPACITY = 4096
DEFAULT_MAX_BYTES = 1 << 20


class EventJournal:
    """A bounded in-memory ring of structured decision events."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        max_bytes: int = DEFAULT_MAX_BYTES,
        sink: Optional[TextIO] = None,
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._clock = clock
        self._lock = threading.Lock()
        # family -> its ring of (seq, size, event-dict), oldest first, and
        # the bytes it holds; a family that empties is dropped from both.
        self._rings: Dict[str, Deque[tuple]] = {}
        self._family_bytes: Dict[str, int] = {}
        self._entries = 0
        self._bytes = 0
        self._seq = 0
        self._emitted = 0
        self._evicted = 0
        self._dropped_oversize = 0
        self._sink = sink
        self._sink_lock = threading.Lock()
        self._sink_errors = 0

    # -- emission ----------------------------------------------------------

    def emit(self, type: str, key: Optional[str] = None, **fields) -> Optional[int]:
        """Record one event; returns its ``seq`` (``None`` when disabled).

        Safe to call from any thread, including while holding unrelated
        locks: the only lock taken is the journal's own leaf mutex, the
        critical section is bounded, and no exception escapes.
        """
        if not self.enabled:
            return None
        event: Dict[str, object] = {"seq": 0, "ts": round(self._clock(), 3), "type": type}
        if key is not None:
            event["key"] = key
        trace_id = current_trace_id()
        if trace_id is not None:
            event["trace_id"] = trace_id
        if fields:
            event.update(fields)
        # Serialize outside the lock: sizing and the JSONL sink both need
        # it, and json.dumps is the expensive part of an emit.
        try:
            size = len(json.dumps(event, default=str))
        except (TypeError, ValueError):  # pragma: no cover - default=str covers
            return None
        if size > self.max_bytes:
            with self._lock:
                self._dropped_oversize += 1
            return None
        family = type.partition(".")[0]
        with self._lock:
            self._seq += 1
            seq = self._seq
            event["seq"] = seq
            ring = self._rings.get(family)
            if ring is None:
                ring = self._rings[family] = deque()
                self._family_bytes[family] = 0
            ring.append((seq, size, event))
            self._family_bytes[family] += size
            self._entries += 1
            self._bytes += size
            self._emitted += 1
            while self._entries > self.capacity or self._bytes > self.max_bytes:
                self._evict_one(family)
        if self._sink is not None:
            self._write_sink(event)
        return seq

    def _evict_one(self, emitting: str) -> None:
        """Drop the oldest event of the family holding the most bytes.

        Never the event being emitted: a family whose only event is that
        one is passed over, so an emit that returns a seq has landed.
        """
        held = self._family_bytes
        victim = max(
            (f for f in held if f != emitting or len(self._rings[f]) > 1),
            key=held.__getitem__,
        )
        ring = self._rings[victim]
        _, size, _ = ring.popleft()
        if ring:
            held[victim] -= size
        else:
            del self._rings[victim], held[victim]
        self._entries -= 1
        self._bytes -= size
        self._evicted += 1

    def _write_sink(self, event: Dict[str, object]) -> None:
        with self._sink_lock:
            try:
                self._sink.write(json.dumps(event, default=str) + "\n")
                self._sink.flush()
            except (ValueError, OSError, io.UnsupportedOperation):
                self._sink_errors += 1

    # -- queries -----------------------------------------------------------

    def query(
        self,
        type: Optional[str] = None,
        since: Optional[int] = None,
        key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """Events in seq order, filtered.

        ``type`` matches exactly, or as a prefix when it ends with a dot
        (``type="migration."`` returns every migration event).  ``since``
        is an exclusive seq cursor; ``key`` matches the event's subject.
        ``limit`` keeps the *newest* matches.
        """
        with self._lock:
            if type is not None:
                # Every type a filter can match shares the filter's family.
                rings = [self._rings.get(type.partition(".")[0], ())]
            else:
                rings = list(self._rings.values())
            events = [event for ring in rings for _, _, event in ring]
        if len(rings) > 1:
            events.sort(key=lambda event: event["seq"])
        out = []
        for event in events:
            if since is not None and event["seq"] <= since:
                continue
            etype = event["type"]
            if type is not None:
                if type.endswith("."):
                    if not str(etype).startswith(type):
                        continue
                elif etype != type:
                    continue
            if key is not None and event.get("key") != key:
                continue
            out.append(dict(event))
        if limit is not None and limit >= 0 and len(out) > limit:
            out = out[-limit:]
        return out

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": self._entries,
                "bytes": self._bytes,
                "capacity": self.capacity,
                "max_bytes": self.max_bytes,
                "emitted": self._emitted,
                "evicted": self._evicted,
                "dropped_oversize": self._dropped_oversize,
                "sink_errors": self._sink_errors,
                "latest_seq": self._seq,
            }


#: Shared disabled journal: ``emit`` returns immediately, queries are
#: empty.  Handed out wherever events are switched off so call sites
#: never need a None check.
NULL_JOURNAL = EventJournal(enabled=False)


def resolve_journal(journal: Optional[EventJournal]) -> EventJournal:
    """Map ``None`` to the shared no-op journal."""
    return journal if journal is not None else NULL_JOURNAL
