"""Concurrency primitives of the broker's layered lock hierarchy.

The seed broker serialized every operation behind one global lock; this
module provides the pieces that replaced it (see ``docs/CONCURRENCY.md``
for the full hierarchy and the rules about what a caller may hold):

* :class:`SharedExclusiveLock` — a writer-preferring readers/writer lock.
* :class:`StripedRWLocks` — a fixed pool of shared/exclusive locks that
  string keys hash onto, so per-object locking costs O(1) memory however
  many objects exist.  Multi-key exclusive acquisition orders stripes
  canonically, which is what makes writer/writer deadlocks impossible.
* :class:`InFlightWrites` — a registry of storage keys whose chunks are
  on the providers but whose metadata is not yet committed; the orphan
  sweep consults it so a concurrent put's chunks are never reaped.
* :class:`LockManager` — the bundle one cluster shares across engines,
  the scrubber and the optimizer.

None of the locks here are reentrant.  The code base upholds a simple
structural rule instead: public engine/broker methods acquire, internal
helpers never do, and public methods never call public methods.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.trace import add_phase as _trace_lock_wait
from repro.obs.trace import current_trace as _current_trace


class SharedExclusiveLock:
    """A readers/writer lock with writer preference.

    Any number of holders may share the lock; an exclusive holder excludes
    everyone.  A *waiting* exclusive acquirer blocks new shared acquirers,
    so a steady read stream cannot starve writers.  Not reentrant in
    either mode — re-acquiring shared while an exclusive acquirer waits
    would deadlock, which is why callers must never nest acquisitions of
    the same stripe (see module docstring).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._shared_holders = 0
        self._exclusive_held = False
        self._exclusive_waiting = 0

    def acquire_shared(self) -> None:
        with self._cond:
            while self._exclusive_held or self._exclusive_waiting:
                self._cond.wait()
            self._shared_holders += 1

    def try_acquire_shared(self) -> bool:
        """Non-blocking shared acquire: True on success.

        Respects writer preference — a waiting exclusive acquirer makes
        this fail just like it blocks :meth:`acquire_shared`.
        """
        with self._cond:
            if self._exclusive_held or self._exclusive_waiting:
                return False
            self._shared_holders += 1
            return True

    def release_shared(self) -> None:
        with self._cond:
            self._shared_holders -= 1
            if self._shared_holders == 0:
                self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        with self._cond:
            self._exclusive_waiting += 1
            try:
                while self._exclusive_held or self._shared_holders:
                    self._cond.wait()
            finally:
                self._exclusive_waiting -= 1
            self._exclusive_held = True

    def release_exclusive(self) -> None:
        with self._cond:
            self._exclusive_held = False
            self._cond.notify_all()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()


class _LockTimers:
    """Pre-resolved histogram children for one striped-lock family."""

    __slots__ = ("wait_shared", "wait_exclusive", "hold_exclusive")

    def __init__(self, metrics, kind: str) -> None:
        wait = metrics.histogram(
            "scalia_lock_wait_seconds",
            "Time spent blocked acquiring a striped lock (shared mode "
            "records only acquisitions that actually waited).",
            ("kind", "mode"),
        )
        hold = metrics.histogram(
            "scalia_lock_hold_seconds",
            "Time a striped lock was held once acquired (exclusive only).",
            ("kind", "mode"),
        )
        self.wait_shared = wait.labels(kind, "shared")
        self.wait_exclusive = wait.labels(kind, "exclusive")
        # Shared holds are not observed: readers hold concurrently, so
        # the duration says nothing about blocking, and the read path is
        # the hot one.  Exclusive holds are exactly the writer stalls.
        self.hold_exclusive = hold.labels(kind, "exclusive")


class StripedRWLocks:
    """A fixed array of shared/exclusive locks addressed by key hash.

    Two distinct keys may share a stripe — that only costs false
    contention, never correctness.  The stripe index uses CRC32 rather
    than :func:`hash` so lock assignment is stable across processes
    (useful when debugging from logs).

    With :meth:`instrument` called, exclusive acquisitions record their
    wait and hold durations, and shared acquisitions record their wait
    when they actually blocked (uncontended shared acquires — the hot
    read path — skip instrumentation entirely; a zero wait carries no
    signal).  Recorded waits are also credited to the current trace's
    ``lock_wait`` phase.  Uninstrumented locks keep the original
    zero-overhead path — the instrumented branches are not entered.
    """

    def __init__(self, stripes: int = 64) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._locks = tuple(SharedExclusiveLock() for _ in range(stripes))
        self._timers: Optional[_LockTimers] = None

    def instrument(self, metrics, kind: str) -> None:
        """Record wait/hold timings into ``metrics`` labelled ``kind``."""
        if metrics is not None and metrics.enabled:
            self._timers = _LockTimers(metrics, kind)

    @property
    def stripes(self) -> int:
        return len(self._locks)

    def _index(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % len(self._locks)

    def stripe_of(self, key: str) -> SharedExclusiveLock:
        return self._locks[self._index(key)]

    @contextmanager
    def shared(self, key: str) -> Iterator[None]:
        """Hold the key's stripe in shared mode."""
        lock = self.stripe_of(key)
        # Uncontended fast path, instrumented or not: an acquisition
        # that never blocked has no wait worth recording (the shared
        # wait histogram carries only acquisitions that actually
        # blocked), and the read path takes several stripe locks per
        # request — keeping this branch identical with metrics on and
        # off is what the bench overhead guard measures.
        if lock.try_acquire_shared():
            try:
                yield
            finally:
                lock.release_shared()
            return
        timers = self._timers
        traced = _current_trace() is not None
        if timers is None and not traced:
            lock.acquire_shared()
            try:
                yield
            finally:
                lock.release_shared()
            return
        t0 = time.perf_counter()
        lock.acquire_shared()
        wait = time.perf_counter() - t0
        if timers is not None:
            timers.wait_shared.observe(wait)
        if traced:
            _trace_lock_wait("lock_wait", wait)
        try:
            yield
        finally:
            lock.release_shared()

    @contextmanager
    def exclusive(self, *keys: str) -> Iterator[None]:
        """Hold every key's stripe exclusively.

        Stripes are deduplicated and acquired in index order — the one
        canonical order every multi-key acquirer uses, so two writers
        wanting overlapping stripe sets cannot deadlock each other.
        """
        indices = sorted({self._index(k) for k in keys})
        timers = self._timers
        traced = _current_trace() is not None
        timed = timers is not None or traced
        t0 = time.perf_counter() if timed else 0.0
        taken = []
        acquired = 0.0
        try:
            for index in indices:
                self._locks[index].acquire_exclusive()
                taken.append(index)
            if timed:
                acquired = time.perf_counter()
                if timers is not None:
                    timers.wait_exclusive.observe(acquired - t0)
                if traced:
                    _trace_lock_wait("lock_wait", acquired - t0)
            yield
        finally:
            for index in reversed(taken):
                self._locks[index].release_exclusive()
            if timers is not None and acquired:
                timers.hold_exclusive.observe(time.perf_counter() - acquired)


class StripedMutexes:
    """A fixed pool of plain mutexes addressed by key hash.

    The exclusive-only sibling of :class:`StripedRWLocks`, for
    coordination points that never need a shared mode (e.g. the pending
    delete queue's per-chunk-key rewrite guards).  Same CRC32 striping,
    same false-sharing-but-never-incorrect contract.
    """

    def __init__(self, stripes: int = 64) -> None:
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._locks = tuple(threading.Lock() for _ in range(stripes))

    def stripe_of(self, key: str) -> threading.Lock:
        return self._locks[zlib.crc32(key.encode("utf-8")) % len(self._locks)]


class InFlightWrites:
    """Storage keys (skeys) whose chunks exist but whose metadata may not.

    Every write path registers the skey it ships chunks under *before*
    the first provider put and deregisters it *after* the metadata row
    referencing those chunks is journaled.  The scrubber's orphan sweep
    snapshots this set and skips matching chunks: without it, a sweep
    running concurrently with a put would see freshly written chunks with
    no referencing metadata version and destroy an acknowledged write.

    Counted rather than a plain set: multipart parts of one upload share
    the upload's skey, and a migration of an object whose same-code skey
    is also being repaired can register the same skey from two tracks —
    the registration must survive until the *last* holder ends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def begin(self, skey: str) -> None:
        with self._lock:
            self._counts[skey] = self._counts.get(skey, 0) + 1

    def end(self, skey: str) -> None:
        with self._lock:
            remaining = self._counts.get(skey, 0) - 1
            if remaining > 0:
                self._counts[skey] = remaining
            else:
                self._counts.pop(skey, None)

    @contextmanager
    def track(self, skey: str) -> Iterator[None]:
        self.begin(skey)
        try:
            yield
        finally:
            self.end(skey)

    def snapshot(self) -> frozenset:
        with self._lock:
            return frozenset(self._counts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


class LockManager:
    """The lock bundle one cluster shares across all of its engines.

    ``objects``
        Striped per-object locks keyed by metadata row key.  Reads hold
        their object's stripe shared; every mutation of an object (put,
        delete, migrate, multipart staging) holds it exclusive.

    ``containers``
        Striped per-container locks.  Key mutations hold their container
        shared (so non-conflicting keys mutate in parallel); listings
        hold it exclusive and therefore see a stable index.

    ``in_flight``
        The chunks-before-metadata registry the orphan sweep consults.

    Acquisition order is strictly ``containers`` before ``objects``;
    nothing acquires a container lock while holding an object lock.
    """

    def __init__(
        self,
        *,
        object_stripes: int = 64,
        container_stripes: int = 16,
        metrics=None,
    ) -> None:
        self.objects = StripedRWLocks(object_stripes)
        self.containers = StripedRWLocks(container_stripes)
        self.in_flight = InFlightWrites()
        if metrics is not None:
            self.objects.instrument(metrics, "object")
            self.containers.instrument(metrics, "container")

    @contextmanager
    def read_object(self, row_key: str) -> Iterator[None]:
        """Shared hold for reading one object (get/open_get/read_stripe/head)."""
        with self.objects.shared(row_key):
            yield

    @contextmanager
    def mutate_object(self, container: str, *row_keys: str) -> Iterator[None]:
        """Exclusive hold for mutating object rows within a container."""
        with self.containers.shared(container):
            with self.objects.exclusive(*row_keys):
                yield

    @contextmanager
    def list_container(self, container: str) -> Iterator[None]:
        """Exclusive container hold for a stable listing scan."""
        with self.containers.exclusive(container):
            yield
