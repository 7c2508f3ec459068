"""The stateless engine layer (Section III-A).

An engine is a proxy between clients and the storage providers: it offers an
Amazon-S3-like ``put/get/delete/list`` interface, computes the best provider
set via an injected *planner* (the core placement logic), splits objects
into erasure-coded chunks, stores/fetches them at the providers, maintains
metadata with MVCC semantics and ships access statistics through its log
agent.  Engines keep **no state** of their own — any engine in any
datacenter can serve any request — which is what lets the layer scale
linearly (Section III-A).

The data plane is *stripe oriented*: an object larger than the configured
stripe size is stored as an ordered sequence of independently
erasure-coded stripes sharing one placement, written as they stream in
(peak memory O(stripe), never O(object)) and read back stripe by stripe —
a ranged read fetches and bills only the stripes covering the range, and
of those only the Merkle leaves that cover it (:mod:`repro.cluster.readpath`).
Multipart uploads stage per-part stripes under a journaled metadata row
and complete by pure metadata assembly (no chunk is copied).

Error handling follows Section III-D3: writes route around faulty providers,
reads succeed from any ``m`` reachable chunks, and deletes against a faulty
provider are postponed until it recovers.

Concurrency contract (docs/CONCURRENCY.md): engines sharing one cluster
also share its :class:`~repro.cluster.locks.LockManager`.  Every public
method acquires the locks it needs — reads hold their object's stripe
shared, mutations hold the container shared plus their object stripes
exclusive (a put or part upload only while it commits, not while it
streams), listings hold the container exclusive — so non-conflicting
operations on different keys proceed in parallel.  Internal helpers never
acquire engine-level locks, and no method calls a public method while
holding one (``put``/``upload_part`` drive the ``staged_*`` methods but
hold nothing themselves); that structural rule is what makes the
non-reentrant stripe locks safe.
"""

from __future__ import annotations

import base64
import binascii
import functools
import hashlib
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.cluster.cache import CacheLayer
from repro.cluster.clock import Clock
from repro.cluster.errors import (  # noqa: F401  (re-exported: the tree imports them from here)
    InvalidContinuationTokenError,
    InvalidRangeError,
    MultipartError,
    NoSuchUploadError,
    ObjectNotFoundError,
    PlacementError,
    ReadFailedError,
    WriteFailedError,
)
from repro.cluster.hedging import FETCH_ERRORS, HedgeStats, hedged_fetch
from repro.cluster.locks import LockManager, StripedMutexes
from repro.cluster.metadata import MetadataCluster
from repro.cluster.multipart import (
    MAX_PART_NUMBER,
    MIN_PART_NUMBER,
    MULTIPART_ROW_PREFIX,
    MultipartState,
    PartState,
    multipart_row_key,
)
from repro.cluster.readpath import (
    ProvenRun,
    RowWindow,
    covers_every_leaf,
    cut_windows,
    open_run,
    rows_for_window,
)
from repro.cluster.statistics import LogAgent, LogRecord
from repro.cluster.writepath import StagedWrite, Stager, put_object, put_part
from repro.erasure.rs import CodeCache
from repro.erasure.striping import (
    AnyChunk,
    Chunk,
    SyntheticChunk,
    chunk_length,
    reassemble_object,
    repair_chunk,
    split_object,
    split_synthetic,
)
from repro.obs.events import resolve_journal
from repro.obs.trace import current_trace, record_span
from repro.storage.merkle import LEAF_SIZE, kept_root
from repro.providers.health import HedgePolicy
from repro.providers.provider import (
    ChunkCorruptionError,
    ChunkNotFoundError,
    ProviderUnavailableError,
)
from repro.providers.registry import ProviderRegistry
from repro.types import ListPage, ObjectMeta, Placement
from repro.util.ids import IdGenerator, object_row_key, storage_key

Payload = Union[bytes, int]  # real bytes, or a synthetic byte count
#: What a read's validation turns an object's metadata into: the
#: inclusive ``(start, end)`` to read (end ``None`` = through the last
#: byte), or ``None`` for the whole object (``Engine.open_get``).
Validator = Callable[[ObjectMeta], Optional[Tuple[int, Optional[int]]]]

#: Default stripe size of the streaming data plane (8 MiB, S3-part-like).
DEFAULT_STRIPE_SIZE = 8 * 1024 * 1024


def encode_list_token(last_entry: str) -> str:
    """Opaque continuation token resuming a listing after ``last_entry``."""
    return base64.urlsafe_b64encode(last_entry.encode("utf-8")).decode("ascii")


def decode_list_token(token: str) -> str:
    """Inverse of :func:`encode_list_token`; raises on malformed tokens."""
    try:
        raw = base64.b64decode(token.encode("ascii"), altchars=b"-_", validate=True)
        return raw.decode("utf-8")
    except (binascii.Error, UnicodeError, ValueError) as exc:
        raise InvalidContinuationTokenError(
            f"malformed continuation token {token!r}"
        ) from exc


class Planner(Protocol):
    """The decision interface an engine needs from the core library."""

    def place(
        self,
        *,
        container: str,
        key: str,
        size: int,
        mime: str,
        rule_name: Optional[str],
        period: int,
        exclude: frozenset[str],
    ) -> Placement:
        """Best provider set for this object now; raises PlacementError."""
        ...

    def classify(self, size: int, mime: str) -> str:
        """Object class key ``C(obj)`` (Section III-A1)."""
        ...

    def rule_for(self, rule_name: Optional[str], class_key: str) -> str:
        """Resolve the effective rule name for metadata."""
        ...


@dataclass
class PendingDeleteQueue:
    """Deletes postponed because the owning provider was unavailable.

    ``on_add``/``on_remove`` (installed by the storage layer's
    DurabilityManager) fire per entry mutation so the queue can be
    journaled as deltas: a crash between an acknowledged delete and the
    eventual flush must not leak the chunk forever, and a delta per
    mutation keeps the journal linear in queue churn (journaling the
    full queue each time would be quadratic during an outage backlog).

    Safe for concurrent mutators: every entry mutation (and its journal
    hook — so the WAL's delta order matches the queue's actual history)
    runs under an internal mutex.  The mutex nests only into the journal
    lock; :meth:`flush` performs its provider deletes *outside* it, and
    ``on_settle`` (the WAL's sync barrier) runs after a mutation
    releases it.

    A second, striped set of *rewrite guards* coordinates the flush with
    same-chunk-key rewrites.  A queued delete for ``(provider, ck)`` and
    a writer recreating ``ck`` (same-code migration, scrub repair) have
    no object lock in common — the flush cannot name the owning row —
    so both sides hold ``rewrite_guard(ck)`` across their two-step
    critical sections (writer: put + discard; flush: claim + delete).
    Without it the flush could claim the entry, lose the race to the
    rewrite, and then destroy the freshly written live chunk.
    """

    entries: List[Tuple[str, str]] = field(default_factory=list)
    on_add: Optional[Callable[[str, str], None]] = None
    on_remove: Optional[Callable[[str, str], None]] = None
    on_settle: Optional[Callable[[], None]] = None
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _rewrite_guards: StripedMutexes = field(
        default_factory=StripedMutexes, repr=False, compare=False
    )

    def rewrite_guard(self, chunk_key: str) -> threading.Lock:
        """The striped mutex serializing rewrites of ``chunk_key`` against
        the flush's claim-then-delete (acquire before the queue mutex)."""
        return self._rewrite_guards.stripe_of(chunk_key)

    def locked(self) -> threading.RLock:
        """The queue mutex as a context manager (snapshot consistency)."""
        return self._lock

    def add(self, provider_name: str, chunk_key: str) -> None:
        with self._lock:
            self.entries.append((provider_name, chunk_key))
            if self.on_add is not None:
                self.on_add(provider_name, chunk_key)
        self._settle()

    def _remove_if_present(self, entry: Tuple[str, str]) -> bool:
        """Drop one occurrence of ``entry`` (tolerates a racing removal)."""
        with self._lock:
            if entry not in self.entries:
                return False
            self.entries.remove(entry)
            if self.on_remove is not None:
                self.on_remove(*entry)
        self._settle()
        return True

    def _settle(self) -> None:
        if self.on_settle is not None:
            self.on_settle()

    def discard(self, provider_name: str, chunk_key: str) -> None:
        """Cancel any pending delete for ``(provider, chunk_key)``.

        Must be called whenever a chunk is (re)written at a key that may
        have a queued delete — same-code migrations and scrub repairs
        reuse ``skey:index`` chunk keys, so a stale entry from an earlier
        outage would otherwise destroy the freshly written chunk when the
        provider recovers.
        """
        entry = (provider_name, chunk_key)
        while self._remove_if_present(entry):
            pass

    def flush(self, registry: ProviderRegistry) -> int:
        """Retry pending deletes; returns how many were completed.

        Each entry is *claimed* (removed from the queue) and then deleted
        at the provider under that chunk key's rewrite guard, so a
        concurrent rewrite of the same key either cancels the entry
        before the claim (nothing is deleted) or happens strictly after
        the physical delete (the rewrite's chunk survives).  A claimed
        entry whose provider delete then fails transiently is re-queued.
        """
        done = 0
        for entry in self.snapshot_entries():
            provider_name, chunk_key = entry
            if provider_name not in registry or not registry.is_available(provider_name):
                continue
            with self.rewrite_guard(chunk_key):
                if not self._remove_if_present(entry):
                    continue  # a rewrite (or another flush) cancelled it
                try:
                    registry.get(provider_name).delete_chunk(chunk_key)
                except ChunkNotFoundError:
                    pass  # already gone
                except ProviderUnavailableError:
                    self.add(provider_name, chunk_key)  # retry next flush
                    continue
                done += 1
        return done

    def snapshot_entries(self) -> List[Tuple[str, str]]:
        """A stable copy of the queued entries (snapshots, flush passes)."""
        with self._lock:
            return list(self.entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)


@dataclass
class MigrationReceipt:
    """What a migration moved, for the optimizer's bookkeeping."""

    old_placement: Placement
    new_placement: Placement
    chunks_written: int
    full_restripe: bool


@dataclass
class ReadPlan:
    """A resolved read: which stripe slices cover the requested bytes.

    ``segments`` holds ``(stripe, lo, hi)`` triples — plaintext
    ``[lo, hi)`` of stripe ``stripe``, which is what one segment fetch
    (:meth:`Engine.read_stripe`) is asked for.  A full read covers every
    stripe; a ranged read only the covering ones, and of those only the
    Merkle leaves that cover the slice, which is what bounds the
    provider traffic a range GET bills.
    """

    meta: ObjectMeta
    segments: List[Tuple[int, int, int]]
    start: int
    end: int
    length: int

    def to_dict(self) -> dict:
        return {
            "meta": self.meta.to_dict(),
            "segments": [list(segment) for segment in self.segments],
            "start": self.start,
            "end": self.end,
            "length": self.length,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReadPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            meta=ObjectMeta.from_dict(data["meta"]),
            segments=[(int(s), int(lo), int(hi)) for s, lo, hi in data["segments"]],
            start=int(data["start"]),
            end=int(data["end"]),
            length=int(data["length"]),
        )


def _assemble(meta: ObjectMeta, pieces: Sequence[Payload]) -> Payload:
    """One read's segments as one payload: their bytes joined, or the sum
    of their spans for a synthetic object (no segment: an empty read)."""
    if not pieces:
        return b"" if meta.checksum else 0
    if isinstance(pieces[0], int):
        return sum(pieces)
    return bytes(pieces[0]) if len(pieces) == 1 else b"".join(pieces)


class _EngineTimers:
    """Pre-resolved metric children for one engine's hot paths."""

    __slots__ = (
        "ops", "encode", "decode", "encode_bytes", "decode_bytes", "recovered_rows",
    )

    _OPS = (
        "put", "get", "get_many", "open_read",
        "read_stripe", "delete", "list", "migrate",
    )

    def __init__(self, metrics) -> None:
        hist = metrics.histogram(
            "scalia_engine_op_seconds",
            "Latency of engine public operations.",
            ("op",),
        )
        self.ops = {op: hist.labels(op) for op in self._OPS}
        self.encode = metrics.histogram(
            "scalia_erasure_encode_seconds",
            "Time to Reed-Solomon encode one stripe into n chunks.",
        )
        self.decode = metrics.histogram(
            "scalia_erasure_decode_seconds",
            "Time to reassemble one stripe's plaintext from m chunks.",
        )
        erasure_bytes = metrics.counter(
            "scalia_erasure_bytes_total",
            "Plaintext bytes through the erasure codec, by direction.",
            ("direction",),
        )
        self.encode_bytes = erasure_bytes.labels("encode")
        self.decode_bytes = erasure_bytes.labels("decode")
        self.recovered_rows = metrics.counter(
            "scalia_erasure_recovered_rows_total",
            "Data rows a whole-stripe decode rebuilt by field arithmetic "
            "(0 while reads are served by the data chunks).",
        )


def _timed_op(op: str):
    """Time a public engine method into ``scalia_engine_op_seconds``.

    Engines without metrics take one attribute load and a ``None`` check
    — the original code path otherwise.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            timers = self._timers
            if timers is None:
                return fn(self, *args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(self, *args, **kwargs)
            finally:
                timers.ops[op].observe(time.perf_counter() - start)

        return wrapper

    return decorate


def _spine_clock(fn):
    """Accept ``now=`` / ``period=`` only when they equal the clock's reading.

    The one shim left for ``benchmarks/spine/layers.py``, which still
    hands these keywords to nine engine methods; ROADMAP item 1(d)
    deletes it with those calls.  Every other caller lets the engine
    read its clock.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if "now" in kwargs or "period" in kwargs:
            reading = self._clock.read()
            given = (kwargs.pop("now", reading[0]), kwargs.pop("period", reading[1]))
            if given != reading:
                raise ValueError(
                    f"now={given[0]!r}, period={given[1]!r} disagree with the "
                    f"clock's reading {reading!r}"
                )
        return fn(self, *args, **kwargs)

    return wrapper


class Engine:
    """One stateless Scalia engine bound to a datacenter."""

    def __init__(
        self,
        engine_id: str,
        dc: str,
        *,
        registry: ProviderRegistry,
        metadata: MetadataCluster,
        cache: Optional[CacheLayer],
        log_agent: LogAgent,
        planner: Planner,
        ids: IdGenerator,
        pending_deletes: Optional[PendingDeleteQueue] = None,
        code_cache: Optional[CodeCache] = None,
        locks: Optional[LockManager] = None,
        clock: Optional[Clock] = None,
        hedge: Optional[HedgePolicy] = None,
        metrics=None,
        journal=None,
    ) -> None:
        self.engine_id = engine_id
        self.dc = dc
        self._registry = registry
        self._metadata = metadata
        self._cache = cache
        self._log = log_agent
        self._planner = planner
        self._ids = ids
        self._pending = pending_deletes if pending_deletes is not None else PendingDeleteQueue()
        self._codes = code_cache if code_cache is not None else CodeCache()
        # Engines sharing metadata MUST share the lock manager (the
        # cluster passes one in); a private fallback keeps standalone
        # single-engine construction (tests, tools) working.
        self._locks = locks if locks is not None else LockManager()
        # Likewise one simulated clock per cluster, which the broker's
        # tick advances; every operation reads it when it runs.
        self._clock = clock if clock is not None else Clock()
        self._stager = Stager(
            begin=self.staged_begin,
            part_begin=self.staged_part_begin,
            write_stripe=self.staged_write_stripe,
            commit=self.staged_commit,
            part_commit=self.staged_part_commit,
            abort=self.staged_abort,
            encode=self._encode_stripe,
        )
        # Degraded-mode read policy: when some chunk provider looks
        # suspect, stripe fetches go parallel and hedge stragglers
        # (docs/FAULTS.md).  The all-healthy hot path never sees it.
        self._hedge = hedge if hedge is not None else HedgePolicy()
        self.hedge_stats = HedgeStats()
        # Decision events (hedge fired/won); None-safe no-op by default.
        self._journal = resolve_journal(journal)
        self._hedge_threads: List[threading.Thread] = []
        self._hedge_threads_lock = threading.Lock()
        # Observability: children resolved once; `None` means disabled
        # and every instrumented site skips its perf_counter bracketing.
        self._timers: Optional[_EngineTimers] = None
        if metrics is not None and metrics.enabled:
            self._timers = _EngineTimers(metrics)

    @property
    def locks(self) -> LockManager:
        """The shared lock bundle (scrubber/optimizer coordinate through it)."""
        return self._locks

    # -- erasure codec instrumentation wrappers -------------------------

    def _encode_stripe(self, data: bytes, m: int, n: int) -> Sequence[Chunk]:
        """``split_object`` plus encode metrics and the ``encode`` span."""
        timers = self._timers
        traced = current_trace() is not None
        if timers is None and not traced:
            return split_object(data, m, n, code_cache=self._codes)
        start = time.perf_counter()
        chunks = split_object(data, m, n, code_cache=self._codes)
        elapsed = time.perf_counter() - start
        if timers is not None:
            timers.encode.observe(elapsed)
            timers.encode_bytes.inc(len(data))
        if traced:
            record_span("encode", start, elapsed)
        return chunks

    def _decode_stripe(
        self, chunks: Sequence[Chunk], m: int, n: int, length: int
    ) -> bytes:
        """``reassemble_object`` plus decode metrics and the ``decode`` span."""
        timers = self._timers
        traced = current_trace() is not None
        if timers is None and not traced:
            return reassemble_object(chunks, m, n, length, code_cache=self._codes)
        start = time.perf_counter()
        data = reassemble_object(chunks, m, n, length, code_cache=self._codes)
        elapsed = time.perf_counter() - start
        if timers is not None:
            timers.decode.observe(elapsed)
            timers.decode_bytes.inc(length)
            timers.recovered_rows.inc(
                len(self._codes.get(m, n).recovered_rows([c.index for c in chunks], length))
            )
        if traced:
            record_span("decode", start, elapsed)
        return data

    # ------------------------------------------------------------------
    # public S3-like API
    # ------------------------------------------------------------------

    @_timed_op("put")
    @_spine_clock
    def put(
        self,
        container: str,
        key: str,
        data,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        ttl_hint: Optional[float] = None,
        stripe_size: int = DEFAULT_STRIPE_SIZE,
        size_hint: Optional[int] = None,
    ) -> ObjectMeta:
        """Store (or update) an object; returns the persisted metadata.

        ``data`` is the real payload — ``bytes``, a binary file-like
        object, or any iterable of byte blocks — or a synthetic byte
        count (``int``) for metered cost simulations.  Streams are
        consumed stripe by stripe: peak buffered payload is O(stripe),
        and each stripe is erasure-coded and shipped before the next is
        read.  ``size_hint`` improves the initial placement when the
        stream's length is not discoverable; the persisted metadata
        always carries the exact size.  The object's lock is taken at
        commit only (:func:`~repro.cluster.writepath.put_object`), so a
        slow source stalls nobody.
        """
        return put_object(
            self._stager, container, key, data,
            stripe_size=stripe_size, size_hint=size_hint,
            mime=mime, rule=rule, ttl_hint=ttl_hint,
        )

    @_timed_op("get")
    @_spine_clock
    def get(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> Payload:
        """Read an object (or an inclusive byte range of it)."""
        return self._read(container, key, 1, byte_range)

    @_timed_op("get_many")
    def get_many(
        self,
        container: str,
        key: str,
        count: int,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> Payload:
        """Serve ``count`` identical reads, billed exactly as ``count`` gets.

        With a cache, the first read misses and the rest hit; without one,
        every read fetches (and bills) the chunks.  Collapsing a burst into
        one call keeps scenario simulations fast without changing a cent of
        the metered cost.  Ranged reads bypass the cache and fetch only
        the leaves covering ``byte_range`` (inclusive, end ``None`` =
        through the last byte), billed ``count`` times over.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._read(container, key, count, byte_range)

    @_timed_op("open_read")
    def open_get(
        self,
        container: str,
        key: str,
        *,
        validate: Optional[Validator] = None,
        raw: bool = False,
    ) -> Tuple[ReadPlan, object]:
        """A read up to and including its first segment, as ``(plan,
        first)``: open, the first segment and commit under one shared
        hold, so what is validated, planned, served and logged is one
        version.  Each further stripe is one :meth:`read_stripe`.

        ``validate(meta)`` returns the byte range to read or raises (and
        bills nothing); it runs under the hold and must not call back
        into the broker.  ``first`` is the first segment's plaintext (a
        byte count if synthetic, ``None`` for a zero-length read), with
        ``raw`` what :meth:`fetch_stripe_window` returns, or the whole
        object when a cache served a whole read (no segment is left).
        """
        row_key = object_row_key(container, key)
        with self._locks.read_object(row_key):
            plan, whole = self._open(container, key, row_key, validate=validate)
            if whole and not raw and self._cache is not None:
                payload = self._through_cache(row_key, plan, 1)
                return replace(plan, segments=[]), payload
            first = None
            if plan.segments:
                first = self._segment(plan.meta, *plan.segments[0], raw=raw)
            self._commit(plan, 1)
            return plan, first

    @_timed_op("open_read")
    @_spine_clock
    def open_read(
        self,
        container: str,
        key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
    ) -> ReadPlan:
        """A read's plan alone, under a hold of its own: the caller pulls
        the segments through :meth:`read_stripe` and logs the read with
        :meth:`commit_read`.  Three holds where :meth:`open_get` takes
        one, so a re-put in between can fail the read; kept as the
        layer-by-layer replay the measurement spine drives."""
        row_key = object_row_key(container, key)
        with self._locks.read_object(row_key):
            return self._open(container, key, row_key, byte_range=byte_range)[0]

    @_spine_clock
    def commit_read(self, plan: ReadPlan, *, count: int = 1) -> None:
        """Log a read served from an :meth:`open_read` plan."""
        self._commit(plan, count)

    @_timed_op("read_stripe")
    def read_stripe(
        self,
        meta: ObjectMeta,
        stripe: int,
        lo: int = 0,
        hi: Optional[int] = None,
        *,
        times: int = 1,
    ) -> Payload:
        """Plaintext ``[lo, hi)`` of one stripe (default: all of it), or
        that span for a synthetic object.

        Fetches only what covers the window (docs/API.md, "Ranged
        reads").  Holds the object's stripe lock shared only for this
        one read, so a slow streaming consumer never blocks writers
        between stripes (the price: a concurrent re-put can fail the
        stream mid-download, which aborts the connection honestly).
        """
        with self._locks.read_object(object_row_key(meta.container, meta.key)):
            return self._segment(meta, stripe, lo, hi, times=times)

    def _read(
        self,
        container: str,
        key: str,
        count: int,
        byte_range: Optional[Tuple[int, Optional[int]]],
    ) -> Payload:
        """``get`` / ``get_many``: open, every segment and commit under
        one shared hold."""
        row_key = object_row_key(container, key)
        with self._locks.read_object(row_key):
            plan, whole = self._open(container, key, row_key, byte_range=byte_range)
            if whole and self._cache is not None:
                return self._through_cache(row_key, plan, count)
            meta = plan.meta
            payload = _assemble(
                meta, [self._segment(meta, *segment, times=count) for segment in plan.segments]
            )
            self._commit(plan, count)
            return payload

    @_timed_op("delete")
    @_spine_clock
    def delete(self, container: str, key: str) -> None:
        """Delete an object: tombstone metadata, drop chunks (or postpone)."""
        row_key = object_row_key(container, key)
        with self._locks.mutate_object(container, row_key):
            meta = self._winning_meta(row_key)
            if meta is None:
                raise ObjectNotFoundError(f"{container}/{key}")
            now, period = self._clock.read()
            with self._metadata.batch():
                self._metadata.write(
                    self.dc, row_key, None, uuid=self._ids.uuid(), timestamp=now
                )
                self._write_index(container, key, row_key, present=False)
            self._gc_chunks(meta, keep=frozenset())
            self._log.log(
                LogRecord(
                    period=period,
                    object_key=row_key,
                    class_key=meta.class_key,
                    op="delete",
                    size=meta.size,
                    mime=meta.mime,
                    lifetime_hours=max(0.0, now - meta.created_at),
                )
            )
            if self._cache is not None:
                self._cache.invalidate_everywhere(row_key)

    @_timed_op("list")
    def list_objects(
        self,
        container: str,
        *,
        prefix: str = "",
        delimiter: str = "",
        max_keys: Optional[int] = None,
        continuation_token: Optional[str] = None,
    ) -> ListPage:
        """Paginated listing of ``container`` (S3 ListObjectsV2 semantics).

        Keys and delimiter-rolled common prefixes are merged in one
        lexicographic stream; ``max_keys`` bounds the page and a
        truncated page carries an opaque ``next_token`` resuming strictly
        after the last returned entry.

        Holds the container lock exclusively for the duration of one
        page, so the scan sees a stable index (key mutations in the same
        container wait; other containers are untouched).
        """
        if max_keys is not None and max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        with self._locks.list_container(container):
            return self._list_objects_impl(
                container,
                prefix=prefix,
                delimiter=delimiter,
                max_keys=max_keys,
                continuation_token=continuation_token,
            )

    def _list_objects_impl(
        self,
        container: str,
        *,
        prefix: str,
        delimiter: str,
        max_keys: Optional[int],
        continuation_token: Optional[str],
    ) -> ListPage:
        start_after = ""
        if continuation_token:
            start_after = decode_list_token(continuation_token)
        # idx|container|<key> row keys sort exactly like the object keys,
        # so the metadata index streams rows in result order (bisected
        # range scan: O(log rows + batch) per fetch).  Rows come in
        # max_keys-sized batches; extra batches only happen for
        # tombstoned rows, and every delimiter roll-up seeks the cursor
        # past the whole rolled range instead of filtering it row by row.
        row_prefix = f"idx|{container}|"
        page = ListPage()
        taken = 0
        last_name = ""
        seen_prefixes: set[str] = set()
        batch = None if max_keys is None else max(64, max_keys + 1)
        cursor = row_prefix + start_after if start_after else ""
        exhausted = False

        def page_full() -> bool:
            """Truncate the page before admitting one more entry."""
            if max_keys is None or taken < max_keys:
                return False
            page.is_truncated = True
            page.next_token = encode_list_token(last_name)
            return True

        while not exhausted:
            row_keys = self._metadata.scan_keys(
                self.dc, row_prefix + prefix, start_after=cursor, limit=batch
            )
            exhausted = batch is None or len(row_keys) < batch
            if not row_keys:
                break
            for row_key in row_keys:
                cursor = row_key
                version = self._metadata.winner(self.dc, row_key)
                if version is None:
                    continue  # tombstoned (deleted) key
                key = version.value["key"]
                rolled = None
                if delimiter:
                    rest = key[len(prefix):]
                    cut = rest.find(delimiter)
                    if cut >= 0:
                        rolled = prefix + rest[: cut + len(delimiter)]
                if rolled is not None:
                    emit = rolled not in seen_prefixes and not (
                        start_after and rolled <= start_after
                    )
                    if emit:
                        if page_full():
                            return page
                        seen_prefixes.add(rolled)
                        page.common_prefixes.append(rolled)
                        taken += 1
                        last_name = rolled
                    # Seek past every remaining key under the rolled
                    # prefix rather than touching each one.  (A key
                    # containing U+10FFFF could survive the seek; the
                    # seen_prefixes check still swallows it.)
                    cursor = row_prefix + rolled + "\U0010ffff"
                    exhausted = False
                    break
                if page_full():
                    return page
                page.keys.append(key)
                taken += 1
                last_name = key
        return page

    def head(self, container: str, key: str) -> Optional[ObjectMeta]:
        """Metadata of an object, or ``None`` when absent."""
        row_key = object_row_key(container, key)
        with self._locks.read_object(row_key):
            return self._winning_meta(row_key)

    def resolve_row(self, row_key: str) -> Optional[ObjectMeta]:
        """Metadata by raw row key (the optimizer's lookup path)."""
        with self._locks.read_object(row_key):
            return self._winning_meta(row_key)

    def resolve_row_unlocked(self, row_key: str) -> Optional[ObjectMeta]:
        """Metadata by raw row key for a caller ALREADY HOLDING the row's
        object stripe (shared or exclusive).

        The stripe locks are not reentrant, so a holder calling the
        public :meth:`resolve_row` would deadlock against itself; the
        scrubber resolves through this instead.  Never call it without
        the hold — the read-repair side effects inside assume the row is
        stable.
        """
        return self._winning_meta(row_key)

    def live_row_keys(self) -> List[str]:
        """Row keys of every live object (used on provider-pool changes)."""
        rows = self._metadata.scan(self.dc, "idx|")
        return sorted({row.value["row_key"] for row in rows.values()})

    # ------------------------------------------------------------------
    # multipart upload (S3-shaped, journaled through the metadata WAL)
    # ------------------------------------------------------------------

    @_spine_clock
    def create_multipart_upload(
        self,
        container: str,
        key: str,
        *,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        stripe_size: int = DEFAULT_STRIPE_SIZE,
        size_hint: Optional[int] = None,
    ) -> MultipartState:
        """Open a multipart upload; returns its journaled staging state.

        The placement is decided here (from ``size_hint`` when given) and
        shared by every part, so completion can assemble the object
        without moving a byte.  The staging row rides the same metadata
        WAL as object rows — an in-flight upload survives a crash as far
        as its last acknowledged part.
        """
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        guess = size_hint if size_hint and size_hint > 0 else stripe_size
        class_key = self._planner.classify(guess, mime)
        # The staging row is keyed by a fresh uuid nobody else can name
        # yet, so no object stripe lock is needed here — only the
        # container hold that orders us against listings.
        with self._locks.containers.shared(container):
            now = self._clock.now
            try:
                placement = self._plan(container, key, guess, mime, rule)
            except PlacementError as exc:
                raise WriteFailedError(str(exc)) from exc
            upload_id = self._ids.uuid()
            state = MultipartState(
                container=container,
                key=key,
                upload_id=upload_id,
                skey=storage_key(container, key, upload_id),
                mime=mime,
                rule_name=self._planner.rule_for(rule, class_key),
                class_key=class_key,
                m=placement.m,
                providers=self._layout(placement, guess),
                stripe_size=stripe_size,
                created_at=now,
            )
            self._metadata.write(
                self.dc, multipart_row_key(container, upload_id), state.to_dict(),
                uuid=self._ids.uuid(), timestamp=now,
            )
            # The upload's skey stays registered in-flight for the
            # upload's whole lifetime (completion/abort ends it).
            # Completion hands the chunks' only metadata reference from
            # the staging row to the object row across two row writes; an
            # orphan sweep whose batched census straddles that handoff
            # could otherwise see neither row reference the chunks and
            # reap an acknowledged object.  After a crash the
            # registration is gone but the journaled staging row itself
            # protects the chunks, so recovery needs no replay of it.
            self._locks.in_flight.begin(state.skey)
            return state

    @_spine_clock
    def upload_part(
        self, container: str, key: str, upload_id: str, part_number: int, data
    ) -> PartState:
        """Store one part (bytes / file-like / iterator), streamed by stripe.

        Re-uploading a part number writes fresh chunk keys (a journaled
        generation) before the staging row flips to reference them; the
        replaced generation's chunks are deleted afterwards, so a crash
        anywhere in between can only orphan chunks the scrubber sweeps —
        never corrupt an acknowledged part.  The staging row is locked
        to reserve the generation and to commit, not while the part
        streams (:func:`~repro.cluster.writepath.put_part`).
        """
        return put_part(self._stager, container, key, upload_id, part_number, data)

    @_spine_clock
    def complete_multipart_upload(
        self,
        container: str,
        key: str,
        upload_id: str,
        parts: Optional[Sequence[Tuple[int, Optional[str]]]] = None,
    ) -> ObjectMeta:
        """Assemble the uploaded parts into the live object (metadata only).

        ``parts`` is the S3-style completion list of ``(part_number,
        etag)`` — ascending, each uploaded, etags matching when given;
        ``None`` completes every uploaded part in number order.  The
        object's ETag is the S3 multipart convention
        ``md5(part-digests)-N``.  Parts uploaded but not listed are
        deleted.
        """
        with self._locks.mutate_object(
            container,
            multipart_row_key(container, upload_id),
            object_row_key(container, key),
        ):
            state = self._load_upload(container, upload_id)
            if state.key != key:
                raise MultipartError(
                    f"upload {upload_id} is for key {state.key!r}, not {key!r}"
                )
            if parts is not None:
                numbers: List[int] = []
                for number, etag in parts:
                    number = int(number)
                    if number not in state.parts:
                        raise MultipartError(f"part {number} was never uploaded")
                    if etag and state.parts[number].etag != etag.strip('"'):
                        raise MultipartError(f"part {number} etag mismatch")
                    numbers.append(number)
                if not numbers:
                    raise MultipartError("completion needs at least one part")
                if numbers != sorted(set(numbers)):
                    raise MultipartError("parts must be listed once each, ascending")
            else:
                numbers = sorted(state.parts)
                if not numbers:
                    raise MultipartError("cannot complete an upload with no parts")
            chosen = [state.parts[n] for n in numbers]
            # Roots assemble like stripes do — but only when every chosen
            # part carries them; a single pre-audit part leaves the object
            # rootless (the scrubber backfills) rather than partially
            # audited.
            if all(part.merkle for part in chosen):
                merkle = tuple(sorted(pair for part in chosen for pair in part.merkle))
            else:
                merkle = ()
            size = sum(part.size for part in chosen)
            etag_digest = hashlib.md5(
                b"".join(bytes.fromhex(part.etag) for part in chosen)
            ).hexdigest()
            meta, keep = self._publish(
                object_row_key(container, key),
                retire=multipart_row_key(container, upload_id),
                container=container,
                key=key,
                size=size,
                mime=state.mime,
                rule_name=state.rule_name,
                class_key=self._planner.classify(size, state.mime),
                skey=state.skey,
                m=state.m,
                chunk_map=state.chunk_map,
                checksum=f"{etag_digest}-{len(chosen)}",
                stripes=tuple(pair for part in chosen for pair in part.stripes),
                merkle=merkle,
            )
            # Both rows are committed: the object row now carries the
            # chunks' reference, so the upload-lifetime in-flight hold can
            # end (its begin() is in create_multipart_upload; a post-crash
            # completion ends a registration that no longer exists, which
            # is tolerated).
            self._locks.in_flight.end(state.skey)
            included = set(numbers)
            for number, part in state.parts.items():
                if number not in included:
                    self._delete_refs(list(state.part_chunk_keys(part)), keep=keep)
            return meta

    @_spine_clock
    def abort_multipart_upload(self, container: str, key: str, upload_id: str) -> int:
        """Drop an in-flight upload and its staged chunks; returns deletions.

        Chunks adopted by a completed object (the crash window between
        the object row and the staging tombstone) are recognized and kept.
        """
        with self._locks.mutate_object(
            container,
            multipart_row_key(container, upload_id),
            object_row_key(container, key),
        ):
            state = self._load_upload(container, upload_id)
            if state.key != key:
                raise MultipartError(
                    f"upload {upload_id} is for key {state.key!r}, not {key!r}"
                )
            self._metadata.write(
                self.dc, multipart_row_key(container, upload_id), None,
                uuid=self._ids.uuid(), timestamp=self._clock.now,
            )
            # End the upload-lifetime in-flight hold (see create/complete).
            self._locks.in_flight.end(state.skey)
            keep: frozenset = frozenset()
            live = self._winning_meta(object_row_key(container, key))
            if live is not None and live.skey == state.skey:
                keep = frozenset((p, ck) for _s, _i, p, ck in live.iter_chunks())
            deleted = 0
            for part in state.parts.values():
                deleted += self._delete_refs(list(state.part_chunk_keys(part)), keep=keep)
            return deleted

    def list_multipart_uploads(self, container: str) -> List[MultipartState]:
        """Every in-flight multipart upload of ``container``, oldest first."""
        with self._locks.list_container(container):
            rows = self._metadata.scan(self.dc, f"{MULTIPART_ROW_PREFIX}{container}|")
            states = [MultipartState.from_dict(row.value) for row in rows.values()]
            states.sort(key=lambda s: (s.created_at, s.upload_id))
            return states

    def _load_upload(self, container: str, upload_id: str) -> MultipartState:
        resolution = self._metadata.read(
            self.dc, multipart_row_key(container, upload_id)
        )
        if resolution.winner is None or resolution.winner.value is None:
            raise NoSuchUploadError(f"no such upload: {upload_id}")
        return MultipartState.from_dict(resolution.winner.value)

    # ------------------------------------------------------------------
    # staged write protocol (the only way an object or part is written)
    # ------------------------------------------------------------------
    #
    # ``begin → write_stripe* → commit | abort`` (``part_begin`` and
    # ``part_commit`` for parts).  The loops above these primitives live
    # in repro.cluster.writepath and run in this process or, through the
    # ops RPC, in a gateway worker.  A session's skey is registered in
    # flight from begin until commit or abort, so the orphan sweep never
    # reaps staged chunks; nothing is visible until commit journals the
    # metadata row.

    def stager(self) -> Stager:
        """The staged primitives, for the drivers; each reads the clock
        when it runs."""
        return self._stager

    def _plan(self, container, key, size, mime, rule, exclude=()) -> Placement:
        """Best placement now, on no provider that is down or in ``exclude``."""
        unavailable = frozenset(
            name for name in self._registry.names() if not self._registry.is_available(name)
        )
        return self._planner.place(
            container=container, key=key, size=size, mime=mime, rule_name=rule,
            period=self._clock.period, exclude=unavailable | frozenset(exclude),
        )

    def _layout(self, placement: Placement, size: int) -> Tuple[str, ...]:
        """A placement's providers in the order a write numbers its chunks
        by: cheapest to read first, the order :meth:`_serving_order` ranks
        healthy providers in.

        Chunk ``i`` lands on the ``i``-th cheapest-to-read provider, so
        the ``m`` data chunks sit exactly where a healthy read goes and a
        whole GET concatenates them with no field arithmetic.  The
        provider set, the chunk sizes and every meter are the same as
        under any other order.  A row records its order in ``chunk_map``,
        so rows written under another one (alphabetical, before this rule;
        or stale, after a price change) read as they are.
        """
        clen = chunk_length(size, placement.m)
        return tuple(
            sorted(placement.providers, key=lambda name: self._read_price(name, clen))
        )

    def staged_begin(
        self,
        container: str,
        key: str,
        *,
        size_guess: int,
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        exclude: Sequence[str] = (),
    ) -> StagedWrite:
        """Plan a write: a placement plus a fresh in-flight skey.

        ``exclude`` is the driver's providers-that-failed set.  Raises
        :class:`PlacementError` when no feasible placement is left.  A
        session must end in :meth:`staged_commit` or :meth:`staged_abort`.
        """
        placement = self._plan(container, key, int(size_guess), mime, rule, exclude)
        skey = storage_key(container, key, self._ids.uuid())
        self._locks.in_flight.begin(skey)
        return StagedWrite(
            container, key, skey, placement.m, self._layout(placement, int(size_guess))
        )

    def staged_write_stripe(
        self,
        session: StagedWrite,
        tag: Optional[str],
        chunks: Sequence[AnyChunk],
        roots: Sequence[str],
    ) -> None:
        """Ship one stripe's encoded chunks to the session's providers.

        ``tag=None`` selects the single-stripe layout (``skey:index``
        chunk keys); otherwise keys are ``skey:tag.index``.  Refs and
        roots accumulate on the session as each chunk lands, so an abort
        after a provider fails mid-stripe cleans up exactly what exists;
        provider errors propagate for the driver's re-plan loop.
        """
        for chunk, root, provider_name in zip(chunks, roots, session.providers):
            suffix = str(chunk.index) if tag is None else f"{tag}.{chunk.index}"
            session.written.append(
                self._land(provider_name, f"{session.skey}:{suffix}", chunk)
            )
            session.merkle.append((suffix, str(root)))

    def _land(self, provider_name: str, chunk_key: str, chunk: AnyChunk) -> Tuple[str, str]:
        """Put one chunk at a provider; returns the ``(provider, key)`` ref.

        The key may sit in the pending-delete queue from an earlier
        outage or a migration away; the chunk is live again, so the
        queued delete must not fire — and a flush already past its claim
        must finish its delete before the put (the rewrite guard orders
        the two; see :class:`PendingDeleteQueue`).
        """
        with self._pending.rewrite_guard(chunk_key):
            self._pending.discard(provider_name, chunk_key)
            self._registry.get(provider_name).put_chunk(chunk_key, chunk)
        return provider_name, chunk_key

    def _close_staged(self, session: StagedWrite) -> None:
        session.closed = True
        self._locks.in_flight.end(session.skey)

    def staged_commit(
        self,
        session: StagedWrite,
        *,
        size: int,
        checksum: str,
        stripes: Sequence[Tuple[str, int]],
        mime: str = "application/octet-stream",
        rule: Optional[str] = None,
        ttl_hint: Optional[float] = None,
    ) -> ObjectMeta:
        """Journal a staged write's metadata; the object becomes visible.

        ``stripes=()`` commits the single-stripe layout; ``checksum`` is
        the content MD5 (the gateway's ETag; empty for synthetic
        payloads).  The object's lock is held only here: puts race until
        commit, the last one wins and collects the loser's chunks.
        """
        container, key = session.container, session.key
        row_key = object_row_key(container, key)
        with self._locks.mutate_object(container, row_key):
            class_key = self._planner.classify(size, mime)
            return self._publish(
                row_key,
                session=session,
                container=container,
                key=key,
                size=size,
                mime=mime,
                rule_name=self._planner.rule_for(rule, class_key),
                class_key=class_key,
                skey=session.skey,
                m=session.m,
                chunk_map=tuple(enumerate(session.providers)),
                checksum=checksum,
                ttl_hint=ttl_hint,
                stripes=tuple((str(t), int(length)) for t, length in stripes),
                merkle=tuple(sorted(session.merkle)),
            )[0]

    def _publish(
        self,
        row_key: str,
        *,
        session: Optional[StagedWrite] = None,
        retire: Optional[str] = None,
        **fields,
    ) -> Tuple[ObjectMeta, frozenset]:
        """What every committed write does, at one clock reading: the new
        version's metadata from ``fields`` (created when the object was
        first, modified now); its row, index entry and, for a multipart
        completion, the staging row it retires journaled as one batch
        with one sync; then the replaced version collected, the ``put``
        statistic logged and the cache invalidated.  Returns the new
        version and its chunk refs."""
        now, period = self._clock.read()
        old_meta = self._winning_meta(row_key)
        meta = ObjectMeta(
            created_at=old_meta.created_at if old_meta else now, modified_at=now, **fields
        )
        with self._metadata.batch():
            self._metadata.write(
                self.dc, row_key, meta.to_dict(), uuid=meta.skey, timestamp=now
            )
            if session is not None:
                # The row owns the chunks from here on.
                self._close_staged(session)
            self._write_index(meta.container, meta.key, row_key, present=True)
            if retire is not None:
                # After the object row: a crash in between leaves both
                # referencing the same chunks, which abort/scrub resolve
                # without data loss.
                self._metadata.write(
                    self.dc, retire, None, uuid=self._ids.uuid(), timestamp=now
                )
        # Every row is durable: only now may the old version's chunks go.
        keep = frozenset((p, ck) for _s, _i, p, ck in meta.iter_chunks())
        if old_meta is not None:
            self._gc_chunks(old_meta, keep=keep)
        self._log.log(
            LogRecord(
                period=period,
                object_key=row_key,
                class_key=meta.class_key,
                op="put",
                size=meta.size,
                mime=meta.mime,
                bytes_in=meta.size,
                insertion=old_meta is None,
            )
        )
        if self._cache is not None:
            self._cache.invalidate_everywhere(row_key)
        return meta, keep

    def staged_abort(self, session: StagedWrite) -> int:
        """Drop a session's shipped chunks (a no-op once committed or
        aborted); returns deletions."""
        if session.closed:
            return 0
        deleted = self._delete_refs(session.written)
        self._close_staged(session)
        return deleted

    def staged_part_begin(
        self,
        container: str,
        key: str,
        upload_id: str,
        part_number: int,
    ) -> StagedWrite:
        """Reserve a generation for one part upload.

        The generation counter is bumped and journaled *before* any
        chunk is written (one staging-row write, under the row's lock),
        so a crashed, retried or concurrent upload of the same part
        number can never reuse a chunk key.  The session registers the
        skey in flight on top of the upload-lifetime registration made
        at create time: that one does not survive a restart, and a part
        staged after recovery has no row referencing it until commit.
        """
        with self._locks.mutate_object(container, multipart_row_key(container, upload_id)):
            state = self._load_upload(container, upload_id)
            if state.key != key:
                raise MultipartError(
                    f"upload {upload_id} is for key {state.key!r}, not {key!r}"
                )
            if not MIN_PART_NUMBER <= part_number <= MAX_PART_NUMBER:
                raise MultipartError(
                    f"part number must be in [{MIN_PART_NUMBER}, {MAX_PART_NUMBER}]"
                )
            gen = state.next_gen
            state.next_gen = gen + 1
            self._metadata.write(
                self.dc, multipart_row_key(container, upload_id), state.to_dict(),
                uuid=self._ids.uuid(), timestamp=self._clock.now,
            )
        self._locks.in_flight.begin(state.skey)
        return StagedWrite(
            container, key, state.skey, state.m, state.providers,
            upload_id=upload_id, part_number=part_number, gen=gen,
            stripe_size=state.stripe_size,
        )

    def staged_part_commit(
        self,
        session: StagedWrite,
        *,
        etag: str,
        size: int,
        stripes: Sequence[Tuple[str, int]],
    ) -> PartState:
        """Flip the staging row to reference a staged part's chunks.

        The replaced generation's chunks are deleted only after the row
        references the new ones, so a crash in between orphans
        (sweepable) chunks rather than corrupting an acknowledged part.
        Uploads of one part number race until here; the last commit wins.
        """
        container, upload_id = session.container, session.upload_id
        with self._locks.mutate_object(container, multipart_row_key(container, upload_id)):
            state = self._load_upload(container, upload_id)
            part = PartState(
                etag=etag,
                size=int(size),
                stripes=tuple((str(t), int(length)) for t, length in stripes),
                merkle=tuple(sorted(session.merkle)),
            )
            replaced = state.parts.get(session.part_number)
            state.parts[session.part_number] = part
            if state.next_gen <= session.gen:
                state.next_gen = session.gen + 1
            self._metadata.write(
                self.dc, multipart_row_key(container, upload_id), state.to_dict(),
                uuid=self._ids.uuid(), timestamp=self._clock.now,
            )
            self._close_staged(session)
        if replaced is not None:
            self._delete_refs(list(state.part_chunk_keys(replaced)))
        return part

    def fetch_stripe_window(
        self, meta: ObjectMeta, stripe: int, lo: int, hi: int
    ) -> Tuple[Optional[List[Tuple[RowWindow, List[ProvenRun]]]], Sequence]:
        """Fetch (without cutting or decoding) what serves plaintext
        ``[lo, hi)`` of one stripe, as ``(windows, chunks)``: the proven
        leaves that cover it per touched row and no chunks, or ``None``
        and the ``m`` best whole chunks (:meth:`_fetch_windows` says when).

        The worker-mode read: the broker fetches, verifies and bills
        under one shared hold of the object's stripe lock; the worker
        checks the proofs or the chunks again against the roots of its
        own copy of ``meta``, and cuts.
        """
        with self._locks.read_object(object_row_key(meta.container, meta.key)):
            return self._segment(meta, stripe, lo, hi, raw=True)

    # ------------------------------------------------------------------
    # migration / repair (driven by the periodic optimizer)
    # ------------------------------------------------------------------

    @_timed_op("migrate")
    def migrate(
        self,
        container: str,
        key: str,
        new_placement: Placement,
    ) -> MigrationReceipt:
        """Move an object's chunks to ``new_placement``.

        When the threshold m and chunk count n are unchanged, only the
        chunks whose provider changed are regenerated and written (the
        paper's cheap repair path); otherwise the object is fully
        re-striped (Section IV-E).  Multi-stripe objects migrate stripe
        by stripe — peak memory stays O(stripe) either way.

        Holds the object's stripe exclusively for the whole move, which
        is how the optimizer's background migrations coordinate with
        in-flight client writes: whoever acquires second sees the other's
        committed metadata, never a half-moved chunk map.
        """
        row_key = object_row_key(container, key)
        with self._locks.mutate_object(container, row_key):
            meta = self._winning_meta(row_key)
            if meta is None:
                raise ObjectNotFoundError(f"{container}/{key}")
            old_placement = meta.placement
            if new_placement == old_placement:
                return MigrationReceipt(old_placement, new_placement, 0, False)

            same_code = (
                new_placement.m == old_placement.m and new_placement.n == old_placement.n
            )
            # Same-code moves write fresh chunks under the *existing*
            # skey; a restripe writes under a brand-new one.  Either way
            # the move is a staged write: the skey is registered in
            # flight from before the first chunk lands until the row
            # referencing it is journaled, so the orphan sweep can never
            # reap a mid-migration chunk, and a failure part-way deletes
            # exactly the chunks this attempt landed.
            session = StagedWrite(
                meta.container,
                meta.key,
                meta.skey if same_code else storage_key(container, key, self._ids.uuid()),
                new_placement.m,
                self._layout(new_placement, meta.size),
            )
            self._locks.in_flight.begin(session.skey)
            try:
                relocate = self._migrate_same_code if same_code else self._migrate_restripe
                new_meta = relocate(meta, session)
                self.rewrite_row(row_key, new_meta, timestamp=self._clock.now)
            except BaseException:
                self.staged_abort(session)
                raise
            self._close_staged(session)
            keep = frozenset((p, ck) for _s, _i, p, ck in new_meta.iter_chunks())
            self._gc_chunks(meta, keep=keep)
            return MigrationReceipt(
                old_placement, new_placement, len(session.written), not same_code
            )

    def rewrite_row(self, row_key: str, meta: ObjectMeta, *, timestamp: float) -> None:
        """Journal ``meta`` as a new version of an existing object's row.

        For maintenance that re-describes an object without a client
        write (a migration's new chunk map, the scrubber's backfilled
        Merkle roots).  The caller holds the row's stripe exclusively,
        which makes its read-modify-write safe; the version merges every
        visible vector clock and so retires the one it was built from.
        """
        self._metadata.write(
            self.dc, row_key, meta.to_dict(), uuid=self._ids.uuid(), timestamp=timestamp
        )

    def rebuild_chunk(
        self,
        meta: ObjectMeta,
        stripe: int,
        index: int,
        provider_name: str,
        *,
        damaged: Sequence[int] = (),
        sources: Optional[Dict[int, Sequence[AnyChunk]]] = None,
    ) -> Tuple[str, str]:
        """Re-encode chunk ``index`` of ``stripe`` from ``m`` intact ones
        and land it at ``provider_name`` (Section IV-E, active repair).

        Stripes are independent codes, so the sources come from the
        chunk's own stripe.  A rebuilt chunk is what the store vouches
        for afterwards (on a row without roots the next scrub mints them
        from it), so a repair never reads what it rebuilds: the sources
        are other chunks than ``index`` and than any of ``damaged`` (the
        stripe's indices the caller confirmed bad), each checked against
        its root as every fetch is (:meth:`_checked_chunk`), and fewer
        than ``m`` good ones is a :class:`ReadFailedError`, never a wrong
        chunk.  This is the one rebuild: scrub repair, audit repair (the
        only time the audit path reads whole chunks) and a migration off
        a failed provider all end here.  ``sources`` lets a caller
        rebuilding several chunks of one stripe fetch (and pay for) the
        ``m`` sources once.  Storage failures propagate; the caller holds
        the object's stripe exclusively.  Returns the ``(provider,
        chunk_key)`` written.
        """
        excluded = frozenset((index, *damaged))
        fetched = None if sources is None else sources.get(stripe)
        if fetched is None or any(chunk.index in excluded for chunk in fetched):
            fetched = self._fetch_chunks(meta, meta.m, stripe=stripe, rebuilding=excluded)
            if sources is not None:
                sources[stripe] = fetched
        stripe_len = meta.stripe_lengths[stripe]
        if isinstance(fetched[0], SyntheticChunk):
            chunk: AnyChunk = SyntheticChunk(
                index=index, size=chunk_length(stripe_len, meta.m)
            )
        else:
            chunk = repair_chunk(
                fetched, index, meta.m, meta.n, stripe_len, code_cache=self._codes
            )
        return self._land(provider_name, meta.chunk_key(index, stripe), chunk)

    def flush_pending_deletes(self) -> int:
        """Retry postponed deletes (call after provider recoveries)."""
        return self._pending.flush(self._registry)

    @property
    def pending_deletes(self) -> PendingDeleteQueue:
        return self._pending

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _winning_meta(self, row_key: str) -> Optional[ObjectMeta]:
        resolution = self._metadata.read(self.dc, row_key)
        for stale in resolution.stale:
            if stale.value is None:
                continue
            stale_meta = ObjectMeta.from_dict(stale.value)
            keep: frozenset[tuple[str, str]] = frozenset()
            if resolution.winner is not None and resolution.winner.value is not None:
                win_meta = ObjectMeta.from_dict(resolution.winner.value)
                keep = frozenset((p, ck) for _s, _i, p, ck in win_meta.iter_chunks())
            self._gc_chunks(stale_meta, keep=keep)
        if resolution.winner is None or resolution.winner.value is None:
            return None
        return ObjectMeta.from_dict(resolution.winner.value)

    # -- read paths --------------------------------------------------------

    @staticmethod
    def _resolve_range(
        meta: ObjectMeta, byte_range: Tuple[int, Optional[int]]
    ) -> Tuple[int, int]:
        """Clamp an inclusive ``(start, end)`` request against the object."""
        start, end = byte_range
        start = int(start)
        if end is None:
            end = meta.size - 1
        end = int(end)
        if start < 0 or end < start:
            raise InvalidRangeError(
                f"invalid byte range [{start}, {end}] for {meta.container}/{meta.key}",
                meta.size,
            )
        if start >= meta.size:
            raise InvalidRangeError(
                f"range start {start} beyond object size {meta.size}", meta.size
            )
        return start, min(end, meta.size - 1)

    def _read_price(self, provider_name: str, clen: int) -> Tuple[float, str]:
        """What reading one ``clen``-byte chunk from a provider costs, the
        name breaking ties: the static part of the serving order, which
        is also the order a write lays its chunks out in
        (:meth:`_layout`)."""
        pricing = self._registry.get(provider_name).spec.pricing
        return pricing.egress_cost(clen), provider_name

    def _serving_order(self, meta: ObjectMeta) -> List[Tuple[int, str]]:
        """Available chunks sorted by health, then by the cost of reading.

        The engine reads from the *cheapest* providers (Section III-D2),
        ranked by egress price — the paper's convention; see
        ``CostModel.serving_rank`` for why.  Observed provider quality
        refines that order: providers with a non-closed circuit breaker
        sort last, and EWMA latency (quantized to 10 ms buckets so benign
        jitter never reorders anything) sorts slow-but-alive providers
        behind fast ones.  When every provider is healthy and fast the
        order is exactly the cost order, which keeps the cost model's
        default serving set honest.
        """
        clen = chunk_length(meta.size, meta.m)
        health = self._registry.health
        breaker_rank = {"closed": 0, "half_open": 1, "open": 2}
        scored: List[Tuple[int, int, float, str, int]] = []
        for index, provider_name in meta.chunk_map:
            if provider_name not in self._registry:
                continue
            if not self._registry.is_available(provider_name):
                continue
            scored.append(
                (
                    breaker_rank.get(health.breaker_state(provider_name), 0),
                    int(health.latency_of(provider_name) / 0.010),
                    *self._read_price(provider_name, clen),
                    index,
                )
            )
        scored.sort()
        return [(index, name) for _, _, _, name, index in scored]

    def _track_hedge_thread(self, thread: threading.Thread) -> None:
        with self._hedge_threads_lock:
            self._hedge_threads = [t for t in self._hedge_threads if t.is_alive()]
            self._hedge_threads.append(thread)

    def drain_hedges(self, timeout: float = 10.0) -> None:
        """Join in-flight hedge fetch threads.

        A hedged read returns as soon as ``m`` chunks arrive; a straggler
        fetch may still be billing its provider in the background.  Tests
        and benchmarks that assert exact metered totals call this first
        so the meters are settled.
        """
        with self._hedge_threads_lock:
            threads = list(self._hedge_threads)
        stop_at = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, stop_at - time.monotonic()))

    def _fetch_chunks(
        self,
        meta: ObjectMeta,
        count: int,
        *,
        stripe: int = 0,
        times: int = 1,
        rebuilding: frozenset = frozenset(),
    ):
        """Fetch ``count`` chunks of one stripe from the best providers,
        each checked as it arrives (:meth:`_checked_chunk`).

        A chunk that is missing, fails a durable backend's record check
        or fails its anchored root is skipped like an unreachable one:
        any ``m`` intact chunks serve the read, and the scrubber or the
        auditor repairs the damage out of band.  ``rebuilding`` makes the
        fetch one of repair sources: those chunk indices are about to be
        replaced and are not fetched.
        """

        def get_chunk(index: int, name: str):
            return self._checked_chunk(meta, stripe, index, name, times=times)

        order = [pair for pair in self._serving_order(meta) if pair[0] not in rebuilding]
        causes: Dict[str, BaseException] = {}
        fetched = self._walk(meta, order, count, get_chunk, causes)
        if len(fetched) < count:
            raise self._read_failed(meta, stripe, len(fetched), count, causes)
        return fetched

    def _checked_chunk(
        self, meta: ObjectMeta, stripe: int, index: int, name: str, *, times: int = 1
    ) -> AnyChunk:
        """Chunk ``index`` of ``stripe`` from provider ``name``, once it
        matches the Merkle root its row anchors: the one check a whole
        chunk gets before a read, a repair or a relocation uses it.

        The root comes from the chunk's kept tree when it has one, so a
        chunk this process wrote is not hashed again.  A row without
        roots passes unchecked (the next clean scrub mints them).  A
        mismatch is journaled as ``read.proof_failed`` and raised as
        :class:`ChunkCorruptionError`, which every fetch walk skips.
        """
        chunk_key = meta.chunk_key(index, stripe)
        chunk = self._registry.get(name).get_chunk(chunk_key, times=times)
        root = meta.merkle_root(index, stripe)
        if root is None or kept_root(chunk) == root:
            return chunk
        self._journal.emit(
            "read.proof_failed",
            key=f"{meta.container}/{meta.key}",
            stripe=stripe, chunk=index, provider=name,
        )
        raise ChunkCorruptionError(
            f"chunk {index} of stripe {stripe} at {name} fails its Merkle root", chunk_key
        )

    def _walk(
        self,
        meta: ObjectMeta,
        order: Sequence[Tuple[int, str]],
        count: int,
        fetch: Callable[[int, str], object],
        causes: Dict[str, BaseException],
    ) -> list:
        """The one fetch walk: up to ``count`` results of ``fetch(index,
        provider)`` over the ranked candidates ``order``; failures that
        another provider can make up for land in ``causes``.

        Two regimes (docs/FAULTS.md): with every candidate healthy the
        serial walk below runs — zero extra overhead, billing identical
        to the pre-hedging engine.  When the health tracker marks any
        candidate *suspect* (slow EWMA, flaky, breaker not closed) the
        fetch goes through :func:`hedged_fetch`: the ``count``
        best-ranked providers in parallel, hedging stragglers past an
        adaptive deadline to the rest.  Whole chunks and leaf windows
        differ only in ``fetch``.
        """
        health = self._registry.health
        if self._hedge.should_hedge(health, [name for _, name in order], count):
            self.hedge_stats.record_read()
            fetched, hedge_causes = hedged_fetch(
                candidates=order,
                fetch=fetch,
                count=count,
                policy=self._hedge,
                health=health,
                stats=self.hedge_stats,
                thread_sink=self._track_hedge_thread,
                journal=self._journal,
                subject=f"{meta.container}/{meta.key}",
            )
            causes.update(hedge_causes)
            return fetched
        fetched = []
        for index, provider_name in order:
            if len(fetched) == count:
                break
            try:
                fetched.append(fetch(index, provider_name))
            except FETCH_ERRORS as exc:
                causes[provider_name] = exc
        return fetched

    def _read_failed(
        self,
        meta: ObjectMeta,
        stripe: int,
        reached: int,
        count: int,
        causes: Dict[str, BaseException],
    ) -> ReadFailedError:
        # Providers filtered out before any fetch still explain the
        # failure: name them in the causes map too.
        for _index, provider_name in meta.chunk_map:
            if provider_name in causes:
                continue
            if provider_name not in self._registry:
                causes[provider_name] = ProviderUnavailableError(
                    f"provider {provider_name} is not registered", provider_name
                )
            elif not self._registry.is_available(provider_name):
                causes[provider_name] = ProviderUnavailableError(
                    f"provider {provider_name} is unavailable", provider_name
                )
        return ReadFailedError(
            f"only {reached} of the required {count} chunks reachable "
            f"for {meta.container}/{meta.key} (stripe {stripe})",
            causes=causes,
        )

    def _fetch_windows(
        self, meta: ObjectMeta, stripe: int, lo: int, hi: int, *, times: int = 1
    ) -> Optional[List[Tuple[RowWindow, List[ProvenRun]]]]:
        """The proven leaves that cover plaintext ``[lo, hi)`` of one
        stripe, per touched row, or ``None`` when the read is a plain
        chunk fetch.

        Which path runs is a property of the request and the object: a
        window whose covering leaves are less than the stripe's ``m``
        data chunks, on an object whose chunks all carry a root, fetches
        leaves.  Everything else fetches ``m`` whole chunks, as it
        always did: a whole stripe, chunks of one leaf (a leaf is the
        narrowest fetch there is), rows that predate auditing.
        """
        length = meta.stripe_lengths[stripe]
        size = chunk_length(length, meta.m)
        if size <= LEAF_SIZE or hi - lo == length or not meta.merkle:
            return None
        windows = rows_for_window(length, meta.m, lo, hi)
        if covers_every_leaf(windows, meta.m, size):
            return None
        roots = {index: meta.merkle_root(index, stripe) for index, _ in meta.chunk_map}
        if None in roots.values():
            return None
        return [
            (window, self._fetch_window(meta, stripe, window, roots, times))
            for window in windows
        ]

    def _fetch_window(
        self,
        meta: ObjectMeta,
        stripe: int,
        window: RowWindow,
        roots: Mapping[int, str],
        times: int,
    ) -> List[ProvenRun]:
        """The proven leaves covering one row's window: one run from the
        best-ranked chunk that holds the row verbatim, or else the same
        leaves of the ``m`` best-ranked other chunks.

        One window always bills less than ``m`` (egress prices in the
        catalogue span 0.15 to 0.18 $/GB), so the holder goes first with
        no cost comparison; ``_serving_order`` still ranks replicas.  The
        challenge op is the fetch: a proof that fails is journaled and
        skipped like a whole chunk that fails its root, and repaired by
        the next audit or scrub pass, not here.
        """
        code = self._codes.get(meta.m, meta.n)
        size = chunk_length(meta.stripe_lengths[stripe], meta.m)

        def challenge(index: int, name: str) -> ProvenRun:
            chunk_key = meta.chunk_key(index, stripe)
            proof = self._registry.get(name).audit_chunk(
                chunk_key, window.leaves, times=times
            )
            try:
                return ProvenRun(index, proof, open_run(proof, roots[index], size, window))
            except ChunkCorruptionError as exc:
                self._journal.emit(
                    "read.proof_failed",
                    key=f"{meta.container}/{meta.key}",
                    stripe=stripe, chunk=index, provider=name,
                    leaves=[window.first_leaf, window.last_leaf],
                )
                raise ChunkCorruptionError(
                    f"chunk {index} of stripe {stripe} at {name}: {exc}", chunk_key
                ) from None

        order = self._serving_order(meta)
        holders = [pair for pair in order if code.holds_row(pair[0], window.row)]
        causes: Dict[str, BaseException] = {}
        proven = self._walk(meta, holders, 1, challenge, causes)
        if not proven:
            others = [pair for pair in order if pair not in holders]
            proven = self._walk(meta, others, meta.m, challenge, causes)
            if len(proven) < meta.m:
                raise self._read_failed(meta, stripe, len(proven), meta.m, causes)
        return proven

    # -- the three steps of a read: open, segment, commit --------------------

    def _open(
        self,
        container: str,
        key: str,
        row_key: str,
        *,
        byte_range: Optional[Tuple[int, Optional[int]]] = None,
        validate: Optional[Validator] = None,
    ) -> Tuple[ReadPlan, bool]:
        """Open: resolve the row once, turn it into the byte range to read
        (``validate(meta)`` when given, else ``byte_range``) and plan the
        covering segments; and whether the read is whole (no range was
        asked).  A range no byte of the object satisfies raises
        :class:`InvalidRangeError` carrying the object's size."""
        meta = self._winning_meta(row_key)
        if meta is None:
            raise ObjectNotFoundError(f"{container}/{key}")
        if validate is not None:
            byte_range = validate(meta)
        if byte_range is None:
            start, end = 0, meta.size - 1
        else:
            start, end = self._resolve_range(meta, byte_range)
        segments = meta.stripes_for_range(start, end) if meta.size > 0 else []
        plan = ReadPlan(meta, segments, start, end, max(0, end - start + 1))
        return plan, byte_range is None

    def _segment(
        self,
        meta: ObjectMeta,
        stripe: int,
        lo: int = 0,
        hi: Optional[int] = None,
        *,
        times: int = 1,
        raw: bool = False,
    ):
        """Segment: plaintext ``[lo, hi)`` of one stripe (default: all of
        it), or that span for a synthetic object.  The one place a stripe
        window is fetched, and cut down to or decoded.

        The fetch is the proven leaves that cover the window, or the
        ``m`` best whole chunks (:meth:`_fetch_windows` says which).
        With ``raw`` it is returned as it came, for a worker that checks
        and cuts it itself: ``(windows, ())`` or ``(None, chunks)``.
        """
        length = meta.stripe_lengths[stripe]
        if hi is None:
            hi = length
        if not 0 <= lo <= hi <= length:
            raise ValueError(f"window [{lo}, {hi}) outside a stripe of {length} bytes")
        windows = self._fetch_windows(meta, stripe, lo, hi, times=times)
        if windows is not None:
            return (windows, ()) if raw else cut_windows(self._codes.get(meta.m, meta.n), windows)
        chunks = self._fetch_chunks(meta, meta.m, stripe=stripe, times=times)
        if raw:
            return None, chunks
        if isinstance(chunks[0], SyntheticChunk):
            return hi - lo
        return self._decode_stripe(chunks, meta.m, meta.n, length)[lo:hi]

    def _through_cache(self, row_key: str, plan: ReadPlan, count: int) -> Payload:
        """``count`` whole reads served through the cache: a miss fetches
        every stripe (an empty one included) and fills it, and the rest
        of ``count`` are hits."""
        payload = self._cache.get(self.dc, row_key)
        if payload is None:
            meta = plan.meta
            payload = _assemble(
                meta, [self._segment(meta, stripe) for stripe in range(len(meta.stripe_lengths))]
            )
            self._cache.put(self.dc, row_key, payload, meta.size)
            self._commit(plan, 1)
            count -= 1
        if count:
            self._commit(plan, count, cache_hit=True)
        return payload

    def _commit(self, plan: ReadPlan, count: int, *, cache_hit: bool = False) -> None:
        """Commit: log ``count`` served reads of a plan.  Statistics, not
        metering: the provider meters billed each chunk as it was
        fetched.  Only a read whose bytes are in hand is logged, so one
        that fails outright never pollutes what placement learns from."""
        meta = plan.meta
        self._log.log(
            LogRecord(
                period=self._clock.period,
                object_key=object_row_key(meta.container, meta.key),
                class_key=meta.class_key,
                op="get",
                size=meta.size,
                mime=meta.mime,
                bytes_out=plan.length * count,
                count=count,
                cache_hit=cache_hit,
            )
        )

    # -- migration ---------------------------------------------------------

    def _migrate_same_code(self, meta: ObjectMeta, session: StagedWrite) -> ObjectMeta:
        """Cheap path: m and n unchanged, rewrite only relocated chunks.

        A relocated chunk whose current provider is reachable and serves
        it intact (its anchored root checks, :meth:`_checked_chunk`) is
        copied *directly* (one read, one write); only chunks stranded on a
        failed provider, or damaged there, are rebuilt from m other
        chunks (the paper's active-repair case).  Striped objects
        relocate every stripe's chunk at the moved index, one stripe at
        a time.
        """
        old_index_of = {p: i for i, p in meta.chunk_map}
        old_provider_of = dict(meta.chunk_map)
        new_map = {old_index_of[p]: p for p in session.providers if p in old_index_of}
        freed = sorted(set(range(meta.n)) - set(new_map))
        incoming = [p for p in session.providers if p not in old_index_of]
        sources: Dict[int, Sequence[AnyChunk]] = {}  # stripe -> m chunks, fetched lazily
        for index, provider_name in zip(freed, incoming):
            source = old_provider_of[index]
            for stripe in range(meta.stripe_count):
                chunk_key = meta.chunk_key(index, stripe)
                chunk = None
                if self._registry.is_available(source):
                    try:
                        chunk = self._checked_chunk(meta, stripe, index, source)
                    except FETCH_ERRORS:
                        chunk = None
                if chunk is not None:
                    ref = self._land(provider_name, chunk_key, chunk)
                else:
                    ref = self.rebuild_chunk(
                        meta, stripe, index, provider_name, sources=sources
                    )
                session.written.append(ref)
            new_map[index] = provider_name
        # Same skey, same indices, byte-identical chunk content (a
        # relocated or repaired chunk re-encodes to the same shard): the
        # Merkle roots carry over untouched.
        return replace(meta, chunk_map=tuple(sorted(new_map.items())))

    def _migrate_restripe(self, meta: ObjectMeta, session: StagedWrite) -> ObjectMeta:
        """Full path: decode and re-encode under the new code, per stripe,
        under the session's fresh storage key."""
        striped = bool(meta.stripes)
        for stripe, stripe_len in enumerate(meta.stripe_lengths):
            data = self._segment(meta, stripe)
            if isinstance(data, int):
                chunks: Sequence = split_synthetic(stripe_len, session.m, session.n)
            else:
                chunks = self._encode_stripe(data, session.m, session.n)
            self.staged_write_stripe(
                session,
                str(stripe) if striped else None,
                chunks,
                [kept_root(chunk) for chunk in chunks],
            )
        return replace(
            meta,
            skey=session.skey,
            m=session.m,
            chunk_map=tuple(enumerate(session.providers)),
            stripes=tuple(
                (str(stripe), length) for stripe, length in enumerate(meta.stripe_lengths)
            ) if striped else (),
            merkle=tuple(sorted(session.merkle)),
        )

    # -- chunk deletion ----------------------------------------------------

    def _delete_refs(
        self,
        refs: Sequence[Tuple[str, str]],
        keep: frozenset = frozenset(),
    ) -> int:
        """Delete ``(provider, chunk_key)`` refs, postponing the unreachable."""
        done = 0
        for provider_name, chunk_key in refs:
            if (provider_name, chunk_key) in keep:
                continue
            if provider_name not in self._registry:
                continue
            try:
                self._registry.get(provider_name).delete_chunk(chunk_key)
            except ChunkNotFoundError:
                continue
            except ProviderUnavailableError:
                self._pending.add(provider_name, chunk_key)
                continue
            done += 1
        return done

    def _gc_chunks(self, meta: ObjectMeta, keep: frozenset[tuple[str, str]]) -> None:
        """Delete a version's chunks, postponing unreachable providers.

        ``keep`` holds ``(provider, chunk_key)`` pairs still referenced by a
        live version — same-code migrations share the skey between old and
        new chunk maps, so the provider must be part of the identity.
        """
        self._delete_refs(
            [(provider, ck) for _s, _i, provider, ck in meta.iter_chunks()],
            keep=keep,
        )

    def _write_index(self, container: str, key: str, row_key: str, *, present: bool) -> None:
        index_key = f"idx|{container}|{key}"
        value = {"key": key, "row_key": row_key} if present else None
        self._metadata.write(
            self.dc, index_key, value, uuid=self._ids.uuid(), timestamp=self._clock.now
        )
