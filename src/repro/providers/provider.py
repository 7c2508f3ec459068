"""Simulated cloud storage provider with metering and failure injection.

Each provider is an in-process S3-like chunk store.  Chunk operations update
a :class:`UsageMeter` that accumulates, per sampling period, the four billed
resources of the paper's cost model: storage (GB-hours), bandwidth in/out
(bytes) and request count.  Transient outages (Section IV-E) are injected by
flipping :attr:`SimulatedProvider.failed`; every operation then raises
:class:`ProviderUnavailableError`, which the engine's error handling
(Section III-D3) reacts to.

Beyond the binary outage switch, a provider can carry a *fault profile*
(:mod:`repro.providers.faults`): per-operation latency, seeded transient
error rates, slow mode and flap schedules.  Every operation is also
timed and reported to the registry's health tracker
(:mod:`repro.providers.health`), which is what feeds hedged reads and
the placement-gating circuit breaker.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover — typing only (avoids an import cycle)
    from repro.providers.faults import FaultProfile
    from repro.providers.health import HealthTracker

from repro.erasure.striping import Chunk, SyntheticChunk
from repro.obs.trace import current_trace, record_span
from repro.providers.pricing import ProviderSpec
from repro.storage.backend import ChunkCorruptionError, ChunkStore, MemoryChunkStore
from repro.storage.merkle import proof_billed_bytes
from repro.util.units import GB

AnyChunk = Union[Chunk, SyntheticChunk]

__all__ = [
    "AnyChunk",
    "CapacityExceededError",
    "ChunkCorruptionError",
    "ChunkNotFoundError",
    "ChunkTooLargeError",
    "ProviderFaultError",
    "ProviderUnavailableError",
    "ResourceUsage",
    "SimulatedProvider",
    "UsageMeter",
]


class ProviderUnavailableError(RuntimeError):
    """Raised by every operation while a provider is in a transient outage."""

    def __init__(self, message: str, provider_name: Optional[str] = None) -> None:
        super().__init__(message)
        self.provider_name = provider_name


class ProviderFaultError(ProviderUnavailableError):
    """A *transient* injected failure (flaky error or flap window).

    Subclasses :class:`ProviderUnavailableError` so every retry/postpone
    path treats it like a short outage, but carries ``kind`` so tests and
    operators can tell an injected timeout from a hard outage or a 404.
    (Defined here rather than in :mod:`repro.providers.faults` so the
    provider can raise it without importing the module that imports it.)
    """

    def __init__(self, message: str, provider_name: Optional[str], kind: str) -> None:
        super().__init__(message, provider_name)
        self.kind = kind  # "error" | "flap"


class CapacityExceededError(RuntimeError):
    """Raised when a put would exceed a provider's capacity (private resources)."""

    def __init__(self, message: str, provider_name: Optional[str] = None) -> None:
        super().__init__(message)
        self.provider_name = provider_name


class ChunkTooLargeError(RuntimeError):
    """Raised when a chunk exceeds the provider's maximum object size."""

    def __init__(self, message: str, provider_name: Optional[str] = None) -> None:
        super().__init__(message)
        self.provider_name = provider_name


class ChunkNotFoundError(KeyError):
    """Raised when reading or deleting a chunk key that does not exist."""


@dataclass
class ResourceUsage:
    """Billed resources accumulated over one sampling period."""

    storage_gb_hours: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    ops_get: int = 0
    ops_put: int = 0
    ops_delete: int = 0
    ops_list: int = 0

    @property
    def ops(self) -> int:
        """Total billed request count (all op kinds price equally, Fig. 3)."""
        return self.ops_get + self.ops_put + self.ops_delete + self.ops_list

    def merge(self, other: "ResourceUsage") -> "ResourceUsage":
        """Element-wise sum; used to aggregate periods or providers."""
        return ResourceUsage(
            storage_gb_hours=self.storage_gb_hours + other.storage_gb_hours,
            bytes_in=self.bytes_in + other.bytes_in,
            bytes_out=self.bytes_out + other.bytes_out,
            ops_get=self.ops_get + other.ops_get,
            ops_put=self.ops_put + other.ops_put,
            ops_delete=self.ops_delete + other.ops_delete,
            ops_list=self.ops_list + other.ops_list,
        )

    def to_dict(self) -> dict:
        """JSON-ready form for the durability snapshot/journal."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResourceUsage":
        return cls(**{k: data[k] for k in asdict(cls()) if k in data})


class UsageMeter:
    """Per-sampling-period resource accounting for one provider.

    The simulation clock moves the meter forward with :meth:`set_period`;
    chunk operations record into the current period.  Storage is accrued
    explicitly by the simulator (:meth:`accrue_storage`) so that a period's
    GB-hours reflect the bytes actually held during that period.

    Concurrent-ingest-safe: every increment and every read runs under one
    internal mutex, so parallel chunk operations bill exactly — no lost
    increments, no dict resize racing an iterator.  The mutex is a leaf
    lock: nothing is called while holding it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._period = 0
        self._usage: Dict[int, ResourceUsage] = defaultdict(ResourceUsage)

    @property
    def period(self) -> int:
        """Index of the current sampling period."""
        with self._lock:
            return self._period

    def set_period(self, period: int) -> None:
        """Advance (or set) the current sampling period."""
        with self._lock:
            self._period = period

    def current(self) -> ResourceUsage:
        """Usage record of the current period (created on demand)."""
        with self._lock:
            return self._usage[self._period]

    def record_in(self, n_bytes: int) -> None:
        with self._lock:
            self._usage[self._period].bytes_in += n_bytes

    def record_out(self, n_bytes: int) -> None:
        with self._lock:
            self._usage[self._period].bytes_out += n_bytes

    def record_op(self, kind: str, count: int = 1) -> None:
        with self._lock:
            usage = self._usage[self._period]
            if kind == "get":
                usage.ops_get += count
            elif kind == "put":
                usage.ops_put += count
            elif kind == "delete":
                usage.ops_delete += count
            elif kind == "list":
                usage.ops_list += count
            else:
                raise ValueError(f"unknown op kind {kind!r}")

    def accrue_storage(self, stored_bytes: int, hours: float) -> None:
        """Account ``stored_bytes`` held for ``hours`` in the current period."""
        with self._lock:
            self._usage[self._period].storage_gb_hours += stored_bytes / GB * hours

    def usage_by_period(self) -> Dict[int, ResourceUsage]:
        """Mapping period -> usage (snapshot of the period map).

        The mapping itself is a copy safe to iterate while operations
        continue; the :class:`ResourceUsage` values are the live records.
        """
        with self._lock:
            return dict(self._usage)

    # -- persistence -------------------------------------------------------

    def export_state(self) -> dict:
        """JSON-ready dump of the meter (snapshot support)."""
        with self._lock:
            return {
                "period": self._period,
                "usage": {str(p): u.to_dict() for p, u in self._usage.items()},
            }

    def restore_state(self, state: Mapping) -> None:
        """Inverse of :meth:`export_state` (recovery support)."""
        with self._lock:
            self._period = int(state["period"])
            self._usage.clear()
            for period, usage in state["usage"].items():
                self._usage[int(period)] = ResourceUsage.from_dict(usage)

    def restore_period(self, period: int, usage: Mapping) -> None:
        """Re-apply one closed period's usage from a journal record.

        Idempotent by construction: the journal carries the period's final
        totals, so replaying a record twice overwrites rather than doubles.
        """
        with self._lock:
            self._usage[period] = ResourceUsage.from_dict(usage)
            self._period = max(self._period, period + 1)

    def total(self) -> ResourceUsage:
        """Aggregate usage across all periods."""
        with self._lock:
            total = ResourceUsage()
            for usage in self._usage.values():
                total = total.merge(usage)
            return total


#: Trace phase each provider op kind attributes its wall time to.
_PHASE_BY_KIND = {"put": "provider_put", "get": "provider_fetch"}


def _tampered(chunk: AnyChunk, seed: int) -> AnyChunk:
    """One deterministic bit-flip in a real chunk's payload.

    The returned chunk is a new one over the *tampered* bytes (no kept
    tree comes with it), and a durable backend writes its record's
    checksum over them, so the store itself sees nothing wrong —
    modelling an adversarial or silently bit-rotting store, not a torn
    write.  Synthetic and empty chunks pass through untouched (there are
    no bytes to flip).
    """
    data = getattr(chunk, "data", None)
    if not data:
        return chunk
    position = random.Random(seed).randrange(len(data) * 8)
    tampered = bytearray(data)
    tampered[position // 8] ^= 1 << (position % 8)
    return Chunk(chunk.index, bytes(tampered))


class _ProviderTimers:
    """Pre-resolved metric children for one provider's hot path."""

    __slots__ = ("ops", "errors")

    def __init__(self, metrics, name: str) -> None:
        hist = metrics.histogram(
            "scalia_provider_op_seconds",
            "Latency of provider chunk operations (faults included).",
            ("provider", "op"),
        )
        self.ops = {k: hist.labels(name, k) for k in ("put", "get", "delete", "list")}
        self.errors = metrics.counter(
            "scalia_provider_errors_total",
            "Failed provider operations by error kind.",
            ("provider", "op", "kind"),
        )
        # Byte traffic is *not* counted here: the usage meter already
        # bills every chunk's bytes under its own lock, so the broker's
        # scrape-time collector mirrors scalia_provider_bytes_total from
        # meter.total() at zero hot-path cost.


class SimulatedProvider:
    """An S3-like chunk store with SLA spec, meter and failure switch.

    Both real (:class:`Chunk`) and synthetic chunks are accepted; bandwidth
    and storage are metered from ``chunk.size`` so the two payload modes bill
    identically.

    Chunks live in a pluggable :class:`~repro.storage.backend.ChunkStore`
    backend — the in-memory dict by default, or the durable segment store
    when the broker runs with a ``data_dir``.
    """

    def __init__(self, spec: ProviderSpec, backend: Optional[ChunkStore] = None) -> None:
        self.spec = spec
        self.meter = UsageMeter()
        self.failed = False
        self.backend: ChunkStore = backend if backend is not None else MemoryChunkStore()
        # Serializes backend access: neither the in-memory dict store nor
        # the append-only segment store is internally thread-safe, and the
        # capacity check must be atomic with the write it admits.  One lock
        # per provider — chunk traffic to *different* providers (the normal
        # case: n chunks of one object go to n providers) stays parallel.
        self._op_lock = threading.Lock()
        # Partial-fault injection + health observation (both optional).
        # The registry attaches its HealthTracker on register/adopt.
        self._fault_profile: Optional["FaultProfile"] = None
        self._health: Optional["HealthTracker"] = None
        self._timers: Optional[_ProviderTimers] = None
        # Cluster-mode replication taps: fired after a successful backend
        # mutation, outside _op_lock (the durability manager journals from
        # them and must not serialize against concurrent chunk reads).
        self.on_chunk_put: Optional[Callable[[str, str, AnyChunk], None]] = None
        self.on_chunk_delete: Optional[Callable[[str, str], None]] = None

    # -- introspection -------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def stored_bytes(self) -> int:
        """Total bytes currently held."""
        with self._op_lock:
            return self.backend.stored_bytes

    def __contains__(self, key: str) -> bool:
        with self._op_lock:
            return key in self.backend

    def __len__(self) -> int:
        with self._op_lock:
            return len(self.backend)

    def swap_backend(self, backend: ChunkStore) -> None:
        """Move this provider onto a different backend, migrating chunks.

        Used when a broker with a ``data_dir`` adopts an already-populated
        (usually empty) registry; the copy is unmetered — it is an
        operator action, not client traffic.
        """
        with self._op_lock:
            for key in self.backend.keys():
                backend.put(key, self.backend.get(key))
            old = self.backend
            self.backend = backend
            old.close()

    # -- failure injection ----------------------------------------------

    def fail(self) -> None:
        """Start a transient outage (all operations raise until recovery)."""
        self.failed = True

    def recover(self) -> None:
        """End the transient outage."""
        self.failed = False

    def set_fault_profile(self, profile: Optional["FaultProfile"]) -> None:
        """Install (or clear, with ``None``) a partial-fault profile."""
        self._fault_profile = profile

    @property
    def fault_profile(self) -> Optional["FaultProfile"]:
        return self._fault_profile

    def attach_health(self, tracker: Optional["HealthTracker"]) -> None:
        """Route this provider's per-operation observations to ``tracker``."""
        self._health = tracker

    def attach_metrics(self, metrics) -> None:
        """Record per-operation latency/error/byte metrics into ``metrics``.

        Children are resolved once here so the per-chunk cost is a dict
        probe and a shard-lock increment; a disabled (or ``None``)
        registry detaches instrumentation entirely.
        """
        if metrics is None or not metrics.enabled:
            self._timers = None
        else:
            self._timers = _ProviderTimers(metrics, self.name)

    def _check_up(self) -> None:
        if self.failed:
            raise ProviderUnavailableError(
                f"provider {self.name} is unavailable", self.name
            )

    @contextmanager
    def _observed(self, kind: str):
        """Per-operation envelope: inject faults, time, report health.

        The injected latency sleeps *before* the backend body and outside
        ``_op_lock``, so a slow provider delays its caller without
        blocking concurrent operations on the same provider.  Outcomes
        feed the health tracker: transient failures (outages, injected
        faults) drive the circuit breaker; a 404 / capacity reject /
        corrupt chunk is an *answer* and records as a success.  The same
        timing feeds the metrics registry (when attached) and the current
        request trace (``provider_fetch``/``provider_put`` phases).  With
        no profile, tracker, metrics or active trace the envelope is a
        no-op — the hot path of a fault-free simulation is untouched.

        Yields the :class:`~repro.providers.faults.FaultDecision` drawn
        for this operation (``None`` when no profile is attached), so
        :meth:`put_chunk` can honour silent-corruption draws.
        """
        profile = self._fault_profile
        tracker = self._health
        timers = self._timers
        trace = current_trace()
        if profile is None and tracker is None and timers is None and trace is None:
            yield None
            return
        start = time.perf_counter()
        ok = True
        transient = False
        error_kind = None
        decision = None
        try:
            if profile is not None:
                decision = profile.draw(kind)
                if decision.latency_s > 0.0:
                    time.sleep(decision.latency_s)
                if decision.fault is not None:
                    raise ProviderFaultError(
                        f"provider {self.name}: injected transient "
                        f"{decision.fault} on {kind}",
                        self.name,
                        decision.fault,
                    )
            yield decision
        except ProviderFaultError as exc:
            ok = False
            transient = True
            error_kind = exc.kind
            raise
        except ProviderUnavailableError:
            ok = False
            transient = True
            error_kind = "unavailable"
            raise
        except (ChunkNotFoundError, CapacityExceededError, ChunkTooLargeError,
                ChunkCorruptionError):
            raise  # the provider answered; not a sickness signal
        except Exception:
            ok = False
            error_kind = "unexpected"
            raise
        finally:
            elapsed = time.perf_counter() - start
            if tracker is not None:
                tracker.observe(self.name, elapsed, ok=ok, transient=transient)
            if timers is not None:
                timers.ops[kind].observe(elapsed)
                if error_kind is not None:
                    timers.errors.labels(self.name, kind, error_kind).inc()
            if trace is not None:
                phase = _PHASE_BY_KIND.get(kind)
                if phase is not None:
                    record_span(phase, start, elapsed)

    # -- chunk operations -------------------------------------------------

    def put_chunk(self, key: str, chunk: AnyChunk) -> None:
        """Store ``chunk`` under ``key`` (billed: 1 op + ingress + storage).

        A ``corrupt`` fault draw silently stores tampered bytes: one
        seeded bit-flip, with any provider-local record checksum written
        *over the tampered data*, so provider-local integrity checks
        still pass — only the broker-held Merkle root (checked by every
        read, audit and scrub) can tell.  The write reports success
        either way.
        """
        with self._observed("put") as decision:
            self._check_up()
            if decision is not None and decision.corrupt_seed is not None:
                chunk = _tampered(chunk, decision.corrupt_seed)
            if self.spec.max_chunk_bytes is not None and chunk.size > self.spec.max_chunk_bytes:
                raise ChunkTooLargeError(
                    f"{self.name}: chunk of {chunk.size} B exceeds "
                    f"max {self.spec.max_chunk_bytes} B",
                    self.name,
                )
            with self._op_lock:
                new_total = self.backend.stored_bytes + chunk.size
                old_size = self.backend.size_of(key)
                if old_size is not None:
                    new_total -= old_size
                if self.spec.capacity_bytes is not None and new_total > self.spec.capacity_bytes:
                    raise CapacityExceededError(
                        f"{self.name}: capacity {self.spec.capacity_bytes} B exceeded",
                        self.name,
                    )
                # Store first, meter second: a backend that can fail (full disk,
                # I/O error) must not leave a failed write billed as traffic.
                self.backend.put(key, chunk)
            self.meter.record_op("put")
            self.meter.record_in(chunk.size)
            if self.on_chunk_put is not None:
                self.on_chunk_put(self.name, key, chunk)

    def get_chunk(self, key: str, *, times: int = 1) -> AnyChunk:
        """Fetch the chunk at ``key`` (billed: ``times`` x (1 op + egress)).

        ``times > 1`` bills repeated identical reads in one call — the
        simulator's exact-cost batching for request bursts.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        with self._observed("get"):
            self._check_up()
            with self._op_lock:
                try:
                    chunk = self.backend.get(key)
                except KeyError:
                    raise ChunkNotFoundError(key) from None
            self.meter.record_op("get", times)
            self.meter.record_out(chunk.size * times)
            return chunk

    def delete_chunk(self, key: str) -> None:
        """Delete the chunk at ``key`` (billed: 1 op)."""
        with self._observed("delete"):
            self._check_up()
            with self._op_lock:
                try:
                    self.backend.delete(key)
                except KeyError:
                    raise ChunkNotFoundError(key) from None
            self.meter.record_op("delete")
            if self.on_chunk_delete is not None:
                self.on_chunk_delete(self.name, key)

    def list_keys(self, prefix: str = "") -> Iterator[str]:
        """Iterate stored keys with the given prefix (billed: 1 op)."""
        with self._observed("list"):
            self._check_up()
            self.meter.record_op("list")
            with self._op_lock:
                keys = [k for k in self.backend.keys() if k.startswith(prefix)]
            return iter(sorted(keys))

    def snapshot_keys(self) -> List[str]:
        """A stable copy of every stored chunk key (unmetered scrub walk)."""
        with self._op_lock:
            return list(self.backend.keys())

    # -- replication (unmetered operator/cluster traffic) ------------------

    def adopt_replicated_chunk(self, key: str, chunk: AnyChunk) -> None:
        """Store a chunk shipped by the cluster leader, put-if-missing.

        Unmetered and unobserved: the leader already billed the simulated
        cloud for the client's write; a follower materializing its copy
        is internal replication, not traffic.  Put-if-missing keeps
        at-least-once delivery and WAL replay idempotent.  Does not fire
        :attr:`on_chunk_put` (that would journal the record a second
        time).
        """
        with self._op_lock:
            if key not in self.backend:
                self.backend.put(key, chunk)

    def drop_replicated_chunk(self, key: str) -> None:
        """Delete a chunk named by the leader's stream; missing is fine."""
        with self._op_lock:
            try:
                self.backend.delete(key)
            except KeyError:
                pass

    def export_chunk(self, key: str) -> Optional[AnyChunk]:
        """Read a chunk for catch-up transfer (unmetered), or ``None``."""
        with self._op_lock:
            try:
                return self.backend.get(key)
            except KeyError:
                return None

    def backend_stats(self) -> Dict[str, object]:
        """The backend's JSON-ready counters, read consistently."""
        with self._op_lock:
            return self.backend.stats()

    def audit_chunk(
        self, key: str, leaf_indices: Sequence[int], *, times: int = 1
    ) -> Dict:
        """Merkle possession proof for chosen leaves of one chunk.

        The challenge-response op, which is also how a ranged read
        fetches a window of a chunk: billed as ``times`` x (one get plus
        *ranged* egress — the proof's leaf bytes and sibling hashes,
        O(log) of the chunk size) through the same meter every client
        read uses, so audit economics show up in the existing cost model
        untouched.  ``times > 1`` is :meth:`get_chunk`'s burst batching.
        Subject to fault injection and health observation like any other
        backend call.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        with self._observed("get"):
            self._check_up()
            with self._op_lock:
                try:
                    proof = self.backend.audit(key, leaf_indices)
                except KeyError:
                    raise ChunkNotFoundError(key) from None
            self.meter.record_op("get", times)
            self.meter.record_out(proof_billed_bytes(proof) * times)
            return proof

    # -- simulation hooks --------------------------------------------------

    def on_period(self, period: int, hours: float) -> None:
        """Close the period: accrue storage held during it, then advance.

        Called by the simulator once per sampling period *after* the
        period's requests have been applied.
        """
        self.meter.accrue_storage(self.stored_bytes, hours)
        self.meter.set_period(period + 1)
