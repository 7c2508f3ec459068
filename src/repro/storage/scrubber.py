"""Background integrity scrubbing with erasure-coded repair.

The scrubber walks every live object's chunk map, *reads each chunk
back in full* (billed like any client read — full-store scrubbing has a
real egress cost, which is what the Merkle auditor undercuts) and
classifies it ``ok`` / ``missing`` / ``corrupt``.  A durable backend
refuses a chunk whose record fails its own checksum (rot at rest); a
fetched chunk is then checked against the broker-held Merkle root from
object metadata, so adversarial tampering that the provider's records
do not show is still caught.  Objects whose metadata predates per-chunk
roots (pre-audit WALs) are verified by the same full read and their
Merkle trees are *backfilled* into a fresh metadata version, which is
how an old store becomes auditable.

Damaged chunks are re-encoded from any ``m`` intact chunks through the
same Reed-Solomon reconstruction the optimizer's active repair uses
(Section IV-E, ``bench_fig18_active_repair``), and written back to the
owning provider — billed as real repair traffic, exactly like a
paper-style migration repair.

This closes the loop the durable backends open: CRC detection lives in
:mod:`repro.storage.segment`, tolerance lives in the engine's read path
(any ``m`` of ``n``), and restoration of full redundancy lives here.
The cheap continuous counterpart — challenge-response proofs at O(log)
bytes per chunk — is :mod:`repro.storage.auditor`.  The two share the
batched sweep, the shared → exclusive inspection of each object
(:mod:`repro.cluster.maintenance`) and the one rebuild
(:meth:`Engine.rebuild_chunk`); what is the scrubber's own is the
full-read check, the root backfill and the orphan sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.cluster.datacenter import ScaliaCluster
from repro.cluster.maintenance import ChunkProblem, inspect, report_dict, sweep
from repro.providers.provider import (
    ChunkCorruptionError,
    ChunkNotFoundError,
    ProviderUnavailableError,
)
from repro.providers.registry import ProviderRegistry
from repro.obs.events import resolve_journal
from repro.storage.backend import VERIFY_CORRUPT, VERIFY_MISSING, VERIFY_OK
from repro.storage.merkle import SYNTHETIC_ROOT, merkle_root
from repro.types import ObjectMeta, raw_chunk_refs
from repro.util.ids import object_row_key


@dataclass
class ScrubReport:
    """Outcome of one scrub pass (JSON-ready via :meth:`to_dict`)."""

    objects_scanned: int = 0
    chunks_scanned: int = 0
    chunks_ok: int = 0
    chunks_missing: int = 0
    chunks_corrupt: int = 0
    chunks_skipped: int = 0  # provider unavailable/unregistered at scrub time
    repaired: int = 0
    unrepairable: int = 0
    orphans_found: int = 0
    orphans_removed: int = 0
    roots_backfilled: int = 0  # objects whose Merkle trees were backfilled
    problems: List[ChunkProblem] = field(default_factory=list)

    def to_dict(self) -> dict:
        return report_dict(self)


class Scrubber:
    """Detects and repairs damaged chunks across the provider pool.

    Runs as an **incremental background worker**: objects are scrubbed in
    batches of ``batch_size`` row keys, each object under its own striped
    object lock (shared to verify, exclusive once a repair must write),
    and ``yield_fn`` runs between batches with no locks held.  Foreground
    traffic therefore waits for at most one object's scrub, never a whole
    pass — the same bounded-stall contract the periodic optimizer keeps.
    """

    def __init__(
        self,
        cluster: ScaliaCluster,
        registry: ProviderRegistry,
        *,
        batch_size: int = 64,
        metrics=None,
        journal=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.registry = registry
        self.batch_size = batch_size
        self.journal = resolve_journal(journal)
        self.last_report: Optional[ScrubReport] = None
        self._m_batches = None
        if metrics is not None and metrics.enabled:
            self._m_batches = metrics.histogram(
                "scalia_scrub_batch_seconds",
                "Wall time of one scrub batch (objects verified under locks).",
            )
            self._m_objects = metrics.counter(
                "scalia_scrub_objects_total", "Objects examined by scrub passes."
            )
            self._m_repairs = metrics.counter(
                "scalia_scrub_repairs_total", "Chunks repaired by scrub passes."
            )

    def scrub(
        self,
        *,
        repair: bool = True,
        batch_size: Optional[int] = None,
        yield_fn: Optional[Callable[[], None]] = None,
    ) -> ScrubReport:
        """One full pass over every live object; repairs unless told not to."""
        report = ScrubReport()
        engine = self.cluster.all_engines()[0]
        check = functools.partial(self._verify_object, engine, repair, report)

        def visit(row_key: str) -> None:
            inspect(
                engine,
                row_key,
                check,
                report,
                repair=repair,
                counted_as="objects_scanned",
                emit=self._emit_verdict,
            )

        sweep(
            engine.live_row_keys(),
            visit,
            batch_size if batch_size is not None else self.batch_size,
            yield_fn,
            getattr(self._m_batches, "observe", None),
        )
        if repair:
            self._sweep_orphans(report)
        if self._m_batches is not None:
            self._m_objects.inc(report.objects_scanned)
            self._m_repairs.inc(report.repaired)
        self.last_report = report
        return report

    def _verify_object(self, engine, repair: bool, report, meta: ObjectMeta):
        """Full-read verification: ``(counters, damaged, backfill)``.

        ``counters`` maps the report fields to deltas; ``damaged`` lists
        ``(stripe, index, provider, status)`` for missing/corrupt chunks.
        ``backfill`` is set when a repairing pass finds pre-audit
        metadata and every chunk read back clean: the full read this
        object just paid for doubles as the tree build, and the roots
        computed from the bytes are journaled once the pass holds the
        stripe exclusively.  A damaged or unprobeable object waits for a
        later pass.
        """
        counts = {"chunks_scanned": 0, "chunks_ok": 0, "chunks_missing": 0,
                  "chunks_corrupt": 0, "chunks_skipped": 0}
        damaged = []
        roots: dict = {}
        for stripe, index, provider_name, chunk_key in meta.iter_chunks():
            counts["chunks_scanned"] += 1
            status, root = self._verify(
                chunk_key, provider_name, meta.merkle_root(index, stripe)
            )
            if status is None:
                counts["chunks_skipped"] += 1
            elif status == VERIFY_OK:
                counts["chunks_ok"] += 1
                roots[chunk_key.split(":", 1)[1]] = root
            else:
                if status == VERIFY_MISSING:
                    counts["chunks_missing"] += 1
                else:
                    counts["chunks_corrupt"] += 1
                damaged.append((stripe, index, provider_name, status))
        backfill = None
        if repair and not meta.merkle and not damaged and not counts["chunks_skipped"]:
            backfill = functools.partial(
                self._backfill_roots, engine, meta, roots, report
            )
        return counts, damaged, backfill

    def _backfill_roots(self, engine, meta: ObjectMeta, roots, report: ScrubReport) -> None:
        """Write a metadata version carrying freshly computed Merkle roots.

        The write merges every visible version's vector clock and
        increments this DC, so it causally dominates (and retires) the
        rootless version — followers receive the backfilled tree through
        ordinary ``md`` WAL shipping.  Chunk references are unchanged,
        so no GC can trigger.
        """
        engine.rewrite_row(
            object_row_key(meta.container, meta.key),
            replace(meta, merkle=tuple(sorted(roots.items()))),
            timestamp=meta.last_modified,
        )
        report.roots_backfilled += 1
        self.journal.emit(
            "scrub.backfill",
            key=f"{meta.container}/{meta.key}",
            chunks=len(roots),
        )

    def _emit_verdict(self, meta: ObjectMeta, damaged, repaired) -> None:
        self.journal.emit(
            "scrub.verdict",
            key=f"{meta.container}/{meta.key}",
            damaged=len(damaged),
            repaired=sum(1 for s, i, p, _ in damaged if repaired.get((s, i, p))),
            providers=sorted({p for _, _, p, _ in damaged}),
            statuses=sorted({status for _, _, _, status in damaged}),
        )

    def _sweep_orphans(self, report: ScrubReport) -> None:
        """Delete stored chunks no metadata version references any more.

        This is the garbage-collection backstop for crash windows the
        pending-delete queue cannot cover (e.g. a SIGKILL between a
        journaled tombstone and the physical chunk deletes): an orphan
        would otherwise occupy capacity and accrue storage billing
        forever.  References are collected across *every* replica's
        versions — including stale and conflicting ones — so a chunk is
        only an orphan when no datacenter can possibly resolve to it.

        Concurrent-write safety hangs on the snapshot order below.  Every
        write path registers its skey in-flight before the first chunk
        lands and deregisters only after the referencing metadata row is
        committed.  Chunk keys are snapshotted (1) *before* the in-flight
        set (2), which is read *before* the reference census (3): a chunk
        whose write was still uncommitted at (2) is protected by its
        in-flight entry, a write that finished before (2) has metadata
        the census at (3) must see, and a write that began after (2)
        cannot appear in the key snapshot from (1) at all.  Only chunks
        failing all three fences are deleted.
        """
        candidates = [
            (provider, provider.snapshot_keys())  # (1) chunk-key snapshot
            for provider in self.registry.providers()
            if not provider.failed
        ]
        in_flight = self.cluster.locks.in_flight.snapshot()  # (2)
        referenced = self._referenced_chunks()  # (3)
        for provider, chunk_keys in candidates:
            for chunk_key in chunk_keys:
                if (provider.name, chunk_key) in referenced:
                    continue
                skey = chunk_key.split(":", 1)[0]
                if skey in in_flight:
                    continue
                report.orphans_found += 1
                try:
                    provider.delete_chunk(chunk_key)
                except (ProviderUnavailableError, KeyError):
                    continue
                self.cluster.pending_deletes.discard(provider.name, chunk_key)
                report.orphans_removed += 1

    def _referenced_chunks(self) -> set:
        """Every ``(provider, chunk_key)`` any stored metadata version names.

        Covers object rows (including their whole stripe tables) *and*
        multipart staging rows: an in-flight upload's part chunks are
        live data, not orphans.  The walk is batched — row keys by the
        thousand, then per-row version reads — so the metadata mutex is
        held for one short scan at a time rather than across the whole
        store (the bounded-stall contract applies to the census too).
        Versions committed after the in-flight snapshot may be missed,
        but their chunks are either absent from the earlier key snapshot
        or protected by the in-flight fence (see :meth:`_sweep_orphans`).
        """
        referenced = set()
        metadata = self.cluster.metadata
        batch = 1024
        for dc in metadata.datacenters:
            cursor = ""
            while True:
                row_keys = metadata.scan_keys(dc, "", start_after=cursor, limit=batch)
                if not row_keys:
                    break
                for row_key in row_keys:
                    for version in metadata.raw_versions(dc, row_key):
                        if version.value:
                            referenced.update(raw_chunk_refs(version.value))
                cursor = row_keys[-1]
                if len(row_keys) < batch:
                    break
        return referenced

    # -- internals ---------------------------------------------------------

    def _verify(self, chunk_key: str, provider_name: str, expected_root):
        """``(state, root)`` of one chunk, read back in full and billed.

        ``state`` is ``None`` when the provider cannot be probed now: a
        transient fault from a flaky provider (injected error, flap
        window) means the chunk is *skipped*, not declared damaged —
        repairing on the word of a provider that is erroring would churn
        healthy chunks.  The probe itself still feeds the health
        tracker, so scrubbing doubles as the half-open breaker's
        recovery traffic.

        A durable backend's record check (rot and torn records) answers
        the fetch itself, as :class:`ChunkCorruptionError`; the bytes it
        hands over are then checked against the Merkle root from object
        metadata when one exists (catches *adversarial* tampering the
        provider's own records do not show).  ``root`` is the Merkle root
        computed from the bytes just read — backfill material for
        rootless metadata.
        """
        if provider_name not in self.registry:
            return None, None
        if not self.registry.is_available(provider_name):
            return None, None
        try:
            chunk = self.registry.get(provider_name).get_chunk(chunk_key)
        except ChunkNotFoundError:
            return VERIFY_MISSING, None
        except ChunkCorruptionError:
            return VERIFY_CORRUPT, None
        except ProviderUnavailableError:
            return None, None
        data = getattr(chunk, "data", None)
        if data is None:  # synthetic: size-only, nothing to hash
            return VERIFY_OK, SYNTHETIC_ROOT
        computed = merkle_root(data)
        if (
            expected_root is not None
            and expected_root != SYNTHETIC_ROOT
            and computed != expected_root
        ):
            return VERIFY_CORRUPT, None
        return VERIFY_OK, computed
