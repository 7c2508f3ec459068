"""Challenge-response provider auditing at O(log) bytes per chunk.

The auditor is the scrubber's cheap continuous sibling.  Where a scrub
*reads every chunk back in full* (real egress at PB scale), an audit
challenges each provider to prove possession of sampled 64 KiB leaves:
the provider answers with the leaf bytes plus a Merkle sibling path
(:mod:`repro.storage.merkle`), the broker verifies against the root it
holds in object metadata, and only a *failed* proof escalates to the
full-read Reed-Solomon repair the scrubber uses.  Per chunk, a passing
audit moves one leaf and a handful of 32-byte hashes instead of the
whole chunk — the ≥50× egress saving at 4 MiB chunks that
``tests/storage/test_audit_vs_scrub.py::TestConvergence`` checks.

A failed proof is treated as evidence, not weather: the provider
answered with bytes that contradict the broker's root, so its breaker
force-opens immediately (``HealthTracker.record_audit_failure``) and it
re-earns admission through the ordinary cooldown → half-open → probe
sequence while the damaged chunk is repaired from the other ``m``.

Leaf sampling is seeded and deterministic per ``(sweep seed, chunk
key)``, so a sweep is replayable; successive sweeps advance the seed and
therefore sample different leaves, which is what gives sustained
sampling its coverage over time.  Objects whose metadata predates
per-chunk roots are counted ``unrooted`` and left to the scrubber's
full-read backfill — the auditor never guesses.

Runs as an incremental background worker with the same batch/yield and
shared→exclusive lock discipline as the scrubber: verify under the
shared stripe lock, escalate to exclusive (and re-challenge) only when
a proof failed and a repair must write.
"""

from __future__ import annotations

import functools
import random

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.datacenter import ScaliaCluster
from repro.cluster.maintenance import ChunkProblem, inspect, report_dict, sweep
from repro.erasure.striping import chunk_length
from repro.obs.events import resolve_journal
from repro.providers.provider import (
    ChunkNotFoundError,
    ProviderUnavailableError,
)
from repro.providers.registry import ProviderRegistry
from repro.storage.merkle import leaf_count, proof_billed_bytes, verify_proof
from repro.types import ObjectMeta

#: Audit statuses recorded per damaged chunk.
AUDIT_PROOF_FAILED = "proof-failed"
AUDIT_MISSING = "missing"

#: Leaves sampled per chunk per sweep.
LEAVES_PER_CHUNK = 1


#: One chunk that failed its possession proof (or was gone): the same
#: record a scrub files, with ``status`` "proof-failed" | "missing".
AuditProblem = ChunkProblem


@dataclass
class AuditReport:
    """Outcome of one audit sweep (JSON-ready via :meth:`to_dict`).

    ``leaves_sampled`` and ``proof_bytes`` count *traffic*: every
    challenge a provider served and billed, including the first pass of
    an object that was then re-challenged under the exclusive hold.
    Every other counter, and ``problems``, is a *verdict* and comes from
    the object's last (authoritative) pass only.
    """

    seed: int = 0
    objects_audited: int = 0
    chunks_audited: int = 0
    proofs_ok: int = 0
    proofs_failed: int = 0
    chunks_missing: int = 0
    chunks_skipped: int = 0  # provider unavailable/unregistered right now
    chunks_unrooted: int = 0  # pre-audit metadata; scrub backfills
    leaves_sampled: int = 0
    proof_bytes: int = 0  # provider egress billed for proofs
    repaired: int = 0
    unrepairable: int = 0
    problems: List[AuditProblem] = field(default_factory=list)

    def to_dict(self) -> dict:
        return report_dict(self)


class Auditor:
    """Audits every provider's holdings with sampled Merkle challenges.

    Mirrors the scrubber's bounded-stall contract: objects are audited
    in batches of ``batch_size`` row keys, each under its own striped
    object lock (shared to challenge, exclusive once a repair must
    write), with ``yield_fn`` run between batches holding no locks.

    :data:`LEAVES_PER_CHUNK` sets challenge strength; one leaf keeps
    per-chunk cost at one leaf + O(log) hashes, which is where the
    audit-vs-scrub byte ratio comes from.  A single tampered *bit*
    still cannot hide — any leaf's proof fails against the stored root
    only if that leaf is sampled, but tampering that survives one sweep
    faces fresh leaves every following sweep.
    """

    def __init__(
        self,
        cluster: ScaliaCluster,
        registry: ProviderRegistry,
        *,
        batch_size: int = 64,
        seed: Optional[int] = None,
        metrics=None,
        journal=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.registry = registry
        self.batch_size = batch_size
        self.journal = resolve_journal(journal)
        self.last_report: Optional[AuditReport] = None
        self._base_seed = seed
        self._sweeps = 0
        self._m_batches = None
        if metrics is not None and metrics.enabled:
            self._m_batches = metrics.histogram(
                "scalia_audit_batch_seconds",
                "Wall time of one audit batch (objects challenged under locks).",
            )
            self._m_chunks = metrics.counter(
                "scalia_audit_chunks_total", "Chunks challenged by audit sweeps."
            )
            self._m_failures = metrics.counter(
                "scalia_audit_failures_total",
                "Failed possession proofs (missing chunks included).",
            )
            self._m_proof_bytes = metrics.counter(
                "scalia_audit_proof_bytes_total",
                "Provider egress billed for audit proofs.",
            )
            self._m_repairs = metrics.counter(
                "scalia_audit_repairs_total", "Chunks repaired after failed proofs."
            )

    def audit(
        self,
        *,
        repair: bool = True,
        batch_size: Optional[int] = None,
        seed: Optional[int] = None,
        yield_fn: Optional[Callable[[], None]] = None,
    ) -> AuditReport:
        """One sweep over every live object's chunks; repairs on failure.

        ``seed`` pins the sweep's leaf sampling (replay support); when
        omitted, sweeps advance through ``base seed + sweep index`` so
        consecutive sweeps challenge different leaves.
        """
        self._sweeps += 1
        if seed is None:
            seed = (self._base_seed or 0) + self._sweeps - 1
        report = AuditReport(seed=seed)
        engine = self.cluster.all_engines()[0]
        check = functools.partial(self._challenge_object, seed, report)

        def visit(row_key: str) -> None:
            inspect(
                engine,
                row_key,
                check,
                report,
                repair=repair,
                counted_as="objects_audited",
                emit=self._emit_failure,
                # A confirmed bad proof is the breaker input — recorded
                # before the repair so placement stops trusting the
                # provider even if reconstruction cannot proceed yet.
                on_confirmed=self.registry.health.record_audit_failure,
            )

        sweep(
            engine.live_row_keys(),
            visit,
            batch_size if batch_size is not None else self.batch_size,
            yield_fn,
            getattr(self._m_batches, "observe", None),
        )
        if self._m_batches is not None:
            self._m_chunks.inc(report.chunks_audited)
            self._m_failures.inc(report.proofs_failed + report.chunks_missing)
            self._m_proof_bytes.inc(report.proof_bytes)
            self._m_repairs.inc(report.repaired)
        self.journal.emit(
            "audit.pass",
            seed=seed,
            objects=report.objects_audited,
            chunks=report.chunks_audited,
            proofs_ok=report.proofs_ok,
            proofs_failed=report.proofs_failed,
            missing=report.chunks_missing,
            unrooted=report.chunks_unrooted,
            proof_bytes=report.proof_bytes,
            repaired=report.repaired,
        )
        self.last_report = report
        return report

    # -- one object --------------------------------------------------------

    def _challenge_object(self, seed: int, report: AuditReport, meta: ObjectMeta):
        """Proof round for one object: ``(counters, damaged, None)``.

        ``counters`` maps the report's verdict fields to deltas;
        ``damaged`` lists ``(stripe, index, provider, status)`` for
        chunks whose proof failed or whose key the provider no longer
        holds.  Transient provider trouble skips (never damages) a
        chunk, matching the scrubber's rule: a repair must rest on
        evidence, not weather.  The traffic fields go straight onto
        ``report``: a challenge a provider answered was served and
        billed whether or not this round turns out to be the
        authoritative one.
        """
        counts = {"chunks_audited": 0, "proofs_ok": 0, "proofs_failed": 0,
                  "chunks_missing": 0, "chunks_skipped": 0, "chunks_unrooted": 0}
        damaged = []
        for stripe, index, provider_name, chunk_key in meta.iter_chunks():
            expected_root = meta.merkle_root(index, stripe)
            if expected_root is None:
                counts["chunks_unrooted"] += 1
                continue
            counts["chunks_audited"] += 1
            if provider_name not in self.registry:
                counts["chunks_skipped"] += 1
                continue
            if not self.registry.is_available(provider_name):
                counts["chunks_skipped"] += 1
                continue
            expected_size = chunk_length(meta.stripe_lengths[stripe], meta.m)
            leaves = leaf_count(expected_size)
            rng = random.Random(f"{seed}:{chunk_key}")
            indices = rng.sample(range(leaves), min(LEAVES_PER_CHUNK, leaves))
            try:
                proof = self.registry.get(provider_name).audit_chunk(
                    chunk_key, indices
                )
            except ChunkNotFoundError:
                counts["chunks_missing"] += 1
                damaged.append((stripe, index, provider_name, AUDIT_MISSING))
                continue
            except ProviderUnavailableError:
                counts["chunks_skipped"] += 1
                continue
            report.leaves_sampled += len(indices)
            report.proof_bytes += proof_billed_bytes(proof)
            if verify_proof(proof, expected_root, expected_size):
                counts["proofs_ok"] += 1
            else:
                counts["proofs_failed"] += 1
                damaged.append((stripe, index, provider_name, AUDIT_PROOF_FAILED))
        return counts, damaged, None

    def _emit_failure(self, meta: ObjectMeta, damaged, repaired) -> None:
        self.journal.emit(
            "audit.fail",
            key=f"{meta.container}/{meta.key}",
            damaged=len(damaged),
            providers=sorted({p for _, _, p, _ in damaged}),
            statuses=sorted({status for _, _, _, status in damaged}),
        )
        if repaired:
            self.journal.emit(
                "audit.repair",
                key=f"{meta.container}/{meta.key}",
                repaired=sum(1 for ok in repaired.values() if ok),
                unrepairable=sum(1 for ok in repaired.values() if not ok),
            )
