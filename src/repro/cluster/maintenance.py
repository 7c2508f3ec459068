"""The background maintenance discipline, written once.

Scrubbing, auditing and the periodic optimization round (Section III-C:
the leader walks the objects in the background while engines keep
serving) share two procedures, both stated here beside the lock
hierarchy they implement (docs/CONCURRENCY.md, "The background control
plane"):

* :func:`sweep` — claim the items in batches, pause between batches with
  no lock held, time each batch.  A foreground request therefore waits
  for at most the one object a worker is inside, never for a pass.
* :func:`inspect` — verify one object under its *shared* stripe lock;
  only when damage (or work that must write) is found, re-acquire the
  stripe *exclusively*, re-resolve the metadata, verify again and repair
  each damaged chunk through :meth:`Engine.rebuild_chunk` (Section IV-E:
  any ``m`` chunks rebuild a lost one), then fold the one authoritative
  outcome into the report.

What differs between the workers — how a chunk is checked, what the
report counts, which events are journaled — is passed in.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.errors import ReadFailedError
from repro.providers.provider import (
    CapacityExceededError,
    ChunkCorruptionError,
    ChunkNotFoundError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.types import ObjectMeta

#: ``(stripe, index, provider, status)`` of one damaged chunk.
Damage = Tuple[int, int, str, str]

#: What ``check(meta)`` returns: report-field deltas, the damaged chunks,
#: and optionally work that needs the exclusive hold (run after repairs).
Verdict = Tuple[Dict[str, int], List[Damage], Optional[Callable[[], None]]]

#: The expected storage failures that make a chunk unrepairable *now*.
#: Anything else is a bug and must surface, not be counted as lost data.
UNREPAIRABLE = (
    ReadFailedError,
    ProviderUnavailableError,
    ChunkNotFoundError,
    ChunkCorruptionError,
    CapacityExceededError,
    ChunkTooLargeError,
)


@dataclass
class ChunkProblem:
    """One damaged chunk found by a scrub pass or an audit sweep."""

    container: str
    key: str
    chunk_index: int
    provider: str
    status: str  # scrub: "missing" | "corrupt"; audit: "missing" | "proof-failed"
    repaired: bool
    stripe: int = 0

    def to_dict(self) -> dict:
        return {
            "container": self.container,
            "key": self.key,
            "chunk_index": self.chunk_index,
            "stripe": self.stripe,
            "provider": self.provider,
            "status": self.status,
            "repaired": self.repaired,
        }


def report_dict(report) -> dict:
    """A report dataclass as JSON: its fields in order, problems capped."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    out["problems"] = [p.to_dict() for p in report.problems[:50]]
    return out


def sweep(
    items: Sequence,
    visit: Callable[[object], None],
    batch_size: int,
    pause: Optional[Callable[[], None]] = None,
    observe: Optional[Callable[[float], None]] = None,
) -> None:
    """Visit every item, ``batch_size`` at a time.

    ``pause`` runs between two batches, when the worker holds no lock
    (it may raise to abandon the pass); ``observe`` receives each
    batch's wall time in seconds.
    """
    size = max(1, batch_size)
    for start in range(0, len(items), size):
        if start and pause is not None:
            pause()
        batch_started = time.perf_counter()
        for item in items[start:start + size]:
            visit(item)
        if observe is not None:
            observe(time.perf_counter() - batch_started)


def inspect(
    engine,
    row_key: str,
    check: Callable[[ObjectMeta], Verdict],
    report,
    *,
    repair: bool,
    counted_as: str,
    emit: Callable[[ObjectMeta, List[Damage], Dict[tuple, bool]], None],
    on_confirmed: Optional[Callable[[str], None]] = None,
) -> None:
    """Verify one object, escalating to repair it; fold the outcome in.

    The first ``check`` — the overwhelmingly common all-healthy case —
    holds the object's stripe *shared*, so reads flow and only writers
    wait.  When it finds damage, or returns work that must write, and
    ``repair`` allows, the stripe is re-acquired *exclusively*, the
    metadata re-resolved and ``check`` run again before anything is
    written: a rewrite or delete that won the gap between the two holds
    is fully respected, and a repair can never resurrect chunks of a
    superseded version.  ``on_confirmed(provider)`` runs before each
    repair, on damage the second check confirmed; the rebuild is told
    every index of the stripe that check found bad, so no damaged chunk
    is a source for another.  The report takes the
    last check's counters only; ``counted_as`` names its object counter
    and ``emit(meta, damaged, repaired)`` journals a damaged object.

    The metadata is resolved with ``resolve_row_unlocked`` because the
    public ``resolve_row`` would re-acquire the stripe held here.
    """
    locks = engine.locks.objects
    with locks.shared(row_key):
        meta = engine.resolve_row_unlocked(row_key)
        if meta is None:
            return
        counts, damaged, then = check(meta)
    repaired: Dict[tuple, bool] = {}
    if repair and (damaged or then is not None):
        with locks.exclusive(row_key):
            meta = engine.resolve_row_unlocked(row_key)
            if meta is None:
                return  # deleted in the gap: nothing to maintain any more
            counts, damaged, then = check(meta)
            for stripe, index, provider_name, _status in damaged:
                if on_confirmed is not None:
                    on_confirmed(provider_name)
                try:
                    engine.rebuild_chunk(
                        meta, stripe, index, provider_name,
                        damaged=[i for s, i, _p, _st in damaged if s == stripe],
                    )
                    fixed = True
                except UNREPAIRABLE:
                    fixed = False
                repaired[(stripe, index, provider_name)] = fixed
            if then is not None:
                then()
    _commit_outcome(report, meta, counts, damaged, repair, repaired, counted_as, emit)


def _commit_outcome(
    report, meta: ObjectMeta, counts, damaged, repair, repaired, counted_as, emit
) -> None:
    setattr(report, counted_as, getattr(report, counted_as) + 1)
    for field_name, delta in counts.items():
        setattr(report, field_name, getattr(report, field_name) + delta)
    for stripe, index, provider_name, status in damaged:
        fixed = bool(repaired.get((stripe, index, provider_name)))
        report.repaired += int(fixed)
        report.unrepairable += int(repair and not fixed)
        report.problems.append(
            ChunkProblem(
                container=meta.container,
                key=meta.key,
                chunk_index=index,
                stripe=stripe,
                provider=provider_name,
                status=status,
                repaired=fixed,
            )
        )
    if damaged:
        # One verdict per damaged object — clean objects stay silent so
        # a full-store pass cannot flood the ring.
        emit(meta, damaged, repaired)
