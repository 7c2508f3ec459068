"""Broker-side aggregation of gateway-worker metric snapshots.

Pre-forked gateway workers each own a private :class:`MetricsRegistry`
and push its :meth:`~MetricsRegistry.collect` snapshot to the broker
about once a second over the ops RPC.  The broker cannot simply *store*
the latest snapshots: a worker that crashes and restarts would reset its
counters to zero, and naively summing latest snapshots would make
``/metrics`` go backwards (double-counting in reverse).  The
:class:`WorkerMetricsAggregator` therefore keeps, per worker *slot*:

* the latest snapshot of the **live incarnation**, and
* a **retired** accumulator folding the final snapshot of every dead
  incarnation (counters and histograms only — gauges describe current
  state and die with their process).

At scrape time a registry collector materialises the combined
contribution (retired + all live snapshots) into the broker's own
registry via ``set_external``: additive, keyed contributions that never
clobber broker-local increments.  Counter totals are thus monotone
across worker restarts, and a scrape between a worker's death and its
replacement's first push still reports everything the dead incarnation
ever counted (up to its last push — at most one push interval of tail
loss, the same window any pull-based scraper accepts).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.obs.metrics import MetricsRegistry

#: The ``set_external`` source key for all aggregated worker data.  A
#: single key suffices because the aggregator always applies the *total*
#: contribution (retired + live) in one assignment.
_SOURCE = "workers"

_KINDS = ("counter", "gauge", "histogram")


def _fold(target: dict, snapshot: dict, *, include_gauges: bool) -> None:
    """Add one worker's ``collect()`` snapshot into an accumulator.

    The accumulator maps family name to the family's declaration (as the
    snapshot gives it) with ``children`` keyed by the label-value tuple:
    a value, or ``(cumulative buckets, sum)``.  A family whose kind,
    label names or bounds disagree with what the accumulator holds, and a
    child of the wrong shape, are dropped: a malformed push must not
    corrupt the totals.
    """
    if not isinstance(snapshot, dict):
        return
    for name, family in snapshot.items():
        try:
            kind, names = family["kind"], list(family["labels"])
            bounds = [float(b) for b in family.get("bounds", ())]
            children = list(family["children"])
        except (KeyError, TypeError, ValueError):
            continue
        if kind not in _KINDS or (kind == "gauge" and not include_gauges):
            continue
        if kind == "histogram" and not bounds:
            continue  # no registry declares a histogram without buckets
        slot = target.setdefault(name, {
            "kind": kind, "help": str(family.get("help", "")), "labels": names,
            "bounds": bounds, "children": {},
        })
        if (slot["kind"], slot["labels"], slot["bounds"]) != (kind, names, bounds):
            continue
        acc = slot["children"]
        for child in children:
            try:
                values, state = child
                key = tuple(str(v) for v in values)
                if len(key) != len(names):
                    continue
                if kind == "histogram":
                    cumulative, total_sum = [int(c) for c in state[0]], float(state[1])
                    if len(cumulative) != len(bounds) + 1:
                        continue
                    if key in acc:
                        held, held_sum = acc[key]
                        cumulative = [a + b for a, b in zip(held, cumulative)]
                        total_sum += held_sum
                    acc[key] = (cumulative, total_sum)
                else:
                    acc[key] = acc.get(key, 0.0) + float(state)
            except (TypeError, ValueError, IndexError):
                continue


class WorkerMetricsAggregator:
    """Fold per-worker metric snapshots into a broker registry.

    Thread-safe: pushes arrive on ops-RPC connection threads while
    scrapes run the collector on the HTTP thread.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        # slot -> (incarnation, latest snapshot)
        self._live: Dict[int, Tuple[int, dict]] = {}
        # folded final snapshots of dead incarnations (counters + histograms)
        self._retired: dict = {}
        # gauge children given an external value last scrape, so a
        # vanished worker's gauges fall back to zero instead of lying.
        self._gauges: set = set()
        self._workers_gauge = registry.gauge(
            "scalia_gateway_workers_live",
            "Gateway worker processes currently reporting metrics",
        )
        registry.add_collector(self.collect)

    def push(self, slot: int, incarnation: int, snapshot: dict) -> None:
        """Record a worker's latest snapshot.

        A new ``incarnation`` for a known slot retires the previous
        incarnation's final snapshot first, so restarts never reset or
        double-count the aggregate.
        """
        with self._lock:
            previous = self._live.get(slot)
            if previous is not None and previous[0] != incarnation:
                _fold(self._retired, previous[1], include_gauges=False)
            self._live[slot] = (incarnation, snapshot)

    def retire(self, slot: int) -> None:
        """Permanently fold a slot's live snapshot (worker shut down)."""
        with self._lock:
            previous = self._live.pop(slot, None)
            if previous is not None:
                _fold(self._retired, previous[1], include_gauges=False)

    def live_workers(self) -> int:
        with self._lock:
            return len(self._live)

    def collect(self) -> None:
        """Scrape-time collector: apply the combined worker contribution.

        Families unknown to the broker registry are declared from the
        snapshots' own declarations; one whose declaration conflicts with
        the broker's is skipped, so a malformed snapshot never takes down
        ``/metrics``.
        """
        with self._lock:
            # Folding replaces a child's state, never mutates it, so a
            # copy of each family's child map keeps the retired totals.
            combined = {
                name: dict(family, children=dict(family["children"]))
                for name, family in self._retired.items()
            }
            snapshots = [snapshot for _, snapshot in self._live.values()]
        for snapshot in snapshots:
            _fold(combined, snapshot, include_gauges=True)
        self._workers_gauge.set(len(snapshots))
        gauges: set = set()
        for name, family in combined.items():
            kind, names = family["kind"], family["labels"]
            if not family["children"]:
                continue
            try:
                if kind == "histogram":
                    declared = self._registry.histogram(
                        name, family["help"], names, buckets=family["bounds"]
                    )
                else:
                    declared = getattr(self._registry, kind)(name, family["help"], names)
            except ValueError:  # the broker declares it another way
                continue
            for key, state in family["children"].items():
                child = declared.labels(*key)
                if kind == "histogram":
                    child.set_external(_SOURCE, *state)
                else:
                    child.set_external(_SOURCE, state)
                    if kind == "gauge":
                        gauges.add(child)
        with self._lock:
            stale, self._gauges = self._gauges - gauges, gauges
        for child in stale:
            child.set_external(_SOURCE, 0.0)
