"""Algorithm 1: choosing the best provider set for an object.

The exact engine enumerates every combination of the feasible providers,
filters by the rule's lock-in / zones / durability / availability
constraints, prices the survivors with the cost model and returns the
cheapest, with deterministic tie-breaks (fewer providers, then
lexicographic names).  Complexity is O(2^|P|) — fine for the paper's
"less than 15 providers on the market".

Only the last step depends on the object's access pattern.  Which
subsets are eligible, their threshold m, whether the chunk fits and the
four cost coefficients are a function of (pool, rule, size, excluded
names), so the engine works them out once per such key into a table of
rows (:meth:`PlacementEngine._rows`) and a search is one pass of
multiply-adds over it.

For larger pools the paper points at knapsack-style approximations; we
provide a greedy + local-search heuristic (:meth:`PlacementEngine.
best_placement_heuristic`) whose optimality gap is measured by the
``bench_ablation_placement`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence

from repro.cluster.cache import LRUCache
from repro.cluster.engine import PlacementError
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.durability import literal_threshold, max_feasible_threshold
from repro.core.rules import StorageRule
from repro.erasure.striping import chunk_length
from repro.providers.pricing import ProviderSpec
from repro.types import Placement


#: Rows the placement table keeps per engine; the least recently used
#: entry goes first.  An entry is every feasible subset of one (pool,
#: rule, size, exclude) key: 26 rows on the paper's catalogue, up to
#: 2^|P| - 1 = 32 767 on a 15-provider pool, so the bound is on rows and
#: leaves room for two such entries (one heavier than the whole budget is
#: simply not kept).  A row is about 410 bytes (a ``Placement``, its name
#: tuple and four floats): 27 MB when full.
TABLE_ROWS = 65_536

#: Entries of the per-(set, SLA) threshold memo: every subset of a
#: 15-provider pool under two SLAs.
THRESHOLD_MEMO_ENTRIES = 65_536


@dataclass(frozen=True)
class PlacementDecision:
    """A priced placement candidate."""

    placement: Placement
    expected_cost: float

    def label(self) -> str:
        return self.placement.label()


class PlacementEngine:
    """Evaluates Algorithm 1 over a provider pool.

    ``literal_algorithm1=True`` reproduces the paper's pseudocode exactly
    (threshold from durability only, availability as a reject-only check);
    the default refined mode lowers m until availability is also satisfied,
    which is what the paper's reported placements require
    (:func:`~repro.core.durability.max_feasible_threshold`).
    """

    def __init__(self, cost_model: CostModel, *, literal_algorithm1: bool = False) -> None:
        self.cost_model = cost_model
        self.literal_algorithm1 = literal_algorithm1
        # Both memos are keyed by the inputs of a pure function, so an
        # entry is never stale, only aged out (least recently used first,
        # under the cache's own mutex), and two threads that miss on one
        # key compute the same value and one is kept.
        # (specs tuple, durability, availability) -> threshold m.
        self._thresholds: LRUCache = LRUCache(THRESHOLD_MEMO_ENTRIES)
        # (specs tuple, rule, size, exclude) -> rows of every feasible
        # subset, weighed in rows (the cache's "bytes").  A
        # ``ProviderSpec`` is immutable (``update_pricing`` makes a new
        # one), an outage or an open breaker changes which specs the
        # registry hands over and ``StorageRule`` is frozen, so nothing
        # needs invalidating.
        self._table: LRUCache = LRUCache(TABLE_ROWS)

    def forget(self) -> None:
        """Drop every memo the engine holds (to time or test a cold search)."""
        self._thresholds.clear()
        self._table.clear()

    def table_stats(self) -> dict:
        """Pricing passes served from the table / that built an entry, and
        the rows it holds now."""
        stats = self._table.stats_snapshot()
        return {
            "hit": stats.hits,
            "built": stats.misses,  # every miss builds its entry
            "rows": self._table.used_bytes,
        }

    # -- feasibility ----------------------------------------------------

    def eligible_specs(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        exclude: frozenset[str] = frozenset(),
    ) -> List[ProviderSpec]:
        """Providers allowed by zones and not explicitly excluded."""
        return sorted(
            (
                s
                for s in specs
                if s.name not in exclude and s.serves_zone(rule.zones)
            ),
            key=lambda s: s.name,
        )

    def threshold_for(self, specs: Sequence[ProviderSpec], rule: StorageRule) -> int:
        """Largest erasure threshold m this set supports under the rule.

        Returns 0 when the set cannot satisfy durability (and, in refined
        mode, availability) even at m = 1.  Memoized per (set, SLA) pair,
        not per size, so a table entry for a new size recomputes no
        threshold; safe under concurrent planners (two that miss compute the
        same pure value).
        """
        key = (tuple(specs), rule.durability, rule.availability)
        cached = self._thresholds.get(key)
        if cached is not None:
            return cached
        durabilities = [s.durability for s in specs]
        availabilities = [s.availability for s in specs]
        if self.literal_algorithm1:
            result = literal_threshold(
                durabilities, availabilities, rule.durability, rule.availability
            )
        else:
            result = max_feasible_threshold(
                durabilities, availabilities, rule.durability, rule.availability
            )
        self._thresholds.put(key, result, 1)
        return result

    def _row(
        self, pset: Sequence[ProviderSpec], rule: StorageRule, size_bytes: int
    ) -> Optional[tuple]:
        """Everything about one candidate set that no projection changes:
        ``(placement, n, providers, coefficients)``, or ``None`` when the
        set is infeasible for an object of ``size_bytes``."""
        if len(pset) < rule.min_providers:  # lock-in (Algorithm 1, line 6)
            return None
        m = self.threshold_for(pset, rule)
        if m <= 0:
            return None
        chunk = chunk_length(size_bytes, m)
        if any(
            s.max_chunk_bytes is not None and chunk > s.max_chunk_bytes for s in pset
        ):
            return None
        names = tuple(sorted(s.name for s in pset))
        coefficients = self.cost_model.coefficients(pset, m, size_bytes)
        return Placement(names, m), len(names), names, coefficients

    def decide(
        self,
        pset: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
    ) -> Optional[PlacementDecision]:
        """Price one candidate set; ``None`` when the set is infeasible.

        The single-set probe: what the heuristic walks its neighbourhood
        with, and the definition the exact search's table is tested
        against.  It consults no table.
        """
        row = self._row(pset, rule, projection.size_bytes)
        if row is None:
            return None
        placement, _, _, coefficients = row
        cost = self.cost_model.price(coefficients, projection, horizon_periods)
        return PlacementDecision(placement, cost)

    # -- exact search (Algorithm 1) ------------------------------------------

    def _rows(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        size_bytes: int,
        exclude: frozenset[str],
    ) -> tuple:
        """The projection-independent half of Algorithm 1, memoised: one
        :meth:`_row` per feasible subset, in enumeration order."""
        key = (tuple(specs), rule, size_bytes, frozenset(exclude))
        rows = self._table.get(key)
        if rows is None:
            eligible = self.eligible_specs(specs, rule, exclude)
            rows = tuple(
                row
                for size in range(max(1, rule.min_providers), len(eligible) + 1)
                for pset in combinations(eligible, size)
                if (row := self._row(pset, rule, size_bytes)) is not None
            )
            # An infeasible key still weighs one row, or such entries
            # would never be evicted.
            self._table.put(key, rows, max(1, len(rows)))
        return rows

    def _priced(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
        exclude: frozenset[str],
    ) -> List[tuple]:
        """The one pricing pass every search is a driver over: ``(cost, n,
        providers, placement)`` per feasible subset, in enumeration order.

        The first three fields are :meth:`better`'s key, and no two rows
        share ``providers``, so comparing these tuples is that order.
        """
        price = self.cost_model.price
        return [
            (price(coefficients, projection, horizon_periods), n, providers, placement)
            for placement, n, providers, coefficients in self._rows(
                specs, rule, projection.size_bytes, exclude
            )
        ]

    def enumerate_feasible(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
        *,
        exclude: frozenset[str] = frozenset(),
    ) -> List[PlacementDecision]:
        """Every feasible (set, m) candidate, priced (the Figure-13 sweep)."""
        return [
            PlacementDecision(placement, cost)
            for cost, _, _, placement in self._priced(
                specs, rule, projection, horizon_periods, exclude
            )
        ]

    def ranked(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
        *,
        exclude: frozenset[str] = frozenset(),
        limit: Optional[int] = None,
    ) -> List[PlacementDecision]:
        """Feasible candidates best-first, under :meth:`better`'s order.

        The decision-observability layer records the head of this list
        (the chosen placement plus the runners-up and their cost gaps)
        so ``GET /events`` can say *why the losers lost*.  Element 0,
        when present, is exactly what :meth:`best_placement` returns.
        """
        priced = sorted(
            self._priced(specs, rule, projection, horizon_periods, exclude)
        )
        return [
            PlacementDecision(placement, cost)
            for cost, _, _, placement in priced[:limit]
        ]

    def best_placement(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
        *,
        exclude: frozenset[str] = frozenset(),
    ) -> PlacementDecision:
        """Algorithm 1: the cheapest feasible placement.

        Raises :class:`PlacementError` when no provider combination can
        satisfy the rule.
        """
        priced = self._priced(specs, rule, projection, horizon_periods, exclude)
        if not priced:
            raise PlacementError(
                f"no feasible placement for rule {rule.name!r} "
                f"over {len(specs)} providers (excluded: {sorted(exclude)})"
            )
        cost, _, _, placement = min(priced)
        return PlacementDecision(placement, cost)

    @staticmethod
    def better(a: PlacementDecision, b: PlacementDecision) -> bool:
        """True when decision ``a`` strictly beats decision ``b``.

        The deterministic total order every search and tie-break in the
        system uses: cheaper expected cost first, then fewer providers,
        then lexicographic provider names.  Public because the periodic
        optimizer breaks equal-rate ties with the same ordering.
        """
        ka = (a.expected_cost, a.placement.n, a.placement.providers)
        kb = (b.expected_cost, b.placement.n, b.placement.providers)
        return ka < kb

    # -- heuristic search (knapsack-style scalability note) --------------------

    def best_placement_heuristic(
        self,
        specs: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
        *,
        exclude: frozenset[str] = frozenset(),
        max_rounds: int = 32,
    ) -> PlacementDecision:
        """Greedy seed + 1-swap/add/remove local search.

        Polynomial in |P| (O(|P|^2) decisions per round); returns a feasible
        but possibly suboptimal placement.
        """
        eligible = self.eligible_specs(specs, rule, exclude)
        if not eligible:
            raise PlacementError(f"no eligible providers for rule {rule.name!r}")

        # Seed: grow by cheapest storage price until feasible.
        by_storage = sorted(eligible, key=lambda s: (s.pricing.storage_gb_month, s.name))
        current: Optional[PlacementDecision] = None
        chosen: List[ProviderSpec] = []
        for spec in by_storage:
            chosen.append(spec)
            if len(chosen) < rule.min_providers:
                continue
            current = self.decide(chosen, rule, projection, horizon_periods)
            if current is not None:
                break
        if current is None:
            raise PlacementError(
                f"heuristic found no feasible seed for rule {rule.name!r}"
            )

        names = {s.name for s in chosen}
        pool = {s.name: s for s in eligible}
        for _ in range(max_rounds):
            improved = False
            neighbours: List[set[str]] = []
            outside = [n for n in pool if n not in names]
            neighbours.extend(names | {add} for add in outside)
            if len(names) > rule.min_providers:
                neighbours.extend(names - {drop} for drop in names)
            neighbours.extend(
                (names - {drop}) | {add} for drop in names for add in outside
            )
            for candidate in neighbours:
                decision = self.decide(
                    [pool[n] for n in sorted(candidate)],
                    rule,
                    projection,
                    horizon_periods,
                )
                if decision is not None and self.better(decision, current):
                    current = decision
                    names = set(decision.placement.providers)
                    improved = True
            if not improved:
                break
        return current
