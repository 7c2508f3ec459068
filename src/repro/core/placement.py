"""Algorithm 1: choosing the best provider set for an object.

The exact engine enumerates every combination of the feasible providers,
filters by the rule's lock-in / zones / durability / availability
constraints, prices the survivors with the cost model and returns the
cheapest, with deterministic tie-breaks (fewer providers, then
lexicographic names).  Complexity is O(2^|P|) — fine for the paper's
"less than 15 providers on the market".

For larger pools the paper points at knapsack-style approximations; we
provide a greedy + local-search heuristic (:meth:`PlacementEngine.
best_placement_heuristic`) whose optimality gap is measured by the
``bench_ablation_placement`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence

from repro.cluster.engine import PlacementError
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.durability import literal_threshold, max_feasible_threshold
from repro.core.rules import StorageRule
from repro.erasure.striping import chunk_length
from repro.providers.pricing import ProviderSpec
from repro.types import Placement


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
        # (specs tuple, durability, availability) -> threshold m.  Specs
        # are immutable, so SLA-only results can be memoized across the
        # many placement searches that reuse the same subsets.
        self._threshold_cache: dict = {}

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
        mode, availability) even at m = 1.  Memoized per (set, SLA) pair;
        safe under concurrent planners — a cache race at worst recomputes
        the same pure function, and the guarded clear cannot race an
        in-progress lookup into a KeyError because lookups use ``get``.
        """
        key = (tuple(specs), rule.durability, rule.availability)
        cached = self._threshold_cache.get(key)
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
        if len(self._threshold_cache) > 500_000:
            self._threshold_cache.clear()
        self._threshold_cache[key] = result
        return result

    def decide(
        self,
        pset: Sequence[ProviderSpec],
        rule: StorageRule,
        projection: AccessProjection,
        horizon_periods: float,
    ) -> Optional[PlacementDecision]:
        """Price one candidate set; ``None`` when the set is infeasible."""
        if len(pset) < rule.min_providers:  # lock-in (Algorithm 1, line 6)
            return None
        m = self.threshold_for(pset, rule)
        if m <= 0:
            return None
        chunk = chunk_length(projection.size_bytes, m)
        if any(
            s.max_chunk_bytes is not None and chunk > s.max_chunk_bytes for s in pset
        ):
            return None
        cost = self.cost_model.expected_cost(pset, m, projection, horizon_periods)
        names = tuple(sorted(s.name for s in pset))
        return PlacementDecision(Placement(names, m), cost)

    # -- exact search (Algorithm 1) ------------------------------------------

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
        eligible = self.eligible_specs(specs, rule, exclude)
        decisions: List[PlacementDecision] = []
        for size in range(max(1, rule.min_providers), len(eligible) + 1):
            for pset in combinations(eligible, size):
                decision = self.decide(pset, rule, projection, horizon_periods)
                if decision is not None:
                    decisions.append(decision)
        return decisions

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
        decisions = self.enumerate_feasible(
            specs, rule, projection, horizon_periods, exclude=exclude
        )
        decisions.sort(
            key=lambda d: (d.expected_cost, d.placement.n, d.placement.providers)
        )
        if limit is not None:
            decisions = decisions[:limit]
        return decisions

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
        best: Optional[PlacementDecision] = None
        for decision in self.enumerate_feasible(
            specs, rule, projection, horizon_periods, exclude=exclude
        ):
            if best is None or self.better(decision, best):
                best = decision
        if best is None:
            raise PlacementError(
                f"no feasible placement for rule {rule.name!r} "
                f"over {len(specs)} providers (excluded: {sorted(exclude)})"
            )
        return best

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

    # Backwards-compatible alias (pre-dates the public promotion).
    _better = better

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
