"""Ablation: exact Algorithm 1 vs the knapsack-style heuristic.

The exact search is O(2^|P|); the paper notes suboptimal alternatives are
required when the provider market grows.  This bench measures both the
runtime gap and the cost-optimality gap of the greedy + local-search
heuristic as the pool grows.
"""

import dataclasses
import time

import pytest

from repro.core.costmodel import AccessProjection, CostModel
from repro.core.placement import PlacementEngine
from repro.core.rules import StorageRule
from repro.providers.pricing import PricingPolicy, paper_catalog
from repro.util.units import MB

RULE = StorageRule("bench", durability=0.99999, availability=0.9999, lockin=0.5)
PROJ = AccessProjection(size_bytes=MB, reads_per_period=3.0)


def jittered_catalog(copies: int):
    """Clone the paper catalog with jittered prices -> 5 x copies providers."""
    out = []
    for i in range(copies):
        for spec in paper_catalog():
            pricing = PricingPolicy(
                spec.pricing.storage_gb_month * (1 + 0.013 * i),
                spec.pricing.bw_in_gb * (1 + 0.007 * i),
                spec.pricing.bw_out_gb * (1 + 0.003 * i),
                spec.pricing.ops_per_1k,
            )
            out.append(dataclasses.replace(spec, name=f"{spec.name}#{i}", pricing=pricing))
    return out


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_exact_search(benchmark, copies):
    catalog = jittered_catalog(copies)
    engine = PlacementEngine(CostModel())

    def run():
        engine.forget()  # a cold search: no threshold memo, no table entry
        return engine.best_placement(catalog, RULE, PROJ, 24.0)

    decision = benchmark(run)
    # The same search again is one pricing pass over the table entry.
    began = time.perf_counter()
    assert engine.best_placement(catalog, RULE, PROJ, 24.0) == decision
    warm = time.perf_counter() - began
    print(f"\nexact |P|={len(catalog)}: {decision.label()} "
          f"cost={decision.expected_cost:.3e} "
          f"cold mean={benchmark.stats['mean'] * 1e3:.1f} ms warm={warm * 1e3:.3f} ms "
          f"({engine.table_stats()['rows']} rows)")


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_heuristic_search(benchmark, copies):
    catalog = jittered_catalog(copies)
    engine = PlacementEngine(CostModel())
    exact = engine.best_placement(catalog, RULE, PROJ, 24.0)

    def run():
        engine.forget()
        return engine.best_placement_heuristic(catalog, RULE, PROJ, 24.0)

    heur = benchmark(run)
    gap = heur.expected_cost / exact.expected_cost - 1.0
    print(f"\nheuristic |P|={len(catalog)}: {heur.label()} "
          f"optimality gap={100 * gap:.2f}% mean={benchmark.stats['mean'] * 1e3:.1f} ms")
    assert gap <= 0.10  # within 10 % of optimal on these pools
