"""Ablation: Poisson-binomial DP vs the paper's combinatorial Algorithm 2.

Both compute the same threshold exactly; the DP is O(n^2) while the literal
pseudocode enumerates failure combinations (exponential in the tolerated
failures).  The DP is the substitution that lets placement scale.
"""

import pytest

from repro.core.durability import algorithm2_reference, durability_threshold

REQUIRED = 0.99999


def slas(n: int) -> list[float]:
    base = [0.99999999999, 0.9999, 0.999999, 0.999999, 0.999999]
    return [base[i % 5] for i in range(n)]


@pytest.mark.parametrize("n", [5, 10, 15])
def test_dp_threshold(benchmark, n):
    result = benchmark(durability_threshold, slas(n), REQUIRED)
    assert result == algorithm2_reference(slas(n), REQUIRED)
    print(f"\nDP n={n}: m={result}, mean={benchmark.stats['mean'] * 1e6:.1f} µs")


@pytest.mark.parametrize("n", [5, 10, 15])
def test_combinatorial_reference(benchmark, n):
    result = benchmark(algorithm2_reference, slas(n), REQUIRED)
    print(f"\ncombinatorial n={n}: m={result}, "
          f"mean={benchmark.stats['mean'] * 1e6:.1f} µs")
