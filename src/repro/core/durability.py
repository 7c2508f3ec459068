"""Durability thresholds and availability of provider sets (Algorithm 2).

With an (m, n) code over providers ``p_1..p_n``, the object survives as long
as at most ``n - m`` providers lose their chunk.  Algorithm 2 finds the
largest threshold ``m`` whose cumulative survival probability meets the
required durability by enumerating failure combinations; that enumeration is
exponential, so our production path computes the *exact same* distribution
of the number of failed providers with the Poisson-binomial dynamic program
(O(n^2) multiply-adds, vectorized):

    dist_{k}(j+1) = dist_k(j) * p_j+1  +  dist_{k-1}(j) * (1 - p_j+1)

A literal transcription of the paper's pseudocode is kept as
:func:`algorithm2_reference` and cross-tested against the DP.

``getAvailability`` is the same computation on the availability SLAs:
the object is readable when at least ``m`` providers are up.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np


def failure_count_distribution(success_probs: Sequence[float]) -> np.ndarray:
    """Exact distribution of the number of "failed" trials.

    ``success_probs[i]`` is the probability provider ``i`` does *not* fail
    (its SLA durability or availability).  Returns an array ``dist`` of
    length ``n + 1`` with ``dist[k] = P(exactly k providers fail)``.
    """
    probs = np.asarray(success_probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("success_probs must be a 1-D sequence")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    dist = np.zeros(probs.size + 1)
    dist[0] = 1.0
    for j, p in enumerate(probs):
        q = 1.0 - p
        # In-place update, iterating k downward via vectorized shift.
        dist[1 : j + 2] = dist[1 : j + 2] * p + dist[: j + 1] * q
        dist[0] *= p
    return dist


def prob_at_most_failures(success_probs: Sequence[float], k: int) -> float:
    """P(#failures <= k) under independent per-provider SLAs."""
    if k < 0:
        return 0.0
    dist = failure_count_distribution(success_probs)
    return float(dist[: min(k, len(dist) - 1) + 1].sum())


def durability_threshold(durabilities: Sequence[float], required: float) -> int:
    """Algorithm 2 (``getThreshold``): the largest m meeting ``required``.

    Tolerating ``f`` provider failures means ``m = n - f``; the function
    walks ``f`` upward until ``P(#failures <= f) >= required`` and returns
    ``n - f``.  A return value of 0 means the set cannot satisfy the
    durability constraint even with full replication.
    """
    n = len(durabilities)
    if n == 0:
        return 0
    dist = failure_count_distribution(durabilities)
    cumulative = np.cumsum(dist)
    for failures_ok in range(n):
        if cumulative[failures_ok] >= required:
            return n - failures_ok
    return 0


def algorithm2_reference(durabilities: Sequence[float], required: float) -> int:
    """Literal transcription of the paper's Algorithm 2 (exponential).

    Kept for cross-validation of :func:`durability_threshold`; do not use on
    large sets.
    """
    pset = list(durabilities)
    dura = 0.0
    failures_ok = -1
    while dura < required and failures_ok < len(pset):
        failures_ok += 1
        up_p = 0.0
        for comb in combinations(range(len(pset)), failures_ok):
            failed = set(comb)
            up_p_comb = 1.0
            for i, durability in enumerate(pset):
                if i in failed:
                    up_p_comb *= 1.0 - durability
                else:
                    up_p_comb *= durability
            up_p += up_p_comb
        dura += up_p
    return len(pset) - failures_ok


def availability_of(availabilities: Sequence[float], m: int) -> float:
    """``getAvailability``: P(at least m providers are reachable).

    Equals ``P(#unreachable <= n - m)`` under the per-provider SLA
    availabilities.
    """
    n = len(availabilities)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} invalid for a set of {n} providers")
    return prob_at_most_failures(availabilities, n - m)


def max_feasible_threshold(
    durabilities: Sequence[float],
    availabilities: Sequence[float],
    required_durability: float,
    required_availability: float,
) -> int:
    """Largest m satisfying **both** the durability and availability SLAs.

    Lowering m only adds redundancy, so both constraints are monotone in m;
    the answer is ``min`` of the two individual thresholds.  Returns 0 when
    the set is infeasible even at m = 1 (full replication).

    This refines Algorithm 1: the paper's pseudocode derives the
    threshold from durability alone and rejects the set if availability
    fails at that threshold, yet every
    placement reported in the evaluation (e.g. ``[S3(h), Azu; m:1]`` during
    the active-repair outage) requires lowering m until availability is met.
    """
    if len(durabilities) != len(availabilities):
        raise ValueError("durability/availability lists must align")
    m_durability = durability_threshold(durabilities, required_durability)
    if m_durability <= 0:
        return 0
    m_availability = durability_threshold(availabilities, required_availability)
    if m_availability <= 0:
        return 0
    return min(m_durability, m_availability)


def literal_threshold(
    durabilities: Sequence[float],
    availabilities: Sequence[float],
    required_durability: float,
    required_availability: float,
) -> int:
    """The strict Algorithm-1 behaviour: durability-only threshold, then a
    single availability check that rejects (returns 0) on failure."""
    m = durability_threshold(durabilities, required_durability)
    if m <= 0:
        return 0
    if availability_of(availabilities, m) < required_availability:
        return 0
    return m
