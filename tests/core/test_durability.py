"""Tests for Algorithm 2, the Poisson-binomial DP and availability math.

The named cases are the provider sets whose thresholds the paper reports in
its evaluation (Sections IV-B..IV-E); they anchor the reproduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.durability import (
    algorithm2_reference,
    availability_of,
    durability_threshold,
    failure_count_distribution,
    literal_threshold,
    max_feasible_threshold,
    prob_at_most_failures,
)

# Figure-3 SLA fractions.
D_S3H = 0.99999999999
D_S3L = 0.9999
D_RS = 0.999999
D_AZU = 0.999999
D_GGL = 0.999999
AVAIL = 0.999  # all five providers


class TestFailureDistribution:
    def test_sums_to_one(self):
        dist = failure_count_distribution([0.9, 0.99, 0.5])
        assert dist.sum() == pytest.approx(1.0)

    def test_single_trial(self):
        dist = failure_count_distribution([0.9])
        assert dist[0] == pytest.approx(0.9)
        assert dist[1] == pytest.approx(0.1)

    def test_matches_binomial(self):
        # Equal probabilities reduce to a binomial distribution.
        from math import comb

        p = 0.8
        dist = failure_count_distribution([p] * 5)
        for k in range(6):
            expected = comb(5, k) * (1 - p) ** k * p ** (5 - k)
            assert dist[k] == pytest.approx(expected)

    def test_empty(self):
        dist = failure_count_distribution([])
        assert dist.tolist() == [1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            failure_count_distribution([1.5])
        with pytest.raises(ValueError):
            failure_count_distribution([[0.5], [0.5]])

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_distribution_properties(self, probs):
        dist = failure_count_distribution(probs)
        assert dist.shape == (len(probs) + 1,)
        assert np.all(dist >= -1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_prob_at_most(self):
        probs = [0.9, 0.8]
        assert prob_at_most_failures(probs, -1) == 0.0
        assert prob_at_most_failures(probs, 0) == pytest.approx(0.72)
        assert prob_at_most_failures(probs, 2) == pytest.approx(1.0)
        assert prob_at_most_failures(probs, 99) == pytest.approx(1.0)


class TestThresholdPaperAnchors:
    """Thresholds behind every placement the paper reports."""

    def test_s3h_s3l_slashdot_peak(self):
        # Durability 99.999: [S3(h), S3(l)] tolerates 1 failure -> m = 1.
        assert durability_threshold([D_S3H, D_S3L], 0.99999) == 1

    def test_s3h_s3l_azu_gallery_mid(self):
        assert durability_threshold([D_S3H, D_S3L, D_AZU], 0.99999) == 2

    def test_s3h_s3l_azu_rs_slashdot_prepeak(self):
        assert durability_threshold([D_S3H, D_S3L, D_AZU, D_RS], 0.99999) == 3

    def test_five_set_postpeak(self):
        assert (
            durability_threshold([D_S3H, D_S3L, D_AZU, D_GGL, D_RS], 0.99999) == 4
        )

    def test_s3h_azu_active_repair(self):
        # Durability alone allows m=2 (no redundancy needed).
        assert durability_threshold([D_S3H, D_AZU], 0.99999) == 2

    def test_gallery_99_99_durability(self):
        # The gallery scenario's 4-provider unpopular tier at 99.99.
        assert durability_threshold([D_S3H, D_S3L, D_AZU, D_GGL], 0.99999) == 3

    def test_infeasible_set(self):
        # A single 99.99-durability provider cannot meet 11 nines.
        assert durability_threshold([D_S3L], 0.99999999999) == 0

    def test_empty_set(self):
        assert durability_threshold([], 0.9) == 0


class TestReferenceCrossValidation:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.9, 0.99, 0.9999, 0.999999, D_S3H]),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0.9, 0.99, 0.999, 0.99999, 0.9999999]),
    )
    def test_dp_matches_literal_algorithm2(self, durabilities, required):
        assert durability_threshold(durabilities, required) == algorithm2_reference(
            durabilities, required
        )

    def test_known_case(self):
        assert algorithm2_reference([D_S3H, D_S3L, D_AZU, D_RS], 0.99999) == 3


class TestAvailability:
    def test_two_providers_m1(self):
        # 1 - (1 - 0.999)^2 = 0.999999
        assert availability_of([AVAIL, AVAIL], 1) == pytest.approx(0.999999)

    def test_two_providers_m2(self):
        assert availability_of([AVAIL, AVAIL], 2) == pytest.approx(0.998001)

    def test_four_providers_m3(self):
        # p^4 + 4 p^3 q with p = 0.999 (the paper's pre-peak set).
        expected = 0.999**4 + 4 * 0.999**3 * 0.001
        assert availability_of([AVAIL] * 4, 3) == pytest.approx(expected)

    def test_five_providers_m4(self):
        expected = 0.999**5 + 5 * 0.999**4 * 0.001
        assert availability_of([AVAIL] * 5, 4) == pytest.approx(expected)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            availability_of([0.999], 2)
        with pytest.raises(ValueError):
            availability_of([0.999], 0)

    @settings(max_examples=30)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=2, max_size=6)
    )
    def test_monotone_in_m(self, avails):
        values = [availability_of(avails, m) for m in range(1, len(avails) + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestMaxFeasibleThreshold:
    """The refined Algorithm-1 threshold (``max_feasible_threshold``)."""

    def test_slashdot_peak_availability_forces_m1(self):
        # [S3(h), S3(l)]: availability 99.99 requires tolerating a failure.
        m = max_feasible_threshold([D_S3H, D_S3L], [AVAIL, AVAIL], 0.99999, 0.9999)
        assert m == 1

    def test_active_repair_s3h_azu(self):
        # Durability alone would allow m=2; availability drops it to m=1.
        m = max_feasible_threshold([D_S3H, D_AZU], [AVAIL, AVAIL], 0.99999, 0.9999)
        assert m == 1

    def test_prepeak_four_set(self):
        m = max_feasible_threshold(
            [D_S3H, D_S3L, D_AZU, D_RS], [AVAIL] * 4, 0.99999, 0.9999
        )
        assert m == 3

    def test_postpeak_five_set(self):
        m = max_feasible_threshold(
            [D_S3H, D_S3L, D_AZU, D_GGL, D_RS], [AVAIL] * 5, 0.99999, 0.9999
        )
        assert m == 4

    def test_gallery_three_set(self):
        m = max_feasible_threshold(
            [D_S3H, D_S3L, D_AZU], [AVAIL] * 3, 0.99999, 0.9999
        )
        assert m == 2

    def test_infeasible_availability(self):
        # One 99.9-available provider cannot reach 99.99 even at m=1.
        assert max_feasible_threshold([D_S3H], [AVAIL], 0.99999, 0.9999) == 0

    def test_mismatched_lists(self):
        with pytest.raises(ValueError):
            max_feasible_threshold([0.9], [0.9, 0.9], 0.5, 0.5)

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(min_value=0.9, max_value=1.0), min_size=1, max_size=6),
        st.floats(min_value=0.5, max_value=0.99999),
        st.floats(min_value=0.5, max_value=0.99999),
    )
    def test_result_actually_feasible(self, slas, req_d, req_a):
        m = max_feasible_threshold(slas, slas, req_d, req_a)
        if m > 0:
            n = len(slas)
            assert prob_at_most_failures(slas, n - m) >= req_d - 1e-12
            assert availability_of(slas, m) >= req_a - 1e-12
            # Maximality: m + 1 must violate something (or exceed n).
            if m < n:
                ok_d = prob_at_most_failures(slas, n - m - 1) >= req_d
                ok_a = availability_of(slas, m + 1) >= req_a
                assert not (ok_d and ok_a)


class TestLiteralThreshold:
    def test_rejects_what_refined_repairs(self):
        # The strict pseudocode rejects [S3(h), Azu] at availability 99.99
        # because the durability threshold (m=2) fails the availability
        # check — even though m=1 would satisfy both.
        assert literal_threshold([D_S3H, D_AZU], [AVAIL, AVAIL], 0.99999, 0.9999) == 0

    def test_accepts_when_durability_threshold_suffices(self):
        assert (
            literal_threshold([D_S3H, D_S3L], [AVAIL, AVAIL], 0.99999, 0.9999) == 1
        )

    def test_durability_infeasible(self):
        assert literal_threshold([0.9], [0.999], 0.99999, 0.5) == 0
