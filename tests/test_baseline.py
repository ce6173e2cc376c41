"""Bernoulli-access baseline tests against oracles and the closed-form module."""

import math

import numpy as np
import pytest

from craoi import (
    BernoulliAccessPolicy,
    PuRates,
    SystemModel,
    SystemParams,
    age_optimal_policy,
    average_aoi_bernoulli,
    bernoulli_steady_state,
    idle_probability,
    optimal_transmit_probability,
    policy_cost_evaluate,
)
from craoi.baseline import collision_probability_bernoulli

from .conftest import oracle_stationary

CANON = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)


class TestOptimalTransmitProbability:
    def test_direct_evaluation(self):
        pol = optimal_transmit_probability(CANON)
        expected = 0.0005 / ((0.4 / 0.42) * (1.0 - math.exp(-0.02)))
        assert isinstance(pol, BernoulliAccessPolicy)
        assert pol.p0 == pytest.approx(expected, rel=1e-12, abs=0)
        assert collision_probability_bernoulli(CANON, 1.0) > CANON.eta_s

    def test_budget_boundary_gives_one(self):
        rates = PuRates(0.02, 0.4)
        eta = idle_probability(rates) * -math.expm1(-0.02)
        params = SystemParams(rates=rates, phi_s=0.2, eta_s=eta)
        pol = optimal_transmit_probability(params)
        assert pol.p0 == 1.0
        assert not collision_probability_bernoulli(params, 1.0) < eta

    def test_slack_clamps(self):
        params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.5)
        pol = optimal_transmit_probability(params)
        assert pol.p0 == 1.0
        assert collision_probability_bernoulli(params, 1.0) < params.eta_s

    def test_collision_probability_binds(self):
        pol = optimal_transmit_probability(CANON)
        assert collision_probability_bernoulli(CANON, pol.p0) == pytest.approx(
            CANON.eta_s, abs=1e-12
        )


class TestAverageAoi:
    def test_strictly_decreasing_in_p0(self):
        values = [average_aoi_bernoulli(CANON, p0) for p0 in (0.01, 0.1, 0.5, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,p0",
        [
            (0.02, 0.4, 0.2, 0.024),
            (0.02, 0.4, 0.0, 0.3),
            (0.05, 0.5, 0.3, 0.1),
            (0.005, 0.1, 0.2, 0.8),
            (0.1, 0.9, 0.1, 1.0),
            # slow PU (s ~ 2.6e-4): 1 - e^-s and the tail sums are prone to cancellation
            (0.0001266113133359864, 0.00012913024209356403, 0.3991286534942948, 1.0),
        ],
    )
    def test_closed_form_matches_series(self, alpha, beta, phi_s, p0):
        # the exact evaluator sums the stationary series; Bernoulli access is the table [p0]
        params = SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s)
        series_aoi, series_psi = policy_cost_evaluate([p0], params)
        assert average_aoi_bernoulli(params, p0) == pytest.approx(series_aoi, rel=1e-14, abs=0)
        psi = collision_probability_bernoulli(params, p0)
        assert psi == pytest.approx(series_psi, rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            average_aoi_bernoulli(CANON, 0.0)

    @pytest.mark.parametrize("alpha", [704.0, 709.5, 709.9, 720.0])
    def test_overflow_is_domain_error(self, alpha):
        # the average age is past the largest float (704, 709.5) or e^alpha
        # itself is (709.9, 720): a ValueError that says so, not inf or an
        # OverflowError.  The access probability itself is finite.
        params = SystemParams(rates=PuRates(alpha, 0.4), phi_s=0.2, eta_s=0.0005)
        p0 = optimal_transmit_probability(params).p0
        assert 0.0 < p0 < 1.0
        with pytest.raises(ValueError, match="average age under Bernoulli access overflows"):
            average_aoi_bernoulli(params, p0)


class TestSteadyState:
    def test_normalization(self):
        total = sum(sum(bernoulli_steady_state(CANON, 0.1, d)) for d in range(1, 4000))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_against_oracle(self):
        p0, dmax = 0.1, 3000
        dist = oracle_stationary(CANON, np.full(dmax, p0), dmax)
        for delta in (1, 2, 5, 20, 80):
            th0, th1 = bernoulli_steady_state(CANON, p0, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-14)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-14)

    def test_implied_aoi_matches_closed_form(self):
        p0 = 0.3
        aoi = sum(
            d * sum(bernoulli_steady_state(CANON, p0, d)) for d in range(1, 2000)
        )
        assert aoi == pytest.approx(average_aoi_bernoulli(CANON, p0), rel=1e-9)


class TestDominance:
    def test_age_optimal_beats_bernoulli_at_same_budget(self):
        for eta_s in (0.0002, 0.0005, 0.001, 0.005):
            params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=eta_s)
            bern = optimal_transmit_probability(params)
            assert age_optimal_policy(params).avg_aoi < average_aoi_bernoulli(params, bern.p0)

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,eta_s",
        [
            # slow PUs with a slack budget, where threshold 1 and p0 = 1 are
            # one policy: cancellation could split its two average ages by
            # 1e-9 relative or break the closed form's normalization by more
            # than 1e-9 (last two; TestNormalization in test_analysis.py holds
            # that normalization)
            (0.0001266113133359864, 0.00012913024209356403, 0.3991286534942948, 0.00017315027847359987),
            (0.00011340421467459935, 0.00011432027669334298, 0.9220792259361144, 0.0004535409655358373),
            (0.00020204873565311698, 0.00011078357983567298, 0.8697983144155494, 0.021577799878653107),
        ],
    )
    def test_threshold_one_is_full_access(self, alpha, beta, phi_s, eta_s):
        params = SystemParams(rates=PuRates(alpha, beta), phi_s=phi_s, eta_s=eta_s)
        pol = age_optimal_policy(params)
        assert pol.avg_aoi == pytest.approx(average_aoi_bernoulli(params, 1.0), rel=1e-13)
