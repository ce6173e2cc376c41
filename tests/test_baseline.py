"""Bernoulli-access baseline tests against oracles and the closed-form module."""

import math

import numpy as np
import pytest

from craoi import (
    BernoulliAccessPolicy,
    PuRates,
    SystemParams,
    age_optimal_policy,
    average_aoi_bernoulli,
    bernoulli_steady_state,
    idle_probability,
    optimal_transmit_probability,
    throughput,
)
from craoi.baseline import average_aoi_bernoulli_series, collision_probability_bernoulli

from .conftest import oracle_stationary

CANON = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)


class TestOptimalTransmitProbability:
    def test_direct_evaluation(self):
        pol = optimal_transmit_probability(CANON)
        expected = 0.0005 / ((0.4 / 0.42) * (1.0 - math.exp(-0.02)))
        assert isinstance(pol, BernoulliAccessPolicy)
        assert pol.p0 == pytest.approx(expected, rel=1e-12)
        assert collision_probability_bernoulli(CANON, 1.0) > CANON.eta_s

    def test_budget_boundary_gives_one(self):
        rates = PuRates(0.02, 0.4)
        eta = idle_probability(rates) * (1.0 - math.exp(-0.02))
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


class TestThroughput:
    def test_full_access_equals_idle_probability(self):
        assert throughput(CANON, 1.0) == pytest.approx(0.4 / 0.42, rel=1e-12)

    def test_linear_in_p0(self):
        assert throughput(CANON, 0.5) == pytest.approx(0.5 * throughput(CANON, 1.0), rel=1e-12)


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
        ],
    )
    def test_closed_form_matches_series(self, alpha, beta, phi_s, p0):
        params = SystemParams(rates=PuRates(alpha, beta), phi_s=phi_s, eta_s=0.01)
        closed = average_aoi_bernoulli(params, p0)
        series = average_aoi_bernoulli_series(params, p0)
        assert closed == pytest.approx(series, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            average_aoi_bernoulli(CANON, 0.0)


class TestSteadyState:
    def test_normalization(self):
        total = sum(sum(bernoulli_steady_state(CANON, 0.1, d)) for d in range(1, 4000))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_against_oracle(self):
        p0, dmax = 0.1, 3000
        dist = oracle_stationary(CANON, np.full(dmax, p0), dmax)
        for delta in (1, 2, 5, 20, 80):
            th0, th1 = bernoulli_steady_state(CANON, p0, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-8)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-8)

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
