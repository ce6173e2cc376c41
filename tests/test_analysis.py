"""Closed-form analysis tests against power-iteration and brute-force oracles."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from craoi import (
    PuRates,
    SystemParams,
    age_optimal_policy,
    average_aoi_closed_form,
    average_aoi_series,
    collision_probability,
    idle_probability,
    lambert_w0,
    mixed_policy_metrics,
    mixed_policy_steady_state,
    optimal_thresholds,
    randomization_mu,
    steady_state,
    theta_1_0,
)

from .conftest import (
    BINDING_GRID,
    binding_instance,
    brute_threshold_scan,
    mixed_probs,
    oracle_stationary,
    threshold_probs,
)

CANON = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)


def make_params(alpha, beta, phi_s, eta_s=0.01):
    return SystemParams(rates=PuRates(alpha, beta), phi_s=phi_s, eta_s=eta_s)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(0.02, 0.4, 1.0)
        with pytest.raises(ValueError):
            make_params(0.02, 0.4, 0.2, eta_s=0.0)

    def test_budget_round_trip(self):
        params = SystemParams.from_pu_budget(PuRates(0.002, 0.006), 0.2, 0.01)
        assert params.eta_p == pytest.approx(0.01, rel=1e-12)

    def test_success_prob(self):
        assert CANON.success_prob == pytest.approx(0.8 * math.exp(-0.02), rel=1e-15)


class TestTheta10:
    def test_gamma_one_collapses(self):
        al, be, phi = 0.02, 0.4, 0.2
        params = make_params(al, be, phi)
        expected = be * math.exp(-al) * (1.0 - phi) / (al + be)
        assert theta_1_0(1, params) == pytest.approx(expected, rel=1e-12)

    def test_matches_power_iteration(self):
        got = theta_1_0(20, CANON)
        dist = oracle_stationary(CANON, threshold_probs(20, 2000), 2000)
        assert got == pytest.approx(dist[0, 0], abs=1e-8)

    def test_vanishes_for_large_gamma(self):
        assert theta_1_0(10**9, CANON) < 1e-8

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            theta_1_0(0, CANON)


class TestSteadyState:
    def test_no_busy_mass_at_age_one(self):
        assert steady_state(7, CANON, 1)[1] == 0.0

    def test_normalization(self):
        total = 0.0
        for delta in range(1, 2000):
            th0, th1 = steady_state(20, CANON, delta)
            total += th0 + th1
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_point_value_against_oracle(self):
        dist = oracle_stationary(CANON, threshold_probs(20, 2000), 2000)
        th0, th1 = steady_state(20, CANON, 35)
        assert th0 == pytest.approx(dist[34, 0], abs=1e-10)
        assert th1 == pytest.approx(dist[34, 1], abs=1e-10)

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,gamma",
        [(0.02, 0.4, 0.2, 5), (0.05, 0.5, 0.1, 18), (0.01, 0.03, 0.2, 8)],
    )
    def test_full_profile_against_oracle(self, alpha, beta, phi_s, gamma):
        params = make_params(alpha, beta, phi_s)
        dmax = max(50 * gamma, gamma + 500)
        dist = oracle_stationary(params, threshold_probs(gamma, dmax), dmax)
        for delta in range(1, gamma + 60):
            th0, th1 = steady_state(gamma, params, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-8)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-8)


class TestCollisionProbability:
    def test_equals_transmitting_mass(self):
        gamma, dmax = 12, 1500
        al = CANON.rates.alpha
        mass = sum(steady_state(gamma, CANON, d)[0] for d in range(gamma, dmax))
        assert collision_probability(gamma, CANON) == pytest.approx(
            mass * (1.0 - math.exp(-al)), abs=1e-10
        )

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=1, max_value=500))
    def test_strictly_decreasing_in_gamma(self, gamma):
        assert collision_probability(gamma, CANON) > collision_probability(gamma + 1, CANON)


class TestAverageAoi:
    def test_series_against_oracle(self):
        aoi = average_aoi_series(20, CANON)
        dist = oracle_stationary(CANON, threshold_probs(20, 2000), 2000)
        oracle = float((np.arange(1, 2001) * dist.sum(axis=1)).sum())
        assert aoi == pytest.approx(oracle, abs=1e-7)

    def test_degenerate_smoke(self):
        params = make_params(1e-8, 0.4, 0.0)
        aoi = average_aoi_series(1, params)
        assert 1.0 <= aoi < 1.1

    @pytest.mark.parametrize(
        "alpha,beta,phi_s",
        [
            (0.02, 0.4, 0.2),
            (0.02, 0.4, 0.0),
            (0.005, 0.1, 0.3),
            (0.05, 0.5, 0.1),
            (0.1, 0.9, 0.25),
        ],
    )
    @pytest.mark.parametrize("gamma", [1, 5, 40])
    def test_closed_form_matches_series(self, alpha, beta, phi_s, gamma):
        params = make_params(alpha, beta, phi_s)
        closed = average_aoi_closed_form(gamma, params)
        series = average_aoi_series(gamma, params)
        assert closed == pytest.approx(series, rel=1e-9)

    def test_closed_form_gamma_one_sane(self):
        value = average_aoi_closed_form(1, CANON)
        assert math.isfinite(value) and value >= 1.0


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w0(3.0 * math.exp(3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_domain_edge(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-5)
        with pytest.raises(ValueError):
            lambert_w0(-0.4)

    @settings(deadline=None)
    @given(st.floats(min_value=-0.36, max_value=1e6))
    def test_inverse_identity(self, x):
        w = lambert_w0(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-10, abs=1e-10)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(min_value=-0.36, max_value=1e6))
    def test_matches_scipy(self, x):
        assert lambert_w0(x) == pytest.approx(
            float(scipy.special.lambertw(x).real), rel=1e-9, abs=1e-9
        )


class TestOptimalThresholds:
    def test_loose_budget(self):
        params = make_params(0.02, 0.4, 0.2, eta_s=0.5)
        assert optimal_thresholds(params) == (1, 1)

    def test_canonical_against_scan(self):
        g1, g2 = optimal_thresholds(CANON)
        s1, s2 = brute_threshold_scan(CANON, lambda g: collision_probability(g, CANON))
        assert (g1, g2) == (s1, s2)
        assert g2 - g1 in (0, 1)

    @pytest.mark.parametrize("alpha,beta,phi_s,fraction", BINDING_GRID)
    def test_grid_against_scan(self, alpha, beta, phi_s, fraction):
        params = binding_instance(alpha, beta, phi_s, fraction)
        g1, g2 = optimal_thresholds(params)
        s1, s2 = brute_threshold_scan(params, lambda g: collision_probability(g, params))
        assert (g1, g2) == (s1, s2)

    def test_bracket_property(self):
        g1, g2 = optimal_thresholds(CANON)
        assert collision_probability(g1, CANON) >= CANON.eta_s
        assert collision_probability(g2, CANON) <= CANON.eta_s


class TestRandomizationMu:
    def test_binding_psi(self):
        g1, _ = optimal_thresholds(CANON)
        mu = randomization_mu(CANON, g1)
        _, psi = mixed_policy_metrics(CANON, g1, mu)
        assert psi == pytest.approx(CANON.eta_s, abs=1e-9)

    def test_degenerate_exact_budget(self):
        # a budget met exactly by either bracketing threshold gives mu = 1 or
        # +0, never -0 (which the CLI would print as "mu -0")
        for gamma, expected in ((10, 1.0), (11, 0.0)):
            eta = collision_probability(gamma, CANON)
            params = make_params(0.02, 0.4, 0.2, eta_s=eta)
            mu = randomization_mu(params, 10)
            assert mu == expected
            assert math.copysign(1.0, mu) == 1.0

    def test_matches_expanded_form(self):
        # single-expression algebraic expansion of the same mixing probability
        al, be, phi = 0.02, 0.4, 0.2
        for eta in (0.0005, 0.001, 0.002):
            params = make_params(al, be, phi, eta_s=eta)
            g1, g2 = optimal_thresholds(params)
            if g1 == g2:
                continue
            mu = randomization_mu(params, g1)
            s = al + be
            expanded = (
                g1
                + (1.0 - (1.0 - math.exp(-al)) / eta + al / be) / ((1.0 - phi) * math.exp(-al))
                + al * (1.0 - math.exp(-s * g1)) / (be * (1.0 - math.exp(-s)))
            ) * be / (be + al * math.exp(-s * (g1 - 1.0)))
            assert mu == pytest.approx(expanded, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            randomization_mu(CANON, 500)


class TestMixedPolicy:
    def test_mu_one_is_lower_threshold(self):
        g1 = 15
        for delta in (1, 10, 15, 16, 40):
            mixed = mixed_policy_steady_state(CANON, g1, 1.0, delta)
            pure = steady_state(g1, CANON, delta)
            assert mixed[0] == pytest.approx(pure[0], abs=1e-12)
            assert mixed[1] == pytest.approx(pure[1], abs=1e-12)

    def test_mu_zero_is_upper_threshold(self):
        g1 = 15
        for delta in (1, 10, 15, 16, 40):
            mixed = mixed_policy_steady_state(CANON, g1, 0.0, delta)
            pure = steady_state(g1 + 1, CANON, delta)
            assert mixed[0] == pytest.approx(pure[0], abs=1e-12)
            assert mixed[1] == pytest.approx(pure[1], abs=1e-12)

    def test_normalization(self):
        total = sum(
            sum(mixed_policy_steady_state(CANON, 20, 0.37, d)) for d in range(1, 2000)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_against_oracle(self):
        g1, mu, dmax = 20, 0.37, 2000
        dist = oracle_stationary(CANON, mixed_probs(g1, mu, dmax), dmax)
        for delta in (1, 5, 20, 21, 22, 50, 90):
            th0, th1 = mixed_policy_steady_state(CANON, g1, mu, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-8)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-8)


class TestAgeOptimalPolicy:
    def test_slack_constraint(self):
        params = make_params(0.02, 0.4, 0.2, eta_s=0.5)
        pol = age_optimal_policy(params)
        assert (pol.gamma1, pol.gamma2, pol.mu) == (1, 1, 1.0)
        assert not pol.constraint_binds

    def test_binding_canonical(self):
        pol = age_optimal_policy(CANON)
        assert pol.constraint_binds
        assert pol.gamma2 == pol.gamma1 + 1
        assert pol.psi_s == pytest.approx(CANON.eta_s, abs=1e-9)

    def test_optimality_over_neighbors(self):
        # neither neighboring pure threshold meeting the budget can do better
        pol = age_optimal_policy(CANON)
        assert pol.avg_aoi <= average_aoi_series(pol.gamma2, CANON) + 1e-12

    @pytest.mark.parametrize("alpha,beta,phi_s,fraction", BINDING_GRID[:8])
    def test_budget_binds_across_grid(self, alpha, beta, phi_s, fraction):
        params = binding_instance(alpha, beta, phi_s, fraction)
        pol = age_optimal_policy(params)
        assert pol.psi_s == pytest.approx(params.eta_s, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,eta_s",
        [
            # slow-PU instances where a mixed policy normalized by the spectral
            # tail mass, with mu taken from the explicit psi_s, exceeded the
            # budget by 2.4e-10, 1.7e-10 and 3.3e-12 relative
            (0.0001476405793108392, 0.00016591758959439419, 0.4632266378903004, 5.1685912064184036e-05),
            (0.0002530624236430935, 0.00010093650923288458, 0.6705798927433828, 2.8972863810959905e-05),
            (0.000647358731671541, 0.00037697350025476286, 0.4483922313597894, 1.1939669881018681e-05),
        ],
    )
    def test_budget_met_at_rounding_level(self, alpha, beta, phi_s, eta_s):
        pol = age_optimal_policy(make_params(alpha, beta, phi_s, eta_s=eta_s))
        assert pol.psi_s <= eta_s * (1 + 1e-12)


class TestMonotonicity:
    def test_aoi_improves_with_looser_budget(self):
        budgets = [0.0002, 0.0005, 0.001, 0.002, 0.005]
        aois = [
            age_optimal_policy(make_params(0.02, 0.4, 0.2, eta_s=b)).avg_aoi for b in budgets
        ]
        assert all(a > b for a, b in zip(aois, aois[1:]))

    def test_aoi_improves_with_more_idle_channel(self):
        aois = []
        for p_idle in (0.6, 0.75, 0.9):
            rates = PuRates(0.01, 0.01 * p_idle / (1.0 - p_idle))
            params = SystemParams(rates=rates, phi_s=0.2, eta_s=0.001)
            aois.append(age_optimal_policy(params).avg_aoi)
        assert aois[0] > aois[1] > aois[2]
        assert idle_probability(PuRates(0.01, 0.03)) == 0.75
