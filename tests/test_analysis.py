"""Closed-form analysis tests against direct-solve and brute-force oracles."""

import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from craoi import (
    PuRates,
    SystemParams,
    age_optimal_policy,
    average_aoi_bernoulli,
    average_aoi_series,
    bernoulli_steady_state,
    collision_probability,
    expected_cycle_length,
    idle_probability,
    lambert_w0,
    mixed_policy_metrics,
    mixed_policy_steady_state,
    optimal_thresholds,
    optimal_transmit_probability,
    slot_transition_matrix,
)
from craoi.analysis import _scalars, _tail, _threshold_sums, _walk

from .conftest import (
    BINDING_GRID,
    average_aoi_closed_form,
    binding_instance,
    brute_threshold_scan,
    mixed_probs,
    oracle_stationary,
    sweep_domain,
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
        with pytest.raises(ValueError):
            make_params(0.02, 0.4, 0.2, eta_s=1.5)

    @pytest.mark.parametrize("alpha,beta,message", [
        (30.0, 0.4, "past 2**53"),
        (35.0, 0.4, "past 2**53"),
        (38.0, 0.4, "past 2**53"),
        (40.0, 0.4, "past 2**53"),
        (200.0, 0.4, "past 2**53"),
        (300.0, 0.4, "past 2**53"),
        (340.0, 0.4, "past 2**53"),
        (700.0, 0.4, "past 2**53"),
        (702.0, 0.4, "threshold overflows"),
        (709.0, 0.4, "success probability"),
        (746.0, 0.4, "success probability"),
        (1000.0, 0.4, "success probability"),
        (math.inf, 0.4, "positive and finite"),
        (0.02, math.inf, "positive and finite"),
    ])  # fmt: skip
    def test_extreme_pu_rates_are_domain_errors(self, alpha, beta, message):
        # the threshold is past 2**53, where its floor and ceiling coincide
        # (30 to 700), the threshold itself overflows (702), the mean renewal
        # time s/(beta*success) overflows (709) or e^-alpha underflows to 0
        # (746, 1000), or a rate is not finite: a ValueError that says so, not
        # an unchecked bracket, an infinite age, an OverflowError, NaN or a
        # ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(message)):
            age_optimal_policy(make_params(alpha, beta, 0.2, eta_s=0.0005))

    def test_budget_round_trip(self):
        params = SystemParams.from_pu_budget(PuRates(0.002, 0.006), 0.2, 0.01)
        round_trip = params.eta_s * expected_cycle_length(params.rates)
        assert round_trip == pytest.approx(0.01, rel=1e-12, abs=0)

    def test_success_prob(self):
        assert CANON.success_prob == pytest.approx(0.8 * math.exp(-0.02), rel=1e-15, abs=0)


class TestTheta10:
    def test_gamma_one_collapses(self):
        al, be, phi = 0.02, 0.4, 0.2
        params = make_params(al, be, phi)
        expected = be * math.exp(-al) * (1.0 - phi) / (al + be)
        theta = mixed_policy_steady_state(params, 1, 1.0, 1)[0]
        assert theta == pytest.approx(expected, rel=1e-12, abs=0)

    def test_matches_power_iteration(self):
        got = mixed_policy_steady_state(CANON, 20, 1.0, 1)[0]
        dist = oracle_stationary(CANON, threshold_probs(20, 2000), 2000)
        assert got == pytest.approx(dist[0, 0], abs=1e-14)

    def test_vanishes_for_large_gamma(self):
        assert mixed_policy_steady_state(CANON, 10**9, 1.0, 1)[0] < 1e-8

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            mixed_policy_steady_state(CANON, 0, 1.0, 1)

    def test_rejects_underflowing_success(self):
        # e^-800 underflows to 0: no transmission succeeds, so no state renews
        with pytest.raises(ValueError, match=re.escape(
            "success probability (1 - phi_s) e^-alpha = 0 is too small: the mean renewal "
            "time s/(beta*success) overflows at alpha=800.0, beta=0.4"
        )):  # fmt: skip
            mixed_policy_steady_state(make_params(800.0, 0.4, 0.2), 5, 1.0, 1)


class TestSteadyState:
    def test_no_busy_mass_at_age_one(self):
        assert mixed_policy_steady_state(CANON, 7, 1.0, 1)[1] == 0.0

    @pytest.mark.parametrize("delta", [2.5, 7.5, math.nan])
    def test_rejects_non_integer_age(self, delta):
        # not a state from a fractional matrix power, nor numpy's TypeError
        with pytest.raises(ValueError, match="age must be an integer"):
            mixed_policy_steady_state(CANON, 5, 1.0, delta)
        with pytest.raises(ValueError, match="age must be an integer"):
            bernoulli_steady_state(CANON, 0.3, delta)

    def test_normalization(self):
        total = 0.0
        for delta in range(1, 2000):
            th0, th1 = mixed_policy_steady_state(CANON, 20, 1.0, delta)
            total += th0 + th1
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_point_value_against_oracle(self):
        dist = oracle_stationary(CANON, threshold_probs(20, 2000), 2000)
        th0, th1 = mixed_policy_steady_state(CANON, 20, 1.0, 35)
        assert th0 == pytest.approx(dist[34, 0], abs=1e-14)
        assert th1 == pytest.approx(dist[34, 1], abs=1e-14)

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,gamma",
        [(0.02, 0.4, 0.2, 5), (0.05, 0.5, 0.1, 18), (0.01, 0.03, 0.2, 8)],
    )
    def test_full_profile_against_oracle(self, alpha, beta, phi_s, gamma):
        params = make_params(alpha, beta, phi_s)
        dmax = max(50 * gamma, gamma + 500)
        dist = oracle_stationary(params, threshold_probs(gamma, dmax), dmax)
        for delta in range(1, gamma + 60):
            th0, th1 = mixed_policy_steady_state(params, gamma, 1.0, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-14)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-14)


class TestCollisionProbability:
    def test_equals_transmitting_mass(self):
        gamma, dmax = 12, 1500
        al = CANON.rates.alpha
        mass = sum(mixed_policy_steady_state(CANON, gamma, 1.0, d)[0] for d in range(gamma, dmax))
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
        assert aoi == pytest.approx(oracle, rel=1e-12)

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
            # slow PU: 1 - e^-s and e^s - 1 cancel unless written with expm1
            (0.0001337467077387578, 0.00012711203199174462, 0.16715158578394645),
        ],
    )
    @pytest.mark.parametrize("gamma", [1, 5, 40])
    def test_closed_form_matches_series(self, alpha, beta, phi_s, gamma):
        params = make_params(alpha, beta, phi_s)
        closed = average_aoi_closed_form(gamma, params)
        series = average_aoi_series(gamma, params)
        assert closed == pytest.approx(series, rel=1e-11)

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
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                lambert_w0(x)

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

    @pytest.mark.parametrize(
        "alpha,beta,phi_s,eta_s",
        [
            # alpha >> beta with a small budget: the Lambert W argument
            # s k e^(-s r) overflows a float unless it stays in log space
            (0.8224312935741871, 0.0001391646358783078, 0.03579947073681242, 6.291582891241104e-05),
            (2.580476065864596, 0.00019518629189881724, 0.34039696758479243, 6.895546652086945e-05),
        ],
    )
    def test_huge_lambert_argument(self, alpha, beta, phi_s, eta_s):
        params = make_params(alpha, beta, phi_s, eta_s=eta_s)
        scan = brute_threshold_scan(params, lambda g: collision_probability(g, params))
        assert optimal_thresholds(params) == scan


class TestRandomizationMu:
    def test_binding_psi(self):
        pol = age_optimal_policy(CANON)
        _, psi = mixed_policy_metrics(CANON, pol.gamma1, pol.mu)
        assert psi == pytest.approx(CANON.eta_s, abs=1e-9)

    def test_degenerate_exact_budget(self):
        # a budget met exactly by a threshold gives that threshold: mu = 1 at
        # it or +0 below it, never -0 (which the CLI would print as "mu -0")
        for gamma in (10, 11):
            eta = collision_probability(gamma, CANON)
            pol = age_optimal_policy(make_params(0.02, 0.4, 0.2, eta_s=eta))
            assert (pol.gamma1, pol.mu) in ((gamma, 1.0), (gamma - 1, 0.0))
            assert math.copysign(1.0, pol.mu) == 1.0

    def test_matches_expanded_form(self):
        # single-expression algebraic expansion of the same mixing probability
        al, be, phi = 0.02, 0.4, 0.2
        for eta in (0.0005, 0.001, 0.002):
            params = make_params(al, be, phi, eta_s=eta)
            g1, g2 = optimal_thresholds(params)
            if g1 == g2:
                continue
            mu = age_optimal_policy(params).mu
            s = al + be
            expanded = (
                g1
                + (1.0 - (1.0 - math.exp(-al)) / eta + al / be) / ((1.0 - phi) * math.exp(-al))
                + al * (1.0 - math.exp(-s * g1)) / (be * (1.0 - math.exp(-s)))
            ) * be / (be + al * math.exp(-s * (g1 - 1.0)))
            assert mu == pytest.approx(expanded, abs=1e-12)


class TestMixedPolicy:
    def test_mu_one_is_lower_threshold(self):
        g1, dmax = 15, 2000
        dist = oracle_stationary(CANON, threshold_probs(g1, dmax), dmax)
        for delta in (1, 10, 15, 16, 40):
            mixed = mixed_policy_steady_state(CANON, g1, 1.0, delta)
            assert mixed[0] == pytest.approx(dist[delta - 1, 0], abs=1e-12)
            assert mixed[1] == pytest.approx(dist[delta - 1, 1], abs=1e-12)

    def test_mu_zero_is_upper_threshold(self):
        g1 = 15
        for delta in (1, 10, 15, 16, 40):
            mixed = mixed_policy_steady_state(CANON, g1, 0.0, delta)
            pure = mixed_policy_steady_state(CANON, g1 + 1, 1.0, delta)
            assert mixed[0] == pytest.approx(pure[0], abs=1e-12)
            assert mixed[1] == pytest.approx(pure[1], abs=1e-12)

    def test_normalization(self):
        total = sum(
            sum(mixed_policy_steady_state(CANON, 20, 0.37, d)) for d in range(1, 2000)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_average_age_overflow_is_domain_error(self):
        # a threshold from a budget stops at 2**53; a given one can go further
        with pytest.raises(ValueError, match="average age overflows"):
            mixed_policy_metrics(CANON, 10**300, 1.0)

    def test_against_oracle(self):
        g1, mu, dmax = 20, 0.37, 2000
        dist = oracle_stationary(CANON, mixed_probs(g1, mu, dmax), dmax)
        for delta in (1, 5, 20, 21, 22, 50, 90):
            th0, th1 = mixed_policy_steady_state(CANON, g1, mu, delta)
            assert th0 == pytest.approx(dist[delta - 1, 0], abs=1e-14)
            assert th1 == pytest.approx(dist[delta - 1, 1], abs=1e-14)


class TestRenewalSums:
    """The closed form's renewal sums carry the run walk's whole mass and age sum.

    The walk starts with unit mass at (1, idle), so its total mass is the
    mean renewal length T and its mass times its average age is the age sum
    A per renewal; the closed form sums both backward from the threshold's
    tail, and the mixed policy mixes those of gamma1 and gamma1 + 1 by mu.
    Over 200,000 random instances of the domain, at each one's optimal
    policy and at thresholds up to 10^7 with mu = 1 and random mu, the
    largest relative defect measured was 6.7e-16, for the mass and for the
    age sum alike.
    """

    BOUND = 4e-15

    @settings(deadline=None, max_examples=200)
    @given(
        alpha=sweep_domain("alpha"),
        beta=sweep_domain("beta"),
        phi_s=sweep_domain("phi_s"),
        eta_s=sweep_domain("eta_s"),
        gamma=st.integers(1, 10**7),
        mu=st.floats(0.0, 1.0),
    )
    def test_renewal_sums_match_walk(self, alpha, beta, phi_s, eta_s, gamma, mu):
        params = make_params(alpha, beta, phi_s, eta_s=eta_s)
        pol = age_optimal_policy(params)
        m = _scalars(params)
        for gamma1, mu1 in ((pol.gamma1, pol.mu), (gamma, 1.0), (gamma, mu)):
            lo, hi = _threshold_sums(m, gamma1), _threshold_sums(m, gamma1 + 1)
            slots = mu1 * lo[0] + (1.0 - mu1) * hi[0]
            age_sum = mu1 * lo[1] + (1.0 - mu1) * hi[1]
            runs = ((gamma1 - 1, 0.0), (1, mu1), (math.inf, 1.0))
            mass, aoi, _ = _walk(m, runs)
            assert abs(slots / mass - 1.0) <= self.BOUND
            assert abs(age_sum / (mass * aoi) - 1.0) <= self.BOUND

    @settings(deadline=None)
    @given(alpha=sweep_domain("alpha"), beta=sweep_domain("beta"), phi_s=sweep_domain("phi_s"))
    def test_scalars_tail_equals_public_composition(self, alpha, beta, phi_s):
        # the slot block and the shared tail come from the occupancy core,
        # not the public builder; they must equal the built slot matrix and
        # its tail exactly
        params = make_params(alpha, beta, phi_s)
        slot = slot_transition_matrix(params.rates)
        expected = _tail(slot, params.success_prob)
        assert _scalars(params)[-2:] == (tuple(slot), expected)


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

    COMPOSITION_KINDS = ("slack", "at_psi", "slow_pu", "alpha_gg_beta")

    @classmethod
    def composition_instances(cls, kind: str, count: int = 25) -> list[SystemParams]:
        """Seeded instances of one kind: slack, budget at psi_s(G), slow PU, alpha >> beta."""
        rng = np.random.default_rng([20201, cls.COMPOSITION_KINDS.index(kind)])
        out = []
        for _ in range(count):
            alpha = math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
            beta = math.exp(rng.uniform(math.log(1e-4), math.log(10.0)))
            phi_s = rng.uniform(0.0, 0.99)
            if kind == "slow_pu":
                alpha, beta = rng.uniform(1e-4, 3e-4, 2)
            elif kind == "alpha_gg_beta":
                beta = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
                alpha = min(3.0, beta * math.exp(rng.uniform(math.log(1e2), math.log(1e4))))
            psi_one = collision_probability(1, make_params(alpha, beta, phi_s))
            if kind == "slack":
                eta_s = psi_one + (1.0 - psi_one) * rng.uniform(0.01, 0.99)
            elif kind == "at_psi":
                eta_s = collision_probability(int(rng.integers(2, 60)), make_params(alpha, beta, phi_s))
            else:
                eta_s = psi_one * math.exp(rng.uniform(math.log(1e-4), 0.0))
            out.append(make_params(alpha, beta, phi_s, eta_s=float(eta_s)))
        return out

    @pytest.mark.parametrize("kind", COMPOSITION_KINDS)
    def test_equals_public_composition(self, kind):
        # the one-pass evaluator shares psi_s(Gamma1), psi_s(Gamma2) between
        # the bracket check and mu; it must equal the public functions exactly
        for params in self.composition_instances(kind):
            g1, g2 = optimal_thresholds(params)
            psi1, psi2 = collision_probability(g1, params), collision_probability(g2, params)
            # 1/psi_s is linear in mu between the two thresholds
            mu = 1.0 if g1 == g2 else (1.0 / psi2 - 1.0 / params.eta_s) / (1.0 / psi2 - 1.0 / psi1)
            aoi, psi = mixed_policy_metrics(params, g1, mu)
            pol = age_optimal_policy(params)
            assert (pol.gamma1, pol.gamma2, pol.mu, pol.avg_aoi, pol.psi_s) == (g1, g2, mu, aoi, psi)
            if kind == "slack":
                assert (g1, g2, pol.constraint_binds) == (1, 1, False)

    @settings(deadline=None)
    @given(
        alpha=st.floats(math.log(1e-4), math.log(3.0)).map(math.exp),
        beta=st.floats(math.log(1e-4), math.log(10.0)).map(math.exp),
        phi_s=st.floats(0.0, 0.99),
        eta_s=st.floats(math.log(1e-7), math.log(0.98)).map(math.exp),
    )
    def test_whole_domain(self, alpha, beta, phi_s, eta_s):
        # every instance of the fuzz domain yields a policy within budget that
        # is no worse than the throughput-optimal baseline, up to rounding
        params = make_params(alpha, beta, phi_s, eta_s=eta_s)
        pol = age_optimal_policy(params)
        assert pol.psi_s <= eta_s * (1 + 1e-12)
        assert pol.gamma2 - pol.gamma1 in (0, 1)
        assert 0.0 <= pol.mu <= 1.0
        p0 = optimal_transmit_probability(params).p0
        assert pol.avg_aoi <= average_aoi_bernoulli(params, p0) * (1 + 1e-12)
        if pol.gamma2 <= 1000:
            # a slack budget (no threshold with psi_s >= eta_s) gives (1, 1)
            g1, g2 = brute_threshold_scan(params, lambda g: collision_probability(g, params))
            assert (pol.gamma1, pol.gamma2) == (g1 or 1, g2)


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
