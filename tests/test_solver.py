"""CMDP solver tests: policy iteration, evaluation, and multiplier search."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import craoi.solver
from craoi import (
    PuRates,
    SystemModel,
    SystemParams,
    age_optimal_policy,
    average_aoi_bernoulli,
    average_aoi_series,
    bernoulli_steady_state,
    collision_probability,
    extract_threshold,
    lambda_bisection,
    mixed_policy_metrics,
    optimal_thresholds,
    policy_cost_evaluate,
    rvi_solve,
    slot_transition_matrix,
)
from craoi.analysis import _runs, _scalars, _tail, _walk
from craoi.channel import BUSY, IDLE
from craoi.solver import (
    BisectionError,
    SolvedPolicy,
    ThresholdStructureError,
    poisson_solve,
)

from .conftest import (
    BINDING_GRID,
    binding_instance,
    build_chain,
    decimal_mixed_metrics,
    mixed_probs,
    oracle_metrics,
    oracle_poisson,
    threshold_probs,
)

CANON = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)
MODEL = SystemModel(rates=CANON.rates, phi_s=CANON.phi_s)
ORACLE_AGES = 200  # ages of the oracle chain that kernel rows are held to


def head_of(table: np.ndarray) -> np.ndarray:
    """The table cut to its head: up to the first age of its last run."""
    *head, _ = _runs(table)
    return table[: 1 + sum(length for length, _ in head)]


def kernel_row(model, delta, occ, p) -> np.ndarray:
    """One row of the oracle chain on ages 1..ORACLE_AGES, assembled from the model's dynamics.

    The row leaves state (delta, occ) with idle transmit probability p, in
    the oracle chain's state order 2 * (delta - 1) + occupancy.
    """
    nxt = 2 * (min(delta + 1, ORACLE_AGES) - 1)
    row = np.zeros(2 * ORACLE_AGES)
    sig = slot_transition_matrix(model.rates)
    if occ == BUSY:
        row[nxt + IDLE] += sig.p_BI
        row[nxt + BUSY] += sig.p_BB
        return row
    reset = p * model.success_prob
    row[0] += reset
    row[nxt + IDLE] += sig.p_II - reset
    row[nxt + BUSY] += sig.p_IB
    return row


class TestPrimitives:
    def test_reward_is_age(self):
        # Without a multiplier the gain is the average age alone.
        for probs in (threshold_probs(1, 60), mixed_probs(9, 0.4, 60)):
            gain, _, _, _ = poisson_solve(probs, MODEL, 0.0)
            aoi, _ = policy_cost_evaluate(probs, MODEL)
            assert gain == pytest.approx(aoi, rel=1e-10)
        # a policy that never transmits has no finite gain
        with pytest.raises(ValueError, match="never renews"):
            poisson_solve(np.zeros(60), MODEL, 0.0)

    def test_collision_cost(self):
        assert MODEL.collision_prob == pytest.approx(1.0 - math.exp(-0.02), rel=1e-12, abs=0)
        # The multiplier is charged once per collision, on idle transmissions only.
        probs = mixed_probs(9, 0.4, 60)
        g0, _, _, _ = poisson_solve(probs, MODEL, 0.0)
        g1, _, _, _ = poisson_solve(probs, MODEL, 1e4)
        _, avg_cost = policy_cost_evaluate(probs, MODEL)
        assert g1 - g0 == pytest.approx(1e4 * avg_cost, rel=1e-9)
        with pytest.raises(ValueError, match="never renews"):
            poisson_solve(np.zeros(60), MODEL, 1e4)


class TestTransitionKernel:
    def test_transmit_reset_probability(self):
        row = kernel_row(MODEL, 5, IDLE, 1.0)
        assert row[0] == pytest.approx(0.8 * math.exp(-0.02), rel=1e-12, abs=0)

    def test_no_transmit_from_busy(self):
        sig = slot_transition_matrix(CANON.rates)
        row = kernel_row(MODEL, 5, BUSY, 0.0)
        assert row[2 * 5 + IDLE] == pytest.approx(sig.p_BI, rel=1e-12, abs=0)
        assert row[2 * 5 + BUSY] == pytest.approx(sig.p_BB, rel=1e-12, abs=0)
        assert row[0] == 0.0

    @pytest.mark.parametrize("delta,occ,action", [
        (1, IDLE, 0),
        (1, IDLE, 1),
        (199, BUSY, 0),
        (200, IDLE, 1),
    ])  # fmt: skip
    def test_probabilities_sum_to_one(self, delta, occ, action):
        row = kernel_row(MODEL, delta, occ, action)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert (row >= 0.0).all()
        oracle = build_chain(CANON, np.full(ORACLE_AGES, float(action)), ORACLE_AGES)
        np.testing.assert_allclose(row, oracle.getrow(2 * (delta - 1) + occ).toarray().ravel(),
                                   rtol=0, atol=1e-12)  # fmt: skip


class TestRvi:
    def test_lambda_zero_is_greedy(self):
        pol = rvi_solve(MODEL, 0.0)
        assert extract_threshold(pol) == 1

    @pytest.mark.parametrize("lam,gamma", [
        (0.0, 1), (1e2, 2), (1e3, 7), (1e4, 22), (1e5, 71), (3e5, 123),
    ])  # fmt: skip
    def test_canonical_thresholds(self, lam, gamma):
        assert extract_threshold(rvi_solve(MODEL, lam)) == gamma

    def test_threshold_nondecreasing_in_lambda(self):
        thresholds = []
        warm = (True,)
        for lam in (0.0, 100.0, 1000.0, 5000.0, 20000.0):
            pol = rvi_solve(MODEL, lam, warm)
            warm = pol.transmit
            thresholds.append(extract_threshold(pol))
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] > thresholds[0]

    def test_warm_start_reaches_same_policy(self):
        cold = rvi_solve(MODEL, 5000.0)
        for init in (threshold_probs(200, 200), rvi_solve(MODEL, 300.0).transmit):
            warm = rvi_solve(MODEL, 5000.0, init)
            np.testing.assert_array_equal(warm.transmit, cold.transmit)
            assert warm.gain == pytest.approx(cold.gain, rel=1e-12)

    def test_gain_matches_policy_evaluation(self):
        lam = 1000.0
        pol = rvi_solve(MODEL, lam)
        aoi, cost = policy_cost_evaluate(pol.transmit, MODEL)
        assert pol.gain == pytest.approx(aoi + lam * cost, rel=1e-10)

    @pytest.mark.parametrize("init", [None, [False] * 19 + [True]])
    def test_short_truncation_through_absorbing_policy(self, init):
        # From the default start (transmit everywhere) and from threshold 20
        # the iteration reaches threshold 7, and the exact tail makes its
        # gain the closed form.
        lam = 1e3
        pol = rvi_solve(MODEL, lam) if init is None else rvi_solve(MODEL, lam, init)
        assert extract_threshold(pol) == 7
        expected = average_aoi_series(7, CANON) + lam * collision_probability(7, CANON)
        assert pol.gain == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam,init", [
        (1e3, None), (3e5, None), (5e3, [False] * 60 + [True]), (2e4, [True, False, True]),
    ])  # fmt: skip
    def test_steps_are_greedy_on_a_long_grid(self, lam, init, monkeypatch):
        # Every step must be the greedy policy of the last one's bias at every
        # age.  The reference extends the bias affinely over a grid far longer
        # than any head here, applies the tie rule age by age, and must visit
        # the same heads as rvi_solve's solves cover.
        ages = 20_000
        tx_cost = lam * MODEL.collision_prob
        slope = _tail(slot_transition_matrix(MODEL.rates), MODEL.success_prob)[0][0]
        table = np.ones(1, dtype=bool) if init is None else np.array(init)
        expected = []
        while True:
            expected.append(head_of(table))
            _, h, _, _ = poisson_solve(expected[-1].astype(float), MODEL, lam)
            h = np.concatenate((h, h[-1] + slope * np.arange(1, ages - h.size + 2)))
            value = MODEL.success_prob * h[1:]
            tie = np.abs(value - tx_cost) <= 1e-12 * (tx_cost + np.abs(value))
            padded = np.concatenate((expected[-1], np.ones(ages - expected[-1].size, dtype=bool)))
            table = np.where(tie, padded, value - tx_cost > 0.0)
            assert table[-ages // 2 :].all()  # the greedy table ends well inside the grid
            if np.array_equal(table, padded):
                break
        seen = []

        def recorded(probs, model, lam):
            solved = poisson_solve(probs, model, lam)
            seen.append(probs[: solved[1].size].astype(bool))  # the head the bias covers
            return solved

        monkeypatch.setattr(craoi.solver, "poisson_solve", recorded)
        pol = rvi_solve(MODEL, lam) if init is None else rvi_solve(MODEL, lam, init)
        assert pol.iterations == len(expected)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            np.testing.assert_array_equal(got, want)

    def test_threshold_past_200_matches_scan(self):
        # an age grid of 200 would have cut this policy off; the head grows
        # as the improvement step asks
        lam = 1e6
        pol = rvi_solve(MODEL, lam)
        costs = []
        for gamma in range(1, 401):
            aoi, cost = policy_cost_evaluate(threshold_probs(gamma, gamma), MODEL)
            costs.append(aoi + lam * cost)
        best = int(np.argmin(costs)) + 1
        assert best > 200
        assert extract_threshold(pol) == best
        assert pol.transmit.size == best
        assert pol.gain == pytest.approx(costs[best - 1], rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rvi_solve(MODEL, -1.0)
        # an infinite multiplier would return the lambda = 0 policy, transmit everywhere
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                rvi_solve(MODEL, lam)
        for init in ([], np.ones((2, 3), dtype=bool)):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                rvi_solve(MODEL, 1.0, init)
        for init in (np.zeros(17, dtype=bool), [True, False]):
            with pytest.raises(ValueError, match="never renews"):
                rvi_solve(MODEL, 1.0, init)


def silent_clamp(probs: np.ndarray) -> np.ndarray:
    """The same policy, except that it never transmits past its table."""
    probs = probs.copy()
    probs[-1] = 0.0
    return probs


class TestHeadLength:
    """``analysis._runs``: where the head ends, and the split's round trip."""

    @pytest.mark.parametrize("probs,head", [
        ([0.7], 1),
        ([0.3] * 5, 1),
        ([0.5, 1.0, 1.0], 2),
        ([1.0, 0.5], 2),
        ([1.0, 0.0, 1.0, 1.0], 3),
        (threshold_probs(12, 40), 12),
        (mixed_probs(3, 0.4, 400), 4),
        (np.zeros(40), 1),
    ])  # fmt: skip
    def test_head_ends_where_last_entry_holds(self, probs, head):
        # the last run of the split begins at the head length
        *runs, (length, _) = _runs(np.asarray(probs, dtype=float))
        assert 1 + sum(length for length, _ in runs) == head
        assert length == math.inf

    @settings(deadline=None, max_examples=200)
    @given(
        blocks=st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            min_size=1,
            max_size=8,
        ),
        dtype=st.sampled_from([float, bool]),
    )
    def test_runs_round_trip(self, blocks, dtype):
        # expanding the runs over the table's length gives the table back;
        # every finite run holds an age, and neighbouring runs differ in p
        table = np.array([p for length, p in blocks for _ in range(length)], dtype=dtype)
        runs = _runs(table)
        *head, (last, p_last) = runs
        assert last == math.inf and all(length >= 1 for length, _ in head)
        expanded = [p for length, p in head for _ in range(length)]
        expanded += [p_last] * (table.size - len(expanded))
        np.testing.assert_array_equal(np.array(expanded, dtype=dtype), table)
        assert all(a != b for (_, a), (_, b) in zip(runs, runs[1:]))


class TestPoissonEquation:
    # Each table is checked against an oracle chain padded with its tail
    # entry to ten times the table's length, where the oracle's clamp holds
    # no mass.  The solve returns the bias on the head alone; the head cases
    # end long before the table does, and past the head the oracle's bias
    # must be the affine tail the returned slope extends.  A table whose
    # last entry never transmits is rejected.
    @pytest.mark.parametrize("probs,length,head", [
        (mixed_probs(7, 0.3, 40), 400, 8),
        (mixed_probs(1, 0.6, 40), 400, 2),
        (threshold_probs(40, 40), 400, 40),
        (mixed_probs(3, 0.4, 400), 4000, 4),
        (np.full(400, 0.3), 4000, 1),
        (np.array([0.3, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]), 100, 10),
        (np.array([1.0] + [0.0] * 7 + [0.7] * 3), 110, 9),
        (np.array([0.5] * 5 + [0.0] * 30 + [1.0]), 360, 36),
        (np.zeros(40), 40, None),
        (silent_clamp(threshold_probs(30, 40)), 40, None),
    ], ids=["mixed", "mixed-at-one", "clamp-only", "short-head", "bernoulli",
            "interleaved", "padded-tail", "transmit-then-wait", "never",
            "silent-clamp"])  # fmt: skip
    def test_gain_and_bias_solve_oracle_chain(self, probs, length, head):
        lam = 700.0
        if head is None:
            with pytest.raises(ValueError, match="never renews"):
                poisson_solve(probs, MODEL, lam)
            return
        gain, bias, _, slope = poisson_solve(probs, MODEL, lam)
        o_gain, o_idle, _ = oracle_poisson(CANON, probs, lam, length)
        assert gain == pytest.approx(o_gain, rel=1e-12)
        n = probs.size
        scale = np.abs(o_idle[:n]).max()
        assert bias.size == head
        np.testing.assert_allclose(bias, o_idle[:head], rtol=0, atol=1e-12 * scale)
        assert bias[0] == 0.0
        # past the head the bias is affine in age: h(d) = h(head) + (d - head) slope
        extended = np.concatenate((bias, bias[-1] + np.arange(1, n - head + 1) * slope))
        np.testing.assert_allclose(extended, o_idle[:n], rtol=0, atol=1e-12 * scale)
        # the slope is the tail's v_idle, and the oracle's step at the head
        channel = slot_transition_matrix(MODEL.rates)
        reset = probs[-1] * MODEL.success_prob
        assert slope == pytest.approx(_tail(channel, reset)[0][0], rel=1e-15, abs=0)
        assert slope == pytest.approx(o_idle[head] - o_idle[head - 1], rel=0, abs=1e-12 * scale)

    @settings(deadline=None, max_examples=100)
    @given(
        alpha=st.floats(1e-3, 1.0),
        beta=st.floats(1e-3, 5.0),
        phi_s=st.floats(0.0, 0.9),
        runs=st.lists(
            st.tuples(st.integers(1, 40), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            max_size=6,
        ),
        last=st.floats(0.05, 1.0),
    )
    def test_renewal_sums_match_walk(self, alpha, beta, phi_s, runs, last):
        # the backward solve's expected slots and age sum per renewal are the
        # forward walk's mass and mass times average age
        model = SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s)
        table = np.array([p for length, p in runs for _ in range(length)] + [last])
        _, _, (slots, age_sum), _ = poisson_solve(table, model, 0.0)
        mass, aoi, _ = _walk(_scalars(model), [*runs, (math.inf, last)])
        assert (slots, age_sum) == pytest.approx((mass, mass * aoi), rel=1e-12, abs=0)


class TestExtractThreshold:
    def _policy(self, transmit):
        transmit = np.asarray(transmit, dtype=bool)
        return SolvedPolicy(gain=0.0, transmit=transmit, iterations=1, renewal=(1.0, 1.0))

    def test_always_transmit(self):
        assert extract_threshold(self._policy([True] * 8)) == 1

    def test_never_transmit(self):
        with pytest.raises(ValueError, match="never renews"):
            extract_threshold(self._policy([False] * 8))
        with pytest.raises(ValueError, match="never renews"):
            extract_threshold(self._policy([False, True, False]))

    def test_plain_threshold(self):
        assert extract_threshold(self._policy([False, False, True, True])) == 3

    def test_non_monotone_rejected(self):
        with pytest.raises(ThresholdStructureError):
            extract_threshold(self._policy([False, True, False, True]))


class TestPolicyEvaluation:
    def test_threshold_cost_matches_closed_form(self):
        _, cost = policy_cost_evaluate(threshold_probs(20, 200), MODEL)
        assert cost == pytest.approx(collision_probability(20, CANON), rel=1e-12, abs=0)

    def test_threshold_aoi_matches_series(self):
        aoi, _ = policy_cost_evaluate(threshold_probs(20, 200), MODEL)
        assert aoi == pytest.approx(average_aoi_series(20, CANON), rel=1e-12)

    @pytest.mark.parametrize("gamma1,mu", [(1, 0.6), (9, 0.4), (20, 1.0), (150, 0.25), (250, 0.7)])
    @pytest.mark.parametrize("length", ["tail-age", "padded"])
    def test_mixed_matches_closed_form(self, gamma1, mu, length):
        # the table may stop at the tail age or run past it
        n = gamma1 + 1 if length == "tail-age" else gamma1 + 60
        got_aoi, got_cost = policy_cost_evaluate(mixed_probs(gamma1, mu, n), MODEL)
        aoi, psi = mixed_policy_metrics(CANON, gamma1, mu)
        assert got_aoi == pytest.approx(aoi, rel=1e-12)
        assert got_cost == pytest.approx(psi, rel=1e-12, abs=0)

    def test_never_transmit_diverges(self):
        # the age never renews, so the average age is infinite: rejected as by poisson_solve
        for probs in (np.zeros(200), [0.0]):
            with pytest.raises(ValueError, match="never renews"):
                policy_cost_evaluate(probs, MODEL)

    def test_silent_clamp_diverges(self):
        with pytest.raises(ValueError, match="never renews"):
            policy_cost_evaluate(silent_clamp(threshold_probs(10, 200)), MODEL)

    @pytest.mark.parametrize("probs", [[-0.5], [1.5], [math.nan], [0.3, 2.0]], ids=repr)
    def test_probabilities_outside_unit_interval_rejected(self, probs):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            policy_cost_evaluate(probs, MODEL)

    @pytest.mark.parametrize("probs", [
        threshold_probs(1, 60),
        threshold_probs(12, 60),
        mixed_probs(9, 0.4, 60),
        threshold_probs(60, 60),
        np.array([0.35]),
        np.array([0.3, 0.0, 0.0, 0.0, 0.0, 0.9, 0.05]),
    ], ids=["always", "threshold", "mixed", "clamp-only", "bernoulli", "tabular"])  # fmt: skip
    def test_matches_oracle_chain(self, probs):
        # the oracle pads the table with its last entry to 3000 ages, where
        # even the slowest tail here (reset 0.05 * 0.78 per idle slot) holds
        # no mass above rounding
        got_aoi, got_cost = policy_cost_evaluate(probs, MODEL)
        aoi, psi = oracle_metrics(CANON, probs, 3000)
        assert got_aoi == pytest.approx(aoi, rel=1e-12)
        assert got_cost == pytest.approx(psi, rel=1e-12, abs=0)

    def test_shape_validation(self):
        for probs in (np.array([]), np.ones((2, 3))):
            with pytest.raises(ValueError):
                policy_cost_evaluate(probs, MODEL)

    def test_rare_tail_age_overflows(self):
        # the tail's age sum overflows: 0 * inf would read NaN, where the
        # closed form reads a finite 1.3e160
        assert average_aoi_bernoulli(MODEL, 1e-160) == pytest.approx(1.339e160, rel=1e-3)
        with pytest.raises(ValueError, match="average age overflows a float"):
            policy_cost_evaluate([1e-160], MODEL)
        # the Poisson solve's sums overflow alike: gain inf and a NaN bias
        with pytest.raises(ValueError, match="average age overflows a float"):
            poisson_solve(np.array([0.0, 1e-160]), MODEL, 1.0)
        # the state needs only the mass, which is still a float
        assert bernoulli_steady_state(MODEL, 1e-160, 1) == pytest.approx((7.468e-161, 0.0))

    @pytest.mark.parametrize("evaluate", [
        lambda: policy_cost_evaluate([1e-320], MODEL),
        lambda: bernoulli_steady_state(MODEL, 1e-320, 1),
        lambda: poisson_solve(np.array([0.0, 1e-320]), MODEL, 1.0),
    ], ids=["policy_cost_evaluate", "bernoulli_steady_state", "poisson_solve"])  # fmt: skip
    def test_rare_tail_mass_overflows(self, evaluate):
        with pytest.raises(ValueError, match="mean renewal time overflows a float"):
            evaluate()

    @settings(deadline=None, max_examples=200)
    @given(
        head=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=5),
        exponent=st.floats(-320.0, 0.0),
    )
    def test_rare_tail_is_finite_or_rejected(self, head, exponent):
        # a last entry log-uniform in 1e-320..1: never NaN
        try:
            aoi, cost = policy_cost_evaluate([*head, 10.0**exponent], MODEL)
        except ValueError:
            return
        assert math.isfinite(aoi) and math.isfinite(cost)


UNDERFLOW = SystemParams(PuRates(800.0, 1000.0), 0.2, 0.5)  # e^-800 underflows to 0


@pytest.mark.parametrize("evaluate", [
    lambda: policy_cost_evaluate([1.0], UNDERFLOW),
    lambda: rvi_solve(UNDERFLOW, 1.0),
    lambda: lambda_bisection(UNDERFLOW),
    lambda: bernoulli_steady_state(UNDERFLOW, 0.5, 1),
    lambda: poisson_solve(np.array([True]), UNDERFLOW, 0.0),
], ids=["policy_cost_evaluate", "rvi_solve", "lambda_bisection", "bernoulli_steady_state",
        "poisson_solve"])  # fmt: skip
def test_evaluators_raise_closed_form_domain_error(evaluate):
    # every evaluator reads the instance's checked scalars, so none divides
    # by the underflowed success; each raises the closed form's own error
    with pytest.raises(ValueError) as closed_form:
        age_optimal_policy(UNDERFLOW)
    assert "success probability (1 - phi_s) e^-alpha = 0 is too small" in str(closed_form.value)
    with pytest.raises(ValueError, match=re.escape(str(closed_form.value))):
        evaluate()


class TestLambdaBisection:
    def test_loose_budget_threshold_one(self):
        psi1 = collision_probability(1, MODEL)
        params = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=min(0.99, 2 * psi1))
        sol = lambda_bisection(params).policy
        assert (sol.gamma1, sol.gamma2, sol.mu) == (1, 1, 1.0)
        # the slack case evaluates its policy as every other case does, so it is the closed form
        pol = age_optimal_policy(params)
        assert (sol.avg_aoi, sol.psi_s) == (pol.avg_aoi, pol.psi_s)
        assert sol.constraint_binds == pol.constraint_binds

    def test_eta_validation(self):
        # The budget travels in the params, which reject it before any search runs.
        with pytest.raises(ValueError):
            lambda_bisection(SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=1.5))

    def test_canonical_matches_closed_form(self):
        sol = lambda_bisection(CANON).policy
        g1, g2 = optimal_thresholds(CANON)
        assert (sol.gamma1, sol.gamma2) == (g1, g2)
        assert sol.mu == pytest.approx(age_optimal_policy(CANON).mu, abs=1e-6)
        assert sol.psi_s == pytest.approx(CANON.eta_s, abs=1e-9)

    def test_gives_up_doubling(self, monkeypatch):
        # the canonical budget needs a multiplier near 1e5, far past 0, 1 and 2
        monkeypatch.setattr(craoi.solver, "MAX_EXPAND", 2)
        with pytest.raises(BisectionError, match=r"no multiplier up to 2\.0 satisfies"):
            lambda_bisection(CANON)

    def test_evaluates_its_own_policies(self, monkeypatch):
        # the search reads its bracket costs and achieved metrics off its own
        # Poisson solves, never off the closed form's walk
        def refuse(*args, **kwargs):
            raise AssertionError("the multiplier search called an outside evaluator")

        for name in ("policy_cost_evaluate", "_walk", "mixed_policy_metrics"):
            monkeypatch.setattr(craoi.solver, name, refuse, raising=False)
        sol = lambda_bisection(CANON).policy
        assert (sol.gamma1, sol.gamma2) == optimal_thresholds(CANON)
        assert sol.psi_s == pytest.approx(CANON.eta_s, rel=1e-12, abs=0)

    def test_gives_up_bisecting(self, monkeypatch):
        # one bisection leaves the doubling bracket's thresholds far apart
        monkeypatch.setattr(craoi.solver, "MAX_BISECT", 1)
        with pytest.raises(BisectionError, match="did not shrink to consecutive thresholds"):
            lambda_bisection(CANON)

    @pytest.mark.parametrize("alpha,beta,phi_s,fraction", BINDING_GRID[:6])
    def test_grid_matches_closed_form(self, alpha, beta, phi_s, fraction):
        params = binding_instance(alpha, beta, phi_s, fraction)
        sol = lambda_bisection(params).policy
        g1, g2 = optimal_thresholds(params)
        assert (sol.gamma1, sol.gamma2) == (g1, g2)
        pol = age_optimal_policy(params)
        if g1 != g2:
            assert sol.mu == pytest.approx(pol.mu, abs=1e-6)
        assert sol.constraint_binds == pol.constraint_binds

    @pytest.mark.parametrize("params", [
        binding_instance(1e-4, 3e-4, 0.2, 0.5),
        binding_instance(1e-3, 2e-3, 0.2, 0.5),
        binding_instance(0.005, 0.01, 0.2, 0.5),
        SystemParams.from_pu_budget(PuRates(0.01, 0.03), 0.2, 0.05),  # a table 1 cell
        SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=1e-5),
    ], ids=["0.0001-0.0003", "0.001-0.002", "0.005-0.01", "table1", "deep-threshold"])  # fmt: skip
    def test_slow_pu_achieved_metrics_exact(self, params):
        # a slow PU keeps old ages likely, and a tight budget on the canonical
        # channel puts the thresholds at 2524 and 2525; no age grid bounds them
        sol = lambda_bisection(params).policy
        assert (sol.gamma1, sol.gamma2) == optimal_thresholds(params)
        aoi, psi = mixed_policy_metrics(params, sol.gamma1, sol.mu)
        assert sol.avg_aoi == pytest.approx(aoi, rel=1e-12)
        assert sol.psi_s == pytest.approx(psi, rel=1e-12, abs=0)


class TestDeepThreshold:
    """Thresholds far past any test chain, on a slow PU: alpha 1e-4, beta 3e-4, phi_s 0.2.

    The budget sits halfway between psi_s(gamma) and psi_s(gamma + 1).  An
    evaluation that steps one 2x2 block per age loses about 1e-13 relative
    per 10^4 ages; the forward run walk and the backward Poisson solve cost a
    few roundings per run at any depth.
    """

    RATES = PuRates(1e-4, 3e-4)

    @pytest.mark.parametrize("gamma", [20_000, 50_000, 200_000])
    def test_evaluators_match_decimal_oracle(self, gamma):
        probe = SystemModel(rates=self.RATES, phi_s=0.2)
        eta = 0.5 * (collision_probability(gamma, probe) + collision_probability(gamma + 1, probe))
        params = SystemParams(rates=self.RATES, phi_s=0.2, eta_s=eta)
        pol = age_optimal_policy(params)
        assert (pol.gamma1, pol.gamma2) == (gamma, gamma + 1)
        expected = decimal_mixed_metrics(params, gamma, pol.mu)
        closed = mixed_policy_metrics(params, gamma, pol.mu)
        table = mixed_probs(gamma, pol.mu, gamma + 1)
        evaluated = policy_cost_evaluate(table, params)
        # abs=0: pytest's default abs 1e-12 would swamp psi, which is below 1e-8 here
        assert closed == pytest.approx(expected, rel=1e-14, abs=0)
        assert evaluated == pytest.approx(expected, rel=1e-14, abs=0)
        aoi, psi = expected
        collisions = params.collision_prob / params.success_prob  # per renewal
        for lam in (0.0, 1e3, 1e6):
            gain, _, (slots, age_sum), _ = poisson_solve(table, params, lam)
            assert gain == pytest.approx(aoi + lam * psi, rel=1e-14, abs=0)
        solved = (age_sum / slots, collisions / slots)
        assert solved == pytest.approx(expected, rel=1e-14, abs=0)
