"""Channel model tests: closed-form slot statistics against matrix-exponential oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from craoi import (
    PuRates,
    convert_collision_budget,
    expected_cycle_length,
    idle_probability,
    slot_transition_matrix,
    transition_matrix_power,
)
from craoi.analysis import _tail
from craoi.channel import _occupancy

from .conftest import expm_transition, sweep_domain


def occupancy_matrix(sig) -> np.ndarray:
    """The slot occupancy matrix, read off the row-major tuple."""
    return np.array(sig).reshape(2, 2)


rates_st = st.tuples(
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=1e-3, max_value=5.0),
).map(lambda ab: PuRates(alpha=ab[0], beta=ab[1]))


class TestPuRates:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PuRates(alpha=0.0, beta=0.4)
        with pytest.raises(ValueError):
            PuRates(alpha=0.02, beta=-1.0)

    @pytest.mark.parametrize("alpha,beta", [
        (math.inf, 0.4), (0.02, math.inf), (math.nan, 0.4), (0.02, math.nan),
    ])  # fmt: skip
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="positive and finite"):
            PuRates(alpha=alpha, beta=beta)

    def test_warns_on_high_utilization(self):
        with pytest.warns(UserWarning):
            PuRates(alpha=0.5, beta=0.1)


class TestSlotTransitionMatrix:
    def test_canonical_entry(self):
        # alpha=0.02, beta=0.4: p_II = (0.4 + 0.02 e^{-0.42}) / 0.42
        sig = slot_transition_matrix(PuRates(0.02, 0.4))
        expected = (0.4 + 0.02 * math.exp(-0.42)) / 0.42
        assert sig.p_II == pytest.approx(expected, abs=1e-15)

    def test_alpha_to_zero_limit(self):
        sig = slot_transition_matrix(PuRates(1e-12, 0.4))
        assert sig.p_II == pytest.approx(1.0, abs=1e-9)
        assert sig.p_IB == pytest.approx(0.0, abs=1e-9)

    @settings(deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=2.0),
        st.floats(min_value=1e-4, max_value=5.0),
        st.one_of(st.sampled_from([0.0, 1.0, 1e6]), st.floats(min_value=0.0, max_value=1e6)),
    )
    def test_rows_stochastic(self, alpha, beta, t):
        # The builder checks nothing it returns, so this holds it to a stochastic matrix.
        sig = transition_matrix_power(PuRates(alpha, beta), t)
        assert all(0.0 <= p <= 1.0 for p in sig)
        assert abs(sig.p_II + sig.p_IB - 1.0) <= 1e-12
        assert abs(sig.p_BI + sig.p_BB - 1.0) <= 1e-12

    @settings(deadline=None)
    @given(rates_st)
    def test_matches_matrix_exponential(self, rates):
        sig = occupancy_matrix(slot_transition_matrix(rates))
        np.testing.assert_allclose(sig, expm_transition(rates), atol=1e-12)


class TestTransitionMatrixPower:
    def test_t_one_equals_slot_matrix(self):
        rates = PuRates(0.02, 0.4)
        np.testing.assert_allclose(
            occupancy_matrix(transition_matrix_power(rates, 1.0)),
            occupancy_matrix(slot_transition_matrix(rates)),
            atol=1e-14,
        )

    def test_long_horizon_reaches_stationarity(self):
        rates = PuRates(0.02, 0.4)
        mat = occupancy_matrix(transition_matrix_power(rates, 1e4))
        pi = np.array([idle_probability(rates), 1.0 - idle_probability(rates)])
        np.testing.assert_allclose(mat, np.vstack([pi, pi]), atol=1e-10)

    def test_integer_power_equals_repeated_product(self):
        rates = PuRates(0.05, 0.3)
        one = occupancy_matrix(slot_transition_matrix(rates))
        np.testing.assert_allclose(
            occupancy_matrix(transition_matrix_power(rates, 5.0)),
            np.linalg.matrix_power(one, 5),
            atol=1e-12,
        )

    @settings(deadline=None)
    @given(
        rates_st,
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_chapman_kolmogorov(self, rates, s, t):
        lhs = occupancy_matrix(transition_matrix_power(rates, s + t))
        rhs = occupancy_matrix(transition_matrix_power(rates, s)) @ occupancy_matrix(
            transition_matrix_power(rates, t)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix_power(PuRates(0.02, 0.4), -1.0)
        # NaN as well: the builder checks no entry it returns
        with pytest.raises(ValueError, match="nonnegative"):
            transition_matrix_power(PuRates(0.02, 0.4), math.nan)


class TestOccupancyCore:
    @settings(deadline=None)
    @given(
        alpha=sweep_domain("alpha"),
        beta=sweep_domain("beta"),
        t=st.one_of(
            st.sampled_from([0, 1, 0.0, 1.0]),
            st.integers(min_value=2, max_value=2**53),
            st.floats(min_value=0.0, max_value=1e6).filter(lambda t: t % 1 != 0),
        ),
    )
    def test_builder_wraps_core_bit_for_bit(self, alpha, beta, t):
        # the formula is written once: the validated builder only names the
        # core's entries, for whole and fractional intervals alike
        core = _occupancy(alpha, beta, alpha + beta, t)
        assert type(core) is tuple
        assert tuple(transition_matrix_power(PuRates(alpha, beta), t)) == core
        if t == 1:
            assert tuple(slot_transition_matrix(PuRates(alpha, beta))) == core


class TestResolvent:
    def test_inverts_transmit_block(self):
        # v = (I - M)^-1 1 and w = (I - M)^-1 v
        sig = slot_transition_matrix(PuRates(0.02, 0.4))
        resets = np.array([[0.3, 0.0], [0.0, 0.0]])
        m = expm_transition(PuRates(0.02, 0.4)) - resets
        np.testing.assert_allclose(occupancy_matrix(sig) - resets, m, rtol=0, atol=1e-15)
        v, w = (np.array(x) for x in _tail(sig, 0.3))
        np.testing.assert_allclose((np.eye(2) - m) @ v, np.ones(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose((np.eye(2) - m) @ w, v, rtol=0, atol=1e-12)

    def test_geometric_tail_matches_truncated_series(self):
        rates, reset, x = PuRates(0.05, 0.5), 0.2, np.array([0.3, 0.7])
        m = expm_transition(rates) - np.array([[reset, 0.0], [0.0, 0.0]])
        mass = weighted = 0.0
        row = x.copy()
        for k in range(2000):
            mass += row.sum()
            weighted += (k + 1) * row.sum()
            row = row @ m
        v, w = _tail(slot_transition_matrix(rates), reset)
        got = x @ v, x @ w
        assert got == pytest.approx((mass, weighted), rel=1e-12)


class TestScalars:
    def test_idle_probability(self):
        assert idle_probability(PuRates(0.02, 0.4)) == pytest.approx(0.4 / 0.42)
        assert idle_probability(PuRates(0.3, 0.3)) == pytest.approx(0.5)

    def test_idle_probability_is_stationary(self):
        rates = PuRates(0.07, 0.9)
        pi = np.array([idle_probability(rates), 1.0 - idle_probability(rates)])
        sig = occupancy_matrix(slot_transition_matrix(rates))
        np.testing.assert_allclose(pi @ sig, pi, atol=1e-14)

    def test_expected_cycle_length(self):
        assert expected_cycle_length(PuRates(0.002, 0.006)) == pytest.approx(500.0 + 1000.0 / 6.0)


class TestBudgetConversion:
    def test_direct_evaluation(self):
        rates = PuRates(0.002, 0.006)
        got = convert_collision_budget(rates, 0.01)
        assert got == pytest.approx(0.01 / (500.0 + 1000.0 / 6.0), rel=1e-12, abs=0)

    def test_zero_preserved(self):
        rates = PuRates(0.02, 0.4)
        assert convert_collision_budget(rates, 0.0) == 0.0

    @settings(deadline=None)
    @given(rates_st, st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, rates, eta_p):
        # Only budgets whose per-slot form is a probability convert; the
        # others are rejected (test_per_slot_overflow_rejected).
        assume(eta_p <= expected_cycle_length(rates))
        eta_s = convert_collision_budget(rates, eta_p)
        back = eta_s * expected_cycle_length(rates)
        assert back == pytest.approx(eta_p, abs=1e-14)

    def test_per_slot_overflow_rejected(self):
        # mean cycle 1/2 + 1/3 < 1 slot: a per-cycle budget of 1 is 1.2 per slot
        with pytest.raises(ValueError):
            convert_collision_budget(PuRates(2.0, 3.0), 1.0)

