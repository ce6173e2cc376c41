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

from .conftest import expm_transition

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
    @given(rates_st)
    def test_rows_stochastic(self, rates):
        sig = slot_transition_matrix(rates)
        assert sig.p_II + sig.p_IB == pytest.approx(1.0, abs=1e-12)
        assert sig.p_BI + sig.p_BB == pytest.approx(1.0, abs=1e-12)

    @settings(deadline=None)
    @given(rates_st)
    def test_matches_matrix_exponential(self, rates):
        sig = slot_transition_matrix(rates).as_matrix()
        np.testing.assert_allclose(sig, expm_transition(rates), atol=1e-12)


class TestTransitionMatrixPower:
    def test_t_one_equals_slot_matrix(self):
        rates = PuRates(0.02, 0.4)
        np.testing.assert_allclose(
            transition_matrix_power(rates, 1.0).as_matrix(),
            slot_transition_matrix(rates).as_matrix(),
            atol=1e-14,
        )

    def test_long_horizon_reaches_stationarity(self):
        rates = PuRates(0.02, 0.4)
        mat = transition_matrix_power(rates, 1e4).as_matrix()
        pi = np.array([idle_probability(rates), 1.0 - idle_probability(rates)])
        np.testing.assert_allclose(mat, np.vstack([pi, pi]), atol=1e-10)

    def test_integer_power_equals_repeated_product(self):
        rates = PuRates(0.05, 0.3)
        one = slot_transition_matrix(rates).as_matrix()
        np.testing.assert_allclose(
            transition_matrix_power(rates, 5.0).as_matrix(),
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
        lhs = transition_matrix_power(rates, s + t).as_matrix()
        rhs = transition_matrix_power(rates, s).as_matrix() @ transition_matrix_power(
            rates, t
        ).as_matrix()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix_power(PuRates(0.02, 0.4), -1.0)


class TestScalars:
    def test_idle_probability(self):
        assert idle_probability(PuRates(0.02, 0.4)) == pytest.approx(0.4 / 0.42)
        assert idle_probability(PuRates(0.3, 0.3)) == pytest.approx(0.5)

    def test_idle_probability_is_stationary(self):
        rates = PuRates(0.07, 0.9)
        pi = np.array([idle_probability(rates), 1.0 - idle_probability(rates)])
        np.testing.assert_allclose(pi @ slot_transition_matrix(rates).as_matrix(), pi, atol=1e-14)

    def test_expected_cycle_length(self):
        assert expected_cycle_length(PuRates(0.002, 0.006)) == pytest.approx(500.0 + 1000.0 / 6.0)


class TestBudgetConversion:
    def test_direct_evaluation(self):
        rates = PuRates(0.002, 0.006)
        got = convert_collision_budget(rates, 0.01, "pu_to_siot")
        assert got == pytest.approx(0.01 / (500.0 + 1000.0 / 6.0), rel=1e-12)

    def test_zero_preserved(self):
        rates = PuRates(0.02, 0.4)
        assert convert_collision_budget(rates, 0.0, "pu_to_siot") == 0.0
        assert convert_collision_budget(rates, 0.0, "siot_to_pu") == 0.0

    @settings(deadline=None)
    @given(rates_st, st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, rates, eta_p):
        # Only budgets whose per-slot form is a probability convert; the
        # others are rejected (test_per_slot_overflow_rejected).
        assume(eta_p <= expected_cycle_length(rates))
        eta_s = convert_collision_budget(rates, eta_p, "pu_to_siot")
        back = convert_collision_budget(rates, eta_s, "siot_to_pu")
        assert back == pytest.approx(eta_p, abs=1e-14)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            convert_collision_budget(PuRates(0.002, 0.006), 0.9, "siot_to_pu")

    def test_per_slot_overflow_rejected(self):
        # mean cycle 1/2 + 1/3 < 1 slot: a per-cycle budget of 1 is 1.2 per slot
        with pytest.raises(ValueError):
            convert_collision_budget(PuRates(2.0, 3.0), 1.0, "pu_to_siot")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            convert_collision_budget(PuRates(0.02, 0.4), 0.1, "sideways")

