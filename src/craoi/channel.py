"""Two-state continuous-time model of the primary user's channel occupancy.

The primary user (PU) alternates between idle and busy sojourns with
exponential durations (rates ``alpha``: idle -> busy, ``beta``: busy -> idle).
The secondary device senses the channel once per unit slot, so everything the
rest of the toolkit needs reduces to the slot-level transition matrix of the
occupancy chain and a few derived scalars.  The matrix is a plain named tuple
with one builder, :func:`transition_matrix_power`; callers build it from the
rates where they need it, and nothing caches it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

IDLE = 0
BUSY = 1


@dataclass(frozen=True)
class PuRates:
    """PU activity rates per unit slot: mean idle sojourn 1/alpha, busy 1/beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError(
                f"rates must be positive and finite, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.beta <= self.alpha:
            warnings.warn(
                "beta <= alpha: busy periods are at least as long as idle periods; "
                "formulas stay valid but spectrum utilization is unusually high",
                stacklevel=2,
            )


class ChannelTransition(NamedTuple):
    """Occupancy transition probabilities across one interval, row-major."""

    p_II: float
    p_IB: float
    p_BI: float
    p_BB: float

    def transmit_block(self, reset: float) -> np.ndarray:
        """M = [[p_II - reset, p_IB], [p_BI, p_BB]]: one age step of (theta_idle, theta_busy).

        ``reset`` is the probability that an idle-sensed slot ends in a
        successful transmission, which sends the age back to (1, idle).
        """
        return np.array([[self.p_II - reset, self.p_IB], [self.p_BI, self.p_BB]])

    def resolvent(self, reset: float) -> tuple[float, float, float, float]:
        """(I - M)^-1 of :meth:`transmit_block`, row-major; requires reset > 0.

        This is the fundamental matrix of the transient age chain (Kemeny &
        Snell 1960): its entries sum the geometric series of M.  det(I - M)
        = p_BI * reset exactly, since both rows of the occupancy matrix sum
        to one; forming it by products would cancel.
        """
        det = self.p_BI * reset
        return self.p_BI / det, self.p_IB / det, self.p_BI / det, (self.p_IB + reset) / det

    def geometric_tail(self, reset: float, x0: float, x1: float) -> tuple[float, float]:
        """Sums over k >= 0 of x M^k 1 and of (k + 1) x M^k 1 for the row vector x = (x0, x1).

        They are x v and x w with v = (I - M)^-1 1 and w = (I - M)^-1 v.
        Every term is a product of nonnegative numbers, so nothing cancels
        as reset -> 0.  The age sum of a tail whose first age is ``base`` is
        x w + (base - 1) x v.
        """
        m_ii, m_ib, m_bi, m_bb = self.resolvent(reset)
        v0, v1 = m_ii + m_ib, m_bi + m_bb
        w0, w1 = m_ii * v0 + m_ib * v1, m_bi * v0 + m_bb * v1
        return x0 * v0 + x1 * v1, x0 * w0 + x1 * w1


def transition_matrix_power(rates: PuRates, t: float) -> ChannelTransition:
    """Occupancy transition probabilities across an interval of length t >= 0."""
    if not t >= 0:  # NaN fails too
        raise ValueError(f"t must be nonnegative, got {t}")
    al, be = rates.alpha, rates.beta
    s = al + be
    e = math.exp(-s * t)
    mixed = -math.expm1(-s * t)  # 1 - e without cancellation for small s * t
    return ChannelTransition((be + al * e) / s, al * mixed / s, be * mixed / s, (al + be * e) / s)


def slot_transition_matrix(rates: PuRates) -> ChannelTransition:
    """Occupancy transition probabilities across one unit slot."""
    return transition_matrix_power(rates, 1.0)


def idle_probability(rates: PuRates) -> float:
    """Long-run probability that the channel is idle."""
    return rates.beta / (rates.alpha + rates.beta)


def expected_cycle_length(rates: PuRates) -> float:
    """Mean length of one busy-idle cycle, 1/alpha + 1/beta slots."""
    return 1.0 / rates.alpha + 1.0 / rates.beta


def convert_collision_budget(rates: PuRates, value: float) -> float:
    """Convert a per-cycle (PU) collision budget to its per-slot (SIoT) form.

    The two are related by the mean cycle length: per-cycle budget equals
    per-slot budget times E[cycle length].
    """
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"budget must be in [0, 1], got {value}")
    out = value / expected_cycle_length(rates)
    if out > 1.0:
        raise ValueError(
            f"per-cycle budget {value} implies per-slot budget {out} > 1; "
            "the mean PU cycle is shorter than one slot for these rates"
        )
    return out
