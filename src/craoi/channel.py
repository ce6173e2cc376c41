"""Two-state continuous-time model of the primary user's channel occupancy.

The primary user (PU) alternates between idle and busy sojourns with
exponential durations (rates ``alpha``: idle -> busy, ``beta``: busy -> idle).
The secondary device senses the channel once per unit slot, so everything the
rest of the toolkit needs reduces to the slot-level transition matrix of the
occupancy chain and a few derived scalars.  The occupancy formula is written
once, in the private core ``_occupancy``, which returns a plain tuple from the
rates' scalars; the public builder :func:`transition_matrix_power` checks its
interval and wraps the core's tuple in the named :class:`ChannelTransition`.
Every evaluator calls the core directly, and nothing caches a matrix.  The device's resets are not the PU's: the age chain's blocks and
their tail sums live in ``analysis``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


def _occupancy(al: float, be: float, s: float, t: float) -> tuple[float, float, float, float]:
    """(p_II, p_IB, p_BI, p_BB) across an interval of length t, with s = al + be: the formula.

    Unchecked and a plain tuple, for callers that hold the rates' scalars and
    a valid t; :func:`transition_matrix_power` checks t and names the entries.
    """
    e = math.exp(-s * t)
    mixed = -math.expm1(-s * t)  # 1 - e without cancellation for small s * t
    return (be + al * e) / s, al * mixed / s, be * mixed / s, (al + be * e) / s


def transition_matrix_power(rates: PuRates, t: float) -> ChannelTransition:
    """Occupancy transition probabilities across an interval of length t >= 0."""
    if not t >= 0:  # NaN fails too
        raise ValueError(f"t must be nonnegative, got {t}")
    al, be = rates.alpha, rates.beta
    return ChannelTransition._make(_occupancy(al, be, al + be, t))


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
