"""Two-state continuous-time model of the primary user's channel occupancy.

The primary user (PU) alternates between idle and busy sojourns with
exponential durations (rates ``alpha``: idle -> busy, ``beta``: busy -> idle).
The secondary device senses the channel once per unit slot, so everything the
rest of the toolkit needs reduces to the slot-level transition matrix of the
occupancy chain and a few derived scalars.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

IDLE = 0
BUSY = 1


@dataclass(frozen=True)
class PuRates:
    """PU activity rates per unit slot: mean idle sojourn 1/alpha, busy 1/beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"rates must be positive, got alpha={self.alpha}, beta={self.beta}")
        if self.beta <= self.alpha:
            warnings.warn(
                "beta <= alpha: busy periods are at least as long as idle periods; "
                "formulas stay valid but spectrum utilization is unusually high",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChannelTransition:
    """Occupancy transition probabilities across one unit slot."""

    p_II: float
    p_IB: float
    p_BI: float
    p_BB: float

    def __post_init__(self):
        for name in ("p_II", "p_IB", "p_BI", "p_BB"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name}={p} outside [0, 1]")
        if abs(self.p_II + self.p_IB - 1.0) > 1e-12 or abs(self.p_BI + self.p_BB - 1.0) > 1e-12:
            raise ValueError("transition rows must sum to 1")

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.p_II, self.p_IB], [self.p_BI, self.p_BB]])


def transition_matrix_power(rates: PuRates, t: float) -> ChannelTransition:
    """Occupancy transition probabilities across an interval of length t >= 0."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    al, be = rates.alpha, rates.beta
    s = al + be
    e = math.exp(-s * t)
    return ChannelTransition(
        p_II=(be + al * e) / s,
        p_IB=(al - al * e) / s,
        p_BI=(be - be * e) / s,
        p_BB=(al + be * e) / s,
    )


def slot_transition_matrix(rates: PuRates) -> ChannelTransition:
    """Occupancy transition probabilities across one unit slot."""
    return transition_matrix_power(rates, 1.0)


def idle_probability(rates: PuRates) -> float:
    """Long-run probability that the channel is idle."""
    return rates.beta / (rates.alpha + rates.beta)


def expected_cycle_length(rates: PuRates) -> float:
    """Mean length of one busy-idle cycle, 1/alpha + 1/beta slots."""
    return 1.0 / rates.alpha + 1.0 / rates.beta


def convert_collision_budget(rates: PuRates, value: float, direction: str) -> float:
    """Convert a collision budget between per-cycle (PU) and per-slot (SIoT) form.

    The two are related by the mean cycle length: per-cycle budget equals
    per-slot budget times E[cycle length].
    """
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"budget must be in [0, 1], got {value}")
    cycle = expected_cycle_length(rates)
    if direction == "pu_to_siot":
        out = value / cycle
        if out > 1.0:
            raise ValueError(
                f"per-cycle budget {value} implies per-slot budget {out} > 1; "
                "the mean PU cycle is shorter than one slot for these rates"
            )
        return out
    if direction == "siot_to_pu":
        out = value * cycle
        if out > 1.0:
            raise ValueError(
                f"per-slot budget {value} implies per-cycle budget {out} > 1; "
                "the PU-side constraint is meaningless for these rates"
            )
        return out
    raise ValueError(f"direction must be 'pu_to_siot' or 'siot_to_pu', got {direction!r}")

