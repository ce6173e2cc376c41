"""Throughput-optimal benchmark: Bernoulli access at idle-sensed slots.

The throughput maximizer under the same collision budget transmits with a
fixed probability p0 whenever the channel is sensed idle.  That is threshold 1
with its reset probability scaled by p0: its stationary age distribution has
the geometric shape of a threshold policy's transmit region, valid from age 1,
and its average age is T1/p0 + c from threshold 1's two constants
(``analysis._threshold_one``), the mean time between successes T1 and the
occupancy constant c.
"""

from __future__ import annotations

import math

from .analysis import (
    SystemModel, SystemParams, _check_gamma, _check_p0, _scalars, _threshold_one, _walk,
)  # fmt: skip
from .channel import idle_probability
from .policies import BernoulliAccessPolicy


def optimal_transmit_probability(params: SystemParams) -> BernoulliAccessPolicy:
    """Largest access probability meeting the per-slot collision budget.

    If the budget cannot be saturated even at p0 = 1, the policy clamps to
    always-transmit-when-idle; the constraint is then slack.
    """
    p0 = params.eta_s / (idle_probability(params.rates) * params.collision_prob)
    return BernoulliAccessPolicy(p0=min(p0, 1.0))


def collision_probability_bernoulli(params: SystemModel, p0: float) -> float:
    """Per-slot collision probability under Bernoulli access."""
    return p0 * idle_probability(params.rates) * params.collision_prob


def average_aoi_bernoulli(params: SystemModel, p0: float) -> float:
    """Closed-form average age under Bernoulli access with probability p0: T1/p0 + c.

    Bernoulli access is threshold 1 with its reset scaled by p0, so its mean
    time between successes is threshold 1's T1 over p0; T1 and the occupancy
    constant c come from ``analysis._threshold_one``.
    """
    _check_p0(p0)
    al, be, _, _, t1, c = _threshold_one(params)
    aoi = t1 / p0 + c
    if aoi == math.inf:
        raise ValueError(
            f"the average age under Bernoulli access overflows a float at alpha={al}, "
            f"beta={be}, p0={p0}: T1/p0 + c is too long, with the mean time between "
            "successes T1/p0 = s/(beta (1 - phi_s) e^-alpha p0)"
        )
    return aoi


def bernoulli_steady_state(params: SystemModel, p0: float, delta: int) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) at the given age under Bernoulli access: one run."""
    _check_p0(p0)
    delta = _check_gamma(delta, "age")
    return _walk(_scalars(params), ((math.inf, p0),), delta)[2]

