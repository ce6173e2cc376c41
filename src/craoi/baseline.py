"""Throughput-optimal benchmark: Bernoulli access at idle-sensed slots.

The throughput maximizer under the same collision budget transmits with a
fixed probability p0 whenever the channel is sensed idle.  Its stationary age
distribution has the same geometric shape as the transmit region of a
threshold policy, valid from age 1, with the reset probability scaled by p0.
"""

from __future__ import annotations

import math

from .analysis import SystemModel, SystemParams, _check_gamma, _check_p0, _scalars, _walk
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
    """Closed-form average age under Bernoulli access with probability p0."""
    _check_p0(p0)
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    try:
        # al e^s / (be (e^s - 1)) written with expm1: no cancellation for small s
        aoi = (s * math.exp(al)) / (be * (1.0 - params.phi_s) * p0) + al / (be * -math.expm1(-s))
    except OverflowError:  # e^alpha itself
        aoi = math.inf
    if aoi == math.inf:
        raise ValueError(
            f"the average age under Bernoulli access overflows a float at alpha={al}, "
            f"beta={be}, p0={p0}: its mean time between successes s e^alpha / "
            "(beta (1 - phi_s) p0) is too long"
        )
    return aoi


def bernoulli_steady_state(params: SystemModel, p0: float, delta: int) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) at the given age under Bernoulli access: one run."""
    _check_p0(p0)
    delta = _check_gamma(delta, "age")
    return _walk(_scalars(params), ((math.inf, p0),), delta)[2]

