"""Throughput-optimal benchmark: Bernoulli access at idle-sensed slots.

The throughput maximizer under the same collision budget transmits with a
fixed probability p0 whenever the channel is sensed idle.  Its stationary age
distribution has the same two-term geometric shape as the transmit region of
a threshold policy, valid from age 1, with the reset probability scaled by p0.
"""

from __future__ import annotations

import math

from .analysis import SpectralConstants, SystemParams
from .channel import idle_probability
from .policies import BernoulliAccessPolicy


def optimal_transmit_probability(params: SystemParams) -> BernoulliAccessPolicy:
    """Largest access probability meeting the per-slot collision budget.

    If the budget cannot be saturated even at p0 = 1, the policy clamps to
    always-transmit-when-idle; the constraint is then slack.
    """
    al = params.rates.alpha
    p_i = idle_probability(params.rates)
    p0 = params.eta_s / (p_i * (1.0 - math.exp(-al)))
    return BernoulliAccessPolicy(p0=min(p0, 1.0))


def throughput(params: SystemParams, p0: float) -> float:
    """Long-run fraction of slots with a transmission: p_I * p0."""
    return idle_probability(params.rates) * p0


def collision_probability_bernoulli(params: SystemParams, p0: float) -> float:
    """Per-slot collision probability under Bernoulli access."""
    al = params.rates.alpha
    return p0 * idle_probability(params.rates) * (1.0 - math.exp(-al))


def average_aoi_bernoulli(params: SystemParams, p0: float) -> float:
    """Closed-form average age under Bernoulli access with probability p0."""
    if not (0.0 < p0 <= 1.0):
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    es = math.exp(s)
    return (s * math.exp(al)) / (be * (1.0 - params.phi_s) * p0) + al * es / (be * (es - 1.0))


def _bernoulli_spectral(params: SystemParams, p0: float) -> tuple[SpectralConstants, float]:
    spec = SpectralConstants.for_reset_prob(params.rates, p0 * params.success_prob)
    # normalizer with theta_(1,0) = 1; boundary vector at age 1 is (1, 0)
    theta_1_0 = 1.0 / spec.tail_mass(1.0, 0.0)
    return spec, theta_1_0


def bernoulli_steady_state(params: SystemParams, p0: float, delta: int) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) at the given age under Bernoulli access."""
    if not (0.0 < p0 <= 1.0):
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    if delta < 1:
        raise ValueError(f"age must be >= 1, got {delta}")
    spec, t10 = _bernoulli_spectral(params, p0)
    th0, th1 = spec.state_at(1.0, 0.0, delta - 1)
    return t10 * th0, t10 * th1


def average_aoi_bernoulli_series(params: SystemParams, p0: float) -> float:
    """Average age summed from the stationary distribution (closed geometric tail)."""
    spec, t10 = _bernoulli_spectral(params, p0)
    return t10 * spec.tail_age_sum(1.0, 0.0, 1)
