"""Closed-form analysis of threshold and randomized-threshold access policies.

Under a threshold policy the device transmits whenever the channel is sensed
idle and the current age is at least Gamma.  The induced age/occupancy chain
has a stationary distribution with an explicit form: below the threshold the
occupancy simply mixes under the slot transition matrix, and at/above the
threshold the pair (theta_idle, theta_busy) moves by one 2x2 block M of the
transition matrix less the resets, so every tail sum is read off the
resolvent (I - M)^-1.  Everything here is exact up to floating point:
geometric tails are summed in closed form, never truncated.

The randomized policy transmits with probability mu at the boundary age
Gamma1 and always past it; a threshold policy is the randomized one at
mu = 1.  One normalizer, one stationary-state routine and one metrics
routine serve both, so the two can never disagree by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    PuRates,
    convert_collision_budget,
    slot_transition_matrix,
    transition_matrix_power,
)


def _outcome_probs(phi_s: float, alpha: float) -> tuple[float, float]:
    """(success, collision) probabilities of a transmission from an idle-sensed slot.

    It succeeds if the PU stays idle through the slot and the device has no
    outage; it collides if the PU returns within the slot.
    """
    stay_idle = math.exp(-alpha)
    return (1.0 - phi_s) * stay_idle, 1.0 - stay_idle


@dataclass(frozen=True)
class SystemParams:
    """Full problem instance: PU rates, outage probability, per-slot collision budget."""

    rates: PuRates
    phi_s: float
    eta_s: float

    def __post_init__(self):
        if not (0.0 <= self.phi_s < 1.0):
            raise ValueError(f"phi_s must be in [0, 1), got {self.phi_s}")
        if not (0.0 < self.eta_s < 1.0):
            raise ValueError(f"eta_s must be in (0, 1), got {self.eta_s}")

    @classmethod
    def from_pu_budget(cls, rates: PuRates, phi_s: float, eta_p: float) -> "SystemParams":
        """Build params from a PU-side (per busy-idle cycle) collision budget."""
        return cls(rates=rates, phi_s=phi_s, eta_s=convert_collision_budget(rates, eta_p))

    @property
    def success_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot succeeds."""
        return _outcome_probs(self.phi_s, self.rates.alpha)[0]

    @property
    def collision_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot collides with the PU's return."""
        return _outcome_probs(self.phi_s, self.rates.alpha)[1]


def _check_gamma(gamma: int) -> int:
    # rejects NaN, infinities and fractions alike; numpy integers pass
    if not (gamma >= 1 and gamma % 1 == 0):
        raise ValueError(f"threshold must be an integer >= 1, got {gamma}")
    return int(gamma)


def _scalars(params: SystemParams) -> tuple:
    """The model scalars of one instance, formed once per public call.

    (alpha, beta, s, success, collision, s/(beta*success), alpha/beta,
    expm1(-s), rates) with s = alpha + beta.  A plain tuple that lives only
    for that call: nothing is cached on the params, so a sweep that keeps
    many instances alive holds no extra memory.  s/(beta*success) is the
    mean time between successes of threshold 1, the shortest any policy
    has; when it is no float, as when e^-alpha underflows, the instance has
    no average age to compute.
    """
    rates = params.rates
    al, be = rates.alpha, rates.beta
    s = al + be
    success, collision = _outcome_probs(params.phi_s, al)
    b_term = s / (be * success) if be * success > 0.0 else math.inf
    if b_term == math.inf:
        raise ValueError(
            f"success probability (1 - phi_s) e^-alpha = {success:.3g} is too small: "
            f"the mean renewal time s/(beta*success) overflows at alpha={al}, beta={be}"
        )
    return al, be, s, success, collision, b_term, al / be, math.expm1(-s), rates


def _normalizer(m: tuple, gamma1: int, mu: float) -> float:
    """1 / theta_(1,0) of the policy transmitting w.p. mu at (gamma1, idle), always past gamma1.

    With N(G) = G - 1 + s/(beta*success) + alpha(1 - e^(-s(G-1)))/((1 - e^-s)beta)
    for the threshold G, it is affine in mu like the boundary vector:
    N(gamma1 + 1) at mu = 0 and N(gamma1) at mu = 1.
    """
    al, be, s, _, _, b_term, a_over_b, expm1_s, _ = m
    # (1 - e^(-s gamma1)) / (1 - e^-s) by expm1: no cancellation for slow PUs
    upper = gamma1 + b_term + a_over_b * (math.expm1(-s * gamma1) / expm1_s)
    return upper - mu * (1.0 + al * math.exp(-s * (gamma1 - 1.0)) / be)


def _psi(m: tuple, gamma: int) -> float:
    """Per-slot collision probability of the threshold gamma: theta_(1,0) * collision / success."""
    _, _, _, success, collision, _, _, _, _ = m
    return 1.0 / _normalizer(m, gamma, 1.0) * collision / success


def _below_threshold_state(rates: PuRates, t10: float, delta: int) -> tuple[float, float]:
    # occupancy mixes for delta - 1 slots starting from (t10, 0)
    sig = transition_matrix_power(rates, delta - 1.0)
    return t10 * sig.p_II, t10 * sig.p_IB


def _stationary(m: tuple, gamma1: int, mu: float):
    """theta_(1,0), the boundary vector at age gamma1+1 and its geometric tail sums.

    The boundary vector is per unit theta_(1,0); past it the state moves by
    the transmit block M, so the tail sums come from the resolvent
    (I - M)^-1.  theta_(1,0) comes from the explicit normalizer, which the
    tail mass matches: t10 * (gamma1 + tail_mass) = 1 (held in the tests).
    """
    gamma1 = _check_gamma(gamma1)
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    _, _, _, success, _, _, _, _, rates = m
    # occupancy mixing to age gamma1, then one slot with resets w.p. mu at (gamma1, idle)
    y0, y1 = _below_threshold_state(rates, 1.0, gamma1)
    sig = slot_transition_matrix(rates)
    t0 = y0 * (sig.p_II - mu * success) + y1 * sig.p_BI
    t1 = y0 * sig.p_IB + y1 * sig.p_BB
    tail_mass, tail_weighted = sig.geometric_tail(success, t0, t1)
    t10 = 1.0 / _normalizer(m, gamma1, mu)
    return t10, (t0, t1), tail_mass, tail_weighted


def mixed_policy_steady_state(
    params: SystemParams, gamma1: int, mu: float, delta: int
) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) under the boundary-randomized policy.

    Transmit with probability mu at (gamma1, idle), always at ages > gamma1.
    mu=1 is the pure threshold gamma1, mu=0 the threshold gamma1+1.
    """
    if delta < 1:
        raise ValueError(f"age must be >= 1, got {delta}")
    m = _scalars(params)
    t10, boundary, _, _ = _stationary(m, gamma1, mu)
    _, _, _, success, _, _, _, _, rates = m
    if delta <= gamma1:
        return _below_threshold_state(rates, t10, delta)
    block = slot_transition_matrix(rates).transmit_block(success)
    th0, th1 = np.array(boundary) @ np.linalg.matrix_power(block, delta - gamma1 - 1)
    return t10 * float(th0), t10 * float(th1)


def _metrics(m: tuple, gamma1: int, mu: float) -> tuple[float, float]:
    t10, _, tail_mass, tail_weighted = _stationary(m, gamma1, mu)
    _, _, _, success, collision, _, _, _, _ = m
    # the tail starts at age gamma1 + 1
    aoi = t10 * (gamma1 * (gamma1 + 1.0) / 2.0 + tail_weighted + gamma1 * tail_mass)
    psi = t10 * collision / success
    return aoi, psi


def mixed_policy_metrics(params: SystemParams, gamma1: int, mu: float) -> tuple[float, float]:
    """(average age, per-slot collision probability) of the randomized policy."""
    return _metrics(_scalars(params), gamma1, mu)


def collision_probability(gamma: int, params: SystemParams) -> float:
    """Per-slot collision probability psi_s of the threshold policy."""
    gamma = _check_gamma(gamma)
    return _psi(_scalars(params), gamma)


def average_aoi_series(gamma: int, params: SystemParams) -> float:
    """Average age from the stationary distribution, geometric tail in closed form."""
    return mixed_policy_metrics(params, gamma, 1.0)[0]


_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function via Halley iteration."""
    if x < -_INV_E:
        raise ValueError(f"lambert_w0 domain is x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    # log-based guess for large x, series-based near the branch point
    if x > 1.0:
        lx = math.log(x)
        w = lx - math.log(lx) if lx > 1.0 else lx
    elif x > -0.25:
        w = x / (1.0 + x)
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) < tol:
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


def _lambert_w0_exp(z: float) -> float:
    """W(e^z), without forming e^z when z is large.

    For z > 1 this is the Wright omega function, the root of w + log(w) = z
    (Corless et al. 1996).  Newton's method on that concave function,
    started at z - log(z) where it is negative, climbs to the root.
    """
    if z <= 1.0:
        return lambert_w0(math.exp(z))
    w = z - math.log(z)
    for _ in range(100):
        step = (w + math.log(w) - z) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return w


def _thresholds(m: tuple, eta: float) -> tuple[int, int, float, float]:
    """(Gamma1, Gamma2, psi_s(Gamma1), psi_s(Gamma2)); see :func:`optimal_thresholds`.

    The two collision probabilities verify the bracket and are returned, so
    that mu is interpolated from them rather than from a second evaluation.
    """
    psi_one = _psi(m, 1)
    if psi_one <= eta:
        return 1, 1, psi_one, psi_one
    al, be, s, success, collision, b_term, _, expm1_s, _ = m
    k = al / (be * -expm1_s)
    tau = eta * success / collision  # theta_(1,0) at the budget
    r = 1.0 / tau - b_term - k
    # W(s k e^(-s r)) in log space: e^(-s r) overflows when alpha >> beta and eta is small
    g_real = 1.0 + r + _lambert_w0_exp(math.log(s * k) - s * r) / s
    g1, g2 = int(math.floor(g_real)), int(math.ceil(g_real))
    g1 = max(g1, 1)
    g2 = max(g2, g1)
    psi1 = _psi(m, g1)
    psi2 = psi1 if g2 == g1 else _psi(m, g2)
    if not (psi1 >= eta >= psi2):
        raise ValueError(
            f"threshold bracket verification failed at (G1, G2)=({g1}, {g2}); "
            "Lambert W argument is numerically suspect for these parameters"
        )
    return g1, g2, psi1, psi2


def optimal_thresholds(params: SystemParams) -> tuple[int, int]:
    """Consecutive thresholds bracketing the collision budget.

    Returns (Gamma1, Gamma2) with psi_s(Gamma1) >= eta_s >= psi_s(Gamma2) and
    Gamma2 - Gamma1 in {0, 1}.  If even the most aggressive threshold (1)
    satisfies the budget, the constraint is slack and (1, 1) is returned.
    Solving psi_s(Gamma) = eta_s for real Gamma reduces to a Lambert W
    evaluation; the floor/ceil pair is then re-verified against
    :func:`collision_probability`, which is the contract.
    """
    g1, g2, _, _ = _thresholds(_scalars(params), params.eta_s)
    return g1, g2


def _mu(eta: float, gamma1: int, psi1: float, psi2: float) -> float:
    """Mixing probability at gamma1 from psi1 = psi_s(gamma1) and psi2 = psi_s(gamma1 + 1)."""
    mu = (1.0 / psi2 - 1.0 / eta) / (1.0 / psi2 - 1.0 / psi1)
    if not (0.0 <= mu <= 1.0):
        raise ValueError(
            f"mixing probability {mu} outside [0, 1]; eta_s={eta} does not lie "
            f"between psi_s({gamma1})={psi1} and psi_s({gamma1 + 1})={psi2}"
        )
    return mu


@dataclass(frozen=True)
class AgeOptimalPolicy:
    """Closed-form age-optimal policy and its analytical performance."""

    gamma1: int
    gamma2: int
    mu: float
    avg_aoi: float
    psi_s: float
    constraint_binds: bool


def age_optimal_policy(params: SystemParams) -> AgeOptimalPolicy:
    """Compute the age-optimal randomized threshold policy for the instance.

    A single bracketing threshold (the budget is slack at threshold 1, or met
    exactly) is the mixed policy at mu = 1.  The instance's scalars are formed
    once, and mu comes from the two collision probabilities that verified
    the bracket.
    """
    m = _scalars(params)
    g1, g2, psi1, psi2 = _thresholds(m, params.eta_s)
    mu = 1.0 if g1 == g2 else _mu(params.eta_s, g1, psi1, psi2)
    aoi, psi = _metrics(m, g1, mu)
    binds = g1 != g2 or math.isclose(psi, params.eta_s, rel_tol=1e-12)
    return AgeOptimalPolicy(gamma1=g1, gamma2=g2, mu=mu, avg_aoi=aoi, psi_s=psi, constraint_binds=binds)
