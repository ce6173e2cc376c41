"""Closed-form analysis of threshold and randomized-threshold access policies.

Under a threshold policy the device transmits whenever the channel is sensed
idle and the current age is at least Gamma.  The induced age/occupancy chain
has a stationary distribution with an explicit form: below the threshold the
occupancy simply mixes under the slot transition matrix, and at/above the
threshold the pair (theta_idle, theta_busy) moves by one 2x2 block M of the
transition matrix less the resets, so every tail sum is read off
(I - M)^-1.  :func:`_tail` forms it, with its two geometric sums, for the
walk below and for the CMDP solver's renewal sums.  Everything here is
exact up to floating point: geometric tails are summed in closed form,
never truncated.

The randomized policy transmits with probability mu at the boundary age
Gamma1 and always past it; a threshold policy is the randomized one at
mu = 1.  Both are runs of constant transmit probability for :func:`_walk`,
the one routine that holds the model's dynamics; the Bernoulli baseline's
per-age states and ``policy_cost_evaluate`` walk their runs too.  Only
the functions that meet the budget take :class:`SystemParams`; the rest take
a :class:`SystemModel`, which has none.  The model caches nothing: each walk
builds the slot matrix from the rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelTransition,
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
    # 1 - e^-alpha by expm1: no cancellation for small alpha
    return (1.0 - phi_s) * math.exp(-alpha), -math.expm1(-alpha)


@dataclass(frozen=True)
class SystemModel:
    """The system: PU rates and the device's outage probability, without a budget.

    From (d, idle) with transmit probability p the age resets to (1, idle)
    with mass ``p * success_prob``; otherwise it moves to d + 1 through the
    occupancy block [[p_II - p * success_prob, p_IB], [p_BI, p_BB]] of the
    slot matrix.  Busy-sensed slots never transmit.  A transmission collides
    with probability ``collision_prob``.  Building a model computes nothing
    from the rates.
    """

    rates: PuRates
    phi_s: float

    def __post_init__(self):
        if not (0.0 <= self.phi_s < 1.0):
            raise ValueError(f"phi_s must be in [0, 1), got {self.phi_s}")

    @property
    def success_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot succeeds."""
        return _outcome_probs(self.phi_s, self.rates.alpha)[0]

    @property
    def collision_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot collides with the PU's return."""
        return _outcome_probs(self.phi_s, self.rates.alpha)[1]


@dataclass(frozen=True)
class SystemParams(SystemModel):
    """A system model with the per-slot collision budget the PU imposes on it."""

    eta_s: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.eta_s < 1.0):
            raise ValueError(f"eta_s must be in (0, 1), got {self.eta_s}")

    @classmethod
    def from_pu_budget(cls, rates: PuRates, phi_s: float, eta_p: float) -> "SystemParams":
        """Build params from a PU-side (per busy-idle cycle) collision budget."""
        return cls(rates=rates, phi_s=phi_s, eta_s=convert_collision_budget(rates, eta_p))


def _check_gamma(gamma: int, name: str = "threshold") -> int:
    # rejects NaN, infinities and fractions alike; numpy integers pass
    if not (gamma >= 1 and gamma % 1 == 0):
        raise ValueError(f"{name} must be an integer >= 1, got {gamma}")
    return int(gamma)


def _scalars(params: SystemModel) -> tuple:
    """The model scalars of one instance, formed once per public call.

    (alpha, beta, s, success, collision, s/(beta*success), alpha/beta,
    expm1(-s), rates) with s = alpha + beta.  A plain tuple that lives only
    for that call: the closed form caches nothing on the model, so a sweep
    that keeps many models alive holds no extra memory.  s/(beta*success) is
    the mean time between successes of threshold 1, the shortest any policy
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


def _advance(x0: float, x1: float, p_ii: float, p_ib: float, p_bi: float, p_bb: float):
    # the row vector (x0, x1) times [[p_ii, p_ib], [p_bi, p_bb]]
    return x0 * p_ii + x1 * p_bi, x0 * p_ib + x1 * p_bb


def _tail(channel: ChannelTransition, reset: float):
    """((I - M)^-1 row-major, v, w) for M = [[p_II - reset, p_IB], [p_BI, p_BB]]; reset > 0.

    M is one age step of (theta_idle, theta_busy) when an idle-sensed slot
    resets the age with mass ``reset``.  (I - M)^-1 is the fundamental
    matrix of the transient age chain (Kemeny & Snell 1960).  Its
    determinant is exactly p_BI times reset, since both rows of the
    occupancy matrix sum to one; forming it by products would cancel.  With
    v = (I - M)^-1 1 and w = (I - M)^-1 v, a row vector x has sums over
    k >= 0 of x M^k 1 = x v and of (k + 1) x M^k 1 = x w.  Every term is a
    product of nonnegative numbers, so nothing cancels as reset -> 0.
    """
    _, p_ib, p_bi, _ = channel
    det = p_bi * reset
    m_ii, m_ib, m_bi, m_bb = p_bi / det, p_ib / det, p_bi / det, (p_ib + reset) / det
    v0, v1 = m_ii + m_ib, m_bi + m_bb
    return (m_ii, m_ib, m_bi, m_bb), (v0, v1), (m_ii * v0 + m_ib * v1, m_bi * v0 + m_bb * v1)


def _walk(rates: PuRates, ok: float, runs, age: int = 0):
    """Mass, average age and state at ``age`` of a run-length policy.

    ``runs`` lists (length, p) from age 1: transmit w.p. p at the run's idle
    ages.  The last run holds for every older age and must transmit.  From
    unit mass at (1, idle), x = (theta_idle, theta_busy) crosses a wait run
    (p = 0) in closed form, x P^L, each age holding the mass x enters with;
    a finite transmit run age by age by M = [[p_II - p ok, p_IB], [p_BI,
    p_BB]] (the package's only one is the mixed policy's boundary age, so
    there is no repeated squaring); the last run by (I - M)^-1 from
    :func:`_tail`.  A run costs a few roundings whatever its length.  Returns
    the mass 1 / theta_(1,0), which is the mean renewal length, the average
    age and the normalized state at ``age`` (None unless age >= 1).
    """
    channel = slot_transition_matrix(rates)
    p_ii, p_ib, p_bi, p_bb = channel
    x0, x1 = 1.0, 0.0
    start = 1  # first age of the current run
    mass = age_sum = 0.0
    state = None
    for length, p in runs[:-1]:
        if length == 0:  # the mixed policy at gamma1 = 1 waits at no age
            continue
        if p == 0.0:
            if 0 <= age - start < length:
                state = _advance(x0, x1, *transition_matrix_power(rates, age - start))
            mass += (x0 + x1) * length
            age_sum += (x0 + x1) * length * (start + 0.5 * (length - 1))
            x0, x1 = _advance(x0, x1, *transition_matrix_power(rates, length))
        else:
            for d in range(start, start + length):
                if d == age:
                    state = x0, x1
                mass += x0 + x1
                age_sum += d * (x0 + x1)
                x0, x1 = _advance(x0, x1, p_ii - p * ok, p_ib, p_bi, p_bb)
        start += length
    p = runs[-1][1]
    if age >= start:
        block = np.array([[p_ii - p * ok, p_ib], [p_bi, p_bb]])
        state = (np.array((x0, x1)) @ np.linalg.matrix_power(block, age - start)).tolist()
    # the tail's mass is x v and its age sum x w + (start - 1) x v
    _, (v0, v1), (w0, w1) = _tail(channel, p * ok)
    tail_mass = x0 * v0 + x1 * v1
    mass += tail_mass
    age_sum += x0 * w0 + x1 * w1 + (start - 1) * tail_mass
    if state is not None:
        state = state[0] / mass, state[1] / mass
    return mass, age_sum / mass, state


def _mixed_walk(m: tuple, gamma1: int, mu: float, age: int = 0):
    """:func:`_walk` of the policy transmitting w.p. mu at (gamma1, idle), always past gamma1."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    _, _, _, success, _, _, _, _, rates = m
    runs = ((_check_gamma(gamma1) - 1, 0.0), (1, mu), (math.inf, 1.0))
    return _walk(rates, success, runs, age)


def mixed_policy_steady_state(
    params: SystemModel, gamma1: int, mu: float, delta: int
) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) under the boundary-randomized policy.

    Transmit with probability mu at (gamma1, idle), always at ages > gamma1.
    mu=1 is the pure threshold gamma1, mu=0 the threshold gamma1+1.
    """
    return _mixed_walk(_scalars(params), gamma1, mu, _check_gamma(delta, "age"))[2]


def _metrics(m: tuple, gamma1: int, mu: float) -> tuple[float, float]:
    _, _, _, success, collision, _, _, _, _ = m
    mass, aoi, _ = _mixed_walk(m, gamma1, mu)
    if aoi == math.inf:
        raise ValueError(f"the average age overflows a float at threshold {float(gamma1):.3g}")
    return aoi, collision / (success * mass)


def mixed_policy_metrics(params: SystemModel, gamma1: int, mu: float) -> tuple[float, float]:
    """(average age, per-slot collision probability) of the randomized policy."""
    return _metrics(_scalars(params), gamma1, mu)


def collision_probability(gamma: int, params: SystemModel) -> float:
    """Per-slot collision probability psi_s of the threshold policy."""
    gamma = _check_gamma(gamma)
    return _psi(_scalars(params), gamma)


def average_aoi_series(gamma: int, params: SystemModel) -> float:
    """Average age from the stationary distribution, geometric tail in closed form."""
    return mixed_policy_metrics(params, gamma, 1.0)[0]


_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function via Halley iteration."""
    if not (-_INV_E <= x < math.inf):  # NaN fails too
        raise ValueError(f"lambert_w0 domain is finite x >= -1/e, got {x}")
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
    if not g_real < math.inf:
        raise ValueError(
            f"the threshold overflows a float: success probability (1 - phi_s) e^-alpha = "
            f"{success:.3g} is too small for the budget eta_s={eta}"
        )
    if g_real >= 2.0**53:
        raise ValueError(
            f"the threshold {g_real:.3g} is past 2**53, where floats no longer tell "
            f"consecutive integers apart, so no bracket can be checked at eta_s={eta}"
        )
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
