"""Closed-form analysis of threshold and randomized-threshold access policies.

Under a threshold policy the device transmits whenever the channel is sensed
idle and the current age is at least Gamma.  The induced age/occupancy chain
has a stationary distribution with an explicit form: below the threshold the
occupancy simply mixes under the slot transition matrix, and at/above the
threshold the pair (theta_idle, theta_busy) follows a two-term geometric
recursion whose constants come from the eigendecomposition of the modified
transition matrix.  Everything here is exact up to floating point: geometric
tails are summed in closed form, never truncated.

The randomized policy transmits with probability mu at the boundary age
Gamma1 and always past it; a threshold policy is the randomized one at
mu = 1.  One normalizer, one stationary-state routine and one metrics
routine serve both, so the two can never disagree by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (
    PuRates,
    convert_collision_budget,
    expected_cycle_length,
    slot_transition_matrix,
)


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
        return cls(rates=rates, phi_s=phi_s, eta_s=convert_collision_budget(rates, eta_p, "pu_to_siot"))

    @property
    def eta_p(self) -> float:
        return self.eta_s * expected_cycle_length(self.rates)

    @property
    def success_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot succeeds."""
        return (1.0 - self.phi_s) * math.exp(-self.rates.alpha)


@dataclass(frozen=True)
class SpectralConstants:
    """Eigendecomposition constants of the transmit-region transition matrix.

    For ages where transmission happens with per-slot reset probability
    ``reset_prob``, the row vector (theta_idle, theta_busy) is propagated by
    M = [[A, p_IB], [p_BI, p_BB]] with A = p_II - reset_prob.  Its eigenvalues
    are b and d, both inside the unit disc whenever reset_prob > 0, which is
    what makes the stationary tail geometric.
    """

    A: float
    m: float
    a: float
    b: float
    c: float
    d: float
    p_BI: float

    @classmethod
    def for_reset_prob(cls, rates: PuRates, reset_prob: float) -> "SpectralConstants":
        sig = slot_transition_matrix(rates)
        A = sig.p_II - reset_prob
        p_BI, p_IB = sig.p_BI, sig.p_IB
        m = math.sqrt((A + p_BI) * (A + p_BI - 2.0) + 1.0 + 4.0 * p_BI * p_IB)
        a = (A + p_BI + m - 1.0) / (2.0 * p_BI)
        b = (A - p_BI + m + 1.0) / 2.0
        c = (A + p_BI - m - 1.0) / (2.0 * p_BI)
        d = (A - p_BI - m + 1.0) / 2.0
        if not (abs(b) < 1.0 and abs(d) < 1.0):
            raise ValueError(
                f"geometric tail does not converge: eigenvalues b={b}, d={d} "
                f"(reset probability {reset_prob})"
            )
        return cls(A=A, m=m, a=a, b=b, c=c, d=d, p_BI=p_BI)

    def state_at(self, t0: float, t1: float, k: int) -> tuple[float, float]:
        """(theta_idle, theta_busy) k slots past the boundary vector (t0, t1)."""
        f = self.p_BI / self.m
        bk, dk = self.b**k, self.d**k
        th0 = f * (t0 * (self.a * bk - self.c * dk) + t1 * (bk - dk))
        th1 = f * (t0 * self.a * self.c * (dk - bk) + t1 * (self.a * dk - self.c * bk))
        return th0, th1

    def geometric_coefficients(self, t0: float, t1: float) -> tuple[float, float]:
        """Coefficients (Cb, Cd) with theta_idle + theta_busy = Cb*b^k + Cd*d^k."""
        f = self.p_BI / self.m
        cb = f * (t0 * self.a * (1.0 - self.c) + t1 * (1.0 - self.c))
        cd = f * (t0 * self.c * (self.a - 1.0) + t1 * (self.a - 1.0))
        return cb, cd

    def tail_mass(self, t0: float, t1: float) -> float:
        """Sum over k >= 0 of theta_idle(k) + theta_busy(k)."""
        cb, cd = self.geometric_coefficients(t0, t1)
        return cb / (1.0 - self.b) + cd / (1.0 - self.d)

    def tail_age_sum(self, t0: float, t1: float, base_age: int) -> float:
        """Sum over k >= 0 of (base_age + k) * (theta_idle(k) + theta_busy(k))."""
        cb, cd = self.geometric_coefficients(t0, t1)
        b, d = self.b, self.d
        return cb * (base_age / (1.0 - b) + b / (1.0 - b) ** 2) + cd * (
            base_age / (1.0 - d) + d / (1.0 - d) ** 2
        )


def _check_gamma(gamma: int) -> int:
    if gamma != int(gamma) or gamma < 1:
        raise ValueError(f"threshold must be an integer >= 1, got {gamma}")
    return int(gamma)


def _normalizer(params: SystemParams, gamma1: int, mu: float) -> float:
    """1 / theta_(1,0) of the policy transmitting w.p. mu at (gamma1, idle), always past gamma1.

    With N(G) = G - 1 + s/(beta*success) + alpha(1 - e^(-s(G-1)))/((1 - e^-s)beta)
    for the threshold G, it is affine in mu like the boundary vector:
    N(gamma1 + 1) at mu = 0 and N(gamma1) at mu = 1.
    """
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    upper = (
        gamma1
        + s / (be * params.success_prob)
        + al / ((1.0 - math.exp(-s)) * be) * (1.0 - math.exp(-s * gamma1))
    )
    return upper - mu * (1.0 + al * math.exp(-s * (gamma1 - 1.0)) / be)


def theta_1_0(gamma: int, params: SystemParams) -> float:
    """Stationary probability of the post-success state (age 1, channel idle)."""
    return 1.0 / _normalizer(params, _check_gamma(gamma), 1.0)


def _below_threshold_state(params: SystemParams, t10: float, delta: int) -> tuple[float, float]:
    # occupancy mixes for delta - 1 slots starting from (t10, 0)
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    e = math.exp(-s * (delta - 1.0))
    return t10 * (be + al * e) / s, t10 * (al - al * e) / s


def _stationary(params: SystemParams, gamma1: int, mu: float):
    """theta_(1,0), and the tail: spectral constants and the boundary vector at age gamma1+1.

    The boundary vector is per unit theta_(1,0).  The tail mass it implies
    must agree with the explicit normalizer; a disagreement beyond 1e-9 is
    an internal inconsistency (digits lost in the spectral constants).
    """
    gamma1 = _check_gamma(gamma1)
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    # occupancy mixing to age gamma1 + 1, less the resets at (gamma1, idle)
    t0, t1 = _below_threshold_state(params, 1.0, gamma1 + 1)
    t0 -= mu * params.success_prob * _below_threshold_state(params, 1.0, gamma1)[0]
    spec = SpectralConstants.for_reset_prob(params.rates, params.success_prob)
    t10 = 1.0 / _normalizer(params, gamma1, mu)
    # each age level up to gamma1 carries total mass t10
    mass = t10 * (gamma1 + spec.tail_mass(t0, t1))
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"stationary distribution normalizes to {mass}, not 1")
    return t10, spec, t0, t1


def mixed_policy_steady_state(
    params: SystemParams, gamma1: int, mu: float, delta: int
) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) under the boundary-randomized policy.

    Transmit with probability mu at (gamma1, idle), always at ages > gamma1.
    mu=1 is the pure threshold gamma1, mu=0 the threshold gamma1+1.
    """
    if delta < 1:
        raise ValueError(f"age must be >= 1, got {delta}")
    t10, spec, t0, t1 = _stationary(params, gamma1, mu)
    if delta <= gamma1:
        return _below_threshold_state(params, t10, delta)
    th0, th1 = spec.state_at(t0, t1, delta - gamma1 - 1)
    return t10 * th0, t10 * th1


def mixed_policy_metrics(params: SystemParams, gamma1: int, mu: float) -> tuple[float, float]:
    """(average age, per-slot collision probability) of the randomized policy."""
    t10, spec, t0, t1 = _stationary(params, gamma1, mu)
    aoi = t10 * (gamma1 * (gamma1 + 1.0) / 2.0 + spec.tail_age_sum(t0, t1, gamma1 + 1))
    psi = t10 * (1.0 - math.exp(-params.rates.alpha)) / params.success_prob
    return aoi, psi


def steady_state(gamma: int, params: SystemParams, delta: int) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) at the given age under threshold gamma."""
    return mixed_policy_steady_state(params, gamma, 1.0, delta)


def collision_probability(gamma: int, params: SystemParams) -> float:
    """Per-slot collision probability psi_s of the threshold policy."""
    al = params.rates.alpha
    return theta_1_0(gamma, params) * (1.0 - math.exp(-al)) / params.success_prob


def average_aoi_series(gamma: int, params: SystemParams) -> float:
    """Average age from the stationary distribution, geometric tail in closed form."""
    return mixed_policy_metrics(params, gamma, 1.0)[0]


def average_aoi_closed_form(gamma: int, params: SystemParams) -> float:
    """Single-expression average age of the threshold policy.

    Note on the form used here: this reduction is easy to get wrong by a
    sign (exp(-alpha+beta) where the derivation yields exp(-(alpha+beta)))
    or by dropping the alpha in exp(alpha) inside the constant term.  The
    version below was frozen after matching :func:`average_aoi_series` to
    better than 1e-9 relative on a 20-point parameter grid, which the tests
    keep checking.
    """
    gamma = _check_gamma(gamma)
    al, be = params.rates.alpha, params.rates.beta
    phi = params.phi_s
    s = al + be
    E = math.exp(-s)
    ea = math.exp(al)
    es = math.exp(s)
    xi = (
        (s * ea + al * (1.0 - phi)) ** 2 / (be**2 * (1.0 - phi) ** 2)
        - s * ea / (be * (1.0 - phi))
        + (2.0 * al * s * (ea + 1.0 - phi) / (be**2 * (1.0 - phi)) - al / be) / (es - 1.0)
        + al * s / (be**2 * (es - 1.0) ** 2)
    )
    num = (
        gamma * (gamma - 1.0) / 2.0
        - (1.0 - s / (be * (1.0 - E)) - s / (be * math.exp(-al) * (1.0 - phi)))
        * al
        * math.exp(-s * (gamma - 1.0))
        / (be * (1.0 - E))
        - xi
    )
    den = (
        gamma
        - 1.0
        + s / (be * math.exp(-al) * (1.0 - phi))
        + al / ((1.0 - E) * be) * (1.0 - math.exp(-s * (gamma - 1.0)))
    )
    return gamma - num / den


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


def optimal_thresholds(params: SystemParams) -> tuple[int, int]:
    """Consecutive thresholds bracketing the collision budget.

    Returns (Gamma1, Gamma2) with psi_s(Gamma1) >= eta_s >= psi_s(Gamma2) and
    Gamma2 - Gamma1 in {0, 1}.  If even the most aggressive threshold (1)
    satisfies the budget, the constraint is slack and (1, 1) is returned.
    Solving psi_s(Gamma) = eta_s for real Gamma reduces to a Lambert W
    evaluation; the floor/ceil pair is then re-verified against
    :func:`collision_probability`, which is the contract.
    """
    eta = params.eta_s
    if collision_probability(1, params) <= eta:
        return 1, 1
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    k = al / (be * (1.0 - math.exp(-s)))
    b_term = s / (be * params.success_prob)
    tau = eta * params.success_prob / (1.0 - math.exp(-al))  # theta_(1,0) at the budget
    r = 1.0 / tau - b_term - k
    g_real = 1.0 + r + lambert_w0(s * k * math.exp(-s * r)) / s
    g1, g2 = int(math.floor(g_real)), int(math.ceil(g_real))
    g1 = max(g1, 1)
    g2 = max(g2, g1)
    if not (collision_probability(g1, params) >= eta >= collision_probability(g2, params)):
        raise ValueError(
            f"threshold bracket verification failed at (G1, G2)=({g1}, {g2}); "
            "Lambert W argument is numerically suspect for these parameters"
        )
    return g1, g2


def randomization_mu(params: SystemParams, gamma1: int) -> float:
    """Mixing probability applied at the boundary age gamma1 (idle).

    The reciprocal collision probability of the boundary-randomized policy is
    linear in mu, so the binding value interpolates 1/psi_s between the two
    consecutive thresholds: exactly 1 at eta_s = psi_s(gamma1) and exactly
    +0 at eta_s = psi_s(gamma1 + 1).  An equivalent fully expanded single
    expression exists and is cross-checked in the tests.
    """
    gamma1 = _check_gamma(gamma1)
    eta = params.eta_s
    psi1 = collision_probability(gamma1, params)
    psi2 = collision_probability(gamma1 + 1, params)
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
    exactly) is the mixed policy at mu = 1.
    """
    g1, g2 = optimal_thresholds(params)
    mu = 1.0 if g1 == g2 else randomization_mu(params, g1)
    aoi, psi = mixed_policy_metrics(params, g1, mu)
    binds = g1 != g2 or math.isclose(psi, params.eta_s, rel_tol=1e-12)
    return AgeOptimalPolicy(gamma1=g1, gamma2=g2, mu=mu, avg_aoi=aoi, psi_s=psi, constraint_binds=binds)
