"""Closed-form analysis of threshold and randomized-threshold access policies.

Under a threshold policy the device transmits whenever the channel is sensed
idle and the current age is at least Gamma.  A success renews the process at
(1, idle), so a policy's metrics are ratios of renewal sums: the expected
slots T and age sum A from (1, idle) to the next success give the average
age A / T, and by Wald's identity psi_s = (collision / success) / T.  At and
above the threshold the pair (theta_idle, theta_busy) moves by one 2x2 block
M of the transition matrix less the resets, so the tail's sums are read off
(I - M)^-1, which :func:`_tail` applies; below it the occupancy only mixes,
and :func:`_wait_sums` crosses the whole wait run in closed form.  The CMDP
solver's Poisson solve takes both steps from here.  Everything here is exact
up to floating point: geometric tails are summed in closed form, never
truncated, and no sum cancels.

The randomized policy transmits with probability mu at the boundary age
Gamma1 and always past it; a threshold policy is the randomized one at
mu = 1.  It randomizes once per renewal, so its renewal sums are the
mu-mixture of those of Gamma1 and Gamma1 + 1 (renewal-reward), and the
age-optimal policy evaluates each bracketing threshold once, for the
bracket, mu and the metrics.  :func:`_bracket_policy` is the one step from
a bracket and its renewal sums to the policy record: the closed form and
the solver's multiplier search both end there.  :func:`_runs`, the
package's one split of a table into runs of constant p, feeds the solver,
the replay and :func:`_walk`, the forward evaluator of runs and of per-age
states, which holds the model's one-step dynamics.  Only the functions that meet the budget take
:class:`SystemParams`; the rest take a :class:`SystemModel`, which has
none.  The model caches nothing.  :func:`_scalars` is the one place that
forms and checks an instance: every evaluator here, in the solver and in
the baseline reads its success and collision probabilities and its
one-slot occupancy block from it, so each raises the same domain error.
Wait runs take their P^L from the channel's private core ``_occupancy``,
as plain tuples; no evaluator builds the public, validated matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import PuRates, _occupancy, convert_collision_budget


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
        """Probability a transmission from an idle-sensed slot succeeds.

        It succeeds if the PU stays idle through the slot and the device has
        no outage.
        """
        return (1.0 - self.phi_s) * math.exp(-self.rates.alpha)

    @property
    def collision_prob(self) -> float:
        """Probability a transmission from an idle-sensed slot collides with the PU's return."""
        # 1 - e^-alpha by expm1: no cancellation for small alpha
        return -math.expm1(-self.rates.alpha)


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
    """The model scalars of one instance, formed and checked once per public call.

    (alpha, beta, s, success, collision, s/(beta*success), expm1(-s), slot,
    tail) with s = alpha + beta, slot the one-slot occupancy block
    (p_II, p_IB, p_BI, p_BB) and tail the (v, w) of :func:`_tail` at reset
    ``success``, which every threshold's renewal sums share.
    s/(beta*success) is the mean time between successes of threshold 1, the
    shortest any policy has; when it is no float, as when e^-alpha
    underflows, the instance has no average age to compute, and this
    raises.  A plain tuple that lives only for that call: nothing caches it
    on the model, so a sweep that keeps many models alive holds no extra
    memory.
    """
    al, be = params.rates.alpha, params.rates.beta
    s = al + be
    success = params.success_prob
    b_term = s / (be * success) if be * success > 0.0 else math.inf
    if b_term == math.inf:
        raise ValueError(
            f"success probability (1 - phi_s) e^-alpha = {success:.3g} is too small: "
            f"the mean renewal time s/(beta*success) overflows at alpha={al}, beta={be}"
        )
    slot = _occupancy(al, be, s, 1.0)
    tail = _tail(slot, success)
    return al, be, s, success, params.collision_prob, b_term, math.expm1(-s), slot, tail


def _advance(x0: float, x1: float, p_ii: float, p_ib: float, p_bi: float, p_bb: float):
    # the row vector (x0, x1) times [[p_ii, p_ib], [p_bi, p_bb]]
    return x0 * p_ii + x1 * p_bi, x0 * p_ib + x1 * p_bb


def _tail(channel: tuple, reset: float):
    """(v, w) = ((I - M)^-1 1, (I - M)^-1 v), M = [[p_II - reset, p_IB], [p_BI, p_BB]], reset > 0.

    M is one age step of (theta_idle, theta_busy) when an idle-sensed slot
    resets the age with mass ``reset``.  (I - M)^-1 is the fundamental
    matrix of the transient age chain (Kemeny & Snell 1960).  Its
    determinant is exactly p_BI times reset, since both rows of the
    occupancy matrix sum to one; forming it by products would cancel.  A
    row vector x has sums over k >= 0 of x M^k 1 = x v and of
    (k + 1) x M^k 1 = x w.  Every term is a product of nonnegative numbers,
    so nothing cancels as reset -> 0.
    """
    _, p_ib, p_bi, _ = channel
    det = p_bi * reset
    m_ii, m_ib, m_bi, m_bb = p_bi / det, p_ib / det, p_bi / det, (p_ib + reset) / det
    v0, v1 = m_ii + m_ib, m_bi + m_bb
    return (v0, v1), (m_ii * v0 + m_ib * v1, m_bi * v0 + m_bb * v1)


def _wait_sums(al: float, be: float, s: float, length: int, end: int, sums: tuple) -> tuple:
    """Renewal sums at age end - length + 1 from those at end + 1, across a wait run.

    ``sums`` is (T_idle, T_busy, A_idle, A_busy): the expected slots and age
    sum to the next success from each occupancy at age end + 1.  Waiting,
    the occupancy only mixes, so the run's ``length`` ages add their count to
    T and their sum to A and hand on P^L of the sums past them, P^L by the
    channel's occupancy core from alpha, beta and s = alpha + beta.  Every
    term is nonnegative, so nothing cancels at any length.  The closed form
    and the solver's Poisson solve both cross wait runs here.
    """
    t_i, t_b, a_i, a_b = sums
    q_ii, q_ib, q_bi, q_bb = _occupancy(al, be, s, length)
    ages = length * (end + 0.5 - 0.5 * length)  # ages end - length + 1..end
    return (
        length + q_ii * t_i + q_ib * t_b,
        length + q_bi * t_i + q_bb * t_b,
        ages + q_ii * a_i + q_ib * a_b,
        ages + q_bi * a_i + q_bb * a_b,
    )


def _threshold_sums(m: tuple, gamma: int) -> tuple[float, float]:
    """(T, A) of the threshold gamma: expected slots and age sum from (1, idle) to the next success.

    From age gamma on the policy transmits, so there T = v and
    A = (gamma - 1) v + w by the shared tail; the wait run of ages
    1..gamma - 1 before it is crossed by :func:`_wait_sums`.  T is the mean
    renewal length 1 / theta_(1,0), so psi_s = (collision / success) / T by
    Wald's identity, and A / T is the average age (renewal-reward).
    """
    al, be, s, _, _, _, _, _, ((v0, v1), (w0, w1)) = m
    sums = (v0, v1, (gamma - 1) * v0 + w0, (gamma - 1) * v1 + w1)
    if gamma > 1:
        sums = _wait_sums(al, be, s, gamma - 1, gamma - 1, sums)
    return sums[0], sums[2]


def _mixture(k: float, gamma1: int, mu: float, lo: tuple, hi: tuple) -> tuple[float, float]:
    """(average age, psi_s) of the policy mixing the renewal sums lo of gamma1 and hi of gamma1 + 1.

    It randomizes once per renewal, at (gamma1, idle), so its renewal is in
    law the mu-mixture of the two thresholds' and holds k collisions.
    """
    slots = mu * lo[0] + (1.0 - mu) * hi[0]
    return _finite_age((mu * lo[1] + (1.0 - mu) * hi[1]) / slots, gamma1), k / slots


def _finite_age(aoi: float, gamma: int) -> float:
    """``aoi`` if it is a float; else the one error for an average age that overflows."""
    if not aoi < math.inf:  # an overflowing age sum; 0 * inf mixes to NaN
        raise ValueError(f"the average age overflows a float at threshold {float(gamma):.3g}")
    return aoi


def _finite_mass(mass: float, p: float, start: int, ok: float) -> float:
    """``mass`` if it is a float; else the one error for a mean renewal time that overflows."""
    if not mass < math.inf:  # an overflowing tail; 0 * inf mixes to NaN
        raise ValueError(
            f"the mean renewal time overflows a float: transmitting w.p. {p:.3g} from age "
            f"{start} resets the age too rarely at success probability {ok:.3g}"
        )
    return mass


def _runs(table) -> list[tuple[float, float]]:
    """A policy table as runs ((length, p), ..., (inf, p_last)) of constant p from age 1.

    Older ages reuse the table's last entry.  One comparison of neighbouring
    entries splits it and equal neighbours merge, so every finite run holds
    an age, neighbouring runs differ in p, and the last run begins at the
    head length n, from which the action holds for every older age.
    """
    table = np.asarray(table)
    firsts = [0, *(np.flatnonzero(table[1:] != table[:-1]) + 1).tolist()]
    ps = table[firsts].tolist()
    return [*zip([b - a for a, b in zip(firsts, firsts[1:])], ps), (math.inf, ps[-1])]


def _walk(m: tuple, runs, age: int = 0):
    """Mass, average age and state at ``age`` of a run-length policy on the instance ``m``.

    ``m`` is :func:`_scalars`' tuple.  ``runs`` lists (length, p) from age
    1: transmit w.p. p at the run's idle ages.  The last run holds for every
    older age and must transmit.  From unit mass at (1, idle),
    x = (theta_idle, theta_busy) crosses a wait run (p = 0) in closed form,
    x P^L with P^L by the channel's core ``_occupancy``, each age holding
    the mass x enters with; a finite transmit run age by age by
    M = [[p_II - p ok, p_IB], [p_BI, p_BB]] from ``m``'s one-slot block (the
    package's only one is the mixed policy's boundary age, so there is no
    repeated squaring); the last run by (I - M)^-1 from :func:`_tail`.  A
    run costs a few roundings whatever its length.  Returns the mass
    1 / theta_(1,0), which is the mean renewal length, the average age and
    the normalized state at ``age`` (None unless age >= 1).  A mass that is
    no finite float, as when the last run transmits too rarely, raises; the
    caller checks the average age, which a state read does not need.
    """
    al, be, s, ok, _, _, _, slot, _ = m
    p_ii, p_ib, p_bi, p_bb = slot
    x0, x1 = 1.0, 0.0
    start = 1  # first age of the current run
    mass = age_sum = 0.0
    state = None
    for length, p in runs[:-1]:
        if p == 0.0:
            if 0 <= age - start < length:
                state = _advance(x0, x1, *_occupancy(al, be, s, age - start))
            mass += (x0 + x1) * length
            age_sum += (x0 + x1) * length * (start + 0.5 * (length - 1))
            x0, x1 = _advance(x0, x1, *_occupancy(al, be, s, length))
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
    (v0, v1), (w0, w1) = _tail(slot, p * ok)
    tail_mass = x0 * v0 + x1 * v1
    mass = _finite_mass(mass + tail_mass, p, start, ok)
    age_sum += x0 * w0 + x1 * w1 + (start - 1) * tail_mass
    if state is not None:
        state = state[0] / mass, state[1] / mass
    return mass, age_sum / mass, state


def _check_mu(mu: float) -> float:
    if not (0.0 <= mu <= 1.0):  # NaN fails too
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return mu


def _check_p0(p0: float) -> float:
    if not (0.0 < p0 <= 1.0):  # NaN fails too
        raise ValueError(f"p0 must be in (0, 1], got {p0}")
    return p0


def mixed_policy_steady_state(
    params: SystemModel, gamma1: int, mu: float, delta: int
) -> tuple[float, float]:
    """Stationary (theta_idle, theta_busy) under the boundary-randomized policy.

    Transmit with probability mu at (gamma1, idle), always at ages > gamma1.
    mu=1 is the pure threshold gamma1, mu=0 the threshold gamma1+1.  A state
    read, so :func:`_walk` carries the state forward through the policy's
    three runs.
    """
    m = _scalars(params)
    # at gamma1 = 1 the wait run has no ages: P^0 is exactly the identity, and it adds 0
    runs = ((_check_gamma(gamma1) - 1, 0.0), (1, _check_mu(mu)), (math.inf, 1.0))
    return _walk(m, runs, _check_gamma(delta, "age"))[2]


def mixed_policy_metrics(params: SystemModel, gamma1: int, mu: float) -> tuple[float, float]:
    """(average age, per-slot collision probability) of the randomized policy.

    The mu-mixture of the renewal sums of the thresholds gamma1 and gamma1 + 1;
    mu = 1 needs only the first.
    """
    m = _scalars(params)
    gamma1, mu = _check_gamma(gamma1), _check_mu(mu)
    lo = _threshold_sums(m, gamma1)
    hi = lo if mu == 1.0 else _threshold_sums(m, gamma1 + 1)
    _, _, _, success, collision, _, _, _, _ = m
    return _mixture(collision / success, gamma1, mu, lo, hi)


def collision_probability(gamma: int, params: SystemModel) -> float:
    """Per-slot collision probability psi_s of the threshold policy."""
    m = _scalars(params)
    _, _, _, success, collision, _, _, _, _ = m
    return collision / success / _threshold_sums(m, _check_gamma(gamma))[0]


def average_aoi_series(gamma: int, params: SystemModel) -> float:
    """Average age of the threshold policy, its geometric tail in closed form."""
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


def _thresholds(m: tuple, eta: float) -> tuple[int, int, tuple, tuple]:
    """(Gamma1, Gamma2, sums(Gamma1), sums(Gamma2)); see :func:`optimal_thresholds`.

    Each bracketing threshold is evaluated once, as its renewal sums (T, A)
    from :func:`_threshold_sums`: psi_s = (collision / success) / T verifies
    the bracket, and the sums are returned for mu and the metrics.
    """
    al, be, s, success, collision, b_term, expm1_s, _, _ = m
    one = _threshold_sums(m, 1)
    if collision / success / one[0] <= eta:
        return 1, 1, one, one
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
    lo = _threshold_sums(m, g1)
    hi = lo if g2 == g1 else _threshold_sums(m, g2)
    if not (collision / success / lo[0] >= eta >= collision / success / hi[0]):
        raise ValueError(
            f"threshold bracket verification failed at (G1, G2)=({g1}, {g2}); "
            "Lambert W argument is numerically suspect for these parameters"
        )
    return g1, g2, lo, hi


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


class AgeOptimalPolicy(NamedTuple):
    """The age-optimal policy and its exact performance, built by :func:`_bracket_policy`."""

    gamma1: int
    gamma2: int
    mu: float
    avg_aoi: float
    psi_s: float
    constraint_binds: bool


def _bracket_policy(
    eta: float, k: float, gamma1: int, gamma2: int, lo: tuple, hi: tuple
) -> AgeOptimalPolicy:
    """The policy mixing the bracket gamma1, gamma2 by the mu that meets the budget eta.

    ``lo`` and ``hi`` are the bracket's renewal sums (T, A), and
    k = collision / success the collisions per renewal, so psi_s = k / T.
    A single threshold (the budget is slack at threshold 1, or met exactly)
    is the mixed policy at mu = 1, and binds only if its psi_s is eta to
    rounding.  The closed form and the multiplier search both end here.
    """
    mu = 1.0 if gamma1 == gamma2 else _mu(eta, gamma1, k / lo[0], k / hi[0])
    aoi, psi = _mixture(k, gamma1, mu, lo, hi)
    binds = gamma1 != gamma2 or math.isclose(psi, eta, rel_tol=1e-12)
    return AgeOptimalPolicy(gamma1, gamma2, mu, aoi, psi, binds)


def age_optimal_policy(params: SystemParams) -> AgeOptimalPolicy:
    """Compute the age-optimal randomized threshold policy for the instance.

    The instance's scalars are formed once, and each bracketing threshold is
    evaluated once: its renewal sums verify the bracket and go on to
    :func:`_bracket_policy`, which gives mu and the policy's metrics.
    """
    m = _scalars(params)
    g1, g2, lo, hi = _thresholds(m, params.eta_s)
    _, _, _, success, collision, _, _, _, _ = m
    return _bracket_policy(params.eta_s, collision / success, g1, g2, lo, hi)
