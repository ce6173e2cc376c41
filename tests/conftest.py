"""Shared oracles and parameter grids for the test suite.

The oracles here are deliberately independent of the package internals: the
slot transition matrix comes from a matrix exponential, stationary
distributions and Poisson equations come from direct sparse solves on an
explicitly assembled chain, the threshold policy's average age has the
paper's single-expression form, deep thresholds are checked against a
34-digit decimal recursion, thresholds come from brute-force scans, and
simulator replays come from a slot-by-slot loop.  Closed forms and the event-skipping replay in the
package are correct exactly when they agree with these.
"""

from __future__ import annotations

import decimal
import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import strategies as st

from craoi import IDLE, PuRates, SimResult, SystemModel, SystemParams, split_seed
from perfbench.workloads import SWEEP_DOMAIN


def sweep_domain(key: str):
    """Floats over one parameter of the benchmark's closed-form fuzz domain."""
    lo, hi, log = SWEEP_DOMAIN[key]
    return st.floats(math.log(lo), math.log(hi)).map(math.exp) if log else st.floats(lo, hi)


def expm_transition(rates: PuRates, t: float = 1.0) -> np.ndarray:
    """Slot occupancy transition matrix via the matrix exponential of the generator."""
    q = np.array([[-rates.alpha, rates.alpha], [rates.beta, -rates.beta]])
    return scipy.linalg.expm(q * t)


def build_chain(params: SystemModel, tx_probs, delta_max: int) -> scipy.sparse.csr_matrix:
    """Assemble the age/occupancy chain for per-age idle transmit probabilities.

    States are indexed 2*(delta-1) + occupancy for delta = 1..delta_max; the
    age self-clamps at delta_max, and ages past the table reuse its last
    entry.  Built from first principles (matrix exponential plus the literal
    one-step dynamics), not from package code.
    """
    sig = expm_transition(params.rates)
    succ = (1.0 - params.phi_s) * math.exp(-params.rates.alpha)
    rows, cols, vals = [], [], []

    def idx(d, u):
        return 2 * (d - 1) + u

    for d in range(1, delta_max + 1):
        dn = min(d + 1, delta_max)
        p = float(tx_probs[min(d, len(tx_probs)) - 1])
        # idle-sensed slot: transmit with probability p
        rows += [idx(d, 0)] * 3
        cols += [idx(1, 0), idx(dn, 0), idx(dn, 1)]
        vals += [p * succ, sig[0, 0] - p * succ, sig[0, 1]]
        # busy-sensed slot: never transmit
        rows += [idx(d, 1)] * 2
        cols += [idx(dn, 0), idx(dn, 1)]
        vals += [sig[1, 0], sig[1, 1]]
    n = 2 * delta_max
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def stationary_solve(P: scipy.sparse.csr_matrix) -> np.ndarray:
    """Stationary distribution of P by one direct sparse solve.

    The equations pi (P - I) = 0 sum to zero, so the first one is replaced
    by pi_0 = 1 and the solution is then divided by its sum.  State 0 is
    (1, idle), which every success enters, so it holds mass whenever the
    policy transmits.  (A row of ones in its place would fill the sparse LU
    factors in.)
    """
    n = P.shape[0]
    eqs = (P - scipy.sparse.identity(n)).T.tocsr()[1:]
    pin = scipy.sparse.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
    b = np.zeros(n)
    b[0] = 1.0
    pi = scipy.sparse.linalg.spsolve(scipy.sparse.vstack([pin, eqs], format="csc"), b)
    return pi / pi.sum()


def oracle_stationary(params: SystemModel, tx_probs, delta_max: int) -> np.ndarray:
    """Stationary distribution of the assembled chain, shape (delta_max, 2)."""
    dist = stationary_solve(build_chain(params, tx_probs, delta_max))
    return dist.reshape(delta_max, 2)


def oracle_metrics(params: SystemModel, tx_probs, delta_max: int):
    """(average age, per-slot collision probability) from the oracle chain."""
    dist = oracle_stationary(params, tx_probs, delta_max)
    deltas = np.arange(1, delta_max + 1)
    probs = np.asarray(
        [tx_probs[min(d, len(tx_probs)) - 1] for d in deltas], dtype=float
    )
    aoi = float((deltas * dist.sum(axis=1)).sum())
    psi = float((dist[:, 0] * probs).sum() * (1.0 - math.exp(-params.rates.alpha)))
    return aoi, psi


def oracle_poisson(params: SystemModel, tx_probs, lam: float, delta_max: int):
    """Gain and per-age (idle, busy) bias of the assembled chain under cost age + lam * collisions.

    Solves h + g = c + P h with h(1, idle) = 0 as one sparse linear system
    in (h, g).
    """
    P = build_chain(params, tx_probs, delta_max)
    n = P.shape[0]
    deltas = np.arange(1, delta_max + 1, dtype=float)
    probs = np.asarray(
        [tx_probs[min(d, len(tx_probs)) - 1] for d in range(1, delta_max + 1)], dtype=float
    )
    costs = np.empty(n)
    costs[0::2] = deltas + lam * probs * (1.0 - math.exp(-params.rates.alpha))
    costs[1::2] = deltas
    ref = np.zeros((1, n + 1))
    ref[0, 0] = 1.0
    a = scipy.sparse.vstack(
        [scipy.sparse.hstack([scipy.sparse.identity(n) - P, np.ones((n, 1))]), ref],
        format="csc",
    )
    sol = scipy.sparse.linalg.spsolve(a, np.append(costs, 0.0))
    return sol[n], sol[0:n:2], sol[1:n:2]


def average_aoi_closed_form(gamma: int, params: SystemModel) -> float:
    """Single-expression average age of the threshold policy (the paper's form).

    It shares no code with the package's resolvent tail sums, so it checks
    them independently.  Note on the form used here: this reduction is easy to get wrong by a
    sign (exp(-alpha+beta) where the derivation yields exp(-(alpha+beta)))
    or by dropping the alpha in exp(alpha) inside the constant term.  The
    version below was frozen after matching ``craoi.average_aoi_series`` on
    a 20-point parameter grid.  It writes 1 - e^-s and e^s - 1 with ``expm1``;
    offsetting terms in ``xi`` still leave it about 1e-12 relative off the
    series for slow PUs (s near 1e-4), which the tests bound at 1e-11.
    """
    al, be = params.rates.alpha, params.rates.beta
    phi = params.phi_s
    s = al + be
    one_minus_E = -math.expm1(-s)
    es_minus_1 = math.expm1(s)
    ea = math.exp(al)
    xi = (
        (s * ea + al * (1.0 - phi)) ** 2 / (be**2 * (1.0 - phi) ** 2)
        - s * ea / (be * (1.0 - phi))
        + (2.0 * al * s * (ea + 1.0 - phi) / (be**2 * (1.0 - phi)) - al / be) / es_minus_1
        + al * s / (be**2 * es_minus_1**2)
    )
    num = (
        gamma * (gamma - 1.0) / 2.0
        - (1.0 - s / (be * one_minus_E) - s / (be * math.exp(-al) * (1.0 - phi)))
        * al
        * math.exp(-s * (gamma - 1.0))
        / (be * one_minus_E)
        - xi
    )
    den = (
        gamma
        - 1.0
        + s / (be * math.exp(-al) * (1.0 - phi))
        + al / (one_minus_E * be) * -math.expm1(-s * (gamma - 1.0))
    )
    return gamma - num / den


def decimal_mixed_metrics(params: SystemModel, gamma1: int, mu: float, digits: int = 34):
    """(average age, per-slot collision probability) of the mixed policy in ``digits``-digit decimal.

    The collision probability is the stationary probability that a slot is
    sensed idle and transmits, times 1 - e^-alpha, both in decimal.

    The policy transmits w.p. mu at (gamma1, idle) and always past it.  A
    forward recursion carries the unnormalized (theta_idle, theta_busy) from
    unit mass at (1, idle) through ages 1..gamma1, one slot at a time; past
    gamma1 the state moves by the transmit block M, whose tail sums
    sum_k x M^k = x (I - M)^-1 and sum_k k x M^k = x M (I - M)^-2 come from
    the explicit 2x2 inverse.  Every number is a decimal from the float
    inputs, exactly, and the slot matrix is exp(Q) in closed form, so no
    package code and no binary rounding enters.  At gamma1 = 2e5 it returns
    the same floats at 34 digits as at 60.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = decimal.Decimal(1)
        al, be = decimal.Decimal(params.rates.alpha), decimal.Decimal(params.rates.beta)
        mu = decimal.Decimal(mu)
        s = al + be
        e = (-s).exp()
        p_ii, p_ib = (be + al * e) / s, al * (one - e) / s
        p_bi, p_bb = be * (one - e) / s, (al + be * e) / s
        ok = (one - decimal.Decimal(params.phi_s)) * (-al).exp()
        x0, x1 = one, decimal.Decimal(0)
        mass = age_sum = decimal.Decimal(0)
        for d in range(1, gamma1):  # wait: the occupancy only mixes
            mass += x0 + x1
            age_sum += d * (x0 + x1)
            x0, x1 = x0 * p_ii + x1 * p_bi, x0 * p_ib + x1 * p_bb
        mass += x0 + x1
        age_sum += gamma1 * (x0 + x1)
        transmit = mu * x0
        x0, x1 = x0 * (p_ii - mu * ok) + x1 * p_bi, x0 * p_ib + x1 * p_bb
        # I - M and its inverse by the adjugate
        i_ii, i_ib, i_bi, i_bb = one - (p_ii - ok), -p_ib, -p_bi, one - p_bb
        det = i_ii * i_bb - i_ib * i_bi
        inv = ((i_bb / det, -i_ib / det), (-i_bi / det, i_ii / det))

        def solve(y0, y1):  # the row vector y (I - M)^-1
            return y0 * inv[0][0] + y1 * inv[1][0], y0 * inv[0][1] + y1 * inv[1][1]

        v0, v1 = solve(x0, x1)
        u0, u1 = solve(v0 * (p_ii - ok) + v1 * p_bi, v0 * p_ib + v1 * p_bb)
        mass += v0 + v1
        age_sum += (gamma1 + 1) * (v0 + v1) + u0 + u1
        transmit += v0
        return float(age_sum / mass), float(transmit / mass * (one - (-al).exp()))


def threshold_probs(gamma: int, delta_max: int) -> np.ndarray:
    p = np.zeros(delta_max)
    p[gamma - 1 :] = 1.0
    return p


def mixed_probs(gamma1: int, mu: float, delta_max: int) -> np.ndarray:
    p = np.zeros(delta_max)
    p[gamma1 - 1] = mu
    p[gamma1:] = 1.0
    return p


def brute_threshold_scan(params: SystemParams, psi_of_gamma, g_max: int = 10_000):
    """Largest gamma with psi >= eta and smallest with psi <= eta, by linear scan."""
    eta = params.eta_s
    g1 = g2 = None
    for g in range(1, g_max + 1):
        psi = psi_of_gamma(g)
        if psi >= eta:
            g1 = g
        if psi <= eta and g2 is None:
            g2 = g
        if g1 is not None and g2 is not None and g > g2:
            break
    return g1, g2


def oracle_run_policy(
    trajectory, params: SystemModel, policy, seed: int, max_slots=None, age_ceiling=10**7
) -> SimResult:
    """Replay a policy one slot at a time: the reference for ``craoi.run_policy``.

    Slots are located by binary search on the segment boundaries and every
    slot draws its decision from ``policy.transmit_probability(age)``, with
    the same child-seed streams, errors and result fields as the package.
    """
    bounds = np.cumsum(trajectory.durations)
    n_slots = int(math.floor(float(bounds[-1])))
    if max_slots is not None:
        if n_slots < max_slots:
            raise ValueError(f"trajectory covers only {n_slots} slots, need {max_slots}")
        n_slots = max_slots
    if n_slots < 1:
        raise ValueError("trajectory is shorter than one slot")

    starts = np.arange(n_slots, dtype=float)
    seg = np.searchsorted(bounds, starts, side="right")
    sensed = (seg % 2).tolist()
    seg_occ = np.arange(len(bounds)) % 2
    entries = bounds[seg_occ == IDLE]
    # a busy entry strictly inside (n, n+1) makes slot n collision-prone
    lo = np.searchsorted(entries, starts, side="right")
    hi = np.searchsorted(entries, starts + 1.0, side="left")
    prone = (hi > lo).tolist()
    cycles = max(int(np.searchsorted(entries, float(n_slots))), 1)
    policy_u = np.random.Generator(np.random.PCG64(split_seed(seed, 1))).random(n_slots)
    outage_u = np.random.Generator(np.random.PCG64(split_seed(seed, 2))).random(n_slots)
    policy_u, outage_u = policy_u.tolist(), outage_u.tolist()

    age, age_sum = 1, 0
    transmits = successes = idle = 0
    collisions = []
    divergent = False
    for n in range(n_slots):
        age_sum += age
        if age > age_ceiling:
            divergent = True
        if sensed[n] == IDLE:
            idle += 1
            p = policy.transmit_probability(age)
            if p > 0.0 and (p >= 1.0 or policy_u[n] < p):
                transmits += 1
                if prone[n]:
                    collisions.append(n)
                elif outage_u[n] >= params.phi_s:
                    successes += 1
                    age = 1
                    continue
        age += 1

    return SimResult(
        avg_aoi=age_sum / n_slots,
        psi_s_hat=len(collisions) / n_slots,
        psi_p_hat=len(collisions) / cycles,
        success_count=successes,
        transmit_count=transmits,
        collision_count=len(collisions),
        slots=n_slots,
        cycles=cycles,
        idle_sensed_count=idle,
        aoi_divergence_flag=divergent,
        collision_slots=tuple(collisions),
    )


# (alpha, beta, phi_s, gamma): grid for steady-state oracle comparisons
STEADY_STATE_GRID = [
    (0.02, 0.4, 0.2, 1),
    (0.02, 0.4, 0.2, 5),
    (0.02, 0.4, 0.2, 20),
    (0.02, 0.4, 0.2, 50),
    (0.02, 0.4, 0.0, 10),
    (0.02, 0.4, 0.35, 10),
    (0.005, 0.1, 0.2, 3),
    (0.005, 0.1, 0.1, 15),
    (0.005, 0.3, 0.2, 30),
    (0.01, 0.03, 0.2, 8),
    (0.01, 0.2, 0.3, 12),
    (0.01, 1.0, 0.2, 25),
    (0.05, 0.2, 0.2, 4),
    (0.05, 0.5, 0.1, 18),
    (0.05, 1.5, 0.0, 7),
    (0.1, 0.3, 0.2, 2),
    (0.1, 0.9, 0.25, 9),
    (0.2, 0.6, 0.2, 6),
    (0.3, 1.2, 0.15, 3),
    (0.002, 0.006, 0.2, 40),
    (0.002, 0.05, 0.3, 60),
]

# (alpha, beta, phi_s, budget fraction of psi_s(1)): binding-constraint grid.
# The fractions keep the optimal thresholds below 200, so the solver
# cross-checks stay fast.
BINDING_GRID = [
    (0.02, 0.4, 0.2, 0.03),
    (0.02, 0.4, 0.2, 0.08),
    (0.02, 0.4, 0.2, 0.20),
    (0.02, 0.4, 0.0, 0.05),
    (0.02, 0.4, 0.35, 0.10),
    (0.02, 0.8, 0.2, 0.06),
    (0.01, 0.2, 0.2, 0.04),
    (0.01, 0.2, 0.3, 0.12),
    (0.01, 0.5, 0.1, 0.07),
    (0.005, 0.1, 0.2, 0.05),
    (0.005, 0.3, 0.2, 0.15),
    (0.05, 0.5, 0.2, 0.03),
    (0.05, 0.5, 0.3, 0.09),
    (0.05, 1.0, 0.1, 0.05),
    (0.1, 0.4, 0.2, 0.04),
    (0.1, 0.9, 0.2, 0.11),
    (0.2, 0.8, 0.2, 0.06),
    (0.2, 1.5, 0.3, 0.10),
    (0.3, 1.2, 0.2, 0.05),
    (0.002, 0.05, 0.2, 0.07),
    (0.03, 0.3, 0.25, 0.08),
]


def binding_instance(alpha, beta, phi_s, fraction) -> SystemParams:
    """Instance whose budget is a fraction of the loosest achievable psi_s."""
    from craoi import collision_probability

    psi1 = collision_probability(1, SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s))
    return SystemParams(rates=PuRates(alpha, beta), phi_s=phi_s, eta_s=fraction * psi1)
