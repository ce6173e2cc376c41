"""CMDP solver: structured policy iteration plus multiplier search.

The constrained problem (minimize average age subject to a per-slot collision
budget) is relaxed with a multiplier on the collision cost.  For each fixed
multiplier the unconstrained average-cost problem is solved by Howard policy
iteration on the unbounded age space (Puterman 1994, *Markov Decision
Processes*, section 8.6).  A policy is a table of decisions per idle age
whose last entry holds for every older age and transmits, so the age renews.
A renewal holds the same expected collisions from every state, so the
Poisson equation reduces to the expected slots and age sum to the next
renewal, free of the multiplier, solved by one backward pass over the
table's runs of constant action, which ``analysis._runs`` splits, as it
does every table here.  The solve shares the closed form's steps: it reads
the instance from ``analysis._scalars``, as the walk and the multiplier
search do, so an instance the closed form rejects raises its error here
too; past the head ``analysis._tail`` sums the tail exactly, formed once
per solve, and ``analysis._wait_sums`` crosses each wait run.  Policy
improvement reads the idle bias alone, on the head, so the solve forms no
other; past the head it is affine in age, with the slope the solve
returns, and the improvement finds the first tail age that should transmit
in closed form.  No age grid is built.  The same sums give a policy's
(average age, collision cost).  The greedy policies are threshold-shaped,
so one deterministic loop on the multiplier, doubling and then bisecting,
brackets the budget with two consecutive thresholds, and a boundary
randomization closes the gap exactly (Beutler & Ross 1985).  The search
hands its bracket and the two ends' renewal sums to
``analysis._bracket_policy``, the closed form's own last step, so both
methods return one policy record.  Only that search takes a budget.
``policy_cost_evaluate`` walks any table forward with ``analysis._walk``,
the package's forward evaluator, so it checks the backward sums of the
solver and of the closed form independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    AgeOptimalPolicy, SystemModel, SystemParams, _bracket_policy, _finite_age, _finite_mass, _runs,
    _scalars, _tail, _wait_sums, _walk,
)  # fmt: skip

MAX_EXPAND = 60  # multiplier doublings from 1 before the search gives up
MAX_BISECT = 200  # multiplier bisections before the search gives up


class ThresholdStructureError(ValueError):
    def __init__(self, offending: list[int]):
        super().__init__(f"policy is not monotone in age; offending idle ages: {offending}")
        self.offending = offending


class BisectionError(RuntimeError):
    pass


def _require_renewal(table: np.ndarray) -> None:
    """Reject a table that is empty, not 1-D, holds an entry outside [0, 1], or never renews.

    Every older age reuses the last entry, so unless it transmits the age
    never renews.  A boolean table is in range by its type, so the solver's
    own tables skip the range reductions.
    """
    if table.ndim != 1 or table.size == 0:
        raise ValueError(f"expected a non-empty 1-D policy table, got shape {table.shape}")
    # NaN fails both comparisons
    if table.dtype != bool and not (table.min() >= 0.0 and table.max() <= 1.0):
        raise ValueError(
            f"transmit probabilities must be in [0, 1], got entries from {table.min()} "
            f"to {table.max()}"
        )
    if not table[-1] > 0:
        raise ValueError(
            "the policy never transmits at the ages past its table, so the age never "
            "renews and the average age is infinite"
        )


def poisson_solve(
    probs: np.ndarray, model: SystemModel, lam: float
) -> tuple[float, np.ndarray, tuple[float, float], float]:
    """Gain and idle bias of a policy under cost age + lam * collisions, and its renewal sums.

    ``probs`` is a table of transmit probabilities per idle age; older ages
    reuse its last entry, which must be positive.  ``analysis._runs`` splits
    it, and its last run, the tail, begins at the head length n.  A
    transmission succeeds w.p. ok and collides w.p. coll, so k = coll / ok
    collisions precede the next success, a renewal, from any state (Wald's
    identity).  With T and A the expected slots and age sum to it,
    h = A + lam k - g T, and h(1, idle) = 0 gives g = (A + lam k) / T there:
    lam is in no recursion.  One backward pass over the head's runs solves
    (T, A): at age n by ``analysis._tail``, T = v and A = (n - 1) v + w; a
    wait run in closed form by ``analysis._wait_sums``, the closed form's own
    step; a transmit run age by age.  A T or an average age A / T that is no
    float, as when the tail transmits too rarely, raises the walk's error.
    Returns g, the bias on the head's idle ages 1..n (``bias.size == n``),
    the only one policy improvement reads, (T, A) at (1, idle) and that
    bias's slope past n, h(d + 1) - h(d) = v_idle, since A rises by v per
    age there and T does not change.
    """
    _require_renewal(probs)
    al, be, s, ok, collision, _, _, slot, _ = _scalars(model)
    p_ii, p_ib, p_bi, p_bb = slot
    *head, (_, p_n) = _runs(probs)
    n = 1 + sum(length for length, _ in head)
    (ti, tb), (wi, wb) = _tail(slot, p_n * ok)
    slope = ti
    ai, ab = (n - 1) * ti + wi, (n - 1) * tb + wb
    # (first, end, p, (T, A)) of the ages first + 1..end: past a wait run, at a transmit age
    runs = [(n - 1, n, p_n, (ti, tb, ai, ab))]
    first = n - 1
    for length, p in reversed(head):
        first, end = first - length, first
        if p == 0:
            runs.append((first, end, p, (ti, tb, ai, ab)))
            ti, tb, ai, ab = _wait_sums(al, be, s, length, end, (ti, tb, ai, ab))
        else:
            stay = p_ii - p * ok
            for d in range(end, first, -1):
                ti, tb = 1.0 + stay * ti + p_ib * tb, 1.0 + p_bi * ti + p_bb * tb
                ai, ab = d + stay * ai + p_ib * ab, d + p_bi * ai + p_bb * ab
                runs.append((d - 1, d, p, (ti, tb, ai, ab)))
    _finite_age(ai / _finite_mass(ti, p_n, n, ok), n)
    lam_k = lam * collision / ok
    gain = (ai + lam_k) / ti
    bias = np.empty(n)
    for first, end, p, (t_i, t_b, a_i, a_b) in runs:
        if p == 0:
            j = np.arange(end - first, 0, -1.0)  # steps from each age d of the run to end + 1
            decay = np.expm1(-s * j)  # e^(-sj) - 1
            net_ages = j * (end + 0.5 - gain - 0.5 * j)  # sum_i<j (d + i) - g j
            diff = (a_i - a_b - gain * (t_i - t_b)) / s
            bias[first:end] = net_ages + (a_i + lam_k - gain * t_i) + al * diff * decay
        else:
            bias[first] = a_i + lam_k - gain * t_i
    bias[0] = 0.0
    return gain, bias, (ti, ai), slope


@dataclass(frozen=True)
class SolvedPolicy:
    """Policy-iteration output: average Lagrangian cost, greedy decisions, renewal sums."""

    gain: float
    transmit: np.ndarray  # bool per idle age of the head; older ages transmit
    iterations: int  # improvement steps
    renewal: tuple[float, float]  # expected slots and age sum of a renewal from (1, idle)


def rvi_solve(model: SystemModel, lam: float, init=(True,)) -> SolvedPolicy:
    """Howard policy iteration on age + lam * collision cost, minimizing.

    A policy is a boolean table of transmit decisions per idle age whose last
    entry holds for every older age and must transmit: a policy that never
    does has infinite average age.  Starts from
    ``init`` (by default transmit everywhere, the optimum at lam = 0), so a
    multiplier search can warm-start from the previous multiplier's policy.
    Each step evaluates the policy exactly and switches an age's action only
    when the other action is better by more than rounding, which also ends
    the iteration.  Each table is cut to the head its solve's bias covers.
    """
    if not (0.0 <= lam < math.inf):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    transmit = np.array(init, dtype=bool)
    ok = model.success_prob
    tx_cost = lam * model.collision_prob

    def improve(h_next, current):
        # A transmission pays tx_cost and, with mass ok, swaps the move to
        # (d + 1, idle) for the reset to (1, idle), whose bias is 0.  A tie,
        # where neither action is better by more than rounding, keeps current.
        value = ok * h_next
        adv = value - tx_cost
        return np.where(np.abs(adv) <= 1e-12 * (tx_cost + np.abs(value)), current, adv > 0.0)

    for it in itertools.count(1):
        # slope is h(d + 1) - h(d) past the head, where the policy transmits
        gain, h_idle, renewal, slope = poisson_solve(transmit, model, lam)
        transmit = transmit[: h_idle.size]
        h_n = h_idle[-1]
        improved = improve(np.concatenate((h_idle[1:], (h_n + slope,))), transmit)
        if not improved[-1]:
            # Past the head age n + m - 1 reads h(n) + m * slope, so its
            # advantage rises with m: wait up to the first age that transmits.
            # The advantage is 0 at a real m; ages before its floor fall short
            # by a whole step, and the loop applies the tie rule from there.
            m = max(2, math.floor((tx_cost / ok - h_n) / slope))
            while not improve(h_n + m * slope, True):
                m += 1
            improved = np.concatenate((improved, np.zeros(m - 2, dtype=bool), [True]))
        # a head transmits at its last age, so a longer improved table differs
        if np.array_equal(improved, transmit):
            return SolvedPolicy(gain=gain, transmit=transmit, iterations=it, renewal=renewal)
        transmit = improved


def extract_threshold(policy: SolvedPolicy) -> int:
    """Smallest idle age at which the policy transmits, after a monotonicity check."""
    tx = np.asarray(policy.transmit, dtype=bool)
    _require_renewal(tx)
    first = int(np.flatnonzero(tx)[0])
    if not tx[first:].all():
        offending = [int(i) + 1 for i in np.flatnonzero(~tx[first:]) + first]
        raise ThresholdStructureError(offending)
    return first + 1


def policy_cost_evaluate(probs, model: SystemModel) -> tuple[float, float]:
    """(average age, per-slot collision probability) of a tail-constant policy, exactly.

    ``probs`` is a non-empty table of transmit probabilities per idle age
    1..n; older ages reuse the last entry, as in ``TabularPolicy``.  So a
    Bernoulli policy is ``[p0]`` and a threshold or mixed policy is its table
    up to its ``tail_age``.  ``analysis._runs`` splits the table into runs
    of constant probability for the closed form's walk, so a threshold table
    costs two runs whatever its threshold.  A table with an entry outside
    [0, 1] is rejected, and so is one whose last entry is 0: its age never
    renews, so its average age is infinite.  A last entry so small that the
    mean renewal time or the average age is no float raises the walk's or
    the closed form's overflow error, naming the table length as threshold.
    """
    table = np.asarray(probs)
    _require_renewal(table)
    m = _scalars(model)
    mass, aoi, _ = _walk(m, _runs(table))
    _, _, _, success, collision, _, _, _, _ = m
    return _finite_age(aoi, table.size), collision / (success * mass)


@dataclass(frozen=True)
class ConstrainedSolution:
    """Output of the multiplier search: the closed form's policy record, and its bracket.

    ``policy_low`` is the greedy policy at ``lambda_low``, whose collision
    cost exceeds the budget, and ``policy_high`` the one at ``lambda_high``.
    """

    policy: AgeOptimalPolicy
    lambda_low: float
    lambda_high: float
    policy_low: SolvedPolicy
    policy_high: SolvedPolicy


def lambda_bisection(params: SystemParams) -> ConstrainedSolution:
    """Deterministic multiplier search for the constrained optimum.

    One loop solves the greedy policy at a multiplier, warm-started from the
    previous multiplier's policy, and files it as the low end of the bracket
    when its collision cost k / T exceeds the budget ``params.eta_s`` (which
    :class:`SystemParams` has already checked) and as the high end
    otherwise.  The next multiplier doubles from 1 while no end meets the
    budget, then bisects the bracket; the loop stops once the two ends have
    consecutive (or equal) thresholds.  When lambda = 0 already meets the
    budget, the loop stops there and both ends are that policy.  The two
    ends' thresholds and renewal sums (T, A) then go to the closed form's
    ``analysis._bracket_policy``, which sets the mixing probability that
    meets the budget (the reciprocal cost is linear in it) and mixes the
    sums into the policy's metrics, as the policy randomizes once per
    renewal.
    """
    eta_s = params.eta_s
    _, _, _, success, collision, _, _, _, _ = _scalars(params)
    k = collision / success  # collisions per renewal
    lo = hi = None  # (multiplier, policy, threshold, cost) at each end of the bracket
    lam, warm, doublings, bisections = 0.0, (True,), 0, 0
    while True:
        pol = rvi_solve(params, lam, warm)
        warm = pol.transmit
        end = (lam, pol, extract_threshold(pol), k / pol.renewal[0])
        if end[3] > eta_s:
            lo = end
        else:
            hi = end
        if hi is None:
            if doublings == MAX_EXPAND:
                raise BisectionError(f"no multiplier up to {lam} satisfies the budget {eta_s}")
            lam = 2.0**doublings
            doublings += 1
        elif lo is None or hi[2] - lo[2] <= 1:
            break
        else:
            if bisections == MAX_BISECT:
                raise BisectionError(
                    f"bracket did not shrink to consecutive thresholds within {MAX_BISECT} "
                    "bisections"
                )
            lam = 0.5 * (lo[0] + hi[0])
            bisections += 1
    # lo is None only when lambda = 0 meets the budget: both ends are that policy
    (lam_lo, pol_lo, gamma1, _), (lam_hi, pol_hi, gamma2, _) = lo or hi, hi
    policy = _bracket_policy(eta_s, k, gamma1, gamma2, pol_lo.renewal, pol_hi.renewal)
    return ConstrainedSolution(policy, lam_lo, lam_hi, pol_lo, pol_hi)
