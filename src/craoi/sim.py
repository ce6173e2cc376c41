"""Discrete-event Monte-Carlo ground truth for any access policy.

The PU trajectory is generated in continuous time (exponential sojourns), the
device is replayed in unit slots on top of it: sense at the slot start, decide
from (age, sensed occupancy), collide iff the PU enters busy strictly inside a
transmitting slot, succeed iff the PU stays idle for the whole slot and an
independent outage draw clears.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import SystemModel
from .channel import IDLE, PuRates, expected_cycle_length

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def split_seed(base_seed: int, index: int) -> int:
    """Derive a child seed from (base_seed, index) via a splitmix64 round.

    Documented splitting rule: z = (base_seed + (index + 1) * golden) mod 2^64
    pushed through the splitmix64 finalizer.  Independent implementations can
    reproduce replication aggregates from this rule alone.
    """
    z = (base_seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@dataclass(frozen=True)
class PuTrajectory:
    """Alternating exponential sojourns of the PU in continuous time, idle first."""

    durations: np.ndarray

    def __post_init__(self):
        if np.any(self.durations <= 0):
            raise ValueError("sojourn durations must be positive")

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Segment right ends in continuous time, computed once per trajectory."""
        return np.cumsum(self.durations)


def generate_pu_trajectory(rates: PuRates, n_cycles: int, seed: int) -> PuTrajectory:
    """Draw 2*n_cycles + 1 alternating sojourns, idle first, deterministic under the seed."""
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_seg = 2 * n_cycles + 1
    u = rng.random(n_seg)
    rate = np.where(np.arange(n_seg) % 2 == IDLE, rates.alpha, rates.beta)
    return PuTrajectory(durations=-np.log1p(-u) / rate)


@dataclass(frozen=True)
class SimResult:
    avg_aoi: float
    psi_s_hat: float
    psi_p_hat: float
    success_count: int
    transmit_count: int
    collision_count: int
    slots: int
    cycles: int
    idle_sensed_count: int
    aoi_divergence_flag: bool
    collision_slots: tuple[int, ...] = ()

    @property
    def throughput_hat(self) -> float:
        return self.transmit_count / self.slots


def _slot_arrays(trajectory: PuTrajectory, n_slots: int):
    """Idle-sensed and collision-prone flags per slot, and busy entries before n_slots.

    Segment k holds the slots that start in [b[k-1], b[k]), which are slots
    ceil(b[k-1]) .. ceil(b[k]) - 1.  A busy entry e (the right end of an idle
    segment) strictly inside (n, n+1) makes slot n collision-prone; an entry
    on a slot start makes that slot sensed busy and no slot prone.
    """
    bounds = trajectory.boundaries
    seg_occ = np.arange(len(bounds)) % 2
    seg_ends = np.minimum(np.ceil(bounds), n_slots).astype(np.int64)
    idle = np.repeat(seg_occ == IDLE, np.diff(seg_ends, prepend=0))
    entries = bounds[seg_occ == IDLE]
    inside = entries[(entries < n_slots) & (entries != np.floor(entries))]
    prone = np.zeros(n_slots, dtype=bool)
    prone[np.floor(inside).astype(np.int64)] = True
    return idle, prone, int(np.searchsorted(entries, float(n_slots)))


def _transmits(p, policy_u: np.ndarray) -> np.ndarray:
    """The per-slot decision rule at transmit probability p (scalar or per slot)."""
    return (p > 0.0) & ((p >= 1.0) | (policy_u < p))


def _success_slots(clear: np.ndarray, policy_u: np.ndarray, probs: list[float]) -> np.ndarray:
    """Slots where the replay succeeds, by jumping from renewal to renewal.

    A transmission succeeds in the ``clear`` slots.  A renewal begins at age 1
    in slot 0 or right after a success, so a renewal begun at slot r is at
    age a in slot r + a - 1, and from age len(probs) = tail_age on it decides
    with the tail probability.  h[r] is the success slot of that renewal: the
    first tail success at or after slot r + tail_age - 1, unless a head age
    a < tail_age succeeds first.  h[n] = n marks "no success within the horizon".
    """
    n, tail = len(clear), len(probs)
    succeeds = clear & _transmits(probs[-1], policy_u)
    if tail == 1:  # every renewal is at its tail age, so every tail success is one
        return np.flatnonzero(succeeds)
    # nxt[m]: the first slot at or after m where a tail-age transmission succeeds
    nxt = np.append(np.where(succeeds, np.arange(n), n), n)
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    h = nxt[np.minimum(np.arange(n + 1) + (tail - 1), n)]
    for age in range(tail - 1, 0, -1):  # the youngest succeeding age wins
        if probs[age - 1] > 0.0:
            succeeds = clear & _transmits(probs[age - 1], policy_u)
            starts = np.flatnonzero(succeeds[age - 1 :])
            h[starts] = starts + (age - 1)
    slots: list[int] = []
    append, hops = slots.append, memoryview(h)
    r = hops[0]
    while r < n:
        append(r)
        r = hops[r + 1]
    return np.array(slots, dtype=np.int64)


def run_policy(
    trajectory: PuTrajectory,
    params: SystemModel,
    policy,
    seed: int,
    max_slots: int | None = None,
    age_ceiling: int = 10**7,
) -> SimResult:
    """Replay the policy over the trajectory in unit slots.

    The trailing partial slot is discarded; metrics divide by whole slots.
    Randomized policy decisions and outage draws use child seeds derived from
    ``seed`` (indices 1 and 2 of the splitting rule); slot n draws element n
    of each stream.  The replay is event-skipping: the age restarts at 1
    after each success and the decision depends on the age only below
    ``policy.tail_age``, so the successes follow from a precomputed renewal
    map and everything else from vectorized masks over the slots.
    """
    total_time = float(trajectory.boundaries[-1])
    n_slots = int(math.floor(total_time))
    if max_slots is not None:
        if n_slots < max_slots:
            raise ValueError(f"trajectory covers only {n_slots} slots, need {max_slots}")
        n_slots = max_slots
    if n_slots < 1:
        raise ValueError("trajectory is shorter than one slot")

    idle, prone, cycles = _slot_arrays(trajectory, n_slots)
    cycles = max(cycles, 1)  # busy-idle cycles begun within the walked span
    policy_u = np.random.Generator(np.random.PCG64(split_seed(seed, 1))).random(n_slots)
    outage_u = np.random.Generator(np.random.PCG64(split_seed(seed, 2))).random(n_slots)

    clear = idle & ~prone & (outage_u >= params.phi_s)
    # ages past n_slots never occur, so the table can stop there
    tail_age = min(policy.tail_age, n_slots)
    probs = [policy.transmit_probability(a) for a in range(1, tail_age + 1)]
    successes = _success_slots(clear, policy_u, probs)

    # renewal i covers slots edges[i] .. edges[i+1] - 1; the last one is unfinished
    edges = np.concatenate(([0], successes + 1, [n_slots]))
    lengths = np.diff(edges)
    age = np.arange(1, n_slots + 1) - np.repeat(edges[:-1], lengths)
    p_slot = np.asarray(probs)[np.minimum(age, len(probs)) - 1]
    transmit = idle & _transmits(p_slot, policy_u)
    collisions = np.flatnonzero(transmit & prone).tolist()

    n_coll = len(collisions)
    return SimResult(
        avg_aoi=int(age.sum()) / n_slots,
        psi_s_hat=n_coll / n_slots,
        psi_p_hat=n_coll / cycles,
        success_count=len(successes),
        transmit_count=int(np.count_nonzero(transmit)),
        collision_count=n_coll,
        slots=n_slots,
        cycles=cycles,
        idle_sensed_count=int(np.count_nonzero(idle)),
        aoi_divergence_flag=int(lengths.max()) > age_ceiling,
        collision_slots=tuple(collisions),
    )


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation setup; horizon is slots or cycles."""

    params: SystemModel
    policy: object
    seed: int
    slots: int | None = None
    cycles: int | None = None

    def __post_init__(self):
        if (self.slots is None) == (self.cycles is None):
            raise ValueError("specify exactly one of slots or cycles")
        horizon = self.slots if self.slots is not None else self.cycles
        if horizon < 1:
            raise ValueError("horizon must be >= 1")


def _cycles_for_slots(rates: PuRates, slots: int) -> int:
    # oversize so the trajectory covers the slot horizon with high probability
    return max(int(slots / expected_cycle_length(rates) * 1.5) + 64, 8)


def run_config(config: SimConfig, rep_index: int = 0) -> SimResult:
    """Run one replication; the replication index selects the child seed."""
    rep_seed = config.seed if rep_index == 0 else split_seed(config.seed, 1000 + rep_index)
    traj_seed = split_seed(rep_seed, 0)
    if config.cycles is not None:
        traj = generate_pu_trajectory(config.params.rates, config.cycles, traj_seed)
        return run_policy(traj, config.params, config.policy, rep_seed)
    n_cycles = _cycles_for_slots(config.params.rates, config.slots)
    while True:
        traj = generate_pu_trajectory(config.params.rates, n_cycles, traj_seed)
        if traj.boundaries[-1] >= config.slots + 1:
            break
        n_cycles *= 2
    return run_policy(traj, config.params, config.policy, rep_seed, max_slots=config.slots)


_AGG_FIELDS = ("avg_aoi", "psi_s_hat", "psi_p_hat", "throughput_hat")


@dataclass(frozen=True)
class ReplicatedResult:
    """Order-independent aggregate over independent replications."""

    n_reps: int
    mean: dict[str, float]
    stderr: dict[str, float]
    results: tuple[SimResult, ...]


def replicate(config: SimConfig, n_reps: int, n_workers: int = 1) -> ReplicatedResult:
    """Run n_reps independent replications and aggregate mean and standard error.

    Replication i runs under split_seed(config.seed, 1000 + i) (replication 0
    uses the base seed itself), so parallel and serial execution agree.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    indices = list(range(n_reps))
    if n_workers > 1:
        # imported here: the process pool costs every `import craoi` time and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_config, [config] * n_reps, indices))
    else:
        results = [run_config(config, i) for i in indices]
    mean = {}
    stderr = {}
    for name in _AGG_FIELDS:
        vals = np.array([getattr(r, name) for r in results], dtype=float)
        mean[name] = float(vals.mean())
        stderr[name] = float(vals.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
    return ReplicatedResult(n_reps=n_reps, mean=mean, stderr=stderr, results=tuple(results))
