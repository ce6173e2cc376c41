"""Discrete-event Monte-Carlo ground truth for any access policy.

The PU trajectory is generated in continuous time (exponential sojourns), the
device is replayed in unit slots on top of it: sense at the slot start, decide
from (age, sensed occupancy), collide iff the PU enters busy strictly inside a
transmitting slot, succeed iff the PU stays idle for the whole slot and an
independent outage draw clears.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import SystemModel, _check_gamma, _runs
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
    """Idle-sensed flags per slot, the collision-prone slots, and busy entries before n_slots.

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
    prone = np.floor(inside).astype(np.int64)
    prone = prone[np.diff(prone, prepend=-1) > 0]  # two entries can share a slot
    return idle, prone, int(np.searchsorted(entries, float(n_slots)))


def _uniforms(seed: int, index: int, n: int) -> np.ndarray:
    """The first n draws of the seed's child stream ``index``; slot k reads draw k."""
    return np.random.Generator(np.random.PCG64(split_seed(seed, index))).random(n)


def _below(mask: np.ndarray, policy_u: np.ndarray, p: float) -> np.ndarray:
    """The slots of ``mask`` whose decision draw is below p: all of them at p = 1."""
    return mask if p >= 1.0 else mask & (policy_u < p)


def _first_hits(mask: np.ndarray, offset: int) -> np.ndarray:
    """For r = 0..n, the first slot at or after r + offset where ``mask`` holds, else n."""
    ends = np.flatnonzero(np.append(mask[offset:], True))  # n - offset closes the list
    ends += offset
    # ends[k] serves the r from ends[k-1] - offset + 1 to ends[k] - offset, n the rest
    gaps = np.diff(ends, prepend=offset - 1)
    gaps[-1] += offset
    return np.repeat(ends, gaps)


def _success_slots(clear: np.ndarray, policy_u: np.ndarray, runs) -> np.ndarray:
    """Slots where the replay succeeds, by jumping from renewal to renewal.

    A transmission succeeds in the ``clear`` slots whose decision draw is
    below its run's p.  A renewal begins in slot 0 or right after a success,
    so a renewal begun at slot r is at offset j (age j + 1) in slot r + j.
    h[r] is the success slot of that renewal: the first tail success at or
    after slot r + j0 of the tail run, unless a younger run succeeds first.
    Each positive head run writes its successes into the renewals they are
    the first for, in one pass over the slots whatever the run's length;
    the head runs go from the oldest to the youngest, so the youngest
    succeeding age wins.  h[n] = n marks "no success within the horizon".
    """
    n = len(clear)
    *head, (j0, _, p) = runs
    if not head:  # every renewal is at its tail age, so every tail success is one
        return np.flatnonzero(_below(clear, policy_u, p))
    h = _first_hits(_below(clear, policy_u, p), j0)
    for j0, j1, p in reversed(head):
        if p > 0.0:
            # the renewals that meet the run's success at slot q + j0 within the
            # run, after its previous success, are q - served + 1 .. q
            q = np.flatnonzero(_below(clear[j0:], policy_u[j0:], p))
            served = np.diff(q, prepend=-1)
            np.minimum(served, j1 - j0, out=served)
            # entry i of r, in block k, is i + 1 + q[k] - (served[0] + ... + served[k])
            r = np.repeat(q - np.cumsum(served), served)
            r += np.arange(1, len(r) + 1)
            q += j0
            h[r] = np.repeat(q, served)
    slots: list[int] = []
    # a success at slot s starts the next renewal at s + 1
    append, hops = slots.append, memoryview(h[1:])
    s = int(h[0])
    while s < n:
        append(s)
        s = hops[s]
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
    of each stream and transmits iff sensed idle with decision draw u < p
    (u lies in [0, 1), so p = 0 never transmits and p = 1 always).  The
    decision stream is drawn only when some run has 0 < p < 1; otherwise no
    draw is read.  The replay is event-skipping: the age restarts at 1 after
    each success and ``analysis._runs`` splits the policy's table up to
    ``policy.tail_age`` into runs (j0, j1, p) of constant p over the offsets
    j = age - 1 from j0 to j1 - 1, the tail's up to the horizon, so the
    successes follow from a renewal map built run by run.  The age sum is
    the sum of L(L + 1)/2 over renewal lengths L, transmits are counted per
    positive run from one prefix sum gathered at each renewal's run bounds,
    and collisions are checked at the collision-prone slots only.
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
    # ages past n_slots never occur, so the table can stop there
    ages = range(1, min(policy.tail_age, n_slots) + 1)
    probs = np.array([policy.transmit_probability(a) for a in ages])
    run_lengths, ps = zip(*_runs(probs))
    firsts = [0, *itertools.accumulate(run_lengths[:-1])]
    runs = list(zip(firsts, [*firsts[1:], n_slots], ps))
    if any(0.0 < p < 1.0 for p in ps):
        policy_u = _uniforms(seed, 1, n_slots)
    else:  # every u in [0, 1) decides alike, so an unread zero stands in
        policy_u = np.broadcast_to(0.0, n_slots)
    clear = idle & (_uniforms(seed, 2, n_slots) >= params.phi_s)
    clear[prone] = False
    successes = _success_slots(clear, policy_u, runs)

    # renewal i covers slots starts[i] .. ends[i] - 1; the last one is unfinished
    edges = np.concatenate(([0], successes + 1, [n_slots]))
    starts, ends = edges[:-1], edges[1:]
    lengths = ends - starts
    transmit_count = 0
    sent = np.zeros(n_slots + 1, dtype=np.int64)  # sent[0] stays 0
    for j0, j1, p in runs:
        if p > 0.0:
            np.cumsum(_below(idle, policy_u, p), out=sent[1:])
            lo = np.minimum(starts + j0, ends)
            transmit_count += int((sent[np.minimum(starts + j1, ends)] - sent[lo]).sum())
    # a prone slot collides iff it transmits, at its renewal's age
    offsets = prone - starts[np.searchsorted(starts, prone, side="right") - 1]
    p_prone = probs[np.minimum(offsets, probs.size - 1)]
    collisions = prone[idle[prone] & (policy_u[prone] < p_prone)].tolist()

    n_coll = len(collisions)
    return SimResult(
        avg_aoi=int((lengths * (lengths + 1) // 2).sum()) / n_slots,
        psi_s_hat=n_coll / n_slots,
        psi_p_hat=n_coll / cycles,
        success_count=len(successes),
        transmit_count=transmit_count,
        collision_count=n_coll,
        slots=n_slots,
        cycles=cycles,
        idle_sensed_count=int(np.count_nonzero(idle)),
        aoi_divergence_flag=int(lengths.max()) > age_ceiling,
        collision_slots=tuple(collisions),
    )


@dataclass(frozen=True)
class SimConfig:
    """One reproducible simulation setup; horizon is slots or cycles, a whole number."""

    params: SystemModel
    policy: object
    seed: int
    slots: int | None = None
    cycles: int | None = None

    def __post_init__(self):
        if (self.slots is None) == (self.cycles is None):
            raise ValueError("specify exactly one of slots or cycles")
        # a whole float such as 1000.0 is kept as the int the replay counts by
        field = "slots" if self.slots is not None else "cycles"
        object.__setattr__(self, field, _check_gamma(getattr(self, field), field))


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
    n_reps = _check_gamma(n_reps, "n_reps")
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
