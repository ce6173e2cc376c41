"""The four workloads: seeded inputs, one op per input, and each op's check.

Every op drives the package through a user entry point only
(``age_optimal_policy``, ``optimal_transmit_probability`` /
``average_aoi_bernoulli``, ``craoi.cli.main``, ``run_config(SimConfig(...))``,
``run_preset`` and ``run_fig4``), so solver and simulator rewrites need no
change here.  Ops look the entry points up on the package at call time, so
a traced pass sees the wrappers installed in the package namespaces.  An op
returns ``(output, failure_kind)``: the output is compared across passes
(and between traced and untraced passes), and a failure kind of
``None`` means the op passed its check.  Failing ops are counted, never
skipped or dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import craoi
import craoi.baseline
import craoi.cli
import craoi.experiments
from craoi import (
    BernoulliAccessPolicy,
    PuRates,
    RandomizedThresholdPolicy,
    SimConfig,
    SystemParams,
)

warnings.filterwarnings("ignore", message="beta <= alpha")

HERE = Path(__file__).resolve().parent

# Relative slack allowed on "psi <= eta" and "age-optimal AoI <= Bernoulli AoI":
# rounding level for a closed form of a few dozen float operations.  An excess
# above it means digits lost to cancellation (1 - b with b near 1 for slow
# PUs), a defect of the program that ROADMAP item 1 fixes there.
REL_TOL = 1e-12
# Simulation tolerances of the acceptance suite (criterion 2).
REPLAY_AOI_REL_TOL = 0.02
REPLAY_PSI_STDERRS = 3.0

SWEEP_SIZE = 20_000
# (low, high, log-uniform) per parameter: the closed-form fuzz domain
SWEEP_DOMAIN = {
    "alpha": (1e-4, 3.0, True),
    "beta": (1e-4, 10.0, True),
    "phi_s": (0.0, 0.99, False),
    "eta_s": (1e-7, 0.98, True),
}

# Seeded binding instances for `verify`: (alpha, idle probability, phi_s,
# threshold, delta_max) design points, jittered by the seed by a few percent
# at most, so that an op's cost differs little between seeds.  Thresholds sit
# between integers, where the closed form and the solver must agree on one
# mixing pair.  The passing ones run at the CLI's default truncation; the last
# one's threshold is past delta_max/2 of a truncation of 40 and must fail.
# Every op takes at most about 0.16 s: an op of a second or more, such as the
# README's table-1 cells at the default truncation, takes its time from the
# host's slow stretches, which lasted minutes on a 2-CPU shared host.
VERIFY_DESIGN = (
    (0.05, 0.9, 0.2, 3.5, None),
    (0.1, 0.9, 0.2, 4.5, None),
    (0.1, 0.9, 0.2, 7.5, None),
    (0.2, 0.75, 0.2, 3.5, None),
    (0.1, 0.9, 0.2, 30.5, 40),
)

# `replay`: canonical channel, (alpha, beta, phi_s, threshold, policy) design
# points: the age-optimal mixed policy at a binding threshold near 5 (about
# 0.16 successes per slot) and the Bernoulli baseline at one near 50 (about
# 0.02).  One op is one replication of about 35 ms, run in process.  A case
# takes 10 replications of 100,000 slots, the acceptance suite's horizon, so
# two cases keep a pass near 0.7 s and a run near 40 passes: with six cases a
# run made 9-13 passes, too few for each op's fastest time, and its
# `op_p99_ms` spread by 0.38 over ten runs.
REPLAY_DESIGN = ((0.02, 0.4, 0.2, 5.0, "mixed"), (0.02, 0.4, 0.2, 50.0, "bernoulli"))
REPLAY_SLOTS = 100_000
REPLAY_REPS = 10

# Every preset but fig3, in the package's order.  fig3 is one 2-4 s solver
# run whose time follows the host's slow phases; `verify` times the solver.
# fig4 replays 20,000 slots per simulated threshold instead of 10^6, so that
# each op takes at most about 0.1 s.
PRESETS = ("fig4", "fig5", "fig6", "fig7", "fig8", "table1")
FIG4_SIM_SLOTS = 20_000
PRESET_DIGESTS = HERE / "preset_digests.json"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _budget_for_threshold(alpha: float, beta: float, phi_s: float, gamma: float) -> float:
    """Per-slot budget whose binding threshold is near ``gamma`` (model formula for psi_s)."""
    s = alpha + beta
    success = (1.0 - phi_s) * math.exp(-alpha)
    theta10 = 1.0 / (
        gamma
        - 1.0
        + s / (beta * success)
        + alpha / ((1.0 - math.exp(-s)) * beta) * (1.0 - math.exp(-s * (gamma - 1.0)))
    )
    return theta10 * (1.0 - math.exp(-alpha)) / success


@dataclass
class Workload:
    """Seeded inputs plus the op run on each."""

    name: str
    inputs: list
    op: Callable


# ---------------------------------------------------------------- sweep


def sweep_inputs(seed: int, size: int = SWEEP_SIZE) -> list[SystemParams]:
    rng = _rng(seed, 1)
    cols = {}
    for key, (lo, hi, log) in SWEEP_DOMAIN.items():
        if log:
            cols[key] = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
        else:
            cols[key] = rng.uniform(lo, hi, size)
    return [
        SystemParams(rates=PuRates(float(a), float(b)), phi_s=float(p), eta_s=float(e))
        for a, b, p, e in zip(cols["alpha"], cols["beta"], cols["phi_s"], cols["eta_s"])
    ]


def sweep_op(params: SystemParams):
    """Age-optimal closed form and Bernoulli baseline for one instance, checked."""
    try:
        pol = craoi.age_optimal_policy(params)
        bern = craoi.optimal_transmit_probability(params)
        aoi_bern = craoi.average_aoi_bernoulli(params, bern.p0)
    except OverflowError:
        return None, "overflow"
    except ValueError as exc:
        msg = str(exc)
        if "normalizes" in msg:
            return None, "normalization"
        if "bracket" in msg:
            return None, "bracket"
        return None, "value_error"
    except Exception as exc:  # an op boundary: record the failure and keep going
        return None, f"raised:{type(exc).__name__}"
    out = (pol.gamma1, pol.gamma2, pol.mu, pol.avg_aoi, pol.psi_s, bern.p0, aoi_bern)
    if not (math.isfinite(pol.avg_aoi) and math.isfinite(aoi_bern)):
        return out, "nonfinite"
    if pol.psi_s > params.eta_s * (1.0 + REL_TOL):
        return out, "budget"
    if pol.gamma2 - pol.gamma1 not in (0, 1):
        return out, "gap"
    if not (0.0 <= pol.mu <= 1.0):
        return out, "mu"
    if pol.avg_aoi > aoi_bern * (1.0 + REL_TOL):
        return out, "dominance"
    return out, None


# ---------------------------------------------------------------- verify


def verify_inputs(seed: int) -> list[list[str]]:
    rng = _rng(seed, 2)
    argvs = []
    for alpha, p_idle, phi_s, gamma, delta_max in VERIFY_DESIGN:
        alpha = float(alpha * rng.uniform(0.98, 1.02))
        p_idle = float(p_idle + rng.uniform(-0.002, 0.002))
        phi_s = float(phi_s + rng.uniform(-0.01, 0.01))
        gamma = float(gamma * rng.uniform(0.99, 1.01))
        beta = alpha * p_idle / (1.0 - p_idle)
        eta_s = _budget_for_threshold(alpha, beta, phi_s, gamma)
        argv = ["solve", "--alpha", repr(alpha), "--beta", repr(beta), "--phi-s", repr(phi_s),
                "--eta-s", repr(eta_s), "--verify"]  # fmt: skip
        if delta_max is not None:
            argv += ["--delta-max", str(delta_max)]
        argvs.append(argv)
    return argvs


def verify_op(argv: list[str]):
    """One in-process `craoi solve ... --verify`; passes on exit 0 and `rvi_agreement ok`."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = craoi.cli.main(argv)
    except Exception as exc:  # an op boundary: record the failure and keep going
        return None, f"raised:{type(exc).__name__}"
    text, errors = out.getvalue(), err.getvalue()
    result = (rc, text, errors)
    if rc != 0:
        if "exceeds delta_max" in errors:
            return result, "truncation"
        if "disagrees" in errors:
            return result, "mismatch"
        return result, "exit"
    if "rvi_agreement ok" not in text:
        return result, "agreement"
    return result, None


# ---------------------------------------------------------------- replay


@dataclass(frozen=True)
class ReplayCase:
    """One simulation configuration and its closed-form AoI and collision rate."""

    config: SimConfig
    avg_aoi: float
    psi_s: float


def replay_inputs(seed: int, slots: int = REPLAY_SLOTS) -> list[tuple[ReplayCase, int]]:
    """Every replication index of every case, case by case."""
    rng = _rng(seed, 3)
    cases = []
    for alpha, beta, phi_s, gamma, policy in REPLAY_DESIGN:
        alpha = float(alpha * rng.uniform(0.95, 1.05))
        beta = float(beta * rng.uniform(0.95, 1.05))
        phi_s = float(phi_s + rng.uniform(-0.02, 0.02))
        gamma = float(gamma + rng.uniform(0.0, 1.0))
        params = SystemParams(
            rates=PuRates(alpha, beta),
            phi_s=phi_s,
            eta_s=_budget_for_threshold(alpha, beta, phi_s, gamma),
        )
        sim_seed = int(rng.integers(0, 2**63))
        if policy == "mixed":
            pol = craoi.age_optimal_policy(params)
            sim_policy = RandomizedThresholdPolicy(gamma1=pol.gamma1, mu=pol.mu)
            avg_aoi, psi_s = pol.avg_aoi, pol.psi_s
        else:
            p0 = craoi.optimal_transmit_probability(params).p0
            sim_policy = BernoulliAccessPolicy(p0=p0)
            avg_aoi = craoi.average_aoi_bernoulli(params, p0)
            psi_s = craoi.baseline.collision_probability_bernoulli(params, p0)
        config = SimConfig(params=params, policy=sim_policy, seed=sim_seed, slots=slots)
        cases.append(ReplayCase(config, avg_aoi, psi_s))
    return [(case, rep) for case in cases for rep in range(REPLAY_REPS)]


def make_replay_op():
    results = []  # the current case's replications so far

    def replay_op(item):
        """One replication (``run_config``); a case's last one checks the mean
        and standard error of its replications, as ``replicate`` forms them,
        against the closed forms."""
        case, rep = item
        if rep == 0:
            results.clear()
        try:
            r = craoi.run_config(case.config, rep)
        except Exception as exc:  # an op boundary: record the failure and keep going
            return None, f"raised:{type(exc).__name__}"
        results.append(r)
        out = (r.slots, r.success_count, r.transmit_count, r.collision_count, r.avg_aoi, r.psi_s_hat)
        if rep < REPLAY_REPS - 1:
            return out, None
        if len(results) < REPLAY_REPS:
            return out, "incomplete"
        aoi = float(np.mean([x.avg_aoi for x in results]))
        if not abs(aoi - case.avg_aoi) <= REPLAY_AOI_REL_TOL * case.avg_aoi:
            return out, "age"
        psi = np.array([x.psi_s_hat for x in results])
        se = max(float(psi.std(ddof=1) / math.sqrt(REPLAY_REPS)), 1e-12)
        if not abs(float(psi.mean()) - case.psi_s) <= REPLAY_PSI_STDERRS * se:
            return out, "psi"
        return out, None

    return replay_op


# ---------------------------------------------------------------- presets


def presets_inputs(seed: int) -> list[str]:
    """The presets in the package's order; the seed has no effect.

    The presets are fixed grids run at the package's default seed, whose CSV
    bytes are recorded.  Their order is fixed as well, so each preset follows
    the same ops on every seed.
    """
    return list(PRESETS)


def make_presets_op(out_dir: Path):
    expected = json.loads(PRESET_DIGESTS.read_text(encoding="utf-8"))

    def presets_op(name: str):
        """One preset run; passes when its CSV bytes match the recorded digest."""
        try:
            if name == "fig4":
                path = craoi.experiments.run_fig4(out_dir, sim_slots=FIG4_SIM_SLOTS)
            else:
                path = craoi.experiments.run_preset(name, out_dir)
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except Exception as exc:  # an op boundary: record the failure and keep going
            return None, f"raised:{type(exc).__name__}"
        return digest, None if digest == expected.get(name) else "digest"

    return presets_op


# ---------------------------------------------------------------- registry

WORKLOADS = ("sweep", "verify", "replay", "presets")


def build(name: str, seed: int, scratch: Path) -> Workload:
    """Generate a workload's inputs from the seed; ``scratch`` holds preset CSVs."""
    if name == "sweep":
        return Workload(name, sweep_inputs(seed), sweep_op)
    if name == "verify":
        return Workload(name, verify_inputs(seed), verify_op)
    if name == "replay":
        return Workload(name, replay_inputs(seed), make_replay_op())
    if name == "presets":
        return Workload(name, presets_inputs(seed), make_presets_op(scratch))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
