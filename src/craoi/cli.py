"""Command-line front end: solve an instance, simulate a policy, run presets."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import SystemModel, SystemParams, age_optimal_policy
from .channel import PuRates, expected_cycle_length
from .experiments import DEFAULT_SEED, PRESETS, run_preset, write_csv
from .policies import BernoulliAccessPolicy, RandomizedThresholdPolicy, ThresholdPolicy
from .sim import SimConfig, run_config
from .solver import lambda_bisection, policy_cost_evaluate


def _parse_policy(text: str, parser: argparse.ArgumentParser):
    kind, _, arg = text.partition(":")
    try:
        if kind == "threshold":
            return ThresholdPolicy(gamma=int(arg))
        if kind == "mixed":
            g, mu = arg.split(",")
            return RandomizedThresholdPolicy(gamma1=int(g), mu=float(mu))
        if kind == "bernoulli":
            return BernoulliAccessPolicy(p0=float(arg))
    except (ValueError, TypeError) as exc:
        parser.error(f"invalid policy {text!r}: {exc}")
    parser.error(
        f"unknown policy {text!r}; use threshold:<gamma>, mixed:<gamma1>,<mu> "
        "or bernoulli:<p0>"
    )


def _add_system_flags(sub: argparse.ArgumentParser, with_budget: bool = True) -> None:
    sub.add_argument("--alpha", type=float, required=True, help="PU idle->busy rate per slot")
    sub.add_argument("--beta", type=float, required=True, help="PU busy->idle rate per slot")
    sub.add_argument("--phi-s", type=float, required=True, help="device outage probability")
    if with_budget:
        grp = sub.add_mutually_exclusive_group(required=True)
        grp.add_argument("--eta-s", type=float, help="per-slot collision budget (device side)")
        grp.add_argument("--eta-p", type=float, help="per-cycle collision budget (PU side)")


def _system_params(args) -> SystemParams:
    rates = PuRates(alpha=args.alpha, beta=args.beta)
    if getattr(args, "eta_p", None) is not None:
        return SystemParams.from_pu_budget(rates, args.phi_s, args.eta_p)
    return SystemParams(rates=rates, phi_s=args.phi_s, eta_s=args.eta_s)


def _cmd_solve(args, parser) -> int:
    params = _system_params(args)
    pol = age_optimal_policy(params)
    print(f"gamma1 {pol.gamma1}")
    print(f"gamma2 {pol.gamma2}")
    print(f"mu {pol.mu:.10g}")
    print(f"avg_aoi {pol.avg_aoi:.10g}")
    print(f"psi_s {pol.psi_s:.10g}")
    print(f"psi_p {pol.psi_s * expected_cycle_length(params.rates):.10g}")
    print(f"constraint_binds {int(pol.constraint_binds)}")
    if args.verify:
        sol = lambda_bisection(params)
        # (gamma1, gamma2, mu) labels are not unique: (5, 6, mu=0) and
        # (6, 7, mu=1) are both the threshold-6 policy.  gamma1 - mu names the
        # policy: it transmits w.p. min(1, max(0, d - (gamma1 - mu))) at idle
        # age d, so no age's probability differs by more than the difference
        # of gamma1 - mu (the integer part is exact).  Compare that, then the
        # solver's exact average age and collision probability with the
        # closed form's, and with a forward walk of the closed-form policy's
        # table: the closed form and the solver both sum renewals backward.
        table = np.zeros(pol.gamma1 + 1)
        table[-2:] = pol.mu, 1.0
        walked = policy_cost_evaluate(table, params)
        ok = abs((sol.gamma1 - pol.gamma1) - (sol.mu - pol.mu)) <= 1e-6 and all(
            math.isclose(sol.achieved_aoi, aoi, rel_tol=1e-12)
            and math.isclose(sol.achieved_cost, psi, rel_tol=1e-12)
            for aoi, psi in ((pol.avg_aoi, pol.psi_s), walked)
        )
        print(
            f"rvi_agreement {'ok' if ok else 'MISMATCH'} "
            f"(rvi gamma1={sol.gamma1} gamma2={sol.gamma2} mu={sol.mu:.10g})"
        )
        if not ok:
            raise RuntimeError("CMDP solution disagrees with the closed form")
    if args.out:
        write_csv(
            Path(args.out),
            ["alpha", "beta", "phi_s", "eta_s", "gamma1", "gamma2", "mu", "avg_aoi", "psi_s"],
            [
                [
                    args.alpha,
                    args.beta,
                    args.phi_s,
                    params.eta_s,
                    pol.gamma1,
                    pol.gamma2,
                    pol.mu,
                    pol.avg_aoi,
                    pol.psi_s,
                ]
            ],
        )
    return 0


def _cmd_simulate(args, parser) -> int:
    model = SystemModel(rates=PuRates(alpha=args.alpha, beta=args.beta), phi_s=args.phi_s)
    policy = _parse_policy(args.policy, parser)
    cfg = SimConfig(
        params=model, policy=policy, seed=args.seed, slots=args.slots, cycles=args.cycles
    )
    res = run_config(cfg)
    fields = {
        "avg_aoi": res.avg_aoi,
        "psi_s_hat": res.psi_s_hat,
        "psi_p_hat": res.psi_p_hat,
        "throughput_hat": res.throughput_hat,
        "collisions": res.collision_count,
        "successes": res.success_count,
        "transmissions": res.transmit_count,
        "slots": res.slots,
        "cycles": res.cycles,
    }
    for name, value in fields.items():
        print(f"{name} {value:.10g}" if isinstance(value, float) else f"{name} {value}")
    print(f"aoi_divergence {int(res.aoi_divergence_flag)}")
    if args.out:
        write_csv(Path(args.out), list(fields), [list(fields.values())])
    return 0


def _cmd_experiment(args, parser) -> int:
    path = run_preset(args.preset, Path(args.out), seed=args.seed)
    print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    In-process callers run ``main`` many times, and building the parser costs
    about a millisecond, as much as a whole small ``solve --verify``.
    """
    parser = argparse.ArgumentParser(
        prog="craoi",
        description="Age-optimal opportunistic spectrum access: solver, analysis, simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the age-optimal policy for one instance")
    _add_system_flags(p_solve)
    p_solve.add_argument(
        "--verify", action="store_true", help="cross-check against the CMDP solver"
    )
    # The value is unused: the solver has no age grid.  The flag stays because
    # existing command lines pass it, among them the fifth op of the verify
    # benchmark workload (perfbench/workloads.py), where an unknown flag would
    # exit through SystemExit instead of failing the op.
    p_solve.add_argument(
        "--delta-max", type=int, help="ignored; the CMDP solver has no age grid"
    )
    p_solve.add_argument("--out", help="optional CSV output path")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo replay of a policy")
    _add_system_flags(p_sim, with_budget=False)
    p_sim.add_argument(
        "--policy",
        required=True,
        help="threshold:<gamma> | mixed:<gamma1>,<mu> | bernoulli:<p0>",
    )
    hor = p_sim.add_mutually_exclusive_group(required=True)
    hor.add_argument("--slots", type=int, help="horizon in whole slots")
    hor.add_argument("--cycles", type=int, help="horizon in busy-idle cycles")
    p_sim.add_argument("--seed", type=int, default=0, help="64-bit simulation seed")
    p_sim.add_argument("--out", help="optional CSV output path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a preset grid and write CSV")
    p_exp.add_argument("preset", choices=PRESETS)
    p_exp.add_argument("--out", default=".", help="output directory")
    p_exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
