"""Preset parameter grids and CSV emission for the reference experiments.

Each preset produces one figure or table of results: policy structure from
the solver, analytical curves, and Monte-Carlo cross-checks.  Sweep grids
that are free choices (the alpha sweep of the activity-frequency study, the
budget grid of the policy comparison) default to documented logarithmic
sweeps; see the preset docstrings.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .analysis import (
    SystemModel,
    SystemParams,
    age_optimal_policy,
    mixed_policy_metrics,
    optimal_thresholds,
)
from .baseline import average_aoi_bernoulli, optimal_transmit_probability
from .channel import PuRates
from .policies import ThresholdPolicy
from .sim import SimConfig, run_config
from .solver import lambda_bisection

PRESETS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1")

DEFAULT_SEED = 20240 + 611


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Deterministic CSV: header line, LF endings, 6 significant digits."""
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _rates_for_idle_prob(alpha: float, p_idle: float) -> PuRates:
    return PuRates(alpha=alpha, beta=alpha * p_idle / (1.0 - p_idle))


FIG3_AGES = 200  # rows per budget: idle ages 1..FIG3_AGES


def run_fig3(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Policy structure from the CMDP solver for eta_s in {0.0005, 0.001}, ages 1..FIG3_AGES.

    The solver's tables cover each policy's head; older ages take the last entry.
    """
    rates = PuRates(0.02, 0.4)
    rows = []
    for eta_s in (0.0005, 0.001):
        params = SystemParams(rates=rates, phi_s=0.2, eta_s=eta_s)
        sol = lambda_bisection(params)
        low, high = sol.policy_low.transmit, sol.policy_high.transmit
        g1_cf, g2_cf = optimal_thresholds(params)
        for delta in range(1, FIG3_AGES + 1):
            rows.append(
                [
                    eta_s,
                    delta,
                    bool(low[min(delta, low.size) - 1]),
                    bool(high[min(delta, high.size) - 1]),
                    sol.policy.gamma1,
                    sol.policy.gamma2,
                    g1_cf,
                    g2_cf,
                    sol.policy.mu,
                ]
            )
    path = out_dir / "fig3.csv"
    write_csv(
        path,
        [
            "eta_s",
            "delta_slots",
            "transmit_lambda_low",
            "transmit_lambda_high",
            "gamma1_rvi",
            "gamma2_rvi",
            "gamma1_closed_form",
            "gamma2_closed_form",
            "mu",
        ],
        rows,
    )
    return path


FIG4_SIM_GAMMAS = (1, 5, 10, 20, 40, 80)
FIG4_MODEL = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.2)


def fig4_sim_configs(seed: int = DEFAULT_SEED, sim_slots: int = 10**6) -> dict[int, SimConfig]:
    """fig4's replays by threshold: ``ThresholdPolicy(gamma)`` seeded ``seed + gamma``."""
    return {
        gamma: SimConfig(
            params=FIG4_MODEL, policy=ThresholdPolicy(gamma), seed=seed + gamma, slots=sim_slots
        )
        for gamma in FIG4_SIM_GAMMAS
    }


def run_fig4(out_dir: Path, seed: int = DEFAULT_SEED, sim_slots: int = 10**6) -> Path:
    """Analytical vs simulated age and collision probability over thresholds."""
    configs = fig4_sim_configs(seed, sim_slots)
    rows = []
    for gamma in range(1, 101):
        aoi_an, psi_an = mixed_policy_metrics(FIG4_MODEL, gamma, 1.0)
        if gamma in configs:
            res = run_config(configs[gamma])
            aoi_sim, psi_sim = res.avg_aoi, res.psi_s_hat
        else:
            aoi_sim = psi_sim = float("nan")
        rows.append([gamma, aoi_an, psi_an, aoi_sim, psi_sim])
    path = out_dir / "fig4.csv"
    write_csv(
        path,
        ["gamma_slots", "avg_aoi_analytic", "psi_s_analytic", "avg_aoi_sim", "psi_s_sim"],
        rows,
    )
    return path


def _idle_prob_sweep(out_dir: Path, budgets, budget_kind: str, filename: str) -> Path:
    alpha, phi_s = 0.01, 0.2
    rows = []
    for budget in budgets:
        for p_idle in np.arange(0.55, 0.951, 0.05):
            rates = _rates_for_idle_prob(alpha, float(p_idle))
            if budget_kind == "eta_p":
                params = SystemParams.from_pu_budget(rates, phi_s, budget)
            else:
                params = SystemParams(rates=rates, phi_s=phi_s, eta_s=budget)
            pol = age_optimal_policy(params)
            rows.append(
                [budget, p_idle, rates.beta, pol.gamma1, pol.gamma2, pol.mu, pol.avg_aoi]
            )
    path = out_dir / filename
    write_csv(
        path,
        [budget_kind, "p_idle", "beta", "gamma1", "gamma2", "mu", "avg_aoi"],
        rows,
    )
    return path


def run_fig5(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Optimal age vs idle probability under PU-side budgets (alpha = 0.01)."""
    return _idle_prob_sweep(out_dir, (0.01, 0.05), "eta_p", "fig5.csv")


def run_fig7(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Optimal age vs idle probability under device-side budgets (alpha = 0.01)."""
    return _idle_prob_sweep(out_dir, (0.0005, 0.001), "eta_s", "fig7.csv")


FIG6_ETA_GRID = np.logspace(-4, -2, 21)


def run_fig6(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Age-optimal vs throughput-optimal average age over a two-decade budget grid."""
    rates = PuRates(0.02, 0.4)
    rows = []
    for eta_s in FIG6_ETA_GRID:
        eta_s = float(eta_s)
        aoi_opt = {}
        for phi_s in (0.2, 0.3):
            params = SystemParams(rates=rates, phi_s=phi_s, eta_s=eta_s)
            aoi_opt[phi_s] = age_optimal_policy(params).avg_aoi
        params02 = SystemParams(rates=rates, phi_s=0.2, eta_s=eta_s)
        bern = optimal_transmit_probability(params02)
        aoi_bern = average_aoi_bernoulli(params02, bern.p0)
        rows.append([eta_s, aoi_opt[0.2], aoi_opt[0.3], bern.p0, aoi_bern])
    path = out_dir / "fig6.csv"
    write_csv(
        path,
        [
            "eta_s",
            "avg_aoi_age_optimal_phi02",
            "avg_aoi_age_optimal_phi03",
            "p0_phi02",
            "avg_aoi_throughput_optimal_phi02",
        ],
        rows,
    )
    return path


FIG8_ALPHA_GRID = np.logspace(np.log10(0.001), np.log10(0.3), 25)
FIG8_IDLE_PROB = 0.75


def run_fig8(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Optimal age vs PU activity rate at fixed idle probability 0.75.

    The alpha sweep is a documented default: 25 points, logarithmic on
    [0.001, 0.3], with beta = 3 * alpha so the idle probability stays at 0.75.
    """
    rows = []
    for eta_p in (0.01, 0.05):
        for alpha in FIG8_ALPHA_GRID:
            rates = _rates_for_idle_prob(float(alpha), FIG8_IDLE_PROB)
            params = SystemParams.from_pu_budget(rates, 0.2, eta_p)
            pol = age_optimal_policy(params)
            rows.append([eta_p, alpha, rates.beta, params.eta_s, pol.gamma1, pol.mu, pol.avg_aoi])
    path = out_dir / "fig8.csv"
    write_csv(
        path,
        ["eta_p", "alpha", "beta", "eta_s", "gamma1", "mu", "avg_aoi"],
        rows,
    )
    return path


TABLE1_CELLS = ((0.002, 0.01), (0.01, 0.01), (0.002, 0.05), (0.01, 0.05))


def run_table1(out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    """Optimal average age for the 2x4 channel-selection grid (p_idle = 0.75)."""
    rows = []
    for phi_s in (0.2, 0.3):
        for channel, (alpha, eta_p) in enumerate(TABLE1_CELLS, start=1):
            rates = _rates_for_idle_prob(alpha, 0.75)
            params = SystemParams.from_pu_budget(rates, phi_s, eta_p)
            pol = age_optimal_policy(params)
            rows.append(
                [channel, phi_s, alpha, eta_p, pol.gamma1, pol.gamma2, pol.mu, pol.avg_aoi]
            )
    path = out_dir / "table1.csv"
    write_csv(
        path,
        ["channel", "phi_s", "alpha", "eta_p", "gamma1", "gamma2", "mu", "avg_aoi"],
        rows,
    )
    return path


_RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "table1": run_table1,
}


def run_preset(name: str, out_dir: Path, seed: int = DEFAULT_SEED) -> Path:
    if name not in _RUNNERS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[name](out_dir, seed=seed)
