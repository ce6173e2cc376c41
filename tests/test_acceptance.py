"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each test aggregates its sub-checks into a single verdict line so the gate
can be read off the pytest log directly.  Tolerances are part of the release
contract and are intentionally hard-coded here.
"""

import math
import time
from pathlib import Path

import numpy as np

from craoi import (
    PuRates,
    RandomizedThresholdPolicy,
    SimConfig,
    SystemModel,
    SystemParams,
    ThresholdPolicy,
    age_optimal_policy,
    average_aoi_bernoulli,
    average_aoi_series,
    collision_probability,
    extract_threshold,
    lambda_bisection,
    lambert_w0,
    optimal_thresholds,
    replicate,
    run_config,
)
from craoi.baseline import optimal_transmit_probability
from craoi.experiments import (
    FIG4_SIM_GAMMAS,
    FIG6_ETA_GRID,
    FIG8_ALPHA_GRID,
    FIG8_IDLE_PROB,
    run_fig4,
    run_table1,
)

from .conftest import (
    BINDING_GRID,
    STEADY_STATE_GRID,
    average_aoi_closed_form,
    binding_instance,
    mixed_probs,
    oracle_stationary,
    threshold_probs,
)

CANON_RATES = PuRates(0.02, 0.4)

TABLE1_TARGETS = [109.90, 85.82, 55.44, 22.77, 120.20, 97.60, 57.34, 24.86]


def check(condition: bool, line: str) -> None:
    print(f"\n[{'PASS' if condition else 'FAIL'}] {line}")
    assert condition, line


def read_csv_column(path: Path, column: str) -> list[float]:
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


def test_criterion_1_table1_reproduction(tmp_path):
    start = time.perf_counter()
    path = run_table1(tmp_path)
    elapsed = time.perf_counter() - start
    got = read_csv_column(path, "avg_aoi")
    rel_errs = [abs(g - t) / t for g, t in zip(got, TABLE1_TARGETS)]
    ok = len(got) == 8 and max(rel_errs) <= 0.02 and elapsed < 5.0
    check(
        ok,
        "criterion 1 (channel-selection table): 8 cells within 2% "
        f"(worst {max(rel_errs):.2%}), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_sim_vs_analysis():
    start = time.perf_counter()
    params = SystemModel(rates=CANON_RATES, phi_s=0.2)
    worst_rel = 0.0
    worst_sigma = 0.0
    for gamma in FIG4_SIM_GAMMAS:
        cfg = SimConfig(
            params=params, policy=ThresholdPolicy(gamma), seed=4000 + gamma, slots=100_000
        )
        rep = replicate(cfg, n_reps=10)
        aoi = average_aoi_series(gamma, params)
        psi = collision_probability(gamma, params)
        worst_rel = max(worst_rel, abs(rep.mean["avg_aoi"] - aoi) / aoi)
        se = max(rep.stderr["psi_s_hat"], 1e-12)
        worst_sigma = max(worst_sigma, abs(rep.mean["psi_s_hat"] - psi) / se)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 0.02 and worst_sigma <= 3.0 and elapsed < 60.0
    check(
        ok,
        "criterion 2 (simulation vs analysis): age within 2% "
        f"(worst {worst_rel:.2%}), psi within 3 s.e. (worst {worst_sigma:.2f}), "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_3_rvi_structure():
    results = {}
    for eta_s in (0.0005, 0.001):
        params = SystemParams(rates=CANON_RATES, phi_s=0.2, eta_s=eta_s)
        sol = lambda_bisection(params)
        t_low = extract_threshold(sol.policy_low)
        t_high = extract_threshold(sol.policy_high)
        results[eta_s] = (t_low, t_high, optimal_thresholds(params))
    ok = True
    for eta_s, (t_low, t_high, (g1, g2)) in results.items():
        ok &= t_high - t_low in (0, 1)
        ok &= (t_low, t_high) == (g1, g2)
    ok &= results[0.001][0] < results[0.0005][0]
    ok &= results[0.001][1] < results[0.0005][1]
    check(
        ok,
        "criterion 3 (policy structure): solver thresholds consecutive, equal to "
        f"closed form, and ordered across budgets {dict((k, v[:2]) for k, v in results.items())}",
    )


def test_criterion_4_dominance():
    dominant_same_phi = True
    cross_budgets = []
    for eta_s in FIG6_ETA_GRID:
        eta_s = float(eta_s)
        p02 = SystemParams(rates=CANON_RATES, phi_s=0.2, eta_s=eta_s)
        p03 = SystemParams(rates=CANON_RATES, phi_s=0.3, eta_s=eta_s)
        bern_aoi = average_aoi_bernoulli(p02, optimal_transmit_probability(p02).p0)
        dominant_same_phi &= age_optimal_policy(p02).avg_aoi < bern_aoi
        if age_optimal_policy(p03).avg_aoi < bern_aoi:
            cross_budgets.append(eta_s)
    ok = dominant_same_phi and len(cross_budgets) > 0
    if len(cross_budgets) == len(FIG6_ETA_GRID):
        crossover = "age-optimal at the higher outage wins on the whole grid"
    else:
        crossover = f"crossover near eta_s={max(cross_budgets):.3g}"
    check(
        ok,
        "criterion 4 (policy dominance): age-optimal beats throughput-optimal "
        f"at every budget; {crossover}",
    )


def test_criterion_5_activity_rate_minimum():
    ok = True
    argmins = {}
    for eta_p in (0.01, 0.05):
        curve = []
        for alpha in FIG8_ALPHA_GRID:
            alpha = float(alpha)
            beta = alpha * FIG8_IDLE_PROB / (1.0 - FIG8_IDLE_PROB)
            params = SystemParams.from_pu_budget(PuRates(alpha, beta), 0.2, eta_p)
            curve.append(age_optimal_policy(params).avg_aoi)
        k = int(np.argmin(curve))
        ok &= 0 < k < len(curve) - 1
        ok &= curve[k] < curve[0] and curve[k] < curve[-1]
        argmins[eta_p] = float(FIG8_ALPHA_GRID[k])
    check(
        ok,
        "criterion 5 (activity-rate sweep): interior optimal-age minimum at "
        f"alpha={argmins[0.01]:.3g} (budget 0.01) and alpha={argmins[0.05]:.3g} (budget 0.05)",
    )


def _decay_depth(params: SystemModel, reset_prob: float, target: float = 1e-11) -> int:
    """Age depth at which the geometric tail drops below target, via eigenvalues."""
    from .conftest import expm_transition

    sig = expm_transition(params.rates)
    mod = np.array([[sig[0, 0] - reset_prob, sig[0, 1]], [sig[1, 0], sig[1, 1]]])
    rho = max(abs(np.linalg.eigvals(mod)))
    return int(math.log(target) / math.log(rho)) + 1


def test_criterion_6_oracle_equivalence():
    from craoi import mixed_policy_steady_state
    from craoi.baseline import bernoulli_steady_state

    worst = 0.0
    for i, (alpha, beta, phi_s, gamma) in enumerate(STEADY_STATE_GRID):
        params = SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s)
        depth = _decay_depth(params, params.success_prob)
        dmax = gamma + depth
        if i % 3 == 0 and gamma > 1:
            mu = 0.4
            dist = oracle_stationary(params, mixed_probs(gamma, mu, dmax), dmax)
            closed = [mixed_policy_steady_state(params, gamma, mu, d) for d in range(1, dmax)]
        elif i % 3 == 1:
            p0 = 0.35
            depth = _decay_depth(params, p0 * params.success_prob)
            dmax = 1 + depth
            dist = oracle_stationary(params, np.full(dmax, p0), dmax)
            closed = [bernoulli_steady_state(params, p0, d) for d in range(1, dmax)]
        else:
            dist = oracle_stationary(params, threshold_probs(gamma, dmax), dmax)
            closed = [mixed_policy_steady_state(params, gamma, 1.0, d) for d in range(1, dmax)]
        err = float(np.abs(np.asarray(closed) - dist[: len(closed)]).max())
        worst = max(worst, err)
    steady_ok = worst <= 1e-14

    aoi_worst = 0.0
    for alpha, beta, phi_s, gamma in STEADY_STATE_GRID:
        params = SystemModel(rates=PuRates(alpha, beta), phi_s=phi_s)
        closed = average_aoi_closed_form(gamma, params)
        series = average_aoi_series(gamma, params)
        aoi_worst = max(aoi_worst, abs(closed - series) / max(1.0, abs(series)))
    aoi_ok = aoi_worst <= 1e-11

    lam_worst = 0.0
    for x in np.concatenate([np.linspace(-0.36, 2.0, 40), np.logspace(1, 8, 20)]):
        w = lambert_w0(float(x))
        lam_worst = max(lam_worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    lam_ok = lam_worst <= 1e-12

    check(
        steady_ok and aoi_ok and lam_ok,
        f"criterion 6 (oracle equivalence): {len(STEADY_STATE_GRID)} steady states "
        f"within 1e-14 (worst {worst:.1e}), single-expression age within 1e-11 "
        f"(worst {aoi_worst:.1e}), Lambert inverse within 1e-12 (worst {lam_worst:.1e})",
    )


def test_criterion_7_constraint_binding():
    psi_worst = 0.0
    mu_worst = 0.0
    sigma_worst = 0.0
    n_binding = 0
    for alpha, beta, phi_s, fraction in BINDING_GRID:
        params = binding_instance(alpha, beta, phi_s, fraction)
        pol = age_optimal_policy(params)
        assert pol.constraint_binds
        n_binding += 1
        psi_worst = max(psi_worst, abs(pol.psi_s - params.eta_s))

        sol = lambda_bisection(params).policy
        assert (sol.gamma1, sol.gamma2) == (pol.gamma1, pol.gamma2)
        mu_worst = max(mu_worst, abs(sol.mu - pol.mu))

        cfg = SimConfig(
            params=params,
            policy=RandomizedThresholdPolicy(gamma1=pol.gamma1, mu=pol.mu),
            seed=7000 + n_binding,
            slots=100_000,
        )
        rep = replicate(cfg, n_reps=10)
        se = max(rep.stderr["psi_s_hat"], 1e-12)
        sigma_worst = max(sigma_worst, abs(rep.mean["psi_s_hat"] - params.eta_s) / se)
    ok = n_binding >= 20 and psi_worst <= 1e-9 and mu_worst <= 1e-6 and sigma_worst <= 3.0
    check(
        ok,
        f"criterion 7 (constraint binding): {n_binding} binding instances, "
        f"analytic psi gap {psi_worst:.1e} <= 1e-9, solver-vs-closed-form mu gap "
        f"{mu_worst:.1e} <= 1e-6, simulated psi within 3 s.e. (worst {sigma_worst:.2f})",
    )


def test_criterion_8_determinism(tmp_path):
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "craoi.cli", "simulate",
        "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
        "--policy", "mixed:50,0.98", "--slots", "100000", "--seed", "31415",
    ]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    cli_ok = a.stdout == b.stdout and a.returncode == b.returncode == 0

    params = SystemParams(rates=CANON_RATES, phi_s=0.2, eta_s=0.0005)
    cfg = SimConfig(params=params, policy=ThresholdPolicy(20), seed=271828, slots=50_000)
    single_ok = run_config(cfg) == run_config(cfg)
    serial = replicate(cfg, n_reps=6, n_workers=1)
    parallel = replicate(cfg, n_reps=6, n_workers=3)
    rep_ok = serial.results == parallel.results and serial.mean == parallel.mean

    paths = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        paths.append(run_fig4(d, seed=1234, sim_slots=50_000))
    preset_ok = paths[0].read_bytes() == paths[1].read_bytes()

    check(
        cli_ok and single_ok and rep_ok and preset_ok,
        "criterion 8 (determinism): CLI reruns, repeated configs, parallel vs "
        "serial replication, and preset CSVs are byte-identical under a fixed seed",
    )
