#!/usr/bin/env python3
"""Time one checkout end to end and layer by layer, and run its perfbench workloads.

Usage, from the root of a checkout:

    python3 scripts/bench.py --label change --out BENCH_<n>.json
    python3 scripts/bench.py --tree ../parent --label parent --out BENCH_<n>.json

``--tree`` names the checkout to measure (default: this one).  Everything
runs on one BLAS thread.  End to end, the record holds the wall time of the
tier-1 suite (``python -m pytest -q --continue-on-collection-errors`` in the
tree, with its summary line and pass count) and of
``scripts/run_experiments.py`` over every preset, each as a subprocess.  The
layers are timed in this process, best of ``REPEAT`` with fixed inputs: one
``rvi_solve`` at lambda = 1e3, a full ``lambda_bisection``, one
``age_optimal_policy``, one ``mixed_policy_metrics`` of the optimal policy and
one ``slot_transition_matrix``, all on the canonical instance (alpha 0.02,
beta 0.4, phi_s 0.2, eta_s 5e-4), and on a slow PU (alpha 1e-4, beta 3e-4,
phi_s 0.2) one ``policy_cost_evaluate`` of the threshold table at
Gamma = 5e4 and, best of ``DEEP_REPEAT``, one ``lambda_bisection`` whose
budget lies halfway between psi_s(5e4) and psi_s(5e4 + 1).  The closed form
per instance is the microseconds per ``age_optimal_policy`` over the first
``SWEEP_SAMPLE`` inputs of ``perfbench.workloads.sweep_inputs(SEED)``, best of
``REPEAT`` passes over the sample.  Two layers time the set-up side, where
work moved out of an op would show: ``sweep_inputs_ms``, building all of
``sweep_inputs(SEED)``, best of ``REPEAT``, and ``import_craoi_ms``, the
median over ``IMPORT_RUNS`` fresh interpreters of ``import craoi`` alone.
The simulator layers are the six fig4 replays (``run_config`` of each of
``fig4_sim_configs``, the configurations ``run_fig4`` replays, at 20,000
slots), best of ``REPEAT``; the slots per second of one
``RandomizedThresholdPolicy(5, 0.5)`` replay over 10^6 slots of the canonical
channel, best of ``REPEAT``; one replay of the dense-head table (2,000 ages at
0.001, then 1) over 2 * 10^6 slots of the slow PU, best of ``DEEP_REPEAT``;
and the peak RSS of a fresh interpreter that replays the randomized policy
over 4 * 10^6 slots.  ``src_lines`` counts the lines of the tree's
``src/craoi/*.py``: in total, and as code, the lines that are neither blank,
comment nor docstring (docstrings found by ``ast``).
Then the tree's
``perfbench/run.py`` runs every workload untraced and traced on seed 1 as
subprocesses, each for that script's default run length.  Wall times are recorded, never gated;
the counts of a traced run (solver iterations and calls, evaluator calls)
repeat exactly.
The record replaces any earlier one of the same label in ``--out`` and
leaves the others.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("sweep", "verify", "presets")
SEED = 1
REPEAT = 20  # best-of count per solver layer
DEEP_REPEAT = 3  # best-of count of the deep multiplier search, which took seconds
SWEEP_SAMPLE = 2_000  # closed-form instances timed per pass
IMPORT_RUNS = 11  # fresh interpreters timed per import
IMPORT_SNIPPET = (
    "import time; start = time.perf_counter(); import craoi; "
    "print(time.perf_counter() - start)"
)
MIXED_SLOTS = 10**6  # slots of the timed randomized-policy replay
DENSE_SLOTS = 2 * 10**6  # slots of the dense-head replay on the slow PU
RSS_SLOTS = 4 * 10**6  # slots of the replay whose peak RSS is measured
RSS_SNIPPET = (
    "import resource; from craoi import *; "
    "model = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.2); "
    "run_config(SimConfig(params=model, policy=RandomizedThresholdPolicy(5, 0.5), "
    f"seed=1, slots={RSS_SLOTS})); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def best_ms(fn, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def import_ms(tree: Path) -> float:
    """Median milliseconds of ``import craoi`` in a fresh interpreter, over ``IMPORT_RUNS``."""
    times = []
    for _ in range(IMPORT_RUNS):
        _, done = timed_run(tree, [sys.executable, "-c", IMPORT_SNIPPET])
        done.check_returncode()
        times.append(float(done.stdout))
    return statistics.median(times) * 1e3


def replay_peak_rss_mb(tree: Path) -> float:
    """Peak RSS in MB of a fresh interpreter replaying ``RSS_SLOTS`` slots."""
    _, done = timed_run(tree, [sys.executable, "-c", RSS_SNIPPET])
    done.check_returncode()
    return float(done.stdout)


def time_layers(tree: Path) -> dict[str, float]:
    """Best-of-``REPEAT`` time of each layer on its fixed inputs, in the unit its name ends in."""
    import numpy as np
    from craoi import (
        PuRates,
        RandomizedThresholdPolicy,
        SimConfig,
        SystemModel,
        SystemParams,
        TabularPolicy,
        age_optimal_policy,
        collision_probability,
        lambda_bisection,
        mixed_policy_metrics,
        policy_cost_evaluate,
        run_config,
        rvi_solve,
        slot_transition_matrix,
    )
    from craoi.experiments import fig4_sim_configs
    from perfbench.workloads import FIG4_SIM_SLOTS, sweep_inputs

    canon = SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=5e-4)
    pol = age_optimal_policy(canon)
    slow = SystemModel(rates=PuRates(1e-4, 3e-4), phi_s=0.2)
    threshold = np.zeros(50_000)
    threshold[-1] = 1.0
    deep_eta = 0.5 * (collision_probability(50_000, slow) + collision_probability(50_001, slow))
    deep = SystemParams(rates=slow.rates, phi_s=slow.phi_s, eta_s=deep_eta)
    sample = sweep_inputs(SEED)[:SWEEP_SAMPLE]

    def closed_forms():
        for params in sample:
            age_optimal_policy(params)

    fig4 = fig4_sim_configs(sim_slots=FIG4_SIM_SLOTS).values()
    mixed = SimConfig(
        params=SystemModel(rates=canon.rates, phi_s=canon.phi_s),
        policy=RandomizedThresholdPolicy(5, 0.5),
        seed=SEED,
        slots=MIXED_SLOTS,
    )
    dense = SimConfig(
        params=slow, policy=TabularPolicy((0.001,) * 2000 + (1.0,)), seed=SEED, slots=DENSE_SLOTS
    )

    def fig4_replays():
        for config in fig4:
            run_config(config)

    return {
        "rvi_solve_lam1e3_ms": best_ms(lambda: rvi_solve(canon, 1e3)),
        "lambda_bisection_ms": best_ms(lambda: lambda_bisection(canon)),
        "age_optimal_policy_ms": best_ms(lambda: age_optimal_policy(canon)),
        "mixed_policy_metrics_ms": best_ms(lambda: mixed_policy_metrics(canon, pol.gamma1, pol.mu)),
        "policy_cost_evaluate_threshold5e4_ms": best_ms(
            lambda: policy_cost_evaluate(threshold, slow)
        ),
        "slot_transition_matrix_ms": best_ms(lambda: slot_transition_matrix(canon.rates)),
        "lambda_bisection_gamma5e4_ms": best_ms(lambda: lambda_bisection(deep), DEEP_REPEAT),
        "age_optimal_policy_sweep_us": best_ms(closed_forms) * 1e3 / SWEEP_SAMPLE,
        "sweep_inputs_ms": best_ms(lambda: sweep_inputs(SEED)),
        "import_craoi_ms": import_ms(tree),
        "fig4_replays_ms": best_ms(fig4_replays),
        "mixed_replay_mslots_per_s": MIXED_SLOTS / best_ms(lambda: run_config(mixed)) / 1e3,
        "dense_head_replay_s": best_ms(lambda: run_config(dense), DEEP_REPEAT) / 1e3,
        "mixed_replay_4e6_peak_rss_mb": replay_peak_rss_mb(tree),
    }


def src_lines(tree: Path) -> dict[str, int]:
    """Lines of the tree's ``src/craoi/*.py``: all, and code (not blank, comment or docstring)."""
    total = code = 0
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((tree / "src" / "craoi").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = text.splitlines()
        total += len(lines)
        code += sum(
            1
            for number, line in enumerate(lines, 1)
            if number not in docs and line.strip() and not line.lstrip().startswith("#")
        )
    return {"total": total, "code": code}


def timed_run(tree: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds and result of one command in the tree, with its ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def time_end_to_end(tree: Path) -> dict:
    """Wall seconds of the tier-1 suite, with its pass count, and of every experiment preset."""
    tier1_s, tests = timed_run(tree, [sys.executable, "-m", "pytest", "-q",
                                      "--continue-on-collection-errors"])  # fmt: skip
    summary = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", summary)
    with tempfile.TemporaryDirectory() as out:
        experiments_s, experiments = timed_run(
            tree, [sys.executable, "scripts/run_experiments.py", "--out", out]
        )
    experiments.check_returncode()
    return {
        "tier1": {
            "wall_s": tier1_s,
            "passed": int(passed.group(1)) if passed else 0,
            "returncode": tests.returncode,
            "summary": summary,
        },
        "run_experiments_s": experiments_s,
    }


def run_workload(tree: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its failures and metric values."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"failed": result["failed"], "attempted": result["attempted"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--label", required=True, help="key of this record in --out")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    blas_found = {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    sys.path[:0] = [str(tree / "src"), str(tree)]  # the package, and perfbench's inputs
    import numpy as np

    record = {
        "host": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {"set": 1, "env_found": blas_found},
        },
        "end_to_end": time_end_to_end(tree),
        "layers": time_layers(tree),
        "src_lines": src_lines(tree),
        "workloads": {
            name: {
                "untraced": run_workload(tree, name, 0),
                "traced": run_workload(tree, name, 1),
            }
            for name in WORKLOADS
        },
    }
    merged = json.loads(args.out.read_text()) if args.out.exists() else {}
    merged[args.label] = record
    args.out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    summary = {**record["end_to_end"], **record["layers"], "src_lines": record["src_lines"]}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
