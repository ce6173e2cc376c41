#!/usr/bin/env python3
"""Benchmark of the craoi package: one workload per run, result as a JSON last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 38 --trace 0

A run generates the workload's inputs from ``--seed`` and repeats whole
passes over them, closed loop from one process, for ``--seconds`` (at least
one pass).  Every op is checked on every pass and timed at its fastest.
With ``--trace 0`` the last line carries the end-to-end metrics, measured
with tracing off; with ``--trace 1`` it carries the per-layer metrics of one
traced pass, taken after untraced passes for half the time.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread for a run, set before numpy loads (set-up children inherit
# it).  The solver's 400x400 solves run on two OpenBLAS threads by default; on
# a 2-CPU shared host one of them waits for a CPU another tenant holds, and
# `verify`'s wall time then spread by up to 0.28 over ten runs.  The setting
# found is kept in the provenance.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_ENV_FOUND = {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ}
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
# Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p99_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class PassStats:
    wall_s: float
    digest: str
    kinds: list
    op_ms: list[float]  # wall time of each op
    op_cpu_s: list[float]  # CPU time of each op, self plus children


def _cpu_now() -> float:
    """CPU seconds used so far by this process (all threads) and its reaped children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> tuple[float, float]:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return self_kb / 1024.0, children_kb / 1024.0


def run_pass(workload, tracer=None) -> PassStats:
    """Run every op once, timing each; outputs and failure kinds feed the pass digest."""
    op_ms, op_cpu_s, outputs, kinds = [], [], [], []
    t0 = time.perf_counter()
    for i, item in enumerate(workload.inputs):
        if tracer is not None:
            tracer.op = i
        c = _cpu_now()
        s = time.perf_counter()
        out, kind = workload.op(item)
        e = time.perf_counter()
        op_cpu_s.append(_cpu_now() - c)
        op_ms.append((e - s) * 1e3)
        outputs.append((out, kind))
        kinds.append(kind)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    return PassStats(wall, digest, kinds, op_ms, op_cpu_s)


def run_passes(workload, seconds: float) -> tuple[list[PassStats], np.ndarray, np.ndarray]:
    """Whole passes for ``seconds``, with each op's fastest wall (ms) and CPU (s)
    times over them.

    A pass starts only if, taking as long as the last one, it ends within
    ``seconds``; the first pass always runs.  Memory stays flat however many
    passes run: per-op times are folded into running minima, and only the
    first pass keeps its failure kinds.
    """
    passes = []
    fastest_ms = np.full(len(workload.inputs), np.inf)
    fastest_cpu_s = np.full(len(workload.inputs), np.inf)
    start = time.perf_counter()
    while True:
        stats = run_pass(workload)
        np.minimum(fastest_ms, stats.op_ms, out=fastest_ms)
        np.minimum(fastest_cpu_s, stats.op_cpu_s, out=fastest_cpu_s)
        stats.op_ms = stats.op_cpu_s = []
        if passes:  # the first pass's failure kinds stand for all; the digests must match
            stats.kinds = []
        passes.append(stats)
        if time.perf_counter() - start + stats.wall_s > seconds:
            return passes, fastest_ms, fastest_cpu_s


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def setup_seconds(workload: str, seed: int) -> float:
    """Median time of fresh interpreters that import the package and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas() -> dict:
    import ctypes
    import glob

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env_found"] = BLAS_ENV_FOUND
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe() -> str:
    # the ceiling keeps git from describing a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable"


def provenance(args, workload) -> dict:
    import craoi

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "craoi": getattr(craoi, "__version__", "unknown"),
        "git_describe": _git_describe(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": {"name": workload.name, "ops_per_pass": len(workload.inputs)},
    }


def failure_summary(kinds: list) -> dict[str, int]:
    return dict(sorted(Counter(k for k in kinds if k is not None).items()))


def end_to_end(fastest_ms, fastest_cpu_s, setup_s: float, rss: tuple[float, float]) -> dict:
    """Each op counts at its fastest over the run's passes: on a shared host,
    interference only adds time, and it comes in phases of seconds to minutes
    that move whole passes by tens of percent."""
    values = {
        "setup_s": setup_s,
        "wall_s": float(fastest_ms.sum()) / 1e3,
        "op_p99_ms": percentile(fastest_ms, 99),
        "cpu_s": float(fastest_cpu_s.sum()),
        "peak_rss_mb": rss[0] + rss[1],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# Spanned functions whose self time is reported, by span name.
SELF_TIMED = (
    "analysis.age_optimal_policy",
    "analysis.optimal_thresholds",
    "analysis.average_aoi_series",
    "analysis.mixed_policy_metrics",
    "baseline.optimal_transmit_probability",
    "baseline.average_aoi_bernoulli",
    "solver.lambda_bisection",
    "solver.rvi_solve",
    "solver.policy_cost_evaluate",
    "sim.generate_pu_trajectory",
    "sim.run_policy",
    "experiments.write_csv",
    "cli.main",
)
SPAN_CALLS = ("solver.lambda_bisection", "solver.rvi_solve", "solver.policy_cost_evaluate")
EXACT_COUNTS = (
    "analysis.collision_probability.calls",
    "analysis.lambert_w0.calls",
    "channel.slot_transition_matrix.calls",
    "channel.convert_collision_budget.calls",
    "solver.rvi_solve.iterations",
    "policies.transmit_probability.calls",
    "sim.slots",
    "sim.successes",
    "sim.transmits",
    "sim.collisions",
)
# Per-layer failure counters: (workload, failure kinds counted; None for any
# kind not named by another counter of that workload).
FAILURE_COUNTERS = {
    "analysis.failed.overflow": ("sweep", {"overflow"}),
    "analysis.failed.normalization": ("sweep", {"normalization"}),
    "analysis.failed.bracket": ("sweep", {"bracket"}),
    "analysis.failed.dominance": ("sweep", {"dominance"}),
    "analysis.failed.other": ("sweep", None),
    "solver.failed.truncation": ("verify", {"truncation"}),
    "cli.failed.exit": ("verify", {"truncation", "mismatch", "exit"}),
    "sim.failed.age": ("replay", {"age"}),
    "sim.failed.psi": ("replay", {"psi"}),
    "experiments.failed.digest": ("presets", {"digest"}),
}


def failure_counters(workload_name: str, failures: dict) -> dict[str, int]:
    mine = {c: kinds for c, (wl, kinds) in FAILURE_COUNTERS.items() if wl == workload_name}
    named = set().union(*(kinds for kinds in mine.values() if kinds))
    out = dict.fromkeys(FAILURE_COUNTERS, 0)
    for counter, kinds in mine.items():
        out[counter] = sum(n for k, n in failures.items() if (k in kinds if kinds else k not in named))
    return out


def per_layer(workload, tracer, traced: PassStats, untraced: list[PassStats], failures: dict) -> dict:
    """Per-layer metrics of one traced pass; counts are exact, times are per pass."""
    import workloads

    self_s = tracer.self_seconds()
    calls = tracer.span_calls()
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in EXACT_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    sim_s = 1e-9 * sum(
        tracer.end[i] - tracer.start[i]
        for i, nid in enumerate(tracer.name_id)
        if tracer.names[nid] == "sim.run_config"
    )
    m["sim.slots_per_s"] = (counts.get("sim.slots", 0) / sim_s if sim_s else 0.0, "1/s")

    preset_s = {name: 0.0 for name in workloads.PRESETS}
    if workload.name == "presets":
        for name, ms in zip(workload.inputs, traced.op_ms):
            preset_s[name] = ms * 1e-3
    for name, seconds in preset_s.items():
        m[f"experiments.{name}.s"] = (seconds, "s")
    m["experiments.bytes_written"] = (counts.get("experiments.bytes_written", 0), "count")

    for name, n in failure_counters(workload.name, failures).items():
        m[name] = (n, "count")
    m["failed_share"] = (sum(failures.values()) / len(workload.inputs), "ratio")
    m["trace.overhead_s"] = (traced.wall_s - min(p.wall_s for p in untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "craoi" / "__init__.py").is_file():
        print(f"error: no craoi sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = workloads.build(args.workload, args.seed, Path(scratch))
        if args.setup_only:
            return 0
        return _measure(args, workload)


def _measure(args, workload) -> int:
    if args.trace:
        from spans import Tracer, patched

        untraced, _, _ = run_passes(workload, args.seconds / 2.0)
        tracer = Tracer()
        with patched(tracer):
            traced = run_pass(workload, tracer)
        passes = untraced + [traced]
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
    else:
        passes, fastest_ms, fastest_cpu_s = run_passes(workload, args.seconds)
        rss = _peak_rss_mb()  # before any set-up child adds to the children's peak
        setup_s = setup_seconds(args.workload, args.seed)

    kinds = passes[0].kinds
    deterministic = all(p.digest == passes[0].digest for p in passes)
    summary = failure_summary(kinds)
    failed = sum(summary.values())
    if args.trace:
        metrics = per_layer(workload, tracer, traced, untraced, summary)
    else:
        metrics = end_to_end(fastest_ms, fastest_cpu_s, setup_s, rss)

    prov = provenance(args, workload)
    record = {
        "provenance": prov,
        "passes": len(passes),
        "deterministic": deterministic,
        "failures": summary,
        "pass_wall_s": [p.wall_s for p in passes],
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    print("provenance " + json.dumps(prov))
    print(
        f"{args.workload}: {len(passes)} passes of {len(workload.inputs)} ops, "
        f"failed {failed}/{len(workload.inputs)} ({failed / len(workload.inputs):.4%}) "
        f"by kind {json.dumps(summary)}, outputs repeat across passes: {deterministic}"
    )
    print(
        json.dumps(
            {
                "correct": deterministic,
                "attempted": len(workload.inputs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
