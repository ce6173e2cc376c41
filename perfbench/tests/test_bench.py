"""Tests of the benchmark itself: seeded inputs, exact traced counters, unchanged outputs.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
They use cut-down copies of the workloads so that they finish in well under a
minute; the op code and the tracing are the benchmark's own.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import craoi  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNTERS = run.EXACT_COUNTS + tuple(f"{name}.calls" for name in run.SPAN_CALLS)


def small_workloads(tmp_path: Path, seed: int) -> list[workloads.Workload]:
    """Each workload cut to a few ops that still reach its layers."""
    sweep = workloads.Workload("sweep", workloads.sweep_inputs(seed, size=400), workloads.sweep_op)
    verify = workloads.Workload("verify", workloads.verify_inputs(seed)[:1], workloads.verify_op)
    replay = workloads.Workload(
        "replay", workloads.replay_inputs(seed, slots=20_000)[:2], workloads.make_replay_op()
    )
    presets = workloads.Workload("presets", ["fig4", "table1"], workloads.make_presets_op(tmp_path))
    return [sweep, verify, replay, presets]


def traced_pass(workload):
    tracer = spans.Tracer()
    with spans.patched(tracer):
        stats = run.run_pass(workload, tracer)
    return stats, tracer


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: one untraced pass and two traced passes with the same seed."""
    out = {}
    for wl in small_workloads(tmp_path_factory.mktemp("presets"), seed=run.DEFAULT_SEED):
        untraced = run.run_pass(wl)
        out[wl.name] = (untraced, traced_pass(wl), traced_pass(wl))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_deterministic_under_the_seed(name, tmp_path):
    first = workloads.build(name, 5, tmp_path).inputs
    assert workloads.build(name, 5, tmp_path).inputs == first
    if name != "presets":  # the presets are fixed grids
        assert workloads.build(name, 6, tmp_path).inputs != first


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counters(passes, name):
    _, (_, first), (_, second) = passes[name]
    assert {k: first.counts.get(k, 0) for k in COUNTERS} == {
        k: second.counts.get(k, 0) for k in COUNTERS
    }
    assert first.span_calls() == second.span_calls()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_match(passes, name):
    untraced, (traced, _), _ = passes[name]
    assert traced.digest == untraced.digest
    assert traced.kinds == untraced.kinds


def test_every_layer_is_reached_where_expected(passes):
    tracer = {name: passes[name][1][1] for name in passes}
    assert tracer["sweep"].counts["analysis.lambert_w0.calls"] > 0
    assert tracer["sweep"].counts["solver.rvi_solve.iterations"] == 0
    assert tracer["verify"].counts["solver.rvi_solve.iterations"] > 0
    assert tracer["verify"].span_calls()["cli.main"] == 1
    assert tracer["replay"].counts["sim.slots"] == 2 * 20_000
    assert tracer["replay"].self_seconds()["sim.run_policy"] > 0
    assert tracer["presets"].counts["sim.slots"] > 0
    assert tracer["presets"].counts["policies.transmit_probability.calls"] > 0
    assert tracer["presets"].counts["experiments.bytes_written"] > 0
    assert tracer["presets"].counts["solver.rvi_solve.iterations"] == 0


def test_self_time_excludes_child_spans(passes):
    tracer = passes["verify"][1][1]
    self_s = tracer.self_seconds()
    total = 1e-9 * sum(e - s for e, s, p in zip(tracer.end, tracer.start, tracer.parent) if p < 0)
    assert sum(self_s.values()) == pytest.approx(total, rel=1e-9)
    assert self_s["cli.main"] < self_s["solver.rvi_solve"]


def test_patching_is_undone():
    originals = {
        (mod, fn): getattr(sys.modules[mod], fn) for mod, fn, _ in spans.SPANNED + spans.COUNTED
    }
    method = craoi.ThresholdPolicy.transmit_probability
    with spans.patched(spans.Tracer()):
        assert craoi.age_optimal_policy is not originals[("craoi.analysis", "age_optimal_policy")]
        assert craoi.experiments.age_optimal_policy is craoi.age_optimal_policy
        assert craoi.ThresholdPolicy.transmit_probability is not method
    for (mod, fn), orig in originals.items():
        assert getattr(sys.modules[mod], fn) is orig
    assert craoi.ThresholdPolicy.transmit_probability is method


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert res.returncode != 0
    assert res.stdout == ""


def test_replay_ops_reproduce_replicate():
    items = workloads.replay_inputs(run.DEFAULT_SEED, slots=2_000)[: workloads.REPLAY_REPS]
    op = workloads.make_replay_op()
    outs = [op(item)[0] for item in items]
    rep = craoi.replicate(items[0][0].config, n_reps=workloads.REPLAY_REPS)
    assert [out[:4] for out in outs] == [
        (r.slots, r.success_count, r.transmit_count, r.collision_count) for r in rep.results
    ]
