"""In-memory spans and counters recorded around the package's public functions.

Tracing is applied from outside the package: :func:`patched` replaces each
listed function object in every ``craoi.*`` module namespace that holds it
(modules import functions by name, so patching the defining module alone
would miss most callers) and restores the originals on exit.  Functions that
run per slot or per collision-probability evaluation are counted, not
spanned.  A function missing from the package is skipped, so its metrics
read 0 rather than breaking the benchmark when a later version removes it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, function, span name) for every spanned public function
SPANNED = (
    ("craoi.analysis", "age_optimal_policy", "analysis.age_optimal_policy"),
    ("craoi.analysis", "optimal_thresholds", "analysis.optimal_thresholds"),
    ("craoi.analysis", "average_aoi_series", "analysis.average_aoi_series"),
    ("craoi.analysis", "mixed_policy_metrics", "analysis.mixed_policy_metrics"),
    ("craoi.baseline", "optimal_transmit_probability", "baseline.optimal_transmit_probability"),
    ("craoi.baseline", "average_aoi_bernoulli", "baseline.average_aoi_bernoulli"),
    ("craoi.solver", "lambda_bisection", "solver.lambda_bisection"),
    ("craoi.solver", "rvi_solve", "solver.rvi_solve"),
    ("craoi.solver", "policy_cost_evaluate", "solver.policy_cost_evaluate"),
    ("craoi.sim", "generate_pu_trajectory", "sim.generate_pu_trajectory"),
    ("craoi.sim", "run_policy", "sim.run_policy"),
    ("craoi.sim", "run_config", "sim.run_config"),
    ("craoi.experiments", "write_csv", "experiments.write_csv"),
    ("craoi.cli", "main", "cli.main"),
)

# (module, function, counter name) for hot functions that are only counted
COUNTED = (
    ("craoi.analysis", "collision_probability", "analysis.collision_probability.calls"),
    ("craoi.analysis", "lambert_w0", "analysis.lambert_w0.calls"),
    ("craoi.channel", "slot_transition_matrix", "channel.slot_transition_matrix.calls"),
    ("craoi.channel", "convert_collision_budget", "channel.convert_collision_budget.calls"),
)

# policy classes whose transmit_probability method is counted on the class
POLICY_MODULE = "craoi.policies"
POLICY_METHOD = "transmit_probability"
POLICY_COUNTER = "policies.transmit_probability.calls"


class Tracer:
    """Spans (name, start, end, parent, op) in compact arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.stack.append(idx)
        return idx

    def spanned(self, name: str, fn):
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)  # keeps __module__/__qualname__, so a process pool can pickle it
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            self.start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.stack.pop()
            if on_result is not None:
                on_result(self.counts, result, args)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by child spans."""
        n = len(self.name_id)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - child[i]) * 1e-9
        return out

    def span_calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name_id)

    def write(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent, op] plus the counters."""
        spans = [
            [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.op_id[i]]
            for i in range(len(self.name_id))
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"counters": dict(self.counts), "spans": spans}, f, separators=(",", ":"))


def _count_iterations(counts: Counter, solved, args) -> None:
    counts["solver.rvi_solve.iterations"] += int(getattr(solved, "iterations", 0))


def _count_sim(counts: Counter, result, args) -> None:
    counts["sim.slots"] += int(result.slots)
    counts["sim.successes"] += int(result.success_count)
    counts["sim.transmits"] += int(result.transmit_count)
    counts["sim.collisions"] += int(result.collision_count)


def _count_bytes(counts: Counter, result, args) -> None:
    counts["experiments.bytes_written"] += os.path.getsize(args[0])


_RESULT_HOOKS = {
    "experiments.write_csv": _count_bytes,
    "solver.rvi_solve": _count_iterations,
    "sim.run_config": _count_sim,
}


def _craoi_modules():
    return [m for name, m in list(sys.modules.items()) if name == "craoi" or name.startswith("craoi.")]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install span and count wrappers in every craoi namespace; restore on exit."""
    modules = _craoi_modules()
    undo: list[tuple[object, str, object]] = []

    def restore():
        while undo:
            owner, attr, orig = undo.pop()
            setattr(owner, attr, orig)

    def replace_everywhere(orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    try:
        for mod_name, fn_name, span in SPANNED:
            orig = getattr(sys.modules.get(mod_name), fn_name, None)
            if orig is not None:
                replace_everywhere(orig, tracer.spanned(span, orig))
        for mod_name, fn_name, counter in COUNTED:
            orig = getattr(sys.modules.get(mod_name), fn_name, None)
            if orig is not None:
                replace_everywhere(orig, tracer.counted(counter, orig))
        policies = sys.modules.get(POLICY_MODULE)
        for cls in list(vars(policies).values()) if policies else ():
            orig = vars(cls).get(POLICY_METHOD) if isinstance(cls, type) else None
            if orig is not None:
                undo.append((cls, POLICY_METHOD, orig))
                setattr(cls, POLICY_METHOD, tracer.counted(POLICY_COUNTER, orig))
        yield tracer
    finally:
        restore()
