"""Layer spans for the traced benchmark run.

The tracer replaces the public names that ``rssim.runner`` and
``rssim.validation`` import with wrappers that record one span per call:
name, layer, start, end, thread id, row id and the enclosing span.  The
program itself is not edited, so a change to which layer functions the
pipeline calls, and how often, shows up as changed call counts.  Spans are
kept in memory and written out when the run ends.
"""

import functools
import itertools
import threading
import time
import tracemalloc

import numpy as np

MIB = 1024.0 * 1024.0

# Public names each namespace imports, and the layer (module) they belong to.
RUNNER_NAMES = (
    "run_point",
    "generate_scenario",
    "build_estimation_model",
    "closed_form_moments",
    "build_common_weight_problem",
    "solve_common_weights",
    "ila_wf",
    "se_report",
    "write_rows",
)
VALIDATION_NAMES = (
    "generate_scenario",
    "build_estimation_model",
    "closed_form_moments",
    "build_common_weight_problem",
    "solve_common_weights",
    "select_quartic_variant",
    "mc_moment_table",
    "mc_estimation_stats",
)
LAYER_OF = {
    "run_point": "runner",
    "write_rows": "runner",
    "generate_scenario": "scenario",
    "build_estimation_model": "estimation",
    "closed_form_moments": "moments",
    "build_common_weight_problem": "precoding",
    "solve_common_weights": "precoding",
    "ila_wf": "power",
    "se_report": "link",
    "select_quartic_variant": "validation",
    "mc_moment_table": "validation",
    "mc_estimation_stats": "validation",
}


def model_mib(model) -> float:
    """Bytes held by the arrays of an EstimationModel, computed from nbytes."""
    total = 0
    for name, value in vars(model).items():
        if name == "cov":
            continue  # the input covariances, not built by the call
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total / MIB


class Tracer:
    """Records spans while installed; ``spans`` is a list of dicts."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._rows = itertools.count()
        # tracemalloc is process-wide: one estimation call is measured at a time
        self._memory_lock = threading.Lock()
        self._patched = []

    def install(self, runner_module, validation_module):
        for module, names in ((runner_module, RUNNER_NAMES), (validation_module, VALIDATION_NAMES)):
            for name in names:
                original = getattr(module, name)
                self._patched.append((module, name, original))
                setattr(module, name, self._wrap(original, name))

    def remove(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _wrap(self, fn, name):
        layer = LAYER_OF[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            outer_row = getattr(local, "row", None)
            row = next(self._rows) if name == "run_point" else outer_row
            local.row = row
            stack.append(span_id)
            info = {}
            start = time.perf_counter()
            try:
                if name == "build_estimation_model":
                    with self._memory_lock:
                        tracemalloc.start()
                        try:
                            result = fn(*args, **kwargs)
                            info["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                        finally:
                            tracemalloc.stop()
                    info["model_mib"] = model_mib(result)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                local.row = outer_row
            if name == "ila_wf":
                info["iterations"] = result.iterations
                info["converged"] = bool(result.converged)
            elif name == "closed_form_moments":
                weights = args[1] if len(args) > 1 else kwargs.get("weights")
                info["common"] = weights is not None
            self.spans.append({
                "id": span_id, "parent": parent, "name": name, "layer": layer,
                "start": start, "end": end, "thread": threading.get_ident(),
                "row": row, **info,
            })
            return result

        return traced


def _busy(spans, name=None, layer=None, **match):
    return sum(
        s["end"] - s["start"]
        for s in spans
        if (name is None or s["name"] == name)
        and (layer is None or s["layer"] == layer)
        and all(s.get(k) == v for k, v in match.items())
    )


def _count(spans, **match):
    return sum(1 for s in spans if all(s.get(k) == v for k, v in match.items()))


def covered_seconds(spans, start, end) -> float:
    """Length of the union of span intervals, clipped to [start, end]."""
    intervals = sorted((max(s["start"], start), min(s["end"], end)) for s in spans)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def layer_metrics(spans, start, end) -> dict:
    """Per-layer metrics of one traced repetition spanning [start, end].

    busy_s sums span durations over all threads, so with a thread pool it
    can exceed the wall time.  runner.busy_s is the self time of run_point
    calls: their duration minus that of the layer calls they made.
    """
    power = [s for s in spans if s["name"] == "ila_wf"]
    estimation = [s for s in spans if s["name"] == "build_estimation_model"]
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    runner_self = sum(
        s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        for s in spans
        if s["name"] == "run_point"
    )
    converged = sum(1 for s in power if s["converged"])
    wall = end - start
    return {
        "power.busy_s": _busy(spans, layer="power"),
        "power.calls": len(power),
        "power.iterations": sum(s["iterations"] for s in power),
        "power.nonconverged": len(power) - converged,
        "power.converged_ratio": converged / len(power) if power else 0.0,
        "estimation.busy_s": _busy(spans, layer="estimation"),
        "estimation.calls": len(estimation),
        "estimation.peak_mib": max((s["peak_mib"] for s in estimation), default=0.0),
        "estimation.model_mib": max((s["model_mib"] for s in estimation), default=0.0),
        "moments.mr_busy_s": _busy(spans, name="closed_form_moments", common=False),
        "moments.common_busy_s": _busy(spans, name="closed_form_moments", common=True),
        "moments.calls": _count(spans, name="closed_form_moments"),
        "precoding.problem_busy_s": _busy(spans, name="build_common_weight_problem"),
        "precoding.lp_busy_s": _busy(spans, name="solve_common_weights"),
        "precoding.lp_calls": _count(spans, name="solve_common_weights"),
        "scenario.busy_s": _busy(spans, layer="scenario"),
        "scenario.calls": _count(spans, layer="scenario"),
        "link.busy_s": _busy(spans, layer="link"),
        "link.calls": _count(spans, layer="link"),
        "runner.busy_s": runner_self,
        "runner.write_s": _busy(spans, name="write_rows"),
        "trace.uncovered_share": 1.0 - covered_seconds(spans, start, end) / wall,
        "validation.vote_busy_s": _busy(spans, name="select_quartic_variant"),
        "validation.mc_moments_busy_s": _busy(spans, name="mc_moment_table"),
        "validation.mc_estimation_busy_s": _busy(spans, name="mc_estimation_stats"),
    }
