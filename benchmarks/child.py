"""One measured benchmark run in a fresh process, started by run.py.

The child times its own set-up (interpreter start, ``import rssim`` and
the quartic-variant vote), then repeats the workload until the next
repetition would not fit in ``--seconds``.  With ``--trace 1`` every
untraced repetition is followed by a traced one on the same inputs.  The
last line of standard output is a JSON payload for run.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
MAX_FAILURES_SHOWN = 20


class PointTimer:
    """Times every call of the public functions that evaluate scenario
    points: runner.run_sweep, runner.run_point (including the calls
    run_sweep makes) and validation.run_validation.

    The slowest call is the one a user waits for.  On the sweeps that is
    run_sweep itself: its points share a thread pool and the GIL, so the
    wall time of one run_point call there depends on what the other thread
    runs, and it spread by up to 70 % between seeds on a 2-vCPU host."""

    def __init__(self, runner, validation):
        self.times = []
        for module, name in ((runner, "run_sweep"), (runner, "run_point"), (validation, "run_validation")):
            setattr(module, name, self._timed(getattr(module, name)))

    def _timed(self, original):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - start)

        return timed


def run_rep(work, csv_path, timer):
    timer.times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outcome = work(csv_path)
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    rep = {"start": start, "end": end, "wall": end - start, "cpu": cpu, "point_max": max(timer.times)}
    return rep, outcome


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launched-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import rssim
    from rssim.moments import default_quartic_variant

    variant = default_quartic_variant()
    setup_s = time.time() - args.launched_at
    expected = os.path.join(ROOT, "src", "rssim")
    if os.path.dirname(os.path.realpath(rssim.__file__)) != os.path.realpath(expected):
        sys.stderr.write(f"imported rssim from {rssim.__file__}, expected {expected}\n")
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    import rssim.runner as runner
    import rssim.validation as validation
    import workloads
    from tracing import Tracer, layer_metrics

    work = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    timer = PointTimer(runner, validation)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    reps, layers, spans, failures, digests = [], [], [], [], set()
    attempted = 0
    sum_se_mean = None

    def check(outcome):
        nonlocal attempted, sum_se_mean
        ops, found = workloads.output_failures(outcome)
        attempted += ops
        failures.extend(found)
        digests.add(outcome.digest)
        sum_se_mean = workloads.sum_se_mean(outcome)

    started = time.perf_counter()
    while True:
        rep, outcome = run_rep(work, stem + ".csv", timer)
        check(outcome)
        reps.append(rep)
        cost = rep["wall"]
        if args.trace:
            tracer = Tracer()
            tracer.install(runner, validation)
            try:
                traced, traced_outcome = run_rep(work, stem + "-traced.csv", timer)
            finally:
                tracer.remove()
            check(traced_outcome)
            metrics = layer_metrics(tracer.spans, traced["start"], traced["end"])
            metrics["trace.overhead_ratio"] = traced["wall"] / rep["wall"]
            layers.append(metrics)
            spans.extend(dict(s, rep=len(layers) - 1) for s in tracer.spans)
            cost += traced["wall"]
        if time.perf_counter() - started + cost > args.seconds:
            break

    failed = len(failures)
    if len(digests) != 1:
        # repetitions (and the traced run) must write byte-identical output
        failures.append(f"output differs between repetitions: {sorted(digests)}")
        failed += 1
        attempted += 1
    if spans:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    payload = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "point_s_max": statistics.median(r["point_max"] for r in reps),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sum_se_mean": sum_se_mean,
        "repetitions": len(reps),
        "repetition_wall_s": [r["wall"] for r in reps],
        "repetition_point_s": [r["point_max"] for r in reps],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "csv_sha256": sorted(digests),
        # median_low keeps each per-layer value one actually measured, so counts stay whole
        "layers": {k: statistics.median_low(m[k] for m in layers) for k in layers[0]} if layers else {},
        "info": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "quartic_variant": variant,
            "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RSSIM_THREADS")},
        },
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
