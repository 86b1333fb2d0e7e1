"""rssim benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh child processes
with a pinned environment (one BLAS thread, RSSIM_THREADS=2): SETUP_SAMPLES
of them measure set-up, the last also measures the workload.  Every metric
is printed as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with --trace 1).  Full reports,
CSVs and spans go to ``.bench_out/``.  See benchmarks/README.md.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, UNGATED, VALIDATION_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# The BLAS thread count changes the program's floating-point results, so
# every child runs with the same pins; two sweep threads match nproc = 2.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RSSIM_THREADS": "2",
}


class BenchmarkError(Exception):
    pass


def run_child(extra_args, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_ENV)
    cmd = [sys.executable, CHILD, *extra_args, "--launched-at", repr(time.time())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "rssim", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rssim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrink every workload to M=16, K=3 and one drop (for the self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rssim", "__init__.py")):
        sys.stderr.write(f"rssim sources not found under {SRC}; run from a checkout\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
        run_flags = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        payload = run_child([*common, *run_flags, *(["--smoke"] if args.smoke else [])], deadline)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(payload["setup_s"])

    if args.trace:
        metrics = {name: (payload["layers"][name], unit) for name, unit in PER_LAYER.items()}
        shown = dict(metrics)
        if args.workload == "validate":
            shown.update({n: (payload["layers"][n], u) for n, u in VALIDATION_LAYER.items()})
    else:
        values = dict(payload, setup_s=statistics.median(setups))
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        shown = dict(metrics)
    shown["error_share"] = (payload["failed"] / payload["attempted"], UNGATED["error_share"])

    correct = payload["failed"] == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "failures": payload["failures"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "setup_samples_s": setups,
        "repetitions": payload["repetitions"],
        "repetition_wall_s": payload["repetition_wall_s"],
        "repetition_point_s": payload["repetition_point_s"],
        "csv_sha256": payload["csv_sha256"],
        "src_rssim_lines": source_lines(),
        **payload["info"],
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=2)

    for name, (value, unit) in shown.items():
        print(f"{name} {value!r} {unit}")
    for failure in payload["failures"]:
        print(f"failure: {failure}")
    for key in ("repetitions", "csv_sha256", "src_rssim_lines", "python", "numpy", "scipy", "nproc", "threads"):
        print(f"info {key} {json.dumps(report[key])}")
    print(json.dumps({
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
