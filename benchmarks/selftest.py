"""Fast self-test of the benchmark.

    python3 benchmarks/selftest.py

Run from the root of a checkout.  Every workload runs at M=16, K=3 with
one drop, untraced and traced; the test asserts that the result line holds
exactly the metrics BENCHMARK.json declares, with their units, that every
metric is printed by name, and that the output checks run and catch bad
rows.  It also checks that the benchmark fails, printing no result, in a
directory without the rssim sources.  Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, UNGATED, VALIDATION_LAYER, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()), bounds


def check_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    declared = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (workload, trace, got)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), (name, m)
    printed = dict(declared, **UNGATED)
    if trace and workload == "validate":
        printed.update(VALIDATION_LAYER)
    for name, unit in printed.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines), (
            workload, trace, name,
        )
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_output_checks():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    header = "axis,axis_value,drop,mode,sum_se,se_common,se_private_total,rho_c,l_min,iterations,seed\n"
    rows = [
        "power_dbm,10,0,rs,3,1,2,0,0,5,1\n",         # fine
        "power_dbm,10,0,no_rs,3.5,0,3.5,0,0,5,1\n",  # fine, but beats its rs row
        "power_dbm,20,0,rs,3,1,2.5,0,0,5,1\n",       # sum mismatch
        "power_dbm,20,0,no_rs,nan,0,2,0,0,5,1\n",    # not finite
        "power_dbm,30,0,rs,3,1,2,-1,0,5,1\n",        # negative rho_c
        "power_dbm,30,0,no_rs,3,1,2,0,3,5,1\n",      # l_min out of range
    ]
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "".join(rows))
    outcome = workloads.Outcome(path, K=3, digest="", checks=[("oracle", True), ("vote", False)])
    attempted, failures = workloads.output_failures(outcome)
    assert attempted == 8, attempted
    failed_rows = sorted(int(f.split(":")[0].split()[1]) for f in failures if f.startswith("row "))
    assert failed_rows == [0, 2, 3, 4, 5], failures
    assert failures[-1] == "validation check failed: vote", failures
    print("ok output checks")


def check_fails_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    shutil.rmtree(bare)
    print("ok fails without sources")


def main():
    check_declaration()
    check_output_checks()
    check_fails_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
