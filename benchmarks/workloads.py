"""The benchmark workloads and the checks on their outputs.

Every workload drives rssim through its public functions only, looked up
on the ``rssim.runner`` and ``rssim.validation`` modules at call time so
the tracer's wrappers see them.

Inputs: the user drops (geometry) are those of master seed 0, the seed of
the acceptance power-sweep fixture; the benchmark seed draws a power offset
in [-OFFSET_DB, OFFSET_DB] dB that shifts every transmit power of the
workload.  Each seed therefore gives its own inputs and its own CSV, while
the amount of work stays comparable across seeds.  Drawing the drops from
the seed instead made the run time of a 10-drop power sweep vary by more
than 30 % between seeds, because allocator iteration counts (and the
points that stop at the iteration cap) depend on the drop; no run length
that fits the time budget averages that out.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

import rssim.runner as runner
import rssim.validation as validation
from rssim import ScenarioConfig, SweepSpec

GEOMETRY_SEED = 0
OFFSET_DB = 0.25
MODES = ("rs", "no_rs")
POWER_SWEEP_DBM = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0)
LOW_PILOT_DBM = (10.0, 20.0, 30.0, 40.0)
VALIDATE_TRIALS = 100_000
# Drops per repetition, the run-length knob.  One drop keeps a repetition
# at 3-7 s, so a run holds at least three repetitions to take the median of.
DROPS = 1

# Floats are written with 12 significant digits, so sums of written values
# agree to about this relative precision.
FORMAT_RTOL = 1e-11


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    csv_path: str
    K: int
    digest: str
    checks: list = field(default_factory=list)  # (name, passed) of the validation report


def power_offset_db(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(-OFFSET_DB, OFFSET_DB))


def _digest(csv_path: str, extra: bytes = b"") -> str:
    with open(csv_path, "rb") as fh:
        return hashlib.sha256(fh.read() + extra).hexdigest()


def _sweep(config: ScenarioConfig, values_dbm, seed: int):
    offset = power_offset_db(seed)
    spec = SweepSpec(axis="power_dbm", values=tuple(v + offset for v in values_dbm), drops=DROPS)

    def run(csv_path):
        runner.run_sweep(spec, config, output_path=csv_path)
        return Outcome(csv_path, config.K, _digest(csv_path))

    return run


def power_sweep(seed: int, smoke: bool):
    """The acceptance power-sweep fixture: 64x8, 0..40 dBm, both modes."""
    M, K = (16, 3) if smoke else (64, 8)
    return _sweep(ScenarioConfig(M=M, K=K, seed=GEOMETRY_SEED), POWER_SWEEP_DBM, seed)


def low_pilot(seed: int, smoke: bool):
    """K >> M at -10 dBm pilot power, where many allocator runs hit the iteration cap."""
    M, K = (16, 3) if smoke else (16, 12)
    config = ScenarioConfig(M=M, K=K, rho_tr_dbm=-10.0, seed=GEOMETRY_SEED)
    return _sweep(config, LOW_PILOT_DBM, seed)


def large_array(seed: int, smoke: bool):
    """`rssim run` at 200x20: run_point for rs then no_rs on each drop."""
    M, K = (16, 3) if smoke else (200, 20)
    config = ScenarioConfig(
        M=M, K=K, rho_total_dbm=20.0 + power_offset_db(seed), seed=GEOMETRY_SEED
    )

    def run(csv_path):
        rows = [
            runner.run_point(config, mode, runner.derive_point_seed(GEOMETRY_SEED, drop), drop=drop)
            for drop in range(DROPS)
            for mode in MODES
        ]
        runner.write_rows(rows, csv_path)
        return Outcome(csv_path, config.K, _digest(csv_path))

    return run


def validate(seed: int, smoke: bool):
    """`rssim validate` at its default trial count, then `rssim run` on the
    downsized scenario the oracle suite checks, which gives the workload
    rows for sum_se_mean and the row checks."""
    base = ScenarioConfig(M=16, K=3) if smoke else ScenarioConfig()
    config = replace(base, rho_total_dbm=base.rho_total_dbm + power_offset_db(seed), seed=GEOMETRY_SEED)
    trials = 10_000 if smoke else VALIDATE_TRIALS
    small = replace(config, M=min(config.M, 16), K=min(config.K, 3))

    def run(csv_path):
        report = validation.run_validation(config, trials)
        rows = [
            runner.run_point(small, mode, runner.derive_point_seed(GEOMETRY_SEED, 0))
            for mode in MODES
        ]
        runner.write_rows(rows, csv_path)
        checks = [(c.name, c.passed) for c in report.checks]
        checks.append(("report passed", report.passed))
        return Outcome(csv_path, small.K, _digest(csv_path, report.render().encode()), checks)

    return run


WORKLOADS = {
    "power_sweep": power_sweep,
    "low_pilot": low_pilot,
    "large_array": large_array,
    "validate": validate,
}


def read_rows(csv_path: str) -> list:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def output_failures(outcome: Outcome):
    """Check the written CSV and the validation checks.

    Returns (operations attempted, list of failure descriptions); an
    operation is a CSV row or a validation check, and fails at most once.
    """
    rows = read_rows(outcome.csv_path)
    problems = {}
    sum_se = {}
    for index, row in enumerate(rows):
        found = problems.setdefault(index, [])
        try:
            total, common, private = (
                float(row[k]) for k in ("sum_se", "se_common", "se_private_total")
            )
            rho_c, l_min = float(row["rho_c"]), int(row["l_min"])
        except (KeyError, TypeError, ValueError) as exc:
            found.append(f"unreadable ({exc})")
            continue
        if not all(math.isfinite(v) for v in (total, common, private)):
            found.append("non-finite SE")
        elif not math.isclose(
            total, common + private, rel_tol=0.0, abs_tol=FORMAT_RTOL * (abs(common) + abs(private))
        ):
            found.append(f"sum_se {total!r} != se_common + se_private_total")
        if not rho_c >= 0.0:
            found.append(f"rho_c {rho_c!r} < 0")
        if not 0 <= l_min < outcome.K:
            found.append(f"l_min {l_min} outside [0, {outcome.K})")
        sum_se[(row["axis_value"], row["drop"], row["mode"])] = (index, total)
    for (value, drop, mode), (index, total) in sum_se.items():
        if mode != "rs" or (value, drop, "no_rs") not in sum_se:
            continue
        baseline = sum_se[(value, drop, "no_rs")][1]
        if total < baseline - FORMAT_RTOL * abs(baseline):
            problems[index].append(f"rs sum_se {total!r} < no_rs {baseline!r}")
    failures = [f"row {i}: " + "; ".join(p) for i, p in problems.items() if p]
    failures.extend(f"validation check failed: {name}" for name, ok in outcome.checks if not ok)
    return len(rows) + len(outcome.checks), failures


def sum_se_mean(outcome: Outcome) -> float:
    rows = read_rows(outcome.csv_path)
    return sum(float(r["sum_se"]) for r in rows) / len(rows)
