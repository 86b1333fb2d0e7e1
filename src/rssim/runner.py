"""Scenario pipeline execution, sweeps, and CSV emission.

A point evaluation is fully deterministic given (config, mode, seed):
placement, covariances, estimation statistics, the closed-form moment
table, common weights, and the power allocation are all seeded from one
SeedSequence.  Sweep points derive their seeds from the master seed and
the drop index alone, so every axis value and both modes of a drop share
one placement, and any point can be reproduced in isolation.
"""

import csv
import io
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .config import MODES, SWEEP_AXES, SweepSpec
from .errors import ConfigError
from .estimation import build_estimation_model
from .link import se_report
from .moments import closed_form_moments
from .power import IlaWfOptions, ila_wf
from .precoding import build_common_weight_problem, solve_common_weights
from .scenario import ScenarioConfig, generate_scenario

CSV_COLUMNS = (
    "axis", "axis_value", "drop", "mode", "sum_se", "se_common",
    "se_private_total", "rho_c", "l_min", "iterations", "seed",
)


@dataclass
class ResultRow:
    axis: str
    axis_value: float
    drop: int
    mode: str
    sum_se: float
    se_common: float
    se_private_total: float
    rho_c: float
    l_min: int
    iterations: int
    seed: int
    converged: bool  # whether the allocator converged; not a CSV column

    def as_csv_values(self):
        return (
            self.axis,
            _fmt(self.axis_value),
            str(self.drop),
            self.mode,
            _fmt(self.sum_se),
            _fmt(self.se_common),
            _fmt(self.se_private_total),
            _fmt(self.rho_c),
            str(self.l_min),
            str(self.iterations),
            str(self.seed),
        )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def derive_point_seed(master_seed: int, drop_index: int) -> int:
    """Stable per-drop seed.

    The seed is shared by every axis value and both transmission modes of
    a drop, so sweep curves and mode comparisons are paired on identical
    UE placements; any point remains reproducible in isolation from
    (master seed, drop index) alone.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(drop_index,))
    return int(ss.generate_state(1)[0])


def build_drop(config: ScenarioConfig, seed: int):
    """Build the layers of a drop that no transmit power enters.

    Returns (estimation model, table without the common stream): the
    scenario, the estimation model and the MR moment table depend on the
    geometry, the pilot power and the seed, not on ``rho_total_dbm``.
    """
    rng = np.random.default_rng(seed)
    _, cov = generate_scenario(config, rng)
    model = build_estimation_model(cov, config.rho_tr_effective)
    return model, closed_form_moments(model)


def evaluate_drop(
    config: ScenarioConfig,
    modes,
    seed: int,
    solver: IlaWfOptions | None = None,
) -> dict:
    """Run the full pipeline for one drop in each of the given modes.

    Returns {mode: (SEReport, PowerAllocation, weights)}; see
    ``allocate_drop``.
    """
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return allocate_drop(config, modes, build_drop(config, seed), solver)


def allocate_drop(
    config: ScenarioConfig,
    modes,
    drop,
    solver: IlaWfOptions | None = None,
) -> dict:
    """Solve the given modes on a drop built by ``build_drop``.

    Returns {mode: (SEReport, PowerAllocation, weights)}.  The modes share
    the drop: the scenario, the estimation model and the table without the
    common stream.  In "no_rs" mode the common stream is absent: no
    weights are solved and the allocation runs on that table.
    The "rs" allocation runs first, on the table with the common stream.
    When it never opened the common stream it is, bit for bit, the run on
    the table without it, so it serves as the "no_rs" allocation too.
    Otherwise the "no_rs" run is solved as well, and by the tie rule "rs"
    reports the joint run only if it converged and either the fallback did
    not or the joint run ends with common power at a strictly higher sum
    SE.  Each run is scored once; at rho_c = 0 both tables score alike.
    """
    model, mr_table = drop

    def scored(table):
        alloc = ila_wf(table, config, solver)
        return se_report(alloc.powers, table, config), alloc

    results = {}
    no_rs = None
    if "rs" in modes:
        problem = build_common_weight_problem(
            model, mr_table, np.full(config.K, config.rho_total_mw / config.K), config.noise_mw
        )
        weights, _ = solve_common_weights(problem)
        rs = no_rs = scored(closed_form_moments(model, weights))
        report, joint = rs
        if joint.common_opened:
            no_rs = scored(mr_table)
            fallback_report, fallback = no_rs
            joint_wins = joint.converged and (
                not fallback.converged
                or (joint.powers.rho_c > 0 and report.sum_se > fallback_report.sum_se)
            )
            rs = rs if joint_wins else no_rs
        results["rs"] = (*rs, weights)
    if "no_rs" in modes:
        results["no_rs"] = (*(no_rs or scored(mr_table)), None)
    return results


def result_row(
    config: ScenarioConfig,
    mode: str,
    seed: int,
    result,
    axis: str = "power_dbm",
    axis_value: float | None = None,
    drop: int = 0,
) -> ResultRow:
    """Flatten one mode's ``evaluate_drop`` result into a result row."""
    report, alloc, _ = result
    if axis_value is None:
        axis_value = getattr(config, SWEEP_AXES[axis][0])
    return ResultRow(
        axis=axis,
        axis_value=float(axis_value),
        drop=drop,
        mode=mode,
        sum_se=report.sum_se,
        se_common=report.se_common,
        se_private_total=report.se_private_total,
        rho_c=alloc.powers.rho_c,
        l_min=report.l_min,
        iterations=alloc.iterations,
        seed=seed,
        converged=alloc.converged,
    )


def run_point(
    config: ScenarioConfig,
    mode: str,
    seed: int,
    solver: IlaWfOptions | None = None,
    axis: str = "power_dbm",
    axis_value: float | None = None,
    drop: int = 0,
) -> ResultRow:
    """Evaluate one point and flatten it into a result row."""
    result = evaluate_drop(config, (mode,), seed, solver)[mode]
    return result_row(config, mode, seed, result, axis, axis_value, drop)


def apply_axis(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    name, kind = SWEEP_AXES[axis]
    return replace(config, **{name: kind(value)})


def run_sweep(
    spec: SweepSpec,
    config: ScenarioConfig,
    solver: IlaWfOptions | None = None,
    output_path: str | None = None,
) -> list:
    """Evaluate every (value, drop, mode) combination of a sweep.

    Each (value, drop) is solved once for all modes.  On a power sweep each
    drop is also built once, by ``build_drop``, and shared by every power
    value; on the antenna and user axes M or K changes the drop, so every
    point builds its own.  Rows come in the order values outer, then drops,
    then modes.  The output path is checked before any point is evaluated;
    the CSV is written atomically, so a partial file is never left behind.
    """
    spec.validate()
    if output_path is not None:
        check_output_path(output_path)
    configs = [apply_axis(config, spec.axis, value) for value in spec.values]
    rows = []
    for drop in range(spec.drops):
        seed = derive_point_seed(config.seed, drop)
        shared = build_drop(config, seed) if spec.axis == "power_dbm" else None
        for value, point_config in zip(spec.values, configs):
            results = allocate_drop(
                point_config, spec.modes, shared or build_drop(point_config, seed), solver
            )
            rows.extend(
                result_row(point_config, mode, seed, results[mode], spec.axis, value, drop)
                for mode in spec.modes
            )
    # the values strictly increase and the sort is stable: values outer,
    # then drops, then modes
    rows.sort(key=lambda row: row.axis_value)

    if output_path is not None:
        write_rows(rows, output_path)
    return rows


def render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_values())
    return buf.getvalue()


def check_output_path(output_path: str) -> str:
    """Raise ConfigError unless a CSV can be written at output_path: its
    directory must exist and the path must not be a directory.  Returns
    that directory."""
    directory = os.path.dirname(os.path.abspath(output_path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory does not exist: {directory}")
    if os.path.isdir(output_path):
        raise ConfigError(f"output path is a directory: {output_path}")
    return directory


def write_rows(rows, output_path: str):
    """Atomic CSV write: render, write to a sibling temp file, rename.
    Returns the CSV text written."""
    data = render_csv(rows)
    directory = check_output_path(output_path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp_path, output_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return data
