import csv
import re
import subprocess
import sys

import numpy as np
import pytest

import rssim.cli
import rssim.moments
import rssim.power
import rssim.runner
import rssim.validation
from rssim.cli import main
from rssim.config import SweepSpec, load_config
from rssim.errors import ConfigError
from rssim.runner import (
    CSV_COLUMNS,
    MODES,
    allocate_drop,
    apply_axis,
    build_drop,
    derive_point_seed,
    render_csv,
    run_point,
    run_sweep,
    write_rows,
)
from rssim.scenario import ScenarioConfig, generate_scenario
from rssim.units import db_to_linear

SMALL = dict(M=12, K=3)


def small_config(**kwargs):
    params = dict(SMALL)
    params.update(kwargs)
    return ScenarioConfig(**params)


def sweep_lines(command, values="20"):
    """The sweep keys of a config file shared by the commands; only the
    sweep command reads them, and the others refuse them."""
    return f"axis = power_dbm\nvalues = {values}\n" if command == "sweep" else ""


def test_run_point_no_rs_has_no_common_stream():
    row = run_point(small_config(), "no_rs", seed=5)
    assert row.rho_c == 0.0
    assert row.se_common == 0.0
    assert row.mode == "no_rs"


def test_run_point_deterministic():
    a = run_point(small_config(), "rs", seed=9)
    b = run_point(small_config(), "rs", seed=9)
    assert a == b


def test_run_point_rejects_unknown_mode(monkeypatch):
    refuse_points(monkeypatch)  # the mode is checked before the scenario
    with pytest.raises(ConfigError, match="mode must be one of"):
        run_point(small_config(), "half_rs", seed=1)


def test_rs_never_below_no_rs_head_to_head():
    """Paired drops: the rate-split allocation may fall back to the plain
    private split, so it can never lose to it."""
    config = small_config(M=24, K=4, rho_total_dbm=30)
    gaps = []
    for drop in range(5):
        seed = derive_point_seed(config.seed, drop)
        rs = run_point(config, "rs", seed)
        nr = run_point(config, "no_rs", seed)
        gaps.append(rs.sum_se - nr.sum_se)
    assert min(gaps) >= 0.0
    assert np.median(gaps) >= 0.0


def test_rs_row_equals_no_rs_row_when_common_stream_stays_off():
    """At this point the joint run never opens the common stream, so it is
    the run on the table without it: both rows report the same allocation
    and the same iteration count."""
    config = ScenarioConfig(M=24, K=4, rho_total_dbm=0.0, seed=0)
    seed = derive_point_seed(config.seed, 1)
    rs = run_point(config, "rs", seed)
    nr = run_point(config, "no_rs", seed)
    assert rs.rho_c == 0.0
    assert rs.iterations == nr.iterations
    assert rs.sum_se == nr.sum_se


def test_rs_point_never_runs_the_quartic_vote(monkeypatch):
    """The closed forms are circular-only: an rs point succeeds with every
    entry point of the Monte Carlo vote made to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the quartic vote ran on the production path")

    for module in (rssim, rssim.moments, rssim.runner):
        for name in ("select_quartic_variant", "mc_c_quartic", "default_quartic_variant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    config = small_config()
    report, alloc, weights = allocate_drop(config, ("rs",), build_drop(config, 5))["rs"]
    assert weights is not None
    assert np.isfinite(report.sum_se)


def test_run_sweep_row_count_and_order(tmp_path):
    spec = SweepSpec(axis="power_dbm", values=(0.0, 10.0, 20.0, 30.0, 40.0), drops=3)
    rows = run_sweep(spec, small_config(), output_path=str(tmp_path / "s.csv"))
    assert len(rows) == 5 * 3 * 2
    # deterministic ordering: values outer, then drops, then modes
    expected = [(v, d, m) for v in spec.values for d in range(3) for m in MODES]
    assert [(r.axis_value, r.drop, r.mode) for r in rows] == expected


def isolated_point_rows(spec, config, modes=MODES):
    """The rows of a sweep, each point evaluated on its own by run_point."""
    return [
        run_point(
            apply_axis(config, spec.axis, value), mode, derive_point_seed(config.seed, drop),
            axis=spec.axis, axis_value=value, drop=drop,
        )
        for value in spec.values
        for drop in range(spec.drops)
        for mode in modes
    ]


@pytest.mark.parametrize("modes", [("rs", "no_rs"), ("rs",), ("no_rs",)])
def test_sweep_rows_equal_point_rows(modes):
    """A sweep evaluates each drop once for all its modes; every row equals
    the row of that point evaluated on its own, field for field."""
    config = small_config(seed=11)
    spec = SweepSpec(axis="power_dbm", values=(0.0, 30.0), drops=2)
    assert run_sweep(spec, config, modes) == isolated_point_rows(spec, config, modes)


@pytest.mark.parametrize(
    "axis, values",
    [("power_dbm", (0.0, 15.0, 30.0)), ("antennas", (8.0, 12.0, 16.0))],
    ids=["power_dbm", "antennas"],
)
def test_sweep_rows_equal_isolated_points(axis, values):
    """A power sweep shares each drop's scenario, estimation model and MR
    table across its values; an antenna sweep builds every point's own.
    Either way each row equals its point evaluated in isolation."""
    config = small_config(seed=11)
    spec = SweepSpec(axis=axis, values=values, drops=2)
    assert run_sweep(spec, config) == isolated_point_rows(spec, config)


@pytest.mark.parametrize(
    "axis, values, builds, moment_tables",
    [
        # one build per drop; one MR table per drop and one common table per point
        ("power_dbm", (0.0, 15.0, 30.0), 2, 2 + 6),
        # M changes the drop: one build and both tables per (value, drop)
        ("antennas", (8.0, 12.0, 16.0), 6, 6 + 6),
    ],
    ids=["power_dbm", "antennas"],
)
def test_power_sweep_builds_each_drop_once(axis, values, builds, moment_tables, monkeypatch):
    calls = {}
    for name in ("generate_scenario", "build_estimation_model", "closed_form_moments"):
        def counting(*args, _name=name, _original=getattr(rssim.runner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rssim.runner, name, counting)
    run_sweep(SweepSpec(axis=axis, values=values, drops=2), small_config())
    assert calls == {
        "generate_scenario": builds,
        "build_estimation_model": builds,
        "closed_form_moments": moment_tables,
    }


def recording_allocations(monkeypatch):
    """Record every allocator run of the runner as (table has a common
    stream, allocation)."""
    runs = []
    original = rssim.runner.ila_wf

    def recording(moments, *args, **kwargs):
        runs.append((bool(moments.G_common.any()), original(moments, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(rssim.runner, "ila_wf", recording)
    return runs


def test_sweep_runs_one_allocation_per_drop(monkeypatch):
    runs = recording_allocations(monkeypatch)
    spec = SweepSpec(axis="power_dbm", values=(10.0, 30.0), drops=2)
    rows = run_sweep(spec, small_config())
    assert len(rows) == 8
    # the rs run never opens the common stream here, so it serves both
    # modes: one per (value, drop), where solving each mode on its own takes 8
    assert len(runs) == 4


def test_rs_point_runs_one_allocation(monkeypatch):
    runs = recording_allocations(monkeypatch)
    config = ScenarioConfig(M=64, K=8, rho_total_dbm=20.0, seed=0)
    row = run_point(config, "rs", derive_point_seed(0, 0))
    assert row.rho_c == 0.0
    assert [with_common for with_common, _ in runs] == [True]


# criterion 7's K = 2 geometry: the joint runs of drops 0, 6, 7 and 8 open
# the common stream; those of drops 0 and 8 stop at the cap, those of drops
# 6 and 7 close it again, and all four lose the tie rule
TWO_UE = dict(M=64, K=2, rho_total_dbm=20.0, seed=0)
TWO_UE_SPEC = SweepSpec(axis="power_dbm", values=(20.0,), drops=10)


@pytest.fixture(scope="module")
def two_ue_sweeps():
    config = ScenarioConfig(**TWO_UE)
    return {
        modes: run_sweep(TWO_UE_SPEC, config, modes)
        for modes in (("rs",), ("no_rs",), MODES)
    }


def test_both_mode_sweep_interleaves_where_the_common_stream_opens(two_ue_sweeps):
    rs, no_rs, both = (
        render_csv(two_ue_sweeps[modes]).splitlines(keepends=True)
        for modes in (("rs",), ("no_rs",), MODES)
    )
    assert len(rs) == len(no_rs) == 11
    assert both == rs[:1] + [line for pair in zip(rs[1:], no_rs[1:]) for line in pair]


@pytest.mark.parametrize("drop", [0, 6, 7, 8])
def test_rs_falls_back_to_the_no_rs_run(drop, two_ue_sweeps, monkeypatch):
    runs = recording_allocations(monkeypatch)
    config = ScenarioConfig(**TWO_UE)
    allocate_drop(config, ("rs",), build_drop(config, derive_point_seed(0, drop)))
    # the joint run opens the common stream, so the no_rs run is solved too
    assert [with_common for with_common, _ in runs] == [True, False]
    joint, fallback = (alloc for _, alloc in runs)
    assert joint.common_opened
    assert joint.converged == (drop in (6, 7))
    # the rs row reports the no_rs run
    rs, no_rs = two_ue_sweeps[MODES][2 * drop:2 * drop + 2]
    assert (rs.rho_c, rs.iterations, rs.sum_se) == (no_rs.rho_c, no_rs.iterations, no_rs.sum_se)
    assert rs.iterations == fallback.iterations != joint.iterations


def test_sweep_csv_byte_identical(tmp_path):
    spec = SweepSpec(axis="users", values=(2.0, 4.0), drops=2)
    config = small_config(seed=123)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec, config, output_path=str(p1))
    run_sweep(spec, config, output_path=str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_schema_and_float_format():
    row = run_point(small_config(), "rs", seed=2)
    text = render_csv([row])
    header, line = text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    fields = line.split(",")
    assert len(fields) == len(CSV_COLUMNS)
    # floats carry at most 12 significant digits
    assert len(fields[4].replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_write_rows_refuses_missing_directory(tmp_path):
    row = run_point(small_config(), "no_rs", seed=3)
    bad = tmp_path / "absent" / "out.csv"
    with pytest.raises(ConfigError):
        write_rows([row], str(bad))
    assert not bad.exists()
    assert not any(tmp_path.iterdir())  # no partial files left behind


def test_row_sum_consistency():
    spec = SweepSpec(axis="power_dbm", values=(10.0, 30.0), drops=2)
    for row in run_sweep(spec, small_config()):
        assert row.sum_se == pytest.approx(row.se_common + row.se_private_total, abs=1e-9)


def test_rows_respect_sanity_ceiling():
    """Loose prelog ceiling: catches unit mistakes in the pipeline."""
    config = small_config(rho_total_dbm=30)
    spec = SweepSpec(axis="power_dbm", values=(10.0, 30.0), drops=2)
    rows = run_sweep(spec, config)
    for row in rows:
        point_config = ScenarioConfig(**{**SMALL, "rho_total_dbm": row.axis_value})
        cov = generate_scenario(point_config, np.random.default_rng(row.seed))
        ceiling = (
            point_config.prelog
            * (point_config.K + 1)
            * np.log2(1 + db_to_linear(row.axis_value)
                      * np.trace(cov.R, axis1=1, axis2=2).real.max() / point_config.noise_mw)
        )
        assert row.sum_se <= ceiling


def test_single_antenna_run_converges():
    # at M = 1 the estimation build once wrote W over the drop's covariances,
    # and the allocator ran on them to its iteration cap at sum SE 4.7e-06
    config = small_config(M=1)
    for mode in MODES:
        row = run_point(config, mode, seed=0)
        assert row.converged
        assert row.iterations == 1
        assert row.sum_se == pytest.approx(0.873421698006, rel=1e-9)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    assert main(["run", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_COLUMNS))
    assert "rs" in out and "no_rs" in out


def test_cli_sweep_with_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "M = 12\nK = 3\naxis = power_dbm\nvalues = 10, 20\ndrops = 1\n"
        f"output_path = {tmp_path/'out.csv'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    content = (tmp_path / "out.csv").read_text()
    assert content.startswith(",".join(CSV_COLUMNS))
    assert len(content.strip().split("\n")) == 1 + 2 * 1 * 2


def test_cli_sweep_reports_unconverged_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rssim.power, "MAX_ITERATIONS", 1)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "M = 12\nK = 3\naxis = power_dbm\nvalues = 10, 20\ndrops = 1\n"
        f"output_path = {tmp_path / 'out.csv'}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == "sweep: 4 rows written, 4 rows not converged\n"
    # the summary leaves the CSV as the sweep without it writes
    config, spec = load_config(cfg)
    rows = run_sweep(spec, config)
    assert not any(row.converged for row in rows)
    assert (tmp_path / "out.csv").read_bytes() == render_csv(rows).encode()


def test_cli_run_both_modes_equals_point_rows(tmp_path, capsys):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("M = 12\nK = 3\nrho_total_dbm = 30\n")
    assert main(["run", "--config", str(cfg), "--seed", "6"]) == 0
    config = small_config(rho_total_dbm=30, seed=6)
    rows = [run_point(config, mode, seed=6) for mode in ("rs", "no_rs")]
    assert capsys.readouterr().out == render_csv(rows)


def test_cli_run_output_renders_the_csv_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_render_csv(rows):
        calls.append(rows)
        return render_csv(rows)

    monkeypatch.setattr(rssim.runner, "render_csv", counting_render_csv)
    monkeypatch.setattr(rssim.cli, "render_csv", counting_render_csv)
    out = tmp_path / "out.csv"
    assert main(["run", "--seed", "6", "--output", str(out)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho_max = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    # sweep values the pipeline would truncate or cannot convert
    for axis, values in [
        ("antennas", "8.5"), ("antennas", "8.2, 8.7"), ("users", "2.5"),
        ("antennas", "nan"), ("users", "inf"), ("power_dbm", "nan"),
    ]:
        cfg.write_text(f"axis = {axis}\nvalues = {values}\noutput_path = {tmp_path / 'x.csv'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 1, (axis, values)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("line", ["angular_spread_deg = nan", "pathloss_ref_m = inf"])
def test_cli_non_finite_scenario_float_is_a_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"M = 8\nK = 2\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: " + line.split(" = ")[0])


@pytest.mark.parametrize(
    "line",
    ["seed = -3", "noise_dbm = -4000", "noise_dbm = 4000", "rho_tr_dbm = -4000",
     "rho_total_dbm = 4000", "rho_total_dbm = -4000"],
)
@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_cli_out_of_range_scenario_value_is_a_config_error(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"M = 8\nK = 2\n{sweep_lines(command)}{line}\n")
    args = [command, "--config", str(cfg)]
    if command != "validate":
        args += ["--output", str(tmp_path / "x.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("config error: " + line.split(" = ")[0])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "lines, name",
    [("noise_dbm = -3200", "rho_tr_dbm"), ("rho_total_dbm = 3000\nnoise_dbm = -100", "rho_total_dbm")],
)
@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_cli_infinite_snr_is_a_config_error(tmp_path, capsys, command, lines, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"M = 16\nK = 3\n{sweep_lines(command)}{lines}\n")
    args = [command, "--config", str(cfg)]
    if command != "validate":
        args += ["--output", str(tmp_path / "x.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: {name} - noise_dbm")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_cli_underflowing_weight_couplings_are_a_numerical_error(tmp_path, capsys, command):
    # at noise_dbm = 3000 the pilot SNR is about 1e-298: UE 0's couplings are
    # positive (about 5e-317) but underflow to 0 once weighted by sqrt(pi),
    # which is not a UE that cannot be served
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(f"M = 16\nK = 3\n{sweep_lines(command)}noise_dbm = 3000\n")
    args = [command, "--config", str(cfg)]
    if command != "validate":
        args += ["--output", str(tmp_path / "x.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UE 0: positive weight-problem couplings")
    assert "underflow to 0 when weighted by sqrt(pi)" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "command, dbm, code",
    [("run", -200, 2), ("run", -165, 2), ("run", -160, 2), ("run", -90, 2), ("run", -70, 0),
     ("sweep", -200, 2), ("sweep", -170, 2), ("sweep", -165, 2), ("sweep", -90, 2),
     ("sweep", -70, 0)],
)
def test_cli_budget_that_rounds_every_level_away_is_a_numerical_error(
    tmp_path, capsys, command, dbm, code
):
    # at M = 8, K = 3 the floors 1/sigma1 of the water-filling levels are
    # 0.4 to 89 mW on the run's drop, so the levels of a budget this small
    # are mostly rounding and a step misses it by more than 1e-9 of it; the
    # run would otherwise write rows for a budget it did not spend.  At
    # -70 dBm every step spends it (the sweep's drop is another one)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"M = 8\nK = 3\nrho_total_dbm = {dbm}\n{sweep_lines(command, dbm)}")
    out = tmp_path / "x.csv"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        budget = f"{db_to_linear(dbm):.3e}"
        match = re.fullmatch(
            rf"error: a water-filling step misses the budget of {re.escape(budget)} mW by "
            r"(\S+) relative to it, as rounding dominates its levels\n",
            err,
        )
        assert match and float(match.group(1)) > 1e-9
        assert not out.exists()
    else:
        assert out.exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_negative_seed_option_is_a_config_error(capsys, command):
    assert main([command, "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: seed")


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, command, case):
    path = tmp_path / "sweep.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not utf-8":
        path.write_bytes("M = 8\nK = 2\naxis = power_dbm\nvalues = 20 # \u00b1\n".encode("latin-1"))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file '{path}'")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_output_that_is_a_directory_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"M = 8\nK = 2\n{sweep_lines(command)}")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: output path is a directory: {out}\n"
    assert out.is_dir() and not any(out.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "sweep.cfg"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", ["directory", "missing directory"])
def test_cli_output_path_is_checked_before_any_point(tmp_path, capsys, monkeypatch, command, case):
    """Every point evaluation starts with the scenario, made to raise here,
    so the output path's ConfigError must come before any point runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a point was evaluated before the output path was checked")

    monkeypatch.setattr(rssim.runner, "generate_scenario", refuse)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"M = 8\nK = 2\n{sweep_lines(command, '20, 30')}")
    if case == "directory":
        out = tmp_path / "out"
        out.mkdir()
        expected = f"output path is a directory: {out}"
    else:
        out = tmp_path / "absent" / "out.csv"
        expected = f"output directory does not exist: {out.parent}"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {expected}\n"


def refuse_points(monkeypatch):
    """Make every point evaluation and the validation suite raise: both start
    with the scenario."""

    def refuse(*args, **kwargs):
        raise AssertionError("a scenario was generated")

    monkeypatch.setattr(rssim.runner, "generate_scenario", refuse)
    monkeypatch.setattr(rssim.validation, "generate_scenario", refuse)


@pytest.mark.parametrize(
    "command, lines, named",
    [
        ("run", "axis = power_dbm\nvalues = 20\ndrops = 3\n", "axis, values, drops"),
        ("validate", "drops = 3\naxis = users\n", "drops, axis"),
    ],
)
def test_cli_refuses_config_keys_the_command_does_not_read(
    tmp_path, capsys, monkeypatch, command, lines, named
):
    # neither run nor validate reads a sweep key; both used to run one point
    # or the suite and ignore them
    refuse_points(monkeypatch)
    cfg = tmp_path / "point.cfg"
    cfg.write_text(f"M = 8\nK = 2\n{lines}")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: keys this command does not read: {named}\n"


def test_cli_refuses_the_removed_modes_key(tmp_path, capsys, monkeypatch):
    # --mode alone chooses the modes; the former sweep key made --mode both
    # write only the modes it listed
    refuse_points(monkeypatch)
    cfg = tmp_path / "modes.cfg"
    cfg.write_text("M = 8\nK = 2\naxis = power_dbm\nvalues = 20\nmodes = rs\n")
    assert main(["sweep", "--config", str(cfg), "--mode", "both"]) == 1
    assert capsys.readouterr().err == "config error: line 5: unknown key 'modes'\n"


@pytest.mark.parametrize("mode", ["rs", "no_rs", "both"])
def test_cli_sweep_writes_the_rows_of_the_chosen_modes(tmp_path, mode):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("M = 8\nK = 2\naxis = power_dbm\nvalues = 10, 20\ndrops = 2\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--mode", mode, "--output", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        written = [row["mode"] for row in csv.DictReader(fh)]
    # two values and two drops, then the chosen modes in order
    assert written == 2 * 2 * list(MODES if mode == "both" else (mode,))


@pytest.mark.parametrize(
    "modes, message",
    [(("hybrid",), "mode must be one of"), (("rs", "rs"), "modes must not repeat"),
     ((), "need at least one mode")],
    ids=["unknown", "repeated", "none"],
)
def test_run_sweep_checks_the_modes_before_any_scenario(modes, message, monkeypatch):
    refuse_points(monkeypatch)
    spec = SweepSpec(axis="power_dbm", values=(20.0,))
    with pytest.raises(ConfigError, match=message):
        run_sweep(spec, small_config(), modes)



def test_cli_users_sweep_past_the_memory_guard_fails_before_any_point(
    tmp_path, capsys, monkeypatch
):
    refuse_points(monkeypatch)
    cfg = tmp_path / "users.cfg"
    cfg.write_text("M = 1\naxis = users\nvalues = 2, 100000\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: M=1, K=100000 with num_clusters=6")
    assert not out.exists()


def test_cli_validate_refuses_small_trials():
    assert main(["validate", "--trials", "500"]) == 1


def test_cli_sweep_needs_sweep_keys(tmp_path):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("M = 8\nK = 2\n")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rssim.cli", "run", "--seed", "1", "--mode", "no_rs"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(CSV_COLUMNS))
