import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import rssim.scenario
from rssim.config import SweepSpec, parse_config
from rssim.errors import ConfigError
from rssim.estimation import build_estimation_model
from rssim.moments import closed_form_moments
from rssim.precoding import build_common_weight_problem, solve_common_weights
from rssim.runner import check_modes
from rssim.scenario import ScenarioConfig, generate_scenario


def test_empty_document_gives_standard_defaults():
    config, sweep = parse_config("")
    assert config.M == 100
    assert config.K == 10
    assert config.tau == 200
    assert config.tau_p == 10
    assert config.rho_tr_dbm == 20.0
    assert config.noise_dbm == -94.0
    assert config.cell_side_m == 250.0
    assert config.min_distance_m == 35.0
    assert config.num_clusters == 6
    assert config.angular_spread_deg == 10.0
    assert config.nominal_angle_halfwidth_deg == 40.0
    assert sweep is None


def test_tau_p_violation_names_field():
    with pytest.raises(ConfigError, match="tau_p"):
        parse_config("tau = 200\ntau_p = 250\n")


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="rho_max"):
        parse_config("rho_max = 10\n")


@pytest.mark.parametrize(
    "key",
    ["mu_rel_tol", "mu_abs_floor", "nested_bisection", "mu_upper", "independent_pilot_noise",
     "quartic_variant", "budget_tol", "include_pi", "se_tol", "power_tol", "max_iterations",
     "modes"],
)
def test_removed_solver_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1e-6\n")
    # the key is rejected by name before its value is parsed
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = real\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("M = 10\nM = 20\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_comments_and_blank_lines_ignored():
    config, _ = parse_config("# comment\n\nM = 32  # antennas\n")
    assert config.M == 32


def test_sweep_parsing():
    text = """
axis = power_dbm
values = 0, 10, 20
drops = 3
output_path = out.csv
"""
    _, sweep = parse_config(text)
    assert sweep.axis == "power_dbm"
    assert sweep.values == (0.0, 10.0, 20.0)
    assert sweep.drops == 3
    assert sweep.output_path == "out.csv"


def test_sweep_values_must_increase():
    with pytest.raises(ConfigError, match="increasing"):
        parse_config("axis = power_dbm\nvalues = 10, 10, 20\n")


def test_sweep_mode_validated():
    # the modes come from --mode or the caller, not from a config key; one
    # check refuses an unknown, repeated or missing mode
    with pytest.raises(ConfigError, match="mode must be one of"):
        check_modes(("hybrid",))
    with pytest.raises(ConfigError, match="modes must not repeat"):
        check_modes(("rs", "no_rs", "rs"))
    with pytest.raises(ConfigError, match="need at least one mode"):
        check_modes(())
    check_modes(("no_rs", "rs"))


@pytest.mark.parametrize(
    "line",
    ["max_iterations = 0", "max_iterations = -3", "se_tol = nan", "se_tol = inf", "se_tol = -1e-4",
     "power_tol = nan", "power_tol = inf", "power_tol = -1e-9"],
)
def test_bad_solver_values_rejected(line):
    # se_tol and power_tol were removed with the allocator's settled-powers
    # and sum-SE stopping rules, and max_iterations with the solver section:
    # any value of them is now an unknown key
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(line + "\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("M = twelve\n")


@pytest.mark.parametrize(
    "key",
    [f.name for cls in (ScenarioConfig, SweepSpec) for f in fields(cls) if f.type is int],
)
def test_int_key_rejects_a_fraction(key):
    with pytest.raises(ConfigError, match=f"key '{key}': expected an integer"):
        parse_config(f"{key} = 2.5\n")


def test_removed_sweep_key_mc_samples_is_unknown():
    with pytest.raises(ConfigError, match="unknown key 'mc_samples'"):
        parse_config("axis = power_dbm\nvalues = 0, 10\nmc_samples = 1000\n")


def test_memory_guard_rejects_huge_model_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"M=100000, K=1000 .*GiB"):
            ScenarioConfig(M=100000, K=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # the (K, K) cross_trace alone needs 149 GiB
        (dict(M=1, K=100_000), r"M=1, K=100000 with num_clusters=6 needs 373 GiB"),
        # the (K, S) cluster angles alone need 75 GiB
        (dict(num_clusters=10**9), r"M=100, K=10 with num_clusters=1000000000 needs .* GiB"),
    ],
)
def test_memory_guard_counts_the_k_by_k_tables_and_the_cluster_arrays(kwargs, message):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# the defaults, the benchmark and CI sizes, and every acceptance-criterion size
@pytest.mark.parametrize(
    "M, K",
    [(100, 10), (64, 8), (16, 12), (200, 20), (256, 32), (64, 5), (64, 2), (64, 15)]
    + [(M, K) for M in (8, 16, 32) for K in (2, 3, 4)],
)
def test_memory_guard_accepts_working_sizes(M, K):
    ScenarioConfig(M=M, K=K)


def traced_point_peak(M, K):
    """Bytes of R plus the tracemalloc peak of the estimation model, both
    moment tables and the weight LP of one default-config drop."""
    config = ScenarioConfig(M=M, K=K)
    cov = generate_scenario(config, np.random.default_rng(0))
    tracemalloc.start()
    try:
        model = build_estimation_model(cov, config.rho_tr_effective)
        problem = build_common_weight_problem(model, closed_form_moments(model), config)
        weights, _ = solve_common_weights(problem)
        closed_form_moments(model, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cov.R.nbytes + peak


@pytest.mark.parametrize("M, K", [(200, 20), (256, 32)])
def test_memory_guard_counts_the_traced_peak(M, K, monkeypatch):
    # R and W are the two (K, M, M) arrays, and the factor of Q and the
    # common table add (M, M) arrays: a budget one byte below the traced
    # peak must refuse the size, and one a quarter above it must not, so
    # that the count cannot drift conservative
    peak = traced_point_peak(M, K)
    monkeypatch.setattr(rssim.scenario, "MAX_MODEL_BYTES", peak - 1)
    with pytest.raises(ConfigError, match=f"M={M}, K={K} "):
        ScenarioConfig(M=M, K=K)
    monkeypatch.setattr(rssim.scenario, "MAX_MODEL_BYTES", int(1.25 * peak))
    ScenarioConfig(M=M, K=K)
