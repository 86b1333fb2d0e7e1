import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

import rssim.cli
import rssim.moments
import rssim.validation
from rssim.errors import ConfigError
from rssim.linalg import batch_sizes
from rssim.moments import QuarticAdjudication, mc_c_quartic
from rssim.scenario import ScenarioConfig
from rssim.link import PowerVector, se_report
from rssim.moments import closed_form_moments
from rssim.estimation import simulate_batch
from rssim.validation import (
    MC_BATCH,
    common_rate_cap,
    mc_estimation_stats,
    mc_moment_table,
    run_validation,
    simplex_grid_max_min,
    sum_se_derivative_fd_errors,
    tolerance_excess,
    visit_batches,
)

from conftest import (
    REFERENCE_MC_BATCH,
    REFERENCE_QUARTIC_BATCH,
    make_scenario,
    reference_batch,
    reference_gaussian,
    reference_mc_estimation_stats,
    reference_mc_moment_table,
    solve_weights_for,
)

ORACLE_SIZES = [(1, 1), (1, 3), (16, 3), (32, 4)]


def assert_matches_reference(got, want, rel=1e-12):
    """Entrywise within ``rel`` of the reference's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_tolerance_excess_combined_rule():
    # inside 2% relative: passes even with tiny SE
    assert tolerance_excess(100.0, 101.0, 0.0) <= 1.0
    # outside 2% but inside 4 SE: passes
    assert tolerance_excess(100.0, 110.0, 5.0) <= 1.0
    # outside both: fails
    assert tolerance_excess(100.0, 110.0, 1.0) > 1.0
    # both sides zero contribute nothing
    assert tolerance_excess(0.0, 0.0, 0.0) == 0.0


def test_common_rate_cap_is_the_limit_of_the_common_rate(small_setup):
    # with no private power the common SINR rho_c |g_c,k|^2 / (rho_c delta_c,k
    # + sigma^2) rises towards |g_c,k|^2 / delta_c,k, so the common rate that
    # se_report gives climbs towards the cap from below as rho_c grows
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    cap = common_rate_cap(table, config.prelog)
    rates = [
        se_report(PowerVector(rho_c, np.zeros(config.K)), table, config).se_common
        for rho_c in (1.0, 1e4, 1e8, 1e12)  # mW, against -94 dBm of noise
    ]
    assert rates == sorted(rates) and rates[-1] <= cap
    assert rates[-1] == pytest.approx(cap, rel=1e-6)
    assert rates[0] < 0.9 * cap


def test_simplex_grid_enumerates_vertices():
    # payoff maximal at the pure second vertex
    v = np.array([[0.1, 0.1], [1.0, 2.0]])
    assert simplex_grid_max_min(v, step=0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("K, step", [(1, 0.1), (2, 0.25), (4, 0.2)])
def test_simplex_grid_matches_product_enumeration(K, step):
    v = np.random.default_rng(K).uniform(-1.0, 1.0, size=(K, 3))
    units = int(round(1.0 / step))
    best = max(
        float(np.min(np.array(parts) * step @ v))
        for parts in itertools.product(range(units + 1), repeat=K)
        if sum(parts) == units
    )
    assert simplex_grid_max_min(v, step) == pytest.approx(best, rel=1e-14)


def test_validation_refuses_small_sample_budget():
    with pytest.raises(ConfigError, match="mc_samples"):
        run_validation(ScenarioConfig(), 5000)


def test_validation_suite_passes_on_default_scenario():
    report = run_validation(ScenarioConfig(), 20_000)
    text = report.render()
    assert "quartic variant adjudication" in text
    assert "matched variant" in text
    failures = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {failures}"
    # the adjudication names exactly one matching variant and reports the
    # other's deviation
    quartic = report.checks[0]
    assert "rejected variant" in quartic.detail
    assert len(report.checks) == 9
    assert [c.name for c in report.checks[-2:]] == [
        "sum-SE gradient vs finite differences",
        "sum-SE Hessian vs finite differences",
    ]


def test_derivative_check_fails_a_hessian_without_the_common_term(small_setup, monkeypatch):
    # with the common stream open, the common rate's term is part of the
    # Hessian over the private powers; leaving it out fails the check
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    rho_total = config.rho_total_mw
    point = PowerVector(0.1 * rho_total, np.full(config.K, 0.8 * rho_total / config.K))
    assert max(sum_se_derivative_fd_errors(point, table, config.noise_mw, rho_total, 0)) <= 1e-5
    exact = rssim.validation.sum_se_hessian
    monkeypatch.setattr(
        rssim.validation, "sum_se_hessian",
        lambda p, *args: exact(PowerVector(0.0, p.rho), *args),
    )
    grad_error, hess_error = sum_se_derivative_fd_errors(
        point, table, config.noise_mw, rho_total, 0
    )
    assert grad_error <= 1e-5 < 1e-2 < hess_error


# linearizations with one leakage piece broken, from the correct terms t,
# the common rate's own-denominator response alpha_c and its responses
# zeta_c to the private powers
BROKEN_LEAKAGE = {
    "no common response": lambda t, alpha_c, zeta_c: replace(
        t, sigma2_private=t.sigma2_private + zeta_c
    ),
    "post-SIC leakage sign flip": lambda t, alpha_c, zeta_c: replace(
        t, sigma2_common=2 * alpha_c - t.sigma2_common
    ),
    "no alpha_c": lambda t, alpha_c, zeta_c: replace(t, sigma2_common=t.sigma2_common - alpha_c),
}


@pytest.mark.parametrize("mutant", list(BROKEN_LEAKAGE))
def test_gradient_check_fails_broken_leakage_coefficients(small_setup, monkeypatch, mutant):
    # each mutant moves only the gradient; the Hessian is computed apart
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    rho_total, sigma2 = config.rho_total_mw, config.noise_mw
    point = PowerVector(0.1 * rho_total, np.full(config.K, 0.8 * rho_total / config.K))
    den_c = table.G_private[0] @ point.rho + point.rho_c * table.common_variance[0] + sigma2
    num_c = den_c + point.rho_c * table.own_common[0]
    alpha_c = table.common_variance[0] / den_c
    zeta_c = table.G_private[0] * (1.0 / num_c - 1.0 / den_c)
    exact = rssim.validation.linearization_terms
    monkeypatch.setattr(
        rssim.validation, "linearization_terms",
        lambda *args: BROKEN_LEAKAGE[mutant](exact(*args), alpha_c, zeta_c),
    )
    grad_error, hess_error = sum_se_derivative_fd_errors(point, table, sigma2, rho_total, 0)
    assert hess_error <= 1e-5
    assert grad_error > 1e-3  # a hundred times the report's limit


def test_real_vote_winner_fails_validation(monkeypatch, capsys):
    """The closed forms are circular-only, so a vote that picks the real
    variant, even uniquely, must fail the suite and exit with code 3."""
    fake = QuarticAdjudication(
        winner="real",
        unique=True,
        max_z={"real": 1.0, "circular": 400.0},
        max_abs_dev={"real": 1e-3, "circular": 2.0},
    )
    monkeypatch.setattr(rssim.validation, "select_quartic_variant", lambda **kwargs: fake)
    reports = []

    def recording(*args, **kwargs):
        reports.append(run_validation(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(rssim.cli, "run_validation", recording)
    assert rssim.cli.main(["validate", "--trials", "10000"]) == rssim.cli.EXIT_VALIDATION
    failed = [c.name for c in reports[0].checks if not c.passed]
    assert failed == ["quartic variant adjudication"]
    assert "[FAIL] quartic variant adjudication" in capsys.readouterr().out


def test_cross_covariance_check_fails_a_scaled_whitened_stack(monkeypatch):
    """The Monte Carlo estimates are W_i^H L^{-1} y, so the reference must not
    come from W: with every W_k scaled by 1.2, the check against
    R_i Q^{-1} R_k from a solve on the explicit Q fails."""
    build = rssim.validation.build_estimation_model

    def scaled(*args):
        model = build(*args)
        model.W *= 1.2
        return model

    vote = QuarticAdjudication(
        winner="circular",
        unique=True,
        max_z={"real": 400.0, "circular": 1.0},
        max_abs_dev={"real": 2.0, "circular": 1e-3},
    )
    monkeypatch.setattr(rssim.validation, "build_estimation_model", scaled)
    monkeypatch.setattr(rssim.validation, "select_quartic_variant", lambda **kwargs: vote)
    checks = {c.name: c for c in run_validation(ScenarioConfig(), 10_000).checks}
    cross = checks["estimate cross-covariance vs closed form"]
    assert not cross.passed and cross.measured > 0.4


@pytest.mark.parametrize("M, K", ORACLE_SIZES)
def test_mc_moment_table_matches_the_einsum_reference_on_the_same_draws(M, K):
    # one full draw and a partial one: the draw size and the order of the
    # draws are part of what must agree
    config, _, model = make_scenario(M=M, K=K)
    weights = solve_weights_for(config, model)
    n = REFERENCE_MC_BATCH + 500
    table, info = mc_moment_table(model, n, np.random.default_rng(11), weights)
    (hat, hat_sq, common, common_sq), sum_norm, sum_c_norm = reference_mc_moment_table(
        model, n, np.random.default_rng(11), weights
    )
    phi = model.phi_trace
    expected = [
        (table.g_private, np.diagonal(hat.mean) / np.sqrt(phi)),
        (table.G_private, hat_sq.mean / phi),
        (table.g_common, common.mean),
        (table.G_common, common_sq.mean),
        (info["se"]["g_private"], np.diagonal(hat.se) / np.sqrt(phi)),
        (info["se"]["G_private"], hat_sq.se / phi),
        (info["se"]["g_common"], common.se),
        (info["se"]["G_common"], common_sq.se),
        (info["norm_private"], sum_norm / (n * phi)),
        (info["norm_common"], sum_c_norm / n),
    ]
    for got, want in expected:
        assert_matches_reference(got, want)


@pytest.mark.parametrize("M, K", ORACLE_SIZES)
def test_mc_estimation_stats_match_the_einsum_reference_on_the_same_draws(M, K):
    _, _, model = make_scenario(M=M, K=K)
    n = REFERENCE_MC_BATCH + 500
    stats = mc_estimation_stats(model, n, np.random.default_rng(12))
    reference = reference_mc_estimation_stats(model, n, np.random.default_rng(12))
    for name in ("cross", "err"):
        assert_matches_reference(stats[name], reference[name])


@pytest.mark.parametrize("M, K", [(1, 1), (1, 3), (16, 3)])
def test_mc_oracles_leave_the_model_inputs_unchanged(M, K):
    # the oracles write their draws in place; none may write through a view
    # into the covariances, the whitened stack or the factor of Q
    config, cov, model = make_scenario(M=M, K=K)
    weights = solve_weights_for(config, model)
    inputs = {"cov.R": cov.R, "model.W": model.W, "model.Q_factor": model.Q_factor}
    before = {name: a.tobytes() for name, a in inputs.items()}
    rng = np.random.default_rng(13)
    calls = {
        "simulate_batch": lambda: simulate_batch(model, 300, rng),
        "mc_moment_table": lambda: mc_moment_table(model, 300, rng, weights),
        "mc_estimation_stats": lambda: mc_estimation_stats(model, 300, rng),
    }
    for call_name, call in calls.items():
        call()
        changed = [name for name, a in inputs.items() if a.tobytes() != before[name]]
        assert not changed, f"{call_name} wrote to {changed}"


# The draw-stream and failure checks run the three Monte Carlo oracles on one
# small scenario and one 4x4 matrix of the vote, so full draws stay cheap.
ORACLES = ("mc_moment_table", "mc_estimation_stats", "mc_c_quartic")
QUARTIC_B = np.random.default_rng(4).standard_normal((4, 4, 2)) @ np.array([1.0, 1j])


@pytest.fixture(scope="module")
def stream_setup():
    config, _, model = make_scenario(M=4, K=2)
    return model, solve_weights_for(config, model)


def run_oracle(name, model, weights, n, rng):
    if name == "mc_moment_table":
        return mc_moment_table(model, n, rng, weights)
    if name == "mc_estimation_stats":
        return mc_estimation_stats(model, n, rng)
    return mc_c_quartic(QUARTIC_B, n, rng)


def oracle_draw_size(name):
    return REFERENCE_QUARTIC_BATCH if name == "mc_c_quartic" else REFERENCE_MC_BATCH


class RecordingGenerator:
    """Passes standard_normal calls to a seeded generator, records the thread
    of each call, and raises from the call numbered ``fail_at`` (from 0)."""

    def __init__(self, seed, fail_at=None):
        self._rng = np.random.default_rng(seed)
        self.fail_at = fail_at
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        if len(self.threads) == self.fail_at:
            raise RuntimeError("draw failed")
        self.threads.append(threading.get_ident())
        return self._rng.standard_normal(*args, **kwargs)


def fail_on_call(fn, index):
    """``fn``, except that its call numbered ``index`` (from 0) raises."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        if next(calls) == index:
            raise RuntimeError("visit failed")
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("extra", [0, 700])
def test_mc_oracles_leave_the_stream_where_the_reference_draws_do(stream_setup, oracle, extra):
    # a last draw that is full (extra = 0) and one that is partial: every
    # draw is made, and none is made ahead past the last one
    model, weights = stream_setup
    size = oracle_draw_size(oracle)
    n = 2 * size + extra
    rng = np.random.default_rng(30)
    run_oracle(oracle, model, weights, n, rng)
    replay = np.random.default_rng(30)
    for m in batch_sizes(n, size):
        if oracle == "mc_c_quartic":
            reference_gaussian(replay, (m, len(QUARTIC_B)))
        else:
            reference_batch(model, m, replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_prefetched_batches_equal_simulate_batch(stream_setup):
    model, _ = stream_setup
    n = 2 * MC_BATCH + 300
    got = []
    visit_batches(model, n, np.random.default_rng(31), got.append)
    replay = np.random.default_rng(31)
    assert [len(batch.h) for batch in got] == batch_sizes(n, MC_BATCH)
    for batch in got:
        want = simulate_batch(model, len(batch.h), replay)
        assert np.array_equal(batch.h, want.h) and np.array_equal(batch.h_hat, want.h_hat)


@pytest.mark.parametrize("oracle", ORACLES)
def test_mc_oracles_draw_on_one_worker_thread(stream_setup, oracle):
    model, weights = stream_setup
    rng = RecordingGenerator(32)
    before = threading.enumerate()
    run_oracle(oracle, model, weights, 3 * oracle_draw_size(oracle), rng)
    assert len(rng.threads) == 3
    assert len(set(rng.threads)) == 1 and rng.threads[0] != threading.get_ident()
    assert threading.enumerate() == before


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_mc_oracles_raise_a_failed_draw_and_leave_no_thread(stream_setup, oracle, fail_at):
    model, weights = stream_setup
    before = threading.enumerate()
    rng = RecordingGenerator(33, fail_at)
    with pytest.raises(RuntimeError, match="draw failed"):
        run_oracle(oracle, model, weights, 3 * oracle_draw_size(oracle), rng)
    assert threading.enumerate() == before


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_mc_oracles_raise_a_failed_visit_and_leave_no_thread(
    stream_setup, oracle, fail_at, monkeypatch
):
    # the channel oracles' visits form each batch, the vote's sums each draw
    model, weights = stream_setup
    if oracle == "mc_c_quartic":
        module, name = rssim.moments, "outer_sums"
    else:
        module, name = rssim.validation, "form_batch"
    monkeypatch.setattr(module, name, fail_on_call(getattr(module, name), fail_at))
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="visit failed"):
        run_oracle(oracle, model, weights, 3 * oracle_draw_size(oracle), np.random.default_rng(34))
    assert threading.enumerate() == before
