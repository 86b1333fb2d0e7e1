import itertools
from dataclasses import replace

import numpy as np
import pytest

import rssim.cli
import rssim.validation
from rssim.errors import ConfigError
from rssim.moments import QuarticAdjudication
from rssim.scenario import ScenarioConfig
from rssim.link import PowerVector
from rssim.moments import closed_form_moments
from rssim.validation import (
    run_validation,
    simplex_grid_max_min,
    sum_se_derivative_fd_errors,
    tolerance_excess,
)


def test_tolerance_excess_combined_rule():
    # inside 2% relative: passes even with tiny SE
    assert tolerance_excess(100.0, 101.0, 0.0) <= 1.0
    # outside 2% but inside 4 SE: passes
    assert tolerance_excess(100.0, 110.0, 5.0) <= 1.0
    # outside both: fails
    assert tolerance_excess(100.0, 110.0, 1.0) > 1.0
    # both sides zero contribute nothing
    assert tolerance_excess(0.0, 0.0, 0.0) == 0.0


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
