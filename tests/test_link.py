import numpy as np
import pytest

from rssim.errors import NumericalError
from rssim.link import PowerVector, _guard_denominator, se_report
from rssim.moments import MomentTable, closed_form_moments
from rssim.scenario import ScenarioConfig
from rssim.validation import mc_moment_table

from conftest import make_scenario, solve_weights_for


def table_from(g, G, g_c=None, G_c=None):
    K = len(g)
    return MomentTable(
        g_private=np.asarray(g, dtype=complex),
        G_private=np.asarray(G, dtype=float),
        g_common=np.zeros(K, dtype=complex) if g_c is None else np.asarray(g_c, dtype=complex),
        G_common=np.zeros(K) if G_c is None else np.asarray(G_c, dtype=float),
    )


def gamma_private(k: int, powers: PowerVector, moments: MomentTable, sigma2: float) -> float:
    """Private-stream SINR of UE k after the common stream is cancelled, by
    direct substitution; se_report computes all of them as arrays."""
    own = moments.own_private[k]
    delta_c = moments.common_variance[k]
    rx = float(moments.G_private[k] @ powers.rho)
    den = rx - powers.rho[k] * own + powers.rho_c * delta_c + sigma2
    den = _guard_denominator(den, rx + powers.rho_c * delta_c + sigma2, sigma2, f"gamma_private[{k}]")
    return float(powers.rho[k] * own / den)


def gamma_common(k: int, powers: PowerVector, moments: MomentTable, sigma2: float) -> float:
    """Common-stream SINR at UE k, private streams treated as noise."""
    delta_c = moments.common_variance[k]
    rx = float(moments.G_private[k] @ powers.rho)
    den = rx + powers.rho_c * delta_c + sigma2
    den = _guard_denominator(den, rx + powers.rho_c * delta_c + sigma2, sigma2, f"gamma_common[{k}]")
    return float(powers.rho_c * moments.own_common[k] / den)


def test_gamma_private_direct_substitution():
    # single UE: rho|g|^2 / (rho G - rho|g|^2 + sigma^2) = 4 / (5 - 4 + 1)
    table = table_from([2.0], [[5.0]])
    powers = PowerVector(0.0, np.array([1.0]))
    assert gamma_private(0, powers, table, 1.0) == pytest.approx(2.0)


def test_gamma_zero_powers():
    table = table_from([2.0], [[5.0]])
    powers = PowerVector(0.0, np.array([0.0]))
    assert gamma_private(0, powers, table, 1.0) == 0.0
    assert gamma_common(0, powers, table, 1.0) == 0.0


def test_gamma_common_interference_free():
    # zero common-channel variance: gamma_c = rho_c |g_c|^2 / sigma^2
    table = table_from([1.0], [[1.0]], g_c=[1.0], G_c=[1.0])
    powers = PowerVector(3.0, np.array([0.0]))
    assert gamma_common(0, powers, table, 1.0) == pytest.approx(3.0)


def test_gamma_common_nonincreasing_in_private_power():
    table = table_from([1.0, 0.9], [[1.2, 0.3], [0.2, 1.1]], g_c=[0.5, 0.4], G_c=[0.5, 0.3])
    lo = PowerVector(1.0, np.array([0.5, 0.5]))
    hi = PowerVector(1.0, np.array([2.0, 0.5]))
    assert gamma_common(0, hi, table, 0.1) < gamma_common(0, lo, table, 0.1)


def test_se_nondecreasing_in_own_power():
    table = table_from([1.0, 0.9], [[1.2, 0.3], [0.2, 1.1]])
    lo = PowerVector(0.0, np.array([0.5, 0.5]))
    hi = PowerVector(0.0, np.array([1.5, 0.5]))
    assert gamma_private(0, hi, table, 0.1) > gamma_private(0, lo, table, 0.1)


def test_se_report_prelog_and_sum():
    config = ScenarioConfig(M=4, K=2, tau=200, tau_p=10)
    table = table_from([1.0, 1.0], [[1.5, 0.2], [0.2, 1.5]], g_c=[0.6, 0.5], G_c=[0.6, 0.4])
    powers = PowerVector(1.0, np.array([1.0, 1.0]))
    report = se_report(powers, table, config)
    assert report.prelog == pytest.approx(0.95)
    assert report.sum_se == report.se_common + report.se_private.sum()
    assert report.se_private_total == pytest.approx(report.se_private.sum())


def test_se_report_lmin_tie_break_lowest_index():
    table = table_from([1.0, 1.0], [[1.5, 0.2], [0.2, 1.5]], g_c=[0.5, 0.5], G_c=[0.4, 0.4])
    powers = PowerVector(1.0, np.array([1.0, 1.0]))
    config = ScenarioConfig(M=4, K=2)
    report = se_report(powers, table, config)
    assert report.gamma_common[0] == pytest.approx(report.gamma_common[1])
    assert report.l_min == 0


def test_se_report_no_common_power():
    config = ScenarioConfig(M=4, K=2)
    table = table_from([1.0, 1.0], [[1.5, 0.2], [0.2, 1.5]], g_c=[0.6, 0.5], G_c=[0.7, 0.6])
    powers = PowerVector(0.0, np.array([1.0, 2.0]))
    report = se_report(powers, table, config)
    assert report.se_common == 0.0
    assert report.sum_se == pytest.approx(report.se_private.sum())


def test_common_rate_decodable_by_every_ue():
    config = ScenarioConfig(M=4, K=3)
    table = table_from(
        [1.0, 1.1, 0.9],
        [[1.5, 0.2, 0.1], [0.2, 1.6, 0.2], [0.1, 0.2, 1.4]],
        g_c=[0.6, 0.2, 0.4], G_c=[0.7, 0.3, 0.5],
    )
    powers = PowerVector(2.0, np.array([1.0, 1.0, 1.0]))
    report = se_report(powers, table, config)
    for k in range(3):
        assert report.se_common <= report.prelog * np.log2(1 + report.gamma_common[k]) + 1e-12
    assert report.gamma_common[report.l_min] == report.gamma_common.min()


def test_denominator_guard_raises_on_bad_table():
    # second moment below squared mean: the subtraction goes deeply negative
    table = table_from([2.0], [[1.0]])
    powers = PowerVector(0.0, np.array([1.0]))
    with pytest.raises(NumericalError, match="variance"):
        gamma_private(0, powers, table, 1e-12)
    with pytest.raises(NumericalError, match="variance"):
        se_report(powers, table, ScenarioConfig(M=4, K=1))


def test_se_report_vectors_match_per_ue_sinrs():
    config, _, model = make_scenario(M=16, K=10, seed=5)
    table = closed_form_moments(model, solve_weights_for(config, model))
    rng = np.random.default_rng(4)
    rho_total = config.rho_total_mw
    for rho_c in (0.0, 0.1 * rho_total, 0.4 * rho_total):
        rho = rng.uniform(0.0, 1.0, config.K) * rho_total / config.K
        rho[rng.random(config.K) < 0.3] = 0.0
        powers = PowerVector(rho_c, rho)
        report = se_report(powers, table, config)
        sigma2 = config.noise_mw
        per_ue_p = [gamma_private(k, powers, table, sigma2) for k in range(config.K)]
        per_ue_c = [gamma_common(k, powers, table, sigma2) for k in range(config.K)]
        np.testing.assert_allclose(report.gamma_private, per_ue_p, rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.gamma_common, per_ue_c, rtol=1e-12, atol=0)
    # a denominator slightly below zero by cancellation is pinned in both paths
    config = ScenarioConfig(M=4, K=1)
    table = table_from([1.0], [[1.0 - 1e-12]])
    powers = PowerVector(0.0, np.array([1000.0]))
    pinned = gamma_private(0, powers, table, config.noise_mw)
    assert pinned == 1000.0 / (1e-12 * config.noise_mw)
    assert se_report(powers, table, config).gamma_private[0] == pinned


def test_budget_validation():
    with pytest.raises(ValueError):
        PowerVector(-1.0, np.array([1.0]))


def test_report_agrees_between_closed_form_and_monte_carlo_tables():
    config, cov, model = make_scenario(M=8, K=2, seed=6)
    weights = solve_weights_for(config, model)
    closed = closed_form_moments(model, weights)
    mc, _ = mc_moment_table(model, 60_000, np.random.default_rng(3), weights)
    rho = config.rho_total_mw
    powers = PowerVector(0.3 * rho, np.full(config.K, 0.35 * rho))
    rep_closed = se_report(powers, closed, config)
    rep_mc = se_report(powers, mc, config)
    assert np.allclose(rep_closed.gamma_private, rep_mc.gamma_private, rtol=0.1)
    assert np.allclose(rep_closed.gamma_common, rep_mc.gamma_common, rtol=0.1)
