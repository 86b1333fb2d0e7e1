from dataclasses import replace

import numpy as np
import pytest

from rssim.config import SweepSpec
from rssim.errors import NumericalError
from rssim.estimation import build_estimation_model
import rssim.link as link
from rssim.link import PowerVector, se_report, stream_denominators
from rssim.moments import MomentTable, closed_form_moments
import rssim.power as power
import rssim.runner as runner
from rssim.power import (
    IlaWfOptions,
    LinearizationTerms,
    _budget_exact_sweep,
    ila_wf,
    linearization_terms,
    sum_se_hessian,
)
from rssim.runner import derive_point_seed, evaluate_drop, run_sweep
from rssim.scenario import (
    CovarianceSet,
    ScenarioConfig,
    generate_scenario,
    local_scattering_covariance,
)
from rssim.validation import sum_se_derivative_fd_errors

from conftest import make_scenario, solve_weights_for, stationarity_residuals


def rs_table(config, model):
    weights = solve_weights_for(config, model)
    return closed_form_moments(model, weights)


def test_waterfill_arithmetic():
    assert waterfill(0.5, 2.0, 0.0) == pytest.approx(1.5)


def test_waterfill_clamps_to_zero():
    assert waterfill(1.0, 0.5, 0.0) == 0.0  # mu + sigma2 >= sigma1
    assert waterfill(0.3, 1.0, 0.7) == 0.0


def test_waterfill_huge_multiplier():
    assert waterfill(1e5, 2.0, 0.1) == pytest.approx(0.0, abs=2e-5)


def test_waterfill_rejects_bad_inputs():
    with pytest.raises(ValueError):
        waterfill(0.1, 0.0, 0.0)
    with pytest.raises(NumericalError):
        waterfill(-0.5, 1.0, 0.2)


def simple_table():
    return MomentTable(
        g_private=np.array([1.0 + 0j]),
        G_private=np.array([[1.3]]),
        g_common=np.zeros(1, dtype=complex),
        G_common=np.zeros(1),
    )


def test_linearization_single_ue_no_common():
    table = simple_table()
    terms = linearization_terms(PowerVector(0.0, np.array([2.0])), table, 1.0, 0)
    # empty interference sums leave sigma1 = G / sigma^2
    assert terms.sigma1_private[0] == pytest.approx(1.3)
    # with no other stream the leakage is the own-denominator response alone:
    # (G - |g|^2) / (rho (G - |g|^2) + sigma^2)
    assert terms.sigma2_private[0] == pytest.approx(0.3 / 1.6)


def test_linearization_zero_power_zero_zeta(small_setup):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    point = PowerVector(1.0, np.array([0.0, 5.0, 3.0]))
    terms = linearization_terms(point, table, config.noise_mw, 1)
    assert np.all(terms.sigma2_private >= 0.0)
    assert terms.sigma2_common >= 0.0
    # UE 0 has no power, so NUM_0 = DEN_0 and its rate stays zero whatever
    # the other beams send it: its cross responses enter no other coefficient
    G = table.G_private.copy()
    G[0, 1:] *= 3.0
    louder = MomentTable(
        g_private=table.g_private, G_private=G, g_common=table.g_common, G_common=table.G_common
    )
    other = linearization_terms(point, louder, config.noise_mw, 1)
    for name in ("sigma1_private", "sigma2_private", "gain_private"):
        assert np.array_equal(getattr(other, name)[1:], getattr(terms, name)[1:])
    for name in ("sigma1_common", "sigma2_common", "gain_common"):
        assert getattr(other, name) == getattr(terms, name)


def test_linearization_matches_finite_differences(small_setup):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    rho_total = config.rho_total_mw
    # gain - sigma2 over all K + 1 powers, the common one included, at every
    # bottleneck UE and with one private stream off
    sigma2 = config.noise_mw
    for split in (np.full(config.K, 0.8 / config.K), np.array([0.0, 0.5, 0.3])):
        point = PowerVector(0.1 * rho_total, split * rho_total)
        for l_min in range(config.K):
            grad_error, _ = sum_se_derivative_fd_errors(point, table, sigma2, rho_total, l_min)
            assert grad_error <= 1e-5


def se_central_differences(point, table, config, h):
    """Gradient and Hessian of se_report(...).sum_se over the private powers
    by central differences with step h."""
    K = len(point.rho)
    steps = h * np.eye(K)

    def f(delta):
        return se_report(PowerVector(point.rho_c, point.rho + delta), table, config).sum_se

    grad = np.array([f(e) - f(-e) for e in steps]) / (2 * h)
    hess = np.array([[f(a + b) - f(a - b) - f(b - a) + f(-a - b) for b in steps] for a in steps])
    return grad, hess / (4 * h * h)


@pytest.mark.parametrize("K", [3, 12])
@pytest.mark.parametrize("common", ["closed", "open"])
def test_sum_se_gradient_and_hessian_match_central_differences(K, common):
    # g = gain_private - sigma2_private and the exact Hessian, both over
    # the sum of log-rates, are the sum SE's derivatives over prelog / ln 2;
    # with the common stream open the bottleneck stays the same UE over
    # every difference step
    config, _, _, model = make_scenario(M=16, K=K, seed=3)
    table = rs_table(config, model)
    rho_total = config.rho_total_mw
    rho_c = 0.2 * rho_total if common == "open" else 0.0
    rho = (rho_total - rho_c) * np.random.default_rng(K).dirichlet(np.ones(K))
    point = PowerVector(rho_c, rho)
    l_min = se_report(point, table, config).l_min
    terms = linearization_terms(point, table, config.noise_mw, l_min if rho_c > 0 else None)
    scale = config.prelog / np.log(2.0)
    grad = scale * (terms.gain_private - terms.sigma2_private)
    hess = scale * sum_se_hessian(point, table, config.noise_mw, l_min)
    fd_grad, fd_hess = se_central_differences(point, table, config, 3e-3 * rho.min())
    assert np.abs(fd_grad - grad).max() <= 1e-5 * np.abs(grad).max()
    assert np.abs(fd_hess - hess).max() <= 1e-4 * np.abs(hess).max()


def random_points(K, rho_total, seed):
    """Power points with some private powers at zero, mostly rho_c > 0."""
    rng = np.random.default_rng(seed)
    points = [PowerVector(0.2 * rho_total, np.zeros(K))]
    for i in range(6):
        rho = rng.uniform(0.0, 1.0, K) * rho_total / K
        rho[rng.random(K) < 0.3] = 0.0
        points.append(PowerVector(0.0 if i == 0 else rng.uniform(0.0, 0.3) * rho_total, rho))
    return points


@pytest.fixture(scope="module")
def coefficient_cases(small_setup):
    """(table, sigma2, rho_total) at K=3 and at K=10."""
    config, _, model, weights = small_setup
    config10, _, _, model10 = make_scenario(M=16, K=10, seed=5)
    return [
        (closed_form_moments(model, weights), config.noise_mw, config.rho_total_mw),
        (rs_table(config10, model10), config10.noise_mw, config10.rho_total_mw),
    ]


def test_linearization_arrays_match_per_stream_terms(coefficient_cases):
    for table, sigma2, rho_total in coefficient_cases:
        K = table.K
        for point in random_points(K, rho_total, seed=K):
            for l_min in range(K):
                terms = linearization_terms(point, table, sigma2, l_min)
                per_stream = np.array([
                    _private_update_terms(k, point.rho_c, point.rho, table, sigma2, l_min)
                    for k in range(K)
                ])
                np.testing.assert_allclose(terms.sigma1_private, per_stream[:, 0], rtol=1e-12, atol=0)
                np.testing.assert_allclose(terms.sigma2_private, per_stream[:, 1], rtol=1e-12, atol=0)
                s1c, s2c = _common_update_terms(point.rho_c, point.rho, table, sigma2, l_min)
                assert terms.sigma1_common == pytest.approx(s1c, rel=1e-12, abs=0)
                assert terms.sigma2_common == pytest.approx(s2c, rel=1e-12, abs=0)


def waterfill(mu: float, sigma1: float, sigma2: float) -> float:
    """Clamped water-filling level (1/(mu + sigma2) - 1/sigma1)^+."""
    if sigma1 <= 0:
        raise ValueError(f"sigma1 must be positive, got {sigma1:.3e}")
    level = mu + sigma2
    if level <= 0:
        raise NumericalError(
            f"invalid water-filling slope mu + sigma2 = {level:.3e}; "
            "restart from the previous feasible point"
        )
    return max(1.0 / level - 1.0 / sigma1, 0.0)


def _private_update_terms(k, rho_c, rho, moments, sigma2, l_min):
    """sigma1/sigma2 of beam k at the current (possibly mid-sweep) point."""
    powers = PowerVector(rho_c, rho)
    G = moments.G_private
    own = np.abs(moments.g_private[k]) ** 2
    delta_c = np.maximum(moments.G_common - np.abs(moments.g_common) ** 2, 0.0)
    den_p, num_p, den_c, num_c = stream_denominators(powers, moments, sigma2)
    den_sig = sigma2 + rho_c * delta_c[k] + float(G[k] @ rho) - rho[k] * G[k, k]
    s1 = G[k, k] / den_sig
    alpha_k = (G[k, k] - own) / den_p[k]
    inv_gap = 1.0 / num_p - 1.0 / den_p
    zeta_sum = float(G[:, k] @ inv_gap) - G[k, k] * inv_gap[k]
    gap_c = 1.0 / num_c[l_min] - 1.0 / den_c[l_min]
    s2 = alpha_k - G[l_min, k] * gap_c - zeta_sum
    return float(s1), float(s2)


def _common_update_terms(rho_c, rho, moments, sigma2, l_min):
    powers = PowerVector(rho_c, rho)
    delta_c = np.maximum(moments.G_common - np.abs(moments.g_common) ** 2, 0.0)
    den_p, num_p, den_c, _ = stream_denominators(powers, moments, sigma2)
    den_sig = sigma2 + float(moments.G_private[l_min] @ rho)
    s1 = moments.G_common[l_min] / den_sig
    inv_gap = 1.0 / num_p - 1.0 / den_p
    s2 = delta_c[l_min] / den_c[l_min] - float(delta_c @ inv_gap)
    return float(s1), float(s2)


# first top of the reference bisection's multiplier bracket, 1/mW; doubled
# until it brackets the budget
REFERENCE_BRACKET_TOP = 1e5


def scalar_budget_step(point, table, sigma2, rho_total, l_min):
    """Reference budget-exact step: per-stream coefficients, scalar water-filling."""
    K = len(point.rho)
    terms = [_private_update_terms(k, point.rho_c, point.rho, table, sigma2, l_min) for k in range(K)]
    s1c, s2c = _common_update_terms(point.rho_c, point.rho, table, sigma2, l_min)
    if s1c > 0:
        terms.append((s1c, s2c))
    return scalar_water_filling(terms, rho_total)


def scalar_water_filling(terms, rho_total):
    """Stream by stream water-filling levels for (sigma1, sigma2) pairs, with
    the multiplier bisected to the budget; returns (levels, mu)."""

    def total(mu):
        levels = []
        for s1, s2 in terms:
            try:
                levels.append(waterfill(mu, s1, max(s2, 0.0)))
            except NumericalError:
                levels.append(10.0 * rho_total)
        return np.sum(levels), levels

    if total(0.0)[0] <= rho_total:
        return total(0.0)[1], 0.0
    lo, hi = 0.0, REFERENCE_BRACKET_TOP
    while total(hi)[0] > rho_total and hi < 1e15:
        hi *= 2.0
    while hi - lo >= 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if total(mid)[0] > rho_total else (lo, mid)
    return total(hi)[1], hi


def without_common_stream(table):
    """The table's private entries with zero common entries: the table
    closed_form_moments builds without common weights."""
    return MomentTable(
        g_private=table.g_private, G_private=table.G_private,
        g_common=np.zeros(table.K, dtype=complex), G_common=np.zeros(table.K),
    )


@pytest.mark.parametrize("mr_table", [False, True])
def test_budget_step_matches_scalar_water_filling(coefficient_cases, mr_table):
    for table, sigma2, rho_total in coefficient_cases:
        if mr_table:
            table = without_common_stream(table)
        K = table.K
        for point in random_points(K, rho_total, seed=K + 1):
            rho_c, rho, mu = _budget_exact_sweep(
                linearization_terms(point, table, sigma2, 0), rho_total
            )
            levels, mu_ref = scalar_budget_step(point, table, sigma2, rho_total, 0)
            assert mu == pytest.approx(mu_ref, rel=1e-10)
            if mu > 0:
                assert rho_c + rho.sum() == pytest.approx(rho_total, rel=1e-12, abs=0)
            np.testing.assert_allclose(rho, levels[:K], rtol=1e-9, atol=1e-12 * rho_total)
            assert rho_c == pytest.approx(levels[K] if len(levels) > K else 0.0, rel=1e-9, abs=1e-12 * rho_total)


def coefficient_terms(sigma1, sigma2, common=None):
    """LinearizationTerms with only the water-filling coefficients set;
    common is an optional (sigma1, sigma2) pair for the common stream."""
    K = len(sigma1)
    s1c, s2c = common if common is not None else (0.0, 0.0)
    return LinearizationTerms(
        sigma1_private=np.array(sigma1, dtype=float), sigma2_private=np.array(sigma2, dtype=float),
        sigma1_common=s1c, sigma2_common=s2c, gain_private=np.zeros(K), gain_common=0.0,
    )


# (sigma1, sigma2, common pair or None, budgets): each names the case it covers
BUDGET_STEP_CASES = {
    "zero slopes at zero price": ([2.0, 1.0, 4.0], [0.0, 0.5, -1.0], (3.0, 0.0), [0.1, 1.0, 50.0]),
    "breakpoints at or below zero": ([1.0, 0.5, 2.0, 3.0], [2.0, 0.5, 0.1, 0.2], None, [0.01, 0.5, 3.0]),
    # at 2/15 the root is the tied breakpoint itself
    "tied breakpoints": ([2.0, 2.0, 3.0, 5.0], [1.0, 1.0, 2.0, 2.0], (4.0, 3.0), [0.05, 2 / 15, 0.3, 1.0]),
    "one stream active": ([100.0, 1.1, 1.2], [0.0, 1.0, 1.0], None, [1.0]),
    "all streams active": ([2.0, 3.0, 4.0], [0.1, 0.2, 0.3], (2.5, 0.4), [5.0]),
    "slack budget": ([2.0, 3.0], [1.0, 1.0], None, [5.0]),
    "coefficients spread over 1e10": (
        [1e-2, 3.0, 1e4, 1e8], [1e-4, 0.5, 2e3, 1e6], (5e5, 10.0), [1e-3, 1.0, 1e2, 5e3],
    ),
}


@pytest.mark.parametrize("case", list(BUDGET_STEP_CASES))
def test_budget_step_matches_scalar_reference_on_edge_coefficients(case):
    sigma1, sigma2, common, budgets = BUDGET_STEP_CASES[case]
    K = len(sigma1)
    terms = coefficient_terms(sigma1, sigma2, common)
    pairs = list(zip(sigma1, sigma2)) + ([common] if common is not None else [])
    for rho_total in budgets:
        with np.errstate(all="raise"):
            rho_c, rho, mu = _budget_exact_sweep(terms, rho_total)
        levels, mu_ref = scalar_water_filling(pairs, rho_total)
        assert mu == pytest.approx(mu_ref, rel=1e-10, abs=0)
        np.testing.assert_allclose(rho, levels[:K], rtol=1e-9, atol=1e-12 * rho_total)
        assert rho_c == pytest.approx(sum(levels[K:]), rel=1e-9, abs=1e-12 * rho_total)
        if mu > 0:
            assert rho_c + rho.sum() == pytest.approx(rho_total, rel=1e-12, abs=0)
        else:
            assert rho_c + rho.sum() <= rho_total


def test_budget_step_zero_slope_at_zero_price_is_unbounded():
    # no self-interference and no other stream: at zero price the linearized
    # demand is unbounded, so the multiplier is solved for the budget
    table = MomentTable(
        g_private=np.array([1.0 + 0j]), G_private=np.array([[1.0]]),
        g_common=np.zeros(1, dtype=complex), G_common=np.zeros(1),
    )
    with np.errstate(all="raise"):
        terms = linearization_terms(PowerVector(0.0, np.array([2.0])), table, 1.0, 0)
        rho_c, rho, mu = _budget_exact_sweep(terms, 5.0)
    assert rho_c == 0.0
    assert mu == pytest.approx(1.0 / 6.0, rel=1e-12)  # 1/mu - 1/sigma1 = budget
    assert rho[0] == pytest.approx(5.0, rel=1e-12)


def test_budget_step_rejects_nonpositive_sigma1():
    table = MomentTable(
        g_private=np.zeros(1, dtype=complex), G_private=np.zeros((1, 1)),
        g_common=np.zeros(1, dtype=complex), G_common=np.zeros(1),
    )
    with pytest.raises(ValueError, match="sigma1"):
        terms = linearization_terms(PowerVector(0.0, np.array([1.0])), table, 1.0, 0)
        _budget_exact_sweep(terms, 5.0)


def linearized_points(monkeypatch):
    """The point of every linearization the allocator makes from now on;
    a run linearizes each of its iterates once, in order."""
    points = []

    def recording(rho_hat, *args):
        points.append(rho_hat)
        return linearization_terms(rho_hat, *args)

    monkeypatch.setattr(power, "linearization_terms", recording)
    return points


def traced_run(monkeypatch, moments, config, options=None):
    """An allocator run and its iterates, the first one included."""
    points = linearized_points(monkeypatch)
    return ila_wf(moments, config, options), points


def test_ila_wf_initialization_state(small_setup, monkeypatch):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    _, points = traced_run(monkeypatch, table, config)
    first = points[0]
    assert first.rho_c == 0.0
    assert np.allclose(first.rho, config.rho_total_mw / config.K)


def criterion_7_two_ue_joint_run():
    """The joint run of criterion 7, K = 2, drop 0, which opens the common
    stream, with its scenario config."""
    config = ScenarioConfig(M=64, K=2, rho_total_dbm=20, seed=0)
    _, cov = generate_scenario(config, np.random.default_rng(derive_point_seed(0, 0)))
    table = rs_table(config, build_estimation_model(cov, config.rho_tr_effective))
    return config, ila_wf(table, config)


def test_ila_wf_budget_feasible(small_setup, monkeypatch):
    # every budget-exact step spends the budget to rounding, so no iterate
    # needs a feasibility check, the joint run that opens the common stream
    # included
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    alloc, points = traced_run(monkeypatch, table, config)
    joint_points = linearized_points(monkeypatch)
    c7_config, joint = criterion_7_two_ue_joint_run()
    assert joint.common_opened
    assert any(point.rho_c > 0 for point in joint_points)
    for cfg, run, run_points in ((config, alloc, points), (c7_config, joint, joint_points)):
        assert run.powers.total <= cfg.rho_total_mw * (1 + 1e-12)
        assert len(run_points) == run.iterations + 1
        for point in run_points:
            assert point.total <= cfg.rho_total_mw * (1 + 1e-12)


def symmetric_two_ue_drop():
    """Two UEs with the same covariance: the config and the drop."""
    R = local_scattering_covariance(1.5, [0.3, -0.2, 0.8], np.radians(10), 16)
    cov = CovarianceSet(R=np.stack([R, R]), beta=np.array([1.5, 1.5]))
    model = build_estimation_model(cov, 50.0)
    config = ScenarioConfig(M=16, K=2, noise_dbm=-30.0)  # 100 mW budget, 1e-3 mW noise
    return config, (model, closed_form_moments(model))


def test_ila_wf_symmetric_two_ues():
    config, drop = symmetric_two_ue_drop()
    # the tie rule picks between the runs with and without the common stream
    _, alloc, weights = runner.allocate_drop(config, ("rs",), drop)["rs"]
    assert np.array_equal(weights, [0.5, 0.5])
    assert alloc.converged
    rel = abs(alloc.powers.rho[0] - alloc.powers.rho[1]) / alloc.powers.rho[0]
    assert rel < 1e-8


@pytest.mark.parametrize("joint_converges", [False, True])
def test_tie_rule_takes_the_joint_run_only_if_it_converged(joint_converges, monkeypatch):
    # the symmetric drop's joint run opens the common stream and stops at the
    # cap above the converged fallback: 2.597 against 1.516 bit/s/Hz; marked
    # converged, it wins, because it ends with common power at a higher sum SE
    config, drop = symmetric_two_ue_drop()
    runs = []

    def recording(moments, *args, **kwargs):
        alloc = ila_wf(moments, *args, **kwargs)
        if not runs and joint_converges:
            alloc.converged = True
        runs.append(alloc)
        return alloc

    monkeypatch.setattr(runner, "ila_wf", recording)
    report, alloc, _ = runner.allocate_drop(config, ("rs",), drop)["rs"]
    joint, fallback = runs
    assert joint.common_opened and joint.iterations == 200
    assert joint.powers.rho_c == pytest.approx(98.6, abs=0.05)
    assert fallback.converged and fallback.powers.rho_c == 0.0
    assert alloc is (joint if joint_converges else fallback)
    assert report.sum_se == pytest.approx(2.597 if joint_converges else 1.516, abs=5e-4)


def test_ila_wf_stationarity_at_convergence(small_setup):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    alloc = ila_wf(table, config)
    assert alloc.converged
    res_p, res_c = stationarity_residuals(alloc.powers, alloc.mu, table, config.noise_mw)
    active = alloc.powers.rho > 0
    assert np.abs(res_p[active]).max() <= 1e-4 * alloc.mu
    if res_c is not None:
        assert abs(res_c) <= 1e-4 * alloc.mu


def test_ila_wf_improves_on_uniform_init(small_setup):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    alloc = ila_wf(table, config)
    init = PowerVector(0.0, np.full(config.K, config.rho_total_mw / config.K))
    assert (
        se_report(alloc.powers, table, config).sum_se
        >= se_report(init, table, config).sum_se
    )


def test_ila_wf_keeps_the_common_stream_off_on_the_mr_table(small_setup, monkeypatch):
    config, _, model, _ = small_setup
    table = closed_form_moments(model)
    alloc, points = traced_run(monkeypatch, table, config)
    assert alloc.powers.rho_c == 0.0
    assert not alloc.common_opened
    assert all(point.rho_c == 0.0 for point in points)


def assert_same_run(a, b):
    """Two (run, iterates) pairs from ``traced_run`` agree bit for bit."""
    (run_a, points_a), (run_b, points_b) = a, b
    assert run_a.powers.rho_c == run_b.powers.rho_c
    assert np.array_equal(run_a.powers.rho, run_b.powers.rho)
    assert (run_a.mu, run_a.iterations, run_a.converged, run_a.common_opened) == (
        run_b.mu, run_b.iterations, run_b.converged, run_b.common_opened
    )
    assert len(points_a) == len(points_b)
    for x, y in zip(points_a, points_b):
        assert x.rho_c == y.rho_c
        assert np.array_equal(x.rho, y.rho)


def test_pinned_run_does_not_read_the_common_stream_entries(small_setup, monkeypatch):
    # the pinned run is the run on the table without common weights, the
    # no-RS allocation and the RS fallback; rho_c * delta_c = 0 and gap_c = 0
    # in each of its linearizations, so at every iterate the table with the
    # common stream gives the same private terms whatever its bottleneck UE
    # (the common rate does not respond to the private powers) and, with its
    # breakpoint at or below the private multiplier, the same budget step
    config, _, model, weights = small_setup
    far_config, _, _, far_model = make_scenario(M=32, K=4, seed=0, pathloss_ref_m=1000)
    for cfg, mdl, w in [
        (config, model, weights), (far_config, far_model, solve_weights_for(far_config, far_model)),
    ]:
        mr_table, weighted_table = (closed_form_moments(mdl, x) for x in (None, w))
        pinned, points = traced_run(monkeypatch, mr_table, cfg)
        assert not pinned.common_opened
        for point in points:
            assert point.rho_c == 0.0
            mr, weighted = (
                linearization_terms(point, t, cfg.noise_mw, None)
                for t in (mr_table, weighted_table)
            )
            for name in ("sigma1_private", "sigma2_private", "gain_private"):
                assert np.array_equal(getattr(mr, name), getattr(weighted, name))
            for l_min in range(cfg.K):
                at_l = linearization_terms(point, weighted_table, cfg.noise_mw, l_min)
                assert np.array_equal(at_l.sigma2_private, mr.sigma2_private)
            mr_step, weighted_step = (
                _budget_exact_sweep(t, cfg.rho_total_mw) for t in (mr, weighted)
            )
            assert mr_step[0] == weighted_step[0] == 0.0
            assert np.array_equal(mr_step[1], weighted_step[1])
            assert mr_step[2] == weighted_step[2]


def test_joint_run_that_keeps_the_common_stream_off_is_the_pinned_run(small_setup, monkeypatch):
    # every budget step leaves the common stream out while its breakpoint is
    # at or below the private multiplier, and at rho_c = 0 the linearization
    # reads no common-stream entry, so the joint run equals the pinned run,
    # the one on the table without common weights; a drop shares it between
    # its two modes
    config, _, model, weights = small_setup
    far_config, _, _, far_model = make_scenario(M=32, K=4, seed=0, pathloss_ref_m=1000)
    for cfg, mdl, w in [
        (config, model, weights), (far_config, far_model, solve_weights_for(far_config, far_model)),
    ]:
        weighted, mr = (
            traced_run(monkeypatch, closed_form_moments(mdl, x), cfg)
            for x in (w, None)
        )
        assert not weighted[0].common_opened
        assert_same_run(weighted, mr)


def test_budget_step_opens_the_common_stream_only_above_the_private_multiplier(small_setup):
    config, _, model, weights = small_setup
    table = closed_form_moments(model, weights)
    point = PowerVector(0.0, np.full(config.K, config.rho_total_mw / config.K))
    terms = linearization_terms(point, table, config.noise_mw, None)
    # the step on the table without the common stream: the private streams alone
    mr_terms = linearization_terms(point, closed_form_moments(model), config.noise_mw, None)
    private = _budget_exact_sweep(mr_terms, config.rho_total_mw)
    mu = private[2]
    assert private[0] == 0.0
    assert mu > 0
    slope_c = max(terms.sigma2_common, 0.0)
    below = replace(terms, sigma1_common=slope_c + mu * (1 - 1e-9))
    rho_c, rho, mu_below = _budget_exact_sweep(below, config.rho_total_mw)
    assert rho_c == 0.0
    assert np.array_equal(rho, private[1])
    assert mu_below == mu
    above = replace(terms, sigma1_common=slope_c + mu * (1 + 1e-3))
    rho_c, rho, mu_above = _budget_exact_sweep(above, config.rho_total_mw)
    assert rho_c > 0
    assert mu_above > mu
    assert rho_c + rho.sum() == pytest.approx(config.rho_total_mw, rel=1e-12)


@pytest.mark.parametrize("drop", [0, 1, 2])
def test_joint_run_converges_wherever_the_pinned_run_does(drop, monkeypatch):
    # the criterion-6 fixture: linearized at its rho_c -> 0 bottleneck, the
    # joint run keeps the common stream off and so is the pinned run, the run
    # on the table without the common stream; at UE 0 it switched bottleneck
    # every iteration and 6 of these 9 runs hit the cap
    config = ScenarioConfig(M=64, K=8, seed=0)
    runs = []

    def recording(moments, *args, **kwargs):
        runs.append((moments, ila_wf(moments, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(runner, "ila_wf", recording)
    for dbm in (0.0, 20.0, 40.0):
        point_config = replace(config, rho_total_dbm=dbm)
        runs.clear()
        evaluate_drop(point_config, ("rs",), derive_point_seed(0, drop))
        assert len(runs) == 1
        table, joint = runs[0]
        assert not joint.common_opened
        pinned = ila_wf(without_common_stream(table), point_config)
        assert joint.converged or not pinned.converged


def assert_returns_last_iterate(alloc, points):
    assert len(points) == alloc.iterations + 1
    last = points[-1]
    assert alloc.powers.rho_c == last.rho_c
    assert np.array_equal(alloc.powers.rho, last.rho)


def test_ila_wf_unreachable_tolerance_returns_the_last_iterate(monkeypatch):
    # the iteration cap alone stops a run that would converge later
    config, _, _, model = make_scenario(M=32, K=4, seed=0, pathloss_ref_m=1000)
    table = closed_form_moments(model)
    assert ila_wf(table, config).iterations > 6
    alloc, points = traced_run(monkeypatch, table, config, IlaWfOptions(max_iterations=6))
    assert not alloc.converged
    assert alloc.iterations == 6
    assert_returns_last_iterate(alloc, points)
    assert alloc.powers.total <= config.rho_total_mw * (1 + 1e-6)


# lower bounds on the sum SE of the low-pilot runs below, above what
# water-filling alone reaches in 200 iterations: 0.9169155, 0.9311897 and
# 0.9328512
LOW_PILOT_SUM_SE = {20.0: 0.9169156, 30.0: 0.931421, 40.0: 0.932910}


@pytest.mark.parametrize("dbm", [20.0, 30.0, 40.0])
def test_capped_run_returns_its_last_and_best_iterate(dbm, monkeypatch):
    # the low-pilot geometry, where water-filling creeps towards a KKT point
    # that the Newton finish reaches: the run converges and its last iterate
    # is also its best one
    config = ScenarioConfig(M=16, K=12, rho_tr_dbm=-10, rho_total_dbm=dbm, seed=0)
    seed = derive_point_seed(0, 0)
    points = linearized_points(monkeypatch)
    report, alloc, _ = evaluate_drop(config, ("no_rs",), seed)["no_rs"]
    assert alloc.converged
    assert_returns_last_iterate(alloc, points)
    _, table = runner.build_drop(config, seed)
    sum_se = [se_report(point, table, config).sum_se for point in points]
    assert sum_se[-1] == report.sum_se == max(sum_se)
    assert report.sum_se >= LOW_PILOT_SUM_SE[dbm]


# the criterion-6 grid and the low-pilot geometry of the benchmark
CONVERGENCE_SWEEPS = {
    "criterion-6 grid": (
        ScenarioConfig(M=64, K=8, seed=0), (0.0, 5.0, 10.0, 20.0, 30.0, 40.0), 10,
    ),
    "low pilot": (ScenarioConfig(M=16, K=12, rho_tr_dbm=-10, seed=0), (10.0, 20.0, 30.0, 40.0), 3),
}


@pytest.mark.parametrize("sweep", list(CONVERGENCE_SWEEPS))
def test_every_allocation_converges(sweep, monkeypatch):
    # water-filling alone stops 4 of the 60 grid runs and 8 of the 12
    # low-pilot runs at the cap; with the Newton finish every run, joint or
    # not, converges
    config, values, drops = CONVERGENCE_SWEEPS[sweep]
    runs = []

    def recording(*args, **kwargs):
        runs.append(ila_wf(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(runner, "ila_wf", recording)
    rows = run_sweep(SweepSpec(axis="power_dbm", values=values, drops=drops), config)
    assert len(rows) == 2 * len(values) * drops
    assert all(row.converged for row in rows)
    assert len(runs) >= len(values) * drops
    assert all(run.converged for run in runs)


def test_low_pilot_sweep_takes_few_iterations(monkeypatch):
    # the benchmark's low-pilot workload at seed 1, whose power offset is
    # drawn as below: water-filling alone takes 749 iterations over its 4
    # allocator runs and stops 3 of them at the cap
    config = ScenarioConfig(M=16, K=12, rho_tr_dbm=-10, seed=0)
    offset = np.random.default_rng(1).uniform(-0.25, 0.25)
    runs = []

    def recording(*args, **kwargs):
        runs.append(ila_wf(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(runner, "ila_wf", recording)
    values = tuple(v + offset for v in (10.0, 20.0, 30.0, 40.0))
    run_sweep(SweepSpec(axis="power_dbm", values=values), config)
    assert len(runs) == 4
    assert all(run.converged for run in runs)
    assert sum(run.iterations for run in runs) <= 120


@pytest.mark.parametrize("mode", ["rs", "no_rs"])
def test_ila_wf_converges_far_from_uniform_split(mode):
    # at a 1000 m pathloss reference the uniform start is far from the
    # optimum: stopping on a small sweep-to-sweep SE change before the
    # budget-exact step has settled ends near 4.27 bit/s/Hz here
    config = ScenarioConfig(M=32, K=4, rho_total_dbm=20, pathloss_ref_m=1000, seed=0)
    report, alloc, _ = evaluate_drop(config, (mode,), derive_point_seed(0, 0))[mode]
    assert alloc.converged
    assert report.sum_se >= 5.03


def test_ila_wf_never_linearizes_the_same_point_twice(monkeypatch):
    # each iterate is linearized once: the stopping test, the water-filling
    # step and the Newton step from it read the same terms
    config = ScenarioConfig(M=32, K=4, rho_total_dbm=20, pathloss_ref_m=1000, seed=0)
    calls = []

    def recording(rho_hat, moments, sigma2, l_min):
        calls.append((rho_hat.rho_c, rho_hat.rho.tobytes(), l_min))
        return linearization_terms(rho_hat, moments, sigma2, l_min)

    monkeypatch.setattr(power, "linearization_terms", recording)
    _, alloc, _ = evaluate_drop(config, ("rs",), derive_point_seed(0, 0))["rs"]
    assert alloc.converged
    assert len(calls) == alloc.iterations + 1
    assert all(before != after for before, after in zip(calls, calls[1:]))


def test_ila_wf_evaluates_each_iterate_once(monkeypatch):
    # per iterate, the linearization evaluates the denominators once; each
    # Newton step tried adds two, for its Hessian and for its sum-SE rise;
    # the row's report alone comes on top
    config = ScenarioConfig(M=32, K=4, rho_total_dbm=20, pathloss_ref_m=1000, seed=0)
    denominator_calls, linearizations, newton_steps = [], [], []

    def counting_denominators(*args):
        denominator_calls.append(args)
        return stream_denominators(*args)

    def counting_linearization(*args):
        linearizations.append(args)
        return linearization_terms(*args)

    def counting_newton_step(*args):
        newton_steps.append(args)
        return newton_step(*args)

    newton_step = power._newton_step
    monkeypatch.setattr(link, "stream_denominators", counting_denominators)
    monkeypatch.setattr(power, "stream_denominators", counting_denominators)
    monkeypatch.setattr(power, "linearization_terms", counting_linearization)
    monkeypatch.setattr(power, "_newton_step", counting_newton_step)
    _, alloc, _ = evaluate_drop(config, ("rs",), derive_point_seed(0, 0))["rs"]
    assert alloc.converged
    assert newton_steps
    assert len(denominator_calls) == len(linearizations) + 2 * len(newton_steps) + 1
