"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one `[criterion N] ... PASS|FAIL` line (run with -s to
see them live).  Criteria 6b and 6c encode directional claims about the
rate-split gain that the validated closed-form model does not reproduce at
desk scale (the optimized allocation keeps the common stream off, making
both transmission modes coincide); they are asserted faithfully and are
expected to fail.  ``test_post_sic_leakage_keeps_the_common_stream_off``
records why: at every 40 dBm optimum the private rate lost to the common
stream's post-SIC residual outweighs what opening the stream would gain.
"""

import time

import numpy as np
import pytest

from rssim.config import SweepSpec
from rssim.estimation import build_estimation_model
from rssim.link import PowerVector, se_report
from rssim.moments import closed_form_moments, select_quartic_variant
from rssim.power import ila_wf, linearization_terms
from rssim.precoding import (
    CommonWeightProblem,
    build_common_weight_problem,
    solve_common_weights,
)
from rssim.runner import allocate_drop, build_drop, derive_point_seed, render_csv, run_sweep
from rssim.scenario import ScenarioConfig, generate_scenario
from rssim.validation import (
    colinearity_identity_error,
    explicit_cross_covariances,
    mc_estimation_stats,
    mc_moment_table,
    relative_frobenius,
    simplex_grid_max_min,
    sum_se_derivative_fd_errors,
    well_conditioned_covariances,
    worst_moment_excess,
)

from conftest import stationarity_residuals


def announce(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {name}: {status} -- {detail}")
    return passed


def build_tables(config, seed, with_weights=True):
    rng = np.random.default_rng(seed)
    cov = generate_scenario(config, rng)
    model = build_estimation_model(cov, config.rho_tr_effective)
    weights = None
    if with_weights:
        problem = build_common_weight_problem(model, closed_form_moments(model), config)
        weights, _ = solve_common_weights(problem)
    table = closed_form_moments(model, weights)
    return cov, model, weights, table


def test_criterion_1_closed_form_moment_oracle():
    """Every moment-table entry from the closed forms matches Monte Carlo
    over 1e5 realizations within max(2% relative, 4 standard errors), on
    20 seeded scenarios spanning M in {8,16,32}, K in {2,3,4}."""
    t0 = time.time()
    sizes = [(M, K) for M in (8, 16, 32) for K in (2, 3, 4)]
    worst = 0.0
    for case in range(20):
        M, K = sizes[case % len(sizes)]
        config = ScenarioConfig(M=M, K=K, seed=8100 + case)
        _, model, weights, closed = build_tables(config, 8100 + case)
        mc, info = mc_moment_table(
            model, 100_000, np.random.default_rng(9100 + case), weights
        )
        worst = max(worst, worst_moment_excess(closed, mc, info["se"]))
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 300
    assert announce(
        1, "closed-form moment oracle",
        ok, f"worst |closed-mc|/tolerance = {worst:.3f} over 20 scenarios in {elapsed:.0f}s",
    )


def test_criterion_2_estimate_correlation_identities():
    """Colinearity identity to 1e-10 per realization on well-conditioned
    covariances; empirical estimate cross-covariance and error covariance
    within 2% Frobenius at 1e5 samples."""
    worst_ident = 0.0
    for seed in (1, 2, 3):
        cov = well_conditioned_covariances(3, 12, np.random.default_rng(seed))
        model = build_estimation_model(cov, 60.0)
        worst_ident = max(
            worst_ident,
            colinearity_identity_error(model, 2000, np.random.default_rng(seed + 50)),
        )
    config = ScenarioConfig(M=8, K=2, seed=6)
    cov = generate_scenario(config, np.random.default_rng(6))
    model = build_estimation_model(cov, config.rho_tr_effective)
    stats = mc_estimation_stats(model, 100_000, np.random.default_rng(20))
    reference = explicit_cross_covariances(cov, config.rho_tr_effective)
    worst_cross = max(
        relative_frobenius(stats["cross"][i, k], reference[i, k])
        for i in range(2) for k in range(2)
    )
    worst_err = max(
        relative_frobenius(stats["err"][i], cov.R[i] - reference[i, i])
        for i in range(2)
    )
    ok = worst_ident <= 1e-10 and worst_cross <= 0.02 and worst_err <= 0.02
    assert announce(
        2, "estimate-correlation identities", ok,
        f"identity {worst_ident:.2e} (<=1e-10), cross-cov {worst_cross:.4f} (<=0.02), "
        f"error-cov {worst_err:.4f} (<=0.02)",
    )


def test_criterion_3_weight_lp_vs_grid_oracle():
    """50 random K=3 weight programs: the LP optimum within 1e-2 relative
    of the exhaustive simplex grid at step 0.01; symmetric programs return
    exactly uniform weights."""
    rng = np.random.default_rng(11)
    worst = 0.0
    undershoot = False
    for _ in range(50):
        u = np.abs(rng.normal(1.0, 0.5, size=(3, 3))) + 0.05
        pi = rng.uniform(0.5, 2.0, size=3)
        problem = CommonWeightProblem(u=u, pi=pi)
        _, t_star = solve_common_weights(problem)
        t_grid = simplex_grid_max_min(problem.constraint_matrix(), step=0.01)
        undershoot = undershoot or t_star < t_grid - 1e-6 * abs(t_grid)
        worst = max(worst, abs(t_star - t_grid) / abs(t_star))
    sym = CommonWeightProblem(
        u=np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]]),
        pi=np.ones(3),
    )
    weights, _ = solve_common_weights(sym)
    uniform_exact = np.array_equal(weights, np.full(3, 1.0 / 3.0))
    ok = worst <= 1e-2 and not undershoot and uniform_exact
    assert announce(
        3, "max-min weight LP vs grid oracle", ok,
        f"worst relative gap {worst:.4f} (<=0.01), symmetric exactly uniform: {uniform_exact}",
    )


def test_criterion_4_quartic_moment_adjudication():
    """Monte Carlo over 1e6 draws for 5 random (Phi, B) pairs at
    M in {2,4,8} identifies exactly one fourth-moment variant within 3
    standard errors on every entry; the loser's deviation is reported."""
    t0 = time.time()
    result = select_quartic_variant(
        n_pairs=5, m_values=(2, 4, 8), n_samples=1_000_000, seed=2024
    )
    loser = [v for v in result.max_z if v != result.winner][0]
    ok = result.unique and result.winner is not None
    assert announce(
        4, "quartic-moment adjudication", ok,
        f"matched variant: {result.winner} (max |dev|/SE {result.max_z[result.winner]:.2f}); "
        f"rejected: {loser} (max |dev|/SE {result.max_z[loser]:.0f}, "
        f"max |dev| {result.max_abs_dev[loser]:.3e}); {time.time()-t0:.0f}s",
    )
    assert result.winner == "circular"


def test_criterion_5_ila_wf_contracts():
    """100 seeded scenarios at M=64, K=5, 20 dBm: budget-feasible to
    1e-6 rho_T, stationarity residuals <= 1e-4 mu for positive powers,
    sum SE >= initialization in >= 95 cases, the sum-SE gradient the
    linearization gives matches finite differences within 1e-5 on every
    entry, the common power's included."""
    t0 = time.time()
    config = ScenarioConfig(M=64, K=5, rho_total_dbm=20)
    rho_total = config.rho_total_mw
    sigma2 = config.noise_mw
    feasible = stationary = ascent = fd_ok = 0
    worst_res, worst_fd = 0.0, 0.0
    for case in range(100):
        _, model, weights, table = build_tables(config, 8200 + case)
        alloc = ila_wf(table, config)
        feasible += alloc.powers.total <= rho_total * (1 + 1e-6)
        res_p, res_c = stationarity_residuals(alloc.powers, alloc.mu, table, sigma2)
        active = alloc.powers.rho > 0
        res = np.abs(res_p[active]).max() / alloc.mu if active.any() else 0.0
        if res_c is not None:
            res = max(res, abs(res_c) / alloc.mu)
        worst_res = max(worst_res, res)
        stationary += res <= 1e-4
        init = PowerVector(0.0, np.full(config.K, rho_total / config.K))
        report = se_report(alloc.powers, table, config)
        ascent += report.sum_se >= se_report(init, table, config).sum_se
        fd, _ = sum_se_derivative_fd_errors(
            alloc.powers, table, sigma2, rho_total, report.l_min
        )
        worst_fd = max(worst_fd, fd)
        fd_ok += fd <= 1e-5
    elapsed = time.time() - t0
    ok = feasible == 100 and stationary == 100 and ascent >= 95 and fd_ok == 100
    assert announce(
        5, "ILA-WF contracts", ok,
        f"feasible {feasible}/100, stationary {stationary}/100 (worst {worst_res:.2e}), "
        f"ascent {ascent}/100 (need >=95), finite-diff {fd_ok}/100 (worst {worst_fd:.2e}); "
        f"{elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def power_sweep():
    config = ScenarioConfig(M=64, K=8, seed=0)
    spec = SweepSpec(
        axis="power_dbm", values=(0.0, 5.0, 10.0, 20.0, 30.0, 40.0), drops=10
    )
    t0 = time.time()
    rows = run_sweep(spec, config)
    elapsed = time.time() - t0
    table = {}
    for row in rows:
        table.setdefault((row.axis_value, row.mode), {})[row.drop] = row.sum_se
    return spec, table, elapsed


def medians(table, value, drops=10):
    rs = np.median([table[(value, "rs")][d] for d in range(drops)])
    no = np.median([table[(value, "no_rs")][d] for d in range(drops)])
    gap = np.median([
        table[(value, "rs")][d] - table[(value, "no_rs")][d] for d in range(drops)
    ])
    return rs, no, gap


def test_criterion_6a_rs_dominates_above_10dbm(power_sweep):
    spec, table, elapsed = power_sweep
    points = [v for v in spec.values if v >= 10.0]
    results = {v: medians(table, v) for v in points}
    ok = all(rs >= no for rs, no, _ in results.values()) and elapsed < 900
    detail = ", ".join(
        f"{v:g}dBm: RS {rs:.3f} vs {no:.3f}" for v, (rs, no, _) in results.items()
    )
    assert announce(6, f"power-sweep medians, RS >= no-RS at every point >= 10 dBm ({elapsed:.0f}s)", ok, detail)


def test_criterion_6b_gap_grows_with_power(power_sweep):
    _, table, _ = power_sweep
    _, _, gap10 = medians(table, 10.0)
    _, _, gap40 = medians(table, 40.0)
    ok = gap40 > gap10
    assert announce(
        6, "power-sweep gap growth, median gap(40 dBm) > gap(10 dBm)", ok,
        f"gap(40)={gap40:.4f}, gap(10)={gap10:.4f} "
        "(the validated model keeps the common stream off at this scale)",
    )


def test_criterion_6c_no_rs_saturation_signature(power_sweep):
    _, table, _ = power_sweep
    inc_rs = np.median([
        table[(40.0, "rs")][d] - table[(30.0, "rs")][d] for d in range(10)
    ])
    inc_no = np.median([
        table[(40.0, "no_rs")][d] - table[(30.0, "no_rs")][d] for d in range(10)
    ])
    ok = inc_no <= 0.25 * inc_rs
    assert announce(
        6, "power-sweep saturation, no-RS increase 30->40 <= 25% of RS increase", ok,
        f"no-RS increase {inc_no:.4f}, RS increase {inc_rs:.4f} "
        "(identical allocations at this scale)",
    )


def test_post_sic_leakage_keeps_the_common_stream_off():
    """Why 6b/6c fail: on every drop of the power-sweep fixture at 40 dBm the
    common stream stays shut, and at the no-RS optimum its first-order
    certificate c = d/d rho_c - mu is negative.  Without the private rate
    that the common stream's post-SIC residual rho_c * delta_c takes,
    L = sum_i delta_c,i (1/den_i - 1/num_i), the certificate would be
    positive: the mean-gain cancellation of the receiver model, not the
    common stream's own gain, keeps it off."""
    config = ScenarioConfig(M=64, K=8, rho_total_dbm=40.0, seed=0)
    sigma2 = config.noise_mw
    ratios = []
    for drop in range(10):
        seed = derive_point_seed(config.seed, drop)
        model, mr_table = build_drop(config, seed)
        results = allocate_drop(config, ("rs", "no_rs"), (model, mr_table))
        _, alloc, weights = results["rs"]
        optimum = results["no_rs"][1]
        assert alloc.powers.rho_c == 0.0 and optimum.converged and optimum.mu > 0
        table = closed_form_moments(model, weights)
        terms = linearization_terms(optimum.powers, table, sigma2, None)
        c = terms.gain_common - terms.sigma2_common - optimum.mu
        rho = optimum.powers.rho
        signal = rho * np.abs(table.g_private) ** 2
        den = table.G_private @ rho - signal + sigma2  # rho_c = 0: no residual yet
        delta_c = table.G_common - np.abs(table.g_common) ** 2
        leakage = float(delta_c @ (1.0 / den - 1.0 / (den + signal)))
        assert c < 0 < c + leakage, (drop, c, leakage)
        ratios.append(leakage / optimum.mu)
    announce(
        6, "post-SIC leakage keeps the common stream off at 40 dBm", True,
        f"c < 0 < c + L on 10/10 drops, median L/mu {np.median(ratios):.0f}",
    )


def test_criterion_7_gain_shrinks_with_users():
    config = ScenarioConfig(M=64, K=8, rho_total_dbm=20, seed=0)
    spec = SweepSpec(axis="users", values=(2.0, 5.0, 10.0, 15.0), drops=10)
    rows = run_sweep(spec, config)
    table = {}
    for row in rows:
        table.setdefault((row.axis_value, row.mode), {})[row.drop] = row.sum_se
    gap2 = np.median([
        table[(2.0, "rs")][d] - table[(2.0, "no_rs")][d] for d in range(10)
    ])
    gap15 = np.median([
        table[(15.0, "rs")][d] - table[(15.0, "no_rs")][d] for d in range(10)
    ])
    ok = gap15 <= gap2
    assert announce(
        7, "user-sweep direction, median gap at K=15 <= gap at K=2", ok,
        f"gap(K=2)={gap2:.4f}, gap(K=15)={gap15:.4f}",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    config = ScenarioConfig(M=16, K=3, seed=77)
    spec = SweepSpec(axis="power_dbm", values=(0.0, 20.0, 40.0), drops=2)
    first = render_csv(run_sweep(spec, config, output_path=str(tmp_path / "a.csv")))
    second = render_csv(run_sweep(spec, config, output_path=str(tmp_path / "b.csv")))
    byte_equal = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ok = first == second and byte_equal
    assert announce(
        8, "byte-identical repeated sweep", ok,
        f"{len(first.splitlines()) - 1} rows compared byte-for-byte",
    )
