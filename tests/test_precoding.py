import logging

import numpy as np
import pytest
from scipy.optimize import linprog, milp

import rssim.precoding as precoding
from rssim.config import SweepSpec
from rssim.errors import InvalidWeightsError
from rssim.estimation import build_estimation_model, simulate_batch
from rssim.precoding import (
    CommonWeightProblem,
    build_common_weight_problem,
    common_precoder,
    solve_common_weights,
)
from rssim.moments import closed_form_moments
from rssim.runner import run_sweep
from rssim.scenario import ScenarioConfig
from rssim.validation import simplex_grid_max_min

from conftest import diagonal_covariances

SWEEP_POWERS_DBM = (0.0, 5.0, 10.0, 20.0, 30.0, 40.0)


def test_mr_expected_norm_is_one(small_setup):
    _, _, model, _ = small_setup
    batch = simulate_batch(model, 50_000, np.random.default_rng(2))
    w = batch.h_hat / np.sqrt(model.phi_trace)[None, :, None]
    norms = (np.abs(w) ** 2).sum(axis=2).mean(axis=0)
    assert np.all(np.abs(norms - 1.0) < 0.02)


def test_mr_perfect_csi_limit():
    beta, M = 1.4, 8
    cov = diagonal_covariances([beta], M)
    model = build_estimation_model(cov, 1e12)
    batch = simulate_batch(model, 100, np.random.default_rng(3))
    w = batch.h_hat / np.sqrt(model.phi_trace)[None, :, None]
    expected = batch.h[:, 0, :] / np.sqrt(M * beta)
    rel = np.linalg.norm(w[:, 0, :] - expected) / np.linalg.norm(expected)
    assert rel < 1e-4


def test_solve_weights_single_ue():
    problem = CommonWeightProblem(u=np.array([[2.5]]), pi=np.array([4.0]))
    weights, t_star = solve_common_weights(problem)
    assert np.array_equal(weights, [1.0])
    assert t_star == 2.0 * 2.5  # sqrt(pi) * tr(Phi), exactly


def test_solve_weights_symmetric_uniform():
    u = np.array([[1.0, 0.4], [0.4, 1.0]])
    problem = CommonWeightProblem(u=u, pi=np.array([1.0, 1.0]))
    weights, _ = solve_common_weights(problem)
    assert np.array_equal(weights, [0.5, 0.5])  # exact, by the tie-break


def test_solve_weights_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        u = np.abs(rng.normal(1.0, 0.5, size=(3, 3))) + 0.05
        pi = rng.uniform(0.5, 2.0, size=3)
        problem = CommonWeightProblem(u=u, pi=pi)
        _, t_star = solve_common_weights(problem)
        t_grid = simplex_grid_max_min(problem.constraint_matrix(), step=0.01)
        assert t_star >= t_grid - 1e-6 * abs(t_grid)  # grid can only undershoot
        assert abs(t_star - t_grid) <= 1e-2 * abs(t_star)


def assert_deterministic_epigraph_optimum(problem):
    K, v = problem.K, problem.constraint_matrix()
    weights, t = solve_common_weights(problem)
    assert np.all(weights >= 0.0), K
    assert abs(weights.sum() - 1.0) <= 1e-12, K
    assert t == np.min(weights @ v), K
    # the epigraph LP through linprog: variables [a, t], maximize t
    res = linprog(
        np.append(np.zeros(K), -1.0),
        A_ub=np.hstack([-v.T, np.ones((K, 1))]), b_ub=np.zeros(K),
        A_eq=np.append(np.ones(K), 0.0)[None, :], b_eq=[1.0],
        bounds=[(0.0, None)] * K + [(None, None)], method="highs",
    )
    assert res.success, K
    assert t >= -res.fun - 1e-9 * abs(res.fun), K
    again, _ = solve_common_weights(problem)
    assert np.array_equal(weights, again), K


def test_solve_weights_is_a_deterministic_epigraph_optimum(caplog):
    # drawn like test_solve_weights_matches_grid_oracle, K from 2 to 20
    rng = np.random.default_rng(11)
    with caplog.at_level(logging.DEBUG, logger="rssim.precoding"):
        for _ in range(500):
            K = int(rng.integers(2, 21))
            u = np.abs(rng.normal(1.0, 0.5, size=(K, K))) + 0.05
            pi = rng.uniform(0.5, 2.0, size=K)
            assert_deterministic_epigraph_optimum(CommonWeightProblem(u=u, pi=pi))
    assert not caplog.records


def test_solve_weights_logs_nothing_where_refinement_failed(caplog):
    # the K = 20 problem of seed 2, on which refining the vertex to the
    # lexicographically smallest optimum fails with an infeasible stage LP
    rng = np.random.default_rng(2)
    u = np.abs(rng.normal(1.0, 0.5, size=(20, 20))) + 0.05
    problem = CommonWeightProblem(u=u, pi=rng.uniform(0.5, 2.0, size=20))
    with caplog.at_level(logging.DEBUG, logger="rssim.precoding"):
        assert_deterministic_epigraph_optimum(problem)
    assert not caplog.records


def test_power_sweep_solves_one_weight_lp_per_rs_point(monkeypatch):
    # 6 rs points, one epigraph LP each; the uniform vector is optimal at none
    calls = []

    def counting_milp(*args, **kwargs):
        calls.append(args)
        return milp(*args, **kwargs)

    monkeypatch.setattr(precoding, "milp", counting_milp)
    spec = SweepSpec(axis="power_dbm", values=SWEEP_POWERS_DBM, drops=1)
    run_sweep(spec, ScenarioConfig(M=64, K=8, seed=0))
    assert len(calls) == len(SWEEP_POWERS_DBM)


def test_solve_weights_scale_invariant_direction():
    rng = np.random.default_rng(8)
    u = np.abs(rng.normal(1.0, 0.5, size=(3, 3))) + 0.05
    pi = rng.uniform(0.5, 2.0, size=3)
    a1, t1 = solve_common_weights(CommonWeightProblem(u=u, pi=pi))
    a2, t2 = solve_common_weights(CommonWeightProblem(u=7.0 * u, pi=pi))
    assert np.allclose(a1, a2, atol=1e-9)
    assert t2 == pytest.approx(7.0 * t1, rel=1e-9)


def test_solve_weights_min_is_attained():
    rng = np.random.default_rng(9)
    u = np.abs(rng.normal(1.0, 0.5, size=(4, 4))) + 0.05
    problem = CommonWeightProblem(u=u, pi=rng.uniform(0.5, 2.0, size=4))
    weights, t_star = solve_common_weights(problem)
    values = weights @ problem.constraint_matrix()
    assert np.min(values) == pytest.approx(t_star, rel=1e-9)
    assert np.min(values) <= np.max(values)  # at least one constraint is tight


def test_solve_weights_infeasible_direction():
    u = np.array([[1.0, -0.2], [0.5, -0.1]])  # UE 1 unreachable
    problem = CommonWeightProblem(u=u, pi=np.array([1.0, 1.0]))
    with pytest.raises(InvalidWeightsError):
        solve_common_weights(problem)


def test_solve_weights_deterministic():
    rng = np.random.default_rng(10)
    u = np.abs(rng.normal(1.0, 0.5, size=(5, 5))) + 0.05
    problem = CommonWeightProblem(u=u, pi=np.ones(5))
    a1, _ = solve_common_weights(problem)
    a2, _ = solve_common_weights(problem)
    assert np.array_equal(a1, a2)


def test_weight_problem_from_model(small_setup):
    config, _, model, _ = small_setup
    mr = closed_form_moments(model)
    problem = build_common_weight_problem(model, mr, config)
    assert problem.u.shape == (config.K, config.K)
    # the interference weights are taken at the uniform private split
    uniform = config.rho_total_mw / config.K * mr.G_private.sum(axis=1)
    assert np.allclose(problem.pi, 1.0 / (uniform + config.noise_mw), rtol=1e-12, atol=0)
    # u entries are the real parts of the estimate coupling traces
    assert np.allclose(problem.u, model.cross_trace.real)


def test_common_precoder_single_weight_collapses_to_mr(small_setup):
    _, cov, model, _ = small_setup
    batch = simulate_batch(model, 100, np.random.default_rng(11))
    w_mr = batch.h_hat[:, 0, :] / np.sqrt(model.phi_trace[0])
    w_c = common_precoder(np.eye(cov.K)[0], batch, model)
    assert np.allclose(w_c, w_mr, atol=1e-12)


def test_common_precoder_weight_scale_invariance(small_setup):
    _, _, model, weights = small_setup
    batch = simulate_batch(model, 64, np.random.default_rng(12))
    w1 = common_precoder(weights, batch, model)
    w2 = common_precoder(3.7 * weights, batch, model)
    assert np.allclose(w1, w2, atol=1e-12)


def test_common_precoder_expected_norm(small_setup):
    _, _, model, weights = small_setup
    batch = simulate_batch(model, 50_000, np.random.default_rng(13))
    w_c = common_precoder(weights, batch, model)
    norm = (np.abs(w_c) ** 2).sum(axis=1).mean()
    assert abs(norm - 1.0) < 0.02


def test_analytic_normalizer_matches_sample_second_moment(small_setup):
    _, _, model, weights = small_setup
    batch = simulate_batch(model, 50_000, np.random.default_rng(14))
    combo = np.einsum("i,nim->nm", weights, batch.h_hat)
    sample = (np.abs(combo) ** 2).sum(axis=1).mean()
    analytic = complex(weights @ model.cross_trace @ weights).real
    assert abs(sample - analytic) / analytic < 0.02
