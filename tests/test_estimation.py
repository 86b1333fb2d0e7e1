import tracemalloc

import numpy as np
import pytest

from rssim.estimation import (
    build_estimation_model,
    r_phi_traces,
    sample_channels,
    simulate_batch,
)
from rssim.linalg import SampleMean, batch_sizes, outer_sums, standard_complex_gaussian
from rssim.scenario import CovarianceSet, ScenarioConfig, generate_scenario
from rssim.validation import (
    MC_BATCH,
    colinearity_identity_error,
    explicit_cross_covariances,
    mc_estimation_stats,
    relative_frobenius,
    well_conditioned_covariances,
)

from conftest import cross_covariance, diagonal_covariances, make_scenario


def test_single_ue_diagonal_phi():
    beta, rho = 1.8, 4.0
    cov = diagonal_covariances([beta], 6)
    model = build_estimation_model(cov, rho)
    expected = beta**2 / (beta + 1.0 / rho)
    assert np.allclose(cross_covariance(model, 0, 0), expected * np.eye(6))


def test_two_symmetric_ues_share_cross_covariance():
    beta, rho = 0.9, 2.5
    cov = diagonal_covariances([beta, beta], 5)
    model = build_estimation_model(cov, rho)
    expected = beta**2 / (2 * beta + 1.0 / rho)
    assert np.allclose(cross_covariance(model, 0, 0), expected * np.eye(5))
    assert np.allclose(cross_covariance(model, 0, 1), cross_covariance(model, 0, 0))


def test_infinite_pilot_power_recovers_r():
    cov = well_conditioned_covariances(1, 12, np.random.default_rng(6))
    model = build_estimation_model(cov, 1e12)
    rel = relative_frobenius(cross_covariance(model, 0, 0), cov.R[0])
    assert rel < 1e-6


def observation_covariance(R, rho_tr):
    """Q = sum_k R_k + (1/rho_tr) I, formed explicitly."""
    return R.sum(axis=0) + np.eye(R.shape[1]) / rho_tr


def generic_covariances(K, M, rng):
    """Generic Hermitian covariances: the scenario's Toeplitz ones are
    centro-Hermitian, which hides transposition errors.  A A^H rounds to a
    matrix that is not always exactly Hermitian, so it is averaged with its
    conjugate transpose, which is, like every covariance the package builds."""
    A = rng.normal(size=(K, M, M)) + 1j * rng.normal(size=(K, M, M))
    R = A @ A.conj().transpose(0, 2, 1) / M
    return CovarianceSet(R=(R + R.conj().transpose(0, 2, 1)) / 2)


def test_model_invariants(small_setup):
    config, cov, model, _ = small_setup
    K, M = cov.K, cov.M
    Q = observation_covariance(cov.R, model.rho_tr)
    # the factor is upper triangular, with its other triangle zeroed
    U = model.Q_factor
    assert np.array_equal(U, np.triu(U))
    assert np.allclose(U.conj().T @ U, Q)
    for i in range(K):
        # estimation never adds energy
        assert model.phi_trace[i] <= np.trace(cov.R[i]).real * (1 + 1e-12)
        assert np.allclose(cross_covariance(model, i, i), cov.R[i] @ np.linalg.solve(Q, cov.R[i]))
        for k in range(K):
            assert np.allclose(cross_covariance(model, i, k), cross_covariance(model, k, i).conj().T)


def test_zero_covariance_gives_zero_channels():
    cov = CovarianceSet(R=np.zeros((1, 4, 4), dtype=complex))
    h = sample_channels(cov, 50, np.random.default_rng(0))
    assert np.all(h == 0)


def test_sampling_deterministic():
    _, cov, _ = make_scenario(M=8, K=2, seed=1)
    a = sample_channels(cov, 200, np.random.default_rng(7))
    b = sample_channels(cov, 200, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_shared_pilot_noise_single_observation():
    """All K estimates must come from the same contaminated observation:
    h_hat_i = R_i Q^{-1} y, with Q formed explicitly and the pilot noise
    recovered by replaying the stream, which draws it after the channels."""
    cov = generic_covariances(3, 12, np.random.default_rng(5))
    model = build_estimation_model(cov, 5.0)
    n = 64
    batch = simulate_batch(model, n, np.random.default_rng(6))
    replay = np.random.default_rng(6)
    assert np.array_equal(sample_channels(cov, n, replay), batch.h)
    noise = standard_complex_gaussian(replay, (n, cov.M))
    y = batch.h.sum(axis=1) + noise / np.sqrt(model.rho_tr)
    z = np.linalg.solve(observation_covariance(cov.R, model.rho_tr), y.T)
    for i in range(cov.K):
        expected = (cov.R[i] @ z).T
        assert relative_frobenius(batch.h_hat[:, i, :], expected) < 1e-12


def test_colinearity_identity_per_realization():
    cov = well_conditioned_covariances(3, 10, np.random.default_rng(8))
    model = build_estimation_model(cov, 40.0)
    worst = colinearity_identity_error(model, 500, np.random.default_rng(9))
    assert worst < 1e-10


def test_colinearity_identity_refuses_singular_covariances():
    # every R_k is rank one, so no UE's transfer R_i R_k^{-1} exists; the
    # check used to skip them all and return 0.0, which read as a pass
    a = np.random.default_rng(4).standard_normal((3, 10)) + 0j
    cov = CovarianceSet(R=np.einsum("km,kn->kmn", a, a))
    model = build_estimation_model(cov, 40.0)
    with pytest.raises(ValueError, match="^UE 0: cond"):
        colinearity_identity_error(model, 50, np.random.default_rng(9))


def test_near_noiseless_estimation_recovers_truth():
    cov = well_conditioned_covariances(1, 10, np.random.default_rng(12))
    model = build_estimation_model(cov, 1e12)
    batch = simulate_batch(model, 200, np.random.default_rng(13))
    rel = np.linalg.norm(batch.h - batch.h_hat) / np.linalg.norm(batch.h)
    assert rel < 1e-4


def test_empirical_estimate_statistics():
    """Cross-covariances, error covariance, and orthogonality of the
    estimator, all against their closed forms.

    The tolerances (2% Frobenius, 3 standard errors entrywise) are tied to
    the 1e5-sample budget, so the scenario draw is pinned to one whose UE
    pair is well coupled.
    """
    config, cov, model = make_scenario(M=8, K=2, seed=6)
    stats = mc_estimation_stats(model, 100_000, np.random.default_rng(20))
    reference = explicit_cross_covariances(cov, config.rho_tr_effective)
    for i in range(cov.K):
        for k in range(cov.K):
            assert relative_frobenius(stats["cross"][i, k], reference[i, k]) < 0.02
    for i in range(cov.K):
        assert relative_frobenius(stats["err"][i], cov.R[i] - reference[i, i]) < 0.02
    # estimate/error orthogonality E[hhat_i htilde_i^H] = 0, entrywise in
    # Monte Carlo standard errors, on the same draws replayed
    rng = np.random.default_rng(20)
    orth = SampleMean()
    for m in batch_sizes(100_000, MC_BATCH):
        batch = simulate_batch(model, m, rng)
        orth.add_sums(*outer_sums(batch.h_hat, batch.h - batch.h_hat), m)
    assert orth.z_scores().max() < 3.0


def test_estimation_stats_memory_bounded_per_draw():
    # one 20,000-sample draw at 16x3: h and h_hat hold 15 MiB each, and the
    # error is formed in place of h, for a traced peak near 44 MiB; per-sample
    # (n, K, M, M) estimate/error products would need about 530 MiB
    _, _, model = make_scenario(M=16, K=3)
    tracemalloc.start()
    try:
        mc_estimation_stats(model, 20_000, np.random.default_rng(21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20


def test_model_holds_one_whitened_stack_beyond_r():
    # the model keeps W next to R, with no Q, X, Phi or transposed copy: at
    # 200x20 it holds W and the factor of Q (1.05 K M^2 complex entries),
    # and the build peaks near 1.2 of them
    config = ScenarioConfig(M=200, K=20)
    cov = generate_scenario(config, np.random.default_rng(0))
    stack_bytes = cov.R.nbytes
    tracemalloc.start()
    try:
        model = build_estimation_model(cov, config.rho_tr_effective)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.W.shape == cov.R.shape
    assert held <= 1.2 * stack_bytes
    assert peak <= 1.5 * stack_bytes


def test_rho_tr_must_be_positive(small_setup):
    _, cov, _, _ = small_setup
    with pytest.raises(ValueError):
        build_estimation_model(cov, 0.0)


def test_cross_covariance_and_trace_tables_match_explicit_products():
    # M = 1 too: there the transposed R is already contiguous, and the build
    # once solved for W in place of the caller's covariances
    for K, M in ((3, 16), (3, 1)):
        cov = generic_covariances(K, M, np.random.default_rng(8))
        R = cov.R.copy()
        model = build_estimation_model(cov, 5.0)
        assert np.array_equal(cov.R, R)
        q_inv = np.linalg.inv(observation_covariance(R, 5.0))
        for i in range(K):
            for k in range(K):
                explicit = R[i] @ q_inv @ R[k]
                assert relative_frobenius(cross_covariance(model, i, k), explicit) < 1e-10
                assert model.cross_trace[i, k] == pytest.approx(np.trace(explicit), rel=1e-10)
                assert model.r_phi_trace[k, i] == pytest.approx(
                    np.trace(R[k] @ R[i] @ q_inv @ R[i]).real, rel=1e-10
                )


@pytest.mark.parametrize("M", [1, 2, 16])
def test_r_phi_traces_match_explicit_traces(M):
    # the kernel forms only the upper triangle of each Phi_j = W_j^H W_j and
    # relies on every R_k being Hermitian; checked on the private stack and
    # on a one-beam common stack W_w = sum_i w_i W_i, as the moments form it
    rng = np.random.default_rng(M)
    cov = generic_covariances(4, M, rng)
    model = build_estimation_model(cov, 5.0)
    weights = rng.uniform(0.0, 1.0, cov.K)
    common = np.einsum("i,imn->mn", weights, model.W.transpose(0, 2, 1)).T
    for W in (model.W, common[None]):
        traces = r_phi_traces(cov.R, W)
        assert traces.shape == (cov.K, len(W))
        for k in range(cov.K):
            for j in range(len(W)):
                explicit = np.trace(cov.R[k] @ W[j].conj().T @ W[j]).real
                assert traces[k, j] == pytest.approx(explicit, rel=1e-10)


def test_r_phi_traces_hold_one_m_by_m_array():
    # at 200x20 a conjugated copy of W_j or a second Phi_j would add 625 KiB
    # to the output table and the one upper triangle the kernel works in
    config = ScenarioConfig(M=200, K=20)
    cov = generate_scenario(config, np.random.default_rng(0))
    model = build_estimation_model(cov, config.rho_tr_effective)
    common = np.einsum("i,imn->mn", np.ones(cov.K), model.W.transpose(0, 2, 1)).T
    for W in (model.W, common[None]):
        tracemalloc.start()
        try:
            traces = r_phi_traces(cov.R, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= traces.nbytes + 16 * cov.M**2 + 16 * 2**10
