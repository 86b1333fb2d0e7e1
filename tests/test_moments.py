import tracemalloc

import numpy as np
import pytest

from rssim.errors import InvalidWeightsError, NumericalError
from rssim.estimation import build_estimation_model
from rssim.moments import (
    MomentTable,
    closed_form_moments,
    common_norm_squared,
    default_quartic_variant,
    mc_c_quartic,
    quartic_identity,
    select_quartic_variant,
)
from rssim.scenario import CovarianceSet, ScenarioConfig, generate_scenario
from rssim.validation import mc_moment_table, worst_moment_excess

from conftest import (
    REFERENCE_QUARTIC_BATCH,
    cross_covariance,
    diagonal_covariances,
    make_scenario,
    reference_mc_c_quartic,
)

MC_SAMPLES = 60_000


# Per-UE reference forms of the closed-form table entries, one UE (or UE
# pair) at a time; closed_form_moments builds the same entries as array
# expressions over the trace tables.

def mr_gain(k: int, model) -> float:
    """Squared mean effective channel of UE k under MR, equal to tr(Phi_k)."""
    return float(model.phi_trace[k])


def mr_cross_power(k: int, i: int, model) -> float:
    """Mean squared response of UE k to the MR beam of UE i."""
    denom = model.phi_trace[i]
    if denom <= 0:
        raise InvalidWeightsError(f"UE {i} has a degenerate estimate (tr(Phi) = 0)")
    num = model.r_phi_trace[k, i] + np.abs(model.cross_trace[i, k]) ** 2
    return float(num / denom)


def common_gain(k: int, weights, model) -> complex:
    """Mean effective channel of UE k under the weighted-estimate common
    precoder.  Real for the array covariances produced by the scenario
    generator; complex in general."""
    weights = np.asarray(weights, dtype=float)
    norm2 = common_norm_squared(weights, model)
    return complex(weights @ model.cross_trace[:, k]) / np.sqrt(norm2)


def common_second_moment(k: int, weights, model) -> float:
    """Mean squared response of UE k to the common precoder.

    The diagonal (same-estimate) terms use the MR-style identity; each
    off-diagonal pair i != j contributes
    E{h_k^H hhat_i hhat_j^H h_k} = tr(C_ik) tr(C_kj) + tr(R_i Q^{-1} R_j R_k),
    with the triple trace formed from explicit products.  The pair sum is
    real because swapping the pair conjugates the term.
    """
    weights = np.asarray(weights, dtype=float)
    norm2 = common_norm_squared(weights, model)
    ct = model.cross_trace
    R = model.cov.R
    t3 = np.array([[np.trace(cross_covariance(model, i, j) @ R[k]) for j in range(model.K)]
                   for i in range(model.K)])
    diag = float(
        np.sum(weights**2 * (model.r_phi_trace[k, :] + np.abs(ct[:, k]) ** 2))
    )
    outer = np.outer(weights, weights)
    np.fill_diagonal(outer, 0.0)
    pair_sum = complex(np.sum(outer * (np.outer(ct[:, k], ct[k, :]) + t3)))
    total = pair_sum.real + diag
    return total / norm2


def test_mr_gain_diagonal_closed_form():
    beta, rho, M, K = 1.3, 5.0, 6, 3
    cov = diagonal_covariances([beta] * K, M)
    model = build_estimation_model(cov, rho)
    expected = M * beta**2 / (K * beta + 1.0 / rho)
    for k in range(K):
        assert mr_gain(k, model) == pytest.approx(expected)


def test_mr_gain_perfect_csi_limit():
    cov = diagonal_covariances([1.4], 10)
    model = build_estimation_model(cov, 1e12)
    assert mr_gain(0, model) == pytest.approx(10 * 1.4, rel=1e-6)


def test_mr_cross_power_identity_example():
    # M=2, K=2, R=I, pilot power 1: (2/3 + (2/3)^2) / (2/3) = 5/3
    cov = diagonal_covariances([1.0, 1.0], 2)
    model = build_estimation_model(cov, 1.0)
    assert mr_cross_power(0, 1, model) == pytest.approx(5.0 / 3.0)


def test_mr_cross_power_zero_channel():
    R = np.stack([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)])
    cov = CovarianceSet(R=R)
    model = build_estimation_model(cov, 2.0)
    assert mr_cross_power(0, 1, model) == pytest.approx(0.0)


def test_mr_cross_power_degenerate_ue_rejected():
    R = np.stack([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)])
    cov = CovarianceSet(R=R)
    model = build_estimation_model(cov, 2.0)
    with pytest.raises(InvalidWeightsError):
        mr_cross_power(1, 0, model)


def test_quartic_identity_unit_case():
    eye = np.eye(2, dtype=complex)
    assert np.allclose(quartic_identity(eye, "real"), 4.0 * eye)
    assert np.allclose(quartic_identity(eye, "circular"), 3.0 * eye)


def test_quartic_variant_vote_is_unambiguous():
    result = select_quartic_variant(n_pairs=3, m_values=(2, 4), n_samples=100_000, seed=42)
    assert result.unique
    assert result.winner == "circular"
    # the rejected variant must deviate by far more than Monte Carlo noise
    assert result.max_z["real"] > 10 * result.max_z["circular"]


@pytest.mark.parametrize("M", [1, 4, 16, 32])
def test_mc_c_quartic_matches_the_einsum_reference_on_the_same_draws(M):
    # one full draw and a partial one, so the draw size is pinned too
    B = np.random.default_rng(M).standard_normal((M, M, 2)) @ np.array([1.0, 1j])
    n = REFERENCE_QUARTIC_BATCH + 1000
    got = mc_c_quartic(B, n, np.random.default_rng(14))
    want = reference_mc_c_quartic(B, n, np.random.default_rng(14))
    assert got.n == want.n == n
    for g, w in [(got.mean, want.mean), *zip(got.part_se, want.part_se)]:
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_mc_c_quartic_standard_errors_shrink():
    B = np.array([[1.0, 0.2], [0.1j, 2.0]])
    se1 = mc_c_quartic(B, 20_000, np.random.default_rng(0)).part_se[0]
    se2 = mc_c_quartic(B, 40_000, np.random.default_rng(0)).part_se[0]
    ratio = se1.mean() / se2.mean()
    assert 1.2 < ratio < 1.7  # CLT: doubling realizations shrinks SE by ~sqrt(2)


def test_default_variant_is_cached_and_valid():
    assert default_quartic_variant() == "circular"
    assert default_quartic_variant() is default_quartic_variant()


def test_common_gain_single_ue_collapse(small_setup):
    _, _, model, _ = small_setup
    value = common_gain(0, np.eye(model.K)[0], model)
    assert value == pytest.approx(np.sqrt(model.phi_trace[0]), rel=1e-12)


def test_common_gain_symmetric_ues():
    cov = diagonal_covariances([0.8, 0.8], 4)
    model = build_estimation_model(cov, 3.0)
    a = np.array([0.5, 0.5])
    assert common_gain(0, a, model) == pytest.approx(common_gain(1, a, model))


def test_common_second_moment_single_ue_equals_mr(small_setup):
    _, _, model, _ = small_setup
    got = common_second_moment(0, np.eye(model.K)[0], model)
    assert got == pytest.approx(mr_cross_power(0, 0, model), rel=1e-10)


def test_common_second_moment_dominates_squared_gain(small_setup):
    _, _, model, weights = small_setup
    for k in range(model.K):
        second = common_second_moment(k, weights, model)
        assert second >= abs(common_gain(k, weights, model)) ** 2 - 1e-15


def test_invalid_weights_rejected(small_setup):
    _, _, model, _ = small_setup
    with pytest.raises(InvalidWeightsError):
        common_gain(0, np.zeros(model.K), model)


def test_closed_form_vs_monte_carlo_table(small_setup):
    config, cov, model, weights = small_setup
    closed = closed_form_moments(model, weights)
    mc, info = mc_moment_table(model, MC_SAMPLES, np.random.default_rng(30), weights)
    assert worst_moment_excess(closed, mc, info["se"]) <= 1.0


def test_moment_table_variance_invariant_enforced():
    table = MomentTable(
        g_private=np.array([2.0 + 0j]),
        G_private=np.array([[1.0]]),  # below |g|^2: inconsistent
        g_common=np.zeros(1, dtype=complex),
        G_common=np.zeros(1),
    )
    with pytest.raises(NumericalError):
        table.validate()


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        quartic_identity(np.eye(2), "bogus")


def _random_weights(K, seed):
    """Positive random weights with zeros at every third UE (never all zero)."""
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, K)
    weights[1::3] = 0.0
    return weights


@pytest.mark.parametrize("K", [3, 10], ids=lambda K: f"circular-{K}")
def test_array_table_matches_per_ue_functions(K):
    """The array expressions of closed_form_moments agree with the per-UE
    reference functions for every k (and every k, i for the MR table)."""
    _, _, model = make_scenario(M=12, K=K, seed=20 + K, rho_tr_dbm=-5.0)
    weights = _random_weights(K, K)
    table = closed_form_moments(model, weights)
    for k in range(K):
        for i in range(K):
            assert table.G_private[k, i] == pytest.approx(mr_cross_power(k, i, model), rel=1e-12)
        assert table.g_common[k] == pytest.approx(common_gain(k, weights, model), rel=1e-12)
        assert table.G_common[k] == pytest.approx(
            common_second_moment(k, weights, model), rel=1e-12
        )


def test_array_table_rejects_degenerate_ue():
    R = np.stack([np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)])
    model = build_estimation_model(CovarianceSet(R=R), 2.0)
    with pytest.raises(InvalidWeightsError, match="UE 0"):
        closed_form_moments(model)


def test_closed_form_memory_scales_with_k_m_squared():
    """Model plus common table stay O(K M^2): below 8 K M^2 complex128
    (about 28 MiB at 96x24, against 85 MiB for one (K, K, M, M) tensor)."""
    M, K = 96, 24
    config = ScenarioConfig(M=M, K=K, seed=5)
    cov = generate_scenario(config, np.random.default_rng(5))
    weights = _random_weights(K, 5)
    tracemalloc.start()
    try:
        model = build_estimation_model(cov, config.rho_tr_effective)
        closed_form_moments(model, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * K * M**2 * 16
