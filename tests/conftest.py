import numpy as np
import pytest
import scipy.linalg

from rssim.estimation import build_estimation_model
from rssim.linalg import SampleMean, batch_sizes, sampling_factor
from rssim.moments import closed_form_moments
from rssim.power import linearization_terms
from rssim.precoding import build_common_weight_problem, solve_common_weights
from rssim.scenario import CovarianceSet, ScenarioConfig, generate_scenario


def make_scenario(M=16, K=3, seed=3, rho_total_dbm=20.0, **kwargs):
    """Config, covariance set and estimation model for one seed."""
    config = ScenarioConfig(M=M, K=K, seed=seed, rho_total_dbm=rho_total_dbm, **kwargs)
    cov = generate_scenario(config, np.random.default_rng(seed))
    return config, cov, build_estimation_model(cov, config.rho_tr_effective)


def solve_weights_for(config, model):
    problem = build_common_weight_problem(model, closed_form_moments(model), config)
    return solve_common_weights(problem)[0]


def cross_covariance(model, i, k):
    """R_i Q^{-1} R_k, the cross-covariance of estimates i and k, as W_i^H W_k."""
    return model.W[i].conj().T @ model.W[k]


def stationarity_residuals(powers, mu, moments, sigma2):
    """First-order optimality residuals g - mu at a power point.

    g is the gradient gain - sigma2 of the sum of log-rates, which equals
    mu on every stream with power at a KKT point; returns the private
    residual vector and the common residual (None when rho_c = 0).
    """
    terms = linearization_terms(powers, moments, sigma2, None)
    res_common = float(terms.gain_common - terms.sigma2_common - mu) if powers.rho_c > 0 else None
    return terms.gain_private - terms.sigma2_private - mu, res_common


def diagonal_covariances(betas, M):
    """Covariance set of scaled identities (closed forms become scalar)."""
    betas = np.asarray(betas, dtype=float)
    R = np.stack([b * np.eye(M, dtype=complex) for b in betas])
    return CovarianceSet(R=R)


def unflushed_covariance(beta, cluster_angles, sigma_phi, M):
    """The local-scattering covariance with every lag kept, restated from the
    model rather than taken from ``scenario``: the column at lag l sums, over
    S equal-power clusters at angles theta, the phase exp(j pi l sin theta)
    times the damping exp(-(sigma_phi pi l cos theta)^2 / 2), scaled by
    beta / S, with the arithmetic in the order that gives the same bits;
    entry (m1, m2) is the column at m1 - m2, conjugated above the diagonal."""
    theta = np.atleast_1d(np.asarray(cluster_angles, dtype=float))
    pi_lag = np.arange(M)[:, None] * np.pi
    terms = np.exp(1j * pi_lag * np.sin(theta)[None, :]) * np.exp(
        -0.5 * sigma_phi**2 * (pi_lag * np.cos(theta)[None, :]) ** 2
    )
    column = (beta / theta.size) * terms.sum(axis=1)
    offset = np.arange(M)[:, None] - np.arange(M)[None, :]
    return np.where(offset >= 0, column[np.abs(offset)], column[np.abs(offset)].conj())


def subnormal_parts(a):
    """How many real or imaginary parts of ``a`` are nonzero and below the
    smallest normal float."""
    parts = np.stack([np.real(a), np.imag(a)])
    return int(np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)))


# Reference restatements of the Monte Carlo oracles in plain einsum
# arithmetic, with conjugated copies and no in-place writes.  They draw every
# normal straight from the generator, in the documented order and in draws of
# the documented sizes, so a changed draw, draw size or draw order shows as a
# mismatch.
REFERENCE_MC_BATCH = 20_000
REFERENCE_QUARTIC_BATCH = 50_000


def reference_gaussian(rng, shape):
    """CN(0, 1) entries as the complex expression: real parts, then imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def reference_batch(model, n, rng):
    """Truth channels h_k = z_k L_k^T, drawn UE by UE, then the shared pilot
    noise, and the estimates hhat_k = W_k^H L^{-1} y; returns (h, h_hat)."""
    h = np.stack(
        [reference_gaussian(rng, (n, model.M)) @ sampling_factor(r).T for r in model.cov.R], axis=1
    )
    y = h.sum(axis=1) + reference_gaussian(rng, (n, model.M)) / np.sqrt(model.rho_tr)
    white = scipy.linalg.solve_triangular(model.Q_factor, y.T, trans="C")
    return h, np.einsum("kml,mn->nkl", model.W.conj(), white, optimize=True)


def reference_mc_moment_table(model, n, rng, weights):
    """The four sample means of ``mc_moment_table`` (private h_k^H hhat_i and
    its squared magnitude, common h_k^H w_c and its squared magnitude) and the
    summed squared norms of the private and the common beams."""
    norm2 = (weights @ model.cross_trace @ weights).real
    hat, hat_sq, common, common_sq = (SampleMean() for _ in range(4))
    sum_norm, sum_c_norm = np.zeros(model.K), 0.0
    for m in batch_sizes(n, REFERENCE_MC_BATCH):
        h, h_hat = reference_batch(model, m, rng)
        inner_hat = np.einsum("nkm,nim->nki", h.conj(), h_hat, optimize=True)
        hat.add(inner_hat)
        hat_sq.add(np.abs(inner_hat) ** 2)
        sum_norm += (np.abs(h_hat) ** 2).sum(axis=(0, 2))
        w_c = np.einsum("i,nim->nm", weights, h_hat) / np.sqrt(norm2)
        inner_c = np.einsum("nkm,nm->nk", h.conj(), w_c, optimize=True)
        common.add(inner_c)
        common_sq.add(np.abs(inner_c) ** 2)
        sum_c_norm += (np.abs(w_c) ** 2).sum()
    return (hat, hat_sq, common, common_sq), sum_norm, sum_c_norm


def reference_mc_estimation_stats(model, n, rng):
    """Sample means of hhat_i hhat_k^H and of htilde_i htilde_i^H."""
    K, M = model.K, model.M
    cross = np.zeros((K, K, M, M), dtype=complex)
    err = np.zeros((K, M, M), dtype=complex)
    for m in batch_sizes(n, REFERENCE_MC_BATCH):
        h, h_hat = reference_batch(model, m, rng)
        cross += np.einsum("nim,nkl->ikml", h_hat, h_hat.conj(), optimize=True)
        h_tilde = h - h_hat
        err += np.einsum("nim,nil->iml", h_tilde, h_tilde.conj(), optimize=True)
    return {"cross": cross / n, "err": err / n}


def reference_outer_sums(a, b):
    """sum_n a_n b_n^H over the leading axis of (n, M) arrays, with the sums of
    the squared real and imaginary parts of its terms, from the stacked
    squares [a_r^2; a_i^2] and the mixed products a_r a_i."""
    a, b = a.T, b.T  # (M, n), (L, n)
    M, L = len(a), len(b)
    a_sq = np.concatenate([a.real**2, a.imag**2])
    b_sq = np.concatenate([b.real**2, b.imag**2])
    x = a_sq @ b_sq.T
    cross = 2.0 * ((a.real * a.imag) @ (b.real * b.imag).T)
    return (
        a @ b.conj().T,
        x[:M, :L] + x[M:, L:] + cross,
        x[M:, :L] + x[:M, L:] - cross,
    )


def reference_mc_c_quartic(B, n, rng):
    """Sample mean of c c^H B c c^H, with q = c^H B c formed from a
    conjugated copy of each draw."""
    estimate = SampleMean()
    for m in batch_sizes(n, REFERENCE_QUARTIC_BATCH):
        c = reference_gaussian(rng, (m, B.shape[0]))
        q = np.einsum("nm,mk,nk->n", c.conj(), B, c, optimize=True)
        estimate.add_sums(*reference_outer_sums(q[:, None] * c, c), m)
    return estimate


@pytest.fixture(scope="session")
def small_setup():
    """One shared medium-size scenario for the cross-module checks."""
    config, cov, model = make_scenario()
    weights = solve_weights_for(config, model)
    return config, cov, model, weights
