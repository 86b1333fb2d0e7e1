import numpy as np
import pytest

from rssim.estimation import build_estimation_model
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


@pytest.fixture(scope="session")
def small_setup():
    """One shared medium-size scenario for the cross-module checks."""
    config, cov, model = make_scenario()
    weights = solve_weights_for(config, model)
    return config, cov, model, weights
