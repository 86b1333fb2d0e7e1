import numpy as np
import pytest

from rssim.estimation import build_estimation_model
from rssim.moments import closed_form_moments
from rssim.power import linearization_terms
from rssim.precoding import build_common_weight_problem, solve_common_weights
from rssim.scenario import CovarianceSet, ScenarioConfig, generate_scenario


def make_scenario(M=16, K=3, seed=3, rho_total_dbm=20.0, **kwargs):
    """Scenario + estimation model + closed-form tables for one seed."""
    config = ScenarioConfig(M=M, K=K, seed=seed, rho_total_dbm=rho_total_dbm, **kwargs)
    rng = np.random.default_rng(seed)
    geometry, cov = generate_scenario(config, rng)
    model = build_estimation_model(cov, config.rho_tr_effective)
    return config, geometry, cov, model


def solve_weights_for(config, model):
    mr = closed_form_moments(model)
    problem = build_common_weight_problem(
        model, mr, np.full(config.K, config.rho_total_mw / config.K), config.noise_mw
    )
    return solve_common_weights(problem)[0]


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
    return CovarianceSet(R=R, beta=betas.copy())


@pytest.fixture(scope="session")
def small_setup():
    """One shared medium-size scenario for the cross-module checks."""
    config, geometry, cov, model = make_scenario()
    weights = solve_weights_for(config, model)
    return config, cov, model, weights
