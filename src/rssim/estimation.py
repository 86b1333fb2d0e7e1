"""Correlated Rayleigh channel sampling and shared-pilot MMSE estimation.

Every UE transmits the same pilot, so the BS sees one contaminated
observation per coherence block and all K estimates are linear functions
of it.  That makes the estimates mutually correlated: the cross-covariance
of estimates i and k is R_i Q^{-1} R_k, with Q the covariance of the
observation.  The model object keeps Q, its Cholesky factor, X_k = Q^{-1} R_k,
the estimate covariances Phi_k = R_k X_k and the trace tables that the
closed-form moment engine consumes, all in O(K M^2) memory and all built
at once; a pairwise cross-covariance is the product R_i X_k.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .linalg import sampling_factor, standard_complex_gaussian
from .scenario import CovarianceSet


@dataclass
class EstimationModel:
    """Deterministic second-order statistics of the shared-pilot estimator.

    ``rho_tr`` is the pilot power in units of the (unit-variance) pilot
    noise, so the observation covariance is Q = sum_k R_k + (1/rho_tr) I.
    """

    cov: CovarianceSet
    rho_tr: float
    Q: np.ndarray                  # (M, M)
    Q_factor: tuple                # scipy cho_factor of Q
    X: np.ndarray                  # (K, M, M), X_k = Q^{-1} R_k
    Phi: np.ndarray                # (K, M, M), Phi_k = R_k X_k
    cross_trace: np.ndarray        # (K, K) complex, [i, k] = tr(R_i X_k)
    phi_trace: np.ndarray          # (K,) real, tr(Phi_i)
    r_phi_trace: np.ndarray        # (K, K) real, [k, i] = tr(R_k Phi_i)

    @property
    def K(self) -> int:
        return self.cov.K

    @property
    def M(self) -> int:
        return self.cov.M

    def apply_q_inverse(self, b: np.ndarray) -> np.ndarray:
        """Q^{-1} b via triangular solves against the cached factor."""
        return scipy.linalg.cho_solve(self.Q_factor, b)


def _pair_traces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, k] = tr(A_i B_k) for stacks of square matrices, as one
    (K, M^2) x (M^2, K) product of the flattened A_i and B_k^T."""
    return A.reshape(A.shape[0], -1) @ B.transpose(0, 2, 1).reshape(B.shape[0], -1).T


@dataclass
class ChannelBatch:
    """A batch of channel realizations and their shared-pilot estimates.

    h = h_hat + h_tilde holds exactly per realization.  With a shared pilot
    there is a single observation per realization, so one pilot-noise
    vector of shape (n, M) is shared by all K estimates.
    """

    h: np.ndarray            # (n, K, M)
    h_hat: np.ndarray        # (n, K, M)
    h_tilde: np.ndarray      # (n, K, M)
    pilot_noise: np.ndarray  # (n, M)


def build_estimation_model(cov: CovarianceSet, rho_tr: float) -> EstimationModel:
    """Assemble Q, its factorization, X_k = Q^{-1} R_k, Phi_k and the trace tables."""
    if rho_tr <= 0:
        raise ValueError("rho_tr must be positive")
    K, M = cov.K, cov.M
    Q = cov.R.sum(axis=0) + np.eye(M) / rho_tr
    try:
        q_factor = scipy.linalg.cho_factor(Q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps Q PD
        raise NumericalError(f"observation covariance is not positive definite: {exc}") from exc
    X = scipy.linalg.cho_solve(q_factor, cov.R.transpose(1, 0, 2).reshape(M, K * M))
    X = X.reshape(M, K, M).transpose(1, 0, 2)
    Phi = cov.R @ X
    return EstimationModel(
        cov=cov,
        rho_tr=rho_tr,
        Q=Q,
        Q_factor=q_factor,
        X=X,
        Phi=Phi,
        cross_trace=_pair_traces(cov.R, X),
        phi_trace=np.real(np.einsum("imm->i", Phi)),
        r_phi_trace=np.real(_pair_traces(cov.R, Phi)),
    )


def sample_channels(cov: CovarianceSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n correlated Rayleigh realizations h_i ~ CN(0, R_i) per UE, as
    an (n, K, M) array."""
    if n < 1:
        raise ValueError("need at least one realization")
    K, M = cov.K, cov.M
    h = np.empty((n, K, M), dtype=complex)
    for k in range(K):
        h[:, k, :] = standard_complex_gaussian(rng, (n, M)) @ sampling_factor(cov.R[k]).T
    return h


def simulate_batch(model: EstimationModel, n: int, rng: np.random.Generator) -> ChannelBatch:
    """Sample truth channels from the model's covariances and their
    shared-pilot MMSE estimates.

    Per realization the BS observes y = sum_k h_k + n / sqrt(rho_tr), one
    noise vector shared by all UEs, and forms h_hat_i = R_i Q^{-1} y for
    every UE.  The truth channels are drawn first, then the noise.
    """
    h = sample_channels(model.cov, n, rng)
    noise = standard_complex_gaussian(rng, (n, model.M))
    scale = 1.0 / np.sqrt(model.rho_tr)
    z = model.apply_q_inverse((h.sum(axis=1) + scale * noise).T)  # (M, n)
    h_hat = np.empty_like(h)
    for i in range(model.K):
        h_hat[:, i, :] = (model.cov.R[i] @ z).T
    return ChannelBatch(h=h, h_hat=h_hat, h_tilde=h - h_hat, pilot_noise=noise)
