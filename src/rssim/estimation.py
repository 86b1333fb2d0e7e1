"""Correlated Rayleigh channel sampling and shared-pilot MMSE estimation.

Every UE transmits the same pilot, so the BS sees one contaminated
observation per coherence block and all K estimates are linear functions
of it.  That makes the estimates mutually correlated: the cross-covariance
of estimates i and k is R_i Q^{-1} R_k, with Q = L L^H the covariance of
the observation.  The model object keeps Q, its Cholesky factor, the
whitened covariances W_k = L^{-1} R_k and the trace tables that the
closed-form moment engine consumes, all in O(K M^2) memory and all built
from one triangular solve; a pairwise cross-covariance is W_i^H W_k.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm

from .errors import NumericalError
from .linalg import sampling_factor, standard_complex_gaussian
from .scenario import PHI_BLOCK_BYTES, CovarianceSet


@dataclass
class EstimationModel:
    """Deterministic second-order statistics of the shared-pilot estimator.

    ``rho_tr`` is the pilot power in units of the (unit-variance) pilot
    noise, so the observation covariance is Q = sum_k R_k + (1/rho_tr) I.
    With Q = L L^H, the cross-covariance of estimates i and k is
    R_i Q^{-1} R_k = W_i^H W_k, and Phi_i = W_i^H W_i is the covariance of
    estimate i.  The model holds Q, its factor, W and the trace tables;
    no Phi_i or cross-covariance is kept.
    """

    cov: CovarianceSet
    rho_tr: float
    Q: np.ndarray                  # (M, M)
    Q_factor: tuple                # scipy cho_factor of Q: U with Q = U^H U, so L = U^H
    W: np.ndarray                  # (K, M, M), W_k = L^{-1} R_k, each stored column-major
    cross_trace: np.ndarray        # (K, K) complex, [i, k] = tr(W_i^H W_k) = tr(R_i Q^{-1} R_k)
    phi_trace: np.ndarray          # (K,) real, tr(Phi_i) = ||W_i||_F^2
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

    def cross_covariance(self, i: int, k: int) -> np.ndarray:
        """R_i Q^{-1} R_k, the cross-covariance of estimates i and k, as W_i^H W_k."""
        return self.W[i].conj().T @ self.W[k]


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
    """Assemble Q, its factorization, W_k = L^{-1} R_k and the trace tables."""
    if rho_tr <= 0:
        raise ValueError("rho_tr must be positive")
    K, M = cov.K, cov.M
    Q = cov.R.sum(axis=0) + np.eye(M) / rho_tr
    try:
        q_factor = scipy.linalg.cho_factor(Q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps Q PD
        raise NumericalError(f"observation covariance is not positive definite: {exc}") from exc
    # LAPACK solves the columns of a column-major right-hand side in place.
    # The row-major stack of the R_k^T lays out the columns of every R_k that
    # way, so U^H W_k = R_k is solved for all k in one call, in that one copy
    # of R, and W_t[k] = W_k^T is left row-major.
    W_t = np.ascontiguousarray(cov.R.transpose(0, 2, 1))
    W_t = scipy.linalg.solve_triangular(
        q_factor[0], W_t.reshape(K * M, M).T, trans="C", lower=q_factor[1], overwrite_b=True
    ).T.reshape(K, M, M)
    flat = W_t.reshape(K, M * M)
    # one (K, M^2) Gram product; zgemm conjugates in place of a conj() copy
    cross_trace = zgemm(1.0, flat.T, flat.T, trans_a=2)
    # [k, i] = sum_{m, n} R_k[m, n] Phi_i[n, m], with Phi_i^T = W_i^T conj(W_i)
    # formed for a block of UEs at a time and dropped
    R_flat = cov.R.reshape(K, M * M)
    r_phi_trace = np.empty((K, K))
    step = max(1, PHI_BLOCK_BYTES // (16 * M * M))
    for start in range(0, K, step):
        block = W_t[start:start + step]
        phi_t = block @ block.conj().transpose(0, 2, 1)
        r_phi_trace[:, start:start + step] = np.real(R_flat @ phi_t.reshape(len(block), -1).T)
    return EstimationModel(
        cov=cov,
        rho_tr=rho_tr,
        Q=Q,
        Q_factor=q_factor,
        W=W_t.transpose(0, 2, 1),
        cross_trace=cross_trace,
        phi_trace=np.real(np.diagonal(cross_trace)).copy(),
        r_phi_trace=r_phi_trace,
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
