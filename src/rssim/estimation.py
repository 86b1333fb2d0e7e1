"""Correlated Rayleigh channel sampling and shared-pilot MMSE estimation.

Every UE transmits the same pilot, so the BS sees one contaminated
observation per coherence block and all K estimates are linear functions
of it.  That makes the estimates mutually correlated: the cross-covariance
of estimates i and k is R_i Q^{-1} R_k, with Q the covariance of the
observation.  The model object keeps Q, its Cholesky factor, X_k = Q^{-1} R_k,
the estimate covariances Phi_k = R_k X_k and the trace tables that the
closed-form moment engine consumes, all in O(K M^2) memory; the pairwise
cross-covariances R_i X_k are built only on demand.
"""

from dataclasses import dataclass, field

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
    _cross: np.ndarray | None = field(default=None, repr=False)
    _triple_trace: np.ndarray | None = field(default=None, repr=False)

    @property
    def K(self) -> int:
        return self.cov.K

    @property
    def M(self) -> int:
        return self.cov.M

    def apply_q_inverse(self, b: np.ndarray) -> np.ndarray:
        """Q^{-1} b via triangular solves against the cached factor."""
        return scipy.linalg.cho_solve(self.Q_factor, b)

    @property
    def cross(self) -> np.ndarray:
        """(K, K, M, M) tensor [i, k] = R_i Q^{-1} R_k, built lazily for the oracles."""
        if self._cross is None:
            self._cross = self.cov.R[:, None] @ self.X[None, :]
        return self._cross

    @property
    def triple_trace(self) -> np.ndarray:
        """(K, K, K) table [i, j, k] = tr(R_i Q^{-1} R_j R_k).

        Needed only by the per-pair moments; built lazily and cached, one j
        at a time as tr(R_i X_j R_k) = <(R_i X_j)^T, R_k>, in O(K M^2) memory.
        """
        if self._triple_trace is None:
            R = self.cov.R
            self._triple_trace = np.stack(
                [_pair_traces(R @ self.X[j], R) for j in range(self.K)], axis=1
            )
        return self._triple_trace


def _pair_traces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, k] = tr(A_i B_k) for stacks of square matrices, as one
    (K, M^2) x (M^2, K) product of the flattened A_i and B_k^T."""
    return A.reshape(A.shape[0], -1) @ B.transpose(0, 2, 1).reshape(B.shape[0], -1).T


@dataclass
class ChannelBatch:
    """A batch of channel realizations and (optionally) their estimates.

    h = h_hat + h_tilde holds exactly per realization once estimates are
    filled in.  With a shared pilot there is a single observation per
    realization, so one pilot-noise vector of shape (n, M) is shared by all
    K estimates.
    """

    n_samples: int
    h: np.ndarray                     # (n, K, M)
    h_hat: np.ndarray | None = None   # (n, K, M)
    h_tilde: np.ndarray | None = None
    pilot_noise: np.ndarray | None = None  # (n, M)


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


def sample_channels(cov: CovarianceSet, n: int, rng: np.random.Generator) -> ChannelBatch:
    """Draw n correlated Rayleigh realizations h_i ~ CN(0, R_i) per UE."""
    if n < 1:
        raise ValueError("need at least one realization")
    K, M = cov.K, cov.M
    h = np.empty((n, K, M), dtype=complex)
    for k in range(K):
        factor = cov._factors.get(k)
        if factor is None:
            factor = sampling_factor(cov.R[k])
            cov._factors[k] = factor
        h[:, k, :] = standard_complex_gaussian(rng, (n, M)) @ factor.T
    return ChannelBatch(n_samples=n, h=h)


def simulate_batch(model: EstimationModel, n: int, rng: np.random.Generator) -> ChannelBatch:
    """Sample truth channels from the model's covariances and their
    shared-pilot MMSE estimates.

    Per realization the BS observes y = sum_k h_k + n / sqrt(rho_tr), one
    noise vector shared by all UEs, and forms h_hat_i = R_i Q^{-1} y for
    every UE.  The truth channels are drawn first, then the noise.
    """
    batch = sample_channels(model.cov, n, rng)
    noise = standard_complex_gaussian(rng, (n, model.M))
    scale = 1.0 / np.sqrt(model.rho_tr)
    z = model.apply_q_inverse((batch.h.sum(axis=1) + scale * noise).T)  # (M, n)
    h_hat = np.empty_like(batch.h)
    for i in range(model.K):
        h_hat[:, i, :] = (model.cov.R[i] @ z).T
    batch.h_hat = h_hat
    batch.h_tilde = batch.h - h_hat
    batch.pilot_noise = noise
    return batch
