"""Correlated Rayleigh channel sampling and shared-pilot MMSE estimation.

Every UE transmits the same pilot, so the BS sees one contaminated
observation per coherence block and all K estimates are linear functions
of it.  That makes the estimates mutually correlated: the cross-covariance
of estimates i and k is R_i Q^{-1} R_k, with Q = L L^H the covariance of
the observation.  The model object keeps the upper Cholesky factor U = L^H
of Q, the whitened covariances W_k = L^{-1} R_k and the trace tables that
the closed-form moment engine consumes, all in O(K M^2) memory and built
from one triangular solve; W_i^H W_k is a cross-covariance, W_i^H L^{-1} y
a Monte Carlo estimate, and ``r_phi_traces`` every tr(R_k Phi_j) table,
from the upper triangle of each Phi_j = W_j^H W_j, a Hermitian rank-k
update of the column-major W_j, with every BLAS call of its loop in
SciPy's OpenBLAS.  A sampled batch has two halves: the standard normals
(``batch_shape``) and ``form_batch``, the arithmetic that turns them into
channels and estimates; ``simulate_batch`` draws the normals and forms
them, and the Monte Carlo oracles form each draw while the next one's
normals are drawn.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm, zgemv, zherk

from .errors import NumericalError
from .linalg import complex_normals, sampling_factor
from .scenario import CovarianceSet


@dataclass
class EstimationModel:
    """Deterministic second-order statistics of the shared-pilot estimator.

    ``rho_tr`` is the pilot power in units of the (unit-variance) pilot
    noise, so the observation covariance is Q = sum_k R_k + (1/rho_tr) I.
    With Q = L L^H, the cross-covariance of estimates i and k is
    R_i Q^{-1} R_k = W_i^H W_k, and Phi_i = W_i^H W_i is the covariance of
    estimate i.  The model holds the upper factor U = L^H of Q, W and the
    trace tables; no Q, Phi_i or cross-covariance is kept.
    """

    cov: CovarianceSet
    rho_tr: float
    Q_factor: np.ndarray           # (M, M) upper triangular U with Q = U^H U, so L = U^H
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


@dataclass
class ChannelBatch:
    """A batch of channel realizations and their shared-pilot estimates.

    With a shared pilot, all K estimates of a realization are linear
    functions of its one observation; the estimation error is h - h_hat.
    """

    h: np.ndarray      # (n, K, M)
    h_hat: np.ndarray  # (n, K, M)


def r_phi_traces(R: np.ndarray, W: np.ndarray) -> np.ndarray:
    """[k, j] = tr(R_k Phi_j), real, for the stack W[j] = W_j of column-major
    whitened covariances, with Phi_j = W_j^H W_j.  zherk forms the upper
    triangle U_j of Phi_j, one beam at a time, and as R_k is Hermitian,
    tr(R_k Phi_j) = 2 Re sum_{m, n} R_k[m, n] U_j^T[m, n] - sum_m R_k[m, m] U_j[m, m].
    No Phi stack and no conjugated copy of W_j is held."""
    R_flat = R.reshape(len(R), -1)
    R_diag = np.real(np.diagonal(R, axis1=1, axis2=2))
    traces = np.empty((len(R), len(W)))
    # one buffer for every U_j; zherk writes only its upper triangle, so the
    # strictly lower one stays zero, and u_t is U_j^T, flat, a view of it
    u = np.zeros(R.shape[1:], dtype=complex, order="F")
    u_t = u.T.reshape(-1)
    for j, w in enumerate(W):
        zherk(1.0, w, trans=2, c=u, overwrite_c=1)
        r_u = zgemv(1.0, R_flat.T, u_t, trans=1)  # R_flat @ u_t, in scipy's BLAS as zherk is
        traces[:, j] = 2.0 * np.real(r_u) - R_diag @ np.real(np.diagonal(u))
    return traces


def build_estimation_model(cov: CovarianceSet, rho_tr: float) -> EstimationModel:
    """Factor Q = U^H U and assemble W_k = L^{-1} R_k, with L = U^H, and the
    trace tables; ``cov`` is left as it was."""
    if rho_tr <= 0:
        raise ValueError("rho_tr must be positive")
    K, M = cov.K, cov.M
    Q = cov.R.sum(axis=0) + np.eye(M) / rho_tr
    try:
        U = scipy.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps Q PD
        raise NumericalError(f"observation covariance is not positive definite: {exc}") from exc
    # LAPACK solves the columns of a column-major right-hand side in place.
    # The row-major stack of the R_k^T lays out the columns of every R_k that
    # way, so U^H W_k = R_k is solved for all k in one call, in that one copy
    # of R, and W_t[k] = W_k^T is left row-major.  The copy is explicit: at
    # M = 1 the transpose is already contiguous and would be R itself.
    W_t = cov.R.transpose(0, 2, 1).copy()
    W_t = scipy.linalg.solve_triangular(
        U, W_t.reshape(K * M, M).T, trans="C", overwrite_b=True
    ).T.reshape(K, M, M)
    flat = W_t.reshape(K, M * M)
    # one (K, M^2) Gram product; zgemm conjugates in place of a conj() copy
    cross_trace = zgemm(1.0, flat.T, flat.T, trans_a=2)
    W = W_t.transpose(0, 2, 1)
    return EstimationModel(
        cov=cov,
        rho_tr=rho_tr,
        Q_factor=U,
        W=W,
        cross_trace=cross_trace,
        phi_trace=np.real(np.diagonal(cross_trace)).copy(),
        r_phi_trace=r_phi_traces(cov.R, W),
    )


def batch_shape(model: EstimationModel, n: int) -> tuple:
    """Shape (K + 1, 2, n, M) of the standard normals behind a batch of n
    realizations, in the order they are drawn: the real, then the imaginary
    parts of each UE's channel draw, then those of the pilot noise."""
    return (model.K + 1, 2, n, model.M)


def _channels(R: np.ndarray, normals: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Correlated Rayleigh realizations h_k = z_k F_k^T with F_k F_k^H = R_k,
    as an (n, K, M) array, from the (K, 2, n, M) standard normals of the z_k;
    each z_k is formed in the (n, M) complex buffer z, and each UE's product
    is written straight into its slot."""
    n, M = z.shape
    h = np.empty((n, len(R), M), dtype=complex)
    for k, r in enumerate(R):
        np.matmul(complex_normals(normals[k], out=z), sampling_factor(r).T, out=h[:, k, :])
    return h


def sample_channels(cov: CovarianceSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n correlated Rayleigh realizations h_i ~ CN(0, R_i) per UE, as
    an (n, K, M) array, drawn UE by UE as ``simulate_batch`` draws them."""
    if n < 1:
        raise ValueError("need at least one realization")
    normals = rng.standard_normal((cov.K, 2, n, cov.M))
    return _channels(cov.R, normals, np.empty((n, cov.M), dtype=complex))


def form_batch(model: EstimationModel, normals: np.ndarray) -> ChannelBatch:
    """Truth channels and their shared-pilot MMSE estimates, formed from the
    standard normals of a batch, shaped as ``batch_shape`` gives.

    Per realization the BS observes y = sum_k h_k + n / sqrt(rho_tr), one
    noise vector shared by all UEs, and forms h_hat_i = R_i Q^{-1} y for
    every UE as W_i^H L^{-1} y: one triangular solve for the draw, then one
    product with the conjugated W stack.  One (n, M) complex buffer holds
    each UE's complex normals in turn, then the noise, y and L^{-1} y.
    """
    K, M, n = model.K, model.M, normals.shape[2]
    y = np.empty((n, M), dtype=complex)
    h = _channels(model.cov.R, normals, y)
    complex_normals(normals[K], out=y)
    # the float view times 1/sqrt(rho_tr) rounds as the complex division by
    # sqrt(rho_tr) does, at a fraction of its cost
    y_f = y.view(float)
    y_f *= 1.0 / np.sqrt(model.rho_tr)
    y += h.sum(axis=1)
    # L^{-1} y for every realization, with L = U^H
    white = scipy.linalg.solve_triangular(model.Q_factor, y.T, trans="C", overwrite_b=True)
    # the (M, K M) block row [W_0 ... W_{K-1}] is a view of W's row-major
    # storage, and zgemm conjugates it in place of a conj() copy; the
    # (K M, n) column-major product is h_hat laid out row-major as (n, K, M)
    stack = model.W.transpose(0, 2, 1).reshape(K * M, M).T
    h_hat = zgemm(1.0, stack, white, trans_a=2).T.reshape(n, K, M)
    return ChannelBatch(h=h, h_hat=h_hat)


def simulate_batch(model: EstimationModel, n: int, rng: np.random.Generator) -> ChannelBatch:
    """Sample n truth channels from the model's covariances and their
    shared-pilot MMSE estimates: one draw of the normals, then
    ``form_batch``.  The Monte Carlo oracles run the same two halves with
    the draws made ahead into buffers of their own (``linalg.prefetched``)."""
    if n < 1:
        raise ValueError("need at least one realization")
    return form_batch(model, rng.standard_normal(batch_shape(model, n)))
