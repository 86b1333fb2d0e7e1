"""Small linear-algebra helpers used throughout the package.

Local-scattering covariance matrices are often numerically rank deficient,
so the sampling factor falls back to an eigendecomposition with clamped
eigenvalues; clamping is logged because it changes the draw.
"""

import logging

import numpy as np

logger = logging.getLogger(__name__)


def hermitian_part(a):
    return 0.5 * (a + a.conj().T)


def max_hermitian_asymmetry(a):
    """Largest |A - A^H| entry relative to the largest |A| entry."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    return np.abs(a - a.conj().T).max() / scale


def sampling_factor(r):
    """Factor L with L @ L^H = R suitable for drawing Gaussian vectors.

    Tries Cholesky first; rank-deficient covariances fall back to an
    eigendecomposition with negative eigenvalues clamped to zero.
    """
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(hermitian_part(r))
        clipped = np.clip(w, 0.0, None)
        if w[0] < 0:
            logger.debug(
                "covariance factorization clamped %d negative eigenvalues (min %.3e)",
                int(np.sum(w < 0)), w[0],
            )
        return v * np.sqrt(clipped)


def outer_sums(a, b):
    """Sums over the leading sample axis of the outer products a b^H.

    a is (n, ..., M) and b is (n, ..., L), with the same middle (batch)
    axes.  Returns (S, S_re2, S_im2), each (..., M, L): S = sum_n a b^H and
    the sums of the squared real and imaginary parts of its per-sample
    terms a_m conj(b_l).  The per-sample (n, ..., M, L) products are never
    formed; with a = a_r + j a_i and b = b_r + j b_i,

        Re(a conj(b))^2 = a_r^2 b_r^2 + a_i^2 b_i^2 + 2 a_r a_i b_r b_i
        Im(a conj(b))^2 = a_i^2 b_r^2 + a_r^2 b_i^2 - 2 a_r a_i b_r b_i,

    so both squared sums come from two real products per batch index: the
    squares [a_r^2; a_i^2] (2M x n) times [b_r^2; b_i^2]^T (n x 2L), and
    the mixed terms a_r a_i (M x n) times (b_r b_i)^T (n x L).
    """
    a = np.moveaxis(a, 0, -1)  # (..., M, n)
    b = np.moveaxis(b, 0, -1)  # (..., L, n)
    M, L = a.shape[-2], b.shape[-2]
    total = a @ b.conj().swapaxes(-1, -2)

    def squares(x):
        re, im = x.real, x.imag
        return np.concatenate([re * re, im * im], axis=-2), re * im

    a_sq, a_mixed = squares(a)
    b_sq, b_mixed = squares(b)
    x = a_sq @ b_sq.swapaxes(-1, -2)
    rr_rr = x[..., :M, :L]   # sum a_r^2 b_r^2
    rr_ii = x[..., :M, L:]   # sum a_r^2 b_i^2
    ii_rr = x[..., M:, :L]   # sum a_i^2 b_r^2
    ii_ii = x[..., M:, L:]   # sum a_i^2 b_i^2
    cross = 2.0 * (a_mixed @ b_mixed.swapaxes(-1, -2))  # 2 sum a_r a_i b_r b_i
    return total, rr_rr + ii_ii + cross, ii_rr + rr_ii - cross


def standard_complex_gaussian(rng, shape):
    """Draw i.i.d. CN(0, 1) entries (unit variance per complex entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
