"""Small linear-algebra helpers used throughout the package.

Local-scattering covariance matrices are often numerically rank deficient,
so the sampling factor falls back to an eigendecomposition with clamped
eigenvalues; clamping is logged because it changes the draw.  Both
factorizations read one triangle of R, and every covariance the package
builds is exactly Hermitian, so R is not symmetrized first.
"""

import logging

import numpy as np

logger = logging.getLogger(__name__)


def sampling_factor(r):
    """Factor L with L @ L^H = R suitable for drawing Gaussian vectors.

    Tries Cholesky first; rank-deficient covariances fall back to an
    eigendecomposition with negative eigenvalues clamped to zero.
    """
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(r)
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


def batch_sizes(n: int, size: int):
    """Sizes of the consecutive draws that make up n samples, at most ``size``
    each; the draw size fixes how a random stream is consumed."""
    full, rest = divmod(n, size)
    return [size] * full + ([rest] if rest else [])


class SampleMean:
    """Streaming sample mean of real or complex samples with its standard error.

    Keeps the running sum, the sums of the squared real and imaginary parts
    and the count.  ``add`` takes raw samples along a leading axis;
    ``add_sums`` takes the (S, S_re2, S_im2) triple of ``outer_sums``.  The
    imaginary parts of real samples are never squared.
    """

    def __init__(self):
        self.n = 0
        self.total = self.re2 = self.im2 = 0.0

    def add(self, samples):
        im2 = (samples.imag**2).sum(axis=0) if np.iscomplexobj(samples) else 0.0
        self.add_sums(samples.sum(axis=0), (samples.real**2).sum(axis=0), im2, len(samples))

    def add_sums(self, total, re2, im2, n: int):
        self.total = self.total + total
        self.re2 = self.re2 + re2
        self.im2 = self.im2 + im2
        self.n += n

    @property
    def mean(self):
        return self.total / self.n

    def _variances(self):
        mean = self.mean
        var_re = np.maximum(self.re2 / self.n - mean.real**2, 0.0)
        var_im = np.maximum(self.im2 / self.n - mean.imag**2, 0.0)
        return var_re, var_im

    @property
    def se(self):
        """Standard error of the mean, real and imaginary parts combined."""
        var_re, var_im = self._variances()
        return np.sqrt((var_re + var_im) / self.n)

    @property
    def part_se(self):
        """Standard errors of the real and of the imaginary part of the mean."""
        return tuple(np.sqrt(var / self.n) for var in self._variances())

    def z_scores(self, expected=0.0):
        """Per entry, |mean - expected| in standard errors of the real or the
        imaginary part, whichever is larger; SEs are floored at 1e-300."""
        dev = self.mean - expected
        se_re, se_im = self.part_se
        return np.maximum(
            np.abs(dev.real) / np.maximum(se_re, 1e-300),
            np.abs(dev.imag) / np.maximum(se_im, 1e-300),
        )


def standard_complex_gaussian(rng, shape):
    """Draw i.i.d. CN(0, 1) entries (unit variance per complex entry), real
    parts first.  Each part is scaled into place by 1/sqrt(2), which rounds
    as dividing the complex array by sqrt(2) does, with no complex temporaries."""
    out = np.empty(shape, dtype=complex)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(shape), 1.0 / np.sqrt(2.0), out=part)
    return out
