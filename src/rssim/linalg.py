"""Small linear-algebra helpers used throughout the package.

Local-scattering covariance matrices are often numerically rank deficient,
so the sampling factor falls back to an eigendecomposition with clamped
eigenvalues; clamping is logged because it changes the draw.  Both
factorizations read one triangle of R, and every covariance the package
builds is exactly Hermitian, so R is not symmetrized first.

The Monte Carlo oracles split each draw into a fill, the standard normals
drawn into a buffer the caller owns (``standard_normals``), and a form, the
arithmetic on them; ``prefetched`` runs the fills on one worker thread, one
draw ahead of the forms, so the draws overlap the arithmetic and consume
the random stream in the serial order.
"""

import logging
import math
from concurrent.futures import ThreadPoolExecutor

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
    axes and a contiguous last axis.  Returns (S, S_re2, S_im2), each
    (..., M, L): S = sum_n a b^H and the sums of the squared real and
    imaginary parts of its per-sample terms a_m conj(b_l).  The per-sample
    (n, ..., M, L) products are never formed; with a = a_r + j a_i and
    b = b_r + j b_i,

        Re(a conj(b))^2 = a_r^2 b_r^2 + a_i^2 b_i^2 + 2 a_r a_i b_r b_i
        Im(a conj(b))^2 = a_i^2 b_r^2 + a_r^2 b_i^2 - 2 a_r a_i b_r b_i,

    so both squared sums come from two real products per batch index.  The
    squares are taken on the float views of a and b, whose last axis holds
    each real part next to its imaginary part, so the (2M x n) by (n x 2L)
    product of the squares holds the four sums a_p^2 b_q^2 interleaved; the
    mixed terms a_r a_i (M x n) times (b_r b_i)^T (n x L) give the rest.
    """
    def summed(x, y):
        """sum_n x_n y_n^T, the sample axis moved last and first as views."""
        return np.moveaxis(x, 0, -1) @ np.moveaxis(y, 0, -2)

    total = summed(a, b.conj())
    a_f, b_f = a.view(float), b.view(float)  # (n, ..., 2M), real and imaginary parts interleaved
    x = summed(a_f * a_f, b_f * b_f)  # (..., 2M, 2L)
    rr_rr = x[..., 0::2, 0::2]   # sum a_r^2 b_r^2
    rr_ii = x[..., 0::2, 1::2]   # sum a_r^2 b_i^2
    ii_rr = x[..., 1::2, 0::2]   # sum a_i^2 b_r^2
    ii_ii = x[..., 1::2, 1::2]   # sum a_i^2 b_i^2
    # 2 sum a_r a_i b_r b_i
    cross = 2.0 * summed(a_f[..., 0::2] * a_f[..., 1::2], b_f[..., 0::2] * b_f[..., 1::2])
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


def complex_normals(parts, out=None):
    """CN(0, 1) entries (unit variance per complex entry) from a (2, ...)
    stack of standard normals, real parts first.  Each part is scaled into
    place by 1/sqrt(2), which rounds as dividing the complex array by
    sqrt(2) does, with no complex temporaries; ``out`` may be a buffer of
    the entries' shape to write them into."""
    if out is None:
        out = np.empty(parts.shape[1:], dtype=complex)
    for normals, part in zip(parts, (out.real, out.imag)):
        np.multiply(normals, 1.0 / np.sqrt(2.0), out=part)
    return out


def standard_complex_gaussian(rng, shape):
    """Draw i.i.d. CN(0, 1) entries, real parts first."""
    return complex_normals(rng.standard_normal((2, *shape)))


def standard_normals(rng, shape, buffer):
    """Draw standard normals of ``shape``, in C order, into the leading
    entries of the flat float ``buffer``; returns them as a view of it.
    One call draws what consecutive calls for the parts of the shape would."""
    normals = buffer[: math.prod(shape)].reshape(shape)
    rng.standard_normal(out=normals)
    return normals


def prefetched(fill, sizes, visit, buffers):
    """visit(fill(buffer, m)) for each draw size m in ``sizes``, in order.

    The fills run on one worker thread, one draw ahead of the visits on the
    calling thread: while draw i is visited, draw i + 1 is filled into the
    other of the two ``buffers`` (one is enough for a single draw), so a
    fill writes only into a buffer whose visit has returned, and nothing is
    filled past the last size.  As the fills keep their order on the one
    thread, a random stream is consumed exactly as by a serial loop.  A
    fill should allocate nothing large: each thread gets its own malloc
    arena.  An exception from a fill is raised from the visit that would
    have read it, and the worker is joined before this returns or raises.
    """
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for i, m in enumerate(sizes):
            filling = worker.submit(fill, buffers[i % 2], m)
            if pending is not None:
                visit(pending.result())
            pending = filling
        if pending is not None:
            visit(pending.result())
