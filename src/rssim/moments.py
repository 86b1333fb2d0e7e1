"""Deterministic expectations feeding the SINR formulas.

Closed forms are available for MR private precoding and for the common
precoder built as a weighted sum of channel estimates; the Monte Carlo
oracle that checks them is ``validation.mc_moment_table``.  The
common-stream second moment needs one fourth-order moment of the
estimates, which the closed forms take from a circularly-symmetric complex
Gaussian (E{|c_m|^4} = 2).  The real-Gaussian alternative (E{|c_m|^4} = 3)
survives only in the Monte Carlo vote ``select_quartic_variant``, an oracle
that ``rssim validate`` runs to confirm that the circular value is the one
the estimates follow.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidWeightsError, NumericalError
from .estimation import EstimationModel
from .linalg import outer_sums, standard_complex_gaussian

QUARTIC_VARIANTS = ("real", "circular")

# imaginary parts of nominally-real traces above this (relative) level
# indicate a broken covariance set rather than rounding
REAL_TRACE_TOL = 1e-8


@dataclass
class MomentTable:
    """Expectations of the effective precoded channels.

    ``G_private[k, i]`` is the mean squared response of UE k to the beam of
    UE i; ``g_private[k]`` is the mean response of UE k to its own beam.
    Common-stream entries are zero when no common precoder is in use, and
    such a table has no common stream.  Monte Carlo tables also carry
    standard-error estimates.  The last three fields are fixed by the
    entries and derived from them once.
    """

    g_private: np.ndarray   # (K,) complex
    G_private: np.ndarray   # (K, K) real
    g_common: np.ndarray    # (K,) complex
    G_common: np.ndarray    # (K,) real
    se_g_private: np.ndarray | None = None
    se_G_private: np.ndarray | None = None
    se_g_common: np.ndarray | None = None
    se_G_common: np.ndarray | None = None
    own_private: np.ndarray = field(init=False)      # |g_private|^2
    own_common: np.ndarray = field(init=False)       # |g_common|^2
    common_variance: np.ndarray = field(init=False)  # max(G_common - |g_common|^2, 0)

    def __post_init__(self):
        self.own_private = np.abs(self.g_private) ** 2
        self.own_common = np.abs(self.g_common) ** 2
        self.common_variance = np.maximum(self.G_common - self.own_common, 0.0)

    @property
    def K(self) -> int:
        return self.g_private.shape[0]

    def validate(self, tol=1e-9):
        if np.any(self.G_private < 0):
            raise NumericalError("G_private has negative entries")
        diag = np.diagonal(self.G_private)
        scale = np.maximum(diag, 1e-300)
        if np.any((self.own_private - diag) > tol * scale):
            raise NumericalError("second moment below squared mean for a private beam")
        common_var = self.G_common - self.own_common
        if np.any(common_var < -tol * np.maximum(self.G_common, 1e-300)):
            raise NumericalError("second moment below squared mean for the common beam")


def _real_trace(value, context: str):
    value = np.asarray(value)
    imag = np.abs(value.imag)
    if np.any(imag > REAL_TRACE_TOL * np.maximum(1.0, np.abs(value.real))):
        raise NumericalError(f"{context}: trace has unexpected imaginary part {imag.max():.3e}")
    return value.real if value.ndim else float(value.real)


def quartic_identity(B: np.ndarray, variant: str) -> np.ndarray:
    """Closed form of E{c c^H B c c^H} for c with i.i.d. unit-variance
    complex Gaussian entries, under the chosen fourth-moment convention."""
    base = np.trace(B) * np.eye(B.shape[0]) + B
    if variant == "real":
        return base + np.diag(np.diag(B))
    if variant == "circular":
        return base
    raise ValueError(f"unknown quartic variant {variant!r}")


def estimate_pair_moment(k: int, i: int, j: int, model: EstimationModel) -> complex:
    """E{h_k^H hhat_i hhat_j^H h_k} for i != j, assembled from the
    estimate-colinearity substitution, the error-covariance split, and the
    circular quartic moment.

    The substitution hhat_j = R_j R_i^{-1} hhat_i carries a trailing
    R_k^{-1} R_i factor into the quartic term; the inverses cancel
    algebraically, leaving
        tr(C_ik) tr(C_kj) + tr(C_ij R_k),
    which is the form evaluated here (exact for any covariances, no ridge).
    """
    ct = model.cross_trace
    return complex(ct[i, k] * ct[k, j] + model.triple_trace[i, j, k])


def _common_norm_squared(weights: np.ndarray, model: EstimationModel) -> float:
    total = complex(weights @ model.cross_trace @ weights)
    norm2 = _real_trace(total, "common precoder normalization")
    if norm2 <= 0:
        raise InvalidWeightsError(f"non-positive common-precoder normalization {norm2:.3e}")
    return norm2


def closed_form_moments(model: EstimationModel, weights=None) -> MomentTable:
    """Assemble the full closed-form moment table for MR private beams and,
    if weights are given, the weighted-estimate common beam.

    Both tables are array expressions over the trace tables; with
    C_ik = R_i Q^{-1} R_k, G_private[k, i] = (tr(R_k Phi_i) + |tr(C_ik)|^2) / tr(Phi_i).
    For the common beam, sum_i w_i hhat_i = R_w Q^{-1} y is the MMSE estimate
    of a virtual UE with covariance R_w = sum_i w_i R_i (w real).  Since
    tr(C_ki) = conj(tr(C_ik)) and tr(R_i Q^{-1} R_i R_k) = tr(R_k Phi_i), the
    diagonal (same-estimate) terms and the ``estimate_pair_moment`` pair terms
    sum to
        sum_{i,j} w_i w_j (tr(C_ik) tr(C_kj) + tr(R_i Q^{-1} R_j R_k))
          = |sum_i w_i tr(C_ik)|^2 + tr(R_k Phi_w),   Phi_w = R_w Q^{-1} R_w,
    and the normalization is w^T tr(C) w = tr(Phi_w): the MR cross-power
    formula for the virtual UE, at one Q^{-1} solve and one M x M product.
    """
    degenerate = np.flatnonzero(model.phi_trace <= 0)
    if degenerate.size:
        raise InvalidWeightsError(f"UE {degenerate[0]} has a degenerate estimate (tr(Phi) = 0)")
    K = model.K
    ct = model.cross_trace
    g_private = np.sqrt(model.phi_trace).astype(complex)
    G_private = (model.r_phi_trace + np.abs(ct.T) ** 2) / model.phi_trace[None, :]
    g_common = np.zeros(K, dtype=complex)
    G_common = np.zeros(K)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        norm2 = _common_norm_squared(weights, model)
        R = model.cov.R
        R_w = np.tensordot(weights, R, axes=1)
        Phi_w = R_w @ model.apply_q_inverse(R_w)
        gain = weights @ ct
        pair_sum = np.einsum("kmn,nm->k", R, Phi_w) + np.abs(gain) ** 2
        g_common = gain / np.sqrt(norm2)
        G_common = _real_trace(pair_sum, "common second moment") / norm2
    table = MomentTable(
        g_private=g_private,
        G_private=G_private,
        g_common=g_common,
        G_common=G_common,
    )
    table.validate()
    return table


def mc_c_quartic(B: np.ndarray, n: int, rng: np.random.Generator, chunk: int = 50_000):
    """Monte Carlo estimate of E{c c^H B c c^H} with componentwise
    standard errors, accumulated in chunks to bound memory."""
    M = B.shape[0]
    s1 = np.zeros((M, M), dtype=complex)
    s2_re = np.zeros((M, M))
    s2_im = np.zeros((M, M))
    done = 0
    while done < n:
        m = min(chunk, n - done)
        c = standard_complex_gaussian(rng, (m, M))
        q = np.einsum("nm,mk,nk->n", c.conj(), B, c, optimize=True)
        term, term_re2, term_im2 = outer_sums(q[:, None] * c, c)
        s1 += term
        s2_re += term_re2
        s2_im += term_im2
        done += m
    mean = s1 / n
    var_re = np.maximum(s2_re / n - mean.real**2, 0.0)
    var_im = np.maximum(s2_im / n - mean.imag**2, 0.0)
    se_re = np.sqrt(var_re / n)
    se_im = np.sqrt(var_im / n)
    return mean, se_re, se_im


@dataclass
class QuarticAdjudication:
    """Outcome of the Monte Carlo vote between the two quartic variants."""

    winner: str | None
    unique: bool
    max_z: dict          # variant -> worst |deviation| / SE over all pairs
    max_abs_dev: dict    # variant -> worst |deviation|


def adjudicate_quartic_pair(B: np.ndarray, n: int, rng: np.random.Generator, z_limit: float = 3.0):
    """Compare both closed-form variants of E{c c^H B c c^H} against a
    Monte Carlo estimate; a variant passes when every real and imaginary
    component deviates by less than ``z_limit`` standard errors."""
    mean, se_re, se_im = mc_c_quartic(B, n, rng)
    se_re = np.maximum(se_re, 1e-300)
    se_im = np.maximum(se_im, 1e-300)
    out = {}
    for variant in QUARTIC_VARIANTS:
        closed = quartic_identity(B, variant)
        dev = mean - closed
        z = max(np.abs(dev.real / se_re).max(), np.abs(dev.imag / se_im).max())
        out[variant] = {
            "max_z": float(z),
            "max_abs_dev": float(np.abs(dev).max()),
            "passes": bool(z <= z_limit),
        }
    return out


def select_quartic_variant(
    n_pairs: int = 5,
    m_values=(2, 4, 8),
    n_samples: int = 1_000_000,
    seed: int = 0,
    z_limit: float = 3.0,
) -> QuarticAdjudication:
    """Run the variant vote on ``n_pairs`` random complex matrices B.

    The vote happens in the coordinates of the unit Gaussian, where the two
    variants differ by diag(B).  The winner is the variant with the
    smallest worst-case deviation; ``unique`` is True when exactly one
    variant passes the z-test on every component of every B.
    """
    rng = np.random.default_rng(seed)
    worst_z = {v: 0.0 for v in QUARTIC_VARIANTS}
    worst_dev = {v: 0.0 for v in QUARTIC_VARIANTS}
    passes = {v: True for v in QUARTIC_VARIANTS}
    for p in range(n_pairs):
        M = int(m_values[p % len(m_values)])
        # a draw nothing reads, kept so that every B and the vote's samples
        # stay on the same random stream
        standard_complex_gaussian(rng, (M, M))
        B = standard_complex_gaussian(rng, (M, M)) * np.sqrt(2.0)
        result = adjudicate_quartic_pair(B, n_samples, rng, z_limit)
        for v in QUARTIC_VARIANTS:
            worst_z[v] = max(worst_z[v], result[v]["max_z"])
            worst_dev[v] = max(worst_dev[v], result[v]["max_abs_dev"])
            passes[v] = passes[v] and result[v]["passes"]
    passing = [v for v in QUARTIC_VARIANTS if passes[v]]
    winner = passing[0] if len(passing) == 1 else min(worst_z, key=worst_z.get)
    return QuarticAdjudication(
        winner=winner,
        unique=len(passing) == 1,
        max_z=worst_z,
        max_abs_dev=worst_dev,
    )


@lru_cache(maxsize=1)
def default_quartic_variant() -> str:
    """Winner of a quick deterministic run of the vote, cached per process.

    The closed forms are circular-only and never call this; it is the
    cheap form of the oracle for callers that want the verdict."""
    return select_quartic_variant(n_pairs=3, m_values=(4,), n_samples=100_000, seed=42).winner
