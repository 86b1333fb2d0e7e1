"""Deterministic expectations feeding the SINR formulas.

Closed forms are available for MR private precoding and for the common
precoder built as a weighted sum of channel estimates; the Monte Carlo
oracle that checks them is ``validation.mc_moment_table``.  The common
beam's normalization comes from ``common_norm_squared`` alone, which
``precoding.common_precoder`` reads too; it and the common second moment
are real by construction (traces of Hermitian products, real weights), so
their real parts are taken.  The common beam is the MR beam of a virtual
UE with whitened covariance sum_i w_i W_i, so ``estimation.r_phi_traces``
gives its traces as it does the private beams'.  Its second moment needs
one fourth-order moment of the estimates, which the closed forms take from
a circularly-symmetric complex Gaussian (E{|c_m|^4} = 2).  The
real-Gaussian value (E{|c_m|^4} = 3) survives only in the Monte Carlo
vote ``select_quartic_variant``, an oracle that ``rssim validate`` runs to
confirm that the estimates follow the circular value; its sample means
stream through ``linalg.SampleMean``, which the closed forms never read.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidWeightsError, NumericalError
from .estimation import EstimationModel, r_phi_traces
from .linalg import SampleMean, batch_sizes, outer_sums, standard_complex_gaussian

QUARTIC_VARIANTS = ("real", "circular")

# standard errors within which a variant must match every component to pass
QUARTIC_Z_LIMIT = 3.0

# rounding slack of MomentTable.validate, relative to each second moment
MOMENT_RTOL = 1e-9

# samples per draw of the quartic vote; the draw size fixes the random stream
QUARTIC_BATCH = 50_000


@dataclass
class MomentTable:
    """Expectations of the effective precoded channels.

    ``G_private[k, i]`` is the mean squared response of UE k to the beam of
    UE i; ``g_private[k]`` is the mean response of UE k to its own beam.
    Common-stream entries are zero when no common precoder is in use, and
    such a table has no common stream.  The last three fields are fixed by
    the entries and derived from them once.
    """

    g_private: np.ndarray   # (K,) complex
    G_private: np.ndarray   # (K, K) real
    g_common: np.ndarray    # (K,) complex
    G_common: np.ndarray    # (K,) real
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

    def validate(self):
        if np.any(self.G_private < 0):
            raise NumericalError("G_private has negative entries")
        diag = np.diagonal(self.G_private)
        if np.any(self.own_private - diag > MOMENT_RTOL * np.maximum(diag, 1e-300)):
            raise NumericalError("second moment below squared mean for a private beam")
        common_var = self.G_common - self.own_common
        if np.any(common_var < -MOMENT_RTOL * np.maximum(self.G_common, 1e-300)):
            raise NumericalError("second moment below squared mean for the common beam")


def quartic_identity(B: np.ndarray, variant: str) -> np.ndarray:
    """Closed form of E{c c^H B c c^H} for c with i.i.d. unit-variance
    complex Gaussian entries, under the chosen fourth-moment convention."""
    base = np.trace(B) * np.eye(B.shape[0]) + B
    if variant == "real":
        return base + np.diag(np.diag(B))
    if variant == "circular":
        return base
    raise ValueError(f"unknown quartic variant {variant!r}")


def common_norm_squared(weights: np.ndarray, model: EstimationModel) -> float:
    """w^T tr(C) w = tr(Phi_w), the expected squared norm of the common beam
    sum_i w_i hhat_i before normalization; real, as tr(C) is Hermitian and
    w real.  Raises InvalidWeightsError unless it is positive."""
    norm2 = complex(weights @ model.cross_trace @ weights).real
    if norm2 <= 0:
        raise InvalidWeightsError(f"non-positive common-precoder normalization {norm2:.3e}")
    return norm2


def closed_form_moments(model: EstimationModel, weights=None) -> MomentTable:
    """Assemble the full closed-form moment table for MR private beams and,
    if weights are given, the weighted-estimate common beam.

    Both tables are array expressions over the trace tables; with
    C_ik = R_i Q^{-1} R_k, G_private[k, i] = (tr(R_k Phi_i) + |tr(C_ik)|^2) / tr(Phi_i).
    For the common beam, sum_i w_i hhat_i = R_w Q^{-1} y is the MMSE estimate
    of a virtual UE with covariance R_w = sum_i w_i R_i (w real).  The
    circular quartic moment gives E{h_k^H hhat_i hhat_j^H h_k} =
    tr(C_ik) tr(C_kj) + tr(R_i Q^{-1} R_j R_k) for every pair i, j, and since
    tr(C_ki) = conj(tr(C_ik)) the weighted pair sum is
        sum_{i,j} w_i w_j (tr(C_ik) tr(C_kj) + tr(R_i Q^{-1} R_j R_k))
          = |sum_i w_i tr(C_ik)|^2 + tr(R_k Phi_w),   Phi_w = R_w Q^{-1} R_w,
    and the normalization is w^T tr(C) w = tr(Phi_w): the MR cross-power
    formula for the virtual UE.  With Q = L L^H, its whitened covariance
    W_w = L^{-1} R_w = sum_i w_i W_i is a weighted sum of the model's, and
    Phi_w = W_w^H W_w, so tr(R_k Phi_w) is ``r_phi_traces`` on the
    one-beam stack [W_w], formed column-major, the kernel of the private
    table; the table takes no Q^{-1} solve.
    No sample is drawn here; ``validation.mc_moment_table`` is the oracle.
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
        norm2 = common_norm_squared(weights, model)
        # W_w = sum_i w_i W_i, summed over the row-major stack of the W_i^T
        # so that it comes out column-major, as zherk reads it
        whitened = np.einsum("i,imn->mn", weights, model.W.transpose(0, 2, 1)).T
        gain = weights @ ct
        pair_sum = r_phi_traces(model.cov.R, whitened[None])[:, 0] + np.abs(gain) ** 2
        g_common = gain / np.sqrt(norm2)
        G_common = pair_sum / norm2
    table = MomentTable(
        g_private=g_private,
        G_private=G_private,
        g_common=g_common,
        G_common=G_common,
    )
    table.validate()
    return table


def mc_c_quartic(B: np.ndarray, n: int, rng: np.random.Generator) -> SampleMean:
    """Monte Carlo estimate of E{c c^H B c c^H}, accumulated in draws of
    ``QUARTIC_BATCH`` samples to bound memory.  Each sample's q = c^H B c
    is sum_k conj((c^T conj(B))_k) c_k: the product with the conjugated
    M x M matrix is conjugated in place, and no conjugated copy of the
    draw is made."""
    M = B.shape[0]
    B_conj = B.conj()
    estimate = SampleMean()
    for m in batch_sizes(n, QUARTIC_BATCH):
        c = standard_complex_gaussian(rng, (m, M))
        c_h_b = c @ B_conj
        np.conjugate(c_h_b, out=c_h_b)  # row n is c_n^H B
        q = np.einsum("nk,nk->n", c_h_b, c)
        estimate.add_sums(*outer_sums(q[:, None] * c, c), m)
    return estimate


@dataclass
class QuarticAdjudication:
    """Outcome of the Monte Carlo vote between the two quartic variants."""

    winner: str | None
    unique: bool
    max_z: dict          # variant -> worst |deviation| / SE over all pairs
    max_abs_dev: dict    # variant -> worst |deviation|


def select_quartic_variant(
    n_pairs: int = 5,
    m_values=(2, 4, 8),
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> QuarticAdjudication:
    """Run the variant vote on ``n_pairs`` random complex matrices B.

    The vote happens in the coordinates of the unit Gaussian, where the two
    variants differ by diag(B).  A variant passes when every real and
    imaginary component of every B deviates from the Monte Carlo estimate
    by at most ``QUARTIC_Z_LIMIT`` standard errors.  The winner is the
    variant with the smallest worst-case deviation; ``unique`` is True when
    exactly one variant passes.
    """
    rng = np.random.default_rng(seed)
    worst_z = {v: 0.0 for v in QUARTIC_VARIANTS}
    worst_dev = {v: 0.0 for v in QUARTIC_VARIANTS}
    for p in range(n_pairs):
        M = int(m_values[p % len(m_values)])
        # a draw nothing reads, kept so that every B and the vote's samples
        # stay on the same random stream
        standard_complex_gaussian(rng, (M, M))
        B = standard_complex_gaussian(rng, (M, M)) * np.sqrt(2.0)
        estimate = mc_c_quartic(B, n_samples, rng)
        for v in QUARTIC_VARIANTS:
            closed = quartic_identity(B, v)
            worst_z[v] = max(worst_z[v], float(estimate.z_scores(closed).max()))
            worst_dev[v] = max(worst_dev[v], float(np.abs(estimate.mean - closed).max()))
    passing = [v for v in QUARTIC_VARIANTS if worst_z[v] <= QUARTIC_Z_LIMIT]
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
