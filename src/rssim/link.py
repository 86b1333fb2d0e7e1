"""Hardening-bound SINRs and spectral efficiencies.

Receivers are modeled as knowing only the mean effective channels; every
deviation from the mean acts as noise.  The common stream is decoded first
(treating all private streams as interference) and its rate is set by the
bottleneck UE; private streams see the residual common-channel variance
after cancellation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .moments import MomentTable
from .scenario import ScenarioConfig


@dataclass
class PowerVector:
    """Common-stream power and per-UE private powers, in linear mW."""

    rho_c: float
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho_c < 0 or np.any(self.rho < 0):
            raise ValueError("powers must be nonnegative")

    @property
    def total(self) -> float:
        return float(self.rho_c + self.rho.sum())


@dataclass
class SEReport:
    """Per-UE SINRs and spectral efficiencies plus the totals."""

    gamma_private: np.ndarray  # (K,)
    gamma_common: np.ndarray   # (K,)
    l_min: int
    se_private: np.ndarray     # (K,) bits/s/Hz
    se_common: float
    sum_se: float
    prelog: float

    @property
    def se_private_total(self) -> float:
        return float(self.se_private.sum())


def stream_denominators(powers: PowerVector, moments: MomentTable, sigma2: float):
    """Interference-plus-noise terms of every stream at a power point.

    Returns (den_private, num_private, den_common, num_common), each a
    length-K vector.  num = den + own-signal term, so the SINR of stream x
    is num_x / den_x - 1.
    """
    own = moments.own_private
    delta_c = moments.common_variance
    rx_power = moments.G_private @ powers.rho
    den_private = rx_power - powers.rho * own + powers.rho_c * delta_c + sigma2
    num_private = den_private + powers.rho * own
    den_common = rx_power + powers.rho_c * delta_c + sigma2
    num_common = den_common + powers.rho_c * moments.own_common
    return den_private, num_private, den_common, num_common


def _guard_denominator(value, scale, sigma2: float, context: str):
    """Pin denominators in (-1e-12 * max(scale, sigma2), 0], pure cancellation
    noise, to 1e-12 * sigma2 and raise below that; works elementwise."""
    value = np.asarray(value, dtype=float)
    broken = ~(value > -1e-12 * np.maximum(scale, sigma2))
    if broken.any():
        where = f"[{int(np.argmax(broken))}]" if value.ndim else ""
        raise NumericalError(
            f"{context}{where}: denominator {value[broken].flat[0]:.3e} violates the "
            "variance nonnegativity invariant of the moment table"
        )
    return np.where(value > 0, value, 1e-12 * sigma2)


def se_report(powers: PowerVector, moments: MomentTable, config: ScenarioConfig) -> SEReport:
    """Full spectral-efficiency report at a power point.

    The common rate is set by the UE with the smallest common SINR
    (lowest index on ties); the prelog is the downlink fraction of the
    coherence block.
    """
    sigma2 = config.noise_mw
    den_p, _, den_c, _ = stream_denominators(powers, moments, sigma2)
    g_p = powers.rho * moments.own_private / _guard_denominator(den_p, den_c, sigma2, "gamma_private")
    g_c = powers.rho_c * moments.own_common / _guard_denominator(
        den_c, den_c, sigma2, "gamma_common"
    )
    l_min = int(np.argmin(g_c))
    prelog = config.prelog
    se_p = prelog * np.log2(1.0 + g_p)
    se_c = float(prelog * np.log2(1.0 + g_c[l_min]))
    return SEReport(
        gamma_private=g_p,
        gamma_common=g_c,
        l_min=l_min,
        se_private=se_p,
        se_common=se_c,
        sum_se=se_c + float(se_p.sum()),
        prelog=prelog,
    )
