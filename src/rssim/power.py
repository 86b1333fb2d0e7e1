"""Interference-leakage-aware water-filling power allocation.

Sum spectral efficiency is maximized by fixed-point iteration of one
budget-exact water-filling step: each stream's rate is split into
log(signal-plus-interference) minus log(interference), the non-concave
second part and every other stream's sensitivity are linearized at the
current point, and the resulting separable concave surrogate is solved
exactly in every iteration: the water-filling breakpoints give the active
set, and Newton's method on that set solves the Lagrange multiplier of the
total power budget.  A fixed point of that step is a first-order
stationary point of the sum SE.

The coefficients come as arrays from ``linearization_terms``, which
``rssim validate`` checks against finite differences.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .link import PowerVector, se_report, stream_denominators
from .moments import MomentTable
from .scenario import ScenarioConfig

@dataclass
class IlaWfOptions:
    """Solver knobs; defaults follow the standard run configuration."""

    max_iterations: int = 200
    se_tol: float = 1e-4          # bits/s/Hz change per outer iteration
    power_tol: float = 1e-9       # relative power movement at convergence

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        for name in ("se_tol", "power_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class LinearizationTerms:
    """All first-order coefficients at one tentative power point.

    sigma1_* are the signal-power coefficients of the water-filling
    updates, sigma2_* the leakage coefficients.  zeta[k, i] is the response
    of UE i's rate to the power of beam k (zero on the diagonal; the own
    response enters through alpha instead), zeta_common[k] the response of
    the common rate to beam k, and zeta_private_common[i] the response of
    UE i's rate to the common power.  The zeta responses are nonpositive;
    sigma2 aggregates alpha minus the zeta sums, so it is a nonnegative
    leakage power.  gain_* are the own-signal coefficients over the
    current numerators, the first terms of the stationarity residuals.
    """

    sigma1_private: np.ndarray
    sigma2_private: np.ndarray
    sigma1_common: float
    sigma2_common: float
    alpha_private: np.ndarray
    zeta: np.ndarray
    zeta_common: np.ndarray
    alpha_common: float
    zeta_private_common: np.ndarray
    gain_private: np.ndarray
    gain_common: float


@dataclass
class IterationRecord:
    iteration: int
    rho_c: float
    rho: np.ndarray
    sum_se: float
    mu: float


@dataclass
class PowerAllocation:
    powers: PowerVector
    mu: float
    iterations: int
    trace: list = field(default_factory=list)
    converged: bool = False
    l_min: int = 0

    @property
    def common_opened(self) -> bool:
        """Whether any iterate of the run gave the common stream power."""
        return any(record.rho_c > 0 for record in self.trace)

    def beats(self, baseline: "PowerAllocation") -> bool:
        """The tie rule: this run wins over ``baseline`` only if it converged
        and either the baseline did not converge or this run ends with common
        power at a strictly higher last-iterate sum SE."""
        return self.converged and (
            not baseline.converged
            or (self.powers.rho_c > 0 and self.trace[-1].sum_se > baseline.trace[-1].sum_se)
        )


def linearization_terms(
    rho_hat: PowerVector, moments: MomentTable, sigma2: float, l_min: int | None
) -> LinearizationTerms:
    """Evaluate every linearization coefficient at one power point, with the
    common rate linearized at UE ``l_min``; ``None`` takes the bottleneck
    argmin_k |g_c,k|^2 / den_c,k, also its rho_c -> 0 limit."""
    G = moments.G_private
    own = moments.own_private
    delta_c = moments.common_variance
    den_p, num_p, den_c, num_c = stream_denominators(rho_hat, moments, sigma2)
    if l_min is None:
        l_min = int(np.argmin(moments.own_common / den_c))

    # leakage-free denominators of the signal-power coefficients
    rx = G @ rho_hat.rho
    den_sig = sigma2 + rho_hat.rho_c * delta_c + rx - rho_hat.rho * np.diagonal(G)
    sigma1_private = np.diagonal(G) / den_sig

    alpha_private = (np.diagonal(G) - own) / den_p
    inv_gap = 1.0 / num_p - 1.0 / den_p  # <= 0, zero where rho_hat.rho is zero
    zeta = G.T * inv_gap[None, :]        # zeta[k, i] = G[i, k] * gap_i
    np.fill_diagonal(zeta, 0.0)
    gap_c = 1.0 / num_c[l_min] - 1.0 / den_c[l_min]
    zeta_common = G[l_min, :] * gap_c
    # zeta terms are rate responses (nonpositive); the leakage sum collects
    # their magnitudes, otherwise cross-stream interference would subsidize
    # power instead of taxing it
    sigma2_private = alpha_private - zeta_common - zeta.sum(axis=1)

    den_c_sig = sigma2 + rx[l_min]
    sigma1_common = float(moments.G_common[l_min] / den_c_sig) if den_c_sig > 0 else 0.0
    alpha_common = float(delta_c[l_min] / den_c[l_min])
    zeta_private_common = delta_c * inv_gap
    sigma2_common = alpha_common - float(zeta_private_common.sum())

    return LinearizationTerms(
        sigma1_private=sigma1_private,
        sigma2_private=sigma2_private,
        sigma1_common=sigma1_common,
        sigma2_common=sigma2_common,
        alpha_private=alpha_private,
        zeta=zeta,
        zeta_common=zeta_common,
        alpha_common=alpha_common,
        zeta_private_common=zeta_private_common,
        gain_private=np.diagonal(G) / num_p,
        gain_common=moments.G_common[l_min] / num_c[l_min],
    )


def stationarity_residuals(powers: PowerVector, mu: float, moments: MomentTable, sigma2: float):
    """First-order optimality residuals at a power point.

    For every strictly positive power the water-filling fixed point makes
    signal_coefficient / num - sigma2_coefficient - mu vanish; returns the
    private residual vector and the common residual (None when rho_c = 0).
    """
    return _residuals(linearization_terms(powers, moments, sigma2, None), mu, powers.rho_c)


def _residuals(terms: LinearizationTerms, mu: float, rho_c: float):
    """``stationarity_residuals`` on the linearization ``terms`` of a point
    with common power ``rho_c``."""
    res_common = float(terms.gain_common - terms.sigma2_common - mu) if rho_c > 0 else None
    return terms.gain_private - terms.sigma2_private - mu, res_common


def ila_wf(
    moments: MomentTable,
    rho_total: float,
    sigma2: float,
    config: ScenarioConfig,
    options: IlaWfOptions | None = None,
) -> PowerAllocation:
    """One allocation run: undamped fixed-point iteration of the budget-exact step.

    The run starts from no common power and a uniform private split.  Each
    iteration relinearizes at the current point and moves to the exact
    solution of the budget-constrained surrogate.  The run stops as
    converged once the powers rest, or the first-order stationarity
    residuals vanish, with the sum SE settled.  At the iteration cap it
    returns its last iterate with ``converged=False``.

    On a table without common weights the common stream never joins a
    step.  While it has no power a run reads no common-stream entry of its
    table, so a run that never opens it is, bit for bit, the run on the
    table without common weights.
    """
    opts = options or IlaWfOptions()
    rho_c, rho = 0.0, np.full(moments.K, rho_total / moments.K)

    def summarize(it, rc, r, mu):
        """Record an iterate, with its SE report and the linearization
        that both the stationarity check and the next step read."""
        point = PowerVector(rc, r)
        report = se_report(point, moments, config)
        terms = linearization_terms(point, moments, sigma2, report.l_min if rc > 0 else None)
        record = IterationRecord(iteration=it, rho_c=rc, rho=r.copy(), sum_se=report.sum_se, mu=mu)
        return record, report, terms

    record, report, terms = summarize(0, rho_c, rho, 0.0)
    trace = [record]
    prev_se = record.sum_se
    scale = max(rho_total, 1e-300)
    mu = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, opts.max_iterations + 1):
        new_c, new_rho, mu = _budget_exact_sweep(terms, rho_total)
        move = max(abs(new_c - rho_c), np.abs(new_rho - rho).max()) / scale
        rho_c, rho = new_c, new_rho
        record, report, terms = summarize(iteration, rho_c, rho, mu)
        trace.append(record)
        settled = move < opts.power_tol
        if not settled and mu > 0:
            # slow drift along a flat ridge: accept on the first-order
            # residuals directly rather than waiting for exact rest
            res_p, res_c = _residuals(terms, mu, rho_c)
            worst = np.abs(res_p[rho > 0]).max() if np.any(rho > 0) else 0.0
            if res_c is not None:
                worst = max(worst, abs(res_c))
            settled = worst <= 1e-5 * mu
        if settled and abs(record.sum_se - prev_se) < opts.se_tol:
            converged = True
            break
        prev_se = record.sum_se

    return PowerAllocation(
        powers=PowerVector(rho_c, rho.copy()), mu=mu, iterations=iteration,
        trace=trace, converged=converged, l_min=report.l_min,
    )


def _budget_exact_sweep(terms: LinearizationTerms, rho_total: float):
    """Water-fill one linearization with the multiplier solved exactly for the budget.

    The private streams are water-filled alone first.  The common stream
    joins only when its breakpoint sigma1_c - slope_c lies above their
    multiplier; otherwise its level there is zero and the private solution
    is exact; a table without common weights has sigma1_c = 0, so its
    common stream never joins.  Returns (rho_c, rho, mu).
    """
    s1, s2 = terms.sigma1_private, terms.sigma2_private
    if np.any(s1 <= 0):
        raise ValueError(f"sigma1 must be positive, got {s1.min():.3e}")
    levels, mu = _water_fill(s1, s2, rho_total)
    if terms.sigma1_common - max(terms.sigma2_common, 0.0) <= mu:
        return 0.0, levels, mu
    levels, mu = _water_fill(
        np.append(s1, terms.sigma1_common), np.append(s2, terms.sigma2_common), rho_total
    )
    return float(levels[-1]), levels[:-1], mu


def _water_fill(s1: np.ndarray, s2: np.ndarray, rho_total: float):
    """Budget-exact water-filling of streams with positive coefficients s1.

    Stream k fills to (1/(mu + slope_k) - 1/sigma1_k)^+, so it is active
    iff mu < b_k = sigma1_k - slope_k, and the filled total is continuous
    and strictly decreasing in mu until every stream is off.  Evaluating it
    at all breakpoints b_k at once gives the interval that holds the budget
    root and thereby the active set A; on it the root of
    sum_A 1/(mu + slope_k) = rho_total + sum_A 1/sigma1_k is found by
    Newton's method (Palomar & Fonollosa, IEEE TSP 2005).  Returns
    (levels, mu).
    """
    inv_s1 = 1.0 / s1
    slope = np.maximum(s2, 0.0)

    def fill(mu):
        return np.maximum(1.0 / (mu + slope) - inv_s1, 0.0)

    with np.errstate(divide="ignore"):
        levels = fill(0.0)
    levels[slope == 0] = 10.0 * rho_total  # zero slope at zero price: unbounded demand
    mu = 0.0  # stays zero when the budget is slack even at zero price
    if levels.sum() > rho_total:
        # filled total at every positive breakpoint; streams with b_k <= 0 never open
        b = s1 - slope
        points = np.sort(b[b > 0])
        above = b[None, :] > points[:, None]
        at_points = np.where(above, 1.0 / (points[:, None] + slope) - inv_s1, 0.0).sum(axis=1)
        # totals fall with the breakpoint and the last one is 0, so the root lies
        # above the last breakpoint whose total still exceeds the budget
        exceeding = np.flatnonzero(at_points > rho_total)
        left = points[exceeding[-1]] if exceeding.size else 0.0
        active = b > left
        slope_a = slope[active]
        demand = rho_total + inv_s1[active].sum()
        # the one-stream bound 1/(mu + min slope) >= demand holds below the root;
        # the sum is convex and decreasing, so Newton rises monotonically from there
        mu = max(left, 1.0 / demand - slope_a.min())
        for _ in range(100):
            inv = 1.0 / (mu + slope_a)
            step = (inv.sum() - demand) / (inv @ inv)
            mu += step
            if step <= 1e-15 * mu:
                break
        levels = fill(mu)
    return levels, mu
