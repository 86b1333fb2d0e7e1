"""Interference-leakage-aware water-filling power allocation.

Sum spectral efficiency is maximized by alternating closed-form power
updates: each stream's rate is split into log(signal-plus-interference)
minus log(interference), the non-concave second part and every other
stream's sensitivity are linearized at the current point, and the
resulting concave single-variable problems have water-filling solutions.
A Lagrange multiplier enforcing the total power budget is driven by
bisection, one halving of the bracket per outer sweep.

The coefficients come as arrays from ``linearization_terms``, which
``rssim validate`` checks against finite differences; only the literal
phase's Gauss-Seidel sweep evaluates them stream by stream.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .link import PowerVector, common_channel_variance, se_report, stream_denominators
from .moments import MomentTable
from .scenario import ScenarioConfig


@dataclass
class IlaWfOptions:
    """Solver knobs; defaults follow the standard run configuration."""

    max_iterations: int = 200
    se_tol: float = 1e-4          # bits/s/Hz change per outer iteration
    power_tol: float = 1e-9       # relative power movement at convergence
    budget_tol: float = 1e-6      # allowed relative budget violation
    mu_upper: float = 1e5         # initial multiplier bracket top, 1/mW
    nested_bisection: bool = False
    freeze_common: bool = False   # pin rho_c to 0 (baseline without rate splitting)


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
    leakage power.
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
    rho_hat: PowerVector
    l_min: int


@dataclass
class IterationRecord:
    iteration: int
    rho_c: float
    rho: np.ndarray
    total: float
    sum_se: float
    mu: float
    mu_low: float
    mu_high: float
    feasible: bool


@dataclass
class PowerAllocation:
    powers: PowerVector
    mu: float
    iterations: int
    trace: list = field(default_factory=list)
    converged: bool = False
    l_min: int = 0


def waterfill(mu: float, sigma1: float, sigma2: float) -> float:
    """Clamped water-filling level (1/(mu + sigma2) - 1/sigma1)^+."""
    if sigma1 <= 0:
        raise ValueError(f"sigma1 must be positive, got {sigma1:.3e}")
    level = mu + sigma2
    if level <= 0:
        raise NumericalError(
            f"invalid water-filling slope mu + sigma2 = {level:.3e}; "
            "restart from the previous feasible point"
        )
    return max(1.0 / level - 1.0 / sigma1, 0.0)


def linearization_terms(
    rho_hat: PowerVector, moments: MomentTable, sigma2: float, l_min: int
) -> LinearizationTerms:
    """Evaluate every linearization coefficient at one power point."""
    G = moments.G_private
    own = np.abs(moments.g_private) ** 2
    delta_c = common_channel_variance(moments)
    den_p, num_p, den_c, num_c = stream_denominators(rho_hat, moments, sigma2)

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
        rho_hat=PowerVector(rho_hat.rho_c, rho_hat.rho.copy()),
        l_min=l_min,
    )


def _private_update_terms(k, rho_c, rho, moments, sigma2, l_min):
    """sigma1/sigma2 of beam k at the current (possibly mid-sweep) point."""
    powers = PowerVector(rho_c, rho)
    G = moments.G_private
    own = np.abs(moments.g_private[k]) ** 2
    delta_c = common_channel_variance(moments)
    den_p, num_p, den_c, num_c = stream_denominators(powers, moments, sigma2)
    den_sig = sigma2 + rho_c * delta_c[k] + float(G[k] @ rho) - rho[k] * G[k, k]
    s1 = G[k, k] / den_sig
    alpha_k = (G[k, k] - own) / den_p[k]
    inv_gap = 1.0 / num_p - 1.0 / den_p
    zeta_sum = float(G[:, k] @ inv_gap) - G[k, k] * inv_gap[k]
    gap_c = 1.0 / num_c[l_min] - 1.0 / den_c[l_min]
    s2 = alpha_k - G[l_min, k] * gap_c - zeta_sum
    return float(s1), float(s2)


def _common_update_terms(rho_c, rho, moments, sigma2, l_min):
    powers = PowerVector(rho_c, rho)
    delta_c = common_channel_variance(moments)
    den_p, num_p, den_c, _ = stream_denominators(powers, moments, sigma2)
    den_sig = sigma2 + float(moments.G_private[l_min] @ rho)
    s1 = moments.G_common[l_min] / den_sig
    inv_gap = 1.0 / num_p - 1.0 / den_p
    s2 = delta_c[l_min] / den_c[l_min] - float(delta_c @ inv_gap)
    return float(s1), float(s2)


def stationarity_residuals(powers: PowerVector, mu: float, moments: MomentTable, sigma2: float):
    """First-order optimality residuals at a power point.

    For every strictly positive power the water-filling fixed point makes
    signal_coefficient / num - sigma2_coefficient - mu vanish; returns the
    private residual vector and the common residual (None when rho_c = 0).
    """
    _, num_p, _, num_c = stream_denominators(powers, moments, sigma2)
    l_min = _bottleneck(powers.rho_c, powers.rho, moments, sigma2) if powers.rho_c > 0 else 0
    terms = linearization_terms(powers, moments, sigma2, l_min)
    res_private = np.diagonal(moments.G_private) / num_p - terms.sigma2_private - mu
    res_common = None
    if powers.rho_c > 0:
        res_common = float(moments.G_common[l_min] / num_c[l_min] - terms.sigma2_common - mu)
    return res_private, res_common


def _bottleneck(rho_c, rho, moments, sigma2) -> int:
    powers = PowerVector(rho_c, rho)
    den_c = stream_denominators(powers, moments, sigma2)[2]
    gammas = rho_c * np.abs(moments.g_common) ** 2 / den_c
    return int(np.argmin(gammas))


def ila_wf(
    moments: MomentTable,
    rho_total: float,
    sigma2: float,
    config: ScenarioConfig,
    options: IlaWfOptions | None = None,
) -> PowerAllocation:
    """Run the alternating water-filling allocation to a stationary point.

    With the common stream enabled, the split with no common power is
    always a feasible competitor and both runs are solved.  The joint run
    wins only if it converged and either the pinned run did not or it keeps
    the common stream on at a strictly higher sum SE, so the two modes
    coincide exactly (powers and iterations) when rate splitting brings nothing.
    """
    opts = options or IlaWfOptions()
    if opts.freeze_common:
        return _ila_wf_run(moments, rho_total, sigma2, config, opts)
    baseline = _ila_wf_run(
        moments, rho_total, sigma2, config, replace(opts, freeze_common=True)
    )
    joint = _ila_wf_run(moments, rho_total, sigma2, config, opts)
    baseline_se = se_report(baseline.powers, moments, config).sum_se
    joint_se = se_report(joint.powers, moments, config).sum_se
    if joint.converged and (
        not baseline.converged or (joint.powers.rho_c > 0 and joint_se > baseline_se)
    ):
        return joint
    return baseline


def _ila_wf_run(
    moments: MomentTable,
    rho_total: float,
    sigma2: float,
    config: ScenarioConfig,
    options: IlaWfOptions | None = None,
) -> PowerAllocation:
    """One allocation run: the literal alternating schedule, then a polish.

    The literal phase starts from no common power and a uniform private
    split, sweeps the private powers one by one and then the common power,
    and halves the multiplier bracket [0, mu_upper] once per sweep against
    the budget.  That schedule traces the prescribed path but its
    multiplier lags the moving linearization point, so once its stop rule
    fires (or half of the iteration budget is spent) a polish phase takes
    over: relinearize at the current point and solve the budget-constrained
    surrogate exactly by bisecting the multiplier to completion, repeated
    until the powers stop moving.  The polish endpoint is a water-filling
    fixed point, which makes the first-order stationarity residuals
    vanish.  When the joint polish hits a limit cycle of the common stream
    the run falls back to the pinned-common subproblem, and if nothing
    settles the best feasible iterate is returned with ``converged=False``.
    """
    opts = options or IlaWfOptions()
    K = moments.K
    rho = np.full(K, rho_total / K)
    rho_c = 0.0
    mu_low, mu_high = 0.0, opts.mu_upper
    mu = 0.5 * (mu_low + mu_high)
    l_min = 0

    def summarize(it, rc, r, mu_used, lo, hi):
        report = se_report(PowerVector(rc, r.copy()), moments, config)
        total = rc + r.sum()
        feasible = total <= rho_total * (1.0 + opts.budget_tol)
        return IterationRecord(
            iteration=it, rho_c=rc, rho=r.copy(), total=total,
            sum_se=report.sum_se, mu=mu_used, mu_low=lo, mu_high=hi,
            feasible=feasible,
        ), report

    trace = []
    record, report = summarize(0, rho_c, rho, mu, mu_low, mu_high)
    trace.append(record)
    best_se, best_powers, best_mu, best_lmin = record.sum_se, (rho_c, rho.copy()), mu, report.l_min
    prev_se = record.sum_se
    converged = False
    mu_used = mu
    iteration = 0
    literal_budget = opts.max_iterations if opts.nested_bisection is False else 0
    literal_budget = min(literal_budget, opts.max_iterations // 2)

    for iteration in range(1, literal_budget + 1):
        mu_used = mu
        for k in range(K):
            s1, s2 = _private_update_terms(k, rho_c, rho, moments, sigma2, l_min)
            try:
                rho[k] = waterfill(mu, s1, s2)
            except NumericalError:
                pass  # keep the previous feasible value of this stream
        if not opts.freeze_common:
            s1c, s2c = _common_update_terms(rho_c, rho, moments, sigma2, l_min)
            if s1c > 0:
                try:
                    rho_c = waterfill(mu, s1c, s2c)
                except NumericalError:
                    pass
        total = rho_c + rho.sum()
        if total > rho_total:
            mu_low = mu
        else:
            mu_high = mu
        if total > rho_total * (1.0 + opts.budget_tol) and (mu_high - mu_low) < 1e-12 * max(
            mu_high, 1.0
        ):
            mu_high *= 2.0  # bracket top was too low (unit mismatch guard)
        mu = 0.5 * (mu_low + mu_high)
        if not opts.freeze_common:
            l_min = _bottleneck(rho_c, rho, moments, sigma2)
        record, report = summarize(iteration, rho_c, rho, mu_used, mu_low, mu_high)
        trace.append(record)
        if record.feasible and record.sum_se > best_se:
            best_se, best_powers, best_mu, best_lmin = (
                record.sum_se, (rho_c, rho.copy()), mu_used, report.l_min,
            )
        if abs(record.sum_se - prev_se) < opts.se_tol and record.feasible:
            break
        prev_se = record.sum_se

    # the polish phase refines the most promising feasible point seen so far;
    # the literal schedule can wander far below the budget when the bracket
    # outruns the moving linearization point
    if best_se > record.sum_se:
        rho_c, rho = best_powers[0], best_powers[1].copy()
        if not opts.freeze_common:
            l_min = _bottleneck(rho_c, rho, moments, sigma2)
        prev_se = best_se

    def polish(rc, r, lm, freeze, start, stop, start_se):
        """Damped fixed-point iteration of the budget-exact sweep.

        Damping guards against open/close limit cycles of the common
        stream without changing the fixed points.  Returns
        (converged, rc, r, mu, last_report, last_iteration).
        """
        nonlocal best_se, best_powers, best_mu, best_lmin, trace
        eta = 1.0
        local_prev_se = start_se
        mu_star = 0.0
        rep = None
        it = start
        older_point = None
        for it in range(start, stop + 1):
            prev_point = np.concatenate([[rc], r])
            new_c, new_rho, mu_star = _budget_exact_sweep(
                rc, r, moments, sigma2, rho_total, lm, opts, freeze
            )
            raw_move = np.abs(np.concatenate([[new_c], new_rho]) - prev_point).max() / max(
                rho_total, 1e-300
            )
            if older_point is not None and raw_move > 1e-6:
                cycle_gap = np.abs(np.concatenate([[new_c], new_rho]) - older_point).max() / max(
                    rho_total, 1e-300
                )
                if cycle_gap < 1e-9:
                    return False, rc, r, mu_star, rep, it  # period-2 limit cycle
            older_point = prev_point
            rc = (1.0 - eta) * rc + eta * new_c
            r = (1.0 - eta) * r + eta * new_rho
            if not freeze:
                lm = _bottleneck(rc, r, moments, sigma2)
            rec, rep = summarize(it, rc, r, mu_star, mu_star, mu_star)
            trace.append(rec)
            if rec.feasible and rec.sum_se > best_se:
                best_se, best_powers, best_mu, best_lmin = (
                    rec.sum_se, (rc, r.copy()), mu_star, rep.l_min,
                )
            if rec.sum_se < local_prev_se - opts.se_tol:
                eta = max(0.125, 0.5 * eta)
            else:
                eta = min(1.0, 1.5 * eta)
            settled = raw_move < opts.power_tol
            if not settled and mu_star > 0 and rec.feasible:
                # slow drift along a flat ridge: accept on the first-order
                # residuals directly rather than waiting for exact rest
                res_p, res_c = stationarity_residuals(
                    PowerVector(rc, r.copy()), mu_star, moments, sigma2
                )
                worst = np.abs(res_p[r > 0]).max() if np.any(r > 0) else 0.0
                if res_c is not None:
                    worst = max(worst, abs(res_c))
                settled = worst <= 1e-5 * mu_star
            if settled and abs(rec.sum_se - local_prev_se) < opts.se_tol and rec.feasible:
                return True, rc, r, mu_star, rep, it
            local_prev_se = rec.sum_se
        return False, rc, r, mu_star, rep, it

    converged, rho_c, rho, mu_used, report, iteration = polish(
        rho_c, rho, l_min, opts.freeze_common, iteration + 1,
        iteration + opts.max_iterations, prev_se,
    )
    if not converged and not opts.freeze_common:
        # No joint fixed point reachable (the common stream flips between
        # opening and closing around a bottleneck switch).  Pin it to zero,
        # where its nonnegativity constraint is active and no first-order
        # residual applies, and settle the private subsystem instead.
        converged, rho_c, rho, mu_used, report, iteration = polish(
            0.0, best_powers[1].copy(), 0, True, iteration + 1,
            iteration + max(opts.max_iterations, 50), best_se,
        )

    if converged:
        powers = PowerVector(rho_c, rho.copy())
        final_lmin = report.l_min
        final_mu = mu_used
    else:
        powers = PowerVector(best_powers[0], best_powers[1].copy())
        final_mu = best_mu
        final_lmin = best_lmin
    return PowerAllocation(
        powers=powers,
        mu=final_mu,
        iterations=iteration,
        trace=trace,
        converged=converged,
        l_min=final_lmin,
    )


def _budget_exact_sweep(rho_c, rho, moments, sigma2, rho_total, l_min, opts, freeze_common):
    """One linearization with the multiplier bisected to the exact budget.

    The coefficients come from one linearization_terms call and each trial
    multiplier water-fills all streams as one array.  The surrogate is
    separable and concave, so for fixed coefficients the water-filled total
    is nonincreasing in mu and the budget root is unique.  Returns (rho_c, rho, mu).
    """
    K = len(rho)
    terms = linearization_terms(PowerVector(rho_c, rho), moments, sigma2, l_min)
    s1, s2 = terms.sigma1_private, terms.sigma2_private
    if np.any(s1 <= 0):
        raise ValueError(f"sigma1 must be positive, got {s1.min():.3e}")
    common = not freeze_common and terms.sigma1_common > 0
    if common:  # the common stream rides along as entry K
        s1 = np.append(s1, terms.sigma1_common)
        s2 = np.append(s2, terms.sigma2_common)
    inv_s1 = 1.0 / s1
    slope = np.maximum(s2, 0.0)

    def fill(mu):
        return np.maximum(1.0 / (mu + slope) - inv_s1, 0.0)

    def total(levels):
        return levels[K] + levels[:K].sum() if common else levels.sum()

    with np.errstate(divide="ignore"):
        levels = fill(0.0)
    levels[slope == 0] = 10.0 * rho_total  # zero slope at zero price: unbounded demand
    mu = 0.0  # stays zero when the budget is slack even at zero price
    if total(levels) > rho_total:
        lo, hi = 0.0, opts.mu_upper
        while total(fill(hi)) > rho_total and hi < 1e15:
            hi *= 2.0
        for _ in range(500):
            mid = 0.5 * (lo + hi)
            if total(fill(mid)) > rho_total:
                lo = mid
            else:
                hi = mid
            if (hi - lo) < 1e-14 * max(hi, 1e-300):
                break
        levels, mu = fill(hi), hi
    return (float(levels[K]) if common else 0.0), levels[:K], mu
