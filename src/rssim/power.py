"""Interference-leakage-aware water-filling power allocation.

Sum spectral efficiency is maximized by budget-exact water-filling steps,
finished by Newton steps.  For the water-filling step each stream's rate
is split into log(signal-plus-interference) minus log(interference), the
non-concave second part and every other stream's sensitivity are
linearized at the current point, and the resulting separable concave
surrogate is solved exactly: the water-filling breakpoints give the
active set, and Newton's method on that set solves the Lagrange
multiplier of the total power budget, which every step spends.
Water-filling finds the active set within a few steps but then converges
only linearly.  At a fixed common bottleneck every rate is ln(num) -
ln(den) with num and den affine in the powers, so the sum SE has an exact
Hessian, and Newton steps on the KKT system of the active set finish the
run at a KKT point.

The coefficients come as arrays from ``linearization_terms``; ``rssim
validate`` checks the gradient they give and the Hessian against finite
differences.  Runs are not scored here; ``runner.allocate_drop`` scores them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .link import PowerVector, stream_denominators
from .moments import MomentTable
from .scenario import ScenarioConfig


@dataclass
class LinearizationTerms:
    """The first-order coefficients the allocator reads at one tentative power point.

    sigma1_* are the signal-power coefficients of the water-filling
    updates, sigma2_* the leakage coefficients: a stream's own-denominator
    response minus the (nonpositive) responses of every other stream's rate
    to its power, so a nonnegative leakage power.  gain_* are the
    own-signal coefficients over the current numerators, so gain - sigma2
    is the gradient of the sum of log-rates at a fixed common bottleneck,
    which ``rssim validate`` checks against finite differences.
    """

    sigma1_private: np.ndarray
    sigma2_private: np.ndarray
    sigma1_common: float
    sigma2_common: float
    gain_private: np.ndarray
    gain_common: float


@dataclass
class PowerAllocation:
    """The last iterate of one run, and whether any iterate gave the common stream power."""

    powers: PowerVector
    mu: float
    iterations: int
    converged: bool = False
    common_opened: bool = False


def linearization_terms(
    rho_hat: PowerVector, moments: MomentTable, sigma2: float, l_min: int | None
) -> LinearizationTerms:
    """Evaluate the linearization coefficients at one power point, with the
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

    # rate responses: alpha of each stream's own denominator, zeta[k, i] of
    # UE i's rate to beam k (zero on the diagonal, where alpha enters),
    # zeta_common[k] of the common rate to beam k, and zeta_private_common[i]
    # of UE i's rate to the common power
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
    sigma1_common = float(moments.G_common[l_min] / den_c_sig)
    alpha_common = float(delta_c[l_min] / den_c[l_min])
    zeta_private_common = delta_c * inv_gap
    sigma2_common = alpha_common - float(zeta_private_common.sum())

    return LinearizationTerms(
        sigma1_private=sigma1_private,
        sigma2_private=sigma2_private,
        sigma1_common=sigma1_common,
        sigma2_common=sigma2_common,
        gain_private=np.diagonal(G) / num_p,
        gain_common=moments.G_common[l_min] / num_c[l_min],
    )


def sum_se_hessian(rho_hat: PowerVector, moments: MomentTable, sigma2: float, l_min: int):
    """Exact Hessian of the sum of log-rates over the private powers, with
    the common rate at UE ``l_min``.

    Each rate is ln(num) - ln(den) with num and den affine in the powers,
    so H = sum_den c c^T / den^2 - sum_num a a^T / num^2 over their
    coefficient rows a and c.  The units are those of the gradient
    gain_private - sigma2_private; the sum SE is prelog / ln 2 times the
    sum of log-rates.  At rho_c = 0 the common rate is zero whatever the
    private powers, so its term drops out.
    """
    G = moments.G_private
    den_p, num_p, den_c, num_c = stream_denominators(rho_hat, moments, sigma2)
    C = G - np.diag(moments.own_private)  # the rows of den_p; those of num_p are G's
    H = (C.T / den_p**2) @ C - (G.T / num_p**2) @ G
    if rho_hat.rho_c > 0:
        H += np.outer(G[l_min], G[l_min]) * (1.0 / den_c[l_min] ** 2 - 1.0 / num_c[l_min] ** 2)
    return H


# water-filling and Newton steps of one run together
MAX_ITERATIONS = 200
# the stationarity residuals of a converged run, relative to the largest
# own-signal gain of its active streams
KKT_TOL = 1e-9
# iterates over which the active set must hold before Newton steps start
NEWTON_AFTER = 3
# step halvings a Newton step may take before the run falls back to water-filling
NEWTON_HALVINGS = 3
# the largest miss of the budget, relative to it, that a water-filling step may leave
BUDGET_RTOL = 1e-9


def ila_wf(moments: MomentTable, config: ScenarioConfig) -> PowerAllocation:
    """One allocation run: budget-exact water-filling, finished by active-set Newton steps.

    The budget and the noise power come from ``config``.  The run starts
    from no common power and a uniform private split, and linearizes each
    iterate once, at the bottleneck UE ``linearization_terms`` picks (at
    rho_c > 0, in exact arithmetic, ``se_report``'s).  Once the common
    stream is off and the set of private streams with power has held for
    ``NEWTON_AFTER`` iterates, and while the water-filling step keeps that
    set, the run takes Newton steps on the set's KKT system with the budget
    as an equality (Bertsekas, SIAM J. Control Optim. 1982).  The budget
    binds at every KKT point, since scaling all powers up raises every
    SINR.  Otherwise, or when the Newton step fails, the run takes the
    water-filling step, the only step that opens a stream.  Both steps
    keep the budget as an equality, so every iterate spends it; within a
    water-filling step the multiplier is negative where the linearized
    demand at zero price falls short of the budget.  It stops as
    converged when ``_kkt_test`` passes; after ``MAX_ITERATIONS`` steps it
    returns its last iterate with ``converged=False``.

    On a table without common weights the common stream never joins a
    step.  While it has no power a run reads no common-stream entry of its
    table, so a run that never opens it is, bit for bit, the run on the
    table without common weights.
    """
    rho_total, sigma2 = config.rho_total_mw, config.noise_mw

    def linearize(rc, r):
        """The linearization at an iterate and the water-filling step from it."""
        terms = linearization_terms(PowerVector(rc, r), moments, sigma2, None)
        return terms, _budget_exact_sweep(terms, rho_total)

    rho_c, rho = 0.0, np.full(moments.K, rho_total / moments.K)
    terms, water = linearize(rho_c, rho)
    held = 1
    opened = False
    for iteration in range(1, MAX_ITERATIONS + 1):
        new_c, new_rho, _ = water
        if held >= NEWTON_AFTER and rho_c == new_c == 0 and np.array_equal(new_rho > 0, rho > 0):
            step = _newton_step(terms, rho, moments, sigma2, rho_total)
            if step is not None:
                new_rho = step
        same_set = (new_c > 0) == (rho_c > 0) and np.array_equal(new_rho > 0, rho > 0)
        held = held + 1 if same_set else 1
        rho_c, rho = new_c, new_rho
        opened = opened or rho_c > 0
        terms, water = linearize(rho_c, rho)
        mu, converged = _kkt_test(terms, rho_c, rho, water[0] == 0)
        if converged:
            break

    return PowerAllocation(PowerVector(rho_c, rho), mu, iteration, converged, opened)


def _newton_step(terms, rho, moments, sigma2, rho_total):
    """One KKT Newton step on the private streams with power, at rho_c = 0.

    Solves [H_AA, -1; 1^T, 0] [d; dmu] = [mu 1 - g_A; rho_total - sum rho_A]
    with g = gain_private - sigma2_private and mu = mean(g_A), and halves d
    until every active power stays positive and the sum SE strictly rises,
    summed as log1p of the changes of the affine numerators and
    denominators, which keeps its sign where the sum SE would round to
    equal.  The current powers spend the budget, so every d sums to zero
    up to rounding and the new powers spend it too.  Returns them, or None.
    """
    active = rho > 0
    n = int(active.sum())
    point = PowerVector(0.0, rho)
    kkt = np.zeros((n + 1, n + 1))
    hess = sum_se_hessian(point, moments, sigma2, 0)  # any bottleneck: rho_c = 0
    kkt[:n, :n] = hess[np.ix_(active, active)]
    kkt[:n, n] = -1.0
    kkt[n, :n] = 1.0
    g = (terms.gain_private - terms.sigma2_private)[active]
    try:
        d = np.linalg.solve(kkt, np.append(g.mean() - g, rho_total - rho[active].sum()))[:n]
    except np.linalg.LinAlgError:
        return None
    G = moments.G_private
    den, num, _, _ = stream_denominators(point, moments, sigma2)
    t = 1.0
    for _ in range(NEWTON_HALVINGS + 1):
        move = np.zeros_like(rho)
        move[active] = t * d
        trial = rho + move
        if np.all(trial[active] > 0):
            shift = G @ move
            rise = np.log1p(shift / num) - np.log1p((shift - move * moments.own_private) / den)
            if rise.sum() > 0:
                return trial
        t *= 0.5
    return None


def _kkt_test(terms: LinearizationTerms, rho_c, rho, common_shut: bool):
    """The stopping test at one iterate; returns (mu, converged).

    mu is the mean gradient over the streams with power, clamped at zero.
    Every iterate spends the budget, so mu estimates the budget's
    multiplier, which is positive at a KKT point.  Converged means each
    such stream's g - mu is within KKT_TOL of their largest own-signal
    gain, no private stream without power has g above mu, and a common
    stream without power stays shut in the water-filling step
    (``common_shut``), whose private multiplier equals mu at a KKT point.
    """
    g = terms.gain_private - terms.sigma2_private
    active = rho > 0
    g_active, gains = g[active], terms.gain_private[active]
    if rho_c > 0:
        g_active = np.append(g_active, terms.gain_common - terms.sigma2_common)
        gains = np.append(gains, terms.gain_common)
    mu = max(float(g_active.mean()), 0.0) if g_active.size else 0.0
    converged = bool(
        np.all(np.abs(g_active - mu) <= KKT_TOL * gains.max(initial=0.0))
        and np.all(g[~active] <= mu)
        and (rho_c > 0 or common_shut)
    )
    return mu, converged


def _budget_exact_sweep(terms: LinearizationTerms, rho_total: float):
    """Water-fill one linearization with the multiplier solved exactly for the budget.

    The step spends the whole budget; its multiplier mu can be negative.
    The private streams are water-filled alone first.  The common stream
    joins only when its signal coefficient sigma1_c is positive and its
    breakpoint sigma1_c - slope_c lies above their multiplier; otherwise
    its level there is zero and the private solution is exact; a table
    without common weights has sigma1_c = 0, so its common stream never
    joins.  Returns (rho_c, rho, mu); raises NumericalError unless the
    levels spend the budget to within BUDGET_RTOL of it, which fails a
    budget so small against the floors 1/sigma1 that rounding dominates.
    """
    s1, s2 = terms.sigma1_private, terms.sigma2_private
    if np.any(s1 <= 0):
        raise ValueError(f"sigma1 must be positive, got {s1.min():.3e}")
    levels, mu = _water_fill(s1, s2, rho_total)
    rho_c = 0.0
    if terms.sigma1_common > 0 and terms.sigma1_common - max(terms.sigma2_common, 0.0) > mu:
        levels, mu = _water_fill(
            np.append(s1, terms.sigma1_common), np.append(s2, terms.sigma2_common), rho_total
        )
        rho_c, levels = float(levels[-1]), levels[:-1]
    # a level is the water level less 1/sigma1_k, so at a budget within a few
    # ulps of the floors 1/sigma1_k the levels are mostly rounding
    miss = abs(rho_c + levels.sum() - rho_total) / rho_total
    if not miss <= BUDGET_RTOL:
        raise NumericalError(
            f"a water-filling step misses the budget of {rho_total:.3e} mW by {miss:.3e} "
            "relative to it, as rounding dominates its levels"
        )
    return rho_c, levels, mu


def _water_fill(s1: np.ndarray, s2: np.ndarray, rho_total: float):
    """Budget-exact water-filling of streams with positive coefficients s1.

    Stream k fills to (1/(mu + slope_k) - 1/sigma1_k)^+, so it is active
    iff mu < b_k = sigma1_k - slope_k.  Above the floor -min slope_k the
    filled total is continuous and strictly decreasing in mu, from
    unbounded down to zero once every stream is off, so the budget has
    exactly one root there, negative where the total at mu = 0 falls short
    of the budget.  Evaluating the total at all breakpoints b_k above the
    floor at once gives the interval that holds the root and thereby the
    active set A; on it the root of
    sum_A 1/(mu + slope_k) = rho_total + sum_A 1/sigma1_k is found by
    Newton's method (Palomar & Fonollosa, IEEE TSP 2005).  Returns
    (levels, mu).
    """
    inv_s1 = 1.0 / s1
    slope = np.maximum(s2, 0.0)
    floor = -slope.min()
    # filled total at every breakpoint above the floor; streams with b_k at or
    # below it never open
    b = s1 - slope
    points = np.sort(b[b > floor])
    above = b[None, :] > points[:, None]
    at_points = np.where(above, 1.0 / (points[:, None] + slope) - inv_s1, 0.0).sum(axis=1)
    # totals fall with the breakpoint and the last one is 0, so the root lies
    # above the last breakpoint whose total still exceeds the budget
    exceeding = np.flatnonzero(at_points > rho_total)
    left = points[exceeding[-1]] if exceeding.size else floor
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
        if step <= 1e-15 * abs(mu):
            break
    return np.maximum(1.0 / (mu + slope) - inv_s1, 0.0), mu
