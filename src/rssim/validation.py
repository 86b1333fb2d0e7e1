"""Cross-validation of every closed form against an independent oracle.

Each check pairs a closed-form quantity with a brute-force or Monte Carlo
estimate that shares no code with the path it validates: sample means for
the moment tables, sample covariances of the estimates against products
from a solve on the explicitly formed observation covariance Q, a simplex
grid search for the weight program, central finite differences for the
sum-SE gradient and Hessian, and the fourth-moment vote for the quartic
variant.  Every Monte Carlo mean, its standard error and its z-scores come
from one streaming accumulator, ``linalg.SampleMean``, which no
closed-form path reads.  The report lists one pass/fail line per check
with the measured error.
"""

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
from scipy.linalg.blas import zherk

from .errors import ConfigError
from .estimation import EstimationModel, build_estimation_model, simulate_batch
from .linalg import SampleMean, batch_sizes
from .moments import (
    QUARTIC_Z_LIMIT,
    MomentTable,
    closed_form_moments,
    common_norm_squared,
    select_quartic_variant,
)
from .power import PowerVector, linearization_terms, sum_se_hessian
from .precoding import (
    CommonWeightProblem,
    build_common_weight_problem,
    common_precoder,
    solve_common_weights,
)
from .scenario import CovarianceSet, ScenarioConfig, generate_scenario

REL_TOL = 0.02
N_SE = 4.0
# realizations per draw of the Monte Carlo oracles; the draw size fixes
# the random stream
MC_BATCH = 20_000


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name}: measured {self.measured:.3e} (limit {self.limit:.3e})"
        if self.detail:
            line += f" -- {self.detail}"
        return line


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        verdict = "ALL CHECKS PASSED" if self.passed else "VALIDATION FAILURES PRESENT"
        return "\n".join(lines + [verdict])


def tolerance_excess(closed, mc, se):
    """|closed - mc| over the combined tolerance
    max(REL_TOL*|closed|, N_SE*se).

    Values <= 1 pass.  Entries where both sides vanish contribute zero.
    """
    closed = np.asarray(closed)
    mc = np.asarray(mc)
    se = np.asarray(se)
    tol = np.maximum(REL_TOL * np.abs(closed), N_SE * se)
    return np.abs(closed - mc) / np.maximum(tol, 1e-300)


def mc_moment_table(model: EstimationModel, n: int, rng: np.random.Generator, weights):
    """Streaming Monte Carlo moment table of the MR private beams and the
    common beam with the given weights, plus precoder-norm statistics.

    Returns (MomentTable, info).  info carries the standard errors of the
    table's entries under "se", keyed by field name, and the empirical mean
    squared norms of every precoder.  Each draw's truth channels are
    conjugated in place, so the inner products h_k^H hhat_i are one batched
    product with no conjugated copy.  The common beam's, h_k^H w_c, are
    those inner products weighted by w / sqrt(tr(Phi_w)); the
    per-realization common beams are formed only for their squared norms.
    """
    sqrt_phi = np.sqrt(model.phi_trace)
    weights = np.asarray(weights, dtype=float)
    scaled_weights = weights / np.sqrt(common_norm_squared(weights, model))

    # h_k^H hhat_i and |h_k^H hhat_i|^2; the same for the common precoder w_c
    hat, hat_sq, common, common_sq = (SampleMean() for _ in range(4))
    sum_norm = np.zeros(model.K)
    sum_c_norm = 0.0
    for m in batch_sizes(n, MC_BATCH):
        batch = simulate_batch(model, m, rng)
        np.conjugate(batch.h, out=batch.h)
        inner_hat = batch.h @ batch.h_hat.transpose(0, 2, 1)  # (m, K, K), h_k^H hhat_i
        hat.add(inner_hat)
        hat_sq.add(np.abs(inner_hat) ** 2)
        h_hat_f = batch.h_hat.view(float)  # (m, K, 2M)
        sum_norm += np.einsum("nkj,nkj->k", h_hat_f, h_hat_f)
        inner_c = inner_hat @ scaled_weights
        common.add(inner_c)
        common_sq.add(np.abs(inner_c) ** 2)
        w_c = common_precoder(weights, batch, model)
        sum_c_norm += np.vdot(w_c, w_c).real

    table = MomentTable(
        g_private=np.diagonal(hat.mean) / sqrt_phi,
        G_private=hat_sq.mean / sqrt_phi[None, :] ** 2,
        g_common=common.mean,
        G_common=common_sq.mean,
    )
    se = {
        "g_private": np.diagonal(hat.se) / sqrt_phi,
        "G_private": hat_sq.se / sqrt_phi[None, :] ** 2,
        "g_common": common.se,
        "G_common": common_sq.se,
    }
    info = {
        "se": se,
        "norm_private": sum_norm / (n * model.phi_trace),  # E||w_k||^2 for MR beams
        "norm_common": sum_c_norm / n,
    }
    return table, info


def worst_moment_excess(closed: MomentTable, mc: MomentTable, se: dict) -> float:
    """Largest ``tolerance_excess`` over the four entries of a moment table,
    with the Monte Carlo standard errors ``se`` keyed by field name."""
    return max(
        float(tolerance_excess(getattr(closed, name), getattr(mc, name), se[name]).max())
        for name in se
    )


def mc_estimation_stats(model: EstimationModel, n: int, rng: np.random.Generator):
    """Empirical estimate cross-covariances E[hhat_i hhat_k^H] under "cross"
    and error covariances E[htilde_i htilde_i^H] under "err", with the error
    htilde = h - hhat formed in place of each draw's truth channels.

    Each draw's (n, K M) rows, transposed, are a column-major (K M, n)
    matrix, so both sums are Hermitian rank-n updates (``zherk``) of one
    (K M, K M) accumulator each, upper triangles only; the lower triangles
    are filled once, at the end, and "err" keeps the diagonal blocks.
    """
    K, M = model.K, model.M
    cross = np.zeros((K * M, K * M), dtype=complex, order="F")
    err = np.zeros((K * M, K * M), dtype=complex, order="F")
    for m in batch_sizes(n, MC_BATCH):
        batch = simulate_batch(model, m, rng)
        zherk(1.0, batch.h_hat.reshape(m, K * M).T, beta=1.0, c=cross, overwrite_c=1)
        h_tilde = np.subtract(batch.h, batch.h_hat, out=batch.h)
        zherk(1.0, h_tilde.reshape(m, K * M).T, beta=1.0, c=err, overwrite_c=1)

    def blocks(upper):
        """The (K, K, M, M) blocks of the Hermitian matrix with this upper
        triangle, divided by n."""
        full = (upper + np.triu(upper, 1).conj().T) / n
        return full.reshape(K, M, K, M).transpose(0, 2, 1, 3)

    ues = np.arange(K)
    return {"cross": blocks(cross), "err": blocks(err)[ues, ues]}


def explicit_cross_covariances(cov: CovarianceSet, rho_tr: float) -> np.ndarray:
    """R_i Q^{-1} R_k for every pair (i, k), as a (K, K, M, M) array, from
    ``np.linalg.solve`` on the explicitly formed Q = sum_k R_k + I / rho_tr.

    It shares no code with the estimation model's factor of Q or its W, from
    which the Monte Carlo estimates are formed.
    """
    Q = cov.R.sum(axis=0) + np.eye(cov.M) / rho_tr
    return cov.R[:, None] @ np.linalg.solve(Q, cov.R)[None, :]


def relative_frobenius(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def well_conditioned_covariances(K: int, M: int, rng: np.random.Generator) -> CovarianceSet:
    """Exponential-correlation covariances with moderate condition numbers,
    for checks that need invertible matrices."""
    R = np.empty((K, M, M), dtype=complex)
    idx = np.subtract.outer(np.arange(M), np.arange(M))
    for k in range(K):
        beta = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.2, 0.6)
        theta = rng.uniform(0, 2 * np.pi)
        R[k] = beta * (r ** np.abs(idx)) * np.exp(1j * theta * idx)
    return CovarianceSet(R=R)


def colinearity_identity_error(model: EstimationModel, n: int, rng: np.random.Generator) -> float:
    """Worst per-realization relative error of hhat_i = R_i R_k^{-1} hhat_k
    over all ordered UE pairs.  Every R_k must be invertible: a covariance
    with condition number above 1e8 raises ValueError naming its UE."""
    batch = simulate_batch(model, n, rng)
    worst = 0.0
    for k in range(model.K):
        r_k = model.cov.R[k]
        cond = np.linalg.cond(r_k)
        if cond > 1e8:
            raise ValueError(f"UE {k}: cond(R_k) = {cond:.3g} is above 1e8; R_k must be invertible")
        transfer = np.linalg.solve(r_k.T, model.cov.R.transpose(0, 2, 1)).transpose(0, 2, 1)
        # transfer[i] = R_i R_k^{-1}
        for i in range(model.K):
            if i == k:
                continue
            predicted = batch.h_hat[:, k, :] @ transfer[i].T
            num = np.linalg.norm(predicted - batch.h_hat[:, i, :], axis=1)
            den = np.maximum(np.linalg.norm(batch.h_hat[:, i, :], axis=1), 1e-300)
            worst = max(worst, float((num / den).max()))
    return worst


def simplex_grid_max_min(v: np.ndarray, step: float = 0.01) -> float:
    """Exhaustive max-min over the weight simplex at a fixed grid step.

    Enumerates all compositions of 1/step into K nonnegative parts (stars
    and bars: K-1 bar positions among 1/step + K-1 slots) as one integer
    array; it shares no code with the weight LP.
    """
    K = v.shape[0]
    units = int(round(1.0 / step))
    bars = np.array(list(combinations(range(units + K - 1), K - 1)), dtype=int)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, units + K - 1))
    grid = (np.diff(edges, axis=1) - 1) * step
    return float(np.min(grid @ v, axis=1).max())


def common_rate_cap(table: MomentTable, prelog: float) -> float:
    """C = prelog log2(1 + min_k |g_c,k|^2 / delta_c,k), the most the common
    stream can add to the sum SE under the hardening bound, from a table
    with the common stream.

    delta_c,k = G_common,k - |g_c,k|^2 is recomputed from the entries.  At
    every power SINR_c,k = rho_c |g_c,k|^2 / (rho_c delta_c,k + I_k + sigma^2)
    stays below |g_c,k|^2 / delta_c,k, and opening the stream takes budget
    from the private streams and adds rho_c delta_c to their denominators,
    so the rs optimum is at most the no_rs optimum plus C.  No power enters:
    the common normalization cancels in the ratio.
    """
    own = np.abs(table.g_common) ** 2
    with np.errstate(divide="ignore"):
        ratio = own / np.maximum(table.G_common - own, 0.0)
    return float(prelog * np.log2(1.0 + ratio.min()))


def _log_ratio(rho_c, rho, moments: MomentTable, sigma2: float, l_min: int):
    """ln(num) - ln(den) of every private stream and of the common stream at
    UE ``l_min``, recomputed from the moment table directly (independent of
    the production denominator code)."""
    G = moments.G_private
    own = np.abs(moments.g_private) ** 2
    delta_c = np.maximum(moments.G_common - np.abs(moments.g_common) ** 2, 0.0)
    rho = np.asarray(rho, dtype=float)
    rx = G @ rho
    den_p = rx - rho * own + rho_c * delta_c + sigma2
    num_p = den_p + rho * own
    den_c = rx[l_min] + rho_c * delta_c[l_min] + sigma2
    num_c = den_c + rho_c * np.abs(moments.g_common[l_min]) ** 2
    return np.log(num_p) - np.log(den_p), np.log(num_c) - np.log(den_c)


def sum_se_derivative_fd_errors(
    rho_hat: PowerVector,
    moments: MomentTable,
    sigma2: float,
    rho_total: float,
    l_min: int,
):
    """Errors of the sum-SE gradient gain - sigma2 and of ``sum_se_hessian``
    against central differences of the summed log-rates (the sum SE over
    prelog / ln 2) at a fixed common bottleneck; returns (gradient error,
    Hessian error).

    The gradient is checked over all K + 1 powers, the common one included,
    with the step 1e-6 rho_total, each entry relative to the larger of its
    two values (at least 1e-12 / rho_total).  The Hessian over the private
    powers is checked relative to its largest entry, with the step 3e-3
    times the smallest positive private power, which keeps both truncation
    and rounding below 1e-5."""
    terms = linearization_terms(rho_hat, moments, sigma2, l_min)
    grad = np.append(
        terms.gain_common - terms.sigma2_common, terms.gain_private - terms.sigma2_private
    )
    hess = sum_se_hessian(rho_hat, moments, sigma2, l_min)

    def f(delta):
        """Summed log-rates with the powers (rho_c, rho) moved by delta."""
        ratios_p, ratio_c = _log_ratio(
            rho_hat.rho_c + delta[0], rho_hat.rho + delta[1:], moments, sigma2, l_min
        )
        return ratios_p.sum() + ratio_c

    h = 1e-6 * rho_total
    fd_grad = np.array([f(e) - f(-e) for e in h * np.eye(moments.K + 1)]) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd_grad)), 1e-12 / rho_total)
    grad_error = float((np.abs(grad - fd_grad) / scale).max())

    h = 3e-3 * rho_hat.rho[rho_hat.rho > 0].min(initial=rho_total)
    steps = h * np.eye(moments.K + 1)[1:]
    fd_hess = np.array([
        [f(a + b) - f(a - b) - f(b - a) + f(-a - b) for b in steps] for a in steps
    ]) / (4 * h**2)
    return grad_error, float(np.abs(fd_hess - hess).max() / np.abs(hess).max())


def run_validation(
    config: ScenarioConfig,
    mc_samples: int,
) -> ValidationReport:
    """Run the full oracle suite on a downsized copy of the scenario.

    The scenario is capped at M=16, K=3 so the Monte Carlo side stays
    cheap; the closed forms being checked are dimension-agnostic.
    """
    if mc_samples < 10_000:
        raise ConfigError(
            f"mc_samples = {mc_samples} is below the minimum of 10000 for meaningful checks"
        )
    small = replace(config, M=min(config.M, 16), K=min(config.K, 3))
    master = np.random.SeedSequence(entropy=config.seed, spawn_key=(1000,))
    seeds = master.spawn(6)
    report = ValidationReport()

    # the closed forms assume the circular fourth moment; the vote must pick
    # it, alone.  The draw is fixed: the pass condition is a maximum over a
    # few hundred z-scores at 3 SE, so only a frozen, verified draw is
    # reproducible.
    adjudication = select_quartic_variant(
        n_pairs=5, m_values=(2, 4, 8), n_samples=max(mc_samples, 200_000), seed=2024
    )
    loser = next(v for v in adjudication.max_z if v != adjudication.winner)
    report.checks.append(
        ValidationCheck(
            name="quartic variant adjudication",
            passed=adjudication.unique and adjudication.winner == "circular",
            measured=adjudication.max_z[adjudication.winner],
            limit=QUARTIC_Z_LIMIT,
            detail=(
                f"matched variant: {adjudication.winner} "
                f"(max |dev|/SE {adjudication.max_z[adjudication.winner]:.2f}); "
                f"rejected variant: {loser} "
                f"(max |dev|/SE {adjudication.max_z[loser]:.1f}, "
                f"max |dev| {adjudication.max_abs_dev[loser]:.3e})"
            ),
        )
    )

    rng = np.random.default_rng(seeds[0])
    cov = generate_scenario(small, rng)
    model = build_estimation_model(cov, small.rho_tr_effective)
    sigma2 = small.noise_mw
    rho_total = small.rho_total_mw
    problem = build_common_weight_problem(model, closed_form_moments(model), small)
    weights, _ = solve_common_weights(problem)
    closed = closed_form_moments(model, weights)

    mc_table, info = mc_moment_table(model, mc_samples, np.random.default_rng(seeds[1]), weights)
    excess = worst_moment_excess(closed, mc_table, info["se"])
    report.checks.append(
        ValidationCheck(
            name="closed-form moments vs Monte Carlo",
            passed=excess <= 1.0,
            measured=excess,
            limit=1.0,
            detail=f"worst |closed-mc| over max(2% rel, 4 SE), {mc_samples} realizations",
        )
    )

    norm_err = max(
        float(np.abs(info["norm_private"] - 1.0).max()), abs(info["norm_common"] - 1.0)
    )
    report.checks.append(
        ValidationCheck(
            name="precoder normalization E||w||^2 = 1",
            passed=norm_err <= REL_TOL,
            measured=norm_err,
            limit=REL_TOL,
        )
    )

    # colinearity identity on well-conditioned covariances
    wc_cov = well_conditioned_covariances(3, 12, np.random.default_rng(seeds[2]))
    wc_model = build_estimation_model(wc_cov, 50.0)
    ident = colinearity_identity_error(wc_model, 2000, np.random.default_rng(seeds[3]))
    report.checks.append(
        ValidationCheck(
            name="estimate colinearity identity (per realization)",
            passed=ident <= 1e-10,
            measured=ident,
            limit=1e-10,
        )
    )

    # fixed 2% Frobenius tolerances are calibrated to 1e5 realizations
    stats = mc_estimation_stats(model, max(mc_samples, 100_000), np.random.default_rng(seeds[4]))
    reference = explicit_cross_covariances(cov, small.rho_tr_effective)
    worst_cross = max(
        relative_frobenius(stats["cross"][i, k], reference[i, k])
        for i in range(small.K)
        for k in range(small.K)
    )
    report.checks.append(
        ValidationCheck(
            name="estimate cross-covariance vs closed form",
            passed=worst_cross <= REL_TOL,
            measured=worst_cross,
            limit=REL_TOL,
        )
    )
    worst_err = max(
        relative_frobenius(stats["err"][i], cov.R[i] - reference[i, i])
        for i in range(small.K)
    )
    report.checks.append(
        ValidationCheck(
            name="estimation error covariance vs closed form",
            passed=worst_err <= REL_TOL,
            measured=worst_err,
            limit=REL_TOL,
        )
    )

    # weight program vs exhaustive grid
    worst_lp = 0.0
    lp_rng = np.random.default_rng(seeds[5])
    for trial in range(5):
        u = np.abs(lp_rng.normal(1.0, 0.5, size=(3, 3))) + 0.05
        pi = lp_rng.uniform(0.5, 2.0, size=3)
        prob = CommonWeightProblem(u=u, pi=pi)
        a_star, t_lp = solve_common_weights(prob)
        t_grid = simplex_grid_max_min(prob.constraint_matrix(), step=0.01)
        if t_lp < t_grid - 1e-6 * max(1.0, abs(t_grid)):
            worst_lp = np.inf  # grid beat the LP beyond its tolerance
        worst_lp = max(worst_lp, abs(t_lp - t_grid) / max(abs(t_lp), 1e-300))
    report.checks.append(
        ValidationCheck(
            name="max-min weight LP vs simplex grid (step 0.01)",
            passed=worst_lp <= 1e-2,
            measured=float(worst_lp),
            limit=1e-2,
            detail="grid can only undershoot; relative gap reported",
        )
    )

    # the sum-SE gradient the allocator steps along and the exact Hessian of
    # its Newton steps, with the common rate at UE 0, at two representative
    # power points (moderate denominators keep the central-difference
    # truncation well inside the tolerances)
    splits = [
        np.full(small.K, 0.8 / small.K),
        0.7 * np.arange(small.K, 0, -1) / np.arange(small.K, 0, -1).sum(),
    ]
    errors = np.array([
        sum_se_derivative_fd_errors(
            PowerVector(rho_total * frac_c, rho_total * split), closed, sigma2, rho_total, 0
        )
        for frac_c, split in zip((0.1, 0.15), splits)
    ]).max(axis=0)
    for name, measured, limit in zip(("gradient", "Hessian"), errors, (1e-5, 1e-4)):
        report.checks.append(
            ValidationCheck(
                name=f"sum-SE {name} vs finite differences",
                passed=bool(measured <= limit),
                measured=float(measured),
                limit=limit,
            )
        )
    return report
