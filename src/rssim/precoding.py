"""The max-min weighted common precoder.

The common precoder is a weighted sum of all channel estimates.  Its
weights maximize the smallest interference-weighted mean effective
channel across UEs, which after squaring reduces to a linear
program over the weight simplex.  Like the MR private beams
hhat_i / sqrt(tr Phi_i), it is normalized deterministically: the expected
squared norm, not the per-realization norm, equals one.

The linear programs are solved by HiGHS through ``scipy.optimize.milp``
with no integrality: the same solve as ``linprog(method="highs")``, with
less input and result handling around it.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import InvalidWeightsError, NumericalError
from .estimation import ChannelBatch, EstimationModel
from .moments import MomentTable

logger = logging.getLogger(__name__)

# imaginary leakage allowed in the nominally-real weight-problem entries
U_REAL_TOL = 1e-10


@dataclass
class CommonWeightProblem:
    """Data of the max-min weight program.

    ``u[i, k]`` is the coupling of estimate i to UE k's mean effective
    channel; ``pi`` holds the inverse interference-plus-noise weights.
    """

    u: np.ndarray      # (K, K) real
    pi: np.ndarray     # (K,) positive

    @property
    def K(self) -> int:
        return self.u.shape[0]

    def constraint_matrix(self) -> np.ndarray:
        """v[i, k]: coefficient of weight i in UE k's constraint.

        Raises NumericalError when a UE has a positive coupling whose
        weighted coefficients all underflow to zero, which the weight
        program would otherwise read as a UE that cannot be served.
        """
        v = self.u * np.sqrt(self.pi)[None, :]
        lost = np.any(self.u > 0, axis=0) & np.all(v <= 0, axis=0)
        if lost.any():
            k = int(np.argmax(lost))
            raise NumericalError(
                f"UE {k}: positive weight-problem couplings (largest {self.u[:, k].max():.3e}) "
                f"underflow to 0 when weighted by sqrt(pi) = {np.sqrt(self.pi[k]):.3e}"
            )
        return v


def build_common_weight_problem(
    model: EstimationModel,
    moments: MomentTable,
    rho_private: np.ndarray,
    sigma2: float,
) -> CommonWeightProblem:
    """Assemble the weight program at the given private power point.

    The interference weights are evaluated from the closed-form MR moment
    table, before any power optimization.
    """
    rho_private = np.asarray(rho_private, dtype=float)
    interference = moments.G_private @ rho_private + sigma2
    if np.any(interference <= 0):
        raise NumericalError("non-positive interference-plus-noise in weight program")
    pi = 1.0 / interference
    u_complex = model.cross_trace
    scale = np.abs(u_complex).max()
    if scale > 0 and np.abs(u_complex.imag).max() > U_REAL_TOL * scale:
        raise NumericalError(
            "weight-problem couplings have a non-negligible imaginary part "
            f"({np.abs(u_complex.imag).max():.3e}); covariances are not array-symmetric"
        )
    return CommonWeightProblem(u=u_complex.real.copy(), pi=pi)


def solve_common_weights(problem: CommonWeightProblem):
    """Maximize the smallest weighted mean common-channel gain over the
    weight simplex.

    Solved as the epigraph linear program: max t subject to
    sum_i a_i v[i, k] >= t for every UE k, a >= 0, sum a = 1.  Ties are
    broken deterministically: the uniform vector wins when it is optimal,
    otherwise the lexicographically smallest optimal vertex is returned,
    refined from the epigraph LP's vertex.  If that refinement fails, the
    vertex itself is returned and the failing stage is logged at debug
    level.  Returns (weights, achieved min).
    """
    K = problem.K
    v = problem.constraint_matrix()
    if np.any(np.all(v <= 0, axis=0)):
        bad = int(np.where(np.all(v <= 0, axis=0))[0][0])
        raise InvalidWeightsError(
            f"UE {bad} cannot be served with positive common gain (all couplings <= 0)"
        )
    if K == 1:
        return np.array([1.0]), float(v[0, 0])

    # variables [a_0 .. a_{K-1}, t]; maximize t
    c = np.zeros(K + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-v.T, np.ones((K, 1))])   # t - v[:, k] @ a <= 0
    lower = np.append(np.zeros(K), -np.inf)
    res = _lp(c, a_ub, np.zeros(K), np.append(np.ones(K), 0.0), 1.0, lower)
    if not res.success:
        raise NumericalError(f"weight LP failed: {res.message}")
    t_star = float(res.x[-1])

    uniform = np.full(K, 1.0 / K)
    t_uniform = float(np.min(uniform @ v))
    slack = 1e-12 * max(1.0, abs(t_star))
    if t_uniform >= t_star - slack:
        return uniform, t_uniform

    try:
        weights = _lexicographic_refinement(
            v, t_star - 1e-9 * max(1.0, abs(t_star)), res.x[:K].copy()
        )
    except NumericalError as exc:
        # accumulated stage rounding can starve the last free weights at
        # larger K; the unrefined vertex is already optimal and deterministic
        logger.debug("weight tie-break chain fell back to the epigraph vertex: %s", exc)
        weights = np.clip(res.x[:K], 0.0, None)
        weights = weights / weights.sum()
    return weights, float(np.min(weights @ v))


def _lexicographic_refinement(v: np.ndarray, t_floor: float, vertex: np.ndarray) -> np.ndarray:
    """Among weight vectors achieving at least t_floor, pick the
    lexicographically smallest one with a chain of small LPs.

    Stage j minimizes a_j with a_0 .. a_{j-1} fixed.  ``vertex`` is a
    feasible weight vector whose first j entries are the weights fixed so
    far; each solved stage writes its solution into ``vertex[j:]``.  When
    ``vertex[j]`` is already 0 it is the stage's optimum (a_j >= 0), so
    a_j = 0 is fixed without solving that stage's LP.
    """
    K = v.shape[0]
    fixed: list[float] = []
    for j in range(K):
        n_free = K - j
        if n_free == 1:
            fixed.append(max(1.0 - sum(fixed), 0.0))
            break
        if vertex[j] == 0.0:
            fixed.append(0.0)
            continue
        c = np.zeros(n_free)
        c[0] = 1.0  # minimize the first still-free weight
        b_ub = -t_floor + (v[:j, :].T @ np.array(fixed) if j else np.zeros(K))
        res = _lp(c, -v[j:, :].T, b_ub, np.ones(n_free), 1.0 - sum(fixed), np.zeros(n_free))
        if not res.success:
            raise NumericalError(f"weight tie-break LP failed at position {j}: {res.message}")
        vertex[j:] = res.x
        fixed.append(max(float(res.x[0]), 0.0))
    return np.array(fixed)


def _lp(c, a_ub, b_ub, a_eq, b_eq: float, lower):
    """Minimize c @ x subject to a_ub @ x <= b_ub, a_eq @ x = b_eq and
    x >= lower.

    Solved with ``milp`` (see the module docstring).  Returns its result.
    """
    constraints = LinearConstraint(
        np.vstack([a_ub, a_eq]),
        np.append(np.full(len(b_ub), -np.inf), b_eq),
        np.append(b_ub, b_eq),
    )
    return milp(c, constraints=constraints, bounds=Bounds(lower, np.inf))


def common_precoder(weights, batch: ChannelBatch, model: EstimationModel) -> np.ndarray:
    """Per-realization common beams with the deterministic normalizer."""
    if batch.h_hat is None:
        raise ValueError("batch has no estimates; draw it with simulate_batch")
    weights = np.asarray(weights, dtype=float)
    norm2 = complex(weights @ model.cross_trace @ weights).real
    if norm2 <= 0:
        raise InvalidWeightsError(f"non-positive common normalization {norm2:.3e}")
    return np.einsum("i,nim->nm", weights, batch.h_hat) / np.sqrt(norm2)
