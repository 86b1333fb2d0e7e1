"""The max-min weighted common precoder.

The common precoder is a weighted sum of all channel estimates.  Its
weights maximize the smallest interference-weighted mean effective
channel across UEs, which after squaring reduces to a linear
program over the weight simplex.  Like the MR private beams
hhat_i / sqrt(tr Phi_i), it is normalized deterministically: the expected
squared norm, not the per-realization norm, equals one.

The program is one epigraph linear program, solved by HiGHS through
``scipy.optimize.milp`` with no integrality: the same solve as
``linprog(method="highs")``, with less input and result handling around
it.  Any optimal weight vector fits the max-min design, so the vertex
HiGHS returns is used as it is, unless the uniform vector is optimal too.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import InvalidWeightsError, NumericalError
from .estimation import ChannelBatch, EstimationModel
from .moments import MomentTable, common_norm_squared
from .scenario import ScenarioConfig

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
    model: EstimationModel, moments: MomentTable, config: ScenarioConfig
) -> CommonWeightProblem:
    """Assemble the weight program at the uniform private split.

    The interference weights are evaluated from the closed-form MR moment
    table, before any power optimization, with the budget rho_total split
    evenly over the K private streams and the noise power of ``config``.
    """
    K, rho_total = config.K, config.rho_total_mw
    interference = moments.G_private @ np.full(K, rho_total / K) + config.noise_mw
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
    sum_i a_i v[i, k] >= t for every UE k, a >= 0, sum a = 1.  Any optimum
    serves the max-min design; the one returned is the uniform vector when
    it is optimal, otherwise the vertex HiGHS returns, clipped at 0 and
    renormalized, which is deterministic for a given SciPy.  Returns
    (weights, achieved min).
    """
    K = problem.K
    v = problem.constraint_matrix()
    if np.any(np.all(v <= 0, axis=0)):
        bad = int(np.where(np.all(v <= 0, axis=0))[0][0])
        raise InvalidWeightsError(
            f"UE {bad} cannot be served with positive common gain (all couplings <= 0)"
        )

    # variables [a_0 .. a_{K-1}, t]; maximize t subject to
    # t - v[:, k] @ a <= 0 for every k and sum a = 1
    c = np.zeros(K + 1)
    c[-1] = -1.0
    constraints = LinearConstraint(
        np.vstack([np.hstack([-v.T, np.ones((K, 1))]), np.append(np.ones(K), 0.0)]),
        np.append(np.full(K, -np.inf), 1.0),
        np.append(np.zeros(K), 1.0),
    )
    res = milp(c, constraints=constraints, bounds=Bounds(np.append(np.zeros(K), -np.inf), np.inf))
    if not res.success:
        raise NumericalError(f"weight LP failed: {res.message}")
    t_star = float(res.x[-1])

    uniform = np.full(K, 1.0 / K)
    t_uniform = float(np.min(uniform @ v))
    if t_uniform >= t_star - 1e-12 * max(1.0, abs(t_star)):
        return uniform, t_uniform

    weights = np.clip(res.x[:K], 0.0, None)
    weights = weights / weights.sum()
    return weights, float(np.min(weights @ v))


def common_precoder(weights, batch: ChannelBatch, model: EstimationModel) -> np.ndarray:
    """Per-realization common beams sum_i w_i hhat_i, divided by the square
    root of their expected squared norm, ``moments.common_norm_squared``."""
    weights = np.asarray(weights, dtype=float)
    norm2 = common_norm_squared(weights, model)
    return weights @ batch.h_hat / np.sqrt(norm2)
