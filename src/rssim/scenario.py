"""UE geometry, large-scale fading, and local-scattering channel covariances.

The cell is a square with the BS at its center.  UEs are dropped uniformly
at random, redrawing any position closer to the BS than the minimum
distance.  Each UE gets a distance-based gain with log-normal shadowing and
a spatially correlated covariance matrix built from a handful of Gaussian
scattering clusters around the line-of-sight angle, for a uniform linear
array with half-wavelength spacing.  A scenario is its covariance set
alone: every later layer reads R, and each UE's average gain is tr(R_i)/M,
so the placement stays inside ``generate_scenario``.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import toeplitz

from .errors import ConfigError, InfeasibleGeometryError
from .units import db_to_linear

PATHLOSS_INTERCEPT_DB = -34.53
PATHLOSS_EXPONENT_DB_PER_DECADE = 38.0

# Rejection sampling gives up after this many draws for a single UE.
MAX_PLACEMENT_ATTEMPTS = 10_000

# Largest total of the large arrays one point allocates, counted from the
# sizes alone by ScenarioConfig.validate.
MAX_MODEL_BYTES = 2 * 1024**3


@dataclass
class ScenarioConfig:
    """All physical and protocol constants of a simulated cell.

    Powers are entered in dBm and converted once, at this boundary, to
    linear mW (see the ``*_mw`` properties).  ``pathloss_ref_m`` is the
    distance (in meters) at which the pathloss intercept applies; the
    default of 1 m gives a gain of roughly -110 dB at 100 m, so the
    downlink sweep crosses from noise-limited to interference-limited
    operation inside the usual 0..40 dBm range.  Setting it to 1000
    reproduces the 1 km reference reading instead.
    """

    M: int = 100
    K: int = 10
    tau: int = 200
    tau_p: int = 10
    rho_tr_dbm: float = 20.0
    rho_total_dbm: float = 20.0
    noise_dbm: float = -94.0
    cell_side_m: float = 250.0
    min_distance_m: float = 35.0
    num_clusters: int = 6
    angular_spread_deg: float = 10.0
    nominal_angle_halfwidth_deg: float = 40.0
    shadow_std_db: float = float(np.sqrt(10.0))
    pathloss_ref_m: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("rho_tr_dbm", "rho_total_dbm", "noise_dbm"):
            dbm = getattr(self, name)
            with np.errstate(over="ignore", under="ignore"):
                mw = float(db_to_linear(dbm))
            if not 0 < mw < np.inf:
                raise ConfigError(f"{name} must be a positive, finite power in mW, got {dbm} dBm")
        for name, mw in (("rho_tr_dbm", self.rho_tr_mw), ("rho_total_dbm", self.rho_total_mw)):
            if not 0 < mw / self.noise_mw < np.inf:
                raise ConfigError(
                    f"{name} - noise_dbm must give a positive, finite SNR, "
                    f"got {getattr(self, name) - self.noise_dbm} dB"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        K, M, S = self.K, self.M, self.num_clusters
        # R and the whitened stack W, plus the one-byte-per-entry finiteness
        # mask that the triangular solve takes of W; the Cholesky factor of Q
        # and the two (M, M) arrays of the common table (W_w and the upper
        # triangle of Phi_w), as Q itself is dropped once it is factored;
        # the one upper triangle of Phi_j that r_phi_traces holds for the
        # private beams; cross_trace, r_phi_trace and G_private; the weight
        # LP's constraint matrix; the cluster angles of place_ues and the
        # complex phase and real damping of local_scattering_covariance
        model_bytes = 16 * (2 * K + 4) * M**2 + K * M**2
        model_bytes += (16 + 8 + 8) * K**2 + 8 * (K + 1) ** 2
        model_bytes += 8 * K * S + (16 + 8) * M * S
        if model_bytes > MAX_MODEL_BYTES:
            raise ConfigError(
                f"M={M}, K={K} with num_clusters={S} needs {model_bytes / 2**30:.3g} GiB "
                f"of arrays, above the {MAX_MODEL_BYTES / 2**30:g} GiB limit"
            )
        if not (1 <= self.tau_p < self.tau):
            raise ConfigError(
                f"tau_p must satisfy 1 <= tau_p < tau, got tau_p={self.tau_p}, tau={self.tau}"
            )
        if self.cell_side_m <= 0:
            raise ConfigError(f"cell_side_m must be positive, got {self.cell_side_m}")
        if not (0 <= self.min_distance_m < self.cell_side_m / 2):
            raise ConfigError(
                f"min_distance_m must lie in [0, cell_side_m/2), got {self.min_distance_m}"
            )
        if self.angular_spread_deg < 0:
            raise ConfigError(f"angular_spread_deg must be >= 0, got {self.angular_spread_deg}")
        if self.nominal_angle_halfwidth_deg < 0:
            raise ConfigError(
                f"nominal_angle_halfwidth_deg must be >= 0, got {self.nominal_angle_halfwidth_deg}"
            )
        if self.shadow_std_db < 0:
            raise ConfigError(f"shadow_std_db must be >= 0, got {self.shadow_std_db}")
        if self.pathloss_ref_m <= 0:
            raise ConfigError(f"pathloss_ref_m must be positive, got {self.pathloss_ref_m}")

    @property
    def tau_d(self) -> int:
        """Downlink data samples per coherence block (no uplink data phase)."""
        return self.tau - self.tau_p

    @property
    def prelog(self) -> float:
        return self.tau_d / self.tau

    @property
    def rho_tr_mw(self) -> float:
        return float(db_to_linear(self.rho_tr_dbm))

    @property
    def rho_total_mw(self) -> float:
        return float(db_to_linear(self.rho_total_dbm))

    @property
    def noise_mw(self) -> float:
        return float(db_to_linear(self.noise_dbm))

    @property
    def rho_tr_effective(self) -> float:
        """Pilot power in units of the noise power.

        The pilot observation is modeled with unit-variance noise, so the
        estimator ridge is noise_power / pilot_power; passing the
        noise-normalized pilot power to the estimation model realizes that.
        """
        return self.rho_tr_mw / self.noise_mw


@dataclass
class UEGeometry:
    """Per-UE placement and large-scale propagation state; a UE's distance
    and nominal angle are the hypot and arctan2 of its position."""

    positions: np.ndarray       # (K, 2) meters, BS at origin
    beta_db: np.ndarray         # (K,) large-scale gain, shadowing included
    cluster_angles: np.ndarray  # (K, S) radians


@dataclass
class CovarianceSet:
    """Spatial covariance matrices R_i; the average gain of UE i is tr(R_i)/M."""

    R: np.ndarray  # (K, M, M) complex Hermitian

    @property
    def K(self) -> int:
        return self.R.shape[0]

    @property
    def M(self) -> int:
        return self.R.shape[1]


def large_scale_gain_db(distance_km: float, shadow_db: float = 0.0) -> float:
    """Distance-based channel gain in dB, including the shadow term.

    ``distance_km`` is the BS-UE distance in multiples of the pathloss
    reference distance (nominally 1 km; the scenario generator rescales via
    ``ScenarioConfig.pathloss_ref_m``).
    """
    distance_km = np.asarray(distance_km, dtype=float)
    if np.any(distance_km <= 0.0):
        raise ValueError("distance must be strictly positive")
    return PATHLOSS_INTERCEPT_DB - PATHLOSS_EXPONENT_DB_PER_DECADE * np.log10(distance_km) + shadow_db


def place_ues(config: ScenarioConfig, rng: np.random.Generator) -> UEGeometry:
    """Drop K UEs uniformly over the square cell, rejecting positions
    inside the minimum-distance disk around the BS, then draw their
    shadowing and the cluster angles around each UE's line-of-sight angle,
    in that order.

    Deterministic given (config, rng state).  Raises
    InfeasibleGeometryError if a single UE needs more than
    MAX_PLACEMENT_ATTEMPTS draws.
    """
    half = config.cell_side_m / 2.0
    positions = np.empty((config.K, 2))
    for k in range(config.K):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            p = rng.uniform(-half, half, size=2)
            if np.hypot(p[0], p[1]) >= config.min_distance_m:
                positions[k] = p
                break
        else:
            raise InfeasibleGeometryError(
                f"could not place UE {k} outside {config.min_distance_m} m "
                f"after {MAX_PLACEMENT_ATTEMPTS} attempts"
            )
    distances = np.hypot(positions[:, 0], positions[:, 1])
    nominal_angles = np.arctan2(positions[:, 1], positions[:, 0])
    shadow = rng.normal(0.0, config.shadow_std_db, size=config.K)
    halfwidth = np.radians(config.nominal_angle_halfwidth_deg)
    cluster_angles = rng.uniform(
        nominal_angles[:, None] - halfwidth,
        nominal_angles[:, None] + halfwidth,
        size=(config.K, config.num_clusters),
    )
    return UEGeometry(
        positions=positions,
        beta_db=large_scale_gain_db(distances / config.pathloss_ref_m, shadow),
        cluster_angles=cluster_angles,
    )


def local_scattering_covariance(beta: float, cluster_angles, sigma_phi: float, M: int) -> np.ndarray:
    """Covariance of a half-wavelength ULA channel under Gaussian local
    scattering with equal-power clusters.

    Entry (m1, m2) sums, over the clusters, a phase term at the cluster
    angle and a Gaussian damping term from the per-cluster angular spread
    ``sigma_phi`` (radians).  Entries depend only on m1 - m2, so the matrix
    is Hermitian Toeplitz with every diagonal entry exactly beta.
    """
    cluster_angles = np.atleast_1d(np.asarray(cluster_angles, dtype=float))
    if cluster_angles.size < 1:
        raise ValueError("need at least one cluster angle")
    if sigma_phi < 0:
        raise ValueError("sigma_phi must be >= 0")
    if M < 1:
        raise ValueError("M must be >= 1")
    lags = np.arange(M)[:, None] * np.pi  # pi * (m1 - m2) for the first column
    phase = np.exp(1j * lags * np.sin(cluster_angles)[None, :])
    damping = np.exp(-0.5 * sigma_phi**2 * (lags * np.cos(cluster_angles)[None, :]) ** 2)
    col = (beta / cluster_angles.size) * (phase * damping).sum(axis=1)
    return toeplitz(col, col.conj())


def generate_scenario(config: ScenarioConfig, rng: np.random.Generator) -> CovarianceSet:
    """Place the UEs with ``place_ues`` and return their local-scattering
    covariances; the placement is not kept, as no later layer reads it."""
    geometry = place_ues(config, rng)
    sigma_phi = np.radians(config.angular_spread_deg)
    beta = db_to_linear(geometry.beta_db)
    R = np.empty((config.K, config.M, config.M), dtype=complex)
    for k in range(config.K):
        R[k] = local_scattering_covariance(
            beta[k], geometry.cluster_angles[k], sigma_phi, config.M
        )
    return CovarianceSet(R=R)
