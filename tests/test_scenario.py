import numpy as np
import pytest

from rssim.errors import ConfigError, InfeasibleGeometryError
from rssim.scenario import (
    ScenarioConfig,
    generate_scenario,
    large_scale_gain_db,
    local_scattering_covariance,
    place_ues,
)
from rssim.estimation import sample_channels


def test_large_scale_gain_reference_point():
    assert large_scale_gain_db(1.0, 0.0) == pytest.approx(-34.53)


def test_large_scale_gain_decade():
    # one decade closer than the reference distance
    assert large_scale_gain_db(0.1, 0.0) == pytest.approx(3.47)


def test_large_scale_gain_shadow_additive():
    assert large_scale_gain_db(1.0, 10.0) == pytest.approx(-24.53)


def test_large_scale_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        large_scale_gain_db(0.0)
    with pytest.raises(ValueError):
        large_scale_gain_db(-3.0)


def test_placement_distance_bounds():
    config = ScenarioConfig(M=4, K=10, cell_side_m=250.0, min_distance_m=35.0, seed=7)
    geometry = place_ues(config, np.random.default_rng(7))
    # independent oracle: the farthest feasible point is a cell corner
    half = config.cell_side_m / 2.0
    corner = max(np.hypot(x, y) for x in (-half, half) for y in (-half, half))
    assert corner == pytest.approx(125.0 * np.sqrt(2.0))
    distances = np.hypot(geometry.positions[:, 0], geometry.positions[:, 1])
    assert np.all(distances >= 35.0)
    assert np.all(distances <= corner)


def test_placement_bit_identical_for_same_seed():
    config = ScenarioConfig(M=4, K=6, seed=11)
    a = place_ues(config, np.random.default_rng(11))
    b = place_ues(config, np.random.default_rng(11))
    for field in ("positions", "beta_db", "cluster_angles"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_placement_annulus_only():
    # cell shrunk so most of the square is inside the exclusion disk
    config = ScenarioConfig(M=2, K=1, cell_side_m=80.0, min_distance_m=35.0, seed=5)
    for seed in range(20):
        geometry = place_ues(config, np.random.default_rng(seed))
        assert np.hypot(*geometry.positions[0]) >= 35.0
        assert np.max(np.abs(geometry.positions)) <= 40.0


def test_placement_gives_up_after_max_attempts():
    class CenterRng:
        def uniform(self, low, high, size=None):
            if size == 2:
                return np.zeros(2)  # always inside the exclusion disk
            return np.zeros(size)

        def normal(self, *a, **k):  # pragma: no cover - never reached
            raise AssertionError

    config = ScenarioConfig(M=2, K=1, cell_side_m=100.0, min_distance_m=35.0)
    with pytest.raises(InfeasibleGeometryError):
        place_ues(config, CenterRng())


def test_cluster_angles_within_halfwidth():
    config = ScenarioConfig(M=4, K=8, seed=2)
    geometry = place_ues(config, np.random.default_rng(2))
    halfwidth = np.radians(config.nominal_angle_halfwidth_deg)
    nominal = np.arctan2(geometry.positions[:, 1], geometry.positions[:, 0])
    spread = np.abs(geometry.cluster_angles - nominal[:, None])
    assert np.all(spread <= halfwidth + 1e-12)


def test_config_invariants_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(tau_p=200, tau=200)
    with pytest.raises(ConfigError):
        ScenarioConfig(K=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(min_distance_m=130.0, cell_side_m=250.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(noise_dbm=float("nan"))


FLOAT_FIELDS = (
    "rho_tr_dbm", "rho_total_dbm", "noise_dbm", "cell_side_m", "min_distance_m",
    "angular_spread_deg", "nominal_angle_halfwidth_deg", "shadow_std_db", "pathloss_ref_m",
)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_field_rejected(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("name", ["rho_tr_dbm", "rho_total_dbm", "noise_dbm"])
@pytest.mark.parametrize("dbm", [-4000.0, 4000.0])
def test_dbm_value_beyond_float_range_rejected(name, dbm):
    # 10^(dbm/10) mW underflows to 0 or overflows to inf
    with pytest.raises(ConfigError, match=f"^{name} must be a positive, finite power"):
        ScenarioConfig(**{name: dbm})


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"noise_dbm": -3200.0}, "rho_tr_dbm"),  # 1e-320 mW noise: infinite pilot SNR
        ({"rho_total_dbm": 3000.0, "noise_dbm": -100.0}, "rho_total_dbm"),
        ({"rho_tr_dbm": -3000.0, "noise_dbm": 300.0}, "rho_tr_dbm"),  # underflows to 0
        ({"rho_total_dbm": -3000.0, "noise_dbm": 300.0}, "rho_total_dbm"),
    ],
)
def test_snr_beyond_float_range_rejected(fields, name):
    # each power is finite in mW, but its ratio to the noise power is not
    with pytest.raises(ConfigError, match=f"^{name} - noise_dbm must give a positive, finite SNR"):
        ScenarioConfig(**fields)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="^seed must be >= 0"):
        ScenarioConfig(seed=-1)


def test_local_scattering_single_antenna():
    r = local_scattering_covariance(1.7, [0.4, -0.5], np.radians(10), 1)
    assert r.shape == (1, 1)
    assert r[0, 0] == pytest.approx(1.7)


def test_local_scattering_zero_spread_rank_one():
    r = local_scattering_covariance(2.5, [0.0], 0.0, 4)
    assert np.allclose(r, 2.5 * np.ones((4, 4)))
    eigs = np.linalg.eigvalsh(r)
    assert eigs[-1] == pytest.approx(10.0)
    assert abs(eigs[:-1]).max() < 1e-12


def test_local_scattering_diagonal_exact():
    rng = np.random.default_rng(0)
    r = local_scattering_covariance(2.0, rng.uniform(-np.pi, np.pi, 6), np.radians(10), 8)
    assert np.allclose(np.diag(r).real, 2.0)
    assert np.allclose(np.diag(r).imag, 0.0)


def max_hermitian_asymmetry(a):
    """Largest |A - A^H| entry relative to the largest |A| entry."""
    scale = np.abs(a).max()
    if scale == 0.0:
        return 0.0
    return np.abs(a - a.conj().T).max() / scale


def assert_covariance_invariants(cov, betas, hermitian_tol=1e-12, psd_tol=1e-10, diag_tol=1e-10):
    """Each R_i is Hermitian and PSD, with its diagonal and tr(R_i)/M equal to betas[i]."""
    for i in range(cov.K):
        r = cov.R[i]
        beta = betas[i]
        assert max_hermitian_asymmetry(r) <= hermitian_tol, f"R[{i}] is not Hermitian"
        eigs = np.linalg.eigvalsh(r)
        assert eigs[0] >= -psd_tol * beta, f"R[{i}] is not PSD: min eigenvalue {eigs[0]:.3e}"
        assert np.abs(np.diag(r).real - beta).max() <= diag_tol * beta, f"R[{i}] diagonal"
        assert abs(np.trace(r).real / cov.M - beta) <= diag_tol * beta, f"beta[{i}] vs tr(R)/M"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_covariances_pass_invariants(seed):
    # the gains come from replaying the placement on the same seed, as
    # 10^(beta_db / 10) computed here
    config = ScenarioConfig(M=24, K=4, seed=seed)
    cov = generate_scenario(config, np.random.default_rng(seed))
    geometry = place_ues(config, np.random.default_rng(seed))
    assert_covariance_invariants(cov, 10.0 ** (geometry.beta_db / 10.0))


def test_generate_scenario_deterministic(small_setup=None):
    config = ScenarioConfig(M=8, K=3, seed=9)
    cov_a = generate_scenario(config, np.random.default_rng(9))
    cov_b = generate_scenario(config, np.random.default_rng(9))
    assert np.array_equal(cov_a.R, cov_b.R)


def test_sample_mean_covariance_consistency():
    config = ScenarioConfig(M=8, K=2, seed=4)
    cov = generate_scenario(config, np.random.default_rng(4))
    h = sample_channels(cov, 100_000, np.random.default_rng(5))
    for k in range(config.K):
        emp = np.einsum("nm,nl->ml", h[:, k, :], h[:, k, :].conj()) / len(h)
        rel = np.linalg.norm(emp - cov.R[k]) / np.linalg.norm(cov.R[k])
        assert rel < 0.02
