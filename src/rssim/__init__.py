"""Link-level simulator for a single-cell TDD massive MIMO downlink where
every UE shares one uplink pilot and the transmitter superposes a common
rate-split stream on per-UE private streams.

The package is organized around a deterministic pipeline: scenario
generation (geometry, fading, spatial covariances), shared-pilot MMSE
estimation statistics, closed-form moment tables validated against Monte
Carlo oracles, precoder design (MR private beams, max-min weighted common
beam), hardening-bound spectral efficiencies, and budget-exact
water-filling power allocation.
"""

from .config import SweepSpec, load_config, parse_config
from .errors import (
    ConfigError,
    InfeasibleGeometryError,
    InvalidWeightsError,
    NumericalError,
    RssimError,
)
from .estimation import (
    ChannelBatch,
    EstimationModel,
    build_estimation_model,
    sample_channels,
    simulate_batch,
)
from .link import PowerVector, SEReport, se_report
from .moments import (
    MomentTable,
    closed_form_moments,
    default_quartic_variant,
    select_quartic_variant,
)
from .power import (
    LinearizationTerms,
    PowerAllocation,
    ila_wf,
    linearization_terms,
)
from .precoding import (
    CommonWeightProblem,
    build_common_weight_problem,
    common_precoder,
    solve_common_weights,
)
from .runner import ResultRow, run_point, run_sweep
from .scenario import (
    CovarianceSet,
    ScenarioConfig,
    UEGeometry,
    generate_scenario,
    large_scale_gain_db,
    local_scattering_covariance,
    place_ues,
)
from .validation import ValidationReport, run_validation

__version__ = "0.1.0"
