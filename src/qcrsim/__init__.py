"""Transmon + quantum-circuit-refrigerator simulator and analysis toolkit.

Modules
-------
system      transmon ladder and resonator specs, ladder frequencies
qcr         NIS-junction physics: Dynes DOS, spectral function, tunneling rates
dynamics    Lindblad evolution of the ladder under the biased junction
readout     IQ shot synthesis, Gaussian-mixture fits, population recovery
thermometry Gibbs / saturation / heating-slope fits
otto        four-stroke quantum Otto cycle
calibrate   rate-scale calibration against the heating anchor
config      strict key-value experiment configuration
cli         command-line interface and reproducible pipelines
"""

from .calibrate import CalibrationResult, calibrate_kappa_eff, heated_temperature
from .config import ConfigError, ExperimentConfig, load_config
from .constants import AJ_PER_GHZ, H_MEV_PER_GHZ, H_OVER_KB, KB_MEV_PER_K
from .dynamics import (
    BiasPulse,
    DensityMatrix,
    IntegratorError,
    Trajectory,
    evolve,
    evolve_constant,
    fidelity,
    lindblad_generator,
    pulse_voltage,
    steady_state,
    steady_state_from_rates,
    trace_distance,
    two_level_relaxation,
)
from .otto import OttoResult, OttoSpec, frequency_efficiency, run_cycle
from .qcr import (
    CouplingSpec,
    JunctionSpec,
    RateTable,
    dynes_dos,
    effective_temperature,
    transition_rates,
    tunnel_spectral_fn,
)
from .readout import (
    CovarianceCollapseError,
    GmmModel,
    PopulationEstimate,
    ReadoutModel,
    SingularCorrectionError,
    correct_counts,
    correction_matrix,
    count_within_sigma,
    default_model,
    estimate_populations,
    fit_gmm,
    fraction_within_sigma,
    mahalanobis_sq,
    sample_estimate,
    synthesize_shots,
)
from .seeding import named_rng
from .system import (
    ResonatorSpec,
    SystemSpec,
    TransmonSpec,
    transition_frequencies,
    transmon_energies,
)
from .thermometry import (
    GibbsFit,
    SaturationFit,
    fit_gibbs,
    fit_saturation,
    gibbs_populations,
    heating_slope,
    normalize_leading,
)

__version__ = "0.1.0"
