"""Collective charging of molecules in a lossy cavity: simulation and fitting.

The package integrates second-order moment equations for N identical
two-level molecules coupled to one damped, pulsed cavity mode, reduces the
result to charging observables, classifies the operating regime, computes
the probe absorption spectrum, and fits the three shared rates to measured
transients.  An exact few-molecule master-equation propagator serves as the
validation oracle throughout.
"""

from .cumulant import (
    EnergyTrace,
    IntegrationError,
    MomentTrace,
    SolverConfig,
    integrate,
    simulate_energy,
)
from .fit import (
    DataError,
    ExperimentDataset,
    FitGrid,
    FitResult,
    estimate_noise,
    global_fit,
    inner_fit,
    load_dataset,
    make_synthetic_dataset,
)
from .lindblad import (
    OracleConfig,
    OracleInvariantError,
    OracleResult,
    OracleTruncationError,
    compare_cumulant,
    evolve_exact,
)
from .model import (
    ConfigError,
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    effective_dephasing,
    gamma_total,
    pulse_envelope,
)
from .observables import (
    ChargingMetrics,
    RegimeReport,
    UndefinedMetricError,
    charging_metrics,
    classify_regime,
    convolve_response,
    scaling_exponent,
    sweep,
)
from .spectrum import SpectrumResult, absorption_spectrum, effective_rabi

__version__ = "0.1.0"

__all__ = [
    "ChargingMetrics",
    "ConfigError",
    "DataError",
    "EnergyTrace",
    "ExperimentDataset",
    "FitGrid",
    "FitResult",
    "HBAR_MEV_PS",
    "IntegrationError",
    "ModelParams",
    "MomentTrace",
    "OracleConfig",
    "OracleInvariantError",
    "OracleResult",
    "OracleTruncationError",
    "PulseParams",
    "RegimeReport",
    "SolverConfig",
    "SpectrumResult",
    "UndefinedMetricError",
    "absorption_spectrum",
    "charging_metrics",
    "classify_regime",
    "compare_cumulant",
    "convolve_response",
    "drive_amplitude_from_photon_ratio",
    "effective_dephasing",
    "effective_rabi",
    "estimate_noise",
    "evolve_exact",
    "gamma_total",
    "global_fit",
    "inner_fit",
    "integrate",
    "load_dataset",
    "make_synthetic_dataset",
    "pulse_envelope",
    "scaling_exponent",
    "simulate_energy",
    "sweep",
]
