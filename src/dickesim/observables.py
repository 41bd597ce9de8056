"""Charging observables, detector convolution and regime classification.

Everything here consumes energy traces produced by the moment solver.  The
charging figures of merit (rise time, peak stored energy, peak charging
power) are always evaluated on the bare model output; convolution with the
detector response exists for comparison with measured transients and must be
applied explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cumulant import EnergyTrace, IntegrationError, SolverConfig, process_map, simulate_energy
from .model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    effective_dephasing,
)

DECAY_DOMINATED = "decay-dominated"
COUPLING_DOMINATED = "coupling-dominated"
CROSSOVER = "crossover"
NON_RESONANT = "non-resonant"

SWEEP_AXES = ("N", "r")

RESPONSE_SUPPORT_SIGMAS = 5.0  # the detector response kernel's reach either side, in sigma_R


class UndefinedMetricError(RuntimeError):
    """A charging metric does not exist for this trace (e.g. no energy at all)."""


def convolve_response(trace: EnergyTrace, response_ps: float) -> EnergyTrace:
    """Smear the energy trace with a normalised Gaussian detector response.

    The kernel reaches ``RESPONSE_SUPPORT_SIGMAS`` sigma_R either side; past
    the trace edges the signal is continued with its edge value, so a flat
    trace convolves to itself exactly.  A zero response width returns it as is.
    """
    if response_ps < 0 or not math.isfinite(response_ps):
        raise ValueError(f"response width must be finite and non-negative, got {response_ps}")
    if response_ps == 0.0:
        return trace
    dt = trace.dt_ps
    k = int(math.ceil(RESPONSE_SUPPORT_SIGMAS * response_ps / dt))
    offsets = np.arange(-k, k + 1) * dt
    kernel = np.exp(-0.5 * (offsets / response_ps) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(trace.energy_mev, k, mode="edge")
    smeared = np.convolve(padded, kernel, mode="valid")
    return EnergyTrace(times_ps=trace.times_ps, energy_mev=smeared)


@dataclass(frozen=True)
class ChargingMetrics:
    """Figures of merit for one charging transient.

    ``tau_ps`` is the delay from pump arrival to the first upward crossing of
    half the peak energy; it can be negative when collective oscillation
    stores energy before the pulse center has passed.
    """

    tau_ps: float
    e_max_mev: float
    p_max_mev_per_ps: float
    t_peak_ps: float
    t_half_ps: float


def charging_metrics(trace: EnergyTrace, pump_arrival_ps: float) -> ChargingMetrics:
    """Extract rise time, peak energy and peak power from a bare energy trace.

    The half-maximum crossing is located by scanning the whole trace for the
    first upward passage and interpolating linearly between the bracketing
    samples; a first sample already at or above half maximum counts as
    crossing there.  The pump arrival time is clamped into the trace window
    (with a warning) so degenerate configurations still yield a number.
    """
    t = trace.times_ps
    e = trace.energy_mev
    if t.size < 3:
        raise UndefinedMetricError("need at least three samples for charging metrics")
    e_max = float(e.max())
    if e_max <= 0.0:
        raise UndefinedMetricError("trace never stores energy; half maximum undefined")
    i_peak = int(np.argmax(e))
    t_peak = float(t[i_peak])

    half = 0.5 * e_max
    if e[0] >= half:
        t_half = float(t[0])
    else:
        above = np.nonzero(e >= half)[0]
        i = int(above[0])
        # e[i-1] < half <= e[i] by construction
        frac = (half - e[i - 1]) / (e[i] - e[i - 1])
        t_half = float(t[i - 1] + frac * (t[i] - t[i - 1]))

    t_p = pump_arrival_ps
    if not (t[0] <= t_p <= t[-1]):
        warnings.warn(
            f"pump arrival {pump_arrival_ps:g} ps lies outside the trace "
            f"[{t[0]:g}, {t[-1]:g}] ps; clamping",
            stacklevel=2,
        )
        t_p = float(min(max(t_p, t[0]), t[-1]))

    power = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    p_max = float(power.max())

    return ChargingMetrics(
        tau_ps=t_half - t_p,
        e_max_mev=e_max,
        p_max_mev_per_ps=p_max,
        t_peak_ps=t_peak,
        t_half_ps=t_half,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Where a configuration sits relative to the charging-regime boundaries.

    ``n_kappa`` and ``n_gammaz`` are the molecule numbers where the
    collective coupling g sqrt(N r') overtakes cavity loss and dephasing;
    ``n_sigma`` is where the polariton splitting outruns the pulse bandwidth
    and the pump stops addressing the polaritons.  All are +inf at g = 0.
    """

    regime: str
    n_kappa: float
    n_gammaz: float
    n_sigma: float


def classify_regime(
    params: ModelParams,
    photon_ratio: float,
    pulse_sigma_ps: float,
) -> RegimeReport:
    """Classify the charging dynamics expected of this configuration.

    Comparison scale is x = g sqrt(N r') with r' = max(1, r): below every
    decay scale the cavity feeds molecules incoherently (decay-dominated),
    above all of them the ensemble Rabi-oscillates (coupling-dominated).
    A configuration whose splitting exceeds the pulse bandwidth is classified
    non-resonant first, since the pump then misses the polaritons entirely.
    """
    if photon_ratio < 0:
        raise ValueError(f"photon_ratio must be non-negative, got {photon_ratio}")
    if pulse_sigma_ps <= 0:
        raise ValueError(f"pulse_sigma_ps must be positive, got {pulse_sigma_ps}")
    g = params.g_mev
    n = params.n_molecules
    r_eff = max(1.0, photon_ratio)
    gz = effective_dephasing(params)
    bandwidth = (0.4 ** 0.25) * HBAR_MEV_PS / pulse_sigma_ps

    x = g * math.sqrt(n * r_eff)
    if g > 0:
        n_kappa = (params.kappa_mev ** 2) / (g * g * r_eff)
        n_gammaz = ((params.gamma0z_mev * params.n_ref) ** 2 / (g * g * r_eff)) ** (1.0 / 3.0)
        n_sigma = (bandwidth / g) ** 2
    else:
        n_kappa = math.inf
        n_gammaz = math.inf
        n_sigma = math.inf

    if n > n_sigma:
        regime = NON_RESONANT
    elif x < min(params.kappa_mev, gz):
        regime = DECAY_DOMINATED
    elif x > max(params.kappa_mev, gz):
        regime = COUPLING_DOMINATED
    else:
        regime = CROSSOVER

    return RegimeReport(
        regime=regime,
        n_kappa=n_kappa,
        n_gammaz=n_gammaz,
        n_sigma=n_sigma,
    )


def scaling_exponent(q_i: float, q_j: float, n_i: float, n_j: float) -> float:
    """Pairwise scaling exponent f with q proportional to N^f.

    Both quantities must share a sign and both molecule numbers must be
    positive and distinct; otherwise the exponent does not exist.
    """
    if n_i <= 0 or n_j <= 0:
        raise ValueError("molecule numbers must be positive")
    if n_i == n_j:
        raise ValueError("molecule numbers must differ")
    ratio = q_i / q_j
    if not ratio > 0:
        raise ValueError("quantities must be nonzero and share a sign")
    return math.log(ratio) / math.log(n_i / n_j)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a charging sweep; a failed row keeps the defaults and its failure in ``error``."""

    axis_value: float
    tau_ps: float = math.nan
    e_max_mev: float = math.nan
    p_max_mev_per_ps: float = math.nan
    regime: str = "failed"
    n_kappa: float = math.nan
    n_gammaz: float = math.nan
    n_sigma: float = math.nan
    error: str | None = None


def _sweep_point(task) -> SweepPoint:
    """Metrics and regime of one (value, params, pulse, config, r) sweep point."""
    value, params, pulse, config, r = task
    try:
        trace = simulate_energy(params, pulse, config)
        metrics = charging_metrics(trace, pulse.center_ps)
    except (IntegrationError, UndefinedMetricError) as exc:
        return SweepPoint(axis_value=value, error=str(exc))
    report = classify_regime(params, r, pulse.sigma_ps)
    return SweepPoint(
        axis_value=value,
        tau_ps=metrics.tau_ps,
        e_max_mev=metrics.e_max_mev,
        p_max_mev_per_ps=metrics.p_max_mev_per_ps,
        regime=report.regime,
        n_kappa=report.n_kappa,
        n_gammaz=report.n_gammaz,
        n_sigma=report.n_sigma,
    )


def sweep(
    params: ModelParams,
    axis: str,
    grid,
    pulse: PulseParams,
    config: SolverConfig,
    photon_ratio: float | None = None,
    lower_polariton: bool = False,
    workers: int = 1,
) -> list[SweepPoint]:
    """Charging metrics and regime labels along a molecule-number or pump grid.

    For ``axis="N"`` the per-point pulse area is recomputed as sqrt(r N), so
    ``photon_ratio`` is required; for ``axis="r"`` the grid itself supplies
    r.  Rows come back in grid order regardless of worker count.  An
    ``IntegrationError`` or ``UndefinedMetricError`` makes its point a "failed"
    row with the message in ``error``; other errors propagate, unlogged.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("grid must not be empty")
    if axis == "N":
        if photon_ratio is None:
            raise ValueError('axis="N" sweeps need photon_ratio to size the pulse')
        if any(v <= 0 for v in grid):
            raise ValueError("molecule numbers must be positive")
    else:
        if any(v < 0 for v in grid):
            raise ValueError("photon ratios must be non-negative")

    tasks = []
    for value in grid:
        if axis == "N":
            point_params = replace(params, n_molecules=value)
            r = photon_ratio
        else:
            point_params = params
            r = value
        if lower_polariton:
            split = point_params.g_mev * math.sqrt(point_params.n_molecules)
            point_params = replace(point_params, delta_a_mev=split, delta_c_mev=split)
        amplitude = drive_amplitude_from_photon_ratio(r, point_params.n_molecules)
        tasks.append((value, point_params, replace(pulse, amplitude=amplitude), config, r))
    return process_map(_sweep_point, tasks, workers)
