"""Charging metrics, detector convolution, regime boundaries and sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim import cumulant, observables
from dickesim.cumulant import SolverConfig, simulate_energy
from dickesim.model import HBAR_MEV_PS, ModelParams, PulseParams
from dickesim.observables import (
    COUPLING_DOMINATED,
    CROSSOVER,
    DECAY_DOMINATED,
    EnergyTrace,
    NON_RESONANT,
    UndefinedMetricError,
    charging_metrics,
    classify_regime,
    convolve_response,
    scaling_exponent,
    sweep,
)


def ramp_trace(values, dt=0.01) -> EnergyTrace:
    values = np.asarray(values, dtype=float)
    return EnergyTrace(times_ps=np.arange(values.size) * dt, energy_mev=values)


def test_trace_validation():
    with pytest.raises(ValueError, match="uniform"):
        EnergyTrace(times_ps=np.array([0.0, 1.0, 3.0]), energy_mev=np.zeros(3))
    with pytest.raises(ValueError, match="increasing"):
        EnergyTrace(times_ps=np.array([0.0, 0.0, 1.0]), energy_mev=np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        EnergyTrace(times_ps=np.array([0.0, 1.0]), energy_mev=np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="must match"):
        EnergyTrace(times_ps=np.array([0.0, 1.0]), energy_mev=np.zeros((2, 3)))


def test_convolution_identities():
    trace = ramp_trace(np.full(200, 3.25))
    out = convolve_response(trace, 0.05)
    # a flat trace is an eigenfunction of any normalised kernel
    assert np.max(np.abs(out.energy_mev - 3.25)) < 1e-12
    assert convolve_response(trace, 0.0) is trace
    with pytest.raises(ValueError):
        convolve_response(trace, -0.1)


def test_a_batch_convolves_each_row_as_it_would_alone():
    t = np.arange(-2.0, 2.0, 0.004)
    rows = np.stack([np.exp(-0.5 * (t / 0.05) ** 2), np.tanh(t / 0.3) + 1.0])
    batch = convolve_response(EnergyTrace(t, rows), 0.12)
    assert batch.energy_mev.shape == rows.shape
    for row, smeared in zip(rows, batch.energy_mev):
        np.testing.assert_array_equal(smeared, convolve_response(EnergyTrace(t, row), 0.12).energy_mev)


def test_convolution_preserves_area_of_a_bump():
    t = np.arange(-2.0, 2.0, 0.004)
    bump = np.exp(-0.5 * (t / 0.05) ** 2)
    trace = EnergyTrace(times_ps=t, energy_mev=bump)
    out = convolve_response(trace, 0.08)
    # far from the edges the kernel is area-preserving
    assert np.trapezoid(out.energy_mev, t) == pytest.approx(
        np.trapezoid(bump, t), rel=1e-6
    )
    assert out.energy_mev.max() < bump.max()


def test_charging_metrics_on_a_linear_ramp():
    # rises 0 -> 1 over [0, 1] ps then holds; half max at exactly 0.5 ps
    e = np.concatenate([np.linspace(0.0, 1.0, 101), np.full(50, 1.0)])
    metrics = charging_metrics(ramp_trace(e), pump_arrival_ps=0.0)
    assert metrics.t_half_ps == pytest.approx(0.5, abs=1e-9)
    assert metrics.tau_ps == pytest.approx(0.5, abs=1e-9)
    assert metrics.e_max_mev == pytest.approx(1.0)
    assert metrics.p_max_mev_per_ps == pytest.approx(1.0, rel=1e-9)
    assert metrics.t_peak_ps == pytest.approx(1.0, abs=1e-9)


def test_charging_metrics_edge_cases():
    # already above half maximum at the first sample
    e = np.array([0.9, 0.95, 1.0, 0.8])
    metrics = charging_metrics(ramp_trace(e), pump_arrival_ps=0.0)
    assert metrics.t_half_ps == 0.0
    with pytest.raises(UndefinedMetricError):
        charging_metrics(ramp_trace(np.zeros(10)), pump_arrival_ps=0.0)
    with pytest.warns(UserWarning, match="clamping"):
        metrics = charging_metrics(ramp_trace(np.linspace(0, 1, 50)), pump_arrival_ps=-5.0)
    assert metrics.tau_ps >= 0.0


def test_negative_tau_when_energy_precedes_the_pump():
    e = np.concatenate([np.linspace(0.0, 1.0, 51), np.full(50, 1.0)])
    metrics = charging_metrics(ramp_trace(e), pump_arrival_ps=0.4)
    assert metrics.tau_ps == pytest.approx(metrics.t_half_ps - 0.4)
    assert metrics.tau_ps < metrics.t_half_ps


def regime_params(n: float, g_mev: float = 10.6e-6) -> ModelParams:
    return ModelParams(
        n_molecules=n, g_mev=g_mev, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=1.68, n_ref=8.08e10, gamma_minus_mev=0.0141,
    )


def test_regime_thresholds_bracket_the_crossover():
    report = classify_regime(regime_params(16.2e10), 0.117, 0.020)
    # the experimental samples sit between the dephasing and cavity scales
    assert report.regime == CROSSOVER
    assert report.n_gammaz < 16.2e10 < report.n_kappa

    low = classify_regime(regime_params(1e9), 0.1, 0.020)
    assert low.regime == DECAY_DOMINATED
    high = classify_regime(regime_params(1e12, g_mev=1e-4), 0.1, 0.020)
    assert high.regime in (COUPLING_DOMINATED, NON_RESONANT)


def test_zero_coupling_is_always_decay_dominated():
    report = classify_regime(regime_params(1e10, g_mev=0.0), 0.1, 0.020)
    assert report.regime == DECAY_DOMINATED
    assert math.isinf(report.n_kappa)
    assert math.isinf(report.n_gammaz)
    assert math.isinf(report.n_sigma)


def test_non_resonant_takes_precedence():
    # huge splitting: far beyond the pulse bandwidth even though coupling wins
    params = regime_params(1e10, g_mev=1.0)
    report = classify_regime(params, 0.0, 0.020)
    assert report.regime == NON_RESONANT
    assert params.n_molecules > report.n_sigma


def test_pulse_bandwidth_threshold_value():
    report = classify_regime(regime_params(1e10), 0.0, 0.020)
    expected = (0.4 ** 0.25) * HBAR_MEV_PS / 0.020
    assert report.n_sigma == pytest.approx((expected / 10.6e-6) ** 2)


@settings(max_examples=25, deadline=None)
@given(
    f=st.floats(min_value=-3.0, max_value=3.0),
    q=st.floats(min_value=1e-6, max_value=1e6),
    n_i=st.floats(min_value=1e3, max_value=1e12),
    ratio=st.floats(min_value=1.1, max_value=100.0),
)
def test_scaling_exponent_inverts_power_laws(f, q, n_i, ratio):
    n_j = n_i / ratio
    q_i = q * n_i ** f
    q_j = q * n_j ** f
    assert scaling_exponent(q_i, q_j, n_i, n_j) == pytest.approx(f, abs=1e-6)


def test_scaling_exponent_domain_errors():
    with pytest.raises(ValueError):
        scaling_exponent(1.0, 1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        scaling_exponent(1.0, -1.0, 10.0, 20.0)
    with pytest.raises(ValueError):
        scaling_exponent(1.0, 1.0, -10.0, 20.0)


SWEEP_CONFIG = SolverConfig(t_start_ps=-0.3, t_end_ps=2.0, output_dt_ps=0.002)


def test_single_point_sweep_matches_direct_simulation():
    params = regime_params(8.08e10)
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    r = 0.12
    points = sweep(params, "N", [8.08e10], pulse, SWEEP_CONFIG, photon_ratio=r)
    assert len(points) == 1
    point = points[0]
    assert point.error is None

    amp = math.sqrt(r * 8.08e10)
    direct = simulate_energy(params, PulseParams(amplitude=amp, sigma_ps=0.020), SWEEP_CONFIG)
    metrics = charging_metrics(direct, 0.0)
    assert point.tau_ps == pytest.approx(metrics.tau_ps, rel=1e-12)
    assert point.e_max_mev == pytest.approx(metrics.e_max_mev, rel=1e-12)
    assert point.p_max_mev_per_ps == pytest.approx(metrics.p_max_mev_per_ps, rel=1e-12)


def test_sweep_requires_ratio_for_molecule_axis():
    params = regime_params(1e10)
    pulse = PulseParams(amplitude=1.0, sigma_ps=0.020)
    with pytest.raises(ValueError, match="photon_ratio"):
        sweep(params, "N", [1e10], pulse, SWEEP_CONFIG)
    with pytest.raises(ValueError, match="axis"):
        sweep(params, "g", [1.0], pulse, SWEEP_CONFIG, photon_ratio=0.1)


def test_sweep_reports_per_point_failures():
    params = regime_params(1e10)
    pulse = PulseParams(amplitude=1.0, sigma_ps=0.020)
    # r = 0 stores no energy: the metrics are undefined for that row only
    points = sweep(params, "r", [0.0, 0.1], pulse, SWEEP_CONFIG)
    assert points[0].error is not None
    assert math.isnan(points[0].tau_ps)
    assert points[1].error is None


def test_sweep_lets_other_errors_propagate(monkeypatch):
    # only a failed integration or an undefined metric becomes a row
    def broken(*args):
        raise TypeError("programming error")

    monkeypatch.setattr(observables, "simulate_energy", broken)
    params = regime_params(1e10)
    with pytest.raises(TypeError, match="programming error"):
        sweep(params, "r", [0.1], PulseParams(amplitude=1.0, sigma_ps=0.020), SWEEP_CONFIG)


class _SerialPool:
    """Stands in for ``multiprocessing.Pool``: records its size, maps in this process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


def test_sweep_starts_only_the_processes_it_needs(monkeypatch):
    monkeypatch.setattr(cumulant, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    params = regime_params(1e10)
    pulse = PulseParams(amplitude=1.0, sigma_ps=0.020)
    one = sweep(params, "r", [0.1], pulse, SWEEP_CONFIG, workers=2)
    assert _SerialPool.sizes == []
    two = sweep(params, "r", [0.05, 0.1], pulse, SWEEP_CONFIG, workers=8)
    assert _SerialPool.sizes == [2]
    assert two[1] == one[0]


def test_lower_polariton_drive_detunes_both_resonances():
    params = regime_params(4.0e10)
    pulse = PulseParams(amplitude=1.0, sigma_ps=0.020)
    resonant = sweep(params, "r", [0.1], pulse, SWEEP_CONFIG)[0]
    detuned = sweep(params, "r", [0.1], pulse, SWEEP_CONFIG, lower_polariton=True)[0]
    assert detuned.error is None
    assert detuned.e_max_mev != pytest.approx(resonant.e_max_mev, rel=1e-3)
