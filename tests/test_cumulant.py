"""Moment equations: stationarity, conservation laws and closed-form limits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erfc

from dickesim import cumulant
from dickesim.cumulant import (
    CumulantState,
    IntegrationError,
    MomentTrace,
    STATE_SIZE,
    SolverConfig,
    integrate,
    output_grid,
    rhs_cumulant,
    rhs_meanfield,
    simulate_energy,
    solver_config_from_config,
)
from dickesim.model import (
    ConfigError,
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
)

SMALL_N = ModelParams(
    n_molecules=2.0,
    g_mev=0.5,
    kappa_mev=5.0,
    gamma0z_mev=1.68,
    n_ref=2.0,
    gamma_minus_mev=0.0141,
)


def test_state_round_trip():
    state = CumulantState(
        c_a=0.1 + 0.2j, c_x=0.3, c_y=-0.4, c_z=-0.5, c_n=0.6,
        c_aa=0.7 - 0.8j, c_ax=0.9j, c_ay=1.0, c_az=-1.1j,
        c_xx=1.2, c_yy=1.3, c_zz=1.4, c_xy=1.5, c_xz=1.6, c_yz=1.7,
    )
    assert CumulantState.from_array(state.to_array()) == state
    assert state.to_array().shape == (STATE_SIZE,)


def test_ground_state_is_stationary_without_drive():
    pulse = PulseParams(amplitude=0.0)
    ground = CumulantState.ground()
    dy = rhs_cumulant(ground, SMALL_N, pulse, 0.0)
    assert np.all(dy.to_array() == 0.0)
    dy_mf = rhs_meanfield(ground, SMALL_N, pulse, 0.0)
    assert np.all(dy_mf.to_array() == 0.0)


def test_drive_enters_through_the_field_moments_only():
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    eta = pulse.amplitude / (pulse.sigma_ps * math.sqrt(2.0 * math.pi))
    dy = rhs_cumulant(CumulantState.ground(), SMALL_N, pulse, 0.0)
    # eta pumps <a> directly and <a sz> through the factorised <sz> = -1
    assert dy.c_a == pytest.approx(eta, rel=1e-12)
    assert dy.c_az == pytest.approx(-eta, rel=1e-12)
    others = [dy.c_x, dy.c_y, dy.c_z, dy.c_n, dy.c_aa, dy.c_ax, dy.c_ay,
              dy.c_xx, dy.c_yy, dy.c_zz, dy.c_xy, dy.c_xz, dy.c_yz]
    assert np.allclose(np.abs(np.array(others, dtype=complex)), 0.0, atol=1e-14)


def test_variant_pair_bracket_breaks_dark_state_stationarity():
    pulse = PulseParams(amplitude=0.0)
    dy = rhs_cumulant(CumulantState.ground(), SMALL_N, pulse, 0.0, ax_bracket="variant")
    # the N c_xx reading drops the identity part of <sx sx>, leaving a
    # spurious g/(2 hbar) source in the field-spin correlation
    expected = SMALL_N.g_mev / (2.0 * HBAR_MEV_PS)
    assert abs(dy.c_ax) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        rhs_cumulant(CumulantState.ground(), SMALL_N, pulse, 0.0, ax_bracket="either")


def test_excitation_conserved_without_losses():
    params = ModelParams(
        n_molecules=2.0, g_mev=2.0, kappa_mev=0.0,
        gamma0z_mev=0.0, n_ref=2.0, gamma_minus_mev=0.0,
    )
    pulse = PulseParams(amplitude=0.3, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(
        t_start_ps=-0.2, t_end_ps=2.0, output_dt_ps=0.002,
        rel_tol=1e-11, abs_tol=1e-13,
    )
    trace = integrate(params, pulse, config)
    # once the drive tail is negligible (10 sigma out), photons plus excited
    # molecules is a constant of motion
    total = trace.c_n + 0.5 * params.n_molecules * (trace.c_z + 1.0)
    after = trace.times_ps > 10.0 * pulse.sigma_ps
    drift = np.max(np.abs(total[after] - total[after][0]))
    assert drift < 1e-10


def test_empty_coupling_matches_gaussian_quadrature():
    params = ModelParams(
        n_molecules=10.0, g_mev=0.0, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=1.68, n_ref=10.0, gamma_minus_mev=0.0141,
    )
    pulse = PulseParams(amplitude=0.5, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=1.8, output_dt_ps=0.002)
    trace = integrate(params, pulse, config)
    k = 0.5 * params.kappa_mev / HBAR_MEV_PS
    t = trace.times_ps
    u = (t - pulse.center_ps - k * pulse.sigma_ps ** 2) / pulse.sigma_ps
    closed = (
        pulse.amplitude
        * np.exp(-k * (t - pulse.center_ps) + 0.5 * (k * pulse.sigma_ps) ** 2)
        * 0.5 * erfc(-u / math.sqrt(2.0))
    )
    assert np.max(np.abs(trace.c_a - closed)) < 10.0 * config.rel_tol * pulse.amplitude


def test_lossless_cavity_keeps_the_full_pulse_area():
    params = ModelParams(
        n_molecules=10.0, g_mev=0.0, kappa_mev=0.0,
        gamma0z_mev=0.0, n_ref=10.0, gamma_minus_mev=0.0,
    )
    pulse = PulseParams(amplitude=0.7, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=0.5)
    trace = integrate(params, pulse, config)
    assert abs(trace.c_a[-1]) == pytest.approx(0.7, rel=1e-8)


def test_meanfield_tracks_coherent_photon_number():
    pulse = PulseParams(amplitude=0.2, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(
        closure="meanfield", t_start_ps=-0.2, t_end_ps=1.0, output_dt_ps=0.002,
        rel_tol=1e-11, abs_tol=1e-13,
    )
    trace = integrate(SMALL_N, pulse, config)
    assert np.max(np.abs(trace.c_n - np.abs(trace.c_a) ** 2)) < 1e-10


def test_output_grid_spans_the_window_uniformly():
    config = SolverConfig(t_start_ps=-0.1, t_end_ps=0.5, output_dt_ps=0.01)
    t = output_grid(config)
    assert t[0] == pytest.approx(-0.1)
    assert t[-1] >= 0.5 - 1e-12
    assert np.allclose(np.diff(t), 0.01)


def test_simulate_energy_starts_from_zero():
    pulse = PulseParams(amplitude=0.1, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=0.4)
    trace = simulate_energy(SMALL_N, pulse, config)
    assert trace.energy_mev[0] == pytest.approx(0.0, abs=1e-12)
    assert trace.n_molecules == SMALL_N.n_molecules
    assert np.max(trace.energy_mev) > 0.0


def test_solver_config_parsing_and_rejection():
    cfg = solver_config_from_config({
        "solver.t_start_ps": "-0.3",
        "solver.t_end_ps": "2.5",
        "solver.output_dt_fs": "4",
        "solver.rel_tol": "1e-9",
    })
    assert cfg.t_end_ps == pytest.approx(2.5)
    assert cfg.output_dt_ps == pytest.approx(0.004)
    assert cfg.rel_tol == pytest.approx(1e-9)
    with pytest.raises(ConfigError):
        solver_config_from_config({"solver.t_stop_ps": "2"})
    with pytest.raises(ConfigError):
        solver_config_from_config({"solver.t_start_ps": "3", "solver.t_end_ps": "1"})
    with pytest.raises(ValueError):
        SolverConfig(closure="exact")


def test_integration_is_deterministic():
    pulse = PulseParams(amplitude=0.3, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=1.0)
    a = integrate(SMALL_N, pulse, config)
    b = integrate(SMALL_N, pulse, config)
    assert np.array_equal(a.data, b.data)


def test_stiff_dephasing_corner_is_cheap_and_accurate(monkeypatch):
    # the B2 label (0.81e10 molecules, 1.60e10 photons) at gamma0z = 300 meV:
    # dephasing scales as N_ref/N, so gamma_tot is about 1000 kappa and an
    # explicit integrator is held to steps of ~1/gamma_tot
    n = 0.81e10
    params = ModelParams(
        n_molecules=n, g_mev=10.6e-6, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=300.0, n_ref=8.08e10, gamma_minus_mev=0.0141,
    )
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(1.60e10 / n, n),
        center_ps=0.0, sigma_ps=0.020,
    )
    config = SolverConfig(t_start_ps=-1.15, t_end_ps=1.9)

    calls = 0
    make_rhs = cumulant._make_rhs

    def counting_make_rhs(*args, **kwargs):
        rhs = make_rhs(*args, **kwargs)

        def counted(t, y):
            nonlocal calls
            calls += 1
            return rhs(t, y)

        return counted

    monkeypatch.setattr(cumulant, "_make_rhs", counting_make_rhs)
    energy = simulate_energy(params, pulse, config).energy_mev
    assert calls < 10_000, calls  # RK45 needs about 79,000 here

    times = output_grid(config)
    reference = MomentTrace(times, cumulant._segmented_solve(
        make_rhs(params, pulse, "cumulant"),
        cumulant._initial_array("cumulant"),
        times,
        pulse,
        1e-10,
        config.abs_tol,
        "RK45",
    ))
    ref_energy = 0.5 * params.omega_a_mev * (reference.c_z + 1.0)
    assert np.max(np.abs(energy - ref_energy)) <= 1e-6 * np.max(ref_energy)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("method", ["LSODA", "RK45"])
def test_finite_time_blow_up_raises(method):
    # y' = y^2 from y(0) = 1 diverges at t = 1; LSODA alone would never return
    pulse = PulseParams(amplitude=0.0, center_ps=5.0, sigma_ps=0.020)
    with pytest.raises(IntegrationError) as info:
        cumulant._segmented_solve(
            lambda t, y: y * y, np.array([1.0]), np.linspace(0.0, 2.0, 201),
            pulse, 1e-8, 1e-10, method,
        )
    assert 0.99 < info.value.last_good_time_ps <= 1.0
