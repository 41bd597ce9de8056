"""Moment equations: stationarity, conservation laws and closed-form limits."""

from __future__ import annotations

import math
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import LSODA, RK45
from scipy.special import erfc

from dickesim import cumulant
from dickesim.cumulant import (
    CLOSURES,
    MOMENT_NAMES,
    IntegrationError,
    MomentTrace,
    STATE_SIZE,
    SolverConfig,
    energy_trace,
    integrate,
    moment,
    output_grid,
    simulate_energy,
)
from dickesim.fit import LABEL_INFO
from dickesim.model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    pulse_shape,
)

SMALL_N = ModelParams(
    n_molecules=2.0,
    g_mev=0.5,
    kappa_mev=5.0,
    gamma0z_mev=1.68,
    n_ref=2.0,
    gamma_minus_mev=0.0141,
)


GROUND = cumulant._initial_array("cumulant")


def test_layout_tiles_the_state_vector_once():
    # reading every moment off the state [0, 1, ..., 19] returns the slots
    # it occupies; in storage order they must cover each slot exactly once
    slots = np.arange(STATE_SIZE, dtype=float)
    covered = []
    for name in MOMENT_NAMES:
        value = moment(slots, name)
        covered.append(value.real)
        if np.iscomplexobj(value):
            covered.append(value.imag)
    assert covered == list(range(STATE_SIZE))
    # leading axes pass through, and a trace reads the same through attributes
    rows = np.stack([slots, slots + 100.0])
    trace = MomentTrace(np.array([0.0, 1.0]), rows)
    for name in MOMENT_NAMES:
        assert np.array_equal(moment(rows, name), getattr(trace, name))
    assert moment(GROUND, "c_z") == -1.0 and moment(GROUND, "c_zz") == 1.0
    with pytest.raises(AttributeError):
        trace.c_q
    # the equations' view: naming the slots and storing the names back returns
    # every slot once, in order, carrying its own index
    named = cumulant._named(list(slots))
    assert list(named) == list(MOMENT_NAMES)
    assert list(cumulant._stored(named)) == [(slot, float(slot)) for slot in range(STATE_SIZE)]
    # mean field's five names are the first six slots
    first = {name: named[name] for name in ("c_a", "c_x", "c_y", "c_z", "c_n")}
    assert [slot for slot, _ in cumulant._stored(first)] == list(range(6))


def test_ground_state_is_stationary_without_drive():
    pulse = PulseParams(amplitude=0.0)
    for closure in CLOSURES:
        dy = cumulant._batch_system([SMALL_N], pulse, closure)[0](0.0, GROUND)
        assert np.all(dy == 0.0), closure


def test_drive_enters_through_the_field_moments_only():
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    eta = pulse.amplitude / (pulse.sigma_ps * math.sqrt(2.0 * math.pi))
    dy = cumulant._batch_system([SMALL_N], pulse, "cumulant")[0](0.0, GROUND)
    # eta pumps <a> directly and <a sz> through the factorised <sz> = -1
    assert moment(dy, "c_a") == pytest.approx(eta, rel=1e-12)
    assert moment(dy, "c_az") == pytest.approx(-eta, rel=1e-12)
    others = [moment(dy, name) for name in MOMENT_NAMES if name not in ("c_a", "c_az")]
    assert len(others) == 13
    assert np.allclose(np.abs(np.array(others, dtype=complex)), 0.0, atol=1e-14)


def test_variant_pair_bracket_breaks_dark_state_stationarity():
    pulse = PulseParams(amplitude=0.0)
    dy = cumulant._batch_system([SMALL_N], pulse, "cumulant", ax_bracket="variant")[0](0.0, GROUND)
    # the N c_xx reading drops the identity part of <sx sx>, leaving a
    # spurious g/(2 hbar) source in the field-spin correlation
    expected = SMALL_N.g_mev / (2.0 * HBAR_MEV_PS)
    assert abs(moment(dy, "c_ax")) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        cumulant._batch_system([SMALL_N], pulse, "cumulant", ax_bracket="either")


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
    assert np.max(trace.energy_mev) > 0.0


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
    batch_system = cumulant._batch_system

    def counting_batch_system(*args, **kwargs):
        rhs, jac = batch_system(*args, **kwargs)

        def counted(t, y):
            nonlocal calls
            calls += 1
            return rhs(t, y)

        return counted, jac

    monkeypatch.setattr(cumulant, "_batch_system", counting_batch_system)
    energy = simulate_energy(params, pulse, config).energy_mev
    assert 0 < calls < 10_000, calls  # RK45 needs about 79,000 here
    monkeypatch.undo()

    times = output_grid(config)
    reference = MomentTrace(times, cumulant._segmented_solve(
        cumulant._batch_system([params], pulse, "cumulant")[0],
        cumulant._initial_array("cumulant"),
        times,
        pulse,
        1e-10,
        config.abs_tol,
        RK45,
    )[0])
    ref_energy = 0.5 * params.omega_a_mev * (reference.c_z + 1.0)
    assert np.max(np.abs(energy - ref_energy)) <= 1e-6 * np.max(ref_energy)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("stepper", [LSODA, RK45])
def test_finite_time_blow_up_raises(stepper):
    # y' = y^2 from y(0) = 1 diverges at t = 1; LSODA alone would never return
    pulse = PulseParams(amplitude=0.0, center_ps=5.0, sigma_ps=0.020)
    with pytest.raises(IntegrationError) as info:
        cumulant._segmented_solve(
            lambda t, y: y * y, np.array([1.0]), np.linspace(0.0, 2.0, 201),
            pulse, 1e-8, 1e-10, stepper,
        )
    assert 0.99 < info.value.last_good_time_ps <= 1.0


@pytest.mark.parametrize("stepper", [LSODA, RK45])
def test_grid_points_on_the_segment_edges_are_sampled_once(stepper):
    # the pulse's 8 sigma edges (-1 and 1 ps) and t_end (4 ps) are grid
    # points; every value here is exact in binary
    pulse = PulseParams(amplitude=0.0, center_ps=0.0, sigma_ps=0.125)
    times = np.arange(-16, 33) * 0.125
    sampled = []

    def reduce(t, states):
        sampled.extend(t)
        return states

    data, _ = cumulant._segmented_solve(
        lambda t, y: -y, np.array([1.0]), times, pulse, 1e-8, 1e-10, stepper, reduce=reduce,
    )
    np.testing.assert_array_equal(sampled, times)
    assert data.shape == (times.size, 1)
    exact = np.exp(-(times - times[0]))
    # ten times rtol, for the global error the steps accumulate
    assert np.max(np.abs(data[:, 0] - exact)) <= 1e-7


def test_reduce_never_receives_more_than_a_batch_of_rows():
    # with the pulse far outside the window, y' = -y leaves LSODA free to take
    # steps spanning hundreds of grid points; each is sampled in runs that
    # fill one pending block, so no reduction ever sees more than a block
    pulse = PulseParams(amplitude=0.0, center_ps=50.0, sigma_ps=0.020)
    times = np.linspace(0.0, 10.0, 10_001)
    sizes = []

    def reduce(t, states):
        sizes.append(t.size)
        return states

    data, stats = cumulant._segmented_solve(
        lambda t, y: -y, np.array([1.0]), times, pulse, 1e-8, 1e-10, LSODA, reduce=reduce,
    )
    assert stats.steps * cumulant._REDUCE_BATCH < times.size, stats
    assert max(sizes) <= cumulant._REDUCE_BATCH, max(sizes)
    assert sum(sizes) == times.size
    assert np.max(np.abs(data[:, 0] - np.exp(-times))) <= 1e-7


def _label_member(label, g_nev, gamma0z_mev, gamma_minus_mev):
    """One member of a fit of ``label`` (120 fs cavity) and the label's pulse."""
    n, photons = LABEL_INFO[label]
    params = ModelParams(
        n_molecules=n, g_mev=g_nev * 1e-6, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=gamma0z_mev, n_ref=8.08e10, gamma_minus_mev=gamma_minus_mev,
    )
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(photons / n, n), center_ps=0.0, sigma_ps=0.020,
    )
    return params, pulse


@pytest.mark.parametrize("label, g_nev, gamma0z_mev, gamma_minus_mev", [
    ("A1", 10.6, 1.68, 0.0141),    # the nominal member: <a> reaches 1e5, <a'a> 1e10
    ("B2", 5000.0, 0.1, 0.0316),   # a strongly coupled corner, at the collective Rabi period
])
def test_sigma_z_holds_the_tolerance_of_a_tight_solve(label, g_nev, gamma0z_mev, gamma_minus_mev):
    # the absolute tolerance of a field moment is in its own units, so its
    # zeros no longer set the step; <sigma_z> must stay within a few rel_tol
    # of a solve a thousand times tighter
    params, pulse = _label_member(label, g_nev, gamma0z_mev, gamma_minus_mev)
    config = SolverConfig(t_start_ps=-1.16, t_end_ps=2.16)
    tight = replace(config, rel_tol=1e-11, abs_tol=1e-13)
    c_z = integrate(params, pulse, config).c_z
    reference = integrate(params, pulse, tight).c_z
    assert np.max(np.abs(c_z - reference)) <= 5.0 * config.rel_tol


def test_absolute_tolerance_is_in_units_of_the_injected_amplitude():
    # abs_tol * max(1, eta0)^k, with k the moment's field operators
    fields = {"c_a": 1, "c_ax": 1, "c_ay": 1, "c_az": 1, "c_n": 2, "c_aa": 2}
    tols = cumulant._abs_tols(1e-10, PulseParams(amplitude=100.0))
    for name in MOMENT_NAMES:
        value = moment(tols, name)
        want = 1e-10 * 100.0 ** fields.get(name, 0)
        assert value == (want + 1j * want if np.iscomplexobj(value) else want), name
    # at eta0 <= 1 every slot keeps abs_tol, and integrate is bit for bit the
    # LSODA solve with the scalar tolerance (the oracle checks drive there)
    for amplitude in (0.3, 1.0):
        pulse = PulseParams(amplitude=amplitude, center_ps=0.0, sigma_ps=0.020)
        config = SolverConfig(t_start_ps=-0.2, t_end_ps=1.0)
        assert np.all(cumulant._abs_tols(config.abs_tol, pulse) == config.abs_tol)
        rhs, jac = cumulant._batch_system([SMALL_N], pulse, "cumulant")
        band = STATE_SIZE - 1
        scalar, _ = cumulant._segmented_solve(
            rhs, GROUND, output_grid(config), pulse, config.rel_tol, config.abs_tol, LSODA,
            jac=jac, lband=band, uband=band,
        )
        np.testing.assert_array_equal(integrate(SMALL_N, pulse, config).data, scalar)


def _b2_members(closure="cumulant"):
    """The B2 members of a fit over a gamma0z axis reaching strong dephasing."""
    n = 0.81e10
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(1.60e10 / n, n), center_ps=0.0, sigma_ps=0.020,
    )
    params = [
        ModelParams(
            n_molecules=n, g_mev=g * 1e-6, kappa_mev=HBAR_MEV_PS / 0.120,
            gamma0z_mev=gz, n_ref=8.08e10, gamma_minus_mev=gm,
        )
        for g in (5.3, 10.6, 21.2) for gz in (0.336, 1.68, 8.4, 42.0) for gm in (0.00705, 0.0141)
    ]
    return params, pulse, SolverConfig(closure=closure, t_start_ps=-0.65, t_end_ps=1.9)


@pytest.mark.parametrize("closure", CLOSURES)
def test_stacked_members_match_their_scalar_traces(closure):
    params, pulse, config = _b2_members(closure)
    traces, stats = cumulant.simulate_energies(params, pulse, config)
    assert stats.jacobians > 0 and stats.steps > 0 and stats.rhs_calls > 0
    for p, trace in zip(params, traces):
        ref = simulate_energy(p, pulse, config).energy_mev
        np.testing.assert_array_equal(trace.times_ps, output_grid(config))
        assert np.max(np.abs(trace.energy_mev - ref)) <= 1e-6 * np.max(ref), p


def test_lone_member_takes_the_scalar_path_bit_for_bit():
    # the c_z-only reduction of a batch of one against the full state of ``integrate``
    params, pulse, config = _b2_members()
    (trace,), _ = cumulant.simulate_energies(params[:1], pulse, config)
    full = energy_trace(integrate(params[0], pulse, config), params[0])
    np.testing.assert_array_equal(trace.energy_mev, full.energy_mev)


def test_band_jacobian_is_the_block_diagonal_of_the_scalar_jacobian():
    params, pulse, _ = _b2_members()
    params = params[::7]
    size = len(params)
    rng = np.random.default_rng(3)
    # near a driven state: a large field amplitude and small correlations
    states = np.tile(GROUND, (size, 1)) + rng.normal(size=(size, STATE_SIZE)) * 1e-3
    states[:, :2] *= 1e7
    states[:, 5] = 1e9
    rhs, jac = cumulant._batch_system(params, pulse, "cumulant")
    np.testing.assert_allclose(
        rhs(0.01, states.ravel()).reshape(size, STATE_SIZE),
        [cumulant._batch_system([p], pulse, "cumulant")[0](0.01, y) for p, y in zip(params, states)],
        rtol=1e-12, atol=0.0,
    )
    packed = jac(0.01, states.ravel())
    band = STATE_SIZE - 1
    assert packed.shape == (2 * band + 1, size * STATE_SIZE)
    full = np.zeros((size * STATE_SIZE, size * STATE_SIZE))
    for r in range(full.shape[0]):
        for q in range(max(0, r - band), min(full.shape[1], r + band + 1)):
            full[r, q] = packed[band + r - q, q]
    for m, (p, y) in enumerate(zip(params, states)):
        scalar = cumulant._batch_system([p], pulse, "cumulant")[0]
        dense = np.empty((STATE_SIZE, STATE_SIZE))
        for c in range(STATE_SIZE):
            h = 1e-2 * max(abs(y[c]), 1.0)
            up, down = y.copy(), y.copy()
            up[c] += h
            down[c] -= h
            dense[:, c] = (scalar(0.01, up) - scalar(0.01, down)) / (2.0 * h)
        block = slice(m * STATE_SIZE, (m + 1) * STATE_SIZE)
        assert np.max(np.abs(full[block, block] - dense)) <= 1e-6 * np.max(np.abs(dense)), m
        off = full[block].copy()
        off[:, block] = 0.0
        assert not off.any(), m


@pytest.mark.parametrize("amplitude", [1.0, 0.0])
@pytest.mark.parametrize("ax_bracket", ["consistent", "variant"])
@pytest.mark.parametrize("closure", CLOSURES)
def test_polynomial_matches_the_equations_on_floats(closure, ax_bracket, amplitude):
    # a detuned pair, whose terms are all of order one, stacked with a B2
    # member; at random states, inside the pulse (5 fs) and past it (0.3 ps)
    params = [replace(SMALL_N, delta_a_mev=0.3, delta_c_mev=-0.2), _b2_members()[0][9]]
    pulse = PulseParams(amplitude=amplitude, center_ps=0.0, sigma_ps=0.020)
    peak, t0, inv_sig = pulse_shape(pulse)
    rhs, jac = cumulant._batch_system(params, pulse, closure, ax_bracket)
    bodies = [cumulant._moment_equations([p], closure, ax_bracket) for p in params]
    rows, columns = np.indices((STATE_SIZE, STATE_SIZE))
    rng = np.random.default_rng(11)
    for t in (0.005, 0.3):
        eta = peak * math.exp(-0.5 * ((t - t0) * inv_sig) ** 2)
        for _ in range(4):
            y = rng.uniform(-1.0, 1.0, size=len(params) * STATE_SIZE)
            dy = rhs(t, y).reshape(len(params), STATE_SIZE)
            packed = jac(t, y)
            # no term is cubic in one component, so central differences are
            # exact up to rounding, and a unit step keeps that small
            steps = np.eye(y.size)
            diffs = np.array([(rhs(t, y + h) - rhs(t, y - h)) / 2.0 for h in steps]).T
            for m, body in enumerate(bodies):
                want = np.zeros(STATE_SIZE)
                derivatives = body(eta, cumulant._named(y[m * STATE_SIZE:(m + 1) * STATE_SIZE]))
                for slot, value in cumulant._stored(derivatives):
                    want[slot] = value.item()
                assert np.max(np.abs(dy[m] - want)) <= 1e-14 * np.max(np.abs(want)), (m, t)
                block = slice(m * STATE_SIZE, (m + 1) * STATE_SIZE)
                exact = packed[STATE_SIZE - 1 + rows - columns, m * STATE_SIZE + columns]
                central = diffs[block, block]
                assert np.max(np.abs(exact - central)) <= 1e-10 * np.max(np.abs(central)), (m, t)


def test_import_does_not_load_sympy():
    # the equations are traced by the package's own polynomial type; sympy
    # is not a dependency, and importing it would slow every start-up
    src = str(Path(cumulant.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import dickesim; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blow_up_in_one_member_raises_and_names_it():
    # three stacked copies of y' = -y, of which member 1 is y' = y^2
    pulse = PulseParams(amplitude=0.0, center_ps=5.0, sigma_ps=0.020)
    mask = np.array([0.0, 1.0, 0.0])
    with pytest.raises(IntegrationError, match="member 1") as info:
        cumulant._segmented_solve(
            lambda t, y: mask * y * y - (1.0 - mask) * y, np.ones(3), np.linspace(0.0, 2.0, 201),
            pulse, 1e-8, 1e-10, LSODA, members=3,
        )
    assert info.value.member == 1
    assert 0.99 < info.value.last_good_time_ps <= 1.0


def test_lsoda_work_arrays_do_not_outlive_the_solve():
    # scipy's LSODA wrapper keeps its work arrays alive after the solver is
    # gone; repeated batch solves must not accumulate them
    params, pulse, _ = _b2_members()
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=0.3)
    cumulant.simulate_energies(params[:4], pulse, config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            cumulant.simulate_energies(params[:4], pulse, config)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # each leaked solve would hold three segments' rwork, about 0.13 MB
    assert grown < 100_000, grown


def test_a_batch_keeps_only_sigma_z_of_its_samples():
    # 24 members on 1,276 grid points: their whole states would take 4.9 MB,
    # but each pending block is reduced to <sigma_z> and then freed
    params, pulse, config = _b2_members()
    cumulant.simulate_energies(params, pulse, config)
    tracemalloc.start()
    try:
        cumulant.simulate_energies(params, pulse, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = output_grid(config).size * len(params) * STATE_SIZE * 8
    assert peak < states / 2, (peak, states)


def test_integration_error_survives_a_worker_process():
    # a pool returns a worker's exception pickled; it must arrive whole
    err = pickle.loads(pickle.dumps(IntegrationError("blew up", 0.25, member=3)))
    assert (str(err), err.last_good_time_ps, err.member) == ("blew up", 0.25, 3)
