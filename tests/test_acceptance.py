"""Acceptance gate: one test per release criterion, one PASS line each.

Every test prints ``PASS criterion <n>: ...`` with its key numbers after the
assertions hold, so a verbose run reads as a checklist.  Tolerances and
runtime budgets are asserted, not just reported.  The suite needs no
network access and no measured data files; everything it compares against
is computed here or published numbers frozen into the tables below.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from dickesim.cumulant import SolverConfig, integrate, simulate_energy
from dickesim.fit import (
    FitGrid,
    LABEL_INFO,
    global_fit,
    make_synthetic_dataset,
    model_traces,
)
from dickesim.lindblad import OracleConfig, evolve_exact
from dickesim.model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    gamma_total,
)
from dickesim.observables import charging_metrics, scaling_exponent, sweep
from dickesim.spectrum import absorption_spectrum, effective_rabi

KAPPA_MEV = HBAR_MEV_PS / 0.120  # 120 fs cavity lifetime

BEST_FIT = dict(g_mev=10.6e-6, gamma0z_mev=1.68, gamma_minus_mev=0.0141)

# published per-molecule charging observables (tau ps, E_max meV, P_max meV/ps)
PUBLISHED_METRICS = {
    "A1": (0.094, 108.0, 791.0),
    "A2": (0.120, 76.0, 412.0),
    "A3": (0.118, 11.0, 60.0),
    "B1": (0.114, 184.0, 1008.0),
    "B2": (0.105, 37.0, 221.0),
}

# published effective exponents (f_tau, f_E, f_P) between run pairs
PUBLISHED_EXPONENTS = {
    ("A1", "A2"): (-0.35, 0.52, 0.94),
    ("A2", "A3"): (0.01, 1.18, 1.20),
    ("B1", "B2"): (0.12, 2.30, 2.19),
}


def _pass(n: int, message: str) -> None:
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_exact_oracle_equivalence():
    start = time.perf_counter()
    window = SolverConfig(t_start_ps=-0.2, t_end_ps=1.0, output_dt_ps=0.002)
    worst_cum = 0.0
    smallest_gap = math.inf
    for n in (1, 2):
        for mult in (0.1, 1.0, 10.0):
            params = ModelParams(
                n_molecules=n, g_mev=mult * KAPPA_MEV / math.sqrt(n),
                kappa_mev=KAPPA_MEV, gamma0z_mev=1.68, n_ref=n,
                gamma_minus_mev=0.0141,
            )
            pulse = PulseParams(amplitude=0.1, center_ps=0.0, sigma_ps=0.020)
            exact = evolve_exact(params, pulse, window, OracleConfig(n_max=8))
            peak_exact = float(exact.energy_mev(params.omega_a_mev).max())
            errs = {}
            for closure in ("cumulant", "meanfield"):
                trace = simulate_energy(params, pulse, replace(window, closure=closure))
                peak = float(trace.energy_mev.max())
                errs[closure] = abs(peak - peak_exact) / peak_exact
            assert errs["cumulant"] <= 0.02, (n, mult, errs)
            assert errs["meanfield"] > errs["cumulant"], (n, mult, errs)
            worst_cum = max(worst_cum, errs["cumulant"])
            smallest_gap = min(smallest_gap, errs["meanfield"] / errs["cumulant"])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(1, "pair-correlation peak energy within 2% of the exact solver for "
             f"N in {{1, 2}} at g sqrt(N)/kappa in {{0.1, 1, 10}} "
             f"(worst {worst_cum:.2%}); mean-field strictly worse in every case "
             f"(smallest ratio {smallest_gap:.1f}x); {elapsed:.1f} s")


def test_criterion_2_zero_coupling_quadrature():
    start = time.perf_counter()
    params = ModelParams(
        n_molecules=10.0, g_mev=0.0, kappa_mev=KAPPA_MEV,
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
    dev = float(np.max(np.abs(trace.c_a - closed)))
    limit = 10.0 * config.rel_tol * pulse.amplitude
    assert dev <= limit
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"decoupled cavity amplitude matches the Gaussian quadrature "
             f"closed form over a 2 ps window (max dev {dev:.2e}, "
             f"limit {limit:.2e}); {elapsed:.2f} s")


def _decade_slopes(params: ModelParams, grid, photon_ratio: float, window: SolverConfig):
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    points = sweep(params, "N", grid, pulse, window, photon_ratio=photon_ratio)
    for p in points:
        assert p.error is None, p.error
    logn = np.log10([p.axis_value for p in points])
    slopes = {}
    for name, values in (
        ("tau", [p.tau_ps for p in points]),
        ("E", [p.e_max_mev for p in points]),
        ("P", [p.p_max_mev_per_ps for p in points]),
    ):
        slopes[name] = float(np.polyfit(logn, np.log10(values), 1)[0])
    return slopes


def test_criterion_3_regime_scaling_slopes():
    start = time.perf_counter()
    decay = _decade_slopes(
        ModelParams(n_molecules=1e9, kappa_mev=KAPPA_MEV, gamma0z_mev=16.8, **{
            k: v for k, v in BEST_FIT.items() if k != "gamma0z_mev"
        }),
        np.geomspace(1e9, 1e10, 8), 0.14,
        SolverConfig(t_start_ps=-0.3, t_end_ps=3.0),
    )
    assert decay["E"] == pytest.approx(2.0, abs=0.1), decay
    assert decay["P"] == pytest.approx(2.0, abs=0.1), decay
    assert decay["tau"] == pytest.approx(0.0, abs=0.05), decay

    coupling = _decade_slopes(
        ModelParams(n_molecules=1e11, kappa_mev=0.5, gamma0z_mev=0.1, **{
            k: v for k, v in BEST_FIT.items() if k != "gamma0z_mev"
        }),
        np.geomspace(1e11, 1e12, 8), 0.14,
        SolverConfig(t_start_ps=-0.3, t_end_ps=3.0),
    )
    assert coupling["tau"] == pytest.approx(-0.5, abs=0.1), coupling
    assert coupling["P"] == pytest.approx(0.5, abs=0.1), coupling
    assert coupling["E"] == pytest.approx(0.0, abs=0.1), coupling
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(3, "one-decade log-log slopes: decay-dominated "
             f"E {decay['E']:+.2f}, P {decay['P']:+.2f}, tau {decay['tau']:+.3f}; "
             f"coupling-dominated tau {coupling['tau']:+.2f}, "
             f"P {coupling['P']:+.2f}, E {coupling['E']:+.2f}; {elapsed:.0f} s")


def test_criterion_4_published_exponent_arithmetic():
    start = time.perf_counter()
    worst = 0.0
    for (hi, lo), expected in PUBLISHED_EXPONENTS.items():
        n_hi, _ = LABEL_INFO[hi]
        n_lo, _ = LABEL_INFO[lo]
        got = tuple(
            scaling_exponent(
                PUBLISHED_METRICS[hi][q], PUBLISHED_METRICS[lo][q], n_hi, n_lo
            )
            for q in range(3)
        )
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=0.03), (hi, lo, got, expected)
            worst = max(worst, abs(g - e))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(4, "effective exponents from the published observables and molecule "
             f"numbers match all nine published values (worst gap {worst:.3f} "
             f"of the 0.03 allowance); {elapsed:.2f} s")


def test_criterion_5_spectrum_symmetry_splitting_and_line_count():
    start = time.perf_counter()

    def spectrum_params(n, g_mev=10.6e-6):
        return ModelParams(
            n_molecules=n, g_mev=g_mev, kappa_mev=KAPPA_MEV,
            gamma0z_mev=1.68, n_ref=8.08e10, gamma_minus_mev=0.0141,
        )

    # even symmetry on an arbitrary symmetric grid, strong and weak coupling
    for n in (2e9, 8.08e10, 1e12):
        result = absorption_spectrum(spectrum_params(n), np.linspace(-30.0, 30.0, 501))
        sym = float(np.max(np.abs(result.absorption - result.absorption[::-1])))
        assert sym < 1e-12, (n, sym)

    # resolved polaritons sit one grid step from the effective splitting
    params = spectrum_params(1e12)
    omega = effective_rabi(params).omega_mev
    width = 0.25 * (2.0 * gamma_total(params) + params.kappa_mev)
    assert omega >= 5.0 * width
    step = width / 10.0
    result = absorption_spectrum(
        params, np.arange(-2.0 * omega, 2.0 * omega + step / 2, step)
    )
    peaks = result.peak_detunings()
    sep_err = abs((peaks[1] - peaks[0]) - 2.0 * omega)
    assert result.n_lines == 2
    assert sep_err <= step

    # line count transitions monotonically along a g sqrt(N) sweep
    counts = []
    for g_nev in np.geomspace(0.5, 50.0, 16):
        r = absorption_spectrum(
            spectrum_params(8.08e10, g_mev=g_nev * 1e-6), np.linspace(-25.0, 25.0, 4001)
        )
        counts.append(r.n_lines)
    assert counts[0] == 1 and counts[-1] == 2
    assert all(b >= a for a, b in zip(counts, counts[1:]))

    # dye-concentration series: dephasing falls as the film gets denser
    series = {}
    for label, n in (("0.5%", 0.81e10), ("1%", 1.62e10), ("5%", 8.08e10), ("10%", 16.2e10)):
        r = absorption_spectrum(spectrum_params(n), np.linspace(-25.0, 25.0, 4001))
        series[label] = r.n_lines
    assert series["0.5%"] == 1 and series["1%"] == 1
    assert series["5%"] == 2 and series["10%"] == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(5, f"spectra even to {1e-12:g}; splitting within one grid step of "
             f"2 Omega_eff ({sep_err:.3f} vs {step:.3f} meV); line count "
             f"monotone along the coupling sweep and 1/1/2/2 across the "
             f"0.5/1/5/10% concentration series; {elapsed:.1f} s")


def test_criterion_6_fit_self_consistency_monte_carlo():
    start = time.perf_counter()
    n = 8.08e10
    ratio = 0.98 / 8.08
    truth = (10.6, 1.68, 0.0141)
    noise_rms = 0.02
    params = ModelParams(n_molecules=n, **BEST_FIT)
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(ratio, n),
        center_ps=0.0, sigma_ps=0.020, response_ps=0.120,
    )
    times_fs = np.arange(-500.0, 1500.0 + 1.0, 2.0)
    step = 1.3
    grid = FitGrid.logspace(
        g_bounds_nev=(truth[0] / step ** 4, truth[0] * step ** 4),
        gamma0z_bounds_mev=(truth[1] / step ** 4, truth[1] * step ** 4),
        gamma_minus_bounds_mev=(truth[2] / step ** 4, truth[2] * step ** 4),
        points=9,
    )

    # the clean transient at the true shift and the model table are
    # noise-independent, so one computation of each serves all trials, and
    # each trial adds its own noise
    clean = make_synthetic_dataset(params, pulse, times_fs, true_shift_fs=30.0, label="A2")
    table = model_traces([clean], grid, lifetime_fs=120.0)
    table_s = time.perf_counter() - start

    covered = 0
    chi2s = []
    for seed in range(100):
        noise = np.random.default_rng(seed).normal(scale=noise_rms, size=times_fs.size)
        # the noise level is known by construction for synthetic data
        ds = replace(clean, signal=clean.signal + noise, sigma=np.full(times_fs.size, noise_rms))
        result = global_fit([ds], grid, lifetime_fs=120.0, traces=table)
        chi2s.append(result.chi2_reduced_min)
        ci = result.confidence
        # membership up to representation dust: the grid rebuilds the true
        # values through geomspace, a couple of ulps off
        if ci is not None and all(
            ci[name][0] * (1 - 1e-9) <= value <= ci[name][1] * (1 + 1e-9)
            for name, value in zip(("g_nev", "gamma0z_mev", "gamma_minus_mev"), truth)
        ):
            covered += 1
    chi2s = np.array(chi2s)
    median = float(np.median(chi2s))
    in_range = int(np.sum((chi2s >= 0.7) & (chi2s <= 1.3)))

    assert covered >= 60, covered
    assert 0.7 <= median <= 1.3
    assert in_range >= 90, in_range
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _pass(6, f"100 seeded trials on the 9x9x9 grid: truth inside the joint "
             f"68% intervals in {covered}/100 (need 60), reduced chi^2 "
             f"median {median:.3f} with {in_range}/100 inside [0.7, 1.3]; "
             f"model table {table_s:.0f} s, total {elapsed:.0f} s")


def test_criterion_7_published_value_reproduction():
    start = time.perf_counter()
    window = SolverConfig(t_start_ps=-0.5, t_end_ps=3.5)
    got = {}
    for label, (n_dye, photons) in LABEL_INFO.items():
        params = ModelParams(n_molecules=n_dye, kappa_mev=KAPPA_MEV, **BEST_FIT)
        # pulse area calibration: eta0 = sqrt(photons entering the cavity)
        pulse = PulseParams(
            amplitude=math.sqrt(photons), center_ps=0.0, sigma_ps=0.020,
        )
        trace = simulate_energy(params, pulse, window)
        m = charging_metrics(trace, pulse.center_ps)
        got[label] = (m.tau_ps, m.e_max_mev, m.p_max_mev_per_ps)
        for value, published in zip(got[label], PUBLISHED_METRICS[label]):
            assert abs(value - published) / published <= 0.25, (label, got[label])

    for q in (1, 2):  # stored energy and charging power rise with density
        assert got["A3"][q] < got["A2"][q] < got["A1"][q]
    assert got["A1"][0] < got["A2"][0]  # the densest film charges fastest
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    worst = max(
        abs(v - p) / p
        for label in got
        for v, p in zip(got[label], PUBLISHED_METRICS[label])
    )
    _pass(7, "best-fit simulations reproduce all fifteen published charging "
             f"observables within 25% (worst {worst:.0%}) and every published "
             f"ordering, with the eta0 = sqrt(photon count) calibration "
             f"declared; {elapsed:.0f} s")


def test_criterion_8_determinism_and_performance():
    params = ModelParams(n_molecules=16.20e10, kappa_mev=KAPPA_MEV, **BEST_FIT)
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(1.90 / 16.20, 16.20e10),
        center_ps=0.0, sigma_ps=0.020,
    )
    window = SolverConfig(t_start_ps=-0.5, t_end_ps=3.5)  # a 4 ps span

    start = time.perf_counter()
    first = integrate(params, pulse, window)
    once = time.perf_counter() - start
    again = integrate(params, pulse, window)

    identical = all(
        np.asarray(getattr(first, name)).tobytes() == np.asarray(getattr(again, name)).tobytes()
        for name in ("times_ps", "c_a", "c_z", "c_n", "c_ax", "c_xx", "c_zz")
    )
    assert identical
    assert once < 1.0, once
    _pass(8, f"repeated 4 ps simulations are byte-identical and complete in "
             f"{once:.2f} s each; the suite ran offline with no measured "
             f"data files")
