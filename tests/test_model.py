"""Units and parameter containers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dickesim.model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    effective_dephasing,
    empty_cavity_amplitude,
    energy_density_from_inversion,
    gamma_total,
    lifetime_ps_to_mev,
    pulse_envelope,
    wavelength_nm_to_mev,
)


def test_lifetime_to_linewidth_at_120_fs():
    assert lifetime_ps_to_mev(0.120) == pytest.approx(5.48510, abs=1e-5)


def test_wavelength_to_energy_at_526_nm():
    # the dye's 526 nm transition is the 2357 meV default omega_a
    assert wavelength_nm_to_mev(526.0) == pytest.approx(2357.1, abs=0.05)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="wavelength must be finite and positive"):
            wavelength_nm_to_mev(bad)


def test_rate_conversion_uses_hbar():
    # a lifetime of 1 ps is a linewidth of hbar / (1 ps)
    assert lifetime_ps_to_mev(1.0) == pytest.approx(HBAR_MEV_PS)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="lifetime must be finite and positive"):
            lifetime_ps_to_mev(bad)


def test_default_params_are_the_best_fit_values():
    p = ModelParams()
    assert p.g_mev == pytest.approx(10.6e-6)
    assert p.gamma0z_mev == pytest.approx(1.68)
    assert p.gamma_minus_mev == pytest.approx(0.0141)
    assert p.kappa_mev == pytest.approx(HBAR_MEV_PS / 0.120)
    assert p.delta_c_mev == 0.0 and p.delta_a_mev == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_molecules": 0.0},
        {"n_molecules": -5.0},
        {"g_mev": -1.0},
        {"kappa_mev": math.nan},
        {"gamma0z_mev": -0.1},
        {"omega_a_mev": 0.0},
        {"n_ref": 0.0},
        {"delta_c_mev": math.inf},
    ],
)
def test_bad_model_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_fractional_molecule_count_warns_but_builds():
    with pytest.warns(UserWarning, match="below one molecule"):
        p = ModelParams(n_molecules=0.5)
    assert p.n_molecules == 0.5


N_REF = 8.08e10


def test_dephasing_scales_inversely_with_n():
    p = ModelParams(n_molecules=2.0 * N_REF, n_ref=N_REF)
    assert effective_dephasing(p) == pytest.approx(0.5 * p.gamma0z_mev)
    assert gamma_total(p) == pytest.approx(2.0 * 0.5 * p.gamma0z_mev + 0.5 * p.gamma_minus_mev)


def test_pulse_envelope_area_is_amplitude():
    pulse = PulseParams(amplitude=3.7, center_ps=0.4, sigma_ps=0.02)
    t = np.linspace(0.1, 0.7, 20001)
    area = np.trapezoid(pulse_envelope(pulse, t), t)
    assert area == pytest.approx(3.7, rel=1e-10)
    assert isinstance(pulse_envelope(pulse, 0.4), float)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=10.0),
    n=st.floats(min_value=1.0, max_value=1e12),
)
def test_drive_amplitude_injects_r_photons_per_molecule(r, n):
    eta0 = drive_amplitude_from_photon_ratio(r, n)
    assert eta0 ** 2 == pytest.approx(r * n, rel=1e-12, abs=1e-12)


def test_empty_cavity_amplitude_matches_the_quadrature_of_its_equation():
    # d<a>/dt = -(kappa/2) <a> + eta(t) from an empty cavity integrates to
    # <a>(t) = int_{-inf}^t exp(-kappa (t - s) / 2) eta(s) ds
    kappa = HBAR_MEV_PS / 0.120
    k = 0.5 * kappa / HBAR_MEV_PS
    pulse = PulseParams(amplitude=0.7, center_ps=0.1, sigma_ps=0.030)
    times = np.array([-0.2, 0.04, 0.1, 0.13, 0.25, 0.9])
    start = pulse.center_ps - 12.0 * pulse.sigma_ps
    quadrature = [
        quad(lambda s: math.exp(-k * (t - s)) * pulse_envelope(pulse, s), start, t,
             points=[pulse.center_ps] if t > pulse.center_ps else None,
             epsabs=1e-14, epsrel=1e-12)[0]
        for t in times
    ]
    np.testing.assert_allclose(
        empty_cavity_amplitude(kappa, pulse, times), quadrature, rtol=1e-10, atol=1e-13
    )


def test_drive_amplitude_rejects_negative_ratio():
    with pytest.raises(ValueError):
        drive_amplitude_from_photon_ratio(-0.1, 10.0)


def test_energy_density_endpoints():
    assert energy_density_from_inversion(-1.0, 2357.0) == 0.0
    assert energy_density_from_inversion(1.0, 2357.0) == pytest.approx(2357.0)
    arr = energy_density_from_inversion(np.array([-1.0, 0.0]), 2357.0)
    assert arr == pytest.approx([0.0, 1178.5])
