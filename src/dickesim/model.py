"""Unit conventions, physical parameters and pump-pulse definitions.

Internally every module works in picoseconds and millielectronvolts.  All
rates that appear in the equations of motion are energies divided by hbar, so
they carry units of 1/ps.  The conversion happens exactly once, when a
parameter object is turned into solver rates; user-facing constructors accept
the units experimentalists actually quote (neV for the coupling, fs for pulse
widths, nm for wavelengths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

# hbar in meV*ps.  Single definition site; everything else imports this.
HBAR_MEV_PS = 0.6582119569

# h*c in eV*nm, for converting transition wavelengths to energies.
HC_EV_NM = 1239.8419843320026

# Dephasing reference: molecule count of the 5%-concentration microcavity.
# gamma_z(N) = gamma0_z * N_REF_DEFAULT / N reproduces the concentration
# series when gamma0_z is quoted at this filling.
N_REF_DEFAULT = 8.08e10

# the pulse is on within 8 sigma of its centre: its envelope is above 1e-14 of its peak
PULSE_SUPPORT_SIGMAS = 8.0


class ConfigError(ValueError):
    """Raised when a configuration mapping cannot be turned into parameters."""


def lifetime_ps_to_mev(t_ps: float) -> float:
    """Photon lifetime T in ps -> cavity linewidth kappa = hbar/T in meV."""
    if t_ps <= 0:
        raise ValueError(f"lifetime must be positive, got {t_ps}")
    return HBAR_MEV_PS / t_ps


def wavelength_nm_to_mev(lam_nm: float) -> float:
    """Transition wavelength in nm -> photon energy hc/lambda in meV."""
    if lam_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {lam_nm}")
    return HC_EV_NM / lam_nm * 1e3


@dataclass(frozen=True)
class ModelParams:
    """Cavity + emitter ensemble parameters, all energies in meV.

    Defaults are the best-fit values for the 120 fs photon-lifetime cavity:
    g = 10.6 neV, gamma0_z = 1.68 meV quoted at n_ref molecules, inversion
    decay gamma_minus = 14.1 ueV, and resonant tuning.  ``n_molecules`` below
    one is allowed numerically (the cumulant equations do not care) but is
    almost certainly a configuration mistake, so it only warns.
    """

    n_molecules: float = N_REF_DEFAULT
    g_mev: float = 10.6e-6
    kappa_mev: float = HBAR_MEV_PS / 0.120
    gamma0z_mev: float = 1.68
    n_ref: float = N_REF_DEFAULT
    gamma_minus_mev: float = 0.0141
    delta_c_mev: float = 0.0
    delta_a_mev: float = 0.0
    omega_a_mev: float = 2357.0

    def __post_init__(self) -> None:
        if not (self.n_molecules > 0) or not math.isfinite(self.n_molecules):
            raise ValueError(f"n_molecules must be positive, got {self.n_molecules}")
        if self.n_molecules < 1.0:
            warnings.warn(
                f"n_molecules = {self.n_molecules} is below one molecule; "
                "proceeding, but check the configuration",
                stacklevel=2,
            )
        if not (self.n_ref > 0) or not math.isfinite(self.n_ref):
            raise ValueError(f"n_ref must be positive, got {self.n_ref}")
        for name in ("g_mev", "kappa_mev", "gamma0z_mev", "gamma_minus_mev"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite non-negative energy, got {value}")
        if self.omega_a_mev <= 0 or not math.isfinite(self.omega_a_mev):
            raise ValueError(f"omega_a_mev must be positive, got {self.omega_a_mev}")
        for name in ("delta_c_mev", "delta_a_mev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PulseParams:
    """Gaussian pump pulse eta(t) = amplitude/(sigma sqrt(2 pi)) exp(-(t-t0)^2/2 sigma^2).

    ``amplitude`` is the integrated pulse area eta0 (dimensionless in the
    cumulant equations), ``sigma_ps`` the temporal width and ``response_ps``
    the detector response width sigma_R used when convolving model output for
    comparison with measured transients.
    """

    amplitude: float = 1.0
    center_ps: float = 0.0
    sigma_ps: float = 0.020
    response_ps: float = 0.120

    def __post_init__(self) -> None:
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if self.sigma_ps <= 0 or not math.isfinite(self.sigma_ps):
            raise ValueError(f"sigma_ps must be finite and positive, got {self.sigma_ps}")
        if self.response_ps < 0 or not math.isfinite(self.response_ps):
            raise ValueError(f"response_ps must be finite and non-negative, got {self.response_ps}")
        if not math.isfinite(self.center_ps):
            raise ValueError("center_ps must be finite")


def pulse_shape(pulse: PulseParams) -> tuple[float, float, float]:
    """(peak, centre, 1/sigma) of eta(t); the right-hand sides evaluate its exponential per call."""
    peak = pulse.amplitude / (pulse.sigma_ps * math.sqrt(2.0 * math.pi))
    return peak, pulse.center_ps, 1.0 / pulse.sigma_ps


def pulse_envelope(pulse: PulseParams, t_ps):
    """Drive rate eta(t) in 1/ps; accepts scalars or arrays.

    The envelope integrates to ``pulse.amplitude`` over all time, which is
    what ties the pulse area to the injected photon number.
    """
    peak, t0, inv_sig = pulse_shape(pulse)
    arg = (np.asarray(t_ps, dtype=float) - t0) * inv_sig
    out = peak * np.exp(-0.5 * arg * arg)
    if np.ndim(t_ps) == 0:
        return float(out)
    return out


def empty_cavity_amplitude(kappa_mev: float, pulse: PulseParams, t_ps):
    """<a>(t) of a resonant cavity with no molecules coupled, empty before the pulse.

    The closed form of d<a>/dt = -(kappa/2) <a> + eta(t): with k = kappa/2
    and u = (t - t0 - k sigma^2)/sigma,
    <a>(t) = eta0 exp(-k (t - t0) + (k sigma)^2 / 2) erfc(-u / sqrt 2) / 2.
    """
    k = 0.5 * kappa_mev / HBAR_MEV_PS
    t = np.asarray(t_ps, dtype=float)
    u = (t - pulse.center_ps - k * pulse.sigma_ps ** 2) / pulse.sigma_ps
    return (
        pulse.amplitude
        * np.exp(-k * (t - pulse.center_ps) + 0.5 * (k * pulse.sigma_ps) ** 2)
        * 0.5 * erfc(-u / np.sqrt(2.0))
    )


def effective_dephasing(params: ModelParams) -> float:
    """Pure-dephasing energy gamma_z(N) = gamma0_z * n_ref / N in meV.

    Encodes the empirical density dependence: doubling the dye load halves
    the per-molecule dephasing."""
    return params.gamma0z_mev * params.n_ref / params.n_molecules


def gamma_total(params: ModelParams) -> float:
    """Total transverse decay 2 gamma_z(N) + gamma_minus / 2 in meV."""
    return 2.0 * effective_dephasing(params) + 0.5 * params.gamma_minus_mev


def drive_amplitude_from_photon_ratio(photon_ratio: float, n_molecules: float) -> float:
    """Pulse area eta0 = sqrt(r N) injecting r photons per molecule.

    With this normalisation an undamped, uncoupled cavity ends the pulse in a
    coherent state of amplitude eta0, i.e. with r*N photons."""
    if photon_ratio < 0:
        raise ValueError(f"photon_ratio must be non-negative, got {photon_ratio}")
    if n_molecules <= 0:
        raise ValueError(f"n_molecules must be positive, got {n_molecules}")
    return math.sqrt(photon_ratio * n_molecules)


def energy_density_from_inversion(c_z, omega_a_mev: float):
    """Stored energy per molecule E = (omega_a/2)(<sigma_z> + 1) in meV."""
    out = 0.5 * omega_a_mev * (np.asarray(c_z, dtype=float) + 1.0)
    if np.ndim(c_z) == 0:
        return float(out)
    return out
