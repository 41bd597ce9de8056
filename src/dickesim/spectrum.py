"""Weak-probe polariton absorption of the lossy, dephasing ensemble cavity.

Linear response of the coupled cavity-ensemble mode pair: the absorption at
probe detuning delta_nu splits from one Lorentzian-like peak into two as the
collective coupling g sqrt(N) overtakes the loss rates.  All quantities stay
in meV; the expressions are ratios of energies, so hbar never appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, gamma_total


@dataclass(frozen=True)
class EffectiveRabi:
    """Polariton splitting scale; ``overdamped`` flags an imaginary root.

    ``omega_mev`` always carries the magnitude: the oscillation frequency
    when underdamped, the size of the imaginary part when loss wins.
    """

    omega_mev: float
    overdamped: bool


def effective_rabi(params: ModelParams) -> EffectiveRabi:
    """Omega_eff = sqrt(g^2 N - (kappa - 2 gamma_tot)^2 / 4) in meV."""
    gtot = gamma_total(params)
    radicand = params.g_mev ** 2 * params.n_molecules - 0.25 * (params.kappa_mev - 2.0 * gtot) ** 2
    if radicand >= 0.0:
        return EffectiveRabi(omega_mev=math.sqrt(radicand), overdamped=False)
    return EffectiveRabi(omega_mev=math.sqrt(-radicand), overdamped=True)


@dataclass(frozen=True)
class SpectrumResult:
    detunings_mev: np.ndarray
    absorption: np.ndarray
    omega_eff_mev: float
    overdamped: bool
    gamma_tot_mev: float

    def _peak_indices(self) -> np.ndarray:
        a = self.absorption
        return np.nonzero((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:]))[0] + 1

    def peak_detunings(self) -> np.ndarray:
        """Detunings of strict interior local maxima of the absorption."""
        return self.detunings_mev[self._peak_indices()]

    @property
    def n_peaks(self) -> int:
        return int(self._peak_indices().size)

    @property
    def n_lines(self) -> int:
        """Spectral-line count: 2 for resolved polaritons, else 1.

        Weak coupling leaves a single feature at zero detuning; depending on
        damping it shows up as one merged maximum or as a pure dip with no
        interior maximum at all.  Either way it counts as one line.  Two
        maxima count as two lines only when they dominate the spectrum:
        deep in the overdamped regime the formula develops faint far-wing
        ripples next to a large central dip, and those are not polaritons."""
        idx = self._peak_indices()
        if idx.size != 2:
            return 1
        a = self.absorption
        if a[idx].max() < np.max(np.abs(a)) * (1.0 - 1e-9):
            return 1
        return 2


def absorption_spectrum(params: ModelParams, detunings_mev) -> SpectrumResult:
    """Absorption versus probe detuning (meV), normalised to the model form.

    The spectrum is even in detuning.  A configuration with no damping at
    all has poles on the real axis at the polariton energies; evaluating
    exactly on a pole raises rather than returning infinities.
    """
    dn = np.asarray(detunings_mev, dtype=float)
    if dn.ndim != 1 or dn.size == 0:
        raise ValueError("detunings must be a non-empty 1-D array")
    gtot = gamma_total(params)
    rabi = effective_rabi(params)
    # the complex root of Omega_eff^2: imaginary when overdamped
    omega_c = complex(0.0, rabi.omega_mev) if rabi.overdamped else complex(rabi.omega_mev, 0.0)
    width = 0.25 * (2.0 * gtot + params.kappa_mev)

    denom = (1j * (dn + omega_c) - width) * (1j * (dn - omega_c) - width)
    bad = np.abs(denom) == 0.0
    if np.any(bad):
        at = dn[bad][0]
        raise ZeroDivisionError(
            f"absorption has a pole at detuning {at:g} meV for an undamped cavity; "
            "evaluate off the polariton energies or add loss"
        )
    absorption = -np.real((1j * dn - gtot) / denom)

    return SpectrumResult(
        detunings_mev=dn,
        absorption=absorption,
        omega_eff_mev=rabi.omega_mev,
        overdamped=rabi.overdamped,
        gamma_tot_mev=gtot,
    )
