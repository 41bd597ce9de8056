"""Second-order cumulant equations of motion for the driven Tavis-Cummings ensemble.

The state tracks the cavity amplitude <a>, the single-molecule Bloch vector
(<sigma_x>, <sigma_y>, <sigma_z>), the photon number <a'a>, and all
photon-photon, photon-molecule and molecule-molecule second moments of a
permutation-symmetric ensemble.  Third cumulants are set to zero, which
closes the hierarchy; setting the second cumulants to products of first
moments instead gives the mean-field limit.

Moments named c_ab are raw expectation values (not centered), e.g.
c_az = <a sigma_z> and c_xy = <sigma_x^(i) sigma_y^(j)> for i != j.

Both closures are integrated with LSODA, which switches between Adams and
BDF steps on its own.  Dephasing scales as N_ref/N, so at low molecule
number and strong dephasing the moments can decay a thousand times
faster than the cavity and an explicit method is held to tiny steps; a
B2-like trace at gamma0z = 300 meV needs about 3,000 right-hand-side calls
with LSODA against 79,000 with RK45.  The exact Lindblad oracle stays on
RK45 because scipy's LSODA accepts only real state vectors.  What remains
costly are the strongly coupled corners (g near 5000 neV): they oscillate
fast rather than decay, so the step stays bound to the Rabi period there.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.integrate import solve_ivp

from .model import (
    HBAR_MEV_PS,
    ConfigError,
    ModelParams,
    PulseParams,
    energy_density_from_inversion,
    gamma_total,
)

logger = logging.getLogger(__name__)

# state vector layout in storage order: (name, offset, is_complex); a
# complex moment is stored as its (re, im) pair.  Pair moments are between
# distinct molecules.
_LAYOUT = (
    ("c_a", 0, True),       # <a>
    ("c_x", 2, False),      # <sx>, <sy>, <sz>
    ("c_y", 3, False),
    ("c_z", 4, False),
    ("c_n", 5, False),      # <a'a>
    ("c_aa", 6, True),      # <aa>
    ("c_ax", 8, True),      # <a sx>, <a sy>, <a sz>
    ("c_ay", 10, True),
    ("c_az", 12, True),
    ("c_xx", 14, False),    # <sx sx>, <sy sy>, <sz sz>
    ("c_yy", 15, False),
    ("c_zz", 16, False),
    ("c_xy", 17, False),    # <sx sy>, <sx sz>, <sy sz>
    ("c_xz", 18, False),
    ("c_yz", 19, False),
)
MOMENT_NAMES = tuple(name for name, _, _ in _LAYOUT)
STATE_SIZE = sum(2 if is_complex else 1 for _, _, is_complex in _LAYOUT)
_SLOTS = {name: (offset, is_complex) for name, offset, is_complex in _LAYOUT}


def moment(y: np.ndarray, name: str) -> np.ndarray:
    """Moment ``name`` from states of shape (..., STATE_SIZE).

    A complex moment comes back as re + i*im; a real one as a view of its
    column.
    """
    offset, is_complex = _SLOTS[name]
    if is_complex:
        return y[..., offset] + 1j * y[..., offset + 1]
    return y[..., offset]


CLOSURES = ("cumulant", "meanfield")


class IntegrationError(RuntimeError):
    """Integration failed; ``last_good_time_ps`` is where it still held."""

    def __init__(self, message: str, last_good_time_ps: float):
        super().__init__(message)
        self.last_good_time_ps = last_good_time_ps


@dataclass(frozen=True)
class SolverConfig:
    """Integration window and tolerances.

    ``output_dt_ps`` sets the uniform reporting grid only; the integrator
    (LSODA, see the module docstring) picks its own internal steps, capped
    at ``sigma/4`` while the pulse is on so a narrow pulse is never stepped
    over.
    """

    closure: str = "cumulant"
    t_start_ps: float = -0.5
    t_end_ps: float = 3.5
    output_dt_ps: float = 0.002
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step_ps: float = math.inf

    def __post_init__(self) -> None:
        if self.closure not in CLOSURES:
            raise ValueError(f"closure must be one of {CLOSURES}, got {self.closure!r}")
        if not self.t_end_ps > self.t_start_ps:
            raise ValueError("t_end_ps must exceed t_start_ps")
        if self.output_dt_ps <= 0:
            raise ValueError("output_dt_ps must be positive")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step_ps <= 0:
            raise ValueError("max_step_ps must be positive")


_SOLVER_KEYS = {
    "solver.closure": ("closure", str),
    "solver.t_start_ps": ("t_start_ps", float),
    "solver.t_end_ps": ("t_end_ps", float),
    "solver.output_dt_fs": ("output_dt_ps", lambda s: float(s) * 1e-3),
    "solver.rel_tol": ("rel_tol", float),
    "solver.abs_tol": ("abs_tol", float),
    "solver.max_step_fs": ("max_step_ps", lambda s: float(s) * 1e-3),
}


def solver_config_from_config(cfg: Mapping[str, str]) -> SolverConfig:
    kwargs = {}
    for key, raw in cfg.items():
        if not key.startswith("solver."):
            continue
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        attr, conv = _SOLVER_KEYS[key]
        try:
            kwargs[attr] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def solver_config_keys() -> set[str]:
    return set(_SOLVER_KEYS)


@dataclass(frozen=True)
class MomentTrace:
    """Moments on the uniform output grid; ``data`` has one state per row.

    Every name of ``MOMENT_NAMES`` reads as an attribute through ``moment``:
    ``trace.c_z``, ``trace.c_a`` and so on.
    """

    times_ps: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.shape != (self.times_ps.size, STATE_SIZE):
            raise ValueError("data shape does not match times")

    def __getattr__(self, name: str) -> np.ndarray:
        if name in _SLOTS:
            return moment(self.data, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


def _make_rhs(
    params: ModelParams,
    pulse: PulseParams,
    closure: str,
    ax_bracket: str = "consistent",
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile the right-hand side into a plain-float closure.

    All rates are pre-divided by hbar.  ``ax_bracket`` selects the saturation
    bracket in the <a sx> equation: "consistent" uses 1 + (N-1) c_xx, the
    form its companion <a sy> and <a sz> equations force by symmetry;
    "variant" replaces it with N c_xx.  The variant breaks stationarity of
    the all-down dark state and disagrees with the exact propagator, so it
    exists only for that cross-check.
    """
    if ax_bracket not in ("consistent", "variant"):
        raise ValueError(f"unknown ax_bracket {ax_bracket!r}")
    dc = params.delta_c_mev / HBAR_MEV_PS
    da = params.delta_a_mev / HBAR_MEV_PS
    g = params.g_mev / HBAR_MEV_PS
    kap = params.kappa_mev / HBAR_MEV_PS
    gm = params.gamma_minus_mev / HBAR_MEV_PS
    gtot = gamma_total(params) / HBAR_MEV_PS
    n = params.n_molecules
    nm1 = n - 1.0
    amp = pulse.amplitude / (pulse.sigma_ps * math.sqrt(2.0 * math.pi))
    t0 = pulse.center_ps
    inv_sig = 1.0 / pulse.sigma_ps
    exp = math.exp
    variant = ax_bracket == "variant"

    cav = -(1j * dc + 0.5 * kap)
    cav1 = cav - gtot          # decay of <a sx>, <a sy>
    half_g = 0.5 * g

    def rhs_cumulant(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        eta = amp * exp(-0.5 * arg * arg)

        ca = complex(y[0], y[1])
        cx = y[2]
        cy = y[3]
        cz = y[4]
        cn = y[5]
        caa = complex(y[6], y[7])
        cax = complex(y[8], y[9])
        cay = complex(y[10], y[11])
        caz = complex(y[12], y[13])
        cxx = y[14]
        cyy = y[15]
        czz = y[16]
        cxy = y[17]
        cxz = y[18]
        cyz = y[19]

        # third moments with vanishing third cumulant
        ca2 = ca * ca
        cac = ca.conjugate()
        abs2 = ca.real * ca.real + ca.imag * ca.imag
        caax = caa * cx + 2.0 * ca * cax - 2.0 * ca2 * cx
        caay = caa * cy + 2.0 * ca * cay - 2.0 * ca2 * cy
        caaz = caa * cz + 2.0 * ca * caz - 2.0 * ca2 * cz
        cdax = cn * cx + cac * cax + cax.conjugate() * ca - 2.0 * abs2 * cx
        cday = cn * cy + cac * cay + cay.conjugate() * ca - 2.0 * abs2 * cy
        cdaz = cn * cz + cac * caz + caz.conjugate() * ca - 2.0 * abs2 * cz
        caxx = 2.0 * cax * cx + ca * cxx - 2.0 * ca * cx * cx
        cayy = 2.0 * cay * cy + ca * cyy - 2.0 * ca * cy * cy
        cazz = 2.0 * caz * cz + ca * czz - 2.0 * ca * cz * cz
        caxy = cax * cy + cay * cx + ca * cxy - 2.0 * ca * cx * cy
        caxz = cax * cz + caz * cx + ca * cxz - 2.0 * ca * cx * cz
        cayz = cay * cz + caz * cy + ca * cyz - 2.0 * ca * cy * cz

        if variant:
            sxx = n * cxx
        else:
            sxx = 1.0 + nm1 * cxx

        d_ca = cav * ca - half_g * n * (1j * cx + cy) + eta
        d_cx = -da * cy - 2.0 * g * caz.imag - gtot * cx
        d_cy = da * cx - 2.0 * g * caz.real - gtot * cy
        d_cz = 2.0 * g * (cay.real + cax.imag) - gm * (cz + 1.0)
        d_cn = -kap * cn - g * n * (cax.imag + cay.real) + 2.0 * eta * ca.real
        d_caa = (2.0 * cav) * caa - g * n * (1j * cax + cay) + 2.0 * eta * ca
        d_cax = (
            cav1 * cax
            - da * cay
            - 0.5j * g * sxx
            - half_g * (1j * cz + nm1 * cxy)
            + 1j * g * (caaz - cdaz)
            + eta * cx
        )
        d_cay = (
            cav1 * cay
            + da * cax
            - 0.5j * g * (-1j * cz + nm1 * cxy)
            - half_g * (1.0 + nm1 * cyy)
            - g * (caaz + cdaz)
            + eta * cy
        )
        d_caz = (
            cav * caz
            - gm * (caz + ca)
            - half_g * (-1j * cx + nm1 * cyz)
            - 0.5j * g * (1j * cy + nm1 * cxz)
            + g * (caay + cday)
            - 1j * g * (caax - cdax)
            + eta * cz
        )
        d_cxx = -2.0 * da * cxy - 4.0 * g * caxz.imag - 2.0 * gtot * cxx
        d_cyy = 2.0 * da * cxy - 4.0 * g * cayz.real - 2.0 * gtot * cyy
        d_czz = 4.0 * g * (caxz.imag + cayz.real) - 2.0 * gm * (czz + cz)
        d_cxy = da * (cxx - cyy) - 2.0 * g * (caxz.real + cayz.imag) - 2.0 * gtot * cxy
        d_cxz = (
            -da * cyz
            + 2.0 * g * (caxy.real + caxx.imag - cazz.imag)
            - gtot * cxz
            - gm * (cxz + cx)
        )
        d_cyz = (
            da * cxz
            + 2.0 * g * (cayy.real - cazz.real + caxy.imag)
            - gtot * cyz
            - gm * (cyz + cy)
        )

        return np.array(
            [
                d_ca.real, d_ca.imag,
                d_cx, d_cy, d_cz,
                d_cn,
                d_caa.real, d_caa.imag,
                d_cax.real, d_cax.imag,
                d_cay.real, d_cay.imag,
                d_caz.real, d_caz.imag,
                d_cxx, d_cyy, d_czz,
                d_cxy, d_cxz, d_cyz,
            ]
        )

    def rhs_meanfield(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        eta = amp * exp(-0.5 * arg * arg)

        ca = complex(y[0], y[1])
        cx = y[2]
        cy = y[3]
        cz = y[4]

        d_ca = cav * ca - half_g * n * (1j * cx + cy) + eta
        d_cx = -da * cy - 2.0 * g * cz * ca.imag - gtot * cx
        d_cy = da * cx - 2.0 * g * cz * ca.real - gtot * cy
        d_cz = 2.0 * g * (ca.real * cy + ca.imag * cx) - gm * (cz + 1.0)

        out = np.zeros(STATE_SIZE)
        out[0] = d_ca.real
        out[1] = d_ca.imag
        out[2] = d_cx
        out[3] = d_cy
        out[4] = d_cz
        # keep the factorised moments consistent for observers of <a'a> etc.
        out[5] = 2.0 * (ca.real * d_ca.real + ca.imag * d_ca.imag)
        return out

    return rhs_meanfield if closure == "meanfield" else rhs_cumulant


def _initial_array(closure: str) -> np.ndarray:
    """All molecules down, empty cavity: <sz> = -1 and, pairwise, <sz sz> = +1."""
    y0 = np.zeros(STATE_SIZE)
    y0[_SLOTS["c_z"][0]] = -1.0
    if closure != "meanfield":
        # mean field carries only first moments: its <sz sz> factorises to
        # <sz>^2 implicitly, so that slot stays zero and is not propagated
        y0[_SLOTS["c_zz"][0]] = 1.0
    return y0


def output_grid(config: SolverConfig) -> np.ndarray:
    """Uniform reporting grid implied by a solver configuration."""
    n_out = int(math.floor((config.t_end_ps - config.t_start_ps) / config.output_dt_ps + 1e-9)) + 1
    return config.t_start_ps + config.output_dt_ps * np.arange(n_out)


def _segmented_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    pulse: PulseParams,
    rel_tol: float,
    abs_tol: float,
    method: str,
    max_step_ps: float = math.inf,
) -> np.ndarray:
    """Adaptive integration sampled at ``times``, one row per grid point.

    The window is split at the pulse edges so a step-size cap of sigma/4
    applies only while the drive is appreciable; outside it the solver is
    free to take long steps.  ``method`` is the ``solve_ivp`` integrator:
    "LSODA" for the real moment state, "RK45" for the complex density
    matrix, which LSODA does not accept.  Each segment is sampled at its
    grid points and its end as it goes, so no interpolant outlives it.
    """
    t_start = float(times[0])
    t_end = float(times[-1])
    pulse_lo = pulse.center_ps - 8.0 * pulse.sigma_ps
    pulse_hi = pulse.center_ps + 8.0 * pulse.sigma_ps
    edges = [t_start]
    for edge in (pulse_lo, pulse_hi):
        if t_start < edge < t_end:
            edges.append(edge)
    edges.append(t_end)

    def checked_rhs(t: float, y: np.ndarray) -> np.ndarray:
        # LSODA never returns once a derivative overflows (a finite-time
        # blow-up leaves it retrying the same step), so stop it here
        dy = rhs(t, y)
        if not np.isfinite(dy).all():
            raise IntegrationError(
                f"derivative became non-finite at t = {t:g} ps", last_good_time_ps=float(t)
            )
        return dy

    n_out = times.size
    data = np.empty((n_out, y0.size), dtype=y0.dtype)
    filled = 0
    y = y0
    for a, b in zip(edges[:-1], edges[1:]):
        in_pulse = a >= pulse_lo - 1e-15 and b <= pulse_hi + 1e-15
        max_step = max_step_ps
        if in_pulse:
            max_step = min(max_step, 0.25 * pulse.sigma_ps)
        # grid points inside [a, b); the final segment also takes b itself.
        # A point up to 1e-12 before b falls to the next segment and is
        # clipped onto its start.
        hi = int(np.searchsorted(times, b - 1e-12, side="left"))
        if b == edges[-1]:
            hi = n_out
        t_eval = np.maximum(times[filled:hi], a)
        if t_eval.size == 0 or t_eval[-1] < b:
            t_eval = np.append(t_eval, b)
        sol = solve_ivp(
            checked_rhs,
            (a, b),
            y,
            method=method,
            t_eval=t_eval,
            rtol=rel_tol,
            atol=abs_tol,
            max_step=max_step,
        )
        if not sol.success:
            # sol.t holds only the sample points passed before the failure
            raise IntegrationError(
                f"integration failed in [{a:g}, {b:g}] ps: {sol.message}",
                last_good_time_ps=float(sol.t[-1]) if sol.t.size else float(a),
            )
        if hi > filled:
            data[filled:hi] = sol.y[:, : hi - filled].T
            filled = hi
        y = sol.y[:, -1]
        if not np.all(np.isfinite(y)):
            raise IntegrationError(
                f"state became non-finite near t = {b:g} ps",
                last_good_time_ps=float(a),
            )
    if not np.all(np.isfinite(data)):
        bad = int(np.argmax(~np.isfinite(data).all(axis=1)))
        raise IntegrationError(
            f"non-finite state at t = {times[bad]:g} ps",
            last_good_time_ps=float(times[max(bad - 1, 0)]),
        )
    return data


def integrate(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
    ax_bracket: str = "consistent",
) -> MomentTrace:
    """Integrate the moment equations over the configured window."""
    rhs = _make_rhs(params, pulse, config.closure, ax_bracket=ax_bracket)
    y0 = _initial_array(config.closure)
    times = output_grid(config)
    data = _segmented_solve(
        rhs, y0, times, pulse, config.rel_tol, config.abs_tol, "LSODA", config.max_step_ps
    )
    return MomentTrace(times_ps=times, data=data)


def simulate_energy(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
):
    """Integrate and reduce to the stored-energy trace.

    Returns an ``observables.EnergyTrace`` with energy per molecule in meV
    and the photon count per molecule as auxiliary data.
    """
    from .observables import EnergyTrace

    trace = integrate(params, pulse, config)
    return EnergyTrace(
        times_ps=trace.times_ps,
        energy_mev=energy_density_from_inversion(trace.c_z, params.omega_a_mev),
        photons=trace.c_n,
        n_molecules=params.n_molecules,
    )


def write_trace_csv(
    path,
    trace: MomentTrace,
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
) -> None:
    """Write the standard trace table with a parameter-echo comment header."""
    header = _param_comment(params, pulse, config)
    energy = energy_density_from_inversion(trace.c_z, params.omega_a_mev)
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.write("t_ps,E_meV,Cz,n_photons,n_over_N\n")
        for t, e, cz, cn in zip(trace.times_ps, energy, trace.c_z, trace.c_n):
            fh.write(
                f"{t:.6f},{e:.10e},{cz:.10e},{cn:.10e},{cn / params.n_molecules:.10e}\n"
            )


def _param_comment(params: ModelParams, pulse: PulseParams, config: SolverConfig) -> str:
    fields = []
    for obj in (params, pulse, config):
        for name, value in sorted(vars(obj).items()):
            fields.append(f"{name}={value!r}")
    return "# " + " ".join(fields) + "\n"
