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

The equations are written once (``_moment_equations``) and run on plain
floats for one trace or on (B,) arrays for a batch of members.
``simulate_energies`` integrates members under one pulse as one stacked
member-major state, with one evaluation of the equations per step for all
members and a banded block Jacobian central-differenced in one
evaluation; LSODA's error test is a weighted max-norm, so each member
keeps its own tolerance.  The fit's model table uses it; the single-trace
path (``integrate``, ``simulate_energy``) stays scalar.  One stepping
loop, ``_segmented_solve``, serves every integration: one cursor over
the output grid hands each step's samples to the caller's reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import LSODA

from .model import (
    HBAR_MEV_PS,
    PULSE_SUPPORT_SIGMAS,
    ModelParams,
    PulseParams,
    energy_density_from_inversion,
    gamma_total,
    pulse_shape,
)

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
    """Integration failed; ``last_good_time_ps`` is where it still held.

    ``member`` is the index of the offending member of a stacked batch, or
    None when the failure is not tied to one member.
    """

    def __init__(self, message: str, last_good_time_ps: float, member: int | None = None):
        super().__init__(message)
        self.last_good_time_ps = last_good_time_ps
        self.member = member

    def __reduce__(self):
        # the default pickling replays only the message, which a worker
        # process's error would not survive
        return type(self), (str(self), self.last_good_time_ps, self.member)


@dataclass(frozen=True)
class SolverConfig:
    """Integration window and tolerances.

    ``output_dt_ps`` sets the uniform reporting grid only; the integrator
    (LSODA, see the module docstring) picks its own internal steps, capped
    at ``sigma/4`` while the pulse is on so a narrow pulse is never stepped
    over.  ``rel_tol`` and ``abs_tol`` hold for every member of a stacked
    batch on its own, since LSODA's error norm is a max over components.
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


@dataclass(frozen=True)
class EnergyTrace:
    """Stored energy per molecule (meV) on a uniform time grid (ps)."""

    times_ps: np.ndarray
    energy_mev: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times_ps, dtype=float)
        e = np.asarray(self.energy_mev, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two samples")
        if e.shape != t.shape:
            raise ValueError("energy and time arrays must match")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
            raise ValueError("trace contains non-finite values")
        dt = np.diff(t)
        if dt.min() <= 0:
            raise ValueError("times must be strictly increasing")
        if (dt.max() - dt.min()) > 1e-7 * dt.max():
            raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times_ps", t)
        object.__setattr__(self, "energy_mev", e)

    @property
    def dt_ps(self) -> float:
        return float(self.times_ps[1] - self.times_ps[0])


def _meanfield_slots(values) -> np.ndarray:
    """One member's mean-field derivative: the six propagated slots, zero after them."""
    out = np.zeros(STATE_SIZE)
    out[0], out[1], out[2], out[3], out[4], out[5] = values
    return out


def _pair(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return re + 1j * im


def _stack_last(values) -> np.ndarray:
    """A batch's derivatives, slots along the last axis; slots past ``values`` are zero."""
    arrays = np.broadcast_arrays(*values)
    out = np.zeros(arrays[0].shape + (STATE_SIZE,))
    for slot, value in enumerate(arrays):
        out[..., slot] = value
    return out


def _make_rhs(
    params: ModelParams,
    pulse: PulseParams,
    closure: str,
    ax_bracket: str = "consistent",
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Right-hand side of one member, evaluated on plain floats."""
    return _moment_equations([params], pulse, closure, ax_bracket)


def _moment_equations(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    closure: str,
    ax_bracket: str = "consistent",
) -> Callable:
    """The moment equations of one member, or of a batch driven by one pulse.

    All rates are pre-divided by hbar.  For one member every coefficient is a
    float and the returned ``rhs(t, y)`` is the member's right-hand side.
    For a batch every coefficient but the shared drive is a (B,) array; the
    same body then runs with ``y`` holding one array per state component
    (any shape that broadcasts against (B,)), ``pair`` building a complex
    moment from its (re, im) arrays and ``finish`` stacking the 20 arrays.

    ``ax_bracket`` selects the saturation bracket in the <a sx> equation:
    "consistent" uses 1 + (N-1) c_xx, the form its companion <a sy> and
    <a sz> equations force by symmetry; "variant" replaces it with N c_xx.
    The variant breaks stationarity of the all-down dark state and disagrees
    with the exact propagator, so it exists only for that cross-check.
    """
    if ax_bracket not in ("consistent", "variant"):
        raise ValueError(f"unknown ax_bracket {ax_bracket!r}")
    rows = [
        (
            p.delta_c_mev, p.delta_a_mev, p.g_mev, p.kappa_mev, p.gamma_minus_mev,
            gamma_total(p), p.n_molecules,
        )
        for p in params
    ]
    if len(rows) == 1:
        columns = rows[0]
    else:
        columns = tuple(np.array(column) for column in zip(*rows))
    dc_mev, da_mev, g_mev, kap_mev, gm_mev, gtot_mev, n = columns
    dc = dc_mev / HBAR_MEV_PS
    da = da_mev / HBAR_MEV_PS
    g = g_mev / HBAR_MEV_PS
    kap = kap_mev / HBAR_MEV_PS
    gm = gm_mev / HBAR_MEV_PS
    gtot = gtot_mev / HBAR_MEV_PS
    nm1 = n - 1.0
    amp, t0, inv_sig = pulse_shape(pulse)
    exp = math.exp
    variant = ax_bracket == "variant"

    cav = -(1j * dc + 0.5 * kap)
    cav1 = cav - gtot          # decay of <a sx>, <a sy>
    half_g = 0.5 * g

    def rhs_cumulant(t: float, y, pair=complex, finish=np.array):
        arg = (t - t0) * inv_sig
        eta = amp * exp(-0.5 * arg * arg)

        ca = pair(y[0], y[1])
        cx = y[2]
        cy = y[3]
        cz = y[4]
        cn = y[5]
        caa = pair(y[6], y[7])
        cax = pair(y[8], y[9])
        cay = pair(y[10], y[11])
        caz = pair(y[12], y[13])
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

        return finish(
            (
                d_ca.real, d_ca.imag,
                d_cx, d_cy, d_cz,
                d_cn,
                d_caa.real, d_caa.imag,
                d_cax.real, d_cax.imag,
                d_cay.real, d_cay.imag,
                d_caz.real, d_caz.imag,
                d_cxx, d_cyy, d_czz,
                d_cxy, d_cxz, d_cyz,
            )
        )

    def rhs_meanfield(t: float, y, pair=complex, finish=_meanfield_slots):
        arg = (t - t0) * inv_sig
        eta = amp * exp(-0.5 * arg * arg)

        ca = pair(y[0], y[1])
        cx = y[2]
        cy = y[3]
        cz = y[4]

        d_ca = cav * ca - half_g * n * (1j * cx + cy) + eta
        d_cx = -da * cy - 2.0 * g * cz * ca.imag - gtot * cx
        d_cy = da * cx - 2.0 * g * cz * ca.real - gtot * cy
        d_cz = 2.0 * g * (ca.real * cy + ca.imag * cx) - gm * (cz + 1.0)
        # keep the factorised moments consistent for observers of <a'a> etc.
        d_cn = 2.0 * (ca.real * d_ca.real + ca.imag * d_ca.imag)
        return finish((d_ca.real, d_ca.imag, d_cx, d_cy, d_cz, d_cn))

    return rhs_meanfield if closure == "meanfield" else rhs_cumulant


# relative step of the batched Jacobian's central differences.  Every
# monomial of either closure is at most quadratic in any one component, so
# a central difference is exact up to rounding whatever the step; a large
# step keeps that rounding small.
_JAC_STEP = 2.0 ** -10
_JAC_I, _JAC_C = np.meshgrid(np.arange(STATE_SIZE), np.arange(STATE_SIZE), indexing="ij")


def _batch_system(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    closure: str,
) -> tuple[Callable, Callable]:
    """Right-hand side and banded Jacobian of B members stacked member-major.

    The state is (B * STATE_SIZE,) with member m in slots [20 m, 20 m + 20).
    Members do not couple, so the Jacobian is block diagonal and LSODA gets
    it packed with lband = uband = STATE_SIZE - 1: ``packed[19 + i - c,
    20 m + c]`` is d(dy_i)/d(y_c) of member m.  It is central-differenced
    over all 20 components of all members in one evaluation of the
    equations.
    """
    body = _moment_equations(params, pulse, closure)
    size = len(params)
    width = 2 * STATE_SIZE - 1
    # state slot c of perturbation column c (+h) and STATE_SIZE + c (-h)
    comp = np.tile(np.arange(STATE_SIZE), 2)
    probe = np.arange(2 * STATE_SIZE)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        columns = y.reshape(size, STATE_SIZE).T.copy()
        return body(t, columns, _pair, _stack_last).ravel()

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        columns = y.reshape(size, STATE_SIZE).T
        step = _JAC_STEP * np.maximum(np.abs(columns), 1.0)          # (20, B)
        shifted = np.repeat(columns[:, None, :], 2 * STATE_SIZE, axis=1)
        shifted[comp, probe] += np.concatenate([step, -step])
        f = body(t, shifted, _pair, _stack_last)                      # (40, B, 20)
        d = (f[:STATE_SIZE] - f[STATE_SIZE:]) / (2.0 * step[:, :, None])  # [c, m, i]
        packed = np.zeros((width, size, STATE_SIZE))
        packed[STATE_SIZE - 1 + _JAC_I - _JAC_C, :, _JAC_C] = d[_JAC_C, :, _JAC_I]
        return packed.reshape(width, size * STATE_SIZE)

    return rhs, jac


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


@dataclass(frozen=True)
class SolverStats:
    """Work one integration cost: right-hand-side calls, Jacobians, steps."""

    rhs_calls: int = 0
    jacobians: int = 0
    steps: int = 0

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(
            self.rhs_calls + other.rhs_calls,
            self.jacobians + other.jacobians,
            self.steps + other.steps,
        )


# grid points pending before ``_segmented_solve`` reduces them: a strongly
# driven oracle run samples once per short step, and one call each costs more
_REDUCE_BATCH = 32


def _release_lsoda_work(solver) -> None:
    """Free the work arrays of a finished LSODA solver.

    scipy's LSODA wrapper (1.17) takes a reference to its rwork and iwork
    arrays on every step and never drops it, so the arrays outlive the
    solver: about 5 kB per segment of one trace, and 0.4 MB per segment of a
    36-member batch.  No dense output reads them (it copies what it needs),
    so shrinking them in place once the segment is done returns the memory.
    """
    integrator = getattr(getattr(solver, "_lsoda_solver", None), "_integrator", None)
    for name in ("rwork", "iwork"):
        work = getattr(integrator, name, None)
        if isinstance(work, np.ndarray):
            work.resize(0, refcheck=False)


def _segmented_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    pulse: PulseParams,
    rel_tol: float,
    abs_tol: float,
    stepper: type,
    max_step_ps: float = math.inf,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda t, states: states,
    jac: Callable | None = None,
    members: int = 1,
) -> tuple[np.ndarray, SolverStats]:
    """Adaptive integration sampled at ``times``, one row per grid point.

    The window is split at the pulse edges so a step-size cap of sigma/4
    applies only while the drive is appreciable; outside it the solver is
    free to take long steps.  ``stepper`` is the scipy stepper class:
    ``LSODA`` for the real moment state, ``RK45`` for the complex density
    matrix, which LSODA does not accept.  One cursor walks ``times``: each
    step's dense output gives the grid points up to the step's end, and a
    segment ends exactly on its edge, where the next starts from its state.
    Once ``_REDUCE_BATCH`` grid points are pending, and at the end,
    ``reduce(t, states)`` maps them and their (len(t), state size) states
    to the rows the caller keeps (default: the whole state), so no
    interpolant outlives its step and no state outlives its reduction.
    The state of a batch holds ``members`` equal-sized, uncoupled members;
    ``jac`` then hands LSODA their block-diagonal Jacobian, packed with
    lband = uband = member size - 1, and a non-finite derivative names the
    first offending member.

    Returns the rows of all grid points and the solver's work summed over
    the segments.
    """
    pulse_lo = pulse.center_ps - PULSE_SUPPORT_SIGMAS * pulse.sigma_ps
    pulse_hi = pulse.center_ps + PULSE_SUPPORT_SIGMAS * pulse.sigma_ps
    edges = [float(times[0])]
    for edge in (pulse_lo, pulse_hi):
        if times[0] < edge < times[-1]:
            edges.append(edge)
    edges.append(float(times[-1]))

    def checked_rhs(t: float, y: np.ndarray) -> np.ndarray:
        # LSODA never returns once a derivative overflows (a finite-time
        # blow-up leaves it retrying the same step), so stop it here
        dy = rhs(t, y)
        if not np.isfinite(dy).all():
            where = ""
            member = None
            if members > 1:
                member = int(np.argmin(np.isfinite(dy).reshape(members, -1).all(axis=1)))
                where = f" in member {member}"
            raise IntegrationError(
                f"derivative became non-finite{where} at t = {t:g} ps",
                last_good_time_ps=float(t),
                member=member,
            )
        return dy

    options = {"rtol": rel_tol, "atol": abs_tol}
    if jac is not None:
        band = y0.size // members - 1
        options.update(jac=jac, lband=band, uband=band)
    rows = []
    pending = []

    def flush() -> None:
        if pending:
            t, states = zip(*pending)
            rows.append(reduce(np.concatenate(t), np.concatenate(states)))
            pending.clear()

    done = 0
    stats = SolverStats()
    y = y0
    for a, b in zip(edges[:-1], edges[1:]):
        max_step = max_step_ps
        if pulse_lo <= a and b <= pulse_hi:
            max_step = min(max_step, 0.25 * pulse.sigma_ps)
        solver = stepper(checked_rhs, a, y, b, max_step=max_step, **options)
        steps = 0
        try:
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise IntegrationError(
                        f"integration failed in [{a:g}, {b:g}] ps: {message}",
                        last_good_time_ps=float(times[max(done - 1, 0)]),
                    )
                steps += 1
                reached = int(np.searchsorted(times, solver.t, side="right"))
                if reached > done:
                    grid = times[done:reached]
                    pending.append((grid, solver.dense_output()(grid).T))
                    if sum(len(t) for t, _ in pending) >= _REDUCE_BATCH:
                        flush()
                    done = reached
        finally:
            _release_lsoda_work(solver)
        stats += SolverStats(int(solver.nfev), int(solver.njev), steps)
        y = solver.y
        if not np.all(np.isfinite(y)):
            raise IntegrationError(
                f"state became non-finite near t = {b:g} ps",
                last_good_time_ps=float(a),
            )
    flush()
    data = np.concatenate(rows)
    if not np.all(np.isfinite(data)):
        bad = int(np.argmax(~np.isfinite(data).all(axis=1)))
        raise IntegrationError(
            f"non-finite state at t = {times[bad]:g} ps",
            last_good_time_ps=float(times[max(bad - 1, 0)]),
        )
    return data, stats


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
    data, _ = _segmented_solve(
        rhs, y0, times, pulse, config.rel_tol, config.abs_tol, LSODA, config.max_step_ps
    )
    return MomentTrace(times_ps=times, data=data)


def energy_trace(trace: MomentTrace, params: ModelParams) -> EnergyTrace:
    """Reduce a moment trace to the stored-energy trace of ``simulate_energy``."""
    return EnergyTrace(
        times_ps=trace.times_ps,
        energy_mev=energy_density_from_inversion(trace.c_z, params.omega_a_mev),
    )


def simulate_energy(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
) -> EnergyTrace:
    """Integrate and reduce to an ``EnergyTrace``, energy per molecule in meV."""
    return energy_trace(integrate(params, pulse, config), params)


def simulate_energies(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    config: SolverConfig,
):
    """Energy traces of a batch of members driven by one pulse, integrated as one stacked system.

    The B members become one member-major (B * 20) LSODA state with one
    evaluation of the equations per step for the whole batch and a banded
    block Jacobian (see ``_batch_system``).  LSODA's error test is a
    weighted max-norm, so every member keeps its own tolerance; the steps
    follow the hardest member, which is why the fit batches similar members.
    Only <sigma_z> is kept.  A lone member takes the scalar path, which
    matches ``simulate_energy`` bit for bit and runs 4-6x faster than a
    batch of one on 4 ps traces.

    The members share ``pulse`` and ``config`` (window, tolerances,
    closure).  Returns the traces and the solver's work.
    """
    if not params:
        raise ValueError("need at least one member")
    size = len(params)
    if size == 1:
        rhs, jac = _make_rhs(params[0], pulse, config.closure), None
    else:
        rhs, jac = _batch_system(params, pulse, config.closure)
    times = output_grid(config)
    c_z = _SLOTS["c_z"][0] + STATE_SIZE * np.arange(size)
    data, stats = _segmented_solve(
        rhs,
        np.tile(_initial_array(config.closure), size),
        times,
        pulse,
        config.rel_tol,
        config.abs_tol,
        LSODA,
        config.max_step_ps,
        reduce=lambda t, states: states[:, c_z],
        jac=jac,
        members=size,
    )
    traces = [
        EnergyTrace(
            times_ps=times,
            energy_mev=energy_density_from_inversion(data[:, m], p.omega_a_mev),
        )
        for m, p in enumerate(params)
    ]
    return traces, stats


def process_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """``[fn(x) for x in items]``, mapped by at most one process per item."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)
