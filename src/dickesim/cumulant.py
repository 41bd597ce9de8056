"""Second-order cumulant equations of motion for the driven Tavis-Cummings ensemble.

The state tracks the cavity amplitude <a>, the single-molecule Bloch vector
(<sigma_x>, <sigma_y>, <sigma_z>), the photon number <a'a>, and all
photon-photon, photon-molecule and molecule-molecule second moments of a
permutation-symmetric ensemble.  Third cumulants are set to zero, which
closes the hierarchy; mean field sets the second cumulants to zero too,
and steps <a>, the Bloch vector and <a'a> by the same equations.

Moments named c_ab are raw expectation values (not centered), e.g.
c_az = <a sigma_z> and c_xy = <sigma_x^(i) sigma_y^(j)> for i != j.

Both closures are integrated with LSODA, which switches between Adams and
BDF steps on its own.  Dephasing scales as N_ref/N, so at low molecule
number and strong dephasing the moments can decay a thousand times
faster than the cavity and an explicit method is held to tiny steps; a
B2-like trace at gamma0z = 300 meV needs about 830 right-hand-side calls
with LSODA against 79,000 with RK45.  The exact Lindblad oracle keeps its
reference integrator, RK45, where LSODA gained only 7%.  The field
moments reach the pulse's coherent amplitude (<a>, up to 1e5) or its
square (<a'a>, <aa>), so each slot's absolute tolerance is in its own
units (``_abs_tols``); one scalar would cut the step wherever a field
moment starts from or crosses zero, which halves the steps of a nominal
member.  What remains costly are the strongly coupled corners (g near
5000 neV): they oscillate fast rather than decay, so the step stays bound
to the Rabi period there.

The equations are written once, for both closures (``_moment_equations``),
reading and writing moments by name; ``_LAYOUT`` alone places the names in
the state.  ``_batch_system`` traces them once through a small polynomial
type into dy/dt = P0(y) + eta(t) P1(y) with one coefficient per member (at
resonance 83 monomials of degree at most three in 133 terms for the
cumulant closure, and 12 in 18 for mean field), then evaluates the
right-hand side by gather, multiply and sum, and the exact Jacobian from
the same terms, banded for LSODA.  One set-up, ``_solve``, integrates any
number of members under one pulse as one stacked system: ``integrate`` keeps
one member's full state, ``simulate_energies`` (the fit's table, and
``simulate_energy`` as a batch of one) only <sigma_z>, returned as one
batched ``EnergyTrace`` with a row per member.  One stepping loop,
``_segmented_solve``, runs it and the exact oracle alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Iterator, Mapping, Sequence

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

# state vector layout in storage order: (name, offset, is_complex, fields); a
# complex moment is stored as its (re, im) pair, and ``fields`` counts its
# field operators, which set its scale (see ``_abs_tols``).  Pair moments are
# between distinct molecules.
_LAYOUT = (
    ("c_a", 0, True, 1),       # <a>
    ("c_x", 2, False, 0),      # <sx>, <sy>, <sz>
    ("c_y", 3, False, 0),
    ("c_z", 4, False, 0),
    ("c_n", 5, False, 2),      # <a'a>
    ("c_aa", 6, True, 2),      # <aa>
    ("c_ax", 8, True, 1),      # <a sx>, <a sy>, <a sz>
    ("c_ay", 10, True, 1),
    ("c_az", 12, True, 1),
    ("c_xx", 14, False, 0),    # <sx sx>, <sy sy>, <sz sz>
    ("c_yy", 15, False, 0),
    ("c_zz", 16, False, 0),
    ("c_xy", 17, False, 0),    # <sx sy>, <sx sz>, <sy sz>
    ("c_xz", 18, False, 0),
    ("c_yz", 19, False, 0),
)
MOMENT_NAMES = tuple(name for name, *_ in _LAYOUT)
STATE_SIZE = sum(2 if is_complex else 1 for _, _, is_complex, _ in _LAYOUT)
_SLOTS = {name: (offset, is_complex) for name, offset, is_complex, _ in _LAYOUT}


def moment(y: np.ndarray, name: str) -> np.ndarray:
    """Moment ``name`` of states (..., STATE_SIZE): re + i*im if complex, else a view of its column."""
    offset, is_complex = _SLOTS[name]
    if is_complex:
        return y[..., offset] + 1j * y[..., offset + 1]
    return y[..., offset]


def _named(components: Sequence) -> dict:
    """Name -> moment of one state's STATE_SIZE components; a complex one is re + 1j * im."""
    return {
        name: components[offset] + 1j * components[offset + 1] if is_complex else components[offset]
        for name, offset, is_complex, _ in _LAYOUT
    }


def _stored(derivatives: Mapping) -> Iterator[tuple[int, object]]:
    """(slot, component) of the named ``derivatives`` in storage order; a complex one gives re, im."""
    for name, offset, is_complex, _ in _LAYOUT:
        if name in derivatives:
            value = derivatives[name]
            if is_complex:
                yield offset, value.real
                yield offset + 1, value.imag
            else:
                yield offset, value


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
    batch on its own (see ``_solve``).  ``abs_tol`` is per moment, in units
    of max(1, eta0)^k: eta0 is the pulse's ``amplitude``, the coherent
    amplitude <a> reaches, and k the moment's number of field operators (1
    for <a> and <a sigma>, 2 for <a'a> and <aa>, 0 for the spin moments,
    which keep ``abs_tol`` itself).
    """

    closure: str = "cumulant"
    t_start_ps: float = -0.5
    t_end_ps: float = 3.5
    output_dt_ps: float = 0.002
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.closure not in CLOSURES:
            raise ValueError(f"closure must be one of {CLOSURES}, got {self.closure!r}")
        if not self.t_end_ps > self.t_start_ps:
            raise ValueError("t_end_ps must exceed t_start_ps")
        if self.output_dt_ps <= 0:
            raise ValueError("output_dt_ps must be positive")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


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
    """Stored energy per molecule (meV) of one member, or of a batch (members x steps), on a uniform time grid (ps).

    The grid is uniform when every time lies within 1e-6 of a step of the line through its ends.
    """

    times_ps: np.ndarray
    energy_mev: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times_ps, dtype=float)
        e = np.asarray(self.energy_mev, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two samples")
        if e.ndim not in (1, 2) or e.shape[-1] != t.size:
            raise ValueError("energy and time arrays must match")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
            raise ValueError("trace contains non-finite values")
        step = (t[-1] - t[0]) / (t.size - 1)
        if not (step > 0 and np.max(np.abs(t - t[0] - step * np.arange(t.size))) <= 1e-6 * step):
            raise ValueError("times must be strictly increasing on a uniform grid")
        object.__setattr__(self, "times_ps", t)
        object.__setattr__(self, "energy_mev", e)

    @property
    def dt_ps(self) -> float:
        return float(self.times_ps[1] - self.times_ps[0])


def _moment_equations(
    params: Sequence[ModelParams],
    closure: str,
    ax_bracket: str = "consistent",
) -> Callable:
    """The moment equations of a batch of members, every coefficient a (B,) array.

    All rates are pre-divided by hbar.  The returned ``rhs(eta, m)`` is the
    derivative at drive rate ``eta``: ``m`` maps each name of
    ``MOMENT_NAMES`` to its moment, complex for a complex one (``_named``
    builds it from a state), and ``rhs`` returns the derivatives by the same
    names; mean field returns those of <a>, the Bloch vector and <a'a> only,
    at second moments factorised from the first.  ``_batch_system`` runs it
    once on ``_Poly`` components.

    ``ax_bracket`` selects the saturation bracket in the <a sx> equation:
    "consistent" uses 1 + (N-1) c_xx, the form its companion <a sy> and
    <a sz> equations force by symmetry; "variant" replaces it with N c_xx.
    The variant breaks stationarity of the all-down dark state and disagrees
    with the exact propagator, so it exists only for that cross-check.
    """
    if ax_bracket not in ("consistent", "variant"):
        raise ValueError(f"unknown ax_bracket {ax_bracket!r}")
    dc = np.array([p.delta_c_mev for p in params]) / HBAR_MEV_PS
    da = np.array([p.delta_a_mev for p in params]) / HBAR_MEV_PS
    g = np.array([p.g_mev for p in params]) / HBAR_MEV_PS
    kap = np.array([p.kappa_mev for p in params]) / HBAR_MEV_PS
    gm = np.array([p.gamma_minus_mev for p in params]) / HBAR_MEV_PS
    gtot = np.array([gamma_total(p) for p in params]) / HBAR_MEV_PS
    n = np.array([p.n_molecules for p in params])
    nm1 = n - 1.0
    variant = ax_bracket == "variant"

    cav = -(1j * dc + 0.5 * kap)
    cav1 = cav - gtot          # decay of <a sx>, <a sy>
    half_g = 0.5 * g

    def rhs_cumulant(eta, m):
        ca, cn, caa = m["c_a"], m["c_n"], m["c_aa"]
        cx, cy, cz = m["c_x"], m["c_y"], m["c_z"]
        cax, cay, caz = m["c_ax"], m["c_ay"], m["c_az"]
        cxx, cyy, czz = m["c_xx"], m["c_yy"], m["c_zz"]
        cxy, cxz, cyz = m["c_xy"], m["c_xz"], m["c_yz"]

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

        return {
            "c_a": d_ca, "c_n": d_cn, "c_aa": d_caa,
            "c_x": d_cx, "c_y": d_cy, "c_z": d_cz,
            "c_ax": d_cax, "c_ay": d_cay, "c_az": d_caz,
            "c_xx": d_cxx, "c_yy": d_cyy, "c_zz": d_czz,
            "c_xy": d_cxy, "c_xz": d_cxz, "c_yz": d_cyz,
        }

    def rhs_meanfield(eta, m):
        # the closure's equations with every second moment the product of two first ones,
        # <pq> = <p><q>; <a'a> = |<a>|^2 is summed from re and im, so it stays real
        pairs = itertools.combinations_with_replacement("axyz", 2)
        factorised = {f"c_{p}{q}": m[f"c_{p}"] * m[f"c_{q}"] for p, q in pairs}
        ca = m["c_a"]
        factorised["c_n"] = ca.real * ca.real + ca.imag * ca.imag
        derivatives = rhs_cumulant(eta, {**m, **factorised})
        return {name: derivatives[name] for name in ("c_a", "c_x", "c_y", "c_z", "c_n")}

    return rhs_meanfield if closure == "meanfield" else rhs_cumulant


class _Poly(dict):
    """A polynomial in the state components and the drive rate eta.

    It maps a monomial, the sorted tuple of its factors' slots (slot
    STATE_SIZE is eta), to its coefficient: a float, a complex or a (B,)
    array over members.  The components are real, so ``real``, ``imag`` and
    ``conjugate`` act on the coefficients, and a real one has no ``imag``.
    """

    __array_ufunc__ = None  # an array coefficient times a _Poly defers to __rmul__

    def __add__(self, other) -> "_Poly":
        out = _Poly(self)
        for m, c in (other if isinstance(other, _Poly) else {(): other}).items():
            out[m] = out[m] + c if m in out else c
        return out

    def __mul__(self, other) -> "_Poly":
        if not isinstance(other, _Poly):
            return _Poly({m: c * other for m, c in self.items()})
        out = _Poly()
        for (m1, c1), (m2, c2) in itertools.product(self.items(), other.items()):
            m = tuple(sorted(m1 + m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return out

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> "_Poly":
        return self * -1.0

    def __sub__(self, other) -> "_Poly":
        return self + -other

    def __rsub__(self, other) -> "_Poly":
        return -self + other

    real = property(lambda self: _Poly({m: c.real for m, c in self.items()}))
    imag = property(lambda self: _Poly({m: c.imag for m, c in self.items() if np.iscomplexobj(c)}))

    def conjugate(self) -> "_Poly":
        return _Poly({m: c.conjugate() for m, c in self.items()})


def _batch_system(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    closure: str,
    ax_bracket: str = "consistent",
) -> tuple[Callable, Callable]:
    """Right-hand side and banded Jacobian of B members stacked member-major.

    The state is (B * STATE_SIZE,) with member m in slots [20 m, 20 m + 20).
    ``_moment_equations`` runs once on ``_Poly`` components, which expands
    each derivative into terms coef * f0 * f1 * f2 of three factors from
    (y, eta(t), 1) and one coefficient per member.  Members do not couple,
    so LSODA gets the Jacobian packed with lband = uband = STATE_SIZE - 1:
    ``packed[19 + i - c, 20 m + c]`` is d(dy_i)/d(y_c) of member m.
    """
    size, n, width = len(params), len(params) * STATE_SIZE, 2 * STATE_SIZE - 1
    eta_slot, one_slot = STATE_SIZE, STATE_SIZE + 1
    body = _moment_equations(params, closure, ax_bracket)
    moments = _named([_Poly({(slot,): 1.0}) for slot in range(STATE_SIZE)])
    derivatives = body(_Poly({(eta_slot,): 1.0}), moments)
    raw = [(row, m, c) for row, d in _stored(derivatives) for m, c in d.items()]
    coef = np.empty((len(raw), size))
    for t, (_, _, c) in enumerate(raw):
        coef[t] = c.real
    # a term whose coefficient is zero for every member is dropped; the others pad their
    # factor slots to three with the constant
    keep = coef.any(axis=1)
    coef = coef[keep]                                                 # (T, B)
    terms = [(row, m + (one_slot,) * (3 - len(m))) for (row, m, _), k in zip(raw, keep) if k]
    # d(dy_row)/d(y_col) collects coef times the other two factors of each factor slot holding y_col
    entries = [(row, m[k], t, m[:k] + m[k + 1:]) for t, (row, m) in enumerate(terms) for k in range(3)]
    entries = [entry for entry in entries if entry[1] < STATE_SIZE]
    # where the products of each term and each entry land, member by member: in dy, in the flat band
    member = STATE_SIZE * np.arange(size)
    term_slot = (np.array([row for row, _ in terms])[:, None] + member).ravel()
    entry_slot = np.array([(STATE_SIZE - 1 + row - col) * n + col for row, col, _, _ in entries])
    entry_slot = (entry_slot[:, None] + member).ravel()
    factors = np.array([m for _, m in terms]).T                       # (3, T)
    cofactors = np.array([other for *_, other in entries]).T          # (2, E)
    entry_coef = coef[[t for _, _, t, _ in entries]]                  # (E, B)
    amp, t0, inv_sig = pulse_shape(pulse)

    def extended(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        ext = np.empty((STATE_SIZE + 2, size))
        ext[:STATE_SIZE] = y.reshape(size, STATE_SIZE).T
        ext[eta_slot] = amp * math.exp(-0.5 * arg * arg)
        ext[one_slot] = 1.0
        return ext

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        f = np.take(extended(t, y), factors, axis=0)
        return np.bincount(term_slot, (coef * f[0] * f[1] * f[2]).ravel(), n)

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        f = np.take(extended(t, y), cofactors, axis=0)
        return np.bincount(entry_slot, (entry_coef * f[0] * f[1]).ravel(), width * n).reshape(width, n)

    return rhs, jac


def _initial_array(closure: str) -> np.ndarray:
    """All molecules down, empty cavity: <sz> = -1 and, pairwise, <sz sz> = +1 (mean field has no pairs)."""
    ground = {"c_z": -1.0} if closure == "meanfield" else {"c_z": -1.0, "c_zz": 1.0}
    y0 = np.zeros(STATE_SIZE)
    for slot, value in _stored(ground):
        y0[slot] = value
    return y0


def _abs_tols(abs_tol: float, pulse: PulseParams) -> np.ndarray:
    """LSODA's absolute tolerance per slot: ``abs_tol`` in units of max(1, eta0)^k.

    eta0 is ``pulse.amplitude``, the coherent amplitude the pulse injects and
    so the scale <a> reaches, and k the moment's field operators (``_LAYOUT``).
    A spin moment, and every slot when eta0 <= 1, keeps ``abs_tol`` itself.
    """
    scale = max(1.0, pulse.amplitude)
    tols = np.empty(STATE_SIZE)
    for _, offset, is_complex, fields in _LAYOUT:
        tols[offset:offset + (2 if is_complex else 1)] = abs_tol * scale ** fields
    return tols


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


# grid points ``_segmented_solve`` hands ``reduce`` at once: a strongly
# driven oracle run samples once per short step, and one call each costs
# more; a long step's many points are sampled in runs of this size, so the
# sampled states of a batch never take more than this many rows
_REDUCE_BATCH = 32


def _release_solver(solver) -> None:
    """Free what a finished scipy solver holds, without waiting for the cycle collector.

    A solver references itself through its ``fun`` wrapper, so it and what
    it holds (the system and its coefficient arrays) would wait for the
    cycle collector; dropping its attributes frees them now.  scipy's LSODA
    wrapper (1.17) also keeps a reference to its rwork and iwork arrays
    (about 5 kB per segment of one trace, 0.4 MB of a 36-member batch), which
    no dense output reads, so those are shrunk in place first.
    """
    integrator = getattr(getattr(solver, "_lsoda_solver", None), "_integrator", None)
    for name in ("rwork", "iwork"):
        work = getattr(integrator, name, None)
        if isinstance(work, np.ndarray):
            work.resize(0, refcheck=False)
    vars(solver).clear()


def _segmented_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    pulse: PulseParams,
    rel_tol: float,
    abs_tol: float | np.ndarray,
    stepper: type,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda t, states: states,
    members: int = 1,
    **options,
) -> tuple[np.ndarray, SolverStats]:
    """Adaptive integration sampled at ``times``, one row per grid point.

    The window is split at the pulse edges so a step-size cap of sigma/4
    applies only while the drive is appreciable; outside it the solver is
    free to take long steps.  ``stepper`` is the scipy stepper class:
    ``LSODA`` for the moment state, ``RK45`` for the exact oracle's class
    values, real at resonance.  ``abs_tol`` is a scalar or one
    value per state component.  One cursor walks ``times``: each step's
    dense output gives the grid points up to the step's end, evaluated in
    runs that fill the pending block, and a segment ends exactly on its
    edge, where the next starts from its state.  Each time ``_REDUCE_BATCH``
    grid points are pending, and at the end, ``reduce(t, states)`` maps
    them and their (len(t), state size) states to the rows the caller keeps
    (default: the whole state).  So ``reduce`` never receives more than
    ``_REDUCE_BATCH`` rows, however many grid points one step spans, no
    interpolant outlives its step and no state outlives its reduction.
    The state of a batch holds ``members`` equal-sized, uncoupled members,
    and a non-finite derivative names the first offending member.
    ``options`` go to the stepper as they are (``_solve`` hands LSODA its
    banded Jacobian there).

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

    rows = []
    pending = []

    def flush() -> None:
        if pending:
            t, states = zip(*pending)
            rows.append(reduce(np.concatenate(t), np.concatenate(states)))
            pending.clear()

    done = pending_points = rhs_calls = jacobians = steps = 0
    y = y0
    for a, b in zip(edges[:-1], edges[1:]):
        in_pulse = pulse_lo <= a and b <= pulse_hi
        max_step = 0.25 * pulse.sigma_ps if in_pulse else math.inf
        solver = stepper(checked_rhs, a, y, b, max_step=max_step, rtol=rel_tol, atol=abs_tol, **options)
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
                    interpolant = solver.dense_output()
                    while done < reached:
                        stop = min(reached, done + _REDUCE_BATCH - pending_points)
                        grid = times[done:stop]
                        pending.append((grid, interpolant(grid).T))
                        pending_points += stop - done
                        done = stop
                        if pending_points == _REDUCE_BATCH:
                            flush()
                            pending_points = 0
            rhs_calls += solver.nfev
            jacobians += solver.njev
            y = solver.y
        finally:
            _release_solver(solver)
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
    return data, SolverStats(int(rhs_calls), int(jacobians), steps)


def _solve(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    config: SolverConfig,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ax_bracket: str = "consistent",
) -> tuple[np.ndarray, np.ndarray, SolverStats]:
    """Integrate B members from the ground state under one pulse, as one stacked system.

    The members share ``config`` and become one member-major (B * 20) LSODA
    state with a banded block Jacobian (see ``_batch_system``).  LSODA's
    error test is a weighted max-norm, so every member keeps its own
    tolerance, each slot's absolute one in its own units (``_abs_tols``,
    the same for every member under one pulse); the steps follow the
    hardest member, which is why the fit batches similar members.  Returns
    the output grid, the rows ``reduce`` keeps (see ``_segmented_solve``)
    and the solver's work.
    """
    if not params:
        raise ValueError("need at least one member")
    rhs, jac = _batch_system(params, pulse, config.closure, ax_bracket)
    times = output_grid(config)
    y0 = np.tile(_initial_array(config.closure), len(params))
    abs_tol = np.tile(_abs_tols(config.abs_tol, pulse), len(params))
    band = STATE_SIZE - 1
    data, stats = _segmented_solve(
        rhs, y0, times, pulse, config.rel_tol, abs_tol, LSODA, reduce, len(params),
        jac=jac, lband=band, uband=band,
    )
    return times, data, stats


def integrate(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
    ax_bracket: str = "consistent",
) -> MomentTrace:
    """Integrate the moment equations over the configured window."""
    times, data, _ = _solve([params], pulse, config, lambda t, states: states, ax_bracket)
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
    """Stored energy per molecule (meV) of one member: a batch of one of ``simulate_energies``."""
    trace = simulate_energies([params], pulse, config)[0]
    return EnergyTrace(trace.times_ps, trace.energy_mev[0])


def simulate_energies(
    params: Sequence[ModelParams],
    pulse: PulseParams,
    config: SolverConfig,
) -> tuple[EnergyTrace, SolverStats]:
    """The batched energy trace of members driven by one pulse, integrated as one stacked system.

    See ``_solve``.  Only <sigma_z> is kept; a lone member's energy is bit
    for bit ``energy_trace`` of its ``integrate`` trace.  Returns the trace,
    one row per member in the order of ``params``, and the solver's work.
    """
    def sigma_z(t: np.ndarray, states: np.ndarray) -> np.ndarray:
        # a copy, since a view of the sampled states would keep them all alive
        return moment(states.reshape(len(t), len(params), STATE_SIZE), "c_z").copy()

    times, c_z, stats = _solve(params, pulse, config, sigma_z)
    omega_a = np.array([[p.omega_a_mev] for p in params])
    return EnergyTrace(times_ps=times, energy_mev=energy_density_from_inversion(c_z.T, omega_a)), stats


def process_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """``[fn(x) for x in items]``, mapped by at most one process per item."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with Pool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)
