"""Exact Lindblad propagation for few-molecule sanity checks.

Density-matrix evolution of the same driven, lossy model the cumulant
solver approximates, restricted to ensembles small enough (up to three
molecules, Hilbert dimension at most 64) that nothing needs truncating except
the Fock ladder.  Used to validate the moment equations, never for
production-size ensembles.

The master equation acts on the row-major vec(rho) through two sparse
superoperators built once per call from vec(A rho B) = kron(A, B^T) vec(rho):
the drift from the Hamiltonian and the jumps, and the drive [V, rho] that the
pulse envelope multiplies.  At three molecules and n_max = 7 they hold about
46,000 nonzeros against 4096^2 for a dense superoperator.  The states are
complex and scipy's LSODA accepts only real ones, so the oracle stays on
RK45.  Moments come from one contraction of all samples against vec(O^T),
since tr(O rho) = vec(O^T) . vec(rho).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .cumulant import MOMENT_NAMES, MomentTrace, SolverConfig, _segmented_solve, output_grid
from .model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    effective_dephasing,
    energy_density_from_inversion,
)

logger = logging.getLogger(__name__)

MAX_DIM = 64
MAX_MOLECULES = 3
# samples per Hermiticity/eigenvalue batch: a (32, 64, 64) complex block is 2 MB
_BLOCK = 32


class OracleTruncationError(RuntimeError):
    """The Fock ladder is too short for the requested drive."""


class OracleInvariantError(RuntimeError):
    """The propagated density matrix stopped being a density matrix."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and validation settings for the exact propagator."""

    n_max: int = 8
    initial_photons: int = 0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    top_level_tol: float = 1e-6
    trace_tol: float = 1e-7
    herm_tol: float = 1e-8
    positivity_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not (0 <= self.initial_photons <= self.n_max):
            raise ValueError("initial_photons must lie in [0, n_max]")
        for name in ("rel_tol", "abs_tol", "top_level_tol", "trace_tol", "herm_tol", "positivity_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class _Operators:
    """Dense operators on the joint spin-field space, field factor last."""

    def __init__(self, n_molecules: int, n_max: int):
        if not (1 <= n_molecules <= MAX_MOLECULES):
            raise ValueError(
                f"exact propagation supports 1..{MAX_MOLECULES} molecules, got {n_molecules}"
            )
        dim = (2 ** n_molecules) * (n_max + 1)
        if dim > MAX_DIM:
            raise ValueError(
                f"Hilbert dimension {dim} exceeds {MAX_DIM}; lower n_max or the molecule count"
            )
        self.n_molecules = n_molecules
        self.n_max = n_max
        self.dim = dim

        nf = n_max + 1
        a_f = np.diag(np.sqrt(np.arange(1, nf)), k=1).astype(complex)
        id_f = np.eye(nf, dtype=complex)
        id_s = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)

        def embed_spin(op: np.ndarray, j: int) -> np.ndarray:
            factors = [id_s] * n_molecules + [id_f]
            factors[j] = op
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out

        spin_id = np.eye(2 ** n_molecules, dtype=complex)
        self.a = np.kron(spin_id, a_f)
        self.ad = self.a.conj().T
        self.n_op = self.ad @ self.a
        self.sx = [embed_spin(sx, j) for j in range(n_molecules)]
        self.sy = [embed_spin(sy, j) for j in range(n_molecules)]
        self.sz = [embed_spin(sz, j) for j in range(n_molecules)]
        self.sm = [embed_spin(sm, j) for j in range(n_molecules)]
        self.sp = [m.conj().T for m in self.sm]

        top = np.zeros((nf, nf), dtype=complex)
        top[n_max, n_max] = 1.0
        self.top_proj = np.kron(spin_id, top)

    def ground_state(self, photons: int) -> np.ndarray:
        """|down...down> tensor |photons>, as a density matrix."""
        spin = np.zeros(2 ** self.n_molecules)
        # all-down is the last basis vector with sz = diag(1, -1)
        spin[-1] = 1.0
        fock = np.zeros(self.n_max + 1)
        fock[photons] = 1.0
        vec = np.kron(spin, fock).astype(complex)
        return np.outer(vec, vec.conj())


@lru_cache(maxsize=8)
def _operators(n_molecules: int, n_max: int) -> _Operators:
    return _Operators(n_molecules, n_max)


@dataclass(frozen=True)
class OracleResult:
    """Exact moments on the output grid plus per-time diagnostics."""

    times_ps: np.ndarray
    moments: dict
    top_fock_pop: np.ndarray
    trace_error: np.ndarray
    min_eigenvalue: np.ndarray
    n_molecules: int
    n_max: int

    def energy_mev(self, omega_a_mev: float) -> np.ndarray:
        return energy_density_from_inversion(np.real(self.moments["c_z"]), omega_a_mev)


def _molecule_count(params: ModelParams) -> int:
    n = params.n_molecules
    n_int = int(round(n))
    if abs(n - n_int) > 1e-9 or not (1 <= n_int <= MAX_MOLECULES):
        raise ValueError(
            f"exact propagation needs an integer molecule count in 1..{MAX_MOLECULES}, got {n}"
        )
    return n_int


def _hamiltonian_and_jumps(params: ModelParams, ops: _Operators) -> tuple[np.ndarray, list]:
    """Undriven Hamiltonian H0 in 1/ps and the (rate, L) jumps with nonzero rate."""
    gz = effective_dephasing(params) / HBAR_MEV_PS
    gm = params.gamma_minus_mev / HBAR_MEV_PS
    kap = params.kappa_mev / HBAR_MEV_PS
    dc = params.delta_c_mev / HBAR_MEV_PS
    da = params.delta_a_mev / HBAR_MEV_PS
    g = params.g_mev / HBAR_MEV_PS

    h0 = dc * ops.n_op
    collapse = [(kap, ops.a)]
    for j in range(ops.n_molecules):
        h0 = h0 + 0.5 * da * ops.sz[j] + g * (ops.ad @ ops.sm[j] + ops.a @ ops.sp[j])
        collapse += [(gz, ops.sz[j]), (gm, ops.sm[j])]
    return h0, [(rate, op) for rate, op in collapse if rate > 0]


def _superoperators(h0: np.ndarray, collapse: list, v: np.ndarray):
    """CSR (drift, drive) on the row-major vec(rho).

    With K = -iH - (1/2) sum rate L'L the master equation reads
    drho/dt = K rho + rho K' + sum rate L rho L' + eta [V, rho], and
    vec(A rho B) = kron(A, B^T) vec(rho) turns each term into one kron.
    """
    ident = sparse.identity(h0.shape[0], dtype=complex, format="csr")
    k_eff = -1j * h0
    for rate, op in collapse:
        k_eff = k_eff - 0.5 * rate * (op.conj().T @ op)
    drift = sparse.kron(k_eff, ident) + sparse.kron(ident, k_eff.conj())
    for rate, op in collapse:
        drift = drift + rate * sparse.kron(op, op.conj())
    drive = sparse.kron(v, ident) - sparse.kron(ident, v.T)
    return drift.tocsr(), drive.tocsr()


def evolve_exact(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
    oracle: OracleConfig | None = None,
) -> OracleResult:
    """Propagate the exact master equation and report cumulant-style moments.

    Raises OracleTruncationError if the top Fock level becomes populated
    beyond ``oracle.top_level_tol`` (the ladder was too short) and
    OracleInvariantError if trace, Hermiticity or positivity drift beyond
    their tolerances.
    """
    if oracle is None:
        oracle = OracleConfig()
    ops = _operators(_molecule_count(params), oracle.n_max)

    drift, drive = _superoperators(*_hamiltonian_and_jumps(params, ops), ops.ad - ops.a)
    amp = pulse.amplitude / (pulse.sigma_ps * math.sqrt(2.0 * math.pi))
    t0 = pulse.center_ps
    inv_sig = 1.0 / pulse.sigma_ps

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        eta = amp * math.exp(-0.5 * arg * arg)
        out = drift @ y
        if eta != 0.0:
            out += eta * (drive @ y)
        return out

    rho0 = ops.ground_state(oracle.initial_photons).ravel()
    times = output_grid(config)
    # the density matrix is complex, which scipy's LSODA does not accept
    data, _ = _segmented_solve(rhs, rho0, times, pulse, oracle.rel_tol, oracle.abs_tol, "RK45")
    return _reduce(data, times, ops, oracle)


def _moment_operators(ops: _Operators) -> dict:
    """Operator O_m for every reported moment, so that moment m = tr(O_m rho)."""
    n_mol = ops.n_molecules
    sx_sum, sy_sum, sz_sum = (sum(s) / n_mol for s in (ops.sx, ops.sy, ops.sz))
    named = {
        "c_a": ops.a, "c_x": sx_sum, "c_y": sy_sum, "c_z": sz_sum, "c_n": ops.n_op,
        "c_aa": ops.a @ ops.a,
        "c_ax": ops.a @ sx_sum, "c_ay": ops.a @ sy_sum, "c_az": ops.a @ sz_sum,
    }
    if n_mol >= 2:
        # symmetrised distinct-molecule pair operators, averaged over pairs
        pairs = [(i, j) for i in range(n_mol) for j in range(n_mol) if i != j]
        for name, left, right in (
            ("c_xx", ops.sx, ops.sx), ("c_yy", ops.sy, ops.sy), ("c_zz", ops.sz, ops.sz),
            ("c_xy", ops.sx, ops.sy), ("c_xz", ops.sx, ops.sz), ("c_yz", ops.sy, ops.sz),
        ):
            named[name] = sum(left[i] @ right[j] for i, j in pairs) / len(pairs)
    return named


def _reduce(data: np.ndarray, times: np.ndarray, ops: _Operators, oracle: OracleConfig) -> OracleResult:
    dim = ops.dim
    n_t = times.size
    min_eig = np.empty(n_t)
    for lo in range(0, n_t, _BLOCK):
        rho = data[lo:lo + _BLOCK].reshape(-1, dim, dim)
        rho_h = rho.conj().transpose(0, 2, 1)
        herm = np.max(np.abs(rho - rho_h), axis=(1, 2))
        bad = np.flatnonzero(herm > oracle.herm_tol)
        if bad.size:
            raise OracleInvariantError(
                f"Hermiticity violated by {herm[bad[0]]:.2e} at t = {times[lo + bad[0]]:g} ps"
            )
        min_eig[lo:lo + _BLOCK] = np.linalg.eigvalsh(0.5 * (rho + rho_h)).min(axis=1)

    diag = data[:, :: dim + 1]
    trace_err = np.abs(diag.sum(axis=1) - 1.0)
    top_pop = diag[:, ops.n_max :: ops.n_max + 1].real.sum(axis=1)

    named = _moment_operators(ops)
    # tr(O rho) = vec(O^T) . vec(rho) on the row-major vec
    columns = np.stack([op.T.ravel() for op in named.values()], axis=1)
    # pair moments stay NaN for one molecule
    moments = {name: np.full(n_t, np.nan, dtype=complex) for name in MOMENT_NAMES}
    moments.update(zip(named, columns.T @ data.T))

    if np.max(top_pop) >= oracle.top_level_tol:
        raise OracleTruncationError(
            f"top Fock level reached population {np.max(top_pop):.2e} "
            f"(tolerance {oracle.top_level_tol:.0e}); raise n_max"
        )
    if np.max(trace_err) > oracle.trace_tol:
        raise OracleInvariantError(f"trace drifted by {np.max(trace_err):.2e}")
    if np.min(min_eig) < -oracle.positivity_tol:
        raise OracleInvariantError(f"negative eigenvalue {np.min(min_eig):.2e}")

    return OracleResult(
        times_ps=times,
        moments=moments,
        top_fock_pop=top_pop,
        trace_error=trace_err,
        min_eigenvalue=min_eig,
        n_molecules=ops.n_molecules,
        n_max=ops.n_max,
    )


@dataclass(frozen=True)
class ComparisonNorms:
    max_abs_error: float
    max_rel_error: float


def compare_cumulant(
    result: OracleResult,
    trace: MomentTrace,
    observables: tuple[str, ...] = ("c_z", "c_n", "c_a"),
) -> dict[str, ComparisonNorms]:
    """Error norms of a cumulant trace against the exact moments.

    The cumulant trace is interpolated onto the oracle grid over the window
    both cover.  The relative norm divides the worst absolute deviation by
    the largest magnitude the exact observable reaches, so a quantity that
    stays near zero does not blow the ratio up.
    """
    lo = max(result.times_ps[0], trace.times_ps[0])
    hi = min(result.times_ps[-1], trace.times_ps[-1])
    if hi <= lo:
        raise ValueError("oracle and cumulant traces do not overlap in time")
    mask = (result.times_ps >= lo) & (result.times_ps <= hi)
    t_cmp = result.times_ps[mask]

    out = {}
    for name in observables:
        if name not in MOMENT_NAMES:
            raise ValueError(f"unknown observable {name!r}")
        exact = result.moments[name][mask]
        if np.all(np.isnan(exact)):
            raise ValueError(f"{name} is undefined for a single molecule")
        approx = np.asarray(getattr(trace, name))
        interp_re = np.interp(t_cmp, trace.times_ps, approx.real)
        if np.iscomplexobj(approx):
            approx_i = interp_re + 1j * np.interp(t_cmp, trace.times_ps, approx.imag)
        else:
            approx_i = interp_re
        diff = np.max(np.abs(approx_i - exact))
        scale = np.max(np.abs(exact))
        out[name] = ComparisonNorms(
            max_abs_error=float(diff),
            max_rel_error=float(diff / scale) if scale > 0 else 0.0,
        )
    return out


def write_oracle_csv(path, result: OracleResult, omega_a_mev: float) -> None:
    """Trace table matching the cumulant export plus truncation diagnostics."""
    energy = result.energy_mev(omega_a_mev)
    cz = np.real(result.moments["c_z"])
    cn = np.real(result.moments["c_n"])
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# exact propagation: n_molecules={result.n_molecules} n_max={result.n_max}\n"
        )
        fh.write("t_ps,E_meV,Cz,n_photons,n_over_N,top_fock_pop,trace_err,min_eig\n")
        for i, t in enumerate(result.times_ps):
            fh.write(
                f"{t:.6f},{energy[i]:.10e},{cz[i]:.10e},{cn[i]:.10e},"
                f"{cn[i] / result.n_molecules:.10e},{result.top_fock_pop[i]:.3e},"
                f"{result.trace_error[i]:.3e},{result.min_eigenvalue[i]:.3e}\n"
            )
