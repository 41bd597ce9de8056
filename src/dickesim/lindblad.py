"""Exact Lindblad propagation for few-molecule sanity checks.

Density-matrix evolution of the same driven, lossy model the cumulant
solver approximates, restricted to ensembles small enough (up to three
molecules, Hilbert dimension at most 64) that nothing needs truncating except
the Fock ladder.  Used to validate the moment equations, never for
production-size ensembles.

The master equation acts on the row-major vec(rho) through two sparse
superoperators built once per call from vec(A rho B) = kron(A, B^T) vec(rho):
the drift from the Hamiltonian and the jumps, and the drive [V, rho] that the
pulse envelope multiplies.

The molecules are identical: the Hamiltonian, the drive and the jumps are
sums of the same term over them, so the generator commutes with every
permutation of the molecules, and so does the initial state.  rho(t) then
stays in the permutation-symmetric subspace, where an entry equals every
entry a permutation maps it to.  The oracle steps one value per class of
such entries (``_Operators``): C(N + 3, 3) spin classes times the Fock
pairs, 1,280 components against 4,096 at three molecules and n_max = 7.
The generator restricted to the classes is exact, not an approximation,
because the subspace is invariant; there it holds 7,379 + 4,480 nonzeros
against 31,807 + 14,336.  The states are complex and scipy's LSODA accepts
only real ones, so the oracle stays on RK45, at a tenth of the
``SolverConfig`` tolerances.  The samples are reduced as they are taken, a
few steps at a time: one contraction against the class sums of vec(O^T)
gives the moments, since tr(O rho) = vec(O^T) . vec(rho), the smallest
eigenvalue comes from one block per total spin, and only the moments and
the per-sample diagnostics are kept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.integrate import RK45

from .cumulant import MOMENT_NAMES, MomentTrace, SolverConfig, _segmented_solve, output_grid
from .model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    effective_dephasing,
    pulse_shape,
)

logger = logging.getLogger(__name__)

MAX_DIM = 64
MAX_MOLECULES = 3

# the drift allowed in the trace, Hermiticity and positivity
TRACE_TOL = 1e-7
HERM_TOL = 1e-8
POSITIVITY_TOL = 1e-8


class OracleTruncationError(RuntimeError):
    """The Fock ladder is too short for the requested drive."""


class OracleInvariantError(RuntimeError):
    """The propagated density matrix stopped being a density matrix."""


@dataclass(frozen=True)
class OracleConfig:
    """Fock truncation, initial photon number and truncation tolerance of the exact propagator."""

    n_max: int = 8
    initial_photons: int = 0
    top_level_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not (0 <= self.initial_photons <= self.n_max):
            raise ValueError("initial_photons must lie in [0, n_max]")
        if self.top_level_tol <= 0:
            raise ValueError("top_level_tol must be positive")


class _Operators:
    """Dense operators on the joint spin-field space, field factor last, and its symmetric classes.

    Entry (r, c) of rho, with r = (spin s, Fock f) and c = (s', f'), falls in
    class k nf^2 + f nf + f', where spin class k is the orbit of (s, s')
    under the permutations of the molecules: the multiset of the molecules'
    (ket, bra) states, C(N + 3, 3) of them.  ``classes`` maps each row-major
    vec(rho) entry to its class, ``representatives`` holds one entry per
    class, ``transpose_class`` the class of its transpose and ``indicator``
    the 0/1 matrix W with vec(rho) = W x for a symmetric rho of class values x.

    On total spin j, rho acts as one block rho_j per copy of the spin-j
    multiplet, so its spectrum is the union of the blocks' spectra.
    ``sectors`` holds for each j the (spin classes, 2j + 1, 2j + 1) array C
    with rho_j = sum_k kron(C_k, X_k), X_k the nf x nf Fock block of the
    class values of spin class k.
    """

    def __init__(self, n_molecules: int, n_max: int):
        dim = (2 ** n_molecules) * (n_max + 1)
        if dim > MAX_DIM:
            raise ValueError(
                f"Hilbert dimension {dim} exceeds {MAX_DIM}; lower n_max or the molecule count"
            )
        self.n_molecules = n_molecules
        self.n_max = n_max
        self.dim = dim

        nf = n_max + 1
        n_spin = 2 ** n_molecules
        a_f = np.diag(np.sqrt(np.arange(1, nf)), k=1).astype(complex)
        id_f = np.eye(nf, dtype=complex)
        id_s = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)

        def on_spins(op: np.ndarray, j: int) -> np.ndarray:
            factors = [id_s] * n_molecules
            factors[j] = op
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out

        def embed_spin(op: np.ndarray, j: int) -> np.ndarray:
            return np.kron(on_spins(op, j), id_f)

        spin_id = np.eye(n_spin, dtype=complex)
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

        # molecule j's (ket bit, bra bit) in each spin pair, 0..3; the orbit
        # of a pair is the multiset of its molecules' states
        bits = (np.arange(n_spin)[:, None] >> np.arange(n_molecules)[::-1]) & 1
        kinds = np.sort(2 * bits[:, None, :] + bits[None, :, :], axis=2)
        _, spin_class = np.unique(kinds.reshape(-1, n_molecules), axis=0, return_inverse=True)
        spin_class = spin_class.reshape(n_spin, n_spin)
        n_spin_classes = spin_class.max() + 1
        fock = np.arange(nf)
        self.classes = (
            spin_class[:, None, :, None] * nf * nf + fock[None, :, None, None] * nf + fock
        ).ravel()
        _, self.representatives = np.unique(self.classes, return_index=True)
        self.transpose_class = self.classes.reshape(dim, dim).T.ravel()[self.representatives]
        self.indicator = sparse.csr_matrix(
            (np.ones(dim * dim), (np.arange(dim * dim), self.classes)),
            shape=(dim * dim, n_spin_classes * nf * nf),
        )

        # S_12, the first pair's spin, commutes with the total spin S and, for
        # N <= 3, splits each multiplicity space into single copies of the
        # multiplet, so every level of S^2 + S_12^2 / 10 is one copy
        def spin_squared(molecules) -> np.ndarray:
            total = [sum(on_spins(p, j) for j in molecules) / 2 for p in (sx, sy, sz)]
            return sum(s @ s for s in total).real

        total = spin_squared(range(n_molecules))
        values, vectors = np.linalg.eigh(total + 0.1 * spin_squared(range(min(n_molecules, 2))))
        spins = np.einsum("sa,st,ta->a", vectors, total, vectors).round(6)  # j(j + 1)
        indicators = np.stack([spin_class == k for k in range(n_spin_classes)]).astype(float)
        self.sectors = []
        for spin in np.unique(spins):
            copy = vectors[:, np.isclose(values, values[spins == spin][0])]
            self.sectors.append(np.einsum("sa,kst,tb->kab", copy, indicators, copy))

    def symmetric(self, superop: sparse.csr_matrix) -> sparse.csr_matrix:
        """``superop`` on the class values: (superop W)[representatives].

        Exact when ``superop`` commutes with the permutations of the
        molecules, since their symmetric subspace is then invariant.
        """
        return (superop[self.representatives] @ self.indicator).tocsr()

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
    """Exact moments, excited population per molecule and per-time diagnostics on the output grid."""

    times_ps: np.ndarray
    moments: dict
    excited: np.ndarray
    top_fock_pop: np.ndarray
    trace_error: np.ndarray
    min_eigenvalue: np.ndarray
    n_molecules: int
    n_max: int

    def energy_mev(self, omega_a_mev: float) -> np.ndarray:
        """(omega_a/2)(<sigma_z> + 1) per molecule, read without that sum's cancellation."""
        return omega_a_mev * self.excited


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

    drift, drive = (
        ops.symmetric(op)
        for op in _superoperators(*_hamiltonian_and_jumps(params, ops), ops.ad - ops.a)
    )
    amp, t0, inv_sig = pulse_shape(pulse)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        eta = amp * math.exp(-0.5 * arg * arg)
        out = drift @ y
        if eta != 0.0:
            out += eta * (drive @ y)
        return out

    x0 = ops.ground_state(oracle.initial_photons).ravel()[ops.representatives]
    times = output_grid(config)
    # the density matrix is complex, which scipy's LSODA does not accept; the
    # reference runs ten times tighter than the closures it checks
    rows, stats = _segmented_solve(
        rhs, x0, times, pulse, config.rel_tol / 10, config.abs_tol / 10, RK45,
        reduce=_sampler(ops),
    )
    logger.info(
        "exact propagation: N = %d, n_max = %d, %d of %d components, %d steps, %d rhs calls",
        ops.n_molecules, ops.n_max, x0.size, ops.dim ** 2, stats.steps, stats.rhs_calls,
    )
    return _oracle_result(rows, times, ops, oracle)


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


def _sampler(ops: _Operators):
    """``reduce(t, states)``, which ``evolve_exact`` applies to its samples as they are taken.

    It turns the class values x of rho (see ``_Operators``) at the times
    ``t`` into one row per sample: the moments in ``_moment_operators``
    order, then the excited population per molecule, the trace, the top
    Fock population and the smallest eigenvalue.  It raises
    OracleInvariantError at the first sample whose Hermiticity is off by
    more than ``HERM_TOL``.
    """
    nf = ops.n_max + 1
    # tr(O rho) = vec(O^T) . vec(rho) on the row-major vec, and vec(rho) = W x
    excited = sum(sp @ sm for sp, sm in zip(ops.sp, ops.sm)) / ops.n_molecules
    operators = [*_moment_operators(ops).values(), excited, np.eye(ops.dim), ops.top_proj]
    columns = ops.indicator.T @ np.stack([op.T.ravel() for op in operators], axis=1)

    def reduce(t: np.ndarray, states: np.ndarray) -> np.ndarray:
        # each class against the conjugate of its transpose class
        transposed = states[:, ops.transpose_class].conj()
        herm = np.max(np.abs(states - transposed), axis=1)
        bad = np.flatnonzero(herm > HERM_TOL)
        if bad.size:
            raise OracleInvariantError(
                f"Hermiticity violated by {herm[bad[0]]:.2e} at t = {t[bad[0]]:g} ps"
            )
        # the spectrum of rho is the union of its total-spin blocks' spectra
        fock_blocks = (0.5 * (states + transposed)).reshape(len(t), -1, nf, nf)
        min_eig = np.full(len(t), np.inf)
        for sector in ops.sectors:
            size = sector.shape[1] * nf
            block = np.tensordot(fock_blocks, sector, axes=(1, 0)).transpose(0, 3, 1, 4, 2)
            min_eig = np.minimum(min_eig, np.linalg.eigvalsh(block.reshape(-1, size, size))[:, 0])
        return np.column_stack((states @ columns, min_eig))

    return reduce


def _oracle_result(rows, times, ops: _Operators, oracle: OracleConfig) -> OracleResult:
    """The result held in ``_sampler``'s rows, once the run's diagnostics pass their checks."""
    # pair moments stay NaN for one molecule
    moments = {name: np.full(times.size, np.nan, dtype=complex) for name in MOMENT_NAMES}
    moments.update(zip(_moment_operators(ops), rows[:, :-4].T))
    excited = rows[:, -4].real
    trace_err = np.abs(rows[:, -3] - 1.0)
    top_pop = rows[:, -2].real
    min_eig = rows[:, -1].real

    if np.max(top_pop) >= oracle.top_level_tol:
        raise OracleTruncationError(
            f"top Fock level reached population {np.max(top_pop):.2e} "
            f"(tolerance {oracle.top_level_tol:.0e}); raise n_max"
        )
    if np.max(trace_err) > TRACE_TOL:
        raise OracleInvariantError(f"trace drifted by {np.max(trace_err):.2e}")
    if np.min(min_eig) < -POSITIVITY_TOL:
        raise OracleInvariantError(f"negative eigenvalue {np.min(min_eig):.2e}")

    return OracleResult(
        times_ps=times,
        moments=moments,
        excited=excited,
        top_fock_pop=top_pop,
        trace_error=trace_err,
        min_eigenvalue=min_eig,
        n_molecules=ops.n_molecules,
        n_max=ops.n_max,
    )


@dataclass(frozen=True)
class ComparisonNorms:
    """A type, not a float: ``benchmarks/workloads.py`` reads ``.max_rel_error``."""

    max_rel_error: float


def compare_cumulant(
    result: OracleResult,
    trace: MomentTrace,
    observables: tuple[str, ...] = ("c_z", "c_n", "c_a"),
) -> dict[str, ComparisonNorms]:
    """Error norms of a cumulant trace against the exact moments.

    The trace must lie on the oracle's own output grid, as it does when both
    come from one ``SolverConfig``; the moments are compared sample by
    sample.  The relative norm divides the worst absolute deviation by the
    largest magnitude the exact observable reaches, so a quantity that stays
    near zero does not blow the ratio up.
    """
    if not np.array_equal(result.times_ps, trace.times_ps):
        raise ValueError("the cumulant trace is not on the oracle's output grid")
    out = {}
    for name in observables:
        if name not in MOMENT_NAMES:
            raise ValueError(f"unknown observable {name!r}")
        exact = result.moments[name]
        if np.all(np.isnan(exact)):
            raise ValueError(f"{name} is undefined for a single molecule")
        diff = np.max(np.abs(getattr(trace, name) - exact))
        scale = np.max(np.abs(exact))
        out[name] = ComparisonNorms(max_rel_error=float(diff / scale) if scale > 0 else 0.0)
    return out
