"""Exact Lindblad propagation for few-molecule sanity checks.

Density-matrix evolution of the same driven, lossy model the cumulant
solver approximates, restricted to ensembles small enough (at most
``MAX_CLASS_VALUES`` class values, below) that nothing needs truncating
except the Fock ladder.  Used to validate the moment equations, never for
production-size ensembles.

The molecules are identical and start in the same state, so rho(t)
commutes with every permutation of them: an entry depends only on its Fock
pair and on how many molecules are in each (ket, bra) spin state.  The
oracle steps one value per such class (``_Operators``), 1,280 against
rho's 4,096 entries at three molecules and n_max = 7.  Each term of the
master equation is a Fock superoperator times a sum over the molecules of
one 4 x 4 map on a molecule's (ket, bra) state, so the generator is built
on the class counts, with no operator on the full space, in the form Kirton
& Keeling (PRL 118, 123602, 2017) and Gegg & Richter (NJP 18, 043037, 2016)
integrate.  A phase per class makes it and the states real at resonance
(detuned, they stay complex).  RK45 steps them at a tenth of the
``SolverConfig`` tolerances: LSODA was only 7% faster on the benchmark's
nine solves, and would change the reference integrator.  Samples are reduced
as they are taken, a few steps at a time, to the moments (one contraction
each), the smallest eigenvalue (one block per total spin) and the other
diagnostics; the run stops at the first sample that fails a check.
"""

from __future__ import annotations

import itertools
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

# the class values C(N + 3, 3) (n_max + 1)^2 stepped, and the RK45 steps estimated before stepping
MAX_CLASS_VALUES = 8192
MAX_STEPS = 1e6

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


def _left(op: np.ndarray) -> np.ndarray:
    """X -> op X on the row-major vec(X)."""
    return np.kron(op, np.eye(len(op)))


def _right(op: np.ndarray) -> np.ndarray:
    """X -> X op on the row-major vec(X)."""
    return np.kron(np.eye(len(op)), op.T)


def _commutator(op: np.ndarray) -> np.ndarray:
    """X -> -i [op, X]."""
    return -1j * (_left(op) - _right(op))


def _dissipator(jump: np.ndarray) -> np.ndarray:
    """X -> L X L' - (L'L X + X L'L) / 2 for L = ``jump``."""
    decay = jump.conj().T @ jump
    return _left(jump) @ _right(jump.conj().T) - 0.5 * (_left(decay) + _right(decay))


class _Operators:
    """The permutation classes of rho's entries, and the generator, moment rows and spin blocks on them.

    Class value k nf^2 + f nf + f' is ``phase`` = i^(n_ud - n_du) times
    rho's entry at the Fock pair (f, f') and at every spin pair whose
    molecules' states b = 2 ket + bra (0 = up) have the counts ``counts[k]``
    = (n_uu, n_ud, n_du, n_dd), in descending lexicographic order, and
    ``transpose_class`` maps it to the class of the transposed entries, of
    conjugate phase.  ``columns[:, i] . x`` = tr(O_i rho) for the moments
    ``moment_names``, the excited population per molecule, the trace and the
    top Fock population; ``drift`` holds ``_drift``'s rate-free terms.

    On total spin j, rho acts as one block rho_j per copy of the spin-j
    multiplet, so its spectrum is the union of the blocks' spectra.
    ``sectors`` holds for each j, N/2 first, the (spin classes, 2j + 1,
    2j + 1) array C with sum_k kron(C_k, X_k) = D rho_j D', X_k the nf x nf
    Fock block of spin class k and D = diag(i^u), on the copy of N/2 - j
    singlet pairs times the Dicke states, u up in the ket, of the other 2j
    molecules (Chase & Geremia, PRA 78, 052101).
    """

    def __init__(self, n_molecules: int, n_max: int):
        def size(n: int) -> int:
            return math.comb(n + 3, 3) * (n_max + 1) ** 2

        if size(n_molecules) > MAX_CLASS_VALUES:
            largest = 0
            while size(largest + 1) <= MAX_CLASS_VALUES:
                largest += 1
            admits = f"N <= {largest}" if largest else "no N"
            raise ValueError(
                f"N = {n_molecules:g} at n_max = {n_max} exceeds the cap of {MAX_CLASS_VALUES} class values, "
                f"C(N + 3, 3) (n_max + 1)^2, which admits {admits} at n_max = {n_max}; lower N or n_max"
            )
        self.n_molecules = n_molecules
        self.n_max = n_max
        self.dim = (2 ** n_molecules) * (n_max + 1)

        n = n_molecules
        nf = n_max + 1
        counts = [c for c in itertools.product(range(n, -1, -1), repeat=4) if sum(c) == n]
        self._index = {count: k for k, count in enumerate(counts)}
        self.counts = np.array(counts)
        swapped = np.array([self._index[(uu, du, ud, dd)] for uu, ud, du, dd in self.counts])
        fock_transpose = np.arange(nf * nf).reshape(nf, nf).T.ravel()
        self.transpose_class = (swapped[:, None] * nf * nf + fock_transpose).ravel()
        # rho = Q rho* Q at resonance, Q = (-1)^(up spins): the phase makes rho's class values real
        self.phase = np.repeat(1j ** (self.counts[:, 1] - self.counts[:, 2]), nf * nf)

        a = np.diag(np.sqrt(np.arange(1, nf)), k=1)
        ad = a.T
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)

        spin_id = sparse.identity(len(self.counts), format="csr")
        fock_id = sparse.identity(nf * nf, format="csr")
        coupling = sum(
            sign * sparse.kron(self.lift(side(spin)), side(field))
            for side, sign in ((_left, -1j), (_right, 1j))
            for spin, field in ((sm, ad), (sm.T, a))
        )
        rotate = sparse.diags(self.phase)
        self.drift = tuple((rotate @ term @ rotate.conj()).tocsr() for term in (
            sparse.kron(spin_id, _commutator(ad @ a)),
            sparse.kron(spin_id, _dissipator(a)),
            sparse.kron(self.lift(_commutator(sz / 2)), fock_id),
            sparse.kron(self.lift(_dissipator(sz)), fock_id),
            sparse.kron(self.lift(_dissipator(sm)), fock_id),
            coupling,
        ))
        self.drive = sparse.kron(spin_id, _left(ad - a) - _right(ad - a), "csr")  # Fock only, so unrotated

        # tr(rho) = trace . x: rho's diagonal holds C(N, n_uu) spin pairs of
        # each class with n_ud = n_du = 0, each on the Fock diagonal
        diagonal = self.counts[:, 1] + self.counts[:, 2] == 0
        spin_trace = np.array([math.comb(n, uu) for uu in self.counts[:, 0]]) * diagonal

        def row(spin: sparse.spmatrix, field: np.ndarray) -> np.ndarray:
            """tr(O rho) on the class values, for O rho with unrotated class values kron(spin, _left(field)) x."""
            return self.phase.conj() * np.kron(spin.T @ spin_trace, np.eye(nf).ravel() @ _left(field))

        one = np.eye(nf)
        pauli = dict(zip("xyz", (sx, sy, sz)))
        collective = {p: self.lift(_left(op)) for p, op in pauli.items()}
        named = {"c_a": row(spin_id, a), "c_n": row(spin_id, ad @ a), "c_aa": row(spin_id, a @ a)}
        for p, total in collective.items():
            named[f"c_{p}"] = row(total / n, one)
            named[f"c_a{p}"] = row(total / n, a)
        if n >= 2:
            # distinct-molecule pairs: sum_{i != j} p_i q_j = S_p S_q - sum_j (p q)_j
            for p, q in ("xx", "yy", "zz", "xy", "xz", "yz"):
                pair = collective[p] @ collective[q] - self.lift(_left(pauli[p] @ pauli[q]))
                named[f"c_{p}{q}"] = row(pair / (n * (n - 1)), one)
        self.moment_names = tuple(named)
        excited = row(self.lift(_left(sm.T @ sm)) / n, one)
        top = row(spin_id, np.diag(np.arange(nf) == n_max))
        self.columns = np.stack([*named.values(), excited, row(spin_id, one), top], axis=1)

        # k singlet pairs, p of them in (uu, dd) with weight 1 and k - p in
        # (ud, du) with weight -1, leave the counts ``rest`` to the 2j = m
        # other molecules; Dicke states with u and v of them up (ket, bra)
        # hold m! / prod(rest!) arrangements, each of weight 1 / sqrt(C(m, u) C(m, v))
        self.sectors = []
        for k in range(n // 2 + 1):
            m = n - 2 * k
            sector = np.zeros((len(counts), m + 1, m + 1))
            for block, (uu, ud, du, dd) in zip(sector, counts):
                for p in range(k + 1):
                    rest = (uu - p, ud - k + p, du - k + p, dd - p)
                    if min(rest) >= 0:
                        u, v = rest[0] + rest[1], rest[0] + rest[2]
                        arrangements = math.factorial(m) // math.prod(map(math.factorial, rest))
                        weight = (-1) ** (k - p) * math.comb(k, p) * arrangements
                        block[u, v] += weight / math.sqrt(math.comb(m, u) * math.comb(m, v))
            self.sectors.append(sector)

    def lift(self, local: np.ndarray) -> sparse.csr_matrix:
        """Sum over the molecules of the 4 x 4 map ``local`` on b = 2 ket + bra, on the spin classes.

        (L x)_n = sum_b n_b sum_a L[b, a] x_{n - e_b + e_a}: each of the n_b
        molecules in state b takes its value from the class where it is in a.
        """
        unit = np.eye(4, dtype=int)
        rows, cols, values = [], [], []
        for b, a in zip(*np.nonzero(local)):
            held = np.flatnonzero(self.counts[:, b])
            rows.extend(held)
            cols.extend(self._index[tuple(c)] for c in self.counts[held] - unit[b] + unit[a])
            values.extend(self.counts[held, b] * local[b, a])
        size = len(self.counts)
        return sparse.csr_matrix((values, (rows, cols)), shape=(size, size))

    def ground_state(self, photons: int) -> np.ndarray:
        """The class values of |down...down, photons><down...down, photons|."""
        spin = np.arange(len(self.counts)) == self._index[(0, 0, 0, self.n_molecules)]
        fock = np.diag(np.arange(self.n_max + 1) == photons).ravel()
        return np.kron(spin, fock).astype(float)


_operators = lru_cache(maxsize=8)(_Operators)


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


def _drift(params: ModelParams, ops: _Operators) -> sparse.csr_matrix:
    """The undriven generator on the class values in 1/ps: each term of ``ops.drift`` times its rate.

    -i[a'a, rho], D[a], -i[S_z / 2, rho], sum_j D[sigma_z^j], sum_j D[sigma_-^j] and
    -i[a' S_- + a S_+, rho] take delta_c, kappa, delta_a, gamma_z, gamma_minus and g; real at resonance.
    """
    rates = (
        params.delta_c_mev, params.kappa_mev, params.delta_a_mev,
        effective_dephasing(params), params.gamma_minus_mev, params.g_mev,
    )
    drift = sum(rate / HBAR_MEV_PS * term for rate, term in zip(rates, ops.drift)).tocsr()
    return drift if drift.data.imag.any() else drift.real


def evolve_exact(
    params: ModelParams,
    pulse: PulseParams,
    config: SolverConfig,
    oracle: OracleConfig | None = None,
) -> OracleResult:
    """Propagate the exact master equation and report cumulant-style moments.

    Raises ValueError before stepping when RK45 would take more than
    ``MAX_STEPS`` steps (it is stable at steps up to about 3.3 / rate, with
    rate the generator's largest absolute row sum), OracleTruncationError at
    the first sample whose top Fock level holds more than
    ``oracle.top_level_tol`` (the ladder was too short) and
    OracleInvariantError at the first whose trace, Hermiticity or positivity
    drift beyond their tolerances.
    """
    if oracle is None:
        oracle = OracleConfig()
    n = int(round(params.n_molecules))
    if abs(params.n_molecules - n) > 1e-9 or n < 1:
        raise ValueError(f"exact propagation needs a positive integer molecule count, got {params.n_molecules}")
    ops = _operators(n, oracle.n_max)
    drift, drive = _drift(params, ops), ops.drive
    amp, t0, inv_sig = pulse_shape(pulse)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        arg = (t - t0) * inv_sig
        eta = amp * math.exp(-0.5 * arg * arg)
        out = drift @ y
        if eta != 0.0:
            out += eta * (drive @ y)
        return out

    x0 = ops.ground_state(oracle.initial_photons).astype(drift.dtype)
    times = output_grid(config)
    window = times[-1] - times[0]
    rate = abs(drift).sum(axis=1).max() + amp * abs(drive).sum(axis=1).max()
    if (steps := window * rate / 3.3) > MAX_STEPS:
        raise ValueError(
            f"the exact propagation would take about {steps:.1e} RK45 steps (limit {MAX_STEPS:.0e}): "
            f"the generator's rates reach {rate:.2e}/ps over {window:g} ps"
        )
    rel_tol, abs_tol = config.rel_tol / 10, config.abs_tol / 10
    sample = _sampler(ops)
    rows, stats = _segmented_solve(
        rhs, x0, times, pulse, rel_tol, abs_tol, RK45,
        reduce=lambda t, x: _checked(t, sample(t, x), oracle, rel_tol, abs_tol),
    )
    logger.info(
        "exact propagation: N = %d, n_max = %d, %d of %d components, %d steps, %d rhs calls",
        ops.n_molecules, ops.n_max, x0.size, ops.dim ** 2, stats.steps, stats.rhs_calls,
    )
    return _oracle_result(rows, times, ops)


def _sampler(ops: _Operators):
    """``reduce(t, states)``, which ``evolve_exact`` applies to its samples as they are taken.

    It turns the class values of rho at the times ``t`` into one row per
    sample, the quantities of ``ops.columns`` and then the smallest
    eigenvalue, and raises OracleInvariantError at the first sample whose
    Hermiticity is off by more than ``HERM_TOL``.
    """
    nf = ops.n_max + 1

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
        return np.column_stack((states @ ops.columns, min_eig))

    return reduce


def _checked(t, rows, oracle: OracleConfig, rel_tol: float, abs_tol: float) -> np.ndarray:
    """``_sampler``'s ``rows`` at the times ``t``, once each sample's diagnostics pass.

    Raises at the first sample whose top Fock population, trace or smallest
    eigenvalue is out of bounds; the positivity error quotes the
    propagation's own ``rel_tol`` and ``abs_tol``.
    """
    top_pop = rows[:, -2].real
    trace_err = np.abs(rows[:, -3] - 1.0)
    min_eig = rows[:, -1].real
    truncated = top_pop >= oracle.top_level_tol
    drifted = trace_err > TRACE_TOL
    bad = np.flatnonzero(truncated | drifted | (min_eig < -POSITIVITY_TOL))
    if bad.size == 0:
        return rows
    i = bad[0]
    at = f"at t = {t[i]:g} ps"
    if truncated[i]:
        raise OracleTruncationError(
            f"top Fock level reached population {top_pop[i]:.2e} {at} "
            f"(tolerance {oracle.top_level_tol:.0e}); raise n_max"
        )
    if drifted[i]:
        raise OracleInvariantError(f"trace drifted by {trace_err[i]:.2e} {at}")
    raise OracleInvariantError(
        f"negative eigenvalue {min_eig[i]:.2e} {at} (limit -{POSITIVITY_TOL:.0e}; RK45 ran at "
        f"rel_tol {rel_tol:.0e} and abs_tol {abs_tol:.0e}, a tenth of solver.rel_tol and "
        "solver.abs_tol, and tightening solver.rel_tol or solver.abs_tol lowers them)"
    )


def _oracle_result(rows, times, ops: _Operators) -> OracleResult:
    """The result held in ``_sampler``'s rows."""
    # pair moments stay NaN for one molecule
    moments = {name: np.full(times.size, np.nan, dtype=complex) for name in MOMENT_NAMES}
    moments.update(zip(ops.moment_names, rows[:, :-4].T))
    return OracleResult(
        times_ps=times,
        moments=moments,
        excited=rows[:, -4].real,
        top_fock_pop=rows[:, -2].real,
        trace_error=np.abs(rows[:, -3] - 1.0),
        min_eigenvalue=rows[:, -1].real,
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
