"""Exact master-equation oracle: invariants, limits and cumulant agreement."""

from __future__ import annotations

import itertools
import logging
import math
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp

from dickesim import cumulant, lindblad
from dickesim.cumulant import SolverConfig, integrate, output_grid
from dickesim.lindblad import (
    OracleConfig,
    OracleInvariantError,
    OracleTruncationError,
    _checked,
    _drift,
    _operators,
    _oracle_result,
    _sampler,
    compare_cumulant,
    evolve_exact,
)
from dickesim.model import (
    HBAR_MEV_PS,
    ModelParams,
    PulseParams,
    effective_dephasing,
    pulse_envelope,
)


def params_for(n: float, g_mev: float = 0.5, **detuning) -> ModelParams:
    # n_ref = N keeps the dephasing at its quoted value for any N
    return ModelParams(
        n_molecules=n, g_mev=g_mev, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=1.68, n_ref=n, gamma_minus_mev=0.0141, **detuning,
    )


WINDOW = SolverConfig(t_start_ps=-0.2, t_end_ps=1.0, output_dt_ps=0.005)

# both detunings on the scale of kappa, opposite in sign
GENERATOR_CASES = [
    *(pytest.param(n, {}, id=str(n)) for n in (1, 2, 3)),
    *(
        pytest.param(n, {"delta_a_mev": 3.0, "delta_c_mev": -2.0}, id=f"{n}-detuned")
        for n in (1, 2, 3)
    ),
]


class FullSpace:
    """Dense operators on the joint spin-field space, field factor last: the oracle's reference.

    Entry (r, c) of rho, with r = (spin s, Fock f) and c = (s', f'), falls in
    class k nf^2 + f nf + f', where spin class k is the orbit of (s, s')
    under the permutations of the molecules: the multiset of the molecules'
    (ket, bra) states 2 ket + bra, numbered in ``np.unique`` order.
    ``representatives`` holds one entry per class.  The oracle steps the
    class values times ``phase`` = i^(n_ud - n_du), the numbers of molecules
    in the states 1 and 2, and ``indicator`` is the matrix W with vec(rho) =
    W x for a symmetric rho of such rotated class values x.
    """

    def __init__(self, n_molecules: int, n_max: int):
        self.n_molecules = n_molecules
        self.n_max = n_max
        nf = n_max + 1
        n_spin = 2 ** n_molecules
        self.dim = dim = n_spin * nf
        a_f = np.diag(np.sqrt(np.arange(1, nf)), k=1).astype(complex)
        id_s = np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)

        def embed_spin(op: np.ndarray, j: int) -> np.ndarray:
            factors = [id_s] * n_molecules
            factors[j] = op
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return np.kron(out, np.eye(nf))

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

        bits = (np.arange(n_spin)[:, None] >> np.arange(n_molecules)[::-1]) & 1
        kinds = np.sort(2 * bits[:, None, :] + bits[None, :, :], axis=2)
        _, spin_class = np.unique(kinds.reshape(-1, n_molecules), axis=0, return_inverse=True)
        spin_class = spin_class.reshape(n_spin, n_spin)
        fock = np.arange(nf)
        classes = (
            spin_class[:, None, :, None] * nf * nf + fock[None, :, None, None] * nf + fock
        ).ravel()
        _, self.representatives = np.unique(classes, return_index=True)
        turns = np.sum(kinds == 1, axis=2) - np.sum(kinds == 2, axis=2)
        turns = np.broadcast_to(turns[:, None, :, None], (n_spin, nf, n_spin, nf)).ravel()
        self.phase = np.array([1, 1j, -1, -1j])[turns[self.representatives] % 4]
        self.indicator = sparse.csr_matrix(
            (self.phase.conj()[classes], (np.arange(dim * dim), classes)),
            shape=(dim * dim, (spin_class.max() + 1) * nf * nf),
        )

    def hamiltonian_and_jumps(self, params: ModelParams) -> tuple[np.ndarray, list]:
        """Undriven Hamiltonian H0 in 1/ps and the (rate, L) jumps with nonzero rate."""
        gz = effective_dephasing(params) / HBAR_MEV_PS
        gm = params.gamma_minus_mev / HBAR_MEV_PS
        kap = params.kappa_mev / HBAR_MEV_PS
        dc = params.delta_c_mev / HBAR_MEV_PS
        da = params.delta_a_mev / HBAR_MEV_PS
        g = params.g_mev / HBAR_MEV_PS
        h0 = dc * self.n_op
        collapse = [(kap, self.a)]
        for j in range(self.n_molecules):
            h0 = h0 + 0.5 * da * self.sz[j] + g * (self.ad @ self.sm[j] + self.a @ self.sp[j])
            collapse += [(gz, self.sz[j]), (gm, self.sm[j])]
        return h0, [(rate, op) for rate, op in collapse if rate > 0]

    def superoperators(self, params: ModelParams):
        """CSR (drift, drive) on the row-major vec(rho).

        With K = -iH - (1/2) sum rate L'L the master equation reads
        drho/dt = K rho + rho K' + sum rate L rho L' + eta [V, rho], and
        vec(A rho B) = kron(A, B^T) vec(rho) turns each term into one kron.
        """
        h0, collapse = self.hamiltonian_and_jumps(params)
        v = self.ad - self.a
        ident = sparse.identity(self.dim, dtype=complex, format="csr")
        k_eff = -1j * h0
        for rate, op in collapse:
            k_eff = k_eff - 0.5 * rate * (op.conj().T @ op)
        drift = sparse.kron(k_eff, ident) + sparse.kron(ident, k_eff.conj())
        for rate, op in collapse:
            drift = drift + rate * sparse.kron(op, op.conj())
        drive = sparse.kron(v, ident) - sparse.kron(ident, v.T)
        return drift.tocsr(), drive.tocsr()

    def restrict(self, superop: sparse.csr_matrix) -> sparse.csr_matrix:
        """``superop`` on the rotated class values, phase (superop W)[representatives].

        Exact when ``superop`` commutes with the permutations of the molecules.
        """
        return (sparse.diags(self.phase) @ superop[self.representatives] @ self.indicator).tocsr()

    def ground_state(self, photons: int) -> np.ndarray:
        """|down...down> tensor |photons>, as a density matrix."""
        vec = np.zeros(self.dim, dtype=complex)
        # all-down is the last spin basis vector with sz = diag(1, -1)
        vec[self.dim - (self.n_max + 1) + photons] = 1.0
        return np.outer(vec, vec.conj())

    def moment_operators(self) -> dict:
        """Operator O_m for every moment the oracle reports, so that moment m = tr(O_m rho)."""
        n = self.n_molecules
        sx, sy, sz = (sum(s) / n for s in (self.sx, self.sy, self.sz))
        named = {
            "c_a": self.a, "c_x": sx, "c_y": sy, "c_z": sz, "c_n": self.n_op,
            "c_aa": self.a @ self.a, "c_ax": self.a @ sx, "c_ay": self.a @ sy, "c_az": self.a @ sz,
        }
        if n >= 2:
            # symmetrised distinct-molecule pair operators, averaged over pairs
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for name, left, right in (
                ("c_xx", self.sx, self.sx), ("c_yy", self.sy, self.sy), ("c_zz", self.sz, self.sz),
                ("c_xy", self.sx, self.sy), ("c_xz", self.sx, self.sz), ("c_yz", self.sy, self.sz),
            ):
                named[name] = sum(left[i] @ right[j] for i, j in pairs) / len(pairs)
        return named


@lru_cache(maxsize=8)
def full_space(n_molecules: int, n_max: int) -> FullSpace:
    return FullSpace(n_molecules, n_max)


def test_operator_algebra():
    full = full_space(2, 4)
    dim = (2 ** 2) * 5
    comm = full.a @ full.ad - full.ad @ full.a
    # [a, a+] = 1 holds away from the truncation corner
    off_top = np.eye(dim) - full.top_proj
    assert np.max(np.abs(off_top @ (comm - np.eye(dim)) @ off_top)) < 1e-12
    for j in range(2):
        sz = full.sz[j]
        sp, sm = full.sp[j], full.sm[j]
        assert np.max(np.abs((sp @ sm - sm @ sp) - sz)) < 1e-12
        assert np.max(np.abs(sz @ sz - np.eye(dim))) < 1e-12
    # different molecules commute
    assert np.max(np.abs(full.sx[0] @ full.sy[1] - full.sy[1] @ full.sx[0])) < 1e-12


def test_ground_state_moments():
    full, ops = full_space(2, 4), _operators(2, 4)
    rho = full.ground_state(0)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert abs(np.trace(full.n_op @ rho)) < 1e-14
    for j in range(2):
        assert np.trace(full.sz[j] @ rho) == pytest.approx(-1.0, abs=1e-14)
    # the oracle starts from the reference's class values, and its rows read them
    for photons in (0, 3):
        x = ops.ground_state(photons)
        np.testing.assert_array_equal(x, class_values(full, full.ground_state(photons))[0])
        values = dict(zip(ops.moment_names, x @ ops.columns))
        assert values["c_z"] == pytest.approx(-1.0, abs=1e-14)
        assert values["c_zz"] == pytest.approx(1.0, abs=1e-14)
        assert values["c_n"] == pytest.approx(photons, abs=1e-14)
        assert values["c_x"] == values["c_a"] == 0.0
        # excited population, trace and top Fock population
        np.testing.assert_allclose(x @ ops.columns[:, -3:], [0.0, 1.0, 0.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_reports_the_cumulant_moment_layout(n):
    assert lindblad.MOMENT_NAMES is cumulant.MOMENT_NAMES
    names = set(_operators(n, 2).moment_names)
    assert names <= set(cumulant.MOMENT_NAMES)
    if n >= 2:
        assert names == set(cumulant.MOMENT_NAMES)


def test_molecule_count_must_be_small_integer():
    pulse = PulseParams(amplitude=0.05, sigma_ps=0.020)
    with pytest.raises(ValueError, match="integer molecule count"):
        evolve_exact(params_for(2.5), pulse, WINDOW)
    # four molecules are accepted: only the class values stepped are capped
    assert evolve_exact(params_for(4.0), pulse, WINDOW, OracleConfig(n_max=3)).n_molecules == 4


def test_undriven_ground_state_stays_put():
    result = evolve_exact(params_for(1.0), PulseParams(amplitude=0.0), WINDOW)
    assert np.max(np.abs(result.moments["c_z"] + 1.0)) < 1e-9
    assert np.max(np.abs(result.moments["c_n"])) < 1e-9
    assert np.max(result.trace_error) < 1e-9
    assert np.min(result.min_eigenvalue) > -1e-8


def test_weak_drive_agrees_with_cumulant_closure():
    params = params_for(2.0)
    pulse = PulseParams(amplitude=0.1, center_ps=0.0, sigma_ps=0.020)
    exact = evolve_exact(params, pulse, WINDOW)
    trace = integrate(params, pulse, WINDOW)
    norms = compare_cumulant(exact, trace)
    assert norms["c_z"].max_rel_error < 0.02
    assert norms["c_n"].max_rel_error < 0.02


def test_truncation_guard_fires_for_strong_drive():
    params = params_for(1.0)
    pulse = PulseParams(amplitude=3.0, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.2, t_end_ps=0.3, output_dt_ps=0.005)
    with pytest.raises(OracleTruncationError) as caught:
        evolve_exact(params, pulse, config, OracleConfig(n_max=3))
    # it stops at the first sample past the tolerance, during the pulse
    at = float(re.search(r"at t = (\S+) ps", str(caught.value)).group(1))
    assert -0.1 < at < 0.1


def test_initial_photons_prime_the_cavity():
    params = params_for(1.0, g_mev=0.0)
    result = evolve_exact(
        params, PulseParams(amplitude=0.0), WINDOW, OracleConfig(n_max=4, initial_photons=2)
    )
    n0 = np.real(result.moments["c_n"][0])
    assert n0 == pytest.approx(2.0, abs=1e-9)
    # photons then leak at rate kappa/hbar
    t = result.times_ps - result.times_ps[0]
    expected = 2.0 * np.exp(-params.kappa_mev / HBAR_MEV_PS * t)
    assert np.max(np.abs(np.real(result.moments["c_n"]) - expected)) < 1e-6


def test_pair_moments_reported_for_two_molecules():
    params = params_for(2.0)
    pulse = PulseParams(amplitude=0.1, sigma_ps=0.020)
    result = evolve_exact(params, pulse, WINDOW)
    for name in ("c_xx", "c_zz", "c_xy"):
        assert name in result.moments
        assert np.all(np.isfinite(np.real(result.moments[name])))
    single = evolve_exact(params_for(1.0), pulse, WINDOW)
    assert np.all(np.isnan(np.real(single.moments["c_xx"])))


def test_oracle_is_deterministic():
    params = params_for(1.0)
    pulse = PulseParams(amplitude=0.1, sigma_ps=0.020)
    a = evolve_exact(params, pulse, WINDOW)
    b = evolve_exact(params, pulse, WINDOW)
    assert np.array_equal(a.moments["c_z"], b.moments["c_z"])


def symmetrise(full: FullSpace, rho: np.ndarray) -> np.ndarray:
    """The average of the matrices ``rho`` (..., dim, dim) over the N! permutations of the molecules."""
    n, nf = full.n_molecules, full.n_max + 1
    place = 1 << np.arange(n)[::-1]  # molecule 0 is the leading spin factor
    bits = (np.arange(2 ** n)[:, None] & place) > 0
    out = np.zeros_like(rho)
    for perm in itertools.permutations(range(n)):
        spins = bits[:, perm] @ place
        order = (spins[:, None] * nf + np.arange(nf)).ravel()
        out += rho[..., order, :][..., :, order]
    return out / math.factorial(n)


def random_states(full: FullSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random permutation-symmetric density matrices, (count, dim, dim)."""
    dim = full.dim
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = symmetrise(full, g @ g.conj().transpose(0, 2, 1))
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def class_values(full: FullSpace, rho: np.ndarray) -> np.ndarray:
    """The rotated class values x of permutation-symmetric matrices, one row per matrix."""
    return rho.reshape(-1, full.dim * full.dim)[:, full.representatives] * full.phase


@pytest.mark.parametrize("n, detuning", GENERATOR_CASES)
def test_sparse_generator_matches_dense_master_equation(n, detuning):
    full = full_space(n, 7 if n == 3 else 4)
    params = params_for(float(n), g_mev=20.0, **detuning)
    h0, collapse = full.hamiltonian_and_jumps(params)
    v = full.ad - full.a
    drift, drive = full.superoperators(params)
    rng = np.random.default_rng(n)
    g = rng.normal(size=(full.dim, full.dim)) + 1j * rng.normal(size=(full.dim, full.dim))
    rho = 0.5 * (g + g.conj().T)
    eta = 3.7
    # dense reference: K rho + rho K' + sum rate L rho L' + eta [V, rho]
    k_eff = -1j * h0 - 0.5 * sum(rate * (op.conj().T @ op) for rate, op in collapse)
    dense = k_eff @ rho + rho @ k_eff.conj().T + eta * (v @ rho - rho @ v)
    for rate, op in collapse:
        dense += rate * (op @ rho @ op.conj().T)
    sparse_out = (drift @ rho.ravel() + eta * (drive @ rho.ravel())).reshape(full.dim, full.dim)
    assert np.max(np.abs(sparse_out - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n, detuning", GENERATOR_CASES)
def test_symmetric_generator_matches_full_superoperators(n, detuning):
    n_max = 7 if n == 3 else 4
    ops, full = _operators(n, n_max), full_space(n, n_max)
    params = params_for(float(n), g_mev=20.0, **detuning)
    drift, drive = full.superoperators(params)
    # the generator built on the class counts is the full space's restricted to the classes
    pairs = ((_drift(params, ops), full.restrict(drift)), (ops.drive, full.restrict(drive)))
    for lifted, reference in pairs:
        assert abs(lifted - reference).max() <= 1e-12 * abs(reference).max()
    rng = np.random.default_rng(20 + n)
    g = rng.normal(size=(full.dim, full.dim)) + 1j * rng.normal(size=(full.dim, full.dim))
    rho = symmetrise(full, 0.5 * (g + g.conj().T))
    x = class_values(full, rho)[0]
    assert x.size == math.comb(n + 3, 3) * (n_max + 1) ** 2
    # the average sums each class's members in its own order
    np.testing.assert_allclose(full.indicator @ x, rho.ravel(), rtol=0, atol=1e-15)
    # and the restriction is exact, since the symmetric subspace is invariant
    eta = 3.7
    out = drift @ rho.ravel() + eta * (drive @ rho.ravel())
    reduced = _drift(params, ops) @ x + eta * (ops.drive @ x)
    assert np.max(np.abs(full.indicator @ reduced - out)) <= 1e-12 * np.max(np.abs(out))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    rates=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
    detunings=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, rates=[5e-324, 0.0, 0.0, 0.0], detunings=[0.0, 0.0], seed=0)
def test_generator_keeps_the_trace_and_hermiticity(n, rates, detunings, seed):
    g, kappa, gamma0z, gamma_minus = rates
    delta_a, delta_c = detunings
    params = ModelParams(
        n_molecules=n, g_mev=g, kappa_mev=kappa, gamma0z_mev=gamma0z, n_ref=n,
        gamma_minus_mev=gamma_minus, delta_a_mev=delta_a, delta_c_mev=delta_c,
    )
    ops = _operators(n, 3)
    trace = ops.columns[:, -2]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=trace.size) + 1j * rng.normal(size=trace.size)
    # rho' has the class values conj(x[transpose_class]), and L(rho') = L(rho)'
    adjoint = x[ops.transpose_class].conj()
    # a relative rounding bound cannot hold below the smallest normal double
    tiny = np.finfo(float).tiny
    for generator in (_drift(params, ops), ops.drive):
        scale = abs(generator).max() * np.max(trace)
        assert np.max(np.abs(generator.T @ trace)) <= 1e-12 * scale + tiny
        out = generator @ x
        hermitian = out[ops.transpose_class].conj() - generator @ adjoint
        assert np.max(np.abs(hermitian)) <= 1e-12 * np.max(np.abs(out)) + tiny


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sector_blocks_give_the_smallest_eigenvalue(n):
    n_max = {3: 7, 4: 2, 5: 1}.get(n, 4)
    ops, full = _operators(n, n_max), full_space(n, n_max)
    rng = np.random.default_rng(30 + n)
    g = rng.normal(size=(full.dim, full.dim)) + 1j * rng.normal(size=(full.dim, full.dim))
    hermitian = symmetrise(full, g + g.conj().T)
    hermitian /= np.linalg.norm(hermitian)
    # a density matrix, a Hermitian matrix with negative eigenvalues, and for
    # each total spin one whose negative eigenvalues lie in that spin's block
    spin_squared = sum((sum(s) / 2) @ (sum(s) / 2) for s in (full.sx, full.sy, full.sz))
    values, vectors = np.linalg.eigh(spin_squared)
    projectors = [
        vectors[:, block] @ vectors[:, block].conj().T
        for block in (np.isclose(values, v) for v in np.unique(values.round(6)))
    ]
    assert len(projectors) == len(ops.sectors)
    rhos = np.stack([
        random_states(full, 1, rng)[0], hermitian,
        *(np.eye(full.dim) - p + p @ hermitian @ p for p in projectors),
    ])
    reference = np.linalg.eigvalsh(rhos).min(axis=1)
    assert reference[0] > 0 > reference[1:].max()
    rows = _sampler(ops)(np.zeros(len(rhos)), class_values(full, rhos))
    np.testing.assert_allclose(rows[:, -1].real, reference, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_moments_match_per_sample_traces(n):
    n_max = 7 if n == 3 else 4
    ops, full = _operators(n, n_max), full_space(n, n_max)
    count = 70
    rhos = random_states(full, count, np.random.default_rng(10 + n))
    # handed over in steps of uneven length, as the stepping loop does
    times = np.arange(count) * 0.01
    result = reduce_in_steps(
        class_values(full, rhos), times, ops, OracleConfig(top_level_tol=2.0), (1, 5, 32)
    )
    expected = full.moment_operators()
    if n == 1:
        assert np.all(np.isnan(result.moments["c_xx"]))
    for name, op in expected.items():
        reference = np.array([np.trace(op @ rho) for rho in rhos])
        np.testing.assert_allclose(result.moments[name], reference, rtol=0, atol=1e-13)
    excited = sum(sp @ sm for sp, sm in zip(full.sp, full.sm)) / n
    np.testing.assert_allclose(
        result.excited, [np.real(np.trace(excited @ r)) for r in rhos], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        result.top_fock_pop, [np.real(np.trace(full.top_proj @ r)) for r in rhos], atol=1e-15
    )
    np.testing.assert_allclose(
        result.min_eigenvalue, [np.linalg.eigvalsh(r).min() for r in rhos], atol=1e-13
    )
    assert np.max(result.trace_error) < 1e-13


def reduce_in_steps(data, times, ops, oracle, cuts=()):
    """``evolve_exact``'s checked reduction of the sampled class values ``data``, cut into steps at ``cuts``.

    The checks run at the default ``SolverConfig``'s RK45 tolerances, rel 1e-9 and abs 1e-11.
    """
    sample = _sampler(ops)
    edges = (0, *cuts, len(times))
    rows = np.concatenate([
        _checked(times[a:b], sample(times[a:b], data[a:b]), oracle, 1e-9, 1e-11)
        for a, b in zip(edges[:-1], edges[1:])
    ])
    return _oracle_result(rows, times, ops)


def test_propagation_keeps_no_density_matrix_history():
    # 2,001 samples of the 1,280 class values are 41 MB; reduced as they
    # are taken, a few steps' samples are held at once (the longest step
    # covers 114), and one propagation peaks near 15 MB
    params = params_for(3, g_mev=HBAR_MEV_PS / 0.120 / math.sqrt(3))
    pulse = PulseParams(amplitude=0.1, center_ps=0.0, sigma_ps=0.020)
    tracemalloc.start()
    try:
        result = evolve_exact(params, pulse, SolverConfig(), OracleConfig(n_max=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.times_ps.size == 2001
    assert peak < 25e6, peak


def test_symmetric_propagation_matches_the_full_space():
    # g sqrt(N) = 10 kappa over the pulse and the first Rabi cycles; the drive
    # is strong enough that <a'a> peaks at 0.06, so the bound on it sits above
    # both solvers' tolerances (at amplitude 0.1 it peaks at 6e-4, and the
    # oracle's rtol of 1e-9 on rho alone is 5e-7 of that)
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.1, t_end_ps=0.15, output_dt_ps=0.005)
    times = output_grid(config)
    for n, n_max in ((3, 7), (4, 6)):
        params = params_for(float(n), g_mev=10.0 * HBAR_MEV_PS / 0.120 / math.sqrt(n))
        full = full_space(n, n_max)
        result = evolve_exact(params, pulse, config, OracleConfig(n_max=n_max))

        drift, drive = full.superoperators(params)
        reference_run = solve_ivp(
            lambda t, y: drift @ y + pulse_envelope(pulse, t) * (drive @ y),
            (times[0], times[-1]), full.ground_state(0).ravel(), method="RK45", t_eval=times,
            rtol=1e-10, atol=1e-12, max_step=0.25 * pulse.sigma_ps,
        )
        assert reference_run.success
        operators = full.moment_operators()
        for name in ("c_z", "c_n", "c_a"):
            reference = operators[name].T.ravel() @ reference_run.y
            error = np.max(np.abs(result.moments[name] - reference))
            assert error <= 1e-7 * np.max(np.abs(reference)), (n, name)


def test_tolerances_are_a_tenth_of_the_solver_config(monkeypatch, caplog):
    seen = []
    solve = lindblad._segmented_solve

    def recording(rhs, y0, times, pulse, rel_tol, abs_tol, *args, **kwargs):
        seen.append((rel_tol, abs_tol))
        return solve(rhs, y0, times, pulse, rel_tol, abs_tol, *args, **kwargs)

    monkeypatch.setattr(lindblad, "_segmented_solve", recording)
    config = SolverConfig(t_start_ps=-0.1, t_end_ps=0.2, rel_tol=1e-6, abs_tol=1e-9)
    with caplog.at_level(logging.INFO, logger="dickesim.lindblad"):
        evolve_exact(params_for(2.0), PulseParams(amplitude=0.1, sigma_ps=0.020), config)
    assert seen == [(1e-7, 1e-10)]
    (record,) = caplog.records
    assert record.name == "dickesim.lindblad" and record.levelname == "INFO"
    match = re.fullmatch(
        r"exact propagation: N = 2, n_max = 8, 810 of 1296 components, "
        r"(\d+) steps, (\d+) rhs calls",
        record.getMessage(),
    )
    assert match, record.getMessage()
    steps, rhs_calls = map(int, match.groups())
    # RK45 takes six evaluations per step, and one more to start each segment
    assert 0 < steps and 6 * steps <= rhs_calls


@pytest.mark.parametrize("detuning, dtype", [({}, np.float64), ({"delta_c_mev": 0.3}, np.complex128)])
def test_a_resonant_run_steps_real_values(monkeypatch, detuning, dtype):
    params = params_for(2.0, **detuning)
    assert _drift(params, _operators(2, 8)).dtype == dtype
    seen = set()
    solve = lindblad._segmented_solve

    def recording(rhs, y0, times, pulse, rel_tol, abs_tol, stepper, reduce, **kwargs):
        def reduce_seen(t, states):
            seen.add(states.dtype)
            return reduce(t, states)

        seen.update((y0.dtype, rhs(times[0], y0).dtype))
        return solve(rhs, y0, times, pulse, rel_tol, abs_tol, stepper, reduce_seen, **kwargs)

    monkeypatch.setattr(lindblad, "_segmented_solve", recording)
    evolve_exact(params, PulseParams(amplitude=0.1, sigma_ps=0.020), WINDOW)
    assert seen == {np.dtype(dtype)}


def test_real_stepping_matches_the_complex_rotated_generator(monkeypatch):
    # the same rotated generator, stepped on complex values: |phase| = 1 leaves
    # RK45's error weights, and so its steps, as they are
    params = params_for(2.0)
    pulse = PulseParams(amplitude=0.1, center_ps=0.0, sigma_ps=0.020)
    real = evolve_exact(params, pulse, WINDOW)
    drift = lindblad._drift
    monkeypatch.setattr(lindblad, "_drift", lambda *args: drift(*args).astype(complex))
    stepped_complex = evolve_exact(params, pulse, WINDOW)
    for name, reference in stepped_complex.moments.items():
        np.testing.assert_allclose(
            real.moments[name], reference, rtol=0, atol=1e-12 * np.max(np.abs(reference))
        )
    np.testing.assert_allclose(real.min_eigenvalue, stepped_complex.min_eigenvalue, rtol=0, atol=1e-15)


def test_hermiticity_guard_names_the_sample():
    ops, full = _operators(2, 4), full_space(2, 4)
    times = np.arange(40) * 0.5
    rhos = random_states(full, times.size, np.random.default_rng(3))
    rhos[35, 0, 1] += 1e-6  # rho[0, 1] without its conjugate partner
    assert np.max(np.abs(rhos[35] - rhos[35].conj().T)) == pytest.approx(1e-6, rel=1e-9)
    data = class_values(full, rhos)
    with pytest.raises(OracleInvariantError, match=r"Hermiticity violated by 1\.00e-06 at t = 17\.5 ps"):
        reduce_in_steps(data, times, ops, OracleConfig(top_level_tol=2.0), (32,))


def test_positivity_guard_fires_on_negative_eigenvalue():
    ops, full = _operators(2, 3), full_space(2, 3)
    rho = np.zeros((full.dim, full.dim), dtype=complex)
    # unit trace, nothing in the top Fock level: both molecules up with no
    # photon, and both down with one
    rho[0, 0], rho[-3, -3] = 1.1, -0.1
    assert np.linalg.eigvalsh(rho).min() == pytest.approx(-0.1)
    data = np.tile(class_values(full, rho), (3, 1))
    # the message quotes the limit and the tolerances the state was propagated at
    with pytest.raises(
        OracleInvariantError,
        match=re.escape(
            "negative eigenvalue -1.00e-01 at t = 0 ps (limit -1e-08; RK45 ran at rel_tol 1e-09 "
            "and abs_tol 1e-11, a tenth of solver.rel_tol and solver.abs_tol, and tightening "
            "solver.rel_tol or solver.abs_tol lowers them)"
        ),
    ):
        reduce_in_steps(data, np.arange(3.0), ops, OracleConfig())


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("top", OracleTruncationError, r"top Fock level reached population 1\.00e-03 at t = 17\.5 ps"),
        ("trace", OracleInvariantError, r"trace drifted by 1\.00e-06 at t = 17\.5 ps"),
        ("negative", OracleInvariantError, r"negative eigenvalue -1\.00e-03 at t = 17\.5 ps"),
    ],
)
def test_guards_fail_at_the_first_bad_sample(fault, error, message):
    ops, full = _operators(2, 3), full_space(2, 3)
    times = np.arange(40) * 0.5
    ground = full.ground_state(0)
    rhos = np.tile(ground, (times.size, 1, 1))
    # spoiled at samples 35 and 38, ten times as much at the later one
    for i, size in ((35, 1e-3), (38, 1e-2)):
        if fault == "top":
            rhos[i] = (1 - size) * ground + size * full.ground_state(full.n_max)
        elif fault == "trace":
            rhos[i] = (1 + size / 1e3) * ground
        else:
            rhos[i] = (1 + size) * ground - size * full.ground_state(1)
    with pytest.raises(error, match=message):
        reduce_in_steps(class_values(full, rhos), times, ops, OracleConfig(), (32,))
