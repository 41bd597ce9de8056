"""Exact master-equation oracle: invariants, limits and cumulant agreement."""

from __future__ import annotations

import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dickesim import cumulant, lindblad
from dickesim.cumulant import SolverConfig, integrate, output_grid
from dickesim.lindblad import (
    MAX_MOLECULES,
    OracleConfig,
    OracleInvariantError,
    OracleTruncationError,
    _hamiltonian_and_jumps,
    _moment_operators,
    _operators,
    _oracle_result,
    _sampler,
    _superoperators,
    compare_cumulant,
    evolve_exact,
)
from dickesim.model import HBAR_MEV_PS, ModelParams, PulseParams, pulse_envelope


def params_for(n: float, g_mev: float = 0.5) -> ModelParams:
    # n_ref = N keeps the dephasing at its quoted value for any N
    return ModelParams(
        n_molecules=n, g_mev=g_mev, kappa_mev=HBAR_MEV_PS / 0.120,
        gamma0z_mev=1.68, n_ref=n, gamma_minus_mev=0.0141,
    )


WINDOW = SolverConfig(t_start_ps=-0.2, t_end_ps=1.0, output_dt_ps=0.005)


def test_operator_algebra():
    ops = _operators(2, 4)
    dim = (2 ** 2) * 5
    comm = ops.a @ ops.ad - ops.ad @ ops.a
    # [a, a+] = 1 holds away from the truncation corner
    top = ops.top_proj
    off_top = np.eye(dim) - top
    assert np.max(np.abs(off_top @ (comm - np.eye(dim)) @ off_top)) < 1e-12
    for j in range(2):
        sz = ops.sz[j]
        sp, sm = ops.sp[j], ops.sm[j]
        assert np.max(np.abs((sp @ sm - sm @ sp) - sz)) < 1e-12
        assert np.max(np.abs(sz @ sz - np.eye(dim))) < 1e-12
    # different molecules commute
    assert np.max(np.abs(ops.sx[0] @ ops.sy[1] - ops.sy[1] @ ops.sx[0])) < 1e-12


def test_ground_state_moments():
    ops = _operators(2, 4)
    rho = ops.ground_state(0)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert abs(np.trace(ops.n_op @ rho)) < 1e-14
    for j in range(2):
        assert np.trace(ops.sz[j] @ rho) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_reports_the_cumulant_moment_layout(n):
    assert lindblad.MOMENT_NAMES is cumulant.MOMENT_NAMES
    names = set(_moment_operators(_operators(n, 2)))
    assert names <= set(cumulant.MOMENT_NAMES)
    if n >= 2:
        assert names == set(cumulant.MOMENT_NAMES)


def test_molecule_count_must_be_small_integer():
    pulse = PulseParams(amplitude=0.05, sigma_ps=0.020)
    with pytest.raises(ValueError, match="integer molecule count"):
        evolve_exact(params_for(2.5), pulse, WINDOW)
    with pytest.raises(ValueError, match="integer molecule count"):
        evolve_exact(params_for(float(MAX_MOLECULES + 1)), pulse, WINDOW)


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
    with pytest.raises(OracleTruncationError):
        evolve_exact(params, pulse, config, OracleConfig(n_max=3))


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


def symmetrise(ops, rho: np.ndarray) -> np.ndarray:
    """The average of the matrices ``rho`` (..., dim, dim) over the N! permutations of the molecules."""
    n, nf = ops.n_molecules, ops.n_max + 1
    place = 1 << np.arange(n)[::-1]  # molecule 0 is the leading spin factor
    bits = (np.arange(2 ** n)[:, None] & place) > 0
    out = np.zeros_like(rho)
    for perm in itertools.permutations(range(n)):
        spins = bits[:, perm] @ place
        order = (spins[:, None] * nf + np.arange(nf)).ravel()
        out += rho[..., order, :][..., :, order]
    return out / math.factorial(n)


def random_states(ops, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random permutation-symmetric density matrices, (count, dim, dim)."""
    dim = ops.dim
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = symmetrise(ops, g @ g.conj().transpose(0, 2, 1))
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def class_values(ops, rho: np.ndarray) -> np.ndarray:
    """The class values x of permutation-symmetric matrices, one row per matrix."""
    return rho.reshape(-1, ops.dim * ops.dim)[:, ops.representatives]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_generator_matches_dense_master_equation(n):
    n_max = 7 if n == 3 else 4
    ops = _operators(n, n_max)
    params = params_for(float(n), g_mev=20.0)
    h0, collapse = _hamiltonian_and_jumps(params, ops)
    v = ops.ad - ops.a
    drift, drive = _superoperators(h0, collapse, v)
    rng = np.random.default_rng(n)
    g = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
    rho = 0.5 * (g + g.conj().T)
    eta = 3.7
    # dense reference: K rho + rho K' + sum rate L rho L' + eta [V, rho]
    k_eff = -1j * h0 - 0.5 * sum(rate * (op.conj().T @ op) for rate, op in collapse)
    dense = k_eff @ rho + rho @ k_eff.conj().T + eta * (v @ rho - rho @ v)
    for rate, op in collapse:
        dense += rate * (op @ rho @ op.conj().T)
    sparse_out = (drift @ rho.ravel() + eta * (drive @ rho.ravel())).reshape(ops.dim, ops.dim)
    assert np.max(np.abs(sparse_out - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_generator_matches_full_superoperators(n):
    n_max = 7 if n == 3 else 4
    ops = _operators(n, n_max)
    h0, collapse = _hamiltonian_and_jumps(params_for(float(n), g_mev=20.0), ops)
    drift, drive = _superoperators(h0, collapse, ops.ad - ops.a)
    rng = np.random.default_rng(20 + n)
    g = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
    rho = symmetrise(ops, 0.5 * (g + g.conj().T))
    x = class_values(ops, rho)[0]
    assert x.size == math.comb(n + 3, 3) * (n_max + 1) ** 2
    # the average sums each class's members in its own order
    np.testing.assert_allclose(ops.indicator @ x, rho.ravel(), rtol=0, atol=1e-15)
    eta = 3.7
    full = drift @ rho.ravel() + eta * (drive @ rho.ravel())
    reduced = ops.symmetric(drift) @ x + eta * (ops.symmetric(drive) @ x)
    assert np.max(np.abs(ops.indicator @ reduced - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sector_blocks_give_the_smallest_eigenvalue(n):
    ops = _operators(n, 7 if n == 3 else 4)
    rng = np.random.default_rng(30 + n)
    g = rng.normal(size=(ops.dim, ops.dim)) + 1j * rng.normal(size=(ops.dim, ops.dim))
    hermitian = symmetrise(ops, g + g.conj().T)
    hermitian /= np.linalg.norm(hermitian)
    # a density matrix, a Hermitian matrix with negative eigenvalues, and for
    # each total spin one whose negative eigenvalues lie in that spin's block
    spin_squared = sum((sum(s) / 2) @ (sum(s) / 2) for s in (ops.sx, ops.sy, ops.sz))
    values, vectors = np.linalg.eigh(spin_squared)
    projectors = [
        vectors[:, block] @ vectors[:, block].conj().T
        for block in (np.isclose(values, v) for v in np.unique(values.round(6)))
    ]
    assert len(projectors) == len(ops.sectors)
    rhos = np.stack([
        random_states(ops, 1, rng)[0], hermitian,
        *(np.eye(ops.dim) - p + p @ hermitian @ p for p in projectors),
    ])
    reference = np.linalg.eigvalsh(rhos).min(axis=1)
    assert reference[0] > 0 > reference[1:].max()
    rows = _sampler(ops)(np.zeros(len(rhos)), class_values(ops, rhos))
    np.testing.assert_allclose(rows[:, -1].real, reference, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_moments_match_per_sample_traces(n):
    n_max = 7 if n == 3 else 4
    ops = _operators(n, n_max)
    count = 70
    rhos = random_states(ops, count, np.random.default_rng(10 + n))
    # handed over in steps of uneven length, as the stepping loop does
    times = np.arange(count) * 0.01
    result = reduce_in_steps(
        class_values(ops, rhos), times, ops, OracleConfig(top_level_tol=2.0), (1, 5, 32)
    )
    pair = lambda left, right: sum(
        left[i] @ right[j] for i in range(n) for j in range(n) if i != j
    ) / (n * (n - 1))
    sx, sy, sz = (sum(s) for s in (ops.sx, ops.sy, ops.sz))
    expected = {
        "c_a": ops.a, "c_x": sx / n, "c_y": sy / n, "c_z": sz / n, "c_n": ops.n_op,
        "c_aa": ops.a @ ops.a, "c_ax": ops.a @ sx / n, "c_ay": ops.a @ sy / n,
        "c_az": ops.a @ sz / n,
    }
    if n >= 2:
        expected.update({
            "c_xx": pair(ops.sx, ops.sx), "c_yy": pair(ops.sy, ops.sy),
            "c_zz": pair(ops.sz, ops.sz), "c_xy": pair(ops.sx, ops.sy),
            "c_xz": pair(ops.sx, ops.sz), "c_yz": pair(ops.sy, ops.sz),
        })
    else:
        assert np.all(np.isnan(result.moments["c_xx"]))
    for name, op in expected.items():
        reference = np.array([np.trace(op @ rho) for rho in rhos])
        np.testing.assert_allclose(result.moments[name], reference, rtol=0, atol=1e-13)
    excited = sum(sp @ sm for sp, sm in zip(ops.sp, ops.sm)) / n
    np.testing.assert_allclose(
        result.excited, [np.real(np.trace(excited @ r)) for r in rhos], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        result.top_fock_pop, [np.real(np.trace(ops.top_proj @ r)) for r in rhos], atol=1e-15
    )
    np.testing.assert_allclose(
        result.min_eigenvalue, [np.linalg.eigvalsh(r).min() for r in rhos], atol=1e-13
    )
    assert np.max(result.trace_error) < 1e-13


def reduce_in_steps(data, times, ops, oracle, cuts=()):
    """``evolve_exact``'s reduction of the sampled class values ``data``, cut into steps at ``cuts``."""
    sample = _sampler(ops)
    edges = (0, *cuts, len(times))
    rows = np.concatenate([sample(times[a:b], data[a:b]) for a, b in zip(edges[:-1], edges[1:])])
    return _oracle_result(rows, times, ops, oracle)


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
    params = params_for(3.0, g_mev=10.0 * HBAR_MEV_PS / 0.120 / math.sqrt(3))
    pulse = PulseParams(amplitude=1.0, center_ps=0.0, sigma_ps=0.020)
    config = SolverConfig(t_start_ps=-0.1, t_end_ps=0.15, output_dt_ps=0.005)
    ops = _operators(3, 7)
    result = evolve_exact(params, pulse, config, OracleConfig(n_max=7))

    h0, collapse = _hamiltonian_and_jumps(params, ops)
    drift, drive = _superoperators(h0, collapse, ops.ad - ops.a)
    times = output_grid(config)
    full = solve_ivp(
        lambda t, y: drift @ y + pulse_envelope(pulse, t) * (drive @ y),
        (times[0], times[-1]), ops.ground_state(0).ravel(), method="RK45", t_eval=times,
        rtol=1e-10, atol=1e-12, max_step=0.25 * pulse.sigma_ps,
    )
    assert full.success
    operators = _moment_operators(ops)
    for name in ("c_z", "c_n", "c_a"):
        reference = operators[name].T.ravel() @ full.y
        assert np.max(np.abs(result.moments[name] - reference)) <= 1e-7 * np.max(np.abs(reference))


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


def test_hermiticity_guard_names_the_sample():
    ops = _operators(2, 4)
    times = np.arange(40) * 0.5
    rhos = random_states(ops, times.size, np.random.default_rng(3))
    rhos[35, 0, 1] += 1e-6  # rho[0, 1] without its conjugate partner
    assert np.max(np.abs(rhos[35] - rhos[35].conj().T)) == pytest.approx(1e-6, rel=1e-9)
    data = class_values(ops, rhos)
    with pytest.raises(OracleInvariantError, match=r"Hermiticity violated by 1\.00e-06 at t = 17\.5 ps"):
        reduce_in_steps(data, times, ops, OracleConfig(top_level_tol=2.0), (32,))


def test_positivity_guard_fires_on_negative_eigenvalue():
    ops = _operators(2, 3)
    rho = np.zeros((ops.dim, ops.dim), dtype=complex)
    # unit trace, nothing in the top Fock level: both molecules up with no
    # photon, and both down with one
    rho[0, 0], rho[-3, -3] = 1.1, -0.1
    assert np.linalg.eigvalsh(rho).min() == pytest.approx(-0.1)
    data = np.tile(class_values(ops, rho), (3, 1))
    with pytest.raises(OracleInvariantError, match="negative eigenvalue -1.00e-01"):
        reduce_in_steps(data, np.arange(3.0), ops, OracleConfig())
