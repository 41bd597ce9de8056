"""The four benchmark workloads and the checks on their outputs.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from the
seed and a ``run_round(inputs)`` that does one fixed amount of work, checks
the results and returns an ``Outcome``.  Every call into the program goes
through a module attribute (``fit.global_fit``, ``cli.main``, ...), so the
tracer in ``spans.py`` sees it when it is installed.

The reference values the checks use (the truth of the synthetic data, the
erfc quadrature of the empty cavity, the effective Rabi frequency) are
computed here, not taken from the program.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import erfc

from dickesim import cli, cumulant, fit, lindblad, spectrum
from dickesim.model import HBAR_MEV_PS, ModelParams, PulseParams, drive_amplitude_from_photon_ratio

LIFETIME_FS = 120.0
KAPPA_MEV = HBAR_MEV_PS / (LIFETIME_FS * 1e-3)
OMEGA_A_MEV = 2357.0
N_REF = 8.08e10
TRUTH = {"g_nev": 10.6, "gamma0z_mev": 1.68, "gamma_minus_mev": 0.0141}
RATE_NAMES = tuple(TRUTH)
REPORT_KEYS = {"g_nev": "g_neV", "gamma0z_mev": "gamma0z_meV", "gamma_minus_mev": "gamma_minus_meV"}
TIMES_FS = np.arange(-400.0, 1150.0 + 1.0, 2.0)
T0_RANGE_FS = (-100.0, 100.0)
PULSE_SIGMA_PS = 0.020
RESPONSE_PS = LIFETIME_FS * 1e-3


@dataclass
class Outcome:
    """Operations attempted and failed in one round, and failed checks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _label_params(label: str, **rates) -> tuple[ModelParams, PulseParams]:
    n, photons = fit.LABEL_INFO[label]
    params = ModelParams(n_molecules=n, kappa_mev=KAPPA_MEV, n_ref=N_REF, **rates)
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(photons / n, n),
        center_ps=0.0,
        sigma_ps=PULSE_SIGMA_PS,
        response_ps=RESPONSE_PS,
    )
    return params, pulse


def _grid_around_truth(factor: float, points: int = 3) -> fit.FitGrid:
    half = factor ** ((points - 1) / 2)
    return fit.FitGrid.logspace(
        g_bounds_nev=(TRUTH["g_nev"] / half, TRUTH["g_nev"] * half),
        gamma0z_bounds_mev=(TRUTH["gamma0z_mev"] / half, TRUTH["gamma0z_mev"] * half),
        gamma_minus_bounds_mev=(TRUTH["gamma_minus_mev"] / half, TRUTH["gamma_minus_mev"] * half),
        points=points,
    )


def _at_truth(value: float, name: str) -> bool:
    return abs(value / TRUTH[name] - 1.0) <= 1e-6


def _truth_in(confidence: dict | None) -> bool:
    # membership up to representation dust: geomspace rebuilds the truth a
    # few ulps off
    return confidence is not None and all(
        confidence[name][0] * (1 - 1e-9) <= TRUTH[name] <= confidence[name][1] * (1 + 1e-9)
        for name in RATE_NAMES
    )


# --- fit_labels: `dickesim fit` on five labelled transients ----------------
#
# Noise is 1% of each transient's peak and the grid step is a factor of 2.
# At a step of 1.5 the fit lands off the truth on most seeds (see the chi^2
# scale entry in CHANGES.md), so that grid cannot be kept as a passing
# workload.  Three points per axis keep one round near half a minute; with
# fit.refine the second pass zooms to the same three points.

LABELS = ("A1", "A2", "A3", "B1", "B2")
LABEL_NOISE_FRACTION = 0.01
LABEL_GRID_FACTOR = 2.0


@dataclass
class LabelsInputs:
    workdir: Path
    config: Path
    shifts_fs: dict
    seed: int
    rounds: int = 0


def setup_fit_labels(seed: int, workdir: Path) -> LabelsInputs:
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True)
    shifts = {}
    paths = []
    for label in LABELS:
        params, pulse = _label_params(label)
        shifts[label] = float(rng.uniform(-50.0, 50.0))
        clean = fit.make_synthetic_dataset(
            params, pulse, TIMES_FS, true_shift_fs=shifts[label], label=label
        )
        noise = LABEL_NOISE_FRACTION * float(np.max(clean.signal))
        signal = clean.signal + rng.normal(scale=noise, size=TIMES_FS.size)
        path = workdir / f"{label}.dat"
        lines = ["# t_fs dR/R"] + [f"{t:.3f} {d:.10e}" for t, d in zip(TIMES_FS, signal)]
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    grid = _grid_around_truth(LABEL_GRID_FACTOR)
    config = workdir / "fit.cfg"
    config.write_text(
        "\n".join([
            "fit.datasets = " + ", ".join(str(p) for p in paths),
            f"fit.lifetime_fs = {LIFETIME_FS:g}",
            "fit.grid_points = 3",
            f"fit.g_bounds_neV = {float(grid.g_nev[0])!r}, {float(grid.g_nev[-1])!r}",
            f"fit.gamma0z_bounds_meV = {float(grid.gamma0z_mev[0])!r}, {float(grid.gamma0z_mev[-1])!r}",
            f"fit.gammaminus_bounds_meV = {float(grid.gamma_minus_mev[0])!r}, {float(grid.gamma_minus_mev[-1])!r}",
            f"fit.t0_range_fs = {T0_RANGE_FS[0]:g}, {T0_RANGE_FS[1]:g}",
            "fit.refine = true",
        ]) + "\n"
    )
    return LabelsInputs(workdir=workdir, config=config, shifts_fs=shifts, seed=seed)


def _read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def run_fit_labels(inputs: LabelsInputs) -> Outcome:
    outcome = Outcome(attempted=1)
    inputs.rounds += 1
    out_dir = inputs.workdir / f"round{inputs.rounds}"
    argv = ["fit", "--config", str(inputs.config), "--out", str(out_dir), "--seed", str(inputs.seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        outcome.failed = 1
        return outcome

    report = _read_report(out_dir / "fit_report.txt")
    rates = {name: float(report[REPORT_KEYS[name]]) for name in RATE_NAMES}
    at_truth = all(_at_truth(rates[name], name) for name in RATE_NAMES)
    confidence = None
    if all(f"ci68[{name}]" in report for name in RATE_NAMES):
        confidence = {
            name: tuple(float(v) for v in report[f"ci68[{name}]"].split(" .. "))
            for name in RATE_NAMES
        }
    outcome.check(at_truth or _truth_in(confidence), f"fit_labels: rates {rates} miss the truth")
    for label in LABELS:
        scale = float(report[f"scale[{label}]"])
        shift = float(report[f"shift_fs[{label}]"])
        outcome.check(abs(scale - 1.0) <= 0.01, f"fit_labels: scale[{label}] = {scale}, true 1")
        outcome.check(
            abs(shift - inputs.shifts_fs[label]) <= 3.0,
            f"fit_labels: shift_fs[{label}] = {shift}, true {inputs.shifts_fs[label]:.3f}",
        )
        outcome.check((out_dir / f"residuals_{label}.csv").is_file(), f"fit_labels: no residuals for {label}")
    chi2 = float(report["chi2_reduced_min"])
    outcome.check(0.7 <= chi2 <= 1.3, f"fit_labels: reduced chi^2 {chi2} outside [0.7, 1.3]")
    return outcome


# --- fit_mc: Monte Carlo refits against one model table --------------------
#
# Acceptance criterion 6 in small: one A2 table on a 3x3x3 grid with the
# criterion's step (1.3) and noise level (0.02 meV), then many seeded noise
# realisations refitted from the table.

MC_TRIALS = 300
MC_NOISE_RMS = 0.02
MC_GRID_FACTOR = 1.3


@dataclass
class McInputs:
    clean: fit.ExperimentDataset
    noise: np.ndarray
    grid: fit.FitGrid


def setup_fit_mc(seed: int, workdir: Path) -> McInputs:
    rng = np.random.default_rng(seed)
    params, pulse = _label_params("A2")
    shift = float(rng.uniform(-50.0, 50.0))
    clean = fit.make_synthetic_dataset(params, pulse, TIMES_FS, true_shift_fs=shift, label="A2")
    clean = replace(clean, sigma=np.full(TIMES_FS.size, MC_NOISE_RMS))
    noise = rng.normal(scale=MC_NOISE_RMS, size=(MC_TRIALS, TIMES_FS.size))
    return McInputs(clean=clean, noise=noise, grid=_grid_around_truth(MC_GRID_FACTOR))


def run_fit_mc(inputs: McInputs) -> Outcome:
    outcome = Outcome(attempted=1 + MC_TRIALS)
    table = fit.model_traces([inputs.clean], inputs.grid, LIFETIME_FS, t0_range_fs=T0_RANGE_FS)
    covered = 0
    chi2s = []
    for noise in inputs.noise:
        ds = replace(inputs.clean, signal=inputs.clean.signal + noise)
        result = fit.global_fit([ds], inputs.grid, LIFETIME_FS, t0_range_fs=T0_RANGE_FS, traces=table)
        chi2s.append(result.chi2_reduced_min)
        covered += _truth_in(result.confidence)
    median = float(np.median(chi2s))
    outcome.check(covered >= 0.6 * MC_TRIALS, f"fit_mc: truth covered in {covered}/{MC_TRIALS} trials")
    outcome.check(0.7 <= median <= 1.3, f"fit_mc: median reduced chi^2 {median} outside [0.7, 1.3]")
    return outcome


# --- fit_stiff: B2 over a gamma0z axis that reaches strong dephasing -------
#
# The inputs do not depend on the seed.  The global fit of this one B2
# transient lands on the lowest-energy corner of the grid on every seed tried
# (the chi^2 scale fault in CHANGES.md), so it is kept as the benchmark's one
# operation that fails every time, and a failing operation needs inputs that
# do not vary with the seed.

STIFF_SHIFT_FS = 20.0
STIFF_NOISE_SEED = 2012
STIFF_NOISE_FRACTION = 0.01
STIFF_GRID = fit.FitGrid(
    g_nev=TRUTH["g_nev"] * 2.0 ** np.arange(-1.0, 2.0),
    gamma0z_mev=TRUTH["gamma0z_mev"] * 5.0 ** np.arange(-1.0, 3.0),
    gamma_minus_mev=TRUTH["gamma_minus_mev"] * 2.0 ** np.arange(-1.0, 2.0),
)
STIFF_TRUTH_INDEX = (1, 1, 1)


def setup_fit_stiff(seed: int, workdir: Path) -> fit.ExperimentDataset:
    params, pulse = _label_params("B2")
    clean = fit.make_synthetic_dataset(params, pulse, TIMES_FS, true_shift_fs=STIFF_SHIFT_FS, label="B2")
    noise = STIFF_NOISE_FRACTION * float(np.max(clean.signal))
    rng = np.random.default_rng(STIFF_NOISE_SEED)
    return replace(
        clean,
        signal=clean.signal + rng.normal(scale=noise, size=TIMES_FS.size),
        sigma=np.full(TIMES_FS.size, noise),
    )


def run_fit_stiff(dataset: fit.ExperimentDataset) -> Outcome:
    outcome = Outcome(attempted=2)
    grid = STIFF_GRID
    table = fit.model_traces([dataset], grid, LIFETIME_FS, t0_range_fs=T0_RANGE_FS)
    shape = (grid.g_nev.size, grid.gamma0z_mev.size, grid.gamma_minus_mev.size)
    e_max = np.empty(shape)
    for (i, j, k, _), trace in table.items():
        e = trace.energy_mev
        outcome.check(
            e.min() >= -1e-9 * OMEGA_A_MEV and e.max() <= OMEGA_A_MEV,
            f"fit_stiff: energy outside [0, omega_a] at grid point {(i, j, k)}",
        )
        e_max[i, j, k] = e.max()
    outcome.check(
        bool(np.all(np.diff(e_max, axis=1) <= 0.0)),
        "fit_stiff: E_max rises with gamma0z at fixed (g, gamma_minus)",
    )

    result = fit.global_fit([dataset], grid, LIFETIME_FS, t0_range_fs=T0_RANGE_FS, traces=table)
    outcome.check(
        bool(np.all(np.isfinite(result.chi2_reduced_map))), "fit_stiff: a grid point has no finite chi^2"
    )
    if result.argmin != STIFF_TRUTH_INDEX:
        outcome.failed = 1
    return outcome


# --- oracle: exact Lindblad propagation against the moment closures --------

ORACLE_WINDOW = cumulant.SolverConfig(t_start_ps=-0.2, t_end_ps=1.0, output_dt_ps=0.002)
QUADRATURE_WINDOW = cumulant.SolverConfig(t_start_ps=-0.2, t_end_ps=1.8, output_dt_ps=0.002)
COUPLINGS = (0.1, 1.0, 10.0)  # g sqrt(N) / kappa
SPECTRUM_N = (2e9, 8.08e10, 1e12)
# The resolved case and grid of acceptance criterion 5, not seeded: the
# absorption maxima sit slightly outside +-Omega_eff and the grid is not
# centred on them, so the one-step tolerance holds here but not at every
# molecule number (at N = 9.6e11 the splitting is 0.26 meV off, the step
# 0.15 meV).
SPLIT_PARAMS = ModelParams(n_molecules=1e12, kappa_mev=KAPPA_MEV, n_ref=N_REF)


@dataclass
class OracleInputs:
    cases: list  # (params, pulse, oracle config)
    quadrature: tuple  # (params, pulse)
    spectra: list  # ModelParams for the symmetry checks


def setup_oracle(seed: int, workdir: Path) -> OracleInputs:
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(0.08, 0.12))
    cases = []
    for n in (1, 2, 3):
        for mult in COUPLINGS:
            params = ModelParams(
                n_molecules=n, g_mev=mult * KAPPA_MEV / math.sqrt(n), kappa_mev=KAPPA_MEV,
                gamma0z_mev=1.68, n_ref=n, gamma_minus_mev=0.0141,
            )
            pulse = PulseParams(amplitude=amplitude, center_ps=0.0, sigma_ps=PULSE_SIGMA_PS)
            # three molecules fit the 64-dimensional limit only with n_max = 7
            cases.append((params, pulse, lindblad.OracleConfig(n_max=8 if n < 3 else 7)))
    quadrature = (
        ModelParams(n_molecules=10.0, g_mev=0.0, kappa_mev=KAPPA_MEV, gamma0z_mev=1.68, n_ref=10.0),
        PulseParams(amplitude=float(rng.uniform(0.4, 0.6)), center_ps=0.0, sigma_ps=PULSE_SIGMA_PS),
    )
    spectra = [
        ModelParams(n_molecules=n * float(rng.uniform(0.9, 1.1)), kappa_mev=KAPPA_MEV, n_ref=N_REF)
        for n in SPECTRUM_N
    ]
    return OracleInputs(cases=cases, quadrature=quadrature, spectra=spectra)


def _peak_energy(c_z: np.ndarray) -> float:
    return float(np.max(0.5 * OMEGA_A_MEV * (np.real(c_z) + 1.0)))


def _empty_cavity_amplitude(t: np.ndarray, params: ModelParams, pulse: PulseParams) -> np.ndarray:
    """<a>(t) of a lossy cavity under the Gaussian drive, by quadrature."""
    k = 0.5 * params.kappa_mev / HBAR_MEV_PS
    s = pulse.sigma_ps
    u = (t - pulse.center_ps - k * s * s) / s
    return pulse.amplitude * np.exp(-k * (t - pulse.center_ps) + 0.5 * (k * s) ** 2) * 0.5 * erfc(-u / math.sqrt(2.0))


def _rabi_and_width(params: ModelParams) -> tuple[float, float]:
    gamma_z = params.gamma0z_mev * params.n_ref / params.n_molecules
    gamma_tot = 2.0 * gamma_z + 0.5 * params.gamma_minus_mev
    radicand = params.g_mev ** 2 * params.n_molecules - 0.25 * (params.kappa_mev - 2.0 * gamma_tot) ** 2
    return math.sqrt(max(radicand, 0.0)), 0.25 * (2.0 * gamma_tot + params.kappa_mev)


def run_oracle(inputs: OracleInputs) -> Outcome:
    outcome = Outcome(attempted=len(inputs.cases) + 2 + len(inputs.spectra))
    for params, pulse, config in inputs.cases:
        exact = lindblad.evolve_exact(params, pulse, ORACLE_WINDOW, config)
        peak_exact = _peak_energy(exact.moments["c_z"])
        errors = {}
        for closure in ("cumulant", "meanfield"):
            trace = cumulant.integrate(params, pulse, replace(ORACLE_WINDOW, closure=closure))
            errors[closure] = abs(_peak_energy(trace.c_z) - peak_exact) / peak_exact
            if closure == "cumulant":
                norms = lindblad.compare_cumulant(exact, trace)
        case = f"N={params.n_molecules:g} g={params.g_mev:.4g} meV"
        outcome.check(errors["cumulant"] <= 0.02, f"oracle: {case} cumulant peak off by {errors['cumulant']:.3%}")
        outcome.check(errors["meanfield"] > errors["cumulant"], f"oracle: {case} mean-field not worse")
        outcome.check(norms["c_z"].max_rel_error <= 0.02, f"oracle: {case} c_z deviates by {norms['c_z'].max_rel_error:.3%}")

    params, pulse = inputs.quadrature
    trace = cumulant.integrate(params, pulse, QUADRATURE_WINDOW)
    deviation = float(np.max(np.abs(trace.c_a - _empty_cavity_amplitude(trace.times_ps, params, pulse))))
    limit = 10.0 * QUADRATURE_WINDOW.rel_tol * pulse.amplitude
    outcome.check(deviation <= limit, f"oracle: empty cavity <a> off by {deviation:.3e} (limit {limit:.3e})")

    for params in inputs.spectra:
        a = spectrum.absorption_spectrum(params, np.linspace(-30.0, 30.0, 501)).absorption
        outcome.check(
            np.max(np.abs(a - a[::-1])) <= 1e-12 * np.max(np.abs(a)),
            f"oracle: spectrum at N={params.n_molecules:.3g} not even in detuning",
        )

    omega, width = _rabi_and_width(SPLIT_PARAMS)
    step = width / 10.0
    peaks = spectrum.absorption_spectrum(
        SPLIT_PARAMS, np.arange(-2.0 * omega, 2.0 * omega + step / 2, step)
    ).peak_detunings()
    outcome.check(
        omega >= 5.0 * width and peaks.size == 2 and abs((peaks[1] - peaks[0]) - 2.0 * omega) <= step,
        f"oracle: polariton splitting {peaks} is not 2 Omega_eff = {2.0 * omega:.4f} meV",
    )
    return outcome


WORKLOADS = {
    "fit_labels": (setup_fit_labels, run_fit_labels),
    "fit_mc": (setup_fit_mc, run_fit_mc),
    "fit_stiff": (setup_fit_stiff, run_fit_stiff),
    "oracle": (setup_oracle, run_oracle),
}
