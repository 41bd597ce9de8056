"""Command-line entry point.

Subcommands cover the whole pipeline: ``simulate`` writes an energy trace
and its charging metrics, ``sweep`` scans molecule number or pump strength,
``fit`` runs the global grid search against measured or synthetic
transients, ``spectrum`` tabulates the probe absorption, and
``oracle-check`` validates the moment solver against the exact
master-equation propagator.

Configuration comes from a flat ``key = value`` file with ``#`` comments.
Keys are namespaced (``model.``, ``pulse.``, ``solver.``, plus a namespace
per subcommand) and unknown keys are rejected outright.  Every run echoes
its fully resolved configuration into the output directory so a result can
always be traced back to exact inputs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 data
error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import erfc

from .cumulant import (
    IntegrationError,
    energy_trace,
    integrate,
    solver_config_from_config,
    solver_config_keys,
    write_trace_csv,
)
from .fit import (
    DataError,
    FitBoundaryError,
    FitGrid,
    estimate_noise,
    global_fit,
    load_dataset,
    make_synthetic_dataset,
    residuals,
    write_map_csv,
)
from .lindblad import (
    OracleConfig,
    OracleInvariantError,
    OracleTruncationError,
    compare_cumulant,
    evolve_exact,
    write_oracle_csv,
)
from .model import (
    ConfigError,
    HBAR_MEV_PS,
    ModelParams,
    energy_density_from_inversion,
    known_config_keys,
    model_params_from_config,
    pulse_params_from_config,
)
from .observables import (
    UndefinedMetricError,
    charging_metrics,
    classify_regime,
    convolve_response,
    sweep,
    write_sweep_csv,
)
from .spectrum import absorption_spectrum, write_spectrum_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DATA = 4

_NUMERIC_ERRORS = (
    IntegrationError,
    UndefinedMetricError,
    OracleTruncationError,
    OracleInvariantError,
    FitBoundaryError,
    ZeroDivisionError,
    FloatingPointError,
)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(float(p) for p in parts)


def _parse_strings(raw: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one entry")
    return tuple(parts)


_SWEEP_KEYS = {
    "sweep.axis": str,
    "sweep.grid": _parse_floats,
    "sweep.start": float,
    "sweep.stop": float,
    "sweep.points": int,
    "sweep.photon_ratio": float,
    "sweep.lower_polariton": _parse_bool,
}

_FIT_KEYS = {
    "fit.datasets": _parse_strings,
    "fit.labels": _parse_strings,
    "fit.n_dye": _parse_floats,
    "fit.photon_ratio": _parse_floats,
    "fit.lifetime_fs": float,
    "fit.pulse_sigma_fs": float,
    "fit.grid_points": int,
    "fit.g_bounds_neV": _parse_floats,
    "fit.gamma0z_bounds_meV": _parse_floats,
    "fit.gammaminus_bounds_meV": _parse_floats,
    "fit.t0_range_fs": _parse_floats,
    "fit.refine": _parse_bool,
    "fit.synthetic": _parse_bool,
    "fit.times_fs": _parse_floats,
    "fit.noise_rms": float,
    "fit.true_scale": float,
    "fit.true_shift_fs": float,
}

_SPECTRUM_KEYS = {
    "spectrum.span_meV": float,
    "spectrum.points": int,
}

_ORACLE_KEYS = {
    "oracle.n_max": int,
    "oracle.initial_photons": int,
    "oracle.top_level_tol": float,
}

_COMMAND_NAMESPACES = {
    "simulate": ("model.", "pulse.", "solver."),
    "sweep": ("model.", "pulse.", "solver.", "sweep."),
    "fit": ("model.", "pulse.", "solver.", "fit."),
    "spectrum": ("model.", "spectrum."),
    "oracle-check": ("model.", "pulse.", "solver.", "oracle."),
}


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = value
    return cfg


def _check_keys(cfg: dict[str, str], command: str) -> None:
    namespaces = _COMMAND_NAMESPACES[command]
    known = known_config_keys() | solver_config_keys()
    known |= set(_SWEEP_KEYS) | set(_FIT_KEYS) | set(_SPECTRUM_KEYS) | set(_ORACLE_KEYS)
    for key in cfg:
        if not key.startswith(namespaces):
            raise ConfigError(
                f"key {key!r} does not belong to the {command!r} command "
                f"(accepted namespaces: {', '.join(namespaces)})"
            )
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")


def _get(cfg: dict[str, str], key: str, table: dict, default=None):
    if key not in cfg:
        return default
    try:
        return table[key](cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r} ({exc})") from None


def _require(cfg: dict[str, str], key: str, table: dict):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r}")
    return _get(cfg, key, table)


def _echo_config(out_dir: Path, command: str, sections: dict[str, dict]) -> None:
    lines = [f"command = {command}"]
    for section, values in sections.items():
        lines.append("")
        lines.append(f"[{section}]")
        for name in sorted(values):
            lines.append(f"{name} = {values[name]!r}")
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _resolved(obj) -> dict:
    return dict(vars(obj))


def _build_common(cfg: dict[str, str]):
    params = model_params_from_config(cfg)
    pulse = pulse_params_from_config(cfg, params)
    solver = solver_config_from_config(cfg)
    return params, pulse, solver


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_simulate(cfg: dict[str, str], out_dir: Path, args) -> int:
    params, pulse, solver = _build_common(cfg)
    _echo_config(out_dir, "simulate", {
        "model": _resolved(params), "pulse": _resolved(pulse), "solver": _resolved(solver),
    })
    trace = integrate(params, pulse, solver)
    write_trace_csv(out_dir / "trace.csv", trace, params, pulse, solver)

    energy = energy_trace(trace, params)
    smoothed = convolve_response(energy, pulse.response_ps)
    with open(out_dir / "trace_convolved.csv", "w", newline="") as fh:
        fh.write(f"# response_ps={pulse.response_ps:g}\n")
        fh.write("t_ps,E_meV\n")
        for t, e in zip(smoothed.times_ps, smoothed.energy_mev):
            fh.write(f"{t:.6f},{e:.10e}\n")

    # Metrics come from the bare trace; smoothing is only for comparing
    # against detector-limited data.
    metrics = charging_metrics(energy, pulse.center_ps)
    report = classify_regime(
        params, pulse.amplitude ** 2 / params.n_molecules, pulse.sigma_ps
    )
    lines = [
        f"tau_ps = {_fmt(metrics.tau_ps)}",
        f"E_max_meV = {_fmt(metrics.e_max_mev)}",
        f"P_max_meV_per_ps = {_fmt(metrics.p_max_mev_per_ps)}",
        f"t_peak_ps = {_fmt(metrics.t_peak_ps)}",
        f"t_half_ps = {_fmt(metrics.t_half_ps)}",
        f"regime = {report.regime}",
        f"N_kappa = {_fmt(report.n_kappa)}",
        f"N_gammaz = {_fmt(report.n_gammaz)}",
        f"N_sigma = {_fmt(report.n_sigma)}",
    ]
    (out_dir / "metrics.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(cfg: dict[str, str], out_dir: Path, args) -> int:
    params, pulse, solver = _build_common(cfg)
    axis = _require(cfg, "sweep.axis", _SWEEP_KEYS)
    grid = _get(cfg, "sweep.grid", _SWEEP_KEYS)
    if grid is None:
        start = _require(cfg, "sweep.start", _SWEEP_KEYS)
        stop = _require(cfg, "sweep.stop", _SWEEP_KEYS)
        points = _require(cfg, "sweep.points", _SWEEP_KEYS)
        if points < 1 or start <= 0 or stop <= start:
            raise ConfigError("sweep bounds need 0 < start < stop and points >= 1")
        grid = np.geomspace(start, stop, points)
    elif {"sweep.start", "sweep.stop", "sweep.points"} & set(cfg):
        raise ConfigError("sweep.grid and sweep.start/stop/points are mutually exclusive")
    photon_ratio = _get(cfg, "sweep.photon_ratio", _SWEEP_KEYS)
    lower = _get(cfg, "sweep.lower_polariton", _SWEEP_KEYS, default=False)
    _echo_config(out_dir, "sweep", {
        "model": _resolved(params), "pulse": _resolved(pulse), "solver": _resolved(solver),
        "sweep": {
            "axis": axis, "grid": [float(v) for v in grid],
            "photon_ratio": photon_ratio, "lower_polariton": lower,
        },
    })
    try:
        points_out = sweep(
            params, axis, grid, pulse, solver,
            photon_ratio=photon_ratio, lower_polariton=lower, workers=args.threads,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    write_sweep_csv(out_dir / "sweep.csv", points_out, axis)
    failures = [p for p in points_out if p.error]
    for p in failures:
        logger.warning("sweep point %s=%g failed: %s", axis, p.axis_value, p.error)
    print(f"wrote {len(points_out)} sweep rows ({len(failures)} failed)")
    return EXIT_OK


def _fit_datasets(cfg: dict[str, str], params, pulse, solver, seed: int):
    if _get(cfg, "fit.synthetic", _FIT_KEYS, default=False):
        times_spec = _get(cfg, "fit.times_fs", _FIT_KEYS, default=(-500.0, 1500.0, 4.0))
        if len(times_spec) != 3 or times_spec[2] <= 0 or times_spec[1] <= times_spec[0]:
            raise ConfigError("fit.times_fs must be start, stop, step with stop > start")
        times = np.arange(times_spec[0], times_spec[1] + 0.5 * times_spec[2], times_spec[2])
        ds = make_synthetic_dataset(
            params, pulse, times,
            true_scale=_get(cfg, "fit.true_scale", _FIT_KEYS, default=1.0),
            true_shift_fs=_get(cfg, "fit.true_shift_fs", _FIT_KEYS, default=0.0),
            noise_rms=_get(cfg, "fit.noise_rms", _FIT_KEYS, default=0.0),
            rng=np.random.default_rng(seed),
            solver=solver,
        )
        return [estimate_noise(ds)]

    paths = _require(cfg, "fit.datasets", _FIT_KEYS)
    labels = _get(cfg, "fit.labels", _FIT_KEYS)
    if labels is None:
        labels = tuple(Path(p).stem for p in paths)
    if len(labels) != len(paths):
        raise ConfigError("fit.labels must match fit.datasets in length")
    n_dyes = _get(cfg, "fit.n_dye", _FIT_KEYS, default=(None,) * len(paths))
    ratios = _get(cfg, "fit.photon_ratio", _FIT_KEYS, default=(None,) * len(paths))
    if len(n_dyes) != len(paths) or len(ratios) != len(paths):
        raise ConfigError("fit.n_dye and fit.photon_ratio must match fit.datasets in length")
    datasets = []
    for path, label, n_dye, ratio in zip(paths, labels, n_dyes, ratios):
        ds = load_dataset(
            path, label, n_dye=n_dye, photon_ratio=ratio, response_ps=pulse.response_ps
        )
        datasets.append(estimate_noise(ds))
    return datasets


# model keys the fit's table does not take: it is built at the ModelParams
# defaults (resonant, omega_a = 2357 meV)
_FIT_FIXED_MODEL_KEYS = {
    "model.delta_c_meV": "delta_c_mev",
    "model.delta_a_meV": "delta_a_mev",
    "model.omega_a_meV": "omega_a_mev",
    "model.wavelength_nm": "omega_a_mev",
}


def cmd_fit(cfg: dict[str, str], out_dir: Path, args) -> int:
    params, pulse, solver = _build_common(cfg)
    table = ModelParams()
    for key, attr in _FIT_FIXED_MODEL_KEYS.items():
        if key in cfg and getattr(params, attr) != getattr(table, attr):
            raise ConfigError(
                f"{key} = {cfg[key]} is not supported by fit, whose model table is resonant "
                f"with omega_a = {table.omega_a_mev:g} meV; remove the key"
            )
    datasets = _fit_datasets(cfg, params, pulse, solver, args.seed)

    points = _get(cfg, "fit.grid_points", _FIT_KEYS, default=9)
    bounds = {}
    for key, name in (
        ("fit.g_bounds_neV", "g_bounds_nev"),
        ("fit.gamma0z_bounds_meV", "gamma0z_bounds_mev"),
        ("fit.gammaminus_bounds_meV", "gamma_minus_bounds_mev"),
    ):
        pair = _get(cfg, key, _FIT_KEYS)
        if pair is not None:
            if len(pair) != 2:
                raise ConfigError(f"{key} must be two numbers")
            bounds[name] = (pair[0], pair[1])
    try:
        grid = FitGrid.logspace(points=points, **bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    lifetime_fs = _get(cfg, "fit.lifetime_fs", _FIT_KEYS, default=120.0)
    sigma_fs = _get(cfg, "fit.pulse_sigma_fs", _FIT_KEYS, default=pulse.sigma_ps * 1e3)
    t0_pair = _get(cfg, "fit.t0_range_fs", _FIT_KEYS, default=(-400.0, 400.0))
    if len(t0_pair) != 2 or t0_pair[1] <= t0_pair[0]:
        raise ConfigError("fit.t0_range_fs must be lo, hi with hi > lo")
    refine = _get(cfg, "fit.refine", _FIT_KEYS, default=False)

    _echo_config(out_dir, "fit", {
        "model": _resolved(params), "pulse": _resolved(pulse), "solver": _resolved(solver),
        "fit": {
            "datasets": [ds.label for ds in datasets],
            "lifetime_fs": lifetime_fs, "pulse_sigma_fs": sigma_fs,
            "grid_points": points,
            "g_bounds_neV": (grid.g_nev[0], grid.g_nev[-1]),
            "gamma0z_bounds_meV": (grid.gamma0z_mev[0], grid.gamma0z_mev[-1]),
            "gammaminus_bounds_meV": (grid.gamma_minus_mev[0], grid.gamma_minus_mev[-1]),
            "t0_range_fs": tuple(t0_pair), "refine": refine, "seed": args.seed,
        },
    })

    result = global_fit(
        datasets, grid, lifetime_fs=lifetime_fs,
        pulse_sigma_ps=sigma_fs * 1e-3, n_ref=params.n_ref, solver=solver,
        t0_range_fs=(t0_pair[0], t0_pair[1]), workers=args.threads, refine=refine,
    )

    write_map_csv(out_dir / "chi2_map.csv", result)
    if result.coarse is not None:
        write_map_csv(out_dir / "chi2_map_coarse.csv", result.coarse)

    lines = [
        f"g_neV = {_fmt(result.g_nev)}",
        f"gamma0z_meV = {_fmt(result.gamma0z_mev)}",
        f"gamma_minus_meV = {_fmt(result.gamma_minus_mev)}",
        f"chi2_reduced_min = {_fmt(result.chi2_reduced_min)}",
        f"k_eff = {result.k_eff}",
        f"lifetime_fs = {_fmt(result.lifetime_fs)}",
    ]
    for label in sorted(result.inner):
        lines.append(f"scale[{label}] = {_fmt(result.inner[label].scale)}")
        lines.append(f"shift_fs[{label}] = {_fmt(result.inner[label].t0_fs)}")
    if result.confidence is None:
        lines.append("confidence = unavailable (minimum on grid boundary)")
    else:
        for name in sorted(result.confidence):
            lo, hi = result.confidence[name]
            lines.append(f"ci68[{name}] = {_fmt(lo)} .. {_fmt(hi)}")
    (out_dir / "fit_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))

    for ds in datasets:
        f = result.inner[ds.label]
        res = residuals(result.traces[ds.label], ds, f)
        with open(out_dir / f"residuals_{ds.label}.csv", "w", newline="") as fh:
            fh.write(f"# scale={f.scale:.8e} t0_fs={f.t0_fs:.4f} chi2={f.chi2:.8e}\n")
            fh.write("t_fs,residual_sigma\n")
            for t, r in zip(ds.times_fs, res):
                fh.write(f"{t:.4f},{r:.8e}\n")
    return EXIT_OK


def cmd_spectrum(cfg: dict[str, str], out_dir: Path, args) -> int:
    params = model_params_from_config(cfg)
    span = _get(cfg, "spectrum.span_meV", _SPECTRUM_KEYS)
    if span is None:
        scale = max(params.g_mev * np.sqrt(params.n_molecules), params.kappa_mev)
        span = 4.0 * scale
    points = _get(cfg, "spectrum.points", _SPECTRUM_KEYS, default=2001)
    if span <= 0 or points < 3:
        raise ConfigError("spectrum needs span_meV > 0 and points >= 3")
    _echo_config(out_dir, "spectrum", {
        "model": _resolved(params),
        "spectrum": {"span_meV": span, "points": points},
    })
    detunings = np.linspace(-span, span, points)
    result = absorption_spectrum(params, detunings)
    write_spectrum_csv(out_dir / "spectrum.csv", result)
    peaks = result.peak_detunings()
    lines = [
        f"omega_eff_meV = {_fmt(result.omega_eff_mev)}",
        f"splitting_meV = {_fmt(2.0 * result.omega_eff_mev)}",
        f"overdamped = {result.overdamped}",
        f"n_peaks = {result.n_peaks}",
        f"n_lines = {result.n_lines}",
        "peaks_meV = " + ", ".join(_fmt(p) for p in peaks),
    ]
    (out_dir / "spectrum_summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle_check(cfg: dict[str, str], out_dir: Path, args) -> int:
    params, pulse, solver = _build_common(cfg)
    oracle = OracleConfig(
        n_max=_get(cfg, "oracle.n_max", _ORACLE_KEYS, default=8),
        initial_photons=_get(cfg, "oracle.initial_photons", _ORACLE_KEYS, default=0),
        top_level_tol=_get(cfg, "oracle.top_level_tol", _ORACLE_KEYS, default=1e-6),
    )
    _echo_config(out_dir, "oracle-check", {
        "model": _resolved(params), "pulse": _resolved(pulse), "solver": _resolved(solver),
        "oracle": _resolved(oracle),
    })
    lines = []
    ok = True

    exact = evolve_exact(params, pulse, solver, oracle)
    write_oracle_csv(out_dir / "oracle_trace.csv", exact, params.omega_a_mev)
    e_exact = exact.energy_mev(params.omega_a_mev)
    peak = float(np.max(np.abs(e_exact)))
    if peak <= 0.0:
        raise ConfigError("oracle trace has no excitation; increase pulse.eta0")

    errors = {}
    closure_runs = {}
    for closure in ("cumulant", "meanfield"):
        trace = closure_runs[closure] = integrate(params, pulse, replace(solver, closure=closure))
        e_model = energy_density_from_inversion(
            np.interp(exact.times_ps, trace.times_ps, trace.c_z), params.omega_a_mev
        )
        errors[closure] = float(np.max(np.abs(e_model - e_exact))) / peak
    passed = errors["cumulant"] <= 0.02
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} closure vs exact: cumulant rel err "
        f"{errors['cumulant']:.3e}, meanfield {errors['meanfield']:.3e} (limit 2e-2)"
    )

    bracket_errs = {}
    for bracket in ("consistent", "variant"):
        if bracket == "consistent":
            trace = closure_runs[solver.closure]  # the same integration
        else:
            trace = integrate(params, pulse, solver, ax_bracket=bracket)
        norms = compare_cumulant(exact, trace, observables=("c_z",))
        bracket_errs[bracket] = norms["c_z"].max_rel_error
    passed = bracket_errs["consistent"] <= bracket_errs["variant"]
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} pair-bracket forms: consistent rel err "
        f"{bracket_errs['consistent']:.3e} vs variant {bracket_errs['variant']:.3e}"
    )

    g0 = replace(params, g_mev=0.0, delta_c_mev=0.0)
    trace = integrate(g0, pulse, solver)
    k = 0.5 * g0.kappa_mev / HBAR_MEV_PS
    t = trace.times_ps
    u = (t - pulse.center_ps - k * pulse.sigma_ps ** 2) / pulse.sigma_ps
    closed = (
        pulse.amplitude
        * np.exp(-k * (t - pulse.center_ps) + 0.5 * (k * pulse.sigma_ps) ** 2)
        * 0.5 * erfc(-u / np.sqrt(2.0))
    )
    dev = float(np.max(np.abs(trace.c_a - closed)))
    limit = 10.0 * max(solver.rel_tol * pulse.amplitude, solver.abs_tol)
    passed = dev <= limit
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} empty-coupling cavity quadrature: "
        f"max dev {dev:.3e} (limit {limit:.3e})"
    )

    lines.append(f"top_fock_population = {float(np.max(exact.top_fock_pop)):.3e}")
    lines.append(f"trace_error = {float(np.max(np.abs(exact.trace_error))):.3e}")
    lines.append(f"min_eigenvalue = {float(np.min(exact.min_eigenvalue)):.3e}")
    (out_dir / "oracle_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_NUMERIC


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "spectrum": cmd_spectrum,
    "oracle-check": cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Collective charging simulator and fitting toolchain.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key = value configuration file")
    common.add_argument("--out", default=".", help="output directory (created if missing)")
    common.add_argument("--threads", type=int, default=1, help="worker process cap")
    common.add_argument("--seed", type=int, default=0, help="seed for synthetic noise")
    common.add_argument(
        "--log-level", default="WARNING", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="log threshold on stderr; INFO reports the solver work of every fit batch",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("dickesim").setLevel(args.log_level)
    try:
        cfg = read_config_file(args.config)
        _check_keys(cfg, args.command)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
