"""Command-line entry point, and the only module that writes files.

Each subcommand writes its fully resolved configuration to
``resolved_config.txt``, so a result can always be traced back to exact
inputs, and its own files:

- ``simulate``: ``trace.csv``, ``trace_convolved.csv``, ``metrics.txt``;
- ``sweep``, over molecule number or pump strength: ``sweep.csv``;
- ``fit``, the global grid search against measured or synthetic transients:
  ``fit_report.txt``, ``chi2_map.csv`` (and ``chi2_map_coarse.csv`` with
  ``fit.refine``), ``residuals_<label>.csv`` per dataset;
- ``spectrum``, the probe absorption: ``spectrum.csv``, ``spectrum_summary.txt``;
- ``oracle-check``, the moment solver against the exact master-equation
  propagator: ``oracle_trace.csv``, ``oracle_report.txt``.

Tables go through ``_write_table`` and reports through ``_report``; the
library modules compute and return.

Configuration comes from a flat ``key = value`` file with ``#`` comments.
Keys are namespaced (``model.``, ``pulse.``, ``solver.``, plus a namespace
per subcommand), and ``CONFIG_KEYS`` is the one table of them: each key
sets one field of one section, through one parser.  ``parse_config``
rejects a key outside the subcommand's namespaces or outside the table,
and two keys that set the same field; then it parses every value, a
failure reported as ``bad value for <key>``.  ``ModelParams``,
``PulseParams``, ``SolverConfig`` and ``OracleConfig`` are built straight
from their sections; only ``pulse.photon_ratio`` waits for N to become an
amplitude.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 data
error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .cumulant import IntegrationError, SolverConfig, energy_trace, integrate
from .fit import (
    DEFAULT_GRID_POINTS,
    DEFAULT_LIFETIME_FS,
    DEFAULT_T0_RANGE_FS,
    DataError,
    FitGrid,
    estimate_noise,
    global_fit,
    load_dataset,
    make_synthetic_dataset,
    residuals,
    table_window,
)
from .lindblad import (
    OracleConfig,
    OracleInvariantError,
    OracleTruncationError,
    compare_cumulant,
    evolve_exact,
)
from .model import (
    ConfigError,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    empty_cavity_amplitude,
    energy_density_from_inversion,
    lifetime_ps_to_mev,
    wavelength_nm_to_mev,
)
from .observables import (
    UndefinedMetricError,
    charging_metrics,
    classify_regime,
    convolve_response,
    sweep,
)
from .spectrum import absorption_spectrum

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


def _parse_pair(raw: str) -> tuple[float, float]:
    pair = _parse_floats(raw)
    if len(pair) != 2:
        raise ValueError(f"expected two numbers, got {len(pair)}")
    return pair


def _parse_strings(raw: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one entry")
    return tuple(parts)


def _scaled(factor: float):
    return lambda raw: float(raw) * factor


# key -> (section, field, parser).  A section is named after its namespace;
# the model, pulse, solver and oracle fields are those of ModelParams,
# PulseParams, SolverConfig and OracleConfig.  Keys that set the same field
# are alternatives, listed in the order their conflict is reported.
CONFIG_KEYS = {
    "model.N": ("model", "n_molecules", float),
    "model.g_neV": ("model", "g_mev", _scaled(1e-6)),
    "model.kappa_meV": ("model", "kappa_mev", float),
    "model.lifetime_fs": ("model", "kappa_mev", lambda raw: lifetime_ps_to_mev(float(raw) * 1e-3)),
    "model.gamma0z_meV": ("model", "gamma0z_mev", float),
    "model.N_ref": ("model", "n_ref", float),
    "model.gamma_minus_meV": ("model", "gamma_minus_mev", float),
    "model.delta_c_meV": ("model", "delta_c_mev", float),
    "model.delta_a_meV": ("model", "delta_a_mev", float),
    "model.omega_a_meV": ("model", "omega_a_mev", float),
    "model.wavelength_nm": ("model", "omega_a_mev", lambda raw: wavelength_nm_to_mev(float(raw))),
    "pulse.eta0": ("pulse", "amplitude", float),
    # a photon ratio, turned into the amplitude once N is known
    "pulse.photon_ratio": ("pulse", "amplitude", float),
    "pulse.t0_fs": ("pulse", "center_ps", _scaled(1e-3)),
    "pulse.sigma_fs": ("pulse", "sigma_ps", _scaled(1e-3)),
    "pulse.response_fs": ("pulse", "response_ps", _scaled(1e-3)),
    "solver.closure": ("solver", "closure", str),
    "solver.t_start_ps": ("solver", "t_start_ps", float),
    "solver.t_end_ps": ("solver", "t_end_ps", float),
    "solver.output_dt_fs": ("solver", "output_dt_ps", _scaled(1e-3)),
    "solver.rel_tol": ("solver", "rel_tol", float),
    "solver.abs_tol": ("solver", "abs_tol", float),
    "sweep.axis": ("sweep", "axis", str),
    "sweep.grid": ("sweep", "grid", _parse_floats),
    "sweep.start": ("sweep", "start", float),
    "sweep.stop": ("sweep", "stop", float),
    "sweep.points": ("sweep", "points", int),
    "sweep.photon_ratio": ("sweep", "photon_ratio", float),
    "sweep.lower_polariton": ("sweep", "lower_polariton", _parse_bool),
    "fit.datasets": ("fit", "datasets", _parse_strings),
    "fit.labels": ("fit", "labels", _parse_strings),
    "fit.n_dye": ("fit", "n_dye", _parse_floats),
    "fit.photon_ratio": ("fit", "photon_ratio", _parse_floats),
    "fit.lifetime_fs": ("fit", "lifetime_fs", float),
    "fit.grid_points": ("fit", "grid_points", int),
    "fit.g_bounds_neV": ("fit", "g_bounds_nev", _parse_pair),
    "fit.gamma0z_bounds_meV": ("fit", "gamma0z_bounds_mev", _parse_pair),
    "fit.gammaminus_bounds_meV": ("fit", "gamma_minus_bounds_mev", _parse_pair),
    "fit.t0_range_fs": ("fit", "t0_range_fs", _parse_pair),
    "fit.refine": ("fit", "refine", _parse_bool),
    "fit.synthetic": ("fit", "synthetic", _parse_bool),
    "fit.times_fs": ("fit", "times_fs", _parse_floats),
    "fit.noise_rms": ("fit", "noise_rms", float),
    "fit.true_scale": ("fit", "true_scale", float),
    "fit.true_shift_fs": ("fit", "true_shift_fs", float),
    "spectrum.span_meV": ("spectrum", "span_meV", float),
    "spectrum.points": ("spectrum", "points", int),
    "oracle.n_max": ("oracle", "n_max", int),
    "oracle.initial_photons": ("oracle", "initial_photons", int),
    "oracle.top_level_tol": ("oracle", "top_level_tol", float),
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


def parse_config(cfg: Mapping[str, str], command: str) -> dict[str, dict]:
    """``{section: {field: value}}`` of ``cfg`` for ``command``, one section per namespace.

    Every key must belong to one of the command's namespaces and to
    ``CONFIG_KEYS``, and no two keys may set the same field; only then are
    the values parsed.  Fields left out are absent from their section.
    """
    namespaces = _COMMAND_NAMESPACES[command]
    for key in cfg:
        if not key.startswith(namespaces):
            raise ConfigError(
                f"key {key!r} does not belong to the {command!r} command "
                f"(accepted namespaces: {', '.join(namespaces)})"
            )
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
    set_by: dict[tuple[str, str], str] = {}
    for key in CONFIG_KEYS:
        if key in cfg:
            first = set_by.setdefault(CONFIG_KEYS[key][:2], key)
            if first != key:
                raise ConfigError(f"{first} and {key} are mutually exclusive")
    sections: dict[str, dict] = {ns[:-1]: {} for ns in namespaces}
    for (section, field), key in set_by.items():
        try:
            sections[section][field] = CONFIG_KEYS[key][2](cfg[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {cfg[key]!r} ({exc})") from None
    return sections


def _require(sections: dict[str, dict], key: str):
    section, field, _ = CONFIG_KEYS[key]
    if field not in sections[section]:
        raise ConfigError(f"missing required key {key!r}")
    return sections[section][field]


def _checked(build, *args, cfg: Mapping[str, str] | None = None, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as a configuration error.

    An error that opens with the field a key of ``cfg`` sets is reported under that key, as written.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        field, _, reason = str(exc).partition(" ")
        for key in cfg or ():
            if CONFIG_KEYS[key][1] == field:
                raise ConfigError(f"{key} {reason.partition(', got ')[0]}, got {cfg[key]}") from None
        raise ConfigError(str(exc)) from None


def _echo_config(out_dir: Path, command: str, *sections) -> None:
    """Write ``resolved_config.txt``: in namespace order, one parameter dataclass or dict per section."""
    lines = [f"command = {command}"]
    for namespace, values in zip(_COMMAND_NAMESPACES[command], sections, strict=True):
        values = values if isinstance(values, dict) else vars(values)
        lines += ["", f"[{namespace[:-1]}]"]
        lines += [f"{name} = {values[name]!r}" for name in sorted(values)]
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _write_table(path: Path, comment: str, header: str, rows) -> None:
    """A CSV table: the ``# comment`` line, the column header, then one formatted row per line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n{header}\n")
        fh.writelines(f"{row}\n" for row in rows)


def _report(out_dir: Path, name: str, lines: list[str]) -> None:
    """Write a text report into ``out_dir`` and print it."""
    text = "\n".join(lines)
    (out_dir / name).write_text(text + "\n")
    print(text)


def _trace_table(times_ps, energy_mev, c_z, c_n, n_molecules: float) -> tuple[str, list[str]]:
    """Header and rows of the five columns that ``trace.csv`` and ``oracle_trace.csv`` share."""
    return "t_ps,E_meV,Cz,n_photons,n_over_N", [
        f"{t:.6f},{e:.10e},{cz:.10e},{cn:.10e},{cn / n_molecules:.10e}"
        for t, e, cz, cn in zip(times_ps, energy_mev, c_z, c_n)
    ]


def _build_common(cfg: Mapping[str, str], sections: dict[str, dict]):
    params = _checked(ModelParams, cfg=cfg, **sections["model"])
    pulse_fields = dict(sections["pulse"])
    if "pulse.photon_ratio" in cfg:
        pulse_fields["amplitude"] = _checked(
            drive_amplitude_from_photon_ratio, pulse_fields["amplitude"], params.n_molecules
        )
    pulse = _checked(PulseParams, cfg=cfg, **pulse_fields)
    solver = _checked(SolverConfig, cfg=cfg, **sections["solver"])
    return params, pulse, solver


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_simulate(cfg: Mapping[str, str], sections: dict[str, dict], out_dir: Path, args) -> int:
    common = params, pulse, solver = _build_common(cfg, sections)
    _echo_config(out_dir, "simulate", *common)
    trace = integrate(params, pulse, solver)
    energy = energy_trace(trace, params)
    _write_table(
        out_dir / "trace.csv",
        " ".join(f"{name}={value!r}" for obj in common for name, value in sorted(vars(obj).items())),
        *_trace_table(trace.times_ps, energy.energy_mev, trace.c_z, trace.c_n, params.n_molecules),
    )

    smoothed = convolve_response(energy, pulse.response_ps)
    _write_table(
        out_dir / "trace_convolved.csv", f"response_ps={pulse.response_ps:g}", "t_ps,E_meV",
        (f"{t:.6f},{e:.10e}" for t, e in zip(smoothed.times_ps, smoothed.energy_mev)),
    )

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
    _report(out_dir, "metrics.txt", lines)
    return EXIT_OK


def cmd_sweep(cfg: Mapping[str, str], sections: dict[str, dict], out_dir: Path, args) -> int:
    common = params, pulse, solver = _build_common(cfg, sections)
    section = sections["sweep"]
    axis = _require(sections, "sweep.axis")
    grid = section.get("grid")
    if grid is None:
        start = _require(sections, "sweep.start")
        stop = _require(sections, "sweep.stop")
        points = _require(sections, "sweep.points")
        if points < 1 or start <= 0 or stop <= start:
            raise ConfigError("sweep bounds need 0 < start < stop and points >= 1")
        grid = np.geomspace(start, stop, points)
    elif {"start", "stop", "points"} & set(section):
        raise ConfigError("sweep.grid and sweep.start/stop/points are mutually exclusive")
    photon_ratio = section.get("photon_ratio")
    lower = section.get("lower_polariton", False)
    _echo_config(out_dir, "sweep", *common, {
        "axis": axis, "grid": [float(v) for v in grid],
        "photon_ratio": photon_ratio, "lower_polariton": lower,
    })
    try:
        points_out = sweep(
            params, axis, grid, pulse, solver,
            photon_ratio=photon_ratio, lower_polariton=lower, workers=args.threads,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_table(
        out_dir / "sweep.csv", f"axis={axis}",
        "axis_value,tau_ps,Emax_meV,Pmax_meV_per_ps,regime,N_kappa,N_gammaz,N_sigma",
        (
            f"{p.axis_value:.8e},{p.tau_ps:.8e},{p.e_max_mev:.8e},{p.p_max_mev_per_ps:.8e},"
            f"{p.regime},{p.n_kappa:.8e},{p.n_gammaz:.8e},{p.n_sigma:.8e}"
            for p in points_out
        ),
    )
    failures = [p for p in points_out if p.error]
    for p in failures:
        logger.warning("sweep point %s=%g failed: %s", axis, p.axis_value, p.error)
    print(f"wrote {len(points_out)} sweep rows ({len(failures)} failed)")
    return EXIT_OK


def _fit_datasets(sections: dict[str, dict], params, pulse, solver, seed: int):
    """The datasets ``fit`` configures, synthetic or read from files, before their noise estimates."""
    section = sections["fit"]
    if section.get("synthetic", False):
        times_spec = section.get("times_fs", (-500.0, 1500.0, 4.0))
        if len(times_spec) != 3 or times_spec[2] <= 0 or times_spec[1] <= times_spec[0]:
            raise ConfigError("fit.times_fs must be start, stop, step with stop > start")
        times = np.arange(times_spec[0], times_spec[1] + 0.5 * times_spec[2], times_spec[2])
        return [make_synthetic_dataset(
            params, pulse, times,
            true_scale=section.get("true_scale", 1.0),
            true_shift_fs=section.get("true_shift_fs", 0.0),
            noise_rms=section.get("noise_rms", 0.0),
            rng=np.random.default_rng(seed),
            solver=solver,
        )]

    paths = _require(sections, "fit.datasets")
    labels = section.get("labels")
    if labels is None:
        labels = tuple(Path(p).stem for p in paths)
    if len(labels) != len(paths):
        raise ConfigError("fit.labels must match fit.datasets in length")
    n_dyes = section.get("n_dye", (None,) * len(paths))
    ratios = section.get("photon_ratio", (None,) * len(paths))
    if len(n_dyes) != len(paths) or len(ratios) != len(paths):
        raise ConfigError("fit.n_dye and fit.photon_ratio must match fit.datasets in length")
    # without pulse.response_fs a dataset's response is the table's lifetime
    response_ps = sections["pulse"].get("response_ps")
    return [
        load_dataset(path, label, n_dye=n_dye, photon_ratio=ratio, response_ps=response_ps)
        for path, label, n_dye, ratio in zip(paths, labels, n_dyes, ratios)
    ]


def cmd_fit(cfg: Mapping[str, str], sections: dict[str, dict], out_dir: Path, args) -> int:
    params, pulse, solver = _build_common(cfg, sections)
    # the fit's table is built at the ModelParams defaults: resonant, omega_a = 2357 meV;
    # its window, which resolved_config.txt echoes, is fit.table_window's
    table = ModelParams()
    for key in cfg:
        section, field, _ = CONFIG_KEYS[key]
        if section == "solver" and field in ("t_start_ps", "t_end_ps"):
            reason = "which integrates over the window its datasets and shift range need"
        elif (
            section == "model" and field in ("delta_c_mev", "delta_a_mev", "omega_a_mev")
            and getattr(params, field) != getattr(table, field)
        ):
            reason = f"whose model table is resonant with omega_a = {table.omega_a_mev:g} meV"
        else:
            continue
        raise ConfigError(f"{key} = {cfg[key]} is not supported by fit, {reason}; remove the key")
    # each stage logs its wall time at INFO; no timing enters an output file
    start = time.perf_counter()
    datasets = _fit_datasets(sections, params, pulse, solver, args.seed)
    logger.info("load: %d datasets, %.3f s", len(datasets), time.perf_counter() - start)
    start = time.perf_counter()
    datasets = [estimate_noise(ds) for ds in datasets]
    logger.info("noise: %.3f s", time.perf_counter() - start)

    section = sections["fit"]
    points = section.get("grid_points", DEFAULT_GRID_POINTS)
    axes = ("g_bounds_nev", "gamma0z_bounds_mev", "gamma_minus_bounds_mev")
    bounds = {name: section[name] for name in axes if name in section}
    grid = _checked(FitGrid.logspace, points=points, **bounds)

    lifetime_fs = section.get("lifetime_fs", DEFAULT_LIFETIME_FS)
    t0_pair = section.get("t0_range_fs", DEFAULT_T0_RANGE_FS)
    refine = section.get("refine", False)

    _, window = table_window(datasets, lifetime_fs, pulse.sigma_ps, t0_pair, solver)
    _echo_config(out_dir, "fit", params, pulse, window, {
        "datasets": [ds.label for ds in datasets],
        "lifetime_fs": lifetime_fs, "grid_points": points,
        "g_bounds_neV": (float(grid.g_nev[0]), float(grid.g_nev[-1])),
        "gamma0z_bounds_meV": (float(grid.gamma0z_mev[0]), float(grid.gamma0z_mev[-1])),
        "gammaminus_bounds_meV": (float(grid.gamma_minus_mev[0]), float(grid.gamma_minus_mev[-1])),
        "t0_range_fs": t0_pair, "refine": refine, "seed": args.seed,
    })

    result = _checked(
        global_fit, datasets, grid, lifetime_fs=lifetime_fs,
        pulse_sigma_ps=pulse.sigma_ps, n_ref=params.n_ref, solver=solver,
        t0_range_fs=t0_pair, workers=args.threads, refine=refine,
    )

    for name, scan in (("chi2_map.csv", result), ("chi2_map_coarse.csv", result.coarse)):
        if scan is not None:
            _write_table(
                out_dir / name,
                f"lifetime_fs={scan.lifetime_fs:g} k_eff={scan.k_eff} "
                f"chi2_reduced_min={scan.chi2_reduced_min:.8e}",
                "g_neV,gamma0z_meV,gammaminus_meV,chi2_reduced",
                (
                    f"{scan.grid.g_nev[i]:.8e},{scan.grid.gamma0z_mev[j]:.8e},"
                    f"{scan.grid.gamma_minus_mev[k]:.8e},{scan.chi2_reduced_map[i, j, k]:.8e}"
                    for i, j, k in np.ndindex(scan.chi2_reduced_map.shape)
                ),
            )

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
    for name, scan in (("failed_coarse", result.coarse), ("failed", result)):
        for (i, j, k), reason in (scan.failed.items() if scan is not None else ()):
            g, gz, gm = scan.grid.g_nev[i], scan.grid.gamma0z_mev[j], scan.grid.gamma_minus_mev[k]
            lines.append(f"{name}[{_fmt(g)}, {_fmt(gz)}, {_fmt(gm)}] = {reason}")
    _report(out_dir, "fit_report.txt", lines)

    for ds in datasets:
        f = result.inner[ds.label]
        res = residuals(result.traces[ds.label], ds, f)
        _write_table(
            out_dir / f"residuals_{ds.label}.csv",
            f"scale={f.scale:.8e} t0_fs={f.t0_fs:.4f} chi2={f.chi2:.8e}", "t_fs,residual_sigma",
            (f"{t:.4f},{r:.8e}" for t, r in zip(ds.times_fs, res)),
        )
    return EXIT_OK


def cmd_spectrum(cfg: Mapping[str, str], sections: dict[str, dict], out_dir: Path, args) -> int:
    params = _checked(ModelParams, cfg=cfg, **sections["model"])
    span = sections["spectrum"].get("span_meV")
    if span is None:
        scale = max(params.g_mev * np.sqrt(params.n_molecules), params.kappa_mev)
        span = 4.0 * scale
    points = sections["spectrum"].get("points", 2001)
    if span <= 0 or points < 3:
        raise ConfigError("spectrum needs span_meV > 0 and points >= 3")
    _echo_config(out_dir, "spectrum", params, {"span_meV": span, "points": points})
    detunings = np.linspace(-span, span, points)
    result = absorption_spectrum(params, detunings)
    _write_table(
        out_dir / "spectrum.csv",
        f"omega_eff_meV={result.omega_eff_mev:.8e} overdamped={result.overdamped} "
        f"gamma_tot_meV={result.gamma_tot_mev:.8e}",
        "delta_nu_meV,absorption",
        (f"{d:.8e},{a:.8e}" for d, a in zip(result.detunings_mev, result.absorption)),
    )
    peaks = result.peak_detunings()
    lines = [
        f"omega_eff_meV = {_fmt(result.omega_eff_mev)}",
        f"splitting_meV = {_fmt(2.0 * result.omega_eff_mev)}",
        f"overdamped = {result.overdamped}",
        f"n_peaks = {result.n_peaks}",
        f"n_lines = {result.n_lines}",
        "peaks_meV = " + ", ".join(_fmt(p) for p in peaks),
    ]
    _report(out_dir, "spectrum_summary.txt", lines)
    return EXIT_OK


def cmd_oracle_check(cfg: Mapping[str, str], sections: dict[str, dict], out_dir: Path, args) -> int:
    common = params, pulse, solver = _build_common(cfg, sections)
    oracle = _checked(OracleConfig, **sections["oracle"])
    _echo_config(out_dir, "oracle-check", *common, oracle)
    lines = []
    ok = True

    exact = _checked(evolve_exact, params, pulse, solver, oracle)
    e_exact = exact.energy_mev(params.omega_a_mev)
    peak = float(np.max(np.abs(e_exact)))
    if peak <= 0.0:
        raise ConfigError("oracle trace has no excitation; increase pulse.eta0")
    header, rows = _trace_table(
        exact.times_ps, e_exact, np.real(exact.moments["c_z"]), np.real(exact.moments["c_n"]),
        exact.n_molecules,
    )
    diagnostics = zip(rows, exact.top_fock_pop, exact.trace_error, exact.min_eigenvalue)
    _write_table(
        out_dir / "oracle_trace.csv",
        f"exact propagation: n_molecules={exact.n_molecules} n_max={exact.n_max}",
        header + ",top_fock_pop,trace_err,min_eig",
        (f"{row},{top:.3e},{err:.3e},{eig:.3e}" for row, top, err, eig in diagnostics),
    )

    errors = {}
    closure_runs = {}
    for closure in ("cumulant", "meanfield"):
        trace = closure_runs[closure] = integrate(params, pulse, replace(solver, closure=closure))
        e_model = energy_density_from_inversion(trace.c_z, params.omega_a_mev)
        errors[closure] = float(np.max(np.abs(e_model - e_exact))) / peak
    passed = errors["cumulant"] <= 0.02
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} closure vs exact: cumulant rel err "
        f"{errors['cumulant']:.3e}, meanfield {errors['meanfield']:.3e} (limit 2e-2)"
    )

    # both bracket forms on the cumulant closure, the only one with an <a sx> equation
    variant = integrate(params, pulse, replace(solver, closure="cumulant"), ax_bracket="variant")
    bracket_errs = {
        bracket: compare_cumulant(exact, trace, observables=("c_z",))["c_z"].max_rel_error
        for bracket, trace in (("consistent", closure_runs["cumulant"]), ("variant", variant))
    }
    passed = bracket_errs["consistent"] <= bracket_errs["variant"]
    ok &= passed
    lines.append(
        f"{'PASS' if passed else 'FAIL'} pair-bracket forms: consistent rel err "
        f"{bracket_errs['consistent']:.3e} vs variant {bracket_errs['variant']:.3e}"
    )

    g0 = replace(params, g_mev=0.0, delta_c_mev=0.0)
    trace = integrate(g0, pulse, solver)
    closed = empty_cavity_amplitude(g0.kappa_mev, pulse, trace.times_ps)
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
    _report(out_dir, "oracle_report.txt", lines)
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
        help="log threshold on stderr; INFO reports every fit batch and chi^2 reduction pass",
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
        sections = parse_config(cfg, args.command)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, sections, out_dir, args)
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
