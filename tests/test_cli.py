"""End-to-end checks of the command-line interface and its exit codes."""

from __future__ import annotations

import ast
import dataclasses
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickesim import cli, fit
from dickesim.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_config,
    read_config_file,
)
from dickesim.cumulant import EnergyTrace, SolverConfig
from dickesim.lindblad import OracleConfig
from dickesim.model import (
    HBAR_MEV_PS,
    ConfigError,
    ModelParams,
    PulseParams,
    wavelength_nm_to_mev,
)
from test_golden import CASES as GOLDEN_CASES

A1_CFG = """\
# best-fit configuration, highest concentration run
model.N = 16.20e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.photon_ratio = 0.11728395061728394   # 1.90e10 / 16.20e10
pulse.sigma_fs = 20
pulse.response_fs = 120
solver.t_start_ps = -0.5
solver.t_end_ps = 3.5
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture(scope="module")
def a1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("a1_out")
    cfg = write_cfg(tmp_path_factory.mktemp("a1_cfg"), A1_CFG)
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    return cfg, out


class TestConfigParsing:
    def test_comments_types_and_duplicates(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("a.x = 1  # trailing\n\n# full line\nb.y = two words\n")
        assert read_config_file(p) == {"a.x": "1", "b.y": "two words"}
        p.write_text("a.x = 1\na.x = 2\n")
        with pytest.raises(Exception, match="duplicate"):
            read_config_file(p)

    @pytest.mark.parametrize("line", ["just words", "= 3", "a.x ="])
    def test_malformed_lines(self, tmp_path, line):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(Exception, match="c.cfg:1"):
            read_config_file(p)

    def test_config_round_trip_with_lifetime_and_ratio(self):
        cfg = {
            "model.N": "8.08e10",
            "model.g_neV": "10.6",
            "model.lifetime_fs": "120",
            "model.gamma0z_meV": "1.68",
            "model.gamma_minus_meV": "0.0141",
            "pulse.photon_ratio": "0.25",
            "pulse.sigma_fs": "20",
        }
        params, pulse, _ = build_common(cfg)
        assert params.kappa_mev == pytest.approx(HBAR_MEV_PS / 0.120)
        assert params.g_mev == pytest.approx(10.6e-6)
        assert pulse.amplitude == pytest.approx(math.sqrt(0.25 * 8.08e10))
        assert pulse.sigma_ps == pytest.approx(0.020)

    def test_config_rejects_unknown_and_conflicting_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"model.gnev": "1"}, "simulate")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config({"model.kappa_meV": "5", "model.lifetime_fs": "120"}, "simulate")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config({"pulse.eta0": "1", "pulse.photon_ratio": "0.1"}, "simulate")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config({"model.N": "many"}, "simulate")

    def test_wavelength_key_sets_transition_energy(self):
        params, _, _ = build_common({"model.wavelength_nm": "526"})
        assert params.omega_a_mev == pytest.approx(wavelength_nm_to_mev(526.0))

    def test_known_keys_cover_both_namespaces(self):
        keys = set(CONFIG_KEYS)
        assert "model.N" in keys and "pulse.eta0" in keys and "pulse.photon_ratio" in keys

    def test_solver_config_parsing_and_rejection(self):
        _, _, cfg = build_common({
            "solver.t_start_ps": "-0.3",
            "solver.t_end_ps": "2.5",
            "solver.output_dt_fs": "4",
            "solver.rel_tol": "1e-9",
        })
        assert cfg.t_end_ps == pytest.approx(2.5)
        assert cfg.output_dt_ps == pytest.approx(0.004)
        assert cfg.rel_tol == pytest.approx(1e-9)
        with pytest.raises(ConfigError):
            build_common({"solver.t_stop_ps": "2"})
        with pytest.raises(ConfigError):
            build_common({"solver.t_start_ps": "3", "solver.t_end_ps": "1"})
        with pytest.raises(ValueError):
            SolverConfig(closure="exact")


def build_common(cfg):
    """(ModelParams, PulseParams, SolverConfig) of a ``simulate`` config."""
    return cli._build_common(cfg, parse_config(cfg, "simulate"))


class TestRegistry:
    def test_fields_belong_to_their_classes(self):
        classes = {"model": ModelParams, "pulse": PulseParams, "solver": SolverConfig, "oracle": OracleConfig}
        for key, (section, field, _) in CONFIG_KEYS.items():
            assert key.startswith(section + "."), key
            if section in classes:
                assert field in {f.name for f in dataclasses.fields(classes[section])}, key

    def test_every_section_is_used_by_a_command(self):
        used = {ns[:-1] for namespaces in cli._COMMAND_NAMESPACES.values() for ns in namespaces}
        assert {section for section, _, _ in CONFIG_KEYS.values()} <= used

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.findall(r"^\| `(\w+\.\w+)` \|", readme, flags=re.MULTILINE)
        assert sorted(listed) == sorted(CONFIG_KEYS)

    @pytest.mark.parametrize(
        "pair",
        [("model.kappa_meV = 5", "model.lifetime_fs = 120"),
         ("model.omega_a_meV = 2357", "model.wavelength_nm = 526"),
         ("pulse.eta0 = 0.1", "pulse.photon_ratio = 0.1")],
        ids=["kappa-lifetime", "omega-wavelength", "eta0-ratio"],
    )
    def test_alternative_keys_are_mutually_exclusive(self, tmp_path, capsys, pair):
        cfg = write_cfg(tmp_path, "\n".join(pair) + "\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"{pair[0].split(' = ')[0]} and {pair[1].split(' = ')[0]} are mutually exclusive" in (
            capsys.readouterr().err
        )


class TestSimulate:
    def test_outputs_and_reported_metrics(self, a1_run):
        _, out = a1_run
        for name in ("trace.csv", "trace_convolved.csv", "metrics.txt", "resolved_config.txt"):
            assert (out / name).exists(), name
        metrics = (out / "metrics.txt").read_text()
        # collective charging of the densest film: fast, strong and bright
        assert "tau_ps = 0.0942" in metrics
        assert "E_max_meV = 110.8" in metrics
        assert "P_max_meV_per_ps = 811." in metrics
        assert "regime = crossover" in metrics
        resolved = (out / "resolved_config.txt").read_text()
        assert "command = simulate" in resolved
        assert "[model]" in resolved and "[pulse]" in resolved
        assert "n_molecules = 162000000000.0" in resolved
        # eta0 = sqrt(photon count), derived from the configured ratio
        assert "amplitude = 137840.4875209022" in resolved

    def test_trace_files_are_well_formed(self, a1_run):
        _, out = a1_run
        raw = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)
        smooth = np.loadtxt(out / "trace_convolved.csv", delimiter=",", skiprows=2)
        assert raw.shape[1] >= 4
        assert smooth.shape[1] == 2
        # the smoothed curve peaks later and lower than the bare one
        assert smooth[:, 1].max() < 110.0
        header = (out / "trace.csv").read_text().splitlines()[1]
        assert header.startswith("t_ps,")

    def test_reruns_are_byte_identical(self, a1_run, tmp_path):
        cfg, out = a1_run
        again = tmp_path / "again"
        assert main(["simulate", "--config", cfg, "--out", str(again)]) == EXIT_OK
        for name in ("trace.csv", "trace_convolved.csv", "metrics.txt"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name


SYNTHETIC_FIT_CFG = """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121287128712871
pulse.response_fs = 120
fit.synthetic = true
fit.times_fs = -500, 1500, 8
fit.noise_rms = 0.02
"""


def _a2_fit_config(tmp_path, signal: float, extra: str) -> str:
    """A one-point fit of one measured A2 file: a Gaussian bump of height ``signal`` plus noise."""
    times = np.arange(-500.0, 1500.0, 8.0)
    data = signal * np.exp(-(((times - 200.0) / 300.0) ** 2))
    data += signal * np.random.default_rng(5).normal(scale=0.01, size=times.size)
    path = tmp_path / "A2.csv"
    np.savetxt(path, np.column_stack([times, data]), delimiter=",")
    return write_cfg(tmp_path, f"pulse.sigma_fs = 20\nfit.datasets = {path}\nfit.grid_points = 1\n" + extra)


class TestExitCodes:
    @pytest.mark.parametrize(
        "cfg_text",
        [
            A1_CFG + "model.bogus = 1\n",
            A1_CFG + "sweep.axis = N\n",  # foreign namespace for simulate
            A1_CFG.replace("model.N = 16.20e10", "model.N = spam"),
            A1_CFG.replace("pulse.photon_ratio = 0.11728395061728394   # 1.90e10 / 16.20e10",
                           "pulse.photon_ratio = 0.1\npulse.eta0 = 3.0"),
        ],
        ids=["unknown-key", "foreign-namespace", "bad-value", "exclusive-drive"],
    )
    def test_bad_configuration_exits_2(self, tmp_path, capsys, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg_text, message",
        [
            ("oracle-check", A1_CFG + "oracle.n_max = 0\n", "n_max must be at least 1"),
            ("fit", SYNTHETIC_FIT_CFG + "fit.grid_points = 0\n", "points must be at least 1"),
            ("fit", SYNTHETIC_FIT_CFG + "fit.grid_points = 1\nfit.t0_range_fs = 0.5, 1.5\n",
             "t0 range holds no whole model step"),
            ("fit", SYNTHETIC_FIT_CFG + "fit.g_bounds_neV = 5, 10, 20\n",
             "bad value for fit.g_bounds_neV: '5, 10, 20' (expected two numbers, got 3)"),
            ("fit", SYNTHETIC_FIT_CFG + "fit.grid_points = 1\nfit.t0_range_fs = 400, -400\n",
             "t0 range must have positive width"),
            ("oracle-check", A1_CFG.replace("model.N = 16.20e10", "model.N = 2.5"),
             "exact propagation needs a positive integer molecule count, got 2.5"),
            ("oracle-check", A1_CFG.replace("model.N = 16.20e10", "model.N = 3") + "oracle.n_max = 20\n",
             "N = 3 at n_max = 20 exceeds the cap of 8192 class values, C(N + 3, 3) (n_max + 1)^2, "
             "which admits N <= 2 at n_max = 20; lower N or n_max"),
            # the bundled A1 configuration as it stands, at the default n_max of 8
            ("oracle-check", A1_CFG,
             "N = 1.62e+11 at n_max = 8 exceeds the cap of 8192 class values, C(N + 3, 3) (n_max + 1)^2, "
             "which admits N <= 6 at n_max = 8; lower N or n_max"),
            # at the default N_ref of 8.08e10, gamma_z = gamma0z N_ref / N is 4.5e10 meV
            ("oracle-check", A1_CFG.replace("model.N = 16.20e10", "model.N = 3") + "oracle.n_max = 7\n",
             "the exact propagation would take about 5.0e+11 RK45 steps (limit 1e+06)"),
        ],
        ids=["oracle-n-max", "fit-grid-points", "fit-t0-range-without-a-step", "fit-three-numbers",
             "fit-inverted-t0-range", "oracle-fractional-n", "oracle-hilbert-dimension", "oracle-a1-molecule-count",
             "oracle-stiff"],
    )
    def test_bad_command_configuration_exits_2(self, tmp_path, capsys, command, cfg_text, message):
        cfg = write_cfg(tmp_path, cfg_text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pulse.response_fs = -100", "pulse.response_fs must be finite and non-negative, got -100"),
            ("pulse.response_fs = nan", "pulse.response_fs must be finite and non-negative, got nan"),
            ("pulse.sigma_fs = -20", "pulse.sigma_fs must be finite and positive, got -20"),
            ("solver.output_dt_fs = -2", "solver.output_dt_fs must be positive, got -2"),
            ("model.g_neV = -3", "model.g_neV must be a finite non-negative energy, got -3"),
        ],
        ids=["negative-response", "nan-response", "negative-sigma", "negative-output-step", "negative-coupling"],
    )
    def test_a_bad_value_is_reported_under_its_key_as_written(self, tmp_path, capsys, line, message):
        cfg = write_cfg(tmp_path, line + "\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_threads_must_be_positive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, A1_CFG)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path), "--threads", "0"])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_undriven_simulation_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 1e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.eta0 = 0
pulse.sigma_fs = 20
solver.t_start_ps = -0.2
solver.t_end_ps = 0.5
""")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERIC
        assert "error:" in capsys.readouterr().err

    def test_missing_dataset_file_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.photon_ratio = 0.121
pulse.sigma_fs = 20
fit.datasets = /nonexistent/a2.csv
fit.labels = A2
""")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA
        assert "cannot read" in capsys.readouterr().err

    def test_a_noise_window_without_time_extent_exits_4(self, tmp_path, capsys):
        # all six samples of the [-300, 300) fs window sit at t = 0
        times = np.arange(-500.0, 1500.0, 8.0)
        times = np.sort(np.r_[times[(times < -300.0) | (times >= 300.0)], np.zeros(6)])
        path = tmp_path / "A3.csv"
        np.savetxt(path, np.column_stack([times, np.random.default_rng(5).normal(size=times.size)]))
        cfg = write_cfg(tmp_path, f"pulse.sigma_fs = 20\nfit.datasets = {path}\nfit.grid_points = 1\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "noise window [-300, 300) fs has all its samples at 0 fs" in capsys.readouterr().err

    def test_duplicate_dataset_labels_exit_4(self, tmp_path, capsys):
        times = np.arange(-500.0, 1500.0, 8.0)
        signal = np.random.default_rng(5).normal(scale=0.01, size=times.size) + np.exp(
            -(((times - 200.0) / 300.0) ** 2)
        )
        paths = []
        for run in ("run1", "run2"):
            (tmp_path / run).mkdir()
            path = tmp_path / run / "A1.csv"
            np.savetxt(path, np.column_stack([times, signal]), delimiter=",")
            paths.append(str(path))
        cfg = write_cfg(tmp_path, "fit.datasets = " + ", ".join(paths) + "\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "label 'A1' is used by 2 datasets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["model.delta_a_meV = 20", "model.delta_c_meV = -3", "model.omega_a_meV = 2000",
         "model.wavelength_nm = 600", "solver.t_start_ps = -0.5", "solver.t_end_ps = 3.5"],
    )
    def test_fit_rejects_model_keys_its_table_ignores(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + line + "\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err and "not supported by fit" in err
        assert not (tmp_path / "out" / "fit_report.txt").exists()

    @pytest.mark.parametrize(
        "signal, extra, message",
        [
            (0.0, "", "dataset 'A2' has no signal to scale"),
            (1.0, "fit.photon_ratio = 0\n", "every grid point failed"),
        ],
        ids=["zero-signal", "zero-photon-ratio"],
    )
    @pytest.mark.filterwarnings("ignore:noise window")
    def test_data_the_fit_cannot_scale_exits_4(self, tmp_path, capsys, signal, extra, message):
        cfg = _a2_fit_config(tmp_path, signal, extra)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "signal, extra, code, message",
        [
            (0.0, "", EXIT_DATA, "dataset 'A2' has no signal to scale"),
            (1.0, "fit.t0_range_fs = 0.5, 1.5\n", EXIT_CONFIG, "t0 range holds no whole model step"),
        ],
        ids=["zero-signal", "t0-range-without-a-step"],
    )
    @pytest.mark.filterwarnings("ignore:noise window")
    def test_checks_of_the_data_alone_fail_before_the_table(
        self, tmp_path, capsys, monkeypatch, signal, extra, code, message
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("the model table was integrated")

        monkeypatch.setattr(fit, "model_traces", no_table)
        cfg = _a2_fit_config(tmp_path, signal, extra)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert f"error: {message}" in capsys.readouterr().err


class TestSweep:
    def test_two_point_molecule_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121
solver.t_start_ps = -0.3
solver.t_end_ps = 2.5
sweep.axis = N
sweep.start = 1e10
sweep.stop = 1e11
sweep.points = 2
sweep.photon_ratio = 0.121
""")
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=2, usecols=(0, 1, 2, 3))
        assert rows.shape == (2, 4)
        np.testing.assert_allclose(rows[:, 0], [1e10, 1e11])
        assert np.all(rows[:, 1:] > 0)
        text = (out / "sweep.csv").read_text()
        assert text.splitlines()[1].startswith("axis_value,tau_ps,")
        assert "decay-dominated" in text

    def test_grid_and_bounds_are_exclusive(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121
sweep.axis = N
sweep.grid = 1e10, 1e11
sweep.start = 1e10
sweep.stop = 1e11
sweep.points = 2
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "mutually exclusive" in capsys.readouterr().err

    def test_threads_give_byte_identical_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GOLDEN_CASES["sweep"][1])
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--threads", threads]) == EXIT_OK
            outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        capsys.readouterr()
        assert "sweep.csv" in outs["1"]
        assert outs["1"] == outs["2"]

    def test_a_failed_point_is_reported_once(self, tmp_path, capsys, caplog):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
solver.t_start_ps = -0.3
solver.t_end_ps = 1.5
sweep.axis = r
sweep.grid = 0, 0.1
""")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "(1 failed)" in capsys.readouterr().out
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [(r.name, "r=0 failed" in r.getMessage()) for r in warnings] == [("dickesim.cli", True)]


class TestFit:
    def test_threads_give_byte_identical_outputs(self, tmp_path, capsys):
        # a three-point refine around the middle node keeps the coarse result
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + """\
fit.grid_points = 3
fit.g_bounds_neV = 8.153846153846153, 13.78
fit.gamma0z_bounds_meV = 1.2923076923076922, 2.184
fit.gammaminus_bounds_meV = 0.010846153846153846, 0.01833
fit.refine = true
""")
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["fit", "--config", cfg, "--out", str(out), "--threads", threads]) == EXIT_OK
            outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        capsys.readouterr()
        assert "chi2_map_coarse.csv" in outs["1"] and "residuals_synthetic.csv" in outs["1"]
        assert outs["1"] == outs["2"]

    def test_failed_grid_points_are_listed_in_the_report(self, tmp_path, capsys, monkeypatch):
        build = fit.model_traces

        def with_a_flat_member(*args, **kwargs):
            table = build(*args, **kwargs)
            trace = table[(0, 0, 0, 0)]
            flat = EnergyTrace(trace.times_ps, np.zeros(trace.times_ps.size))
            return fit.ModelTable({**table, (0, 0, 0, 0): flat}, table.grid, table.n_datasets)

        monkeypatch.setattr(fit, "model_traces", with_a_flat_member)
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + """\
fit.grid_points = 3
fit.g_bounds_neV = 8.153846153846153, 13.78
fit.gamma0z_bounds_meV = 1.2923076923076922, 2.184
fit.gammaminus_bounds_meV = 0.010846153846153846, 0.01833
""")
        out = tmp_path / "fit_out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = (out / "fit_report.txt").read_text().splitlines()
        assert [line for line in report if line.startswith("failed")] == [
            "failed[8.15385, 1.29231, 0.0108462] = "
            "synthetic: model trace has no amplitude over the data at shift 0 fs"
        ]
        assert "g_neV = 10.6" in report

    def test_synthetic_single_point_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121287128712871
pulse.response_fs = 120
fit.synthetic = true
fit.times_fs = -500, 1500, 8
fit.noise_rms = 0.02
fit.grid_points = 1
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
""")
        out = tmp_path / "fit_out"
        with pytest.warns(UserWarning, match="boundary"):
            code = main(["fit", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        report = (out / "fit_report.txt").read_text()
        assert "g_neV = 10.6" in report
        assert "confidence = unavailable (minimum on grid boundary)" in report
        assert "scale[synthetic]" in report
        assert (out / "residuals_synthetic.csv").exists()
        map_rows = (out / "chi2_map.csv").read_text().splitlines()
        assert len(map_rows) == 3  # two header lines plus the single grid point

    def test_seed_changes_the_noise_draw(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121287128712871
pulse.response_fs = 120
fit.synthetic = true
fit.times_fs = -500, 1500, 8
fit.noise_rms = 0.02
fit.grid_points = 1
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
""")
        outs = []
        for seed, tag in [("1", "s1"), ("1", "s1b"), ("2", "s2")]:
            out = tmp_path / tag
            with pytest.warns(UserWarning, match="boundary"):
                assert main(["fit", "--config", cfg, "--out", str(out), "--seed", seed]) == EXIT_OK
            outs.append((out / "fit_report.txt").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_residuals_use_the_configured_solver(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121287128712871
pulse.response_fs = 120
solver.closure = meanfield
solver.rel_tol = 1e-6
fit.synthetic = true
fit.times_fs = -500, 1500, 8
fit.noise_rms = 0.02
fit.grid_points = 1
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
""")
        results = []
        global_fit = cli.global_fit

        def recording_global_fit(*args, **kwargs):
            results.append(global_fit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "global_fit", recording_global_fit)
        out = tmp_path / "fit_out"
        with pytest.warns(UserWarning, match="boundary"):
            assert main(["fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        (result,) = results
        header = (out / "residuals_synthetic.csv").read_text().splitlines()[0]
        chi2 = float(header.rsplit("chi2=", 1)[1])
        # the header prints nine significant digits; compare at that precision
        expected = float(f"{result.chi2_reduced_min * result.k_eff:.8e}")
        assert chi2 == pytest.approx(expected, rel=1e-12)

    def test_residuals_reuse_the_fit_traces(self, tmp_path, capsys, monkeypatch):
        # one dataset at one grid point: the synthetic data and the table trace
        # are the only integrated members, and the residuals read the table's
        # trace
        calls = []

        def counting(*args, _original=fit.simulate_energy, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fit, "simulate_energy", counting)
        assert not hasattr(cli, "simulate_energy")

        def counting_batch(params, pulse, solver, _original=fit.simulate_energies):
            calls.extend(params)
            return _original(params, pulse, solver)

        monkeypatch.setattr(fit, "simulate_energies", counting_batch)
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + """\
fit.grid_points = 1
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
""")
        with pytest.warns(UserWarning, match="boundary"):
            assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == 2
        assert (tmp_path / "out" / "residuals_synthetic.csv").exists()


    @pytest.mark.parametrize("line, response_ps", [("", None), ("pulse.response_fs = 150", 0.150)])
    def test_measured_data_take_the_response_from_the_lifetime(self, tmp_path, line, response_ps):
        # without pulse.response_fs a measured dataset carries no response of
        # its own, so the table convolves and pads it with fit.lifetime_fs
        times = np.arange(-500.0, 1500.0, 8.0)
        signal = np.random.default_rng(5).normal(scale=0.01, size=times.size) + np.exp(
            -(((times - 200.0) / 300.0) ** 2)
        )
        path = tmp_path / "A2.csv"
        np.savetxt(path, np.column_stack([times, signal]), delimiter=",")
        cfg = read_config_file(write_cfg(tmp_path, f"fit.datasets = {path}\nfit.lifetime_fs = 185\n{line}\n"))
        sections = parse_config(cfg, "fit")
        (dataset,) = cli._fit_datasets(sections, *cli._build_common(cfg, sections), seed=0)
        assert dataset.response_ps == response_ps
        grid = fit.FitGrid(np.array([10.6]), np.array([1.68]), np.array([0.0141]))
        tasks = fit._member_tasks([dataset], grid, 185.0, 0.020, 8.08e10, None, (-400.0, 400.0))
        ((_, pulse, solver),) = tasks.values()
        assert pulse.response_ps == pytest.approx(response_ps or 0.185)
        assert solver.t_end_ps == pytest.approx(times[-1] * 1e-3 + 0.4 + 5.0 * (response_ps or 0.185) + 0.05)

    def test_map_csv_round_trips_the_chi2_map(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + """\
fit.grid_points = 3
fit.g_bounds_neV = 8.153846153846153, 13.78
fit.gamma0z_bounds_meV = 1.2923076923076922, 2.184
fit.gammaminus_bounds_meV = 0.010846153846153846, 0.01833
""")
        results = []
        global_fit = cli.global_fit

        def recording_global_fit(*args, **kwargs):
            results.append(global_fit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "global_fit", recording_global_fit)
        path = tmp_path / "out" / "chi2_map.csv"
        assert main(["fit", "--config", cfg, "--out", str(path.parent)]) == EXIT_OK
        capsys.readouterr()
        (result,) = results
        rows = np.loadtxt(path, delimiter=",", skiprows=2)
        assert rows.shape == (27, 4)
        np.testing.assert_allclose(
            rows[:, 3].reshape(3, 3, 3), result.chi2_reduced_map, rtol=1e-7
        )
        header = path.read_text().splitlines()[0]
        assert "k_eff" in header and "lifetime_fs=120" in header

    def test_log_level_info_reports_each_batch(self, tmp_path, capsys, caplog):
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + """\
fit.grid_points = 1
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
""")
        argv = ["fit", "--config", cfg, "--out", str(tmp_path / "quiet")]
        with pytest.warns(UserWarning, match="boundary"):
            assert main(argv) == EXIT_OK
        assert not [r for r in caplog.records if r.levelname == "INFO"]
        argv = ["fit", "--config", cfg, "--out", str(tmp_path / "loud"), "--log-level", "INFO"]
        package = logging.getLogger("dickesim")
        try:
            with pytest.warns(UserWarning, match="boundary"):
                assert main(argv) == EXIT_OK
        finally:
            package.setLevel(logging.WARNING)
        capsys.readouterr()
        # one line per integrated batch, then one per table and one per chi^2 reduction pass
        infos = [r.getMessage() for r in caplog.records if r.name == "dickesim.fit" and r.levelname == "INFO"]
        assert len(infos) == 3 and infos[0].startswith("synthetic: 1 members")
        assert "rhs calls" in infos[0]
        assert infos[1].startswith("table: 1 members, ")
        assert infos[2].startswith("chi^2 reduction: 1 members, 401 lattice shifts, ")
        assert ", 0 failed grid points, " in infos[2]
        for name in ("chi2_map.csv", "fit_report.txt", "residuals_synthetic.csv"):
            assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "loud" / name).read_bytes()
        with pytest.raises(SystemExit):
            main(["fit", "--config", cfg, "--log-level", "LOUD"])

    def test_each_fit_stage_logs_its_wall_time_once_per_pass(self, tmp_path, capsys, caplog):
        # one point zooms onto itself, so its refine has no pass of its own; two points zoom
        # onto other nodes, whose pass logs a table and a chi^2 reduction inside the refine stage
        coarse = ["load", "noise", "table", "chi^2 reduction"]
        package = logging.getLogger("dickesim")
        for points, members, order in (
            (1, 0, coarse + ["refine"]), (2, 8, coarse + ["table", "chi^2 reduction", "refine"]),
        ):
            cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + f"""\
fit.grid_points = {points}
fit.g_bounds_neV = 10.6, 11.0
fit.gamma0z_bounds_meV = 1.68, 2.0
fit.gammaminus_bounds_meV = 0.0141, 0.02
fit.refine = true
""")
            out = tmp_path / str(points)
            caplog.clear()
            try:
                with pytest.warns(UserWarning, match="boundary"):
                    assert main(["fit", "--config", cfg, "--out", str(out), "--log-level", "INFO"]) == EXIT_OK
            finally:
                package.setLevel(logging.WARNING)
            capsys.readouterr()
            messages = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
            timed = [m for m in messages if m.partition(": ")[0] in order]
            assert [m.partition(": ")[0] for m in timed] == order
            assert all(re.search(r"\d\.\d+ s$", m) for m in timed), timed
            assert timed[-1].startswith(f"refine: {members} members, ")


class TestSpectrum:
    def test_strong_coupling_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 1e12
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
spectrum.span_meV = 40
spectrum.points = 4001
""")
        out = tmp_path / "spec_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        summary = (out / "spectrum_summary.txt").read_text()
        assert "overdamped = False" in summary
        assert "n_lines = 2" in summary
        assert "splitting_meV = 20.6" in summary
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
        assert rows.shape == (4001, 2)


class TestOracleCheck:
    GOLDEN_CFG = GOLDEN_CASES["oracle-check"][1]

    def test_single_molecule_report_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """\
model.N = 1
model.g_neV = 5.4e8
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.N_ref = 1
model.gamma_minus_meV = 0.0141
pulse.eta0 = 0.1
pulse.sigma_fs = 20
solver.t_start_ps = -0.2
solver.t_end_ps = 1.0
oracle.n_max = 8
""")
        out = tmp_path / "oracle_out"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout
        report = (out / "oracle_report.txt").read_text()
        assert report.count("PASS") == 3

    def test_no_excitation_exits_2_before_writing_the_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.GOLDEN_CFG.replace("pulse.eta0 = 0.1", "pulse.eta0 = 1e-300"))
        out = tmp_path / "oracle_out"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "no excitation" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.txt"]

    def test_bracket_forms_run_on_the_cumulant_closure(self, tmp_path, capsys):
        # mean field has no <a sx> equation, so a bracket check on it could not fail
        cfg = write_cfg(tmp_path, self.GOLDEN_CFG + "solver.closure = meanfield\n")
        out = tmp_path / "oracle_out"
        assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        report = (out / "oracle_report.txt").read_text()
        consistent, variant = re.search(r"consistent rel err (\S+) vs variant (\S+)", report).groups()
        assert float(variant) >= 100.0 * float(consistent)


def _file_writes(path: Path) -> list[int]:
    """Lines of ``path`` that open a file for writing or call a write-a-file method."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "savetxt", "tofile"):
            lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) or Path.open(mode)
            position = 0 if isinstance(func, ast.Attribute) else 1
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                lines.append(node.lineno)
    return lines


def test_only_the_cli_writes_files():
    # file names, column orders and number formats are decided in one module
    package = Path(cli.__file__).parent
    assert _file_writes(package / "cli.py")
    writes = {p.name: _file_writes(p) for p in sorted(package.glob("*.py")) if p.name != "cli.py"}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def _function_level_imports(path: Path) -> list[str]:
    """``function:line`` of every import of a package module inside a function body."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else ["dickesim"]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m == "dickesim" or m.startswith("dickesim.") for m in modules):
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_package_modules_are_imported_at_module_level():
    # an import hidden in a function body hides a dependency cycle between modules
    package = Path(cli.__file__).parent
    imports = {p.name: _function_level_imports(p) for p in sorted(package.glob("*.py"))}
    assert {name: found for name, found in imports.items() if found} == {}


def test_console_script_shows_all_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "dickesim", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("simulate", "sweep", "fit", "spectrum", "oracle-check"):
        assert name in proc.stdout
