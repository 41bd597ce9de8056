"""End-to-end checks of the command-line interface and its exit codes."""

from __future__ import annotations

import logging
import subprocess
import sys

import numpy as np
import pytest

from dickesim import cli, fit
from dickesim.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    read_config_file,
)

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
         "model.wavelength_nm = 600"],
    )
    def test_fit_rejects_model_keys_its_table_ignores(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, SYNTHETIC_FIT_CFG + line + "\n")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err and "not supported by fit" in err
        assert not (tmp_path / "out" / "fit_report.txt").exists()


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


class TestFit:
    def test_threads_give_byte_identical_outputs(self, tmp_path, capsys):
        # a three-point refine: the fine pass takes every trace from the coarse table
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

        def counting_batch(params, pulses, solver, _original=fit.simulate_energies):
            calls.extend(params)
            return _original(params, pulses, solver)

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
        batches = [r.getMessage() for r in caplog.records if r.name == "dickesim.fit" and r.levelname == "INFO"]
        assert len(batches) == 1 and batches[0].startswith("synthetic: 1 members")
        assert "rhs calls" in batches[0]
        for name in ("chi2_map.csv", "fit_report.txt", "residuals_synthetic.csv"):
            assert (tmp_path / "quiet" / name).read_bytes() == (tmp_path / "loud" / name).read_bytes()
        with pytest.raises(SystemExit):
            main(["fit", "--config", cfg, "--log-level", "LOUD"])


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


def test_console_script_shows_all_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "dickesim", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("simulate", "sweep", "fit", "spectrum", "oracle-check"):
        assert name in proc.stdout
