"""Dataset ingestion, noise estimation and the global rate fit."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import dickesim.fit as fit_module
from dickesim.cumulant import SolverConfig
from dickesim.fit import (
    DataError,
    ExperimentDataset,
    FitBoundaryError,
    FitGrid,
    LABEL_INFO,
    confidence_intervals,
    estimate_noise,
    global_fit,
    inner_fit,
    load_dataset,
    make_synthetic_dataset,
    model_traces,
    residuals,
    write_map_csv,
)
from dickesim.fit import _window_sigma
from dickesim.model import ModelParams, PulseParams, drive_amplitude_from_photon_ratio
from dickesim.observables import EnergyTrace


def write_two_columns(path, times, signal, header="", sep=" "):
    lines = [header] if header else []
    lines += [f"{t}{sep}{d}" for t, d in zip(times, signal)]
    path.write_text("\n".join(lines) + "\n")


def flat_times(n=40, dt_fs=50.0, start_fs=-500.0):
    return start_fs + dt_fs * np.arange(n)


class TestLoadDataset:
    def test_comments_blanks_and_commas_are_handled(self, tmp_path):
        t = flat_times()
        d = 0.1 * np.ones_like(t)
        p = tmp_path / "a2.csv"
        write_two_columns(p, t, d, header="# time_fs, dR/R\n", sep=", ")
        ds = load_dataset(p, "A2")
        assert ds.n_points == t.size
        np.testing.assert_allclose(ds.times_fs, t)
        np.testing.assert_allclose(ds.signal, d)

    def test_known_label_brings_its_metadata(self, tmp_path):
        p = tmp_path / "b2.csv"
        write_two_columns(p, flat_times(), np.zeros(40))
        ds = load_dataset(p, "B2")
        n, phot = LABEL_INFO["B2"]
        assert ds.n_dye == n
        assert ds.photon_ratio == pytest.approx(phot / n)

    def test_explicit_metadata_overrides_the_label(self, tmp_path):
        p = tmp_path / "a1.csv"
        write_two_columns(p, flat_times(), np.zeros(40))
        ds = load_dataset(p, "A1", n_dye=5.0e10, photon_ratio=0.25)
        assert ds.n_dye == 5.0e10
        assert ds.photon_ratio == 0.25

    def test_unknown_label_requires_explicit_numbers(self, tmp_path):
        p = tmp_path / "x.csv"
        write_two_columns(p, flat_times(), np.zeros(40))
        with pytest.raises(DataError, match="unknown label"):
            load_dataset(p, "X7")
        ds = load_dataset(p, "X7", n_dye=1e10, photon_ratio=0.1)
        assert ds.label == "X7"

    def test_unsorted_rows_are_sorted_with_a_warning(self, tmp_path):
        t = flat_times(12)
        d = np.arange(12.0)
        order = np.array([3, 0, 1, 2, 5, 4, 7, 6, 9, 8, 11, 10])
        p = tmp_path / "shuffled.csv"
        write_two_columns(p, t[order], d[order])
        with pytest.warns(UserWarning, match="not sorted"):
            ds = load_dataset(p, "A1")
        np.testing.assert_allclose(ds.times_fs, t)
        np.testing.assert_allclose(ds.signal, d)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        write_two_columns(p, flat_times(9), np.zeros(9))
        with pytest.raises(DataError, match="at least 10"):
            load_dataset(p, "A1")

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_dataset(tmp_path / "absent.csv", "A1")

    @pytest.mark.parametrize(
        "bad_line, match",
        [("1.0 2.0 3.0", "two columns"), ("1.0 spam", "cannot parse")],
    )
    def test_malformed_line_reports_its_number(self, tmp_path, bad_line, match):
        t = flat_times(12)
        p = tmp_path / "bad.csv"
        body = "\n".join(f"{ti} 0.0" for ti in t[:6])
        body += f"\n{bad_line}\n"
        body += "\n".join(f"{ti} 0.0" for ti in t[6:])
        p.write_text(body + "\n")
        with pytest.raises(DataError, match=match) as err:
            load_dataset(p, "A1")
        assert ":7:" in str(err.value)

    def test_nonfinite_values_are_rejected(self, tmp_path):
        t = flat_times(12)
        d = np.zeros(12)
        d[4] = np.nan
        p = tmp_path / "nan.csv"
        write_two_columns(p, t, d)
        with pytest.raises(DataError, match="non-finite"):
            load_dataset(p, "A1")


class TestNoise:
    def test_window_sigma_recovers_pure_noise(self):
        t = np.arange(0.0, 2000.0, 4.0)
        rng = np.random.default_rng(5)
        ratios = []
        for _ in range(40):
            d = rng.normal(scale=2.0, size=t.size)
            ratios.append(_window_sigma(t, d) / 2.0)
        # quietest-stretch selection must not bias the level
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)

    def test_window_sigma_ignores_a_strong_ramp_elsewhere(self):
        t = np.arange(0.0, 1000.0, 4.0)
        rng = np.random.default_rng(6)
        d = rng.normal(scale=0.5, size=t.size)
        d[t > 600.0] += 40.0 * np.sin((t[t > 600.0] - 600.0) / 30.0)
        plain = float(np.std(d))
        est = _window_sigma(t, d)
        assert est < 0.7
        assert plain > 5.0

    def test_estimate_noise_fills_every_sample(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        rng = np.random.default_rng(7)
        levels = {}
        d = np.empty_like(t)
        for lo, hi, s in [
            (-np.inf, -300.0, 1.0),
            (-300.0, 300.0, 3.0),
            (300.0, 700.0, 0.5),
            (700.0, 1000.0, 2.0),
            (1000.0, np.inf, 1.5),
        ]:
            mask = (t >= lo) & (t < hi)
            d[mask] = rng.normal(scale=s, size=mask.sum())
            levels[(lo, hi)] = s
        ds = ExperimentDataset("A2", t, d, n_dye=8.08e10, photon_ratio=0.12)
        est = estimate_noise(ds)
        assert est.sigma is not None and np.all(est.sigma > 0)
        assert len(est.windows) == 5
        for w in est.windows:
            assert w.sigma == pytest.approx(levels[(w.lo_fs, w.hi_fs)], rel=0.4)
        # per-sample array agrees with its window
        for w in est.windows:
            mask = (t >= w.lo_fs) & (t < w.hi_fs)
            assert np.all(est.sigma[mask] == w.sigma)

    def test_four_window_labels_use_four_windows(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        ds = ExperimentDataset("B1", t, np.sin(t / 200.0), n_dye=1.62e10, photon_ratio=2.8)
        est = estimate_noise(ds)
        assert len(est.windows) == 4

    def test_silent_window_is_clamped_to_the_floor(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        ds = ExperimentDataset("B1", t, np.zeros_like(t), n_dye=1.62e10, photon_ratio=2.8)
        with pytest.warns(UserWarning, match="clamping"):
            est = estimate_noise(ds)
        assert np.all(est.sigma == 1e-12)

    @pytest.mark.filterwarnings("ignore:noise window")
    def test_sparse_window_is_rejected(self):
        t = np.arange(-500.0, 290.0, 4.0)  # nothing beyond 300 fs
        ds = ExperimentDataset("B1", t, np.ones_like(t), n_dye=1.62e10, photon_ratio=2.8)
        with pytest.raises(DataError, match="need at least 5"):
            estimate_noise(ds)

    @pytest.mark.filterwarnings("ignore:noise window")
    def test_custom_bounds_must_cover_the_data(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        ds = ExperimentDataset("B1", t, np.ones_like(t), n_dye=1.62e10, photon_ratio=2.8)
        with pytest.raises(DataError, match="do not cover"):
            estimate_noise(ds, window_bounds=[(-np.inf, 0.0)])


def smooth_model(t_lo=-1.0, t_hi=3.0, dt=0.002) -> EnergyTrace:
    t = np.arange(t_lo, t_hi + dt / 2, dt)
    e = 100.0 / (1.0 + np.exp(-(t - 0.4) / 0.15))
    return EnergyTrace(times_ps=t, energy_mev=e)


def dataset_from_model(model, times_fs, scale, shift_fs, sigma=0.02):
    t_ps = times_fs * 1e-3 + shift_fs * 1e-3
    d = np.interp(t_ps, model.times_ps, model.energy_mev) / scale
    return ExperimentDataset(
        "synthetic", times_fs, d, n_dye=8.08e10, photon_ratio=0.12,
        sigma=np.full(times_fs.size, sigma),
    )


class TestInnerFit:
    def test_recovers_scale_and_shift_exactly_on_clean_data(self):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = dataset_from_model(model, times_fs, scale=1.25, shift_fs=30.0)
        fit = inner_fit(model, ds)
        assert fit.t0_fs == pytest.approx(30.0, abs=0.2)
        assert fit.scale == pytest.approx(1.25, rel=1e-4)
        # the shift search stops at a 0.1 fs bracket, so the floor is set by
        # (half-bracket * steepest slope / sigma)^2 summed over the rise
        assert fit.chi2 < 1.0

    def test_negative_shift_is_found_too(self):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = dataset_from_model(model, times_fs, scale=0.8, shift_fs=-110.0)
        fit = inner_fit(model, ds)
        assert fit.t0_fs == pytest.approx(-110.0, abs=0.2)
        assert fit.scale == pytest.approx(0.8, rel=1e-4)

    def test_flat_data_ties_resolve_to_zero_shift(self):
        model = EnergyTrace(
            times_ps=np.arange(-1.0, 3.0, 0.002),
            energy_mev=np.full(2000, 7.0),
        )
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = ExperimentDataset(
            "synthetic", times_fs, np.full(times_fs.size, 2.0),
            n_dye=8.08e10, photon_ratio=0.12,
            sigma=np.full(times_fs.size, 0.02),
        )
        fit = inner_fit(model, ds)
        assert fit.t0_fs == pytest.approx(0.0, abs=1e-9)
        assert fit.scale == pytest.approx(3.5)

    def test_model_must_span_the_shifted_data(self):
        model = smooth_model(t_lo=-0.3)
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = dataset_from_model(model, times_fs, 1.0, 0.0)
        with pytest.raises(ValueError, match="does not span"):
            inner_fit(model, ds, t0_range_fs=(-400.0, 400.0))

    def test_noise_estimate_is_required(self):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = ExperimentDataset(
            "raw", times_fs, np.ones(times_fs.size), n_dye=8.08e10, photon_ratio=0.12,
        )
        with pytest.raises(DataError, match="no noise estimate"):
            inner_fit(model, ds)

    def test_residuals_vanish_on_a_perfect_fit(self):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = dataset_from_model(model, times_fs, scale=1.25, shift_fs=30.0)
        fit = inner_fit(model, ds)
        r = residuals(model, ds, fit)
        assert r.shape == times_fs.shape
        # bounded by the 0.1 fs shift resolution, well under the noise level
        assert np.max(np.abs(r)) < 0.3


class TestFitGrid:
    def test_logspace_axes_are_geometric(self):
        grid = FitGrid.logspace((1.0, 100.0), (0.1, 10.0), (0.001, 1.0), points=5)
        np.testing.assert_allclose(grid.g_nev, np.geomspace(1.0, 100.0, 5))
        ratios = grid.gamma0z_mev[1:] / grid.gamma0z_mev[:-1]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_bad_bounds_are_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            FitGrid.logspace(g_bounds_nev=(5.0, 1.0))
        with pytest.raises(ValueError, match="bounds"):
            FitGrid.logspace(g_bounds_nev=(0.0, 1.0))

    def test_refined_grid_zooms_one_cell_each_side(self):
        grid = FitGrid.logspace((1.0, 100.0), (1.0, 100.0), (0.001, 1.0), points=5)
        fine = grid.refined_around(2, 2, 2)
        step = grid.g_nev[1] / grid.g_nev[0]
        assert fine.g_nev[0] == pytest.approx(grid.g_nev[2] / step)
        assert fine.g_nev[-1] == pytest.approx(grid.g_nev[2] * step)
        assert fine.g_nev.size == 5

    def test_refined_nodes_on_coarse_nodes_are_exact(self):
        grid = FitGrid.logspace(points=9)
        fine = grid.refined_around(4, 0, 7)
        for coarse_axis, fine_axis, idx in (
            (grid.g_nev, fine.g_nev, 4),
            (grid.gamma0z_mev, fine.gamma0z_mev, 0),
            (grid.gamma_minus_mev, fine.gamma_minus_mev, 7),
        ):
            shared = np.flatnonzero(np.isin(fine_axis, coarse_axis))
            # every fourth fine node is a coarse node, bit for bit
            expected = [n for n in (0, 4, 8) if 0 <= idx + n // 4 - 1 < coarse_axis.size]
            assert shared.tolist() == expected
            for n in shared:
                assert fine_axis[n] == coarse_axis[idx + n // 4 - 1]


def synthetic_problem(noise_rms=0.02, seed=11, true_scale=1.0, true_shift_fs=30.0,
                      known_sigma=False):
    """An A2-like transient plus the 3x3x3 grid whose centre is the truth.

    ``known_sigma`` substitutes the true noise level for the estimated one;
    at this 8 fs sampling the quiet windows are short enough that the
    estimate scatters, which is fine for recovery tests but not for
    asserting the chi^2 level itself.
    """
    n = 8.08e10
    ratio = 0.98 / 8.08
    params = ModelParams(n_molecules=n)
    pulse = PulseParams(
        amplitude=drive_amplitude_from_photon_ratio(ratio, n),
        center_ps=0.0,
        sigma_ps=0.020,
        response_ps=0.120,
    )
    times_fs = np.arange(-500.0, 1500.0, 8.0)
    rng = np.random.default_rng(seed)
    ds = make_synthetic_dataset(
        params, pulse, times_fs,
        true_scale=true_scale, true_shift_fs=true_shift_fs,
        noise_rms=noise_rms, rng=rng, label="A2",
    )
    if known_sigma:
        ds = replace(ds, sigma=np.full(times_fs.size, max(noise_rms, 1e-12)))
    else:
        ds = estimate_noise(ds)
    span = 1.3
    grid = FitGrid(
        g_nev=np.array([10.6 / span, 10.6, 10.6 * span]),
        gamma0z_mev=np.array([1.68 / span, 1.68, 1.68 * span]),
        gamma_minus_mev=np.array([0.0141 / span, 0.0141, 0.0141 * span]),
    )
    return ds, grid


class TestGlobalFit:
    def test_synthetic_truth_is_recovered_at_the_grid_centre(self):
        ds, grid = synthetic_problem(known_sigma=True)
        result = global_fit([ds], grid, lifetime_fs=120.0)
        assert result.argmin == (1, 1, 1)
        assert result.g_nev == pytest.approx(10.6)
        assert result.gamma0z_mev == pytest.approx(1.68)
        assert result.gamma_minus_mev == pytest.approx(0.0141)
        assert result.inner["A2"].scale == pytest.approx(1.0, abs=0.01)
        assert result.inner["A2"].t0_fs == pytest.approx(30.0, abs=2.0)
        assert 0.7 < result.chi2_reduced_min < 1.3
        assert result.k_eff == ds.n_points - 3
        ci = result.confidence
        assert ci is not None
        for lo, hi in ci.values():
            assert lo <= hi

    def test_estimated_noise_still_finds_the_truth(self):
        ds, grid = synthetic_problem()
        result = global_fit([ds], grid, lifetime_fs=120.0)
        assert result.argmin == (1, 1, 1)
        assert np.isfinite(result.chi2_reduced_min)

    def test_minimum_on_the_boundary_disables_confidence(self):
        ds, grid = synthetic_problem()
        # slide the g axis so the truth sits on its upper edge
        shifted = FitGrid(
            g_nev=grid.g_nev / 1.3 ** 2,
            gamma0z_mev=grid.gamma0z_mev,
            gamma_minus_mev=grid.gamma_minus_mev,
        )
        with pytest.warns(UserWarning, match="boundary"):
            result = global_fit([ds], shifted, lifetime_fs=120.0)
        assert result.argmin[0] == 2
        assert result.confidence is None
        with pytest.raises(FitBoundaryError, match="boundary"):
            confidence_intervals(
                result.chi2_reduced_map, shifted, result.k_eff, result.argmin
            )

    def test_precomputed_traces_give_the_same_answer(self):
        ds, grid = synthetic_problem()
        table = model_traces([ds], grid, lifetime_fs=120.0)
        a = global_fit([ds], grid, lifetime_fs=120.0, traces=table)
        b = global_fit([ds], grid, lifetime_fs=120.0, traces=table)
        assert a.argmin == b.argmin == (1, 1, 1)
        np.testing.assert_array_equal(a.chi2_reduced_map, b.chi2_reduced_map)

    def test_traces_span_the_data_window_not_the_solver_window(self):
        ds, grid = synthetic_problem()
        point = FitGrid(grid.g_nev[1:2], grid.gamma0z_mev[1:2], grid.gamma_minus_mev[1:2])
        plain = model_traces([ds], point, lifetime_fs=120.0)[(0, 0, 0, 0)]
        # the data plus shift range and padding end near 2.54 ps
        wide = model_traces(
            [ds], point, lifetime_fs=120.0, solver=SolverConfig(t_end_ps=3.5)
        )[(0, 0, 0, 0)]
        assert plain.times_ps[-1] < 3.0
        np.testing.assert_array_equal(wide.times_ps, plain.times_ps)
        np.testing.assert_array_equal(wide.energy_mev, plain.energy_mev)
        # the closure still comes from the solver
        meanfield = model_traces(
            [ds], point, lifetime_fs=120.0, solver=SolverConfig(closure="meanfield")
        )[(0, 0, 0, 0)]
        np.testing.assert_array_equal(meanfield.times_ps, plain.times_ps)
        assert not np.array_equal(meanfield.energy_mev, plain.energy_mev)

    @pytest.mark.parametrize("g_points, fine_calls", [(3, 0), (5, 18)])
    def test_refined_pass_reuses_coarse_traces(self, monkeypatch, g_points, fine_calls):
        ds, grid = synthetic_problem(known_sigma=True)
        grid = replace(grid, g_nev=10.6 * 1.3 ** np.linspace(-1, 1, g_points))
        calls = []
        simulate = fit_module.simulate_energy

        def counting(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(fit_module, "simulate_energy", counting)
        result = global_fit([ds], grid, lifetime_fs=120.0, refine=True)
        assert result.coarse.argmin == (g_points // 2, 1, 1)
        assert len(calls) == g_points * 9 + fine_calls
        fresh = global_fit([ds], result.grid, lifetime_fs=120.0)
        np.testing.assert_allclose(result.chi2_reduced_map, fresh.chi2_reduced_map, rtol=1e-9)
        assert result.argmin == fresh.argmin

    def test_duplicate_labels_are_rejected(self):
        ds, grid = synthetic_problem(known_sigma=True)
        twin = replace(ds, signal=2.0 * ds.signal)
        with pytest.raises(DataError, match="label 'A2' is used by 2 datasets"):
            global_fit([ds, twin], grid, lifetime_fs=120.0)

    def test_datasets_must_carry_noise(self):
        ds, grid = synthetic_problem()
        bare = ExperimentDataset(
            ds.label, ds.times_fs, ds.signal, ds.n_dye, ds.photon_ratio,
        )
        with pytest.raises(DataError, match="no noise estimate"):
            global_fit([bare], grid, lifetime_fs=120.0)
        with pytest.raises(ValueError, match="at least one"):
            global_fit([], grid, lifetime_fs=120.0)


class TestSyntheticDataset:
    def test_zero_noise_signal_is_the_scaled_shifted_model(self):
        ds, _ = synthetic_problem(noise_rms=0.0, true_scale=2.0)
        assert ds.label == "A2"
        assert ds.photon_ratio == pytest.approx(0.98 / 8.08)
        # scale divides the model into the data
        ds1, _ = synthetic_problem(noise_rms=0.0, true_scale=1.0)
        np.testing.assert_allclose(ds.signal * 2.0, ds1.signal, rtol=1e-12)

    def test_seeded_noise_is_reproducible(self):
        a, _ = synthetic_problem(seed=3)
        b, _ = synthetic_problem(seed=3)
        c, _ = synthetic_problem(seed=4)
        np.testing.assert_array_equal(a.signal, b.signal)
        assert np.any(a.signal != c.signal)


def test_map_csv_round_trips_the_chi2_map(tmp_path):
    ds, grid = synthetic_problem()
    result = global_fit([ds], grid, lifetime_fs=120.0)
    path = tmp_path / "map.csv"
    write_map_csv(path, result)
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    assert rows.shape == (27, 4)
    np.testing.assert_allclose(
        rows[:, 3].reshape(3, 3, 3), result.chi2_reduced_map, rtol=1e-7
    )
    header = path.read_text().splitlines()[0]
    assert "k_eff" in header and "lifetime_fs=120" in header
