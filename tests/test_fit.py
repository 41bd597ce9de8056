"""Dataset ingestion, noise estimation and the global rate fit."""

from __future__ import annotations

import logging
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickesim.fit as fit_module
from dickesim.cumulant import IntegrationError, SolverConfig
from dickesim.fit import (
    DataError,
    ExperimentDataset,
    FitGrid,
    LABEL_INFO,
    ModelTable,
    confidence_intervals,
    estimate_noise,
    global_fit,
    inner_fit,
    inner_fits,
    load_dataset,
    make_synthetic_dataset,
    model_traces,
    residuals,
)
from dickesim.cumulant import simulate_energy
from dickesim.fit import QUIET_SPAN_FS, _lattice_chi2, _lattice_s2, _member_tasks, _window_sigma
from dickesim.model import ModelParams, PulseParams, drive_amplitude_from_photon_ratio
from dickesim.observables import EnergyTrace, convolve_response


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

    @pytest.mark.parametrize("field, value", [
        ("n_dye", np.nan), ("n_dye", np.inf), ("photon_ratio", np.nan),
        ("response_ps", np.nan), ("response_ps", -0.1),
    ])
    def test_nonfinite_or_negative_metadata_is_rejected_with_the_file(self, tmp_path, field, value):
        # these once passed and failed later as a bad amplitude or simulation window
        p = tmp_path / "a1.csv"
        write_two_columns(p, flat_times(), np.zeros(40))
        with pytest.raises(DataError, match=f"{p}: {field} must be finite and"):
            load_dataset(p, "A1", **{field: value})


def polyfit_window_sigma(t_fs, d):
    """The loop _window_sigma replaced, kept as its reference: one np.polyfit per stretch."""
    n = t_fs.size
    best = None
    for i in range(n):
        if t_fs[i] + QUIET_SPAN_FS > t_fs[-1] + 1e-9:
            break
        j = int(np.searchsorted(t_fs, t_fs[i] + QUIET_SPAN_FS, side="right"))
        if j - i < 3:
            continue
        tt = t_fs[i:j]
        dd = d[i:j]
        slope, intercept = np.polyfit(tt, dd, 1)
        if best is None or abs(slope) < best[0]:
            resid = dd - (slope * tt + intercept)
            best = (abs(slope), math.sqrt(float(resid @ resid) / (j - i - 2)))
    if best is None:
        slope, intercept = np.polyfit(t_fs, d, 1)
        resid = d - (slope * t_fs + intercept)
        best = (abs(slope), math.sqrt(float(resid @ resid) / max(n - 2, 1)))
    return best[1]


@st.composite
def noise_windows(draw):
    """Sorted times, regular, jittered, with gaps or shorter than the quiet span, and noise on a trend."""
    kind = draw(st.sampled_from(["regular", "jittered", "gaps", "short"]))
    n = draw(st.integers(5, 300))
    step = draw(st.sampled_from([0.5, 2.0, 4.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.floats(-1000.0, 1000.0)) + step * np.arange(n)
    if kind == "jittered":
        t = np.sort(t + rng.uniform(-0.5 * step, 0.5 * step, n))
    elif kind == "gaps":
        # a jump of 100-400 fs after one sample in five leaves stretches of fewer than 3 samples
        t = t + np.cumsum(rng.uniform(100.0, 400.0, n) * (rng.random(n) < 0.2))
    elif kind == "short":
        t = t[0] + np.sort(rng.uniform(0.0, 0.99 * QUIET_SPAN_FS, n))
    return t, rng.normal(size=n) + rng.normal(scale=1e-3) * t


def a3_times_with_three_samples_at(t_fs, lo, hi):
    """A3 times every 4 fs from -500 to 1500 fs, with [lo, hi) fs replaced by three samples at t_fs."""
    t = np.arange(-500.0, 1500.0, 4.0)
    return np.sort(np.r_[t[(t < lo) | (t >= hi)], [t_fs] * 3])


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
        assert np.unique(est.sigma).size == 5
        # one level per window, close to the noise drawn there
        for (lo, hi), level in levels.items():
            window = est.sigma[(t >= lo) & (t < hi)]
            assert np.all(window == window[0])
            assert window[0] == pytest.approx(level, rel=0.4)

    def test_four_window_labels_use_four_windows(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        ds = ExperimentDataset("B1", t, np.sin(t / 200.0), n_dye=1.62e10, photon_ratio=2.8)
        est = estimate_noise(ds)
        assert np.unique(est.sigma).size == 4

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

    @settings(max_examples=200, deadline=None)
    @given(window=noise_windows())
    def test_window_sigma_matches_the_polyfit_loop(self, window):
        t, d = window
        assert _window_sigma(t, d) == pytest.approx(polyfit_window_sigma(t, d), rel=1e-12)

    def test_window_sigma_memory_stays_bounded_on_a_long_window(self):
        # 20,000 samples at 0.1 fs: 18,500 stretches of 1,501 samples, 220 MB as one block
        t = 0.1 * np.arange(20_000)
        d = np.random.default_rng(8).normal(size=t.size)
        tracemalloc.start()
        try:
            sigma = _window_sigma(t, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert sigma == pytest.approx(1.0, rel=0.2)

    def test_a_stretch_without_time_extent_cannot_compete(self):
        # the stretch from the three samples at t = 0 holds no other sample; a
        # polyfit of it failed with "SVD did not converge"
        t = a3_times_with_three_samples_at(0.0, 0.0, 200.0)
        d = np.random.default_rng(9).normal(scale=0.01, size=t.size)
        ds = ExperimentDataset("A3", t, d, n_dye=LABEL_INFO["A3"][0], photon_ratio=0.16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_noise(ds)
        assert est.sigma[(t >= -300.0) & (t < 300.0)][0] == pytest.approx(0.01, rel=0.4)

    def test_a_stretch_without_time_extent_is_not_picked_for_its_zero_slope(self):
        # three samples at -300 fs with zero signal open the [-300, 300) fs window;
        # a polyfit of their stretch warned of its rank, gave slope 0 and won
        t = a3_times_with_three_samples_at(-300.0, -300.0, -100.0)
        d = np.random.default_rng(9).normal(scale=0.01, size=t.size)
        d[t == -300.0] = 0.0
        ds = ExperimentDataset("A3", t, d, n_dye=LABEL_INFO["A3"][0], photon_ratio=0.16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_noise(ds)
        window = np.flatnonzero((t >= -300.0) & (t < 300.0))
        # only that stretch holds those samples, so dropping them changes nothing else
        rest = window[3:]
        assert est.sigma[window[0]] == pytest.approx(polyfit_window_sigma(t[rest], d[rest]), rel=1e-12)
        assert est.sigma[window[0]] == pytest.approx(0.01, rel=0.4)

    def test_a_window_whose_times_coincide_is_rejected(self):
        t = np.arange(-500.0, 1500.0, 4.0)
        t = np.sort(np.r_[t[(t < -300.0) | (t >= 300.0)], np.zeros(6)])
        ds = ExperimentDataset("A3", t, np.sin(t / 50.0), n_dye=LABEL_INFO["A3"][0], photon_ratio=0.16)
        with pytest.raises(DataError, match=r"noise window \[-300, 300\) fs has all its samples at 0 fs"):
            estimate_noise(ds)


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


def direct_chi2(shift_ps, t_data_ps, d, w, t_model, e_model):
    """chi^2 = sum w (d - a E)^2 at its least scale, E from np.interp: the reference for every shift search."""
    e = np.interp(t_data_ps + shift_ps, t_model, e_model)
    a = float((w * d) @ e) / float((w * e) @ e)
    return float(w @ (d - a * e) ** 2)


def dense_scan_minimum(model, ds, t0_range_fs=(-400.0, 400.0)):
    """Least direct chi^2 over a 1e-7 ps scan of +-0.25 fs around the best shift of a 0.25 fs scan."""
    args = (ds.times_fs * 1e-3, ds.signal, 1.0 / ds.sigma ** 2, model.times_ps, model.energy_mev)
    coarse = np.arange(t0_range_fs[0], t0_range_fs[1] + 0.125, 0.25) * 1e-3
    best = coarse[np.argmin([direct_chi2(s, *args) for s in coarse])]
    dense = np.clip(np.arange(best - 0.25e-3, best + 0.25e-3, 1e-7), *(np.array(t0_range_fs) * 1e-3))
    return min(direct_chi2(s, *args) for s in dense)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda s: np.where(np.arange(s.size) == 3, np.nan, s),
        lambda s: np.where(np.arange(s.size) == 3, np.inf, s),
        lambda s: -s,
        lambda s: np.where(np.arange(s.size) == 3, 0.0, s),
        lambda s: s[:-1],
        lambda s: np.tile(s, (2, 1)),
    ],
    ids=["nan", "inf", "negative", "zero", "short", "two-d"],
)
def test_sigma_must_be_finite_and_positive_per_sample(spoil):
    times_fs = np.arange(-100.0, 100.0, 10.0)
    ds = dataset_from_model(smooth_model(), times_fs, 1.0, 0.0)
    with pytest.raises(ValueError, match="sigma must be finite and positive, one value per sample"):
        replace(ds, sigma=spoil(ds.sigma))


class TestInnerFit:
    def test_recovers_scale_and_shift_exactly_on_clean_data(self):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = dataset_from_model(model, times_fs, scale=1.25, shift_fs=30.0)
        fit = inner_fit(model, ds)
        assert fit.t0_fs == pytest.approx(30.0, abs=0.2)
        assert fit.scale == pytest.approx(1.25, rel=1e-4)
        # the refine takes the exact least chi^2 of the interpolated model,
        # which is 0 here up to rounding
        assert fit.chi2 < 1e-15

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
        # the shift is exact up to rounding, so the residuals are rounding too
        assert np.max(np.abs(r)) < 1e-7

    def test_converges_to_the_dense_scan_minimum_at_high_snr(self):
        # SNR about 5e4: chi^2 rises by 0.2 at 1e-3 fs and by 23 at 0.01 fs
        # off its minimum, so only the exact least chi^2 stays within
        # rounding of the best shift of a 1e-4 fs scan
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = noisy_dataset(model, times_fs, scale=1.25, shift_fs=30.37, noise=100.0 / 1.25 / 5e4, seed=5)
        fit = inner_fit(model, ds)
        assert fit.chi2 <= dense_scan_minimum(model, ds) * (1.0 + 1e-12)
        assert fit.t0_fs == pytest.approx(30.37, abs=0.05)

    def test_models_must_share_one_uniform_grid(self):
        model = smooth_model()
        ds = dataset_from_model(model, np.arange(-400.0, 1200.0, 8.0), 1.0, 0.0)
        # every step within EnergyTrace's 1e-7 tolerance, yet the middle of
        # the grid sits 4.5e-5 of a step off the whole-step lattice
        n = model.times_ps.size
        steps = 0.002 * np.where(np.arange(n - 1) < (n - 1) // 2, 1.0 + 5e-8, 1.0 - 4e-8)
        drifting = EnergyTrace(np.r_[-1.0, -1.0 + np.cumsum(steps)], model.energy_mev)
        with pytest.raises(ValueError, match="one uniform time grid"):
            inner_fit(drifting, ds)
        later = EnergyTrace(model.times_ps + 0.001, model.energy_mev)
        with pytest.raises(ValueError, match="one uniform time grid"):
            inner_fits([model, later], ds)


class TestShiftLattice:
    """chi^2 on the model's own time steps, for several members at once."""

    @pytest.mark.parametrize(
        "spacing_fs, offset_fs, ends_on_last_node",
        [(2.0, 0.0, False), (3.0, 0.7, False), (8.0, 0.0, True)],
        ids=["aligned-2fs", "offset-3fs", "last-node"],
    )
    def test_lattice_matches_direct_chi2_at_every_shift(self, spacing_fs, offset_fs, ends_on_last_node):
        dt = 0.002
        t_model = -1.0 + dt * np.arange(2001)
        base = smooth_model().energy_mev
        energies = [base, base * (1.0 + 0.3 * np.sin(t_model)), 0.5 * base ** 1.2]
        k_lo, k_hi = -50, 50
        n = 300
        start = -0.4 + offset_fs * 1e-3
        if ends_on_last_node:
            start = t_model[-1] - k_hi * dt - (n - 1) * spacing_fs * 1e-3
        t_data = start + spacing_fs * 1e-3 * np.arange(n)
        if ends_on_last_node:
            assert t_data[-1] + k_hi * dt == pytest.approx(t_model[-1], abs=1e-12)
        rng = np.random.default_rng(3)
        d = np.interp(t_data + 0.013, t_model, base) / 1.3 + rng.normal(scale=2.0, size=n)
        w = 1.0 / rng.uniform(0.5, 2.0, size=n) ** 2
        step = (t_model[-1] - t_model[0]) / (t_model.size - 1)
        lattice = _lattice_chi2(_lattice_s2(energies, t_model, step, t_data, w, k_lo, k_hi), w * d, d)
        direct = [
            [direct_chi2(k * step, t_data, d, w, t_model, e) for k in range(k_lo, k_hi + 1)] for e in energies
        ]
        np.testing.assert_allclose(lattice, direct, rtol=1e-10)


class TestBracketRefine:
    """The exact least chi^2 of the interpolated model within a step either side of the lattice pick."""

    @pytest.mark.parametrize("sampling", ["uniform-8fs", "offset-3fs", "jittered"])
    def test_refine_equals_the_dense_scan_minimum(self, sampling):
        model = smooth_model()
        times_fs = {
            "uniform-8fs": np.arange(-400.0, 1200.0, 8.0),
            "offset-3fs": np.arange(-400.0, 1200.0, 3.0) + 0.7,
            "jittered": np.arange(-400.0, 1200.0, 8.0) + np.random.default_rng(11).uniform(-0.9, 0.9, 200),
        }[sampling]
        ds = noisy_dataset(model, times_fs, scale=1.25, shift_fs=30.37, noise=0.5, seed=8)
        (fit,), _, classes = inner_fits([model], ds)
        # rounding may split the one class of the uniform samples across a node
        assert classes in {"uniform-8fs": (1, 2), "offset-3fs": (2,), "jittered": (times_fs.size,)}[sampling]
        dense_min = dense_scan_minimum(model, ds)
        assert dense_min * (1.0 - 1e-9) <= fit.chi2 <= dense_min * (1.0 + 1e-12)
        args = (ds.times_fs * 1e-3, ds.signal, 1.0 / ds.sigma ** 2, model.times_ps, model.energy_mev)
        assert direct_chi2(fit.t0_fs * 1e-3, *args) == pytest.approx(fit.chi2, rel=1e-12)

    @pytest.mark.parametrize("shift_fs", [30.37, 12.345])
    def test_clean_data_at_an_off_lattice_shift_come_back_exactly(self, shift_fs):
        model = smooth_model()
        ds = dataset_from_model(model, np.arange(-400.0, 1200.0, 8.0), scale=1.25, shift_fs=shift_fs)
        fit = inner_fit(model, ds)
        assert abs(fit.t0_fs - shift_fs) < 1e-9
        assert fit.chi2 < 1e-15
        assert fit.scale == pytest.approx(1.25, rel=1e-12)

    @pytest.mark.parametrize(
        "sampling, blocks", [("offset-3fs", (3, 801)), ("jittered", (2, 2))], ids=["offset-3fs", "jittered"]
    )
    def test_each_member_gets_what_it_gets_alone(self, sampling, blocks, monkeypatch):
        base = smooth_model()
        times_fs = {
            "offset-3fs": np.arange(-400.0, 1200.0, 3.0) + 0.7,
            "jittered": np.arange(-400.0, 1200.0, 8.0) + np.random.default_rng(11).uniform(-0.9, 0.9, 200),
        }[sampling]
        ds = noisy_dataset(base, times_fs, 1.25, 30.37, noise=0.5, seed=2)
        # blocks of 2**11 sample-members for the class sums; the solve takes samples/classes of them
        # at once: 534 // 2 for the two classes of offset-3fs, one when each sample is its own class
        monkeypatch.setattr(fit_module, "REFINE_SIZE", 2 ** 11)
        sum_size, solve_size = fit_module._TableSums(*fit_module._stack([base]), ds, (-400.0, 400.0)).refine[-1]
        assert (sum_size, solve_size) == blocks
        # a whole block of the solve, then one cut short: its sums in one whole block and one of a member
        models = [
            EnergyTrace(base.times_ps, base.energy_mev * (1.0 + 0.3 * np.sin(3.0 * base.times_ps + 0.1 * n)))
            for n in range(solve_size + sum_size + 1)
        ]
        together, shifts, classes = inner_fits(models, ds)
        for model, fit in zip(models, together):
            assert inner_fits([model], ds) == ([fit], shifts, classes)

    def test_a_last_bit_change_of_sigma_barely_moves_the_shift(self):
        # the fit golden's data, at its best point: scaling every sigma alike leaves the exact
        # minimiser where it is, but the refine's cells take differences of its class sums, such as
        # sum(w q^2) = sum(w E_m^2) + sum(w E_m+1^2) - 2 sum(w E_m E_m+1), which carry their rounding.
        # Over these scalings the largest move was 2.1e-9 fs, 1e-9 of the 2 fs model step (at a
        # factor 1 - 1.4e-15); one more ulp of noise in the class sums about doubles it.
        n = 8.08e10
        pulse = PulseParams(
            amplitude=drive_amplitude_from_photon_ratio(0.121287128712871, n), sigma_ps=0.020, response_ps=0.120,
        )
        times_fs = np.arange(-500.0, 1504.0, 8.0)
        ds = estimate_noise(make_synthetic_dataset(
            ModelParams(n_molecules=n), pulse, times_fs, noise_rms=0.02, rng=np.random.default_rng(0)))
        point = FitGrid(np.array([10.6]), np.array([1.68]), np.array([0.0141]))
        model = model_traces([ds], point, lifetime_fs=120.0)[(0, 0, 0, 0)]
        (fit,), _, _ = inner_fits([model], ds)
        assert fit.t0_fs == pytest.approx(0.0211, abs=1e-4)
        moves = [
            inner_fits([model], replace(ds, sigma=ds.sigma * (1.0 + k * 1e-16)))[0][0].t0_fs - fit.t0_fs
            for k in range(-20, 21) if k
        ]
        assert max(np.abs(moves)) <= 4e-9

    def test_a_member_without_amplitude_fails_alone(self):
        model = smooth_model()
        flat = EnergyTrace(model.times_ps, np.zeros(model.times_ps.size))
        ds = noisy_dataset(model, np.arange(-400.0, 1200.0, 8.0), 1.25, 30.37, noise=0.5, seed=4)
        fits = inner_fits([model, flat, model], ds)[0]
        assert isinstance(fits[1], ValueError)
        assert str(fits[1]) == "model trace has no amplitude over the data at shift 0 fs"
        assert fits[0] == fits[2] == inner_fit(model, ds)

    def test_data_ending_on_the_last_node_refine_within_the_grid(self):
        # TestShiftLattice's last-node samples: at the largest shift the last
        # sample sits on the grid's last node, and the valley lies against it
        dt, k_hi, n = 0.002, 50, 300
        model = EnergyTrace(-1.0 + dt * np.arange(2001), smooth_model().energy_mev)
        times_fs = (model.times_ps[-1] - k_hi * dt - (n - 1) * 8e-3) * 1e3 + 8.0 * np.arange(n)
        t0_range_fs = (-k_hi * dt * 1e3, k_hi * dt * 1e3)
        ds = noisy_dataset(model, times_fs, scale=1.3, shift_fs=99.3, noise=0.5, seed=3)
        fit = inner_fit(model, ds, t0_range_fs)
        assert 98.0 <= fit.t0_fs <= t0_range_fs[1]
        assert fit.chi2 <= dense_scan_minimum(model, ds, t0_range_fs) * (1.0 + 1e-12)


def noisy_dataset(model, times_fs, scale, shift_fs, noise, seed, label="synthetic"):
    clean = dataset_from_model(model, times_fs, scale, shift_fs, sigma=noise)
    rng = np.random.default_rng(seed)
    return replace(clean, label=label, signal=clean.signal + rng.normal(scale=noise, size=times_fs.size))


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


class TestChi2Properties:
    """chi^2 carries the noise of the scaled data, so data units do not enter it."""

    @PROPERTY_SETTINGS
    @given(
        scale=st.floats(0.2, 5.0),
        shift_fs=st.floats(-250.0, 250.0),
        units=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_inner_fit_recovers_a_pure_scale_and_shift_of_the_data(self, scale, shift_fs, units, seed):
        model = smooth_model()
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        ds = noisy_dataset(model, times_fs, scale, shift_fs, noise=0.1, seed=seed)
        fit = inner_fit(model, ds)
        assert fit.t0_fs == pytest.approx(shift_fs, abs=5.0)
        assert fit.scale == pytest.approx(scale, rel=0.05)
        # the same data in other units, with their noise in those units
        moved = replace(ds, signal=units * ds.signal, sigma=units * ds.sigma)
        again = inner_fit(model, moved)
        assert again.scale * units == pytest.approx(fit.scale, rel=1e-9)
        assert again.t0_fs == pytest.approx(fit.t0_fs, abs=0.1)
        assert again.chi2 == pytest.approx(fit.chi2, rel=1e-6)

    @PROPERTY_SETTINGS
    @given(
        order=st.permutations(range(3)),
        units=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_permuting_the_datasets_leaves_chi2_unchanged(self, order, units, seed):
        # three transients of different shapes, each carried in its own units
        models = [smooth_model(), smooth_model(), smooth_model()]
        models = [
            EnergyTrace(m.times_ps, m.energy_mev * (1.0 + 0.3 * n * np.sin(m.times_ps)))
            for n, m in enumerate(models)
        ]
        times_fs = np.arange(-400.0, 1200.0, 8.0)
        datasets = [
            noisy_dataset(m, times_fs, 1.0 + n, 20.0 * n, noise=1.0, seed=seed + n, label=f"D{n}")
            for n, m in enumerate(models)
        ]
        grid = FitGrid(np.array([1.0]), np.array([1.0]), np.array([1.0]))

        def total_chi2(dss, traces):
            table = {(0, 0, 0, di): t for di, t in enumerate(traces)}
            with pytest.warns(UserWarning, match="boundary"):
                result = global_fit(dss, grid, traces=table)
            return result.chi2_reduced_min * result.k_eff, result

        reference, ref_result = total_chi2(datasets, models)
        moved = [
            replace(datasets[n], signal=units[n] * datasets[n].signal, sigma=units[n] * datasets[n].sigma)
            for n in order
        ]
        permuted, result = total_chi2(moved, [models[n] for n in order])
        assert permuted == pytest.approx(reference, rel=1e-6)
        for n in order:
            label = f"D{n}"
            assert result.inner[label].scale * units[n] == pytest.approx(
                ref_result.inner[label].scale, rel=1e-9
            )


@pytest.mark.xfail(strict=True, reason="the shift refine amplifies last-bit changes of data and sigma, "
                   "here to 5.5e-9 of the scale (ROADMAP item 5)")
def test_data_in_other_units_keep_the_scale_to_1e_9_at_a_zero_shift():
    # a draw of test_inner_fit_recovers_a_pure_scale_and_shift_of_the_data: data and sigma times 3
    # move the shift from 0 to -7.1e-6 fs
    model = smooth_model()
    ds = noisy_dataset(model, np.arange(-400.0, 1200.0, 8.0), 0.203125, 0.0, noise=0.1, seed=18333)
    fit = inner_fit(model, ds)
    again = inner_fit(model, replace(ds, signal=3 * ds.signal, sigma=3 * ds.sigma))
    assert again.scale * 3 == pytest.approx(fit.scale, rel=1e-9)


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

    @pytest.mark.parametrize(
        "nodes",
        [np.array([]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.0, 1.0, 2.0]), np.array([1.0, np.nan]),
         np.array([1.0, np.inf]), np.array([-2.0, -1.0]), np.array([1.0, 1.0]), np.array([2.0, 1.0])],
        ids=["empty", "2-D", "zero", "nan", "inf", "negative", "repeated", "falling"],
    )
    def test_each_axis_is_checked(self, nodes):
        good = np.array([1.0, 2.0])
        for name in ("g_nev", "gamma0z_mev", "gamma_minus_mev"):
            axes = {"g_nev": good, "gamma0z_mev": good, "gamma_minus_mev": good, name: nodes}
            with pytest.raises(ValueError, match=f"grid axis {name} needs 1-D, non-empty, finite, positive"):
                FitGrid(**axes)

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


class TestTraceWindow:
    def test_synthetic_data_ignore_the_solver_window(self):
        # the default solver window ends at 3.5 ps; samples past it were once
        # read off the trace's last value
        n = 8.08e10
        params = ModelParams(n_molecules=n)
        pulse = PulseParams(amplitude=drive_amplitude_from_photon_ratio(0.98 / 8.08, n))
        times_fs = np.arange(-500.0, 5000.0 + 2.0, 4.0)
        ds = make_synthetic_dataset(params, pulse, times_fs, solver=SolverConfig())
        wide = convolve_response(
            simulate_energy(params, pulse, SolverConfig(t_start_ps=-1.5, t_end_ps=6.5)), pulse.response_ps
        )
        reference = np.interp(times_fs * 1e-3, wide.times_ps, wide.energy_mev)
        assert np.max(np.abs(ds.signal - reference)) <= 1e-5 * np.max(reference)

    def test_window_is_padded_by_the_widest_response(self):
        # a 400 fs detector response with a 120 fs lifetime: the convolution's
        # edge continuation must stay outside the samples and the shift range
        times_fs = np.arange(-500.0, 1500.0 + 4.0, 8.0)
        ds = ExperimentDataset("A2", times_fs, np.zeros(times_fs.size), 8.08e10, 0.98 / 8.08, response_ps=0.4)
        grid = FitGrid(g_nev=np.array([10.6]), gamma0z_mev=np.array([1.68]), gamma_minus_mev=np.array([0.0141]))
        t0_range_fs = (-400.0, 400.0)
        table = model_traces([ds], grid, 120.0, t0_range_fs=t0_range_fs)[(0, 0, 0, 0)]
        params, pulse, solver = _member_tasks([ds], grid, 120.0, 0.020, 8.08e10, None, t0_range_fs)[(0, 0, 0, 0)]
        # the same start, so the same output grid, and 3 ps more at the end
        wide = convolve_response(
            simulate_energy(params, pulse, replace(solver, t_end_ps=solver.t_end_ps + 3.0)), pulse.response_ps
        )
        assert np.array_equal(wide.times_ps[: table.times_ps.size], table.times_ps)
        used = (table.times_ps >= (times_fs[0] + t0_range_fs[0]) * 1e-3) & (
            table.times_ps <= (times_fs[-1] + t0_range_fs[1]) * 1e-3
        )
        deviation = np.abs(table.energy_mev - wide.energy_mev[: table.times_ps.size])[used]
        assert np.max(deviation) <= 1e-6 * np.max(wide.energy_mev)


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
        assert confidence_intervals(
            result.chi2_reduced_map, shifted, result.k_eff, result.argmin
        ) is None

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

    @pytest.mark.parametrize("g_points, tables", [(3, 1), (5, 2)])
    def test_refine_builds_a_second_table_only_off_the_coarse_grid(self, monkeypatch, g_points, tables):
        # three points around the middle zoom onto the coarse grid, which keeps the coarse result;
        # five do not, and the fine pass builds its own table once the coarse one is gone
        ds, grid = synthetic_problem(known_sigma=True)
        grid = replace(grid, g_nev=10.6 * 1.3 ** np.linspace(-1, 1, g_points))
        members, built, sums = [], [], []
        simulate, build, table_sums = fit_module.simulate_energies, fit_module.model_traces, fit_module._TableSums

        def counting(params, pulse, solver):
            members.append(len(params))
            return simulate(params, pulse, solver)

        def watched(*args, **kwargs):
            assert all(ref() is None for ref in built), "an earlier table is still alive"
            table = build(*args, **kwargs)
            built.append(weakref.ref(table))
            return table

        def counted_sums(*args):
            sums.append(None)
            return table_sums(*args)

        monkeypatch.setattr(fit_module, "simulate_energies", counting)
        monkeypatch.setattr(fit_module, "model_traces", watched)
        monkeypatch.setattr(fit_module, "_TableSums", counted_sums)
        result = global_fit([ds], grid, lifetime_fs=120.0, refine=True)
        assert result.coarse.argmin == (g_points // 2, 1, 1)
        assert (sum(members), len(built), len(sums)) == (tables * g_points * 9, tables, tables)
        assert (result.grid == grid) == (tables == 1)
        if tables == 1:
            np.testing.assert_array_equal(result.coarse.chi2_reduced_map, result.chi2_reduced_map)
        monkeypatch.undo()
        fresh = global_fit([ds], result.grid, lifetime_fs=120.0)
        np.testing.assert_array_equal(result.chi2_reduced_map, fresh.chi2_reduced_map)
        assert (result.argmin, result.inner) == (fresh.argmin, fresh.inner)

    def test_refining_a_one_point_grid_keeps_its_point(self, monkeypatch):
        # a one-point axis has no cell to zoom into, so the refine integrates nothing
        ds, grid = synthetic_problem(known_sigma=True)
        point = FitGrid(grid.g_nev[1:2], grid.gamma0z_mev[1:2], grid.gamma_minus_mev[1:2])
        integrated = []
        integrate = fit_module._integrate

        def counting(tasks, labels, workers):
            integrated.append(len(tasks))
            return integrate(tasks, labels, workers)

        monkeypatch.setattr(fit_module, "_integrate", counting)
        with pytest.warns(UserWarning, match="boundary"):
            result = global_fit([ds], point, lifetime_fs=120.0, refine=True)
        assert integrated == [1]
        coarse = result.coarse
        assert (result.g_nev, result.gamma0z_mev, result.gamma_minus_mev) == (10.6, 1.68, 0.0141)
        assert (result.g_nev, result.gamma0z_mev, result.gamma_minus_mev) == (
            coarse.g_nev, coarse.gamma0z_mev, coarse.gamma_minus_mev
        )
        assert result.chi2_reduced_min == coarse.chi2_reduced_min

    def test_one_percent_noise_at_scale_two_covers_the_truth(self):
        # noise at 1% of the scaled data's peak and a true scale of 2: the
        # truth must sit inside the joint 68% region in at least 68% of trials
        ds, _ = synthetic_problem(noise_rms=0.0, true_scale=2.0, known_sigma=True)
        step = 1.3
        grid = FitGrid(
            g_nev=10.6 * step ** np.arange(-2.0, 3.0),
            gamma0z_mev=1.68 * step ** np.arange(-2.0, 3.0),
            gamma_minus_mev=0.0141 * step ** np.arange(-2.0, 3.0),
        )
        table = model_traces([ds], grid, lifetime_fs=120.0)
        noise = 0.01 * float(np.max(ds.signal))
        truth = {"g_nev": 10.6, "gamma0z_mev": 1.68, "gamma_minus_mev": 0.0141}
        trials = 40
        covered = 0
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            noisy = replace(
                ds,
                signal=ds.signal + rng.normal(scale=noise, size=ds.n_points),
                sigma=np.full(ds.n_points, noise),
            )
            result = global_fit([noisy], grid, lifetime_fs=120.0, traces=table)
            ci = result.confidence
            covered += ci is not None and all(
                ci[name][0] * (1 - 1e-9) <= value <= ci[name][1] * (1 + 1e-9)
                for name, value in truth.items()
            )
        assert covered >= 0.68 * trials, covered

    def test_a_member_without_amplitude_is_a_failed_grid_point(self, caplog):
        ds, grid = synthetic_problem(known_sigma=True)
        table = model_traces([ds], grid, lifetime_fs=120.0)
        times_ps = table[(0, 2, 0, 0)].times_ps
        table = ModelTable({**table, (0, 2, 0, 0): EnergyTrace(times_ps, np.zeros(times_ps.size))}, grid, 1)
        with caplog.at_level(logging.INFO, logger="dickesim.fit"):
            result = global_fit([ds], grid, lifetime_fs=120.0, traces=table)
        assert result.failed == {(0, 2, 0): "A2: model trace has no amplitude over the data at shift 0 fs"}
        assert np.isinf(result.chi2_reduced_map[0, 2, 0])
        assert np.sum(np.isfinite(result.chi2_reduced_map)) == 26
        assert result.argmin == (1, 1, 1)
        reductions = [r.getMessage() for r in caplog.records if r.getMessage().startswith("chi^2 reduction")]
        assert len(reductions) == 1
        assert reductions[0].startswith("chi^2 reduction: 27 members, 401 lattice shifts, ")
        assert ", 1 failed grid points, " in reductions[0]

    @pytest.fixture
    def two_datasets(self):
        """The synthetic A2 problem beside an A3 copy at half the signal, and their model table."""
        ds, grid = synthetic_problem(known_sigma=True)
        other = replace(ds, label="A3", signal=0.5 * ds.signal)
        return [ds, other], grid, model_traces([ds, other], grid, lifetime_fs=120.0)

    def test_one_chi2_pass_per_dataset_per_reduction(self, monkeypatch, two_datasets):
        datasets, grid, table = two_datasets
        calls = []
        chi2_rows = fit_module._chi2_rows

        def counted(energies, rows, *args):
            calls.append(rows.size)
            return chi2_rows(energies, rows, *args)

        monkeypatch.setattr(fit_module, "_chi2_rows", counted)
        global_fit(datasets, grid, lifetime_fs=120.0, traces=table)
        # each dataset's 27 members at their lattice picks and at their refined shifts, in one call
        assert calls == [2 * 27, 2 * 27]

    def test_the_map_is_the_sum_of_the_datasets_inner_fits(self, two_datasets):
        datasets, grid, table = two_datasets
        times_ps = table[(2, 0, 1, 1)].times_ps
        table = ModelTable({**table, (2, 0, 1, 1): EnergyTrace(times_ps, np.zeros(times_ps.size))}, grid, 2)
        result = global_fit(datasets, grid, lifetime_fs=120.0, traces=table)
        points = list(np.ndindex(result.chi2_reduced_map.shape))
        fits = [inner_fits([table[(*p, di)] for p in points], ds)[0] for di, ds in enumerate(datasets)]
        assert result.failed == {(2, 0, 1): "A3: model trace has no amplitude over the data at shift 0 fs"}
        assert isinstance(fits[1][points.index((2, 0, 1))], ValueError)
        assert np.isinf(result.chi2_reduced_map[2, 0, 1])
        for n, point in enumerate(points):
            if point != (2, 0, 1):
                assert result.chi2_reduced_map[point] == (fits[0][n].chi2 + fits[1][n].chi2) / result.k_eff
        assert result.inner == {ds.label: fits[di][points.index(result.argmin)] for di, ds in enumerate(datasets)}

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

    def test_a_table_is_checked_against_its_own_step(self):
        # a 1 fs table holds the one whole step of (0.5, 1.5) fs; the default 2 fs step holds none
        ds, grid = synthetic_problem(known_sigma=True)
        point = FitGrid(grid.g_nev[1:2], grid.gamma0z_mev[1:2], grid.gamma_minus_mev[1:2])
        t0_range_fs = (0.5, 1.5)
        table = model_traces(
            [ds], point, 120.0, solver=SolverConfig(output_dt_ps=0.001), t0_range_fs=t0_range_fs
        )
        with pytest.warns(UserWarning, match="boundary"):
            result = global_fit([ds], point, 120.0, t0_range_fs=t0_range_fs, traces=table)
        (alone,), _, _ = inner_fits([table[(0, 0, 0, 0)]], ds, t0_range_fs)
        assert result.inner["A2"] == alone
        assert 0.5 <= alone.t0_fs <= 1.5
        with pytest.raises(ValueError, match="no whole model step of 2 fs"):
            global_fit([ds], point, 120.0, t0_range_fs=t0_range_fs)


@pytest.fixture(scope="module")
def mc_problem():
    """The synthetic A2 problem and its 27 model traces as a plain dict."""
    ds, grid = synthetic_problem(known_sigma=True)
    return ds, grid, dict(model_traces([ds], grid, lifetime_fs=120.0))


def noise_draw(ds, seed, noise_rms=0.02):
    """``ds`` with one more seeded noise realisation and its known noise level."""
    noise = np.random.default_rng(seed).normal(scale=noise_rms, size=ds.n_points)
    return replace(ds, signal=ds.signal + noise, sigma=np.full(ds.n_points, noise_rms))


def assert_same_fit(a, b):
    np.testing.assert_array_equal(a.chi2_reduced_map, b.chi2_reduced_map)
    assert a.inner == b.inner
    assert a.confidence == b.confidence
    assert a.argmin == b.argmin


@pytest.fixture
def count_sums(monkeypatch):
    """Counts the computations of the table-only part of ``inner_fits``."""
    made = []
    build = fit_module._TableSums

    def counting(*args):
        made.append(args)
        return build(*args)

    monkeypatch.setattr(fit_module, "_TableSums", counting)
    return made


@pytest.mark.filterwarnings("ignore:68% region")
class TestModelTable:
    """Refits against one ``ModelTable`` keep the part of ``inner_fits`` that reads no signal."""

    def test_refits_equal_refits_against_a_plain_dict(self, mc_problem, count_sums):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        for seed in range(20):
            draw = noise_draw(ds, seed)
            assert_same_fit(
                global_fit([draw], grid, lifetime_fs=120.0, traces=table),
                global_fit([draw], grid, lifetime_fs=120.0, traces=dict(table)),
            )
        # once for the table, once for every plain dict
        assert len(count_sums) == 1 + 20

    @pytest.mark.parametrize("change", ["sigma", "sigma-in-place", "times", "shift-range"])
    def test_a_change_recomputes_the_table_part(self, mc_problem, count_sums, change):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        draw, t0_range_fs = noise_draw(ds, 0), (-400.0, 400.0)
        global_fit([draw], grid, lifetime_fs=120.0, traces=table)
        global_fit([draw], grid, lifetime_fs=120.0, traces=table)
        assert len(count_sums) == 1
        if change == "sigma":
            draw = replace(draw, sigma=1.5 * draw.sigma)
        elif change == "sigma-in-place":
            draw.sigma[::2] *= 1.5
        elif change == "times":
            draw = replace(draw, times_fs=draw.times_fs + 1.0)
        else:
            t0_range_fs = (-300.0, 300.0)
        kept = global_fit([draw], grid, lifetime_fs=120.0, t0_range_fs=t0_range_fs, traces=table)
        assert len(count_sums) == 2
        fresh = ModelTable(dict(table), grid, 1)
        assert_same_fit(kept, global_fit([draw], grid, lifetime_fs=120.0, t0_range_fs=t0_range_fs, traces=fresh))

    def test_the_table_cannot_be_assigned_to(self, mc_problem):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        with pytest.raises(TypeError):
            table[(1, 1, 1, 0)] = traces[(1, 1, 1, 0)]
        assert not isinstance(table, dict)
        assert dict(table).keys() == traces.keys()

    def test_writing_into_a_read_trace_leaves_the_refit_bit_identical(self, mc_problem, count_sums):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        stored = {key: trace.energy_mev.copy() for key, trace in traces.items()}
        draw = noise_draw(ds, 0)
        first = global_fit([draw], grid, lifetime_fs=120.0, traces=table)
        table[(0, 1, 2, 0)].energy_mev[:] *= 1.01
        first.traces["A2"].energy_mev[:] = 0.0
        for key, energy in stored.items():
            np.testing.assert_array_equal(table[key].energy_mev, energy)
        assert_same_fit(first, global_fit([draw], grid, lifetime_fs=120.0, traces=table))
        assert len(count_sums) == 1
        assert_same_fit(first, global_fit([draw], grid, lifetime_fs=120.0, traces=ModelTable(dict(table), grid, 1)))

    def test_a_table_the_fit_built_itself_keeps_nothing(self, mc_problem, monkeypatch):
        ds, grid, traces = mc_problem
        built = ModelTable(traces, grid, 1)
        monkeypatch.setattr(fit_module, "model_traces", lambda *args, **kwargs: built)
        global_fit([noise_draw(ds, 2)], grid, lifetime_fs=120.0)
        assert built._sums == {}

    def test_changing_sigma_does_not_grow_the_table(self, mc_problem):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        draw = noise_draw(ds, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            global_fit([draw], grid, lifetime_fs=120.0, traces=table)
            one = tracemalloc.get_traced_memory()[0] - before
            for factor in np.linspace(1.1, 2.0, 10):
                global_fit([replace(draw, sigma=factor * draw.sigma)], grid, lifetime_fs=120.0, traces=table)
            grown = tracemalloc.get_traced_memory()[0] - before - one
        finally:
            tracemalloc.stop()
        # the held part: the 27 members' S2 sums at 401 lattice shifts, 87 kB, and the samples' arrays
        assert one > table._sums[0][-1].lattice[-1].nbytes
        assert grown < one / 2
        assert len(table._sums) == 1

    def test_a_table_the_fit_builds_holds_one_dataset_twice_at_most(self, mc_problem, monkeypatch):
        # only the table reads model_traces' traces, so each dataset's go once they are stacked
        ds, grid, _ = mc_problem
        times = np.linspace(-1.0, 3.0, 4001)
        one = 27 * times.nbytes  # one dataset's energies

        def integrate(tasks, labels, workers):
            return {key: EnergyTrace(times, np.full(times.size, float(sum(key)))) for key in tasks}

        monkeypatch.setattr(fit_module, "_integrate", integrate)
        datasets = [replace(ds, label=label) for label in ("A1", "A2", "A3", "B1")]
        tracemalloc.start()
        try:
            table = model_traces(datasets, grid, lifetime_fs=120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # four datasets' traces and one stack; all four stacks beside all traces would be 8
        assert peak < 6 * one
        np.testing.assert_array_equal(table[(2, 1, 0, 3)].energy_mev, 6.0)

    def test_a_table_missing_a_member_names_it(self, mc_problem):
        ds, grid, traces = mc_problem
        wider = replace(grid, gamma_minus_mev=0.0141 * 1.3 ** np.arange(-1.0, 4.0))
        with pytest.raises(ValueError, match=r"dataset_index\) = \(0, 0, 3, 0\)"):
            global_fit([ds], wider, lifetime_fs=120.0, traces=traces)

    def test_a_table_of_another_grid_or_dataset_count_is_refused(self, mc_problem):
        ds, grid, traces = mc_problem
        table = ModelTable(traces, grid, 1)
        with pytest.raises(ValueError, match="built on another grid"):
            global_fit([ds], replace(grid, g_nev=1.1 * grid.g_nev), lifetime_fs=120.0, traces=table)
        with pytest.raises(ValueError, match="built for 1 datasets, not 2"):
            global_fit([ds, replace(ds, label="A3")], grid, lifetime_fs=120.0, traces=table)
        # the same table, as a plain dict, serves the other grid's keys
        other = global_fit([ds], replace(grid, g_nev=1.3 * grid.g_nev), lifetime_fs=120.0, traces=dict(table))
        assert np.isfinite(other.chi2_reduced_min)


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


def five_label_tasks(closure="cumulant"):
    """Table tasks of the five labels on a 2x2x2 grid around the bundled best fit."""
    times_fs = np.arange(-400.0, 1150.0 + 1.0, 2.0)
    datasets = [
        ExperimentDataset(label, times_fs, np.zeros(times_fs.size), n, phot / n)
        for label, (n, phot) in LABEL_INFO.items()
    ]
    grid = FitGrid(
        g_nev=np.array([10.6, 21.2]),
        gamma0z_mev=np.array([1.68, 8.4]),
        gamma_minus_mev=np.array([0.0141, 0.0282]),
    )
    solver = SolverConfig(closure=closure)
    tasks = fit_module._member_tasks(datasets, grid, 120.0, 0.020, 8.08e10, solver, (-100.0, 100.0))
    return datasets, tasks


@pytest.mark.xfail(strict=True, reason="the table's strongly coupled corners miss their converged traces "
                   "at the default tolerances, by 2.4e-3 of the peak here (ROADMAP item 2)")
def test_a_strongly_coupled_a1_member_matches_its_converged_trace():
    # A1 at (5000 neV, 0.1 meV, 0.0316 meV), as the table integrates it for samples at -500..1500 fs
    # every 4 fs and shifts of +-400 fs, against rtol 1e-12 / abs_tol 1e-14
    times_fs = np.arange(-500.0, 1500.0 + 1.0, 4.0)
    n, photons = LABEL_INFO["A1"]
    ds = ExperimentDataset("A1", times_fs, np.zeros(times_fs.size), n, photons / n)
    corner = FitGrid(g_nev=np.array([5000.0]), gamma0z_mev=np.array([0.1]), gamma_minus_mev=np.array([0.0316]))
    tasks = _member_tasks([ds], corner, 120.0, 0.020, fit_module.N_REF_DEFAULT, None, (-400.0, 400.0))
    params, pulse, solver = tasks[(0, 0, 0, 0)]
    tight = simulate_energy(params, pulse, replace(solver, rel_tol=1e-12, abs_tol=1e-14)).energy_mev
    error = np.max(np.abs(simulate_energy(params, pulse, solver).energy_mev - tight))
    assert error <= 1e-5 * np.max(tight)


class TestBatches:
    @pytest.mark.parametrize("closure", ["cumulant", "meanfield"])
    def test_five_label_batches_match_their_scalar_traces(self, closure):
        _, tasks = five_label_tasks(closure)
        batches = fit_module._batches(tasks)
        assert len(batches) == 5
        for keys in batches:
            assert len({key[3] for key in keys}) == 1
            params = [tasks[key][0] for key in keys]
            _, pulse, solver = tasks[keys[0]]
            traces, _ = fit_module.simulate_energies(params, pulse, solver)
            for p, trace in zip(params, traces):
                ref = fit_module.simulate_energy(p, pulse, solver).energy_mev
                assert np.max(np.abs(trace.energy_mev - ref)) <= 1e-6 * np.max(ref), p

    def test_batches_are_cut_from_each_dataset_in_regime_order(self, monkeypatch):
        _, tasks = five_label_tasks()
        monkeypatch.setattr(fit_module, "BATCH_CAP", 3)
        batches = fit_module._batches(tasks)
        # eight members per dataset become runs of 3, 3 and 2
        assert [len(b) for b in batches] == [3, 3, 2] * 5
        for di in range(5):
            keys = [k for b in batches for k in b if k[3] == di]
            regimes = [fit_module._regime(tasks[k][0]) for k in keys]
            assert regimes == sorted(regimes)
            assert sorted(keys) == sorted(k for k in tasks if k[3] == di)

    def test_batch_membership_does_not_depend_on_workers(self):
        datasets, tasks = five_label_tasks()
        tasks = {key: task for key, task in tasks.items() if key[3] < 2 and key[2] == 0}
        labels = [ds.label for ds in datasets]
        one = fit_module._integrate(tasks, labels, workers=1)
        two = fit_module._integrate(tasks, labels, workers=2)
        assert list(one) == list(two) == list(tasks)
        for key in tasks:
            np.testing.assert_array_equal(one[key].energy_mev, two[key].energy_mev)

    def test_a_member_failure_is_relabelled_with_its_grid_point(self, monkeypatch):
        _, tasks = five_label_tasks()
        batch = [(key, task) for key, task in tasks.items() if key[3] == 2][:3]

        def fail_in_member_1(params, pulse, solver):
            raise IntegrationError("derivative became non-finite in member 1 at t = 0.1 ps", 0.1, member=1)

        monkeypatch.setattr(fit_module, "simulate_energies", fail_in_member_1)
        with pytest.raises(IntegrationError) as info:
            fit_module._fit_batch_task(batch)
        key, (params, _, _) = batch[1]
        message = str(info.value)
        assert message.startswith(f"grid point {key[:3]} of dataset 2 (g = {params.g_mev * 1e6:g} neV, ")
        assert message.endswith("): derivative became non-finite in member 1 at t = 0.1 ps")
        assert info.value.member == 1
        assert info.value.last_good_time_ps == 0.1

    def test_a_batch_logs_its_solver_work(self, caplog):
        datasets, tasks = five_label_tasks()
        tasks = {key: task for key, task in tasks.items() if key[3] == 4 and key[2] == 0}
        with caplog.at_level("INFO", logger="dickesim.fit"):
            fit_module._integrate(tasks, [ds.label for ds in datasets], workers=1)
        record, table = caplog.records
        message = record.getMessage()
        assert message.startswith("B2: 4 members, g sqrt(N)/kappa ")
        for word in ("gamma_tot/kappa", "rhs calls", "jacobians", "steps"):
            assert word in message
        assert table.getMessage().startswith("table: 4 members, ")

