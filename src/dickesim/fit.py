"""Global chi-squared estimation of (g, gamma0_z, gamma_minus) from transients.

Each measured pump-probe transient is compared against the model energy
trace through two per-dataset nuisance parameters, an overall scale S and a
time shift T_0, both eliminated inside the objective for every grid point
at once: S in closed form, T_0 by a scan over the model's whole time steps,
then the exact least chi^2 of the interpolated model a step either side.
The three physical rates are shared by all datasets and scanned on a log
grid; every dataset keeps its own molecule number and pump photon ratio.

chi^2 = sum_i [ (S * d_i - E(t_i + T_0)) / (S * sigma_i) ]^2
      = sum_i w_i (d_i - a E(t_i + T_0))^2,   w_i = 1/sigma_i^2,  a = 1/S

with sigma_i estimated from quiet stretches of the measured signal itself.
The noise of the scaled data S d_i is S sigma_i, so chi^2 does not depend
on the units the data come in, and its minimum over S is closed form:
a = sum(w d E) / sum(w E^2).
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .cumulant import IntegrationError, SolverConfig, process_map, simulate_energies, simulate_energy
from .model import (
    HBAR_MEV_PS,
    N_REF_DEFAULT,
    PULSE_SUPPORT_SIGMAS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    gamma_total,
)
from .observables import EnergyTrace, convolve_response

logger = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-12
# chi^2 quantile for a 68% region with three jointly estimated parameters
DELTA_CHI2_68 = 3.51

# label -> (molecules, photons entering the cavity)
# The B2 photon count restores the pump ratio its companion high-pump run
# shares and reproduces the published charging energies; the alternative
# reading an order of magnitude lower does neither.
LABEL_INFO = {
    "A1": (16.20e10, 1.90e10),
    "A2": (8.08e10, 0.98e10),
    "A3": (1.62e10, 0.26e10),
    "B1": (1.62e10, 4.53e10),
    "B2": (0.81e10, 1.60e10),
}

# noise-window boundaries in fs; outermost windows extend to the data edges
FIVE_WINDOWS = ((-math.inf, -300.0), (-300.0, 300.0), (300.0, 700.0), (700.0, 1000.0), (1000.0, math.inf))
FOUR_WINDOWS = ((-math.inf, -300.0), (-300.0, 300.0), (300.0, 1000.0), (1000.0, math.inf))
LABEL_WINDOWS = {
    "A1": FIVE_WINDOWS,
    "A2": FIVE_WINDOWS,
    "A3": FOUR_WINDOWS,
    "B1": FOUR_WINDOWS,
    "B2": FOUR_WINDOWS,
}

QUIET_SPAN_FS = 150.0


class DataError(RuntimeError):
    """A dataset file or its metadata cannot be used."""


@dataclass(frozen=True)
class ExperimentDataset:
    """One measured transient with the metadata the fit needs.

    ``signal`` is the raw differential reflectivity; ``sigma`` is per-sample
    noise, absent until ``estimate_noise`` has run.  ``response_ps``
    overrides the detector width otherwise taken from the cavity lifetime.
    """

    label: str
    times_fs: np.ndarray
    signal: np.ndarray
    n_dye: float
    photon_ratio: float
    response_ps: float | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times_fs, dtype=float)
        d = np.asarray(self.signal, dtype=float)
        if t.ndim != 1 or t.shape != d.shape:
            raise ValueError("times and signal must be matching 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
            raise ValueError("dataset contains non-finite values")
        if np.any(np.diff(t) < 0):
            raise ValueError("times must be sorted")
        if self.n_dye <= 0:
            raise ValueError(f"n_dye must be positive, got {self.n_dye}")
        if self.photon_ratio < 0:
            raise ValueError(f"photon_ratio must be non-negative, got {self.photon_ratio}")
        object.__setattr__(self, "times_fs", t)
        object.__setattr__(self, "signal", d)

    @property
    def n_points(self) -> int:
        return int(self.times_fs.size)


def load_dataset(
    path,
    label: str,
    n_dye: float | None = None,
    photon_ratio: float | None = None,
    response_ps: float | None = None,
) -> ExperimentDataset:
    """Read a two-column transient (t_fs, dR/R) with '#' comments.

    Known labels bring their molecule and photon numbers along; any other
    label requires both to be passed explicitly.  Unsorted files are sorted
    with a warning, since an unnoticed shuffle would silently corrupt the
    time-shift fit.
    """
    times = []
    signal = []
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                times.append(float(parts[0]))
                signal.append(float(parts[1]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: cannot parse {line!r}") from None
    if len(times) < 10:
        raise DataError(f"{path}: only {len(times)} samples; need at least 10")

    t = np.asarray(times)
    d = np.asarray(signal)
    if np.any(np.diff(t) < 0):
        warnings.warn(f"{path}: times were not sorted; sorting", stacklevel=2)
        order = np.argsort(t, kind="stable")
        t = t[order]
        d = d[order]

    if label in LABEL_INFO:
        default_n, default_phot = LABEL_INFO[label]
        if n_dye is None:
            n_dye = default_n
        if photon_ratio is None:
            photon_ratio = default_phot / n_dye
    else:
        if n_dye is None or photon_ratio is None:
            raise DataError(
                f"unknown label {label!r}: pass n_dye and photon_ratio explicitly"
            )
    try:
        return ExperimentDataset(
            label=label,
            times_fs=t,
            signal=d,
            n_dye=n_dye,
            photon_ratio=photon_ratio,
            response_ps=response_ps,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _window_sigma(t_fs: np.ndarray, d: np.ndarray) -> float:
    """Noise of one window: detrended rms over its quietest 150 fs stretch.

    A window that also contains real signal would inflate a plain standard
    deviation, so the rms is taken around the linear trend of the stretch
    with the least |slope| (two fitted parameters, hence m-2 for its m
    samples).  A stretch runs from each sample to 150 fs later.  It competes
    only if it ends inside the window, holds at least 3 samples and its
    times vary; when none does, the whole window stands in, and its times
    must not all coincide.  All stretches are fitted at once, in blocks of
    about 2**14 samples, by centred least squares: slope = sum(t~ d~) /
    sum(t~^2), with t~ and d~ the deviations from the stretch's means.  On
    equal slopes the earliest stretch wins.
    """
    n = t_fs.size
    ends = np.searchsorted(t_fs, t_fs + QUIET_SPAN_FS, side="right")
    starts = np.flatnonzero(
        (t_fs + QUIET_SPAN_FS <= t_fs[-1] + 1e-9) & (ends >= np.arange(n) + 3) & (t_fs[ends - 1] > t_fs)
    )
    if starts.size == 0:  # the whole window stands in
        starts, lengths = np.zeros(1, dtype=int), np.full(1, n)
    else:
        lengths = ends[starts] - starts
    width = int(lengths.max())
    rows = max(1, 2 ** 14 // width)  # ~130 kB blocks
    best_slope, sigma = math.inf, math.nan
    for lo in range(0, starts.size, rows):
        m = lengths[lo:lo + rows]
        at = np.minimum(starts[lo:lo + rows, None] + np.arange(width), n - 1)
        inside = np.arange(width) < m[:, None]
        # two passes: each stretch's means, then its centred sums
        tc, dc = (np.where(inside, x[at], 0.0) for x in (t_fs, d))
        tc, dc = (np.where(inside, x - x.sum(axis=1, keepdims=True) / m[:, None], 0.0) for x in (tc, dc))
        slope = (tc * dc).sum(axis=1) / (tc * tc).sum(axis=1)
        k = int(np.argmin(np.abs(slope)))
        if abs(slope[k]) < best_slope:
            resid = dc[k] - slope[k] * tc[k]
            best_slope, sigma = abs(slope[k]), math.sqrt(float(resid @ resid) / max(m[k] - 2, 1))
    return sigma


def estimate_noise(dataset: ExperimentDataset) -> ExperimentDataset:
    """Fill per-sample noise levels from quiet stretches of each window.

    The label picks the published partition of the time axis (five windows
    for the two high-concentration runs, four otherwise).  Every window
    needs at least five samples, not all at one time.  A window quieter
    than the 1e-12 floor is clamped there, with a warning, so later weights
    stay finite.
    """
    t = dataset.times_fs
    d = dataset.signal
    sigma = np.empty_like(d)
    # the windows tile the real line and the times are finite, so every
    # sample falls in exactly one
    for lo, hi in LABEL_WINDOWS.get(dataset.label, FOUR_WINDOWS):
        idx = np.nonzero((t >= lo) & (t < hi))[0]
        if idx.size < 5:
            raise DataError(
                f"noise window [{lo:g}, {hi:g}) fs has {idx.size} samples; need at least 5"
            )
        if t[idx[0]] == t[idx[-1]]:
            raise DataError(f"noise window [{lo:g}, {hi:g}) fs has all its samples at {t[idx[0]]:g} fs")
        s = _window_sigma(t[idx], d[idx])
        if s < SIGMA_FLOOR:
            warnings.warn(
                f"noise window [{lo:g}, {hi:g}) fs came out below the floor; clamping",
                stacklevel=2,
            )
            s = SIGMA_FLOOR
        sigma[idx] = s
    return replace(dataset, sigma=sigma)


@dataclass(frozen=True)
class InnerFit:
    """Nuisance parameters of one dataset at one grid point."""

    scale: float
    t0_fs: float
    chi2: float


def _toeplitz(i, f_at, f_after, n_shifts) -> np.ndarray:
    """Sample weights ``f_at`` on node rows ``i`` and ``f_after`` on ``i + 1``, column c moved down c rows."""
    span = int(i.max()) + 2
    col = np.bincount(i, f_at, span) + np.bincount(i + 1, f_after, span)
    return linalg.toeplitz(np.r_[col, np.zeros(n_shifts - 1)], np.r_[col[0], np.zeros(n_shifts - 1)])


def _lattice_s2(energies, t_model, dt, t_data_ps, w, k_lo, k_hi) -> tuple:
    """The data-free half of ``_lattice_chi2``: member rows, node rows i, weights f and S2 = sum(w E^2).

    A whole-step shift k dt, k_lo..k_hi, keeps each sample's interpolation
    weight f, so S2 is the member rows E^2 and E E[+1] times one Toeplitz
    matrix each; column c of S2 is shift k_lo + c.  The member rows are a
    view of ``energies`` (members x steps) unless they run past its end.
    """
    u = (t_data_ps - t_model[0]) / dt
    node = np.clip(np.floor(u).astype(int), -k_lo, t_model.size - 1 - k_hi)
    f = np.clip(u - node, 0.0, 1.0)
    i = node - node.min()
    n_shifts = k_hi - k_lo + 1
    # rows from node min + k_lo on; a row past the grid's end is 0, with weight 0
    first, rows = int(node.min()) + k_lo, int(i.max()) + 1 + n_shifts
    e = np.asarray(energies)[:, first:first + rows + 1]
    if e.shape[1] <= rows:
        e = np.pad(e, ((0, 0), (0, rows + 1 - e.shape[1])))
    s2 = e[:, :-1] ** 2 @ _toeplitz(i, w * (1.0 - f) ** 2, w * f * f, n_shifts)
    s2 += (e[:, :-1] * e[:, 1:]) @ _toeplitz(i, 2.0 * w * f * (1.0 - f), np.zeros_like(f), n_shifts)
    return e, i, f, s2


def _lattice_chi2(rows, wd, d) -> np.ndarray:
    """chi^2 = sum(w d^2) - sum(w d E)^2 / sum(w E^2) of each member at each shift of ``_lattice_s2``'s ``rows``.

    S1 = sum(w d E) is the member rows E times one more Toeplitz matrix.
    chi^2 is inf where sum(w E^2) <= 0.
    """
    e, i, f, s2 = rows
    s1 = e[:, :-1] @ _toeplitz(i, wd * (1.0 - f), wd * f, s2.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s2 > 0.0, float(wd @ d) - s1 * s1 / s2, np.inf)


def _chi2_rows(energies, rows, steps, u, d, w, wd) -> tuple[np.ndarray, np.ndarray]:
    """chi^2 = sum w (d - a E)^2 and scale 1/a of member ``rows[p]`` shifted by ``steps[p]`` model steps.

    ``u`` holds the samples' grid positions; E is interpolated as ``np.interp``
    does.  chi^2 is inf where sum(w E^2) <= 0.  Each row is reduced on its own.
    """
    flat, chi2, scale = energies.ravel(), np.empty(rows.size), np.empty(rows.size)
    for part in np.array_split(np.arange(rows.size), 1 + rows.size * u.size // 2 ** 14):  # ~100 kB arrays
        x = u + steps[part, None]
        node = np.clip(np.floor(x).astype(int), 0, energies.shape[1] - 2)
        i = node + energies.shape[1] * rows[part, None]
        e = flat[i] + np.clip(x - node, 0.0, 1.0) * (flat[i + 1] - flat[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            wee = (w * e * e).sum(axis=1)
            a = (wd * e).sum(axis=1) / wee
            chi2[part] = np.where(wee > 0.0, (w * (d - a[:, None] * e) ** 2).sum(axis=1), np.inf)
        scale[part] = np.divide(1.0, a, out=np.full_like(a, np.inf), where=a != 0.0)
    return chi2, scale


def _bracket_minimum(energies, first, lo, hi, u, starts, w, wd) -> np.ndarray:
    """The delta in [0, 2] giving each member its least chi^2 at a shift of first + delta steps in [lo, hi].

    Sample i, at grid position u_i + first + delta, crosses nodes at delta = 1 - phi_i and 2 - phi_i,
    phi_i = u_i mod 1; ``starts`` opens each class of one phi, in falling phi.  Between crossings
    S1 = sum(w d E) = alpha + beta delta and S2 = sum(w E^2) = gamma + 2 zeta delta + eta delta^2, so
    chi^2 = sum(w d^2) - S1^2/S2 is least at an end or at (alpha zeta - beta gamma) / (beta zeta - alpha eta).
    """
    node, phi = np.divmod(u, 1.0)
    at = np.clip(first[:, None] + node.astype(int) + np.arange(4)[:, None, None], 0, energies.shape[1] - 1)
    e = energies.ravel()[at + energies.shape[1] * np.arange(first.size)[:, None]]  # [node, member, sample]
    de, ee, en = (np.add.reduceat(x, starts, axis=-1) if starts.size < u.size else x
                  for x in (wd * e, w * e * e, w * e[:-1] * e[1:]))
    c = phi[starts] - np.arange(3)[:, None, None]  # in cell m, p = (1 - c) e_m + c e_m+1, q = e_m+1 - e_m
    a = 1.0 - c
    cells = np.stack([  # sum w d p, w d q, w p^2, w p q and w q^2 of each class in each cell
        a * de[:-1] + c * de[1:], de[1:] - de[:-1], a * a * ee[:-1] + 2.0 * a * c * en + c * c * ee[1:],
        (a - c) * en + c * ee[1:] - a * ee[:-1], ee[:-1] + ee[1:] - 2.0 * en,
    ])
    moves = [cells[:, 0].sum(axis=-1, keepdims=True), cells[:, 1] - cells[:, 0], cells[:, 2] - cells[:, 1]]
    alpha, beta, gamma, zeta, eta = np.cumsum(np.concatenate(moves, axis=-1), axis=-1)[..., None]
    ends = np.r_[0.0, 1.0 - phi[starts], 2.0 - phi[starts], 2.0]
    left = np.maximum(ends[:-1], lo - first[:, None])[..., None]
    right = np.minimum(ends[1:], hi - first[:, None])[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        star = np.nan_to_num((alpha * zeta - beta * gamma) / (beta * zeta - alpha * eta))
        x = np.concatenate([left, right, np.clip(star, left, right)], axis=2)
        s1, s2 = alpha + beta * x, gamma + (2.0 * zeta + eta * x) * x
        score = np.where((left <= right) & (s2 > 0.0), s1 * s1 / s2, -np.inf)
    return x.reshape(first.size, -1)[np.arange(first.size), score.reshape(first.size, -1).argmax(axis=1)]


def _shift_steps(dataset: ExperimentDataset, t0_range_fs: tuple, dt_ps: float) -> tuple[int, int]:
    """Whole steps k_lo..k_hi of ``dt_ps`` in the shift range, after the checks that need no trace."""
    if dataset.sigma is None:
        raise DataError(f"dataset {dataset.label!r} has no noise estimate; run estimate_noise")
    lo_fs, hi_fs = t0_range_fs
    if not hi_fs > lo_fs:
        raise ValueError("t0 range must have positive width")
    k_lo, k_hi = math.ceil(lo_fs * 1e-3 / dt_ps - 1e-9), math.floor(hi_fs * 1e-3 / dt_ps + 1e-9)
    if k_hi < k_lo:
        raise ValueError(f"t0 range holds no whole model step of {dt_ps * 1e3:g} fs")
    if float(dataset.signal ** 2 @ (1.0 / dataset.sigma ** 2)) <= 0.0:
        raise DataError(f"dataset {dataset.label!r} has no signal to scale")
    return k_lo, k_hi


# sample-members per refine block, a crossing class counting four: against 27 members of 776 samples,
# blocks of 5, 10 and 27 took 4.4, 4.5 and 4.8 ms; 10 raised a five-label fit's peak RSS by 0.7 MB, 5 by 0.2
REFINE_SIZE = 2 ** 12


def _grid_step(t_model: np.ndarray) -> float:
    """The step of a uniform time grid, from its ends."""
    return (t_model[-1] - t_model[0]) / (t_model.size - 1)


class _TableSums:
    """What ``inner_fits`` computes from the models, the sample times, sigma and the shift range alone.

    That is the check of the models' one uniform grid and of its span, the
    stacked member energies, the samples' grid positions cut into classes of
    one phase, and the lattice rows with their S2 sums (``_lattice_s2``).
    The data-only checks of ``_shift_steps`` run first.
    """

    def __init__(self, models: list[EnergyTrace], dataset: ExperimentDataset, t0_range_fs: tuple) -> None:
        t_model = models[0].times_ps
        self.dt = dt = _grid_step(t_model)
        self.k_lo, k_hi = _shift_steps(dataset, t0_range_fs, dt)
        t_data_ps = dataset.times_fs * 1e-3
        self.lo, self.hi = lo, hi = t0_range_fs[0] * 1e-3, t0_range_fs[1] * 1e-3
        uniform = np.max(np.abs(t_model - t_model[0] - dt * np.arange(t_model.size))) <= 1e-6 * dt
        if not uniform or any(not np.array_equal(model.times_ps, t_model) for model in models):
            raise ValueError("the model traces of one dataset must share one uniform time grid")
        if t_data_ps[0] + lo < t_model[0] or t_data_ps[-1] + hi > t_model[-1]:
            raise ValueError(
                "model trace does not span the dataset over the full shift range: "
                f"need [{t_data_ps[0] + lo:g}, {t_data_ps[-1] + hi:g}] ps, "
                f"have [{t_model[0]:g}, {t_model[-1]:g}] ps"
            )
        self.shifts = np.clip(dt * np.arange(self.k_lo, k_hi + 1), lo, hi)
        self.w = 1.0 / dataset.sigma ** 2
        self.energies = np.stack([m.energy_mev for m in models])
        self.lattice = _lattice_s2(self.energies, t_model, dt, t_data_ps, self.w, self.k_lo, k_hi)
        # the samples' grid positions, in falling phi = u mod 1, cut into classes of one phi
        self.u = u = (t_data_ps - t_model[0]) / dt
        self.order = order = np.argsort(-(u % 1.0), kind="stable")
        self.starts = starts = np.r_[0, np.flatnonzero(-np.diff(u[order] % 1.0) > 1e-9) + 1]
        # the refine's input but w d, which it reads in this order too
        self.refine = (lo / dt, hi / dt, u[order], starts, self.w[order])
        size = max(1, REFINE_SIZE // (u.size + 4 * starts.size))  # members per block of the refine
        self.blocks = [slice(at, at + size) for at in range(0, len(models), size)]


def inner_fits(
    models: list[EnergyTrace],
    dataset: ExperimentDataset,
    t0_range_fs: tuple[float, float] = (-400.0, 400.0),
) -> tuple[list, int, int]:
    """Best scale and time shift of one dataset against each of ``models``.

    At fixed shift chi^2 = sum w (d - a E)^2 is least at a = 1/S = sum(w d E) / sum(w E^2).
    ``_lattice_chi2`` takes it at every whole step of the models' one uniform grid; the near-least
    steps are evaluated directly, ties going to the smaller |T_0|, and ``_bracket_minimum`` finds
    the exact least chi^2 within a step either side, in blocks of ``REFINE_SIZE`` sample-members,
    taken unless the valley is flat.  Returns per model an ``InnerFit`` or the ValueError of a trace
    without amplitude, the count of lattice shifts and that of the sample classes crossing nodes together.

    The part that reads no signal (``_TableSums``) is computed afresh on every call; a
    ``ModelTable`` passed to ``global_fit`` keeps it between calls instead.
    """
    return _inner_fits(_TableSums(models, dataset, t0_range_fs), dataset)


def _inner_fits(sums: _TableSums, dataset: ExperimentDataset) -> tuple[list, int, int]:
    """``inner_fits`` of ``dataset``'s signal, given the table-only part ``sums`` of its models."""
    dt, shifts, w, u = sums.dt, sums.shifts, sums.w, sums.u
    d = dataset.signal
    wd = w * d
    lattice = _lattice_chi2(sums.lattice, wd, d)
    dust = 1e-10 * float(wd @ d)  # the lattice form's rounding: about 2e-15 of sum(w d^2)
    shared = (*sums.refine, wd[sums.order])  # what every block's refine reads

    energies, nearest = sums.energies, np.abs(shifts)
    # a row without a finite value has every step near, and fails at the nearest |T_0|
    near = lattice <= lattice.min(axis=1, keepdims=True) + dust
    exact, scales = np.full(lattice.shape, np.inf), np.full(lattice.shape, np.inf)
    m, c = np.nonzero(near)
    exact[m, c], scales[m, c] = _chi2_rows(energies, m, shifts[c] / dt, u, d, w, wd)
    failed = np.where(near & ~(exact < np.inf), nearest, np.inf)  # |T_0| of each failing shift
    best = exact.min(axis=1)
    pick = np.where(exact <= best[:, None] * (1.0 + 1e-12), nearest, np.inf).argmin(axis=1)
    first = sums.k_lo + pick - 1  # the bracket: shifts (first + delta) dt in the range, delta in [0, 2]
    delta = np.concatenate([_bracket_minimum(energies[b], first[b], *shared) for b in sums.blocks])
    refined = np.clip(dt * (first + delta), sums.lo, sums.hi)
    members = np.arange(len(energies))
    chi2, scale = _chi2_rows(energies, members, refined / dt, u, d, w, wd)
    take = chi2 < best * (1.0 - 1e-12)  # else a flat valley: the lattice shift stands
    kept = exact[members, pick], scales[members, pick], shifts[pick]
    out = []
    for n, (chi2_n, scale_n, shift_n) in enumerate(np.where(take, [chi2, scale, refined], kept).T):
        fit = InnerFit(scale=float(scale_n), t0_fs=float(shift_n) * 1e3, chi2=float(chi2_n))
        out.append(fit if failed[n].min() == np.inf else ValueError(
            f"model trace has no amplitude over the data at shift {shifts[failed[n].argmin()] * 1e3:g} fs"))
    return out, shifts.size, sums.starts.size


def inner_fit(
    model: EnergyTrace,
    dataset: ExperimentDataset,
    t0_range_fs: tuple[float, float] = (-400.0, 400.0),
) -> InnerFit:
    """``inner_fits`` of one model: its scale and shift, or the ValueError raised."""
    fit = inner_fits([model], dataset, t0_range_fs)[0][0]
    if isinstance(fit, ValueError):
        raise fit
    return fit


@dataclass(frozen=True)
class FitGrid:
    """Logarithmic search grid over the three shared rates."""

    g_nev: np.ndarray
    gamma0z_mev: np.ndarray
    gamma_minus_mev: np.ndarray

    @classmethod
    def logspace(
        cls,
        g_bounds_nev: tuple[float, float] = (0.1, 5000.0),
        gamma0z_bounds_mev: tuple[float, float] = (0.1, 5000.0),
        gamma_minus_bounds_mev: tuple[float, float] = (0.001, 1.0),
        points: int = 9,
    ) -> "FitGrid":
        if points < 1:
            raise ValueError(f"points must be at least 1, got {points}")

        def axis(lo, hi):
            if not (0 < lo < hi):
                raise ValueError(f"bad axis bounds ({lo}, {hi})")
            return np.geomspace(lo, hi, points)

        return cls(
            g_nev=axis(*g_bounds_nev),
            gamma0z_mev=axis(*gamma0z_bounds_mev),
            gamma_minus_mev=axis(*gamma_minus_bounds_mev),
        )

    def refined_around(self, i: int, j: int, k: int) -> "FitGrid":
        """Zoom each axis to one coarse cell either side of (i, j, k).

        For a geometric axis this narrows the span to two coarse steps, so
        the same point count resolves it about four times finer.  A node
        within 1e-12 relative of a coarse node is placed exactly on it, so
        ``global_fit`` can take that member's trace from the coarse table.
        """
        def zoom(axis, idx):
            step = axis[1] / axis[0] if axis.size > 1 else 2.0
            fine = np.geomspace(axis[idx] / step, axis[idx] * step, axis.size)
            near = np.abs(fine[:, None] / axis[None, :] - 1.0) <= 1e-12
            hit = near.any(axis=1)
            fine[hit] = axis[near.argmax(axis=1)[hit]]
            return fine

        return FitGrid(
            g_nev=zoom(self.g_nev, i),
            gamma0z_mev=zoom(self.gamma0z_mev, j),
            gamma_minus_mev=zoom(self.gamma_minus_mev, k),
        )


@dataclass(frozen=True)
class FitResult:
    """Best grid point of a global fit.

    ``inner`` maps each dataset label to its scale and shift at the best
    point, and ``traces`` to the convolved model trace they were fitted
    against.  ``failed`` maps each grid point left out of the map (its
    chi^2 stays inf) to the first dataset's reason.
    """

    g_nev: float
    gamma0z_mev: float
    gamma_minus_mev: float
    chi2_reduced_min: float
    k_eff: int
    inner: dict[str, InnerFit]
    traces: dict[str, EnergyTrace]
    grid: FitGrid
    chi2_reduced_map: np.ndarray
    argmin: tuple[int, int, int]
    confidence: dict | None
    failed: dict[tuple[int, int, int], str]
    lifetime_fs: float
    coarse: "FitResult | None" = None


def trace_window(
    datasets: list[ExperimentDataset],
    pulse_sigma_ps: float,
    t0_range_fs: tuple[float, float],
    solver: SolverConfig | None,
    center_ps: float = 0.0,
) -> SolverConfig:
    """``solver`` (default ``SolverConfig()``) over the simulation window a model of ``datasets`` needs.

    The window covers every sample over the whole shift range, padded by
    five times the widest detector response plus 50 fs so the edges of the
    response convolution stay outside it, and starts no later than the
    leading edge of the pulse centred at ``center_ps``.  Every dataset must
    carry its ``response_ps``.  ``solver``'s own window is replaced.
    """
    lo_ps = min(ds.times_fs[0] for ds in datasets) * 1e-3 + t0_range_fs[0] * 1e-3
    hi_ps = max(ds.times_fs[-1] for ds in datasets) * 1e-3 + t0_range_fs[1] * 1e-3
    pad = 5.0 * max(ds.response_ps for ds in datasets) + 0.05
    start_ps = min(lo_ps - pad, center_ps - PULSE_SUPPORT_SIGMAS * pulse_sigma_ps)
    return replace(solver or SolverConfig(), t_start_ps=float(start_ps), t_end_ps=float(hi_ps + pad))


def table_window(datasets, lifetime_fs, pulse_sigma_ps, t0_range_fs, solver) -> tuple[list, SolverConfig]:
    """``datasets``, a missing detector response set to the cavity lifetime, and their ``trace_window``."""
    lifetime_ps = lifetime_fs * 1e-3
    datasets = [replace(ds, response_ps=lifetime_ps) if ds.response_ps is None else ds for ds in datasets]
    return datasets, trace_window(datasets, pulse_sigma_ps, t0_range_fs, solver)


# largest number of members integrated as one stacked system.  One LSODA
# solve steps at the pace of its hardest member, so very large batches
# lose, while small ones pay the per-call overhead of the array equations
# more often.  Criterion 6's 729-member A2 table on a 2-core machine (one
# BLAS thread) took 0.49-0.52, 0.44-0.45, 0.41-0.43, 0.40-0.43 and
# 0.39-0.41 s in near-equal batches of at most 27, 48, 64, 81 and 128
# members (four runs each); over ten alternating runs of 64 and 128, 128
# won all ten by a median 0.015 s, inside the 0.016 s spread of the runs at
# 64.  On a default-bounds table 128 loses: one batch of A1's 81
# (g, gamma0z) pairs steps at its strongly coupled corners' pace, and the
# five-label slice of those pairs took 10.7 s against 6.5 s at 64.
BATCH_CAP = 64


def _regime(params: ModelParams) -> tuple[float, float]:
    """(g sqrt(N) / kappa, gamma_tot / kappa): the order of members in batches."""
    return (
        params.g_mev * math.sqrt(params.n_molecules) / params.kappa_mev,
        gamma_total(params) / params.kappa_mev,
    )


def _batches(tasks: dict) -> list[list]:
    """Keys of ``tasks`` grouped into the batches that are integrated together.

    A batch holds members of one dataset only, ordered by g sqrt(N)/kappa and
    then gamma_tot/kappa so that neighbours step alike, cut into near-equal
    runs of at most ``BATCH_CAP``.  Only the members' own parameters decide
    it, so the traces do not depend on the number of workers.
    """
    by_dataset: dict[int, list] = {}
    for key in tasks:
        by_dataset.setdefault(key[3], []).append(key)
    batches = []
    for di in sorted(by_dataset):
        keys = sorted(by_dataset[di], key=lambda k: (_regime(tasks[k][0]), k))
        runs = -(-len(keys) // BATCH_CAP)
        batches.extend([keys[i] for i in run] for run in np.array_split(np.arange(len(keys)), runs))
    return batches


def _fit_batch_task(batch: list) -> tuple[list, object, float]:
    """Convolved traces of one batch of (key, task) pairs, its solver work and wall time."""
    start = time.perf_counter()
    # a batch holds one dataset, to which _member_tasks gives one pulse and one solver
    _, (_, pulse, solver) = batch[0]
    try:
        traces, stats = simulate_energies([task[0] for _, task in batch], pulse, solver)
    except IntegrationError as exc:
        if exc.member is None:
            raise
        key, (params, *_) = batch[exc.member]
        raise IntegrationError(
            f"grid point {key[:3]} of dataset {key[3]} (g = {params.g_mev * 1e6:g} neV, "
            f"gamma0z = {params.gamma0z_mev:g} meV, gamma_minus = {params.gamma_minus_mev:g} meV): {exc}",
            exc.last_good_time_ps,
            member=exc.member,
        ) from None
    convolved = [convolve_response(trace, pulse.response_ps) for trace in traces]
    return convolved, stats, time.perf_counter() - start


def _member_tasks(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float,
    pulse_sigma_ps: float,
    n_ref: float,
    solver: SolverConfig | None,
    t0_range_fs: tuple[float, float],
) -> dict:
    """One hashable integration task per (i_g, i_z, i_m, dataset_index) key."""
    kappa = HBAR_MEV_PS / (lifetime_fs * 1e-3)
    datasets, solver = table_window(datasets, lifetime_fs, pulse_sigma_ps, t0_range_fs, solver)

    tasks = {}
    for di, ds in enumerate(datasets):
        pulse = PulseParams(
            amplitude=drive_amplitude_from_photon_ratio(ds.photon_ratio, ds.n_dye),
            center_ps=0.0,
            sigma_ps=pulse_sigma_ps,
            response_ps=ds.response_ps,
        )
        for i, g in enumerate(grid.g_nev):
            for j, gz in enumerate(grid.gamma0z_mev):
                for k, gm in enumerate(grid.gamma_minus_mev):
                    params = ModelParams(
                        n_molecules=ds.n_dye,
                        g_mev=g * 1e-6,
                        kappa_mev=kappa,
                        gamma0z_mev=gz,
                        n_ref=n_ref,
                        gamma_minus_mev=gm,
                    )
                    tasks[(i, j, k, di)] = (params, pulse, solver)
    return tasks


def _integrate(tasks: dict, labels: list[str], workers: int) -> dict:
    """Traces of ``tasks`` integrated batch by batch; ``process_map`` maps over batches."""
    start = time.perf_counter()
    batches = [[(key, tasks[key]) for key in keys] for keys in _batches(tasks)]
    results = process_map(_fit_batch_task, batches, workers)
    out = {}
    for batch, (traces, stats, wall) in zip(batches, results):
        regimes = np.array([_regime(task[0]) for _, task in batch])
        (coupling_lo, decay_lo), (coupling_hi, decay_hi) = regimes.min(axis=0), regimes.max(axis=0)
        logger.info(
            "%s: %d members, g sqrt(N)/kappa %.3g..%.3g, gamma_tot/kappa %.3g..%.3g: "
            "%d rhs calls, %d jacobians, %d steps, %.2f s",
            labels[batch[0][0][3]], len(batch), coupling_lo, coupling_hi, decay_lo, decay_hi,
            stats.rhs_calls, stats.jacobians, stats.steps, wall,
        )
        out.update(zip((key for key, _ in batch), traces))
    logger.info("table: %d members, %.2f s", len(tasks), time.perf_counter() - start)
    return {key: out[key] for key in tasks}


class ModelTable(dict):
    """Convolved model traces keyed (i_g, i_z, i_m, dataset_index), built for one grid and dataset count.

    Beside the traces it keeps, per dataset index, the part of
    ``inner_fits`` that reads no signal (``_TableSums``): its checks, the
    stacked energies, the lattice rows and their S2 sums.  Every
    ``global_fit`` against the table after the first reuses it, as long as
    the sample times, sigma, the shift range and every member trace (by
    identity) are those it was computed from; otherwise it is computed
    again and replaces the old entry.  Replace a trace (``table[key] =
    other``), never change its arrays in place: that goes unseen.  A table
    ``global_fit`` built or wrapped itself keeps nothing, since no later
    call can read it.
    """

    def __init__(self, traces: dict, grid: FitGrid, n_datasets: int) -> None:
        super().__init__(traces)
        self.grid, self.n_datasets = grid, n_datasets
        self._sums: dict[int, tuple] = {}  # dataset index -> (members, times, sigma, range, _TableSums)

    def _inner_fits(self, di: int, points: list, dataset: ExperimentDataset, t0_range_fs: tuple, keep: bool):
        """``inner_fits`` of ``dataset`` against the members ``points`` of dataset ``di``.

        ``keep`` holds the table-only part for the next call.
        """
        models = [self[(*p, di)] for p in points]
        members, times, sigma, t0_range, sums = self._sums.get(di, ([], None, None, None, None))
        if not (
            len(members) == len(models) and all(a is b for a, b in zip(members, models))
            and np.array_equal(times, dataset.times_fs) and np.array_equal(sigma, dataset.sigma)
            and t0_range == tuple(t0_range_fs)
        ):
            self._sums.pop(di, None)  # free the old entry before building its successor
            sums = _TableSums(models, dataset, t0_range_fs)
            if keep:
                key = (models, dataset.times_fs.copy(), dataset.sigma.copy(), tuple(t0_range_fs))
                self._sums[di] = (*key, sums)
        return _inner_fits(sums, dataset)


def _model_table(traces: dict, grid: FitGrid, n_datasets: int) -> ModelTable:
    """``traces`` as a ``ModelTable`` of ``grid`` and ``n_datasets``, checked to cover them.

    A plain dict is wrapped in a fresh table; a ``ModelTable`` built for
    another grid or dataset count is refused.
    """
    if not isinstance(traces, ModelTable):
        traces = ModelTable(traces, grid, n_datasets)
    elif traces.n_datasets != n_datasets:
        raise ValueError(f"model table was built for {traces.n_datasets} datasets, not {n_datasets}")
    elif not all(np.array_equal(getattr(traces.grid, axis), getattr(grid, axis))
                 for axis in ("g_nev", "gamma0z_mev", "gamma_minus_mev")):
        raise ValueError("model table was built on another grid")
    shape = (grid.g_nev.size, grid.gamma0z_mev.size, grid.gamma_minus_mev.size)
    for di in range(n_datasets):
        for p in np.ndindex(shape):
            if (*p, di) not in traces:
                raise ValueError(f"model table has no trace for (i_g, i_z, i_m, dataset_index) = {(*p, di)}")
    return traces


def model_traces(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float,
    pulse_sigma_ps: float = 0.020,
    n_ref: float = N_REF_DEFAULT,
    solver: SolverConfig | None = None,
    t0_range_fs: tuple[float, float] = (-400.0, 400.0),
    workers: int = 1,
) -> ModelTable:
    """Convolved model traces for every (grid point, dataset) pair, as a ``ModelTable``.

    This is the expensive half of a global fit; computing it once and
    passing it to ``global_fit`` lets many noise realisations reuse the same
    table, and the table keeps the part of each refit that reads no signal.
    Keys are (i_g, i_z, i_m, dataset_index).  The traces span
    ``trace_window``; ``solver`` supplies the closure, tolerances and output
    step, and its own window is ignored.

    Members are integrated in stacked batches (``_batches``: one dataset
    each, in regime order, at most ``BATCH_CAP`` members), and ``workers``
    processes map over the batches.  Each member stays within the
    tolerances of its own scalar integration; the traces do not depend on
    ``workers``.  Every batch logs its size, regime range, solver work and
    wall time at INFO.
    """
    tasks = _member_tasks(datasets, grid, lifetime_fs, pulse_sigma_ps, n_ref, solver, t0_range_fs)
    return ModelTable(_integrate(tasks, [ds.label for ds in datasets], workers), grid, len(datasets))


def global_fit(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float = 120.0,
    pulse_sigma_ps: float = 0.020,
    n_ref: float = N_REF_DEFAULT,
    solver: SolverConfig | None = None,
    t0_range_fs: tuple[float, float] = (-400.0, 400.0),
    workers: int = 1,
    refine: bool = False,
    traces: dict | None = None,
) -> FitResult:
    """Scan the rate grid, minimise chi^2 jointly over all datasets.

    Every dataset must already carry a noise estimate and a label of its
    own, checked with the rest of ``_shift_steps`` before the table.
    ``traces``, a ``model_traces`` table computed beforehand, must hold
    every key of ``grid`` and ``datasets`` (a ValueError names the first
    missing one), and the shift range is checked against its own step.  A
    ``ModelTable`` must have been built for this grid and dataset count, and
    keeps the part of the fit that reads no signal for the next call; a
    plain dict is wrapped in a fresh one that keeps nothing, with the same
    results.
    ``refine`` runs one extra pass on a four-times-finer grid around
    the coarse minimum; its members on coarse nodes reuse the coarse
    traces instead of integrating them again.  The
    reduced chi^2 uses k_eff = (total samples) - 3: only the shared rates
    count as parameters, matching how the per-dataset scale and shift are
    treated as nuisances.

    A member ``inner_fits`` cannot fit fails its grid point (logged, listed
    in ``failed``); a DataError is raised when every point fails, and an
    error of a whole dataset propagates.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    table = None if traces is None else _model_table(traces, grid, len(datasets))
    labels = [ds.label for ds in datasets]
    for di, ds in enumerate(datasets):
        if table is None:  # the step the table will have
            step = (solver or SolverConfig()).output_dt_ps
        else:
            step = _grid_step(table[(0, 0, 0, di)].times_ps)
        _shift_steps(ds, t0_range_fs, step)
        if labels.count(ds.label) > 1:
            # labels key the inner fits, the traces and the residual files
            raise DataError(f"dataset label {ds.label!r} is used by {labels.count(ds.label)} datasets")
    k_eff = sum(ds.n_points for ds in datasets) - 3
    if k_eff <= 0:
        raise DataError("fewer data points than fit parameters")

    if table is None:
        table = _model_table(model_traces(
            datasets, grid, lifetime_fs,
            pulse_sigma_ps=pulse_sigma_ps, n_ref=n_ref, solver=solver,
            t0_range_fs=t0_range_fs, workers=workers,
        ), grid, len(datasets))

    start = time.perf_counter()
    shape = (grid.g_nev.size, grid.gamma0z_mev.size, grid.gamma_minus_mev.size)
    points = list(np.ndindex(shape))
    # only a caller's table can serve another call, so only it keeps the sums
    runs = [table._inner_fits(di, points, ds, t0_range_fs, table is traces) for di, ds in enumerate(datasets)]
    columns, shifts, classes = zip(*runs)
    chi2_map = np.full(shape, np.inf)
    inner, failed = {}, {}
    for point, fits in zip(points, zip(*columns)):
        errors = [f"{ds.label}: {f}" for ds, f in zip(datasets, fits) if not isinstance(f, InnerFit)]
        if errors:
            logger.warning("grid point %s failed: %s", point, errors[0])
            failed[point] = errors[0]
        else:
            chi2_map[point] = sum(f.chi2 for f in fits) / k_eff
            inner[point] = fits
    logger.info(
        "chi^2 reduction: %d members, %d lattice shifts, crossing classes %s, "
        "%d failed grid points, %.3f s",
        len(points) * len(datasets), sum(shifts), " ".join(map("{}={}".format, labels, classes)),
        len(failed), time.perf_counter() - start,
    )

    if not np.any(np.isfinite(chi2_map)):
        raise DataError(f"every grid point failed; grid point {points[0]}: {failed[points[0]]}")
    argmin = np.unravel_index(np.argmin(chi2_map), shape)
    i, j, k = (int(v) for v in argmin)

    confidence = confidence_intervals(chi2_map, grid, k_eff, (i, j, k))
    if confidence is None:
        warnings.warn(
            "best fit sits on the grid boundary; confidence intervals are "
            "unavailable until the grid is extended",
            stacklevel=2,
        )

    fits = inner[(i, j, k)]
    result = FitResult(
        g_nev=float(grid.g_nev[i]),
        gamma0z_mev=float(grid.gamma0z_mev[j]),
        gamma_minus_mev=float(grid.gamma_minus_mev[k]),
        chi2_reduced_min=float(chi2_map[i, j, k]),
        k_eff=k_eff,
        inner={ds.label: f for ds, f in zip(datasets, fits)},
        traces={ds.label: table[(i, j, k, di)] for di, ds in enumerate(datasets)},
        grid=grid,
        chi2_reduced_map=chi2_map,
        argmin=(i, j, k),
        confidence=confidence,
        failed=failed,
        lifetime_fs=lifetime_fs,
    )
    if not refine:
        return result

    # a fine member whose task equals a coarse one reuses the coarse trace
    start = time.perf_counter()
    fine_grid = grid.refined_around(i, j, k)
    setup = (lifetime_fs, pulse_sigma_ps, n_ref, solver, t0_range_fs)
    coarse_keys = {task: key for key, task in _member_tasks(datasets, grid, *setup).items()}
    fine_tasks = _member_tasks(datasets, fine_grid, *setup)
    fine_traces = {
        key: table[coarse_keys[task]] for key, task in fine_tasks.items() if task in coarse_keys
    }
    fine_traces.update(_integrate(
        {key: task for key, task in fine_tasks.items() if key not in fine_traces},
        [ds.label for ds in datasets], workers,
    ))
    fine = global_fit(datasets, fine_grid, *setup, traces=fine_traces)
    logger.info("refine: %d members, %.2f s", len(fine_tasks), time.perf_counter() - start)
    return replace(fine, coarse=result)


def confidence_intervals(
    chi2_reduced_map: np.ndarray,
    grid: FitGrid,
    k_eff: int,
    argmin: tuple[int, int, int],
) -> dict | None:
    """Per-axis 68% intervals from the joint chi^2 region.

    The region is every grid point with chi2_reduced within 3.51/k_eff of
    the minimum (three jointly estimated parameters); each axis reports the
    extent of the region's projection.  A region touching the grid edge
    only bounds the interval from one side, which is flagged as a warning;
    a minimum on the edge bounds nothing and returns None instead.
    """
    i, j, k = argmin
    shape = chi2_reduced_map.shape
    if (
        i in (0, shape[0] - 1)
        or j in (0, shape[1] - 1)
        or k in (0, shape[2] - 1)
    ):
        return None
    threshold = chi2_reduced_map[i, j, k] + DELTA_CHI2_68 / k_eff
    region = chi2_reduced_map <= threshold
    out = {}
    axes = (
        ("g_nev", grid.g_nev, region.any(axis=(1, 2))),
        ("gamma0z_mev", grid.gamma0z_mev, region.any(axis=(0, 2))),
        ("gamma_minus_mev", grid.gamma_minus_mev, region.any(axis=(0, 1))),
    )
    for name, axis, hit in axes:
        vals = axis[hit]
        if hit[0] or hit[-1]:
            warnings.warn(
                f"68% region for {name} touches the grid edge; interval is one-sided",
                stacklevel=2,
            )
        out[name] = (float(vals.min()), float(vals.max()))
    return out


def residuals(model: EnergyTrace, dataset: ExperimentDataset, fit: InnerFit) -> np.ndarray:
    """Weighted residuals (S d_i - E(t_i + T_0)) / (S sigma_i) at the data times.

    Their squares sum to the chi^2 of ``fit``.
    """
    if dataset.sigma is None:
        raise DataError(f"dataset {dataset.label!r} has no noise estimate yet")
    t = dataset.times_fs * 1e-3 + fit.t0_fs * 1e-3
    e = np.interp(t, model.times_ps, model.energy_mev)
    return (dataset.signal - e / fit.scale) / dataset.sigma


def make_synthetic_dataset(
    params: ModelParams,
    pulse: PulseParams,
    times_fs: np.ndarray,
    true_scale: float = 1.0,
    true_shift_fs: float = 0.0,
    noise_rms: float = 0.0,
    rng: np.random.Generator | None = None,
    label: str = "synthetic",
    solver: SolverConfig | None = None,
) -> ExperimentDataset:
    """Generate a transient the fit should invert: d = E(t + T_0)/S + noise.

    The model is simulated over the ``trace_window`` of the samples at the
    shift T_0, convolved with the pulse's detector response and sampled at
    the requested times.  ``solver`` supplies the closure, tolerances and
    output step; its own window is ignored.  Useful for self-consistency
    tests and for exercising the pipeline without measured data.
    """
    dataset = ExperimentDataset(
        label, times_fs, np.zeros(np.shape(times_fs)), params.n_molecules,
        pulse.amplitude ** 2 / params.n_molecules, response_ps=pulse.response_ps,
    )
    solver = trace_window([dataset], pulse.sigma_ps, (true_shift_fs, true_shift_fs), solver, pulse.center_ps)
    trace = convolve_response(simulate_energy(params, pulse, solver), pulse.response_ps)
    clean = np.interp(dataset.times_fs * 1e-3 + true_shift_fs * 1e-3, trace.times_ps, trace.energy_mev)
    d = clean / true_scale
    if noise_rms > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        d = d + rng.normal(scale=noise_rms, size=d.size)
    return replace(dataset, signal=d)
