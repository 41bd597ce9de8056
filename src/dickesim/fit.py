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
a = sum(w d E) / sum(w E^2).  A dataset's model traces stay one batched
``EnergyTrace`` (a row per grid point, in ``np.ndindex`` order of the grid's
shape) from the stacked solve to the chi^2 reduction, held by a ``ModelTable``.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import linalg

from .cumulant import IntegrationError, SolverConfig, process_map, simulate_energies, simulate_energy
from .model import (
    N_REF_DEFAULT,
    PULSE_SUPPORT_SIGMAS,
    ModelParams,
    PulseParams,
    drive_amplitude_from_photon_ratio,
    gamma_total,
    lifetime_ps_to_mev,
)
from .observables import RESPONSE_SUPPORT_SIGMAS, EnergyTrace, convolve_response

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

# the fit's defaults: the time shift range and the cavity lifetime in fs, and the points per grid axis
DEFAULT_T0_RANGE_FS = (-400.0, 400.0)
DEFAULT_LIFETIME_FS = 120.0
DEFAULT_GRID_POINTS = 9


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
        if not 0 < self.n_dye < np.inf:
            raise ValueError(f"n_dye must be finite and positive, got {self.n_dye}")
        if not 0 <= self.photon_ratio < np.inf:
            raise ValueError(f"photon_ratio must be finite and non-negative, got {self.photon_ratio}")
        if self.response_ps is not None and not 0 <= self.response_ps < np.inf:
            raise ValueError(f"response_ps must be finite and non-negative, got {self.response_ps}")
        object.__setattr__(self, "times_fs", t)
        object.__setattr__(self, "signal", d)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != t.shape or not np.all((s > 0) & (s < np.inf)):
                raise ValueError("sigma must be finite and positive, one value per sample")
            object.__setattr__(self, "sigma", s)

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
    elif n_dye is None or photon_ratio is None:
        raise DataError(f"unknown label {label!r}: pass n_dye and photon_ratio explicitly")
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


def _bracket_minimum(energies, first, wd, lo, hi, nodes, phases, starts, w, sizes) -> np.ndarray:
    """The delta in [0, 2] giving each member its least chi^2 at a shift of first + delta steps in [lo, hi].

    Sample i, at grid position u_i + first + delta, crosses nodes at delta = 1 - phi_i and 2 - phi_i,
    phi_i = u_i mod 1.  The samples come in falling phi; ``starts`` opens each class of one phi,
    ``phases`` holds the classes' phi and ``nodes`` each sample's floor(u_i) + 0..3.  Between crossings
    S1 = sum(w d E) = alpha + beta delta and S2 = sum(w E^2) = gamma + 2 zeta delta + eta delta^2, so
    chi^2 = sum(w d^2) - S1^2/S2 is least at an end or at (alpha zeta - beta gamma) / (beta zeta - alpha eta).
    The per-sample class sums run over blocks of ``sizes[0]`` members, the piecewise solve over
    blocks of ``sizes[1]``, a whole number of the first.
    """
    delta = np.empty(first.size)
    for at in range(0, first.size, sizes[1]):
        part = slice(at, at + sizes[1])
        blocks = [slice(b, b + sizes[0]) for b in range(at, min(at + sizes[1], first.size), sizes[0])]
        sums = zip(*(_class_sums(energies[b], first[b], nodes, starts, w, wd) for b in blocks))
        delta[part] = _piecewise_argmax(*(np.concatenate(x, axis=1) for x in sums), phases, first[part], lo, hi)
    return delta


def _class_sums(energies, first, nodes, starts, w, wd) -> list:
    """sum(w d E), sum(w E^2) at nodes first + floor(u) + 0..3 and sum(w E E[+1]) at 0..2, per member and class."""
    at = np.clip(first[:, None] + nodes[:, None], 0, energies.shape[1] - 1)
    e = energies.ravel()[at + energies.shape[1] * np.arange(first.size)[:, None]]  # [node, member, sample]
    return [np.add.reduceat(x, starts, axis=-1) if starts.size < w.size else x
            for x in (wd * e, w * e * e, w * e[:-1] * e[1:])]


def _piecewise_argmax(de, ee, en, phases, first, lo, hi) -> np.ndarray:
    """``_bracket_minimum`` of the members whose ``_class_sums`` are ``de``, ``ee`` and ``en``."""
    c = phases - np.arange(3)[:, None, None]  # in cell m, p = (1 - c) e_m + c e_m+1, q = e_m+1 - e_m
    a = 1.0 - c
    cells = np.stack([  # sum w d p, w d q, w p^2, w p q and w q^2 of each class in each cell
        a * de[:-1] + c * de[1:], de[1:] - de[:-1], a * a * ee[:-1] + 2.0 * a * c * en + c * c * ee[1:],
        (a - c) * en + c * ee[1:] - a * ee[:-1], ee[:-1] + ee[1:] - 2.0 * en,
    ])
    moves = [cells[:, 0].sum(axis=-1, keepdims=True), cells[:, 1] - cells[:, 0], cells[:, 2] - cells[:, 1]]
    alpha, beta, gamma, zeta, eta = np.cumsum(np.concatenate(moves, axis=-1), axis=-1)[..., None]
    ends = np.r_[0.0, 1.0 - phases, 2.0 - phases, 2.0]
    left = np.maximum(ends[:-1], lo - first[:, None])[..., None]
    right = np.minimum(ends[1:], hi - first[:, None])[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        star = np.nan_to_num((alpha * zeta - beta * gamma) / (beta * zeta - alpha * eta))
        x = np.concatenate([left, right, np.clip(star, left, right)], axis=2)
        s1, s2 = alpha + beta * x, gamma + (2.0 * zeta + eta * x) * x
        score = np.where((left <= right) & (s2 > 0.0), s1 * s1 / s2, -np.inf)
    return x.reshape(first.size, -1)[np.arange(first.size), score.reshape(first.size, -1).argmax(axis=1)]


def check_t0_range(t0_range_fs: tuple, dt_ps: float) -> tuple[int, int]:
    """Whole steps k_lo..k_hi of ``dt_ps`` in the shift range (lo, hi) in fs; refused if hi <= lo or there is none."""
    lo_fs, hi_fs = t0_range_fs
    if not hi_fs > lo_fs:
        raise ValueError(f"t0_range_fs must have positive width, got {lo_fs:g}, {hi_fs:g}")
    k_lo, k_hi = math.ceil(lo_fs * 1e-3 / dt_ps - 1e-9), math.floor(hi_fs * 1e-3 / dt_ps + 1e-9)
    if k_hi < k_lo:
        raise ValueError(f"t0_range_fs must hold a whole model step of {dt_ps * 1e3:g} fs, got {lo_fs:g}, {hi_fs:g}")
    return k_lo, k_hi


def _shift_steps(dataset: ExperimentDataset, t0_range_fs: tuple, dt_ps: float) -> tuple[int, int]:
    """Whole steps k_lo..k_hi of ``dt_ps`` in the shift range, after the checks that need no trace."""
    if dataset.sigma is None:
        raise DataError(f"dataset {dataset.label!r} has no noise estimate; run estimate_noise")
    k_lo, k_hi = check_t0_range(t0_range_fs, dt_ps)
    if float(dataset.signal ** 2 @ (1.0 / dataset.sigma ** 2)) <= 0.0:
        raise DataError(f"dataset {dataset.label!r} has no signal to scale")
    return k_lo, k_hi


# sample-members per block of the refine's class sums, a crossing class counting four; its piecewise
# solve takes samples/classes of those blocks at once, so its (members x classes) arrays stay within it
# too.  Refits of fit_mc's 27 members (776 samples, two classes) took 1.17, 1.04, 0.94, 1.33 and 1.28 ms
# at 2**10 to 2**14, and peaked at 0.84 MB up to 2**12, at 1.5 MB at 2**13 and at 2.5 MB at 2**14
REFINE_SIZE = 2 ** 12


def _grid_step(t_model: np.ndarray) -> float:
    """The step of a uniform time grid, from its ends."""
    return (t_model[-1] - t_model[0]) / (t_model.size - 1)


class _TableSums:
    """What ``inner_fits`` computes from the models, the sample times, sigma and the shift range alone.

    That is the span check of the grid ``t_model`` of the batched trace ``models``, the samples' phase
    classes, and the lattice rows of its ``energies`` (read, not copied) with their S2 (``_lattice_s2``).
    """

    def __init__(self, models: EnergyTrace, dataset: ExperimentDataset, t0_range_fs: tuple):
        t_model = models.times_ps
        self.energies = energies = np.atleast_2d(models.energy_mev)
        self.dt = dt = _grid_step(t_model)
        self.k_lo, k_hi = _shift_steps(dataset, t0_range_fs, dt)
        t_data_ps = dataset.times_fs * 1e-3
        self.lo, self.hi = lo, hi = t0_range_fs[0] * 1e-3, t0_range_fs[1] * 1e-3
        if t_data_ps[0] + lo < t_model[0] or t_data_ps[-1] + hi > t_model[-1]:
            raise ValueError(
                "model trace does not span the dataset over the full shift range: "
                f"need [{t_data_ps[0] + lo:g}, {t_data_ps[-1] + hi:g}] ps, "
                f"have [{t_model[0]:g}, {t_model[-1]:g}] ps"
            )
        self.shifts = np.clip(dt * np.arange(self.k_lo, k_hi + 1), lo, hi)
        self.w = 1.0 / dataset.sigma ** 2
        self.lattice = _lattice_s2(energies, t_model, dt, t_data_ps, self.w, self.k_lo, k_hi)
        # the samples' grid positions, in falling phi = u mod 1, cut into classes of one phi
        self.u = u = (t_data_ps - t_model[0]) / dt
        self.order = order = np.argsort(-(u % 1.0), kind="stable")
        self.starts = starts = np.r_[0, np.flatnonzero(-np.diff(u[order] % 1.0) > 1e-9) + 1]
        # the refine's input but w d, which it reads in this order too: each sample's nodes floor(u) + 0..3,
        # the classes' phi, the weights and the members per block of its class sums and of its solve
        node, phi = np.divmod(u[order], 1.0)
        nodes = node.astype(int) + np.arange(4)[:, None]
        sum_size = max(1, REFINE_SIZE // (u.size + 4 * starts.size))
        solve_size = sum_size * (u.size // starts.size)
        self.refine = (lo / dt, hi / dt, nodes, phi[starts], starts, self.w[order], (sum_size, solve_size))


def inner_fits(
    models: EnergyTrace,
    dataset: ExperimentDataset,
    t0_range_fs: tuple[float, float] = DEFAULT_T0_RANGE_FS,
) -> tuple[list, int, int]:
    """Best scale and time shift of one dataset against each member of the batched trace ``models``.

    At fixed shift chi^2 = sum w (d - a E)^2 is least at a = 1/S = sum(w d E) / sum(w E^2).  Each member
    picks its least whole step of the grid (``_lattice_chi2``), ties within rounding going to the smaller
    |T_0|, and ``_bracket_minimum`` finds the exact least chi^2 within a step either side (in blocks of
    ``REFINE_SIZE``), taken unless the valley is flat.  A member fails when its trace has no amplitude over
    the data at its pick.  Only the pick is evaluated, so where two or more steps are near-least, a tie or
    a failure at another of them does not count.  Returns per model an ``InnerFit`` or the ValueError of
    its failure, the count of lattice shifts and that of the sample classes crossing nodes together.  A
    one-member trace counts as a batch of one.  The part that reads no signal (``_TableSums``) is computed
    on every call; a ``ModelTable`` passed to ``global_fit`` holds it between calls instead.
    """
    sums = _TableSums(models, dataset, t0_range_fs)
    chi2, scale, t0_fs, failed = _inner_fits(sums, dataset)
    fits = [ValueError(failed[n]) if n in failed else InnerFit(float(s), float(t), float(c))
            for n, (c, s, t) in enumerate(zip(chi2, scale, t0_fs))]
    return fits, sums.shifts.size, sums.starts.size


def _inner_fits(sums: _TableSums, dataset: ExperimentDataset) -> tuple:
    """``inner_fits`` of ``dataset``'s signal against the energies that ``sums`` were computed for, as arrays.

    Per member chi^2 (inf for a failing member), scale and shift in fs, and each failing member's reason.
    One ``_chi2_rows`` call evaluates every member at its lattice pick and its refined shift together.
    """
    dt, shifts, energies = sums.dt, sums.shifts, sums.energies
    d = dataset.signal
    wd = sums.w * d
    lattice = _lattice_chi2(sums.lattice, wd, d)
    dust = 1e-10 * float(wd @ d)  # the lattice form's rounding: about 2e-15 of sum(w d^2)
    # a row without a finite value has every step near, and takes the nearest |T_0|
    near = lattice <= lattice.min(axis=1, keepdims=True) + dust
    pick = np.where(near, np.abs(shifts), np.inf).argmin(axis=1)
    first = sums.k_lo + pick - 1  # the bracket: shifts (first + delta) dt in the range, delta in [0, 2]
    delta = _bracket_minimum(energies, first, wd[sums.order], *sums.refine)
    refined = np.clip(dt * (first + delta), sums.lo, sums.hi)
    members = np.tile(np.arange(len(energies)), 2)
    rows = _chi2_rows(energies, members, np.r_[shifts[pick], refined] / dt, sums.u, d, sums.w, wd)
    (at_pick, chi2), (pick_scale, scale) = (x.reshape(2, -1) for x in rows)
    fails = ~(at_pick < np.inf)
    at_pick[fails] = np.inf  # a NaN too, so that a failing member's grid point sums to inf
    take = (chi2 < at_pick * (1.0 - 1e-12)) & ~fails  # else a flat valley: the lattice shift stands
    failed = {int(n): f"model trace has no amplitude over the data at shift {shifts[pick[n]] * 1e3:g} fs"
              for n in np.flatnonzero(fails)}
    return (np.where(take, chi2, at_pick), np.where(take, scale, pick_scale),
            np.where(take, refined, shifts[pick]) * 1e3, failed)


def inner_fit(
    model: EnergyTrace,
    dataset: ExperimentDataset,
    t0_range_fs: tuple[float, float] = DEFAULT_T0_RANGE_FS,
) -> InnerFit:
    """``inner_fits`` of one model: its scale and shift, or the ValueError raised."""
    fit = inner_fits(model, dataset, t0_range_fs)[0][0]
    if isinstance(fit, ValueError):
        raise fit
    return fit


def geometric_axis(lo: float, hi: float, points: int, names: tuple[str, str]) -> np.ndarray:
    """``points`` >= 1 geometric nodes from 0 < lo < hi < inf; a bad bound's error opens with its name in ``names``."""
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    for name, ok in zip(names, (0 < lo < math.inf, lo < hi < math.inf)):
        if not ok:
            raise ValueError(f"{name} must be finite, positive and increasing, got {lo:g}, {hi:g}")
    return np.geomspace(lo, hi, points)


@dataclass(frozen=True)
class FitGrid:
    """Logarithmic search grid over the three shared rates; each axis 1-D, finite, positive and rising."""

    g_nev: np.ndarray
    gamma0z_mev: np.ndarray
    gamma_minus_mev: np.ndarray

    def __post_init__(self) -> None:
        for name in (axis.name for axis in fields(self)):
            nodes = np.asarray(getattr(self, name), dtype=float)
            steps = np.diff(nodes, prepend=0.0) if nodes.ndim == 1 else np.empty(0)  # from 0 to the first node on
            if not (steps.size and np.all(steps > 0.0) and np.all(np.isfinite(nodes))):
                raise ValueError(f"grid axis {name} needs 1-D, non-empty, finite, positive, strictly increasing nodes")
            object.__setattr__(self, name, nodes)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Nodes per axis; a model table's rows are the grid points in ``np.ndindex`` order of it."""
        return (self.g_nev.size, self.gamma0z_mev.size, self.gamma_minus_mev.size)

    @classmethod
    def logspace(
        cls,
        g_bounds_nev: tuple[float, float] = (0.1, 5000.0),
        gamma0z_bounds_mev: tuple[float, float] = (0.1, 5000.0),
        gamma_minus_bounds_mev: tuple[float, float] = (0.001, 1.0),
        points: int = DEFAULT_GRID_POINTS,
    ) -> "FitGrid":
        return cls(
            g_nev=geometric_axis(*g_bounds_nev, points, ("g_bounds_nev",) * 2),
            gamma0z_mev=geometric_axis(*gamma0z_bounds_mev, points, ("gamma0z_bounds_mev",) * 2),
            gamma_minus_mev=geometric_axis(*gamma_minus_bounds_mev, points, ("gamma_minus_bounds_mev",) * 2),
        )

    def __eq__(self, other) -> bool:
        """The same nodes on every axis, bit for bit."""
        axes = [axis.name for axis in fields(self)]
        return isinstance(other, FitGrid) and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in axes)

    def refined_around(self, i: int, j: int, k: int) -> "FitGrid":
        """Zoom each axis to one coarse cell either side of (i, j, k).

        For a geometric axis this narrows the span to two coarse steps, so the same point count
        resolves it about four times finer; a one-point axis stays as it is.  A node within 1e-12
        relative of a coarse node is placed exactly on it, so a three-point axis zoomed around its
        middle node, like a one-point axis, is returned equal to itself.
        """
        def zoom(axis, idx):
            if axis.size == 1:
                return axis
            step = axis[1] / axis[0]
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
    ``RESPONSE_SUPPORT_SIGMAS`` times the widest detector response plus 50 fs
    so the response convolution's edges stay outside it, and starts no later
    than the leading edge of the pulse centred at ``center_ps``.  Every
    dataset must carry its ``response_ps``; ``solver``'s own window is replaced.
    """
    lo_ps = min(ds.times_fs[0] for ds in datasets) * 1e-3 + t0_range_fs[0] * 1e-3
    hi_ps = max(ds.times_fs[-1] for ds in datasets) * 1e-3 + t0_range_fs[1] * 1e-3
    pad = RESPONSE_SUPPORT_SIGMAS * max(ds.response_ps for ds in datasets) + 0.05
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


def _batches(tasks: list) -> list[tuple[int, np.ndarray]]:
    """(dataset index, member rows) of each batch of ``tasks`` that is integrated together.

    A batch holds members of one dataset only, ordered by g sqrt(N)/kappa and
    then gamma_tot/kappa so that neighbours step alike, cut into near-equal
    runs of at most ``BATCH_CAP``.  Only the members' own parameters decide
    it, so the traces do not depend on the number of workers.
    """
    batches = []
    for di, (params, _, _) in enumerate(tasks):
        rows = sorted(range(len(params)), key=lambda m: _regime(params[m]))
        runs = -(-len(rows) // BATCH_CAP)
        batches += [(di, run) for run in np.array_split(np.array(rows), runs)]
    return batches


def _fit_batch_task(batch: tuple) -> tuple[EnergyTrace, object, float]:
    """The convolved trace of one (label, members' params, pulse, solver) batch, its solver work and wall time."""
    start = time.perf_counter()
    label, params, pulse, solver = batch
    try:
        trace, stats = simulate_energies(params, pulse, solver)
    except IntegrationError as exc:
        if exc.member is None:
            raise
        p = params[exc.member]
        raise IntegrationError(
            f"{label} member at g = {p.g_mev * 1e6:g} neV, gamma0z = {p.gamma0z_mev:g} meV, "
            f"gamma_minus = {p.gamma_minus_mev:g} meV: {exc}",
            exc.last_good_time_ps,
            member=exc.member,
        ) from None
    return convolve_response(trace, pulse.response_ps), stats, time.perf_counter() - start


def _member_tasks(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float,
    pulse_sigma_ps: float,
    n_ref: float,
    solver: SolverConfig | None,
    t0_range_fs: tuple[float, float],
) -> list[tuple]:
    """Per dataset one (members' ``ModelParams``, pulse, solver) task, its members in the grid's row order."""
    kappa = lifetime_ps_to_mev(lifetime_fs * 1e-3)
    datasets, solver = table_window(datasets, lifetime_fs, pulse_sigma_ps, t0_range_fs, solver)

    tasks = []
    for ds in datasets:
        pulse = PulseParams(
            amplitude=drive_amplitude_from_photon_ratio(ds.photon_ratio, ds.n_dye),
            sigma_ps=pulse_sigma_ps,
            response_ps=ds.response_ps,
        )
        params = [
            ModelParams(
                n_molecules=ds.n_dye,
                g_mev=grid.g_nev[i] * 1e-6,
                kappa_mev=kappa,
                gamma0z_mev=grid.gamma0z_mev[j],
                n_ref=n_ref,
                gamma_minus_mev=grid.gamma_minus_mev[k],
            )
            for i, j, k in np.ndindex(grid.shape)
        ]
        tasks.append((params, pulse, solver))
    return tasks


def _integrate(tasks: list, labels: list[str], workers: int) -> list[EnergyTrace]:
    """Per dataset the batched trace of its task's members, integrated batch by batch (``process_map``)."""
    start = time.perf_counter()
    batches = _batches(tasks)
    items = [(labels[di], [tasks[di][0][m] for m in rows], *tasks[di][1:]) for di, rows in batches]
    results = process_map(_fit_batch_task, items, workers)
    times, energies = {}, {}
    for (di, rows), (label, params, *_) in zip(batches, items):
        trace, stats, wall = results.pop(0)  # a batch goes once its rows are written
        regimes = np.array([_regime(p) for p in params])
        (coupling_lo, decay_lo), (coupling_hi, decay_hi) = regimes.min(axis=0), regimes.max(axis=0)
        logger.info(
            "%s: %d members, g sqrt(N)/kappa %.3g..%.3g, gamma_tot/kappa %.3g..%.3g: "
            "%d rhs calls, %d jacobians, %d steps, %.2f s",
            label, len(params), coupling_lo, coupling_hi, decay_lo, decay_hi,
            stats.rhs_calls, stats.jacobians, stats.steps, wall,
        )
        if di not in energies:
            times[di], energies[di] = trace.times_ps, np.empty((len(tasks[di][0]), trace.times_ps.size))
        energies[di][rows] = trace.energy_mev
    logger.info("table: %d members, %.2f s", sum(len(task[0]) for task in tasks), time.perf_counter() - start)
    return [EnergyTrace(times[di], energies.pop(di)) for di in range(len(tasks))]


class ModelTable(Mapping):
    """Convolved model traces keyed (i_g, i_z, i_m, dataset_index), built for one grid.

    ``traces`` holds per dataset one batched ``EnergyTrace`` with a row per grid point, in the grid's row
    order (``FitGrid.shape``).  The table keeps them as ``traces``, their arrays made read-only, and cannot
    be assigned to: ``table[key]`` is a new trace over a copy of its row, and a member is changed by
    copying a dataset's ``energy_mev``, editing its row and building a new table.  Beside them it keeps
    each dataset's ``_TableSums``, the part of ``inner_fits`` that reads no signal, until a ``global_fit``
    brings other sample times, sigma or shift range; a table ``global_fit`` built itself keeps none,
    since no later call could read it.
    """

    def __init__(self, traces: Sequence[EnergyTrace], grid: FitGrid) -> None:
        self.grid, self.traces, self.n_datasets = grid, tuple(traces), len(traces)
        points = list(np.ndindex(grid.shape))
        for di, trace in enumerate(self.traces):
            if trace.energy_mev.shape[:-1] != (len(points),):
                raise ValueError(f"dataset {di} energies of shape {trace.energy_mev.shape}: not one row per grid point")
            trace.times_ps.flags.writeable = trace.energy_mev.flags.writeable = False
        self._rows = {(*p, di): row for di in range(self.n_datasets) for row, p in enumerate(points)}
        self._sums: dict[int, tuple] = {}  # dataset index -> (times, sigma, range, _TableSums)

    def __getitem__(self, key: tuple) -> EnergyTrace:
        row = self._rows[key]
        trace = self.traces[key[3]]
        return EnergyTrace(trace.times_ps, trace.energy_mev[row].copy())

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def _inner_fits(self, di: int, dataset: ExperimentDataset, t0_range_fs: tuple, keep: bool) -> tuple:
        """``_inner_fits`` of ``dataset`` against the rows of dataset ``di``, with the counts of lattice shifts
        and crossing classes; ``keep`` holds its ``_TableSums``."""
        times, sigma, t0_range, sums = self._sums.get(di, (None, None, None, None))
        if not (
            np.array_equal(times, dataset.times_fs) and np.array_equal(sigma, dataset.sigma)
            and t0_range == tuple(t0_range_fs)
        ):
            self._sums.pop(di, None)  # free the old entry before building its successor
            sums = _TableSums(self.traces[di], dataset, t0_range_fs)
            if keep:
                self._sums[di] = (dataset.times_fs.copy(), dataset.sigma.copy(), tuple(t0_range_fs), sums)
        return _inner_fits(sums, dataset), sums.shifts.size, sums.starts.size


def model_traces(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float,
    pulse_sigma_ps: float = 0.020,
    n_ref: float = N_REF_DEFAULT,
    solver: SolverConfig | None = None,
    t0_range_fs: tuple[float, float] = DEFAULT_T0_RANGE_FS,
    workers: int = 1,
) -> ModelTable:
    """Convolved model traces for every (grid point, dataset) pair, as a ``ModelTable``.

    This is the expensive half of a global fit; computing it once and passing it to ``global_fit``
    lets many noise realisations reuse the same table, which keeps the part of each refit that
    reads no signal (a ``refine``'s fine pass builds its own).  The traces span ``trace_window``;
    ``solver`` supplies the closure, tolerances and output step, and its own window is ignored.

    Members are integrated in stacked batches (``_batches``: one dataset each, in regime order, at
    most ``BATCH_CAP`` members), and ``workers`` processes map over the batches.  Each member stays
    within the tolerances of its own scalar integration; the traces do not depend on ``workers``.
    Every batch logs its size, regime range, solver work and wall time at INFO.
    """
    tasks = _member_tasks(datasets, grid, lifetime_fs, pulse_sigma_ps, n_ref, solver, t0_range_fs)
    return ModelTable(_integrate(tasks, [ds.label for ds in datasets], workers), grid)


def global_fit(
    datasets: list[ExperimentDataset],
    grid: FitGrid,
    lifetime_fs: float = DEFAULT_LIFETIME_FS,
    pulse_sigma_ps: float = 0.020,
    n_ref: float = N_REF_DEFAULT,
    solver: SolverConfig | None = None,
    t0_range_fs: tuple[float, float] = DEFAULT_T0_RANGE_FS,
    workers: int = 1,
    refine: bool = False,
    traces: ModelTable | None = None,
) -> FitResult:
    """Scan the rate grid, minimise chi^2 jointly over all datasets.

    Every dataset must already carry a noise estimate and a label of its own, checked with the rest
    of ``_shift_steps`` before the table.  ``traces``, a ``ModelTable`` built for this grid and dataset
    count (``model_traces``), keeps the part of the fit that reads no signal for the next call; any
    other object is a TypeError.  The shift range is checked against the table's own step.
    ``refine`` runs one extra pass on a four-times-finer grid around the coarse minimum
    (``FitGrid.refined_around``) as a fresh ``global_fit`` with its own table under this call's
    settings, or keeps the coarse result when that grid is the coarse one.  The reduced chi^2 uses
    k_eff = (total samples) - 3: only the shared rates count as parameters, matching how the
    per-dataset scale and shift are treated as nuisances.  The map is the datasets' ``_inner_fits``
    chi^2 arrays summed in dataset order over k_eff; a member's failure leaves its chi^2, and so its
    point's, inf, and the point is logged and listed in ``failed`` under the first failing dataset's
    reason.  Only the best point's fits become ``InnerFit``s.  A DataError is raised when every point
    fails, and an error of a whole dataset propagates.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    table = traces
    if table is not None:
        if not isinstance(table, ModelTable):
            raise TypeError(f"traces must be a ModelTable, as model_traces builds, not a {type(table).__name__}")
        if table.n_datasets != len(datasets):
            raise ValueError(f"model table was built for {table.n_datasets} datasets, not {len(datasets)}")
        if table.grid != grid:
            raise ValueError("model table was built on another grid")
    labels = [ds.label for ds in datasets]
    for di, ds in enumerate(datasets):
        step = (solver or SolverConfig()).output_dt_ps if table is None else _grid_step(table.traces[di].times_ps)
        _shift_steps(ds, t0_range_fs, step)
        if labels.count(ds.label) > 1:
            # labels key the inner fits, the traces and the residual files
            raise DataError(f"dataset label {ds.label!r} is used by {labels.count(ds.label)} datasets")
    k_eff = sum(ds.n_points for ds in datasets) - 3
    if k_eff <= 0:
        raise DataError("fewer data points than fit parameters")

    if table is None:
        table = model_traces(
            datasets, grid, lifetime_fs,
            pulse_sigma_ps=pulse_sigma_ps, n_ref=n_ref, solver=solver,
            t0_range_fs=t0_range_fs, workers=workers,
        )

    start = time.perf_counter()
    # only a caller's table can serve another call, so only it keeps the sums
    runs = [table._inner_fits(di, ds, t0_range_fs, table is traces) for di, ds in enumerate(datasets)]
    arrays, shifts, classes = zip(*runs)
    chi2, scale, t0_fs, reasons = zip(*arrays)
    chi2_map = (sum(chi2) / k_eff).reshape(grid.shape)
    failed = {}
    for n in sorted(set().union(*reasons)):
        di = next(di for di, failures in enumerate(reasons) if n in failures)
        point = tuple(int(v) for v in np.unravel_index(n, grid.shape))
        failed[point] = f"{labels[di]}: {reasons[di][n]}"
        logger.warning("grid point %s failed: %s", point, failed[point])
    logger.info(
        "chi^2 reduction: %d members, %d lattice shifts, crossing classes %s, "
        "%d failed grid points, %.3f s",
        chi2_map.size * len(datasets), sum(shifts), " ".join(map("{}={}".format, labels, classes)),
        len(failed), time.perf_counter() - start,
    )

    if not np.any(np.isfinite(chi2_map)):
        raise DataError("every grid point failed; grid point {}: {}".format(*next(iter(failed.items()))))
    best = int(np.argmin(chi2_map))
    i, j, k = (int(v) for v in np.unravel_index(best, grid.shape))

    confidence = confidence_intervals(chi2_map, grid, k_eff, (i, j, k))
    if confidence is None:
        warnings.warn(
            "best fit sits on the grid boundary; confidence intervals are unavailable until the grid is extended",
            stacklevel=2,
        )

    result = FitResult(
        g_nev=float(grid.g_nev[i]),
        gamma0z_mev=float(grid.gamma0z_mev[j]),
        gamma_minus_mev=float(grid.gamma_minus_mev[k]),
        chi2_reduced_min=float(chi2_map[i, j, k]),
        k_eff=k_eff,
        inner={ds.label: InnerFit(float(scale[di][best]), float(t0_fs[di][best]), float(chi2[di][best]))
               for di, ds in enumerate(datasets)},
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

    start = time.perf_counter()
    fine_grid = grid.refined_around(i, j, k)
    fine, members = result, 0  # a zoom onto the coarse grid has the coarse result
    if fine_grid != grid:
        del table  # a table this call built goes before the fine one is built
        fine = global_fit(datasets, fine_grid, lifetime_fs, pulse_sigma_ps, n_ref, solver, t0_range_fs, workers)
        members = fine.chi2_reduced_map.size * len(datasets)
    logger.info("refine: %d members, %.2f s", members, time.perf_counter() - start)
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
    if any(at in (0, size - 1) for at, size in zip(argmin, chi2_reduced_map.shape)):
        return None
    region = chi2_reduced_map <= chi2_reduced_map[tuple(argmin)] + DELTA_CHI2_68 / k_eff
    out = {}
    for n, name in enumerate(axis.name for axis in fields(grid)):
        hit = region.any(axis=tuple({0, 1, 2} - {n}))  # the region's projection onto axis n
        vals = getattr(grid, name)[hit]
        if hit[0] or hit[-1]:
            warnings.warn(f"68% region for {name} touches the grid edge; interval is one-sided", stacklevel=2)
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
    if not (math.isfinite(true_scale) and true_scale > 0.0):
        raise ValueError(f"true_scale must be finite and positive, got {true_scale}")
    if not (math.isfinite(noise_rms) and noise_rms >= 0.0):
        raise ValueError(f"noise_rms must be finite and non-negative, got {noise_rms}")
    dataset = ExperimentDataset(
        label, times_fs, np.zeros(np.shape(times_fs)), params.n_molecules,
        pulse.amplitude ** 2 / params.n_molecules, response_ps=pulse.response_ps,
    )
    solver = trace_window([dataset], pulse.sigma_ps, (true_shift_fs, true_shift_fs), solver, pulse.center_ps)
    trace = convolve_response(simulate_energy(params, pulse, solver), pulse.response_ps)
    clean = np.interp(dataset.times_fs * 1e-3 + true_shift_fs * 1e-3, trace.times_ps, trace.energy_mev)
    d = clean / true_scale
    if noise_rms > 0.0:
        d = d + (rng or np.random.default_rng()).normal(scale=noise_rms, size=d.size)
    return replace(dataset, signal=d)
