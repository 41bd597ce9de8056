#!/usr/bin/env python3
"""Global fit of the five bundled reflectivity labels at two cavity lifetimes.

Runs the full grid fit (coarse scan plus zoom refinement) at 120 fs and
185 fs on user-supplied measurement files, then computes the absorption
spectrum of each dye concentration with both best-fit parameter sets.  The
reduced chi-squared values say which lifetime fits the transients better;
the spectra say which one matches the measured weak/strong-coupling
character of the cavities.  Both are needed to pick a winner, so the
summary reports both side by side.

The measurement files are not bundled.  Supply a directory containing
A1.csv, A2.csv, A3.csv, B1.csv and B2.csv (time in fs, differential
reflectivity; `#` comments allowed); molecule and photon numbers for these
labels are built in.

Expect about 6.5 minutes per lifetime on one core with the default 9-point
grid; --threads spreads the fit's batches of stacked traces over workers.
That figure is extrapolated from timed samples, not from a whole run: on a
2-core machine, the five labels' traces (samples from -500 to 1500 fs, the
default +-400 fs shift range) over all 81 (g, gamma0z) pairs at the middle
gamma_minus take 41 s, so the coarse pass takes about 6 minutes if every
gamma_minus slice costs the same, as the costliest g row did when timed at
both gamma_minus ends; the refined pass around the coarse cell nearest the
bundled best fit integrates 3,510 new members in 21 s.  Most of the coarse
pass goes to each label's batch of strongly coupled members (the upper
half of the g axis), which holds the g = 5000 neV corners: those oscillate
at the collective Rabi frequency, so the whole batch steps at that period
(8.4-9.7 s of the A1 label's 9.4-10.5 s).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

LABELS = ("A1", "A2", "A3", "B1", "B2")
LIFETIMES_FS = (120.0, 185.0)

# dye concentration (% by mass) -> molecule number, for the spectrum check
CONCENTRATIONS = {
    "0.5pct": 0.81e10,
    "1pct": 1.62e10,
    "5pct": 8.08e10,
    "10pct": 16.20e10,
}


def run_cli(argv: list[str]) -> None:
    cmd = [sys.executable, "-m", "dickesim", *argv]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        sys.exit(proc.returncode)


def read_report(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def fit_one_lifetime(
    data_dir: Path, out_dir: Path, lifetime_fs: float, args
) -> dict[str, str]:
    run_dir = out_dir / f"lifetime_{lifetime_fs:.0f}fs"
    run_dir.mkdir(parents=True, exist_ok=True)
    datasets = ", ".join(str(data_dir / f"{label}.csv") for label in LABELS)
    cfg = run_dir / "fit.cfg"
    cfg.write_text(
        f"fit.datasets = {datasets}\n"
        f"fit.lifetime_fs = {lifetime_fs}\n"
        f"fit.grid_points = {args.grid_points}\n"
        "fit.refine = true\n"
        # the detector response width tracks the cavity lifetime
        f"pulse.response_fs = {lifetime_fs}\n"
    )
    run_cli([
        "fit", "--config", str(cfg), "--out", str(run_dir),
        "--threads", str(args.threads),
    ])
    report = read_report(run_dir / "fit_report.txt")

    for name, n_molecules in CONCENTRATIONS.items():
        spec_dir = run_dir / f"spectrum_{name}"
        spec_dir.mkdir(exist_ok=True)
        spec_cfg = spec_dir / "spectrum.cfg"
        spec_cfg.write_text(
            f"model.N = {n_molecules}\n"
            f"model.lifetime_fs = {lifetime_fs}\n"
            f"model.g_neV = {report['g_neV']}\n"
            f"model.gamma0z_meV = {report['gamma0z_meV']}\n"
            f"model.gamma_minus_meV = {report['gamma_minus_meV']}\n"
        )
        run_cli(["spectrum", "--config", str(spec_cfg), "--out", str(spec_dir)])
        summary = read_report(spec_dir / "spectrum_summary.txt")
        report[f"n_lines[{name}]"] = summary["n_lines"]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "data_dir", type=Path,
        help="directory containing A1.csv .. B2.csv measurement files",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("lifetime_fits"),
        help="output directory (default: ./lifetime_fits)",
    )
    parser.add_argument(
        "--grid-points", type=int, default=9,
        help="points per grid axis (default: 9)",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker count for the grid search (default: 1)",
    )
    args = parser.parse_args()

    missing = [l for l in LABELS if not (args.data_dir / f"{l}.csv").is_file()]
    if missing:
        parser.error(
            f"missing measurement files in {args.data_dir}: "
            + ", ".join(f"{l}.csv" for l in missing)
        )
    args.out.mkdir(parents=True, exist_ok=True)

    reports = {}
    for lifetime_fs in LIFETIMES_FS:
        reports[lifetime_fs] = fit_one_lifetime(
            args.data_dir, args.out, lifetime_fs, args
        )

    lines = []
    for lifetime_fs, report in reports.items():
        lines.append(f"lifetime {lifetime_fs:.0f} fs:")
        for key in ("g_neV", "gamma0z_meV", "gamma_minus_meV", "chi2_reduced_min"):
            lines.append(f"  {key} = {report.get(key, 'n/a')}")
        counts = ", ".join(
            f"{name} {report.get(f'n_lines[{name}]', '?')}"
            for name in CONCENTRATIONS
        )
        lines.append(f"  spectral lines: {counts}")
    lines.append(
        "pick the lifetime whose line counts match the measured reflectivity"
        " character, not just the smaller chi-squared"
    )
    text = "\n".join(lines) + "\n"
    (args.out / "summary.txt").write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
