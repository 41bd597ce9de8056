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

Expect about half a minute per lifetime on one core with the default
9-point grid; --threads spreads the fit's batches of stacked traces over
workers.  On a 2-core machine (one BLAS thread) one whole `dickesim fit`
of five synthetic labels (samples every 4 fs from -500 to 1500 fs, the
default +-400 fs shift range, `fit.refine = true`) took 25.1-25.2 s over
two runs, of which the refine around the coarse cell nearest the bundled
best fit took 3.4-3.5 s, 3.2 s of it for the fine table's 3,645 members.
When the refine still took the 135 members on coarse nodes from the
coarse table, the same fit took 25.1-25.7 s, its refine 3.3-3.7 s and
the 3,510 new members 3.1-3.5 s.  Most of the coarse pass (13 of 22 s)
goes to the batches that hold the g = 5000 neV corners: those oscillate at
the collective Rabi frequency, so their whole batch steps at that period.
The five labels' traces over all 81 (g, gamma0z) pairs at the middle
gamma_minus take 6.1-6.3 s, where each label's batch of the upper half of
the g axis pays that period for 40 members (1.66-1.68 s of the A1 label's
1.76-1.78 s); the whole table sorts its 729 members per label by coupling
into batches of nearly one g each, so it costs less than nine such slices.
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
