#!/usr/bin/env python3
"""Closure error against the molecule number, from the exact Lindblad oracle.

For N = 1..10 molecules this propagates the exact master equation and the
cumulant and mean-field closures on one output grid, and prints each
closure's largest |E - E_exact| over the trace as a fraction of the exact
peak, then the power of N fitted to each error column over N = 3..10.

The setting keeps the collective physics fixed as N grows: g sqrt(N) =
kappa at a 120 fs cavity lifetime, gamma0z = 1.68 meV with N_ref = N (so
the dephasing rate is gamma0z at every N), gamma_minus = 0.0141 meV, a
20 fs pulse of amplitude 0.1 sqrt(N) at t = 0, which leaves about 0.4% of
the molecules excited, and a window from -0.1 to 1.0 ps at the default
tolerances.  The Fock cutoff is the largest of 6, 5 and 4 that keeps the
oracle within its cap on the class values stepped.

Run from the repository root with the package importable, e.g.

    PYTHONPATH=src python scripts/closure_order.py
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from dickesim.cumulant import SolverConfig, integrate
from dickesim.lindblad import MAX_CLASS_VALUES, OracleConfig, evolve_exact
from dickesim.model import HBAR_MEV_PS, ModelParams, PulseParams, energy_density_from_inversion

KAPPA_MEV = HBAR_MEV_PS / 0.120
WINDOW = SolverConfig(t_start_ps=-0.1, t_end_ps=1.0)
MOLECULES = range(1, 11)
FIT_FROM = 3


def fock_cutoff(n: int) -> int:
    """The largest of 6, 5 and 4 whose class values fit the oracle's cap."""
    return next(m for m in (6, 5, 4) if math.comb(n + 3, 3) * (m + 1) ** 2 <= MAX_CLASS_VALUES)


def closure_errors(n: int) -> tuple[int, float, dict[str, float]]:
    """The Fock cutoff, the oracle's wall time and each closure's relative energy error at N = ``n``."""
    params = ModelParams(
        n_molecules=n, g_mev=KAPPA_MEV / math.sqrt(n), kappa_mev=KAPPA_MEV,
        gamma0z_mev=1.68, n_ref=n, gamma_minus_mev=0.0141,
    )
    pulse = PulseParams(amplitude=0.1 * math.sqrt(n), center_ps=0.0, sigma_ps=0.020)
    n_max = fock_cutoff(n)
    start = time.perf_counter()
    exact = evolve_exact(params, pulse, WINDOW, OracleConfig(n_max=n_max))
    elapsed = time.perf_counter() - start
    e_exact = exact.energy_mev(params.omega_a_mev)
    peak = float(np.max(np.abs(e_exact)))
    errors = {}
    for closure in ("cumulant", "meanfield"):
        trace = integrate(params, pulse, replace(WINDOW, closure=closure))
        e_model = energy_density_from_inversion(trace.c_z, params.omega_a_mev)
        errors[closure] = float(np.max(np.abs(e_model - e_exact))) / peak
    return n_max, elapsed, errors


def main() -> None:
    print(f"{'N':>3} {'n_max':>5} {'oracle_s':>8} {'cumulant':>10} {'meanfield':>10}")
    rows = []
    for n in MOLECULES:
        n_max, elapsed, errors = closure_errors(n)
        rows.append((n, errors["cumulant"], errors["meanfield"]))
        print(f"{n:>3} {n_max:>5} {elapsed:>8.2f} {errors['cumulant']:>10.3e} {errors['meanfield']:>10.3e}")
    fitted = np.array([row for row in rows if row[0] >= FIT_FROM])
    for column, name in ((1, "cumulant"), (2, "meanfield")):
        order = np.polyfit(np.log(fitted[:, 0]), np.log(fitted[:, column]), 1)[0]
        print(f"{name} error ~ N^{order:.2f} over N = {FIT_FROM}..{MOLECULES[-1]}")


if __name__ == "__main__":
    main()
