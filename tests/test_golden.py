"""Golden-file gate: every CLI subcommand reproduces its committed outputs byte for byte.

Each case runs one subcommand in-process through ``cli.main`` on a small
fixed configuration and compares the set of files it writes, and every
file's bytes (``resolved_config.txt`` included), with ``tests/golden/<case>/``.

The goldens pin behaviour across refactors: a change that only restructures
code must leave them untouched.  They are regenerated only when a change
deliberately moves an output, and that change names the moved number and
the reason in CHANGES.md.  To regenerate, run
``python tests/test_golden.py [case ...]`` from the repository root with
``src`` on ``PYTHONPATH``: it rewrites the named cases, or every case when
none is named, so moving one case cannot silently rewrite another.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from dickesim import cumulant
from dickesim.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"

_MODEL = """\
model.N = 8.08e10
model.g_neV = 10.6
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.gamma_minus_meV = 0.0141
"""

# case -> (subcommand, configuration, extra arguments)
CASES = {
    "simulate": ("simulate", _MODEL + """\
pulse.photon_ratio = 0.121287128712871
pulse.sigma_fs = 20
pulse.response_fs = 120
solver.t_start_ps = -0.3
solver.t_end_ps = 1.5
""", []),
    "sweep": ("sweep", _MODEL + """\
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121
solver.t_start_ps = -0.3
solver.t_end_ps = 1.5
sweep.axis = N
sweep.start = 1e10
sweep.stop = 1e11
sweep.points = 3
sweep.photon_ratio = 0.121
""", ["--threads", "1"]),
    "spectrum": ("spectrum", _MODEL.replace("8.08e10", "1e12") + """\
spectrum.span_meV = 40
spectrum.points = 401
""", []),
    "oracle-check": ("oracle-check", """\
model.N = 2
model.g_neV = 3.8e8
model.lifetime_fs = 120
model.gamma0z_meV = 1.68
model.N_ref = 2
model.gamma_minus_meV = 0.0141
pulse.eta0 = 0.1
pulse.sigma_fs = 20
solver.t_start_ps = -0.2
solver.t_end_ps = 1.0
oracle.n_max = 6
""", []),
    "fit": ("fit", _MODEL + """\
pulse.sigma_fs = 20
pulse.photon_ratio = 0.121287128712871
pulse.response_fs = 120
fit.synthetic = true
fit.times_fs = -500, 1500, 8
fit.noise_rms = 0.02
fit.grid_points = 3
fit.g_bounds_neV = 8.153846153846153, 13.78
fit.gamma0z_bounds_meV = 1.2923076923076922, 2.184
fit.gammaminus_bounds_meV = 0.010846153846153846, 0.01833
fit.refine = true
""", ["--seed", "0"]),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case with its outputs in ``workdir/out``; return that directory."""
    command, config, extra = CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "run.cfg"
    cfg.write_text(config)
    out = workdir / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    assert code == EXIT_OK, f"{name} exited {code}"
    return out


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_files(name, tmp_path, capsys):
    out = run_case(name, tmp_path)
    capsys.readouterr()
    got = _files(out)
    want = _files(GOLDEN_DIR / name)
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{name}/{fname} differs from its golden file"


@pytest.mark.parametrize("name, solves", [("simulate", 1), ("oracle-check", 4)])
def test_each_moment_configuration_is_integrated_once(name, solves, tmp_path, capsys, monkeypatch):
    # simulate writes trace.csv and the energy trace from one integration;
    # oracle-check's consistent-bracket run is its cumulant closure run
    calls = []
    original = cumulant._segmented_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cumulant, "_segmented_solve", counting)
    run_case(name, tmp_path)
    capsys.readouterr()
    assert len(calls) == solves


if __name__ == "__main__":
    import tempfile

    cases = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown case {', '.join(unknown)}; the cases are {', '.join(sorted(CASES))}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            out = run_case(case, Path(tmp) / case)
            target = GOLDEN_DIR / case
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
            print(f"wrote {target}", file=sys.stderr)
