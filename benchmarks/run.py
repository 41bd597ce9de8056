"""Benchmark for dickesim: one workload per run, in one process.

    python3 benchmarks/run.py --workload fit_labels --seed 1 --seconds 5 --trace 0

Run from the repository root.  The command imports ``dickesim`` from
``src/`` next to this directory, builds the workload's inputs from the seed,
then repeats whole rounds of the workload until ``--seconds`` have passed
(at least one round).  ``--workload all`` runs every workload in turn.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` and
``cpu_s`` are medians over rounds, ``setup_s`` is the time this process
took to import ``dickesim`` plus the median of three input generations, and
``peak_rss_mb`` is the process's peak resident memory.
With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics from the spans of ``spans.py`` and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and spans
are also written under ``benchmarks/out/``.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported; the import
# probes below inherit it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("fit_labels", "fit_mc", "fit_stiff", "oracle")
SETUP_REPEATS = 3


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_round(run_round, inputs, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        outcome = run_round(inputs)
    finally:
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return outcome, wall, cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float, workroot: Path) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    setup, run_round = WORKLOADS[name]
    tracer = Tracer() if trace else None
    gen_times = []
    for rep in range(1 if trace else SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            inputs = setup(seed, workroot / f"{name}-setup{rep}")
        finally:
            gen_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()

    attempted = failed = 0
    errors: list[str] = []
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        runs = [(None, plain)] + ([(tracer, traced)] if trace else [])
        for round_tracer, timings in runs:
            if round_tracer is not None:
                round_tracer.phase = f"round{len(traced) + 1}"
            outcome, wall, cpu = timed_round(run_round, inputs, round_tracer)
            timings.append((wall, cpu))
            attempted += outcome.attempted
            failed += outcome.failed
            errors.extend(outcome.errors)
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        metrics = tracer.layer_metrics(len(traced))
        plain_wall = statistics.median(w for w, _ in plain)
        traced_wall = statistics.median(w for w, _ in traced)
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
        tracer.write(OUT_DIR / f"trace_{name}_s{seed}.json")
    else:
        metrics = {
            "wall_s": (statistics.median(w for w, _ in plain), "s"),
            "cpu_s": (statistics.median(c for _, c in plain), "s"),
            "setup_s": (import_s + statistics.median(gen_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "errors": errors,
        "rounds": len(plain),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "dickesim" / "__init__.py").is_file():
        print(f"error: no dickesim sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    start = time.perf_counter()
    import dickesim

    import_s = time.perf_counter() - start

    if Path(dickesim.__file__).resolve().parent != (SRC_DIR / "dickesim").resolve():
        print(f"error: imported dickesim from {dickesim.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workroot = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), import_s, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    for name, result in results.items():
        for error in result["errors"]:
            print(f"CHECK FAILED [{name}]: {error}")
        print(
            f"{name}: rounds {result['rounds']}, attempted {result['attempted']}, "
            f"failed {result['failed']}, correct {result['correct']}"
        )
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        record = dict(result, workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace, environment=env)
        (OUT_DIR / f"result_{name}_s{args.seed}_t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
