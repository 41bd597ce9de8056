"""In-memory spans around the public functions of each dickesim layer.

``Tracer.install`` replaces each function listed in ``TRACED`` with a wrapper
in every dickesim module that holds a reference to it, so a call is caught
whichever module makes it (``fit.global_fit`` calling ``inner_fit``,
``cli.cmd_fit`` calling ``simulate_energy``).  A span records its name,
start, end, the index of the span that was open when it started, the phase
of the benchmark it ran in and a tag.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from dickesim.model import gamma_total

# layer -> public functions that other layers (or the benchmark) call
TRACED = {
    "cumulant": ("simulate_energy",),
    "observables": ("convolve_response",),
    "fit": (
        "load_dataset", "estimate_noise", "make_synthetic_dataset",
        "model_traces", "inner_fit", "global_fit", "residuals",
    ),
    "lindblad": ("evolve_exact", "compare_cumulant"),
    "spectrum": ("absorption_spectrum",),
    "cli": ("main",),
}

# gamma_tot / kappa above which a cumulant trace counts as stiff.  Measured on
# B2: the RK45 cost per trace stays near its nominal 0.11 s up to a ratio of
# about 20 and grows linearly beyond it, where the decay rate, not the
# dynamics, sets the step.
STIFF_RATIO = 20.0


def _tag(name: str, args: tuple) -> str:
    if name == "cumulant.simulate_energy":
        params = args[0]
        return "stiff" if gamma_total(params) > STIFF_RATIO * params.kappa_mev else "nominal"
    if name == "lindblad.evolve_exact":
        return f"n{round(args[0].n_molecules)}"
    return ""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, phase, tag]
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase, _tag(name, args)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "dickesim" or key.startswith("dickesim.")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"dickesim.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "tag")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures for one set-up plus one traced round.

        Counts and totals add the set-up spans to the round spans divided
        by ``rounds``; per-call times are means over every span recorded.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def weight(span):
            return 1.0 if span[4] == "setup" else 1.0 / rounds

        def select(name, tag=None):
            return [i for i, s in enumerate(spans) if s[0] == name and (tag is None or s[5] == tag)]

        def count(idx):
            return sum(weight(spans[i]) for i in idx)

        def total(idx):
            return sum(weight(spans[i]) * (spans[i][2] - spans[i][1]) for i in idx)

        def self_total(idx):
            return sum(weight(spans[i]) * (spans[i][2] - spans[i][1] - child_time[i]) for i in idx)

        def mean(idx, scale):
            return scale * sum(spans[i][2] - spans[i][1] for i in idx) / len(idx) if idx else 0.0

        simulate = select("cumulant.simulate_energy")
        main = select("cli.main")
        main_set = set(main)
        convolve = select("observables.convolve_response")
        inner = select("fit.inner_fit")
        return {
            "cumulant.simulate_calls": (count(simulate), "count"),
            "cumulant.simulate_s": (total(simulate), "s"),
            "cumulant.trace_ms_nominal": (mean(select("cumulant.simulate_energy", "nominal"), 1e3), "ms"),
            "cumulant.trace_ms_stiff": (mean(select("cumulant.simulate_energy", "stiff"), 1e3), "ms"),
            "fit.model_traces_s": (total(select("fit.model_traces")), "s"),
            "fit.inner_fit_calls": (count(inner), "count"),
            "fit.inner_fit_ms": (mean(inner, 1e3), "ms"),
            "fit.global_fit_self_s": (self_total(select("fit.global_fit")), "s"),
            "fit.estimate_noise_ms": (mean(select("fit.estimate_noise"), 1e3), "ms"),
            "observables.convolve_calls": (count(convolve), "count"),
            "observables.convolve_ms": (mean(convolve, 1e3), "ms"),
            "lindblad.evolve_exact_s_n1": (mean(select("lindblad.evolve_exact", "n1"), 1.0), "s"),
            "lindblad.evolve_exact_s_n2": (mean(select("lindblad.evolve_exact", "n2"), 1.0), "s"),
            "lindblad.evolve_exact_s_n3": (mean(select("lindblad.evolve_exact", "n3"), 1.0), "s"),
            "lindblad.compare_ms": (mean(select("lindblad.compare_cumulant"), 1e3), "ms"),
            "spectrum.absorption_us": (mean(select("spectrum.absorption_spectrum"), 1e6), "us"),
            "cli.main_s": (total(main), "s"),
            "cli.self_s": (self_total(main), "s"),
            "cli.residual_traces": (count([i for i in simulate if spans[i][3] in main_set]), "count"),
        }
