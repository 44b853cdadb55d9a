"""Per-layer spans recorded from outside the package.

The package binds layer functions with ``from .x import y``, so one function
is reachable under several module namespaces (``beamsteer.dynamics.simulate``,
``beamsteer.harness.simulate``, ``beamsteer.cli.simulate``, ...).  A
``Tracer`` replaces the function in every ``beamsteer.*`` namespace that binds
it, records one span per call (name, start, end, parent) and restores the
original bindings when it is uninstalled.  Self time is a span's duration
minus the time its direct child spans cover; calls nest strictly because the
package is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from statistics import median

# Layer -> traced functions of that module.  Metric names are
# "<layer>.<function>.<calls|self_s>".
TRACED = {
    "dynamics": ("simulate",),
    "steering": ("steer_linear", "synthesize_control", "alpha_sweep", "control_energy"),
    "gramian": ("assemble_gramian", "gramian_mode_quadrature", "solve_regularized"),
    "semigroup": ("apply_semigroup",),
    "spectral": ("energy_norm", "energy_coords"),
    "harness": ("run_pullback_experiment", "pullback_cell", "run_linear_suite"),
}


def _package_modules(package):
    """Every imported module of the package; submodules are imported first.

    ``__main__`` is skipped: importing it runs the command line.
    """
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"{package.__name__}.{info.name}")
    prefix = package.__name__ + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    ]


class Tracer:
    """Spans of one traced pass at a time, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, steps]
        self._stack = []
        self._patches = []
        self.originals = {}
        self.absent = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{layer}.{fn_name}")
                else:
                    self.originals[f"{layer}.{fn_name}"] = original
        self.present = list(self.originals)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_steps = name == "dynamics.simulate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            steps = 0
            if counts_steps:
                config = args[0] if args else kwargs["config"]
                steps = round(config.tau / config.step)
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, steps])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self):
        modules = _package_modules(self.package)
        for name, original in self.originals.items():
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take_pass(self) -> dict:
        """Summarise and clear the spans of one pass.

        Returns name -> (calls, self seconds, steps simulated).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: [0, 0.0, 0] for name in self.present}
        for (name, start, end, _, steps), covered in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
            entry[2] += steps
        self.spans.clear()
        return out


def per_layer_metrics(passes: list[dict], factors: list[float], present: list[str]) -> dict:
    """Per-pass calls (median) and self time (reference seconds, see run.py's
    ``Clock``) of every present function, plus the simulated step cost
    ``dynamics.step_us``."""
    out = {}
    total_factor = sum(factors)
    for name in present:
        out[f"{name}.calls"] = median(p[name][0] for p in passes)
        out[f"{name}.self_s"] = sum(p[name][1] for p in passes) / total_factor
    if "dynamics.simulate" in present:
        steps = sum(f * p["dynamics.simulate"][2] for p, f in zip(passes, factors))
        busy = sum(p["dynamics.simulate"][1] for p in passes)
        out["dynamics.step_us"] = 1e6 * busy / steps if steps else 0.0
    return out
