"""Outside-in span tracer for the traced benchmark run.

The package looks up its collaborators as module attributes at call time
(``harness`` calls the names it imported, ``filters`` calls ``pf_step`` and
``_kernels.fd_substep``, ``stochvol`` calls ``simulate_variance_paths``), so
replacing those attributes with timing wrappers records a span at each layer
boundary without touching the package.  ``traced`` installs the wrappers and
always restores the originals; a target that no longer exists is reported as
absent rather than failing the run.

Importing this module imports nothing from the package.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Span name -> (module, attribute path) pairs to wrap.  A layer reached under
# two names (harness imports resample_indices and write_csv directly) lists
# both.  Spans in ksplab._kernels are named kernels.*, because a metric name
# must start with a letter or a digit.
TARGETS = {
    "harness.run_scenario": [("ksplab.harness", "run_scenario")],
    "config.validate_config": [("ksplab.config", "validate_config")],
    "sde.simulate_path": [("ksplab.harness", "simulate_path")],
    "sde.simulate_ensemble": [("ksplab.observation", "simulate_ensemble")],
    "observation.simulate_observation": [("ksplab.harness", "simulate_observation")],
    "observation.check_novikov": [("ksplab.harness", "check_novikov")],
    "kalman.run_kalman": [("ksplab.harness", "run_kalman")],
    "filters.run_particle_filter": [("ksplab.harness", "run_particle_filter")],
    "filters.pf_step": [("ksplab.filters", "pf_step")],
    "filters.pf_estimate": [("ksplab.filters", "pf_estimate")],
    "filters.run_grid_filter": [("ksplab.harness", "run_grid_filter")],
    "filters.zakai_grid_step": [("ksplab.filters", "zakai_grid_step")],
    "filters.stability_dt_bound": [("ksplab.filters", "stability_dt_bound")],
    "stochvol.simulate_heston": [("ksplab.harness", "simulate_heston")],
    "stochvol.heston_filter": [("ksplab.harness", "heston_filter")],
    "stochvol.filtered_option_price": [("ksplab.harness", "filtered_option_price")],
    "stochvol.simulate_variance_paths": [("ksplab.stochvol", "simulate_variance_paths")],
    "kernels.heston_paths": [("ksplab._kernels", "heston_paths")],
    "kernels.fd_substep": [("ksplab._kernels", "fd_substep")],
    "kernels.resample_indices": [
        ("ksplab._kernels", "resample_indices"),
        ("ksplab.harness", "resample_indices"),
    ],
    "rng.generator": [("ksplab.rng", "RngStream.generator")],
    "csvio.write_csv": [("ksplab.csvio", "write_csv"), ("ksplab.harness", "write_csv")],
}

# Work counted from argument shapes: steps x columns for the Heston stepper,
# nodes for the grid stencil.
ELEMENTS = {
    "kernels.heston_paths": lambda args, kwargs: args[2].shape[0] * args[2].shape[1],
    "kernels.fd_substep": lambda args, kwargs: args[0].size,
}

# heston_paths reads db and dw and writes x and y: 4 float64 arrays per element.
HESTON_BYTES_PER_ELEMENT = 4 * 8

# Per-layer metrics read from spans, as (span name, quantity).
SPAN_METRICS = (
    ("filters.run_grid_filter", "s"),
    ("filters.zakai_grid_step", "s"),
    ("filters.zakai_grid_step", "calls"),
    ("filters.stability_dt_bound", "s"),
    ("filters.stability_dt_bound", "calls"),
    ("kernels.fd_substep", "s"),
    ("kernels.fd_substep", "calls"),
    ("kernels.fd_substep", "elements"),
    ("filters.run_particle_filter", "s"),
    ("filters.run_particle_filter", "calls"),
    ("filters.pf_step", "s"),
    ("filters.pf_step", "self_s"),
    ("filters.pf_step", "calls"),
    ("filters.pf_estimate", "s"),
    ("filters.pf_estimate", "calls"),
    ("kalman.run_kalman", "s"),
    ("stochvol.filtered_option_price", "s"),
    ("stochvol.filtered_option_price", "calls"),
    ("stochvol.simulate_variance_paths", "s"),
    ("stochvol.simulate_variance_paths", "calls"),
    ("kernels.heston_paths", "s"),
    ("kernels.heston_paths", "calls"),
    ("kernels.heston_paths", "elements"),
    ("rng.generator", "s"),
    ("rng.generator", "calls"),
    ("stochvol.simulate_heston", "s"),
    ("stochvol.heston_filter", "s"),
    ("stochvol.heston_filter", "calls"),
    ("kernels.resample_indices", "s"),
    ("kernels.resample_indices", "calls"),
    ("sde.simulate_ensemble", "s"),
    ("observation.check_novikov", "self_s"),
    ("sde.simulate_path", "s"),
    ("observation.simulate_observation", "s"),
    ("csvio.write_csv", "s"),
    ("harness.run_scenario", "s"),
    ("harness.run_scenario", "self_s"),
    ("config.validate_config", "s"),
)

# Metrics that must repeat exactly between two traced runs at one seed.
DETERMINISTIC_QUANTITIES = ("calls", "elements", "bytes_computed", "output_bytes")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.elements = defaultdict(int)
        self.last_args = {}
        self._stack = []

    def wrap(self, name, fn):
        count = ELEMENTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self.last_args[name] = (args, kwargs)
            if count is not None:
                self.elements[name] += int(count(args, kwargs))
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def totals(self):
        """Per span name: total seconds, self seconds and call count."""
        child_s = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[index]
            entry["calls"] += 1
        return out

    def layer_metrics(self):
        """The SPAN_METRICS values; layers never entered read 0."""
        totals = self.totals()
        metrics = {}
        for name, quantity in SPAN_METRICS:
            source = self.elements[name] if quantity == "elements" else totals[name][quantity]
            metrics[f"{name}.{quantity}"] = source
        metrics["kernels.heston_paths.bytes_computed"] = (
            self.elements["kernels.heston_paths"] * HESTON_BYTES_PER_ELEMENT
        )
        return metrics


def _resolve(module, path):
    """(owner, attribute) for a dotted path in a module, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


@contextmanager
def traced(tracer, targets=TARGETS):
    """Install a wrapper on every target; yield the span names found nowhere.

    The originals are restored on exit, also when the run raises.
    """
    patched = []
    absent = []
    try:
        for name, places in targets.items():
            found = False
            for module, path in places:
                resolved = _resolve(module, path)
                if resolved is None:
                    continue
                owner, attr = resolved
                original = vars(owner)[attr]
                setattr(owner, attr, tracer.wrap(name, original))
                patched.append((owner, attr, original))
                found = True
            if not found:
                absent.append(name)
        yield absent
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
