"""Spans recorded from outside the program, and the per-layer metrics built on them.

A traced invocation wraps every public function and public method of the
package's layer modules, and rebinds the wrapper at every module that bound
the original: the package imports with ``from .x import y``, so patching
``pairspec.dispersion.delta_k`` alone would miss the call made from ``jsa``.
Each call records a span (function, parent span, start, end, error) plus a
work count at the boundaries where one is defined. Spans stay in memory and
are reduced to per-function totals when the invocation ends.

The layer of a function is the module that defines it. A span's exclusive
time is its duration minus its direct children's; its layer time adds the
exclusive time of same-layer callees, so ``jsa.joint_amplitude_ms`` is the
time inside ``joint_amplitude`` that is not spent in ``dispersion``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("crystals", "dispersion", "jsa", "schmidt", "interference", "analysis", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x):
    return int(np.size(x))


def _broadcast_size(a, b):
    return int(np.broadcast(a, b).size)


def _svd_flops(args, kwargs, result):
    """Computed LAPACK flop count of the complex SVD (Golub and Van Loan
    estimates; a complex flop is four real ones)."""
    m, n = _arg(args, kwargs, 0, "jsa").values.shape
    m, n = max(m, n), min(m, n)
    modes = kwargs.get("keep_modes", args[1] if len(args) > 1 else False)
    real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3 if modes else 4 * m * n * n - 4 * n ** 3 / 3
    return 4.0 * real


# Work counts taken from a call's arguments.
POINTS = {
    "crystals.SellmeierForm.index": lambda a, k: _size(_arg(a, k, 1, "wavelength_nm")),
    "dispersion.index_e": lambda a, k: _size(_arg(a, k, 1, "wavelength_nm")),
    "dispersion.index_o": lambda a, k: _size(_arg(a, k, 1, "wavelength_nm")),
    "dispersion.delta_k": lambda a, k: _broadcast_size(_arg(a, k, 2, "omega_e"),
                                                       _arg(a, k, 3, "omega_o")),
    "analysis.filter_sweep": lambda a, k: len(_arg(a, k, 1, "bandwidths_nm")),
}

# Values taken from a call's result, or from what it wrote.
POST = {
    "schmidt.schmidt_decompose": _svd_flops,
    "analysis.fit_gaussian_dip": lambda a, k, r: [r.n_iterations, int(r.converged)],
    "jsa.export_jsi_csv": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
    "jsa.export_metadata": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
}


def _stats():
    # post sums the POST value (the first item of a pair), post2 the second.
    return {"calls": 0, "ms": 0.0, "excl_ms": 0.0, "layer_ms": 0.0, "points": 0,
            "post": 0.0, "post2": 0}


class Tracer:
    """Spans of one invocation: wrap, run, then ``summary()``."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.spans = []   # [function id, parent span, start, end, points, error, post]
        self.stack = []

    def _wrap(self, name, layer, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        points, post = POINTS.get(name), POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fid, stack[-1] if stack else -1, 0.0, 0.0,
                   points(args, kwargs) if points else 0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if post:
                rec[6] = post(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the package in place; returns the wrapped function names."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"pairspec.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "pairspec" and not modname.startswith("pairspec."):
                continue
            for name, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
        return set(self.names)

    def _wrap_methods(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(qual, layer, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(qual, layer, attr.__func__)))

    def summary(self):
        """Per-function and per-layer totals of the recorded spans."""
        spans, layers = self.spans, self.layers
        excl = [s[3] - s[2] for s in spans]
        root = list(range(len(spans)))
        for i, s in enumerate(spans):
            p = s[1]
            if p >= 0:
                excl[p] -= s[3] - s[2]
                if layers[spans[p][0]] == layers[s[0]]:
                    root[i] = root[p]
        fn = {name: _stats() for name in self.names}
        layer = {name: {"ms": 0.0, "errors": 0} for name in LAYERS}
        dk_points = 0
        delta_k = (self.names.index("dispersion.delta_k")
                   if "dispersion.delta_k" in self.names else -2)
        for i, (fid, parent, t0, t1, points, error, post) in enumerate(spans):
            st = fn[self.names[fid]]
            st["calls"] += 1
            st["ms"] += (t1 - t0) * 1e3
            st["excl_ms"] += excl[i] * 1e3
            st["points"] += points
            if isinstance(post, list):
                st["post"] += post[0]
                st["post2"] += post[1]
            elif post is not None:
                st["post"] += post
            fn[self.names[spans[root[i]][0]]]["layer_ms"] += excl[i] * 1e3
            lay = layers[fid]
            layer[lay]["ms"] += excl[i] * 1e3
            if error and (parent < 0 or layers[spans[parent][0]] != lay):
                layer[lay]["errors"] += 1
            if parent >= 0 and spans[parent][0] == delta_k:
                dk_points += points
        return {"fn": fn, "layer": layer, "delta_k_points": dk_points}


def merge(total, part):
    """Add one invocation's summary into a running total."""
    for name, st in part["fn"].items():
        acc = total["fn"].setdefault(name, _stats())
        for key, value in st.items():
            acc[key] += value
    for name, st in part["layer"].items():
        acc = total["layer"].setdefault(name, {"ms": 0.0, "errors": 0})
        acc["ms"] += st["ms"]
        acc["errors"] += st["errors"]
    total["delta_k_points"] += part["delta_k_points"]
    total["bytes_written"] += part.get("bytes_written", 0)
    return total


def empty():
    return {"fn": {}, "layer": {}, "delta_k_points": 0, "bytes_written": 0}


COUNT, MS = "count", "ms"


def layer_metrics(s):
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    def st(name, key):
        return s["fn"].get(name, {}).get(key, 0)

    fit_calls = st("analysis.fit_gaussian_dip", "calls")
    m = {
        "crystals.index_calls": (st("crystals.SellmeierForm.index", "calls"), COUNT),
        "crystals.index_points": (st("crystals.SellmeierForm.index", "points"), COUNT),
        "crystals.ms": (s["layer"].get("crystals", {}).get("ms", 0.0), MS),
        "dispersion.delta_k_calls": (st("dispersion.delta_k", "calls"), COUNT),
        "dispersion.delta_k_points": (s["delta_k_points"], COUNT),
        "dispersion.delta_k_ms": (st("dispersion.delta_k", "ms"), MS),
        "dispersion.pm_angle_calls": (st("dispersion.phasematching_angle", "calls"), COUNT),
        "dispersion.pm_angle_ms": (st("dispersion.phasematching_angle", "ms"), MS),
        "dispersion.group_index_calls": (st("dispersion.group_index", "calls"), COUNT),
        "dispersion.gvm_solve_ms": (st("dispersion.gvm_pump_wavelength", "ms"), MS),
        "jsa.build_grid_ms": (st("jsa.build_grid", "ms"), MS),
        "jsa.joint_amplitude_ms": (st("jsa.joint_amplitude", "layer_ms"), MS),
        "jsa.apply_filters_calls": (st("jsa.apply_filters", "calls"), COUNT),
        "jsa.apply_filters_ms": (st("jsa.apply_filters", "ms"), MS),
        "jsa.export_ms": (st("jsa.export_jsi_csv", "ms") + st("jsa.export_metadata", "ms"), MS),
        "jsa.export_bytes": (st("jsa.export_jsi_csv", "post") + st("jsa.export_metadata", "post"),
                             "B"),
        "cli.self_ms": (s["layer"].get("cli", {}).get("ms", 0.0), MS),
        "cli.load_config_ms": (st("cli.load_config", "ms"), MS),
        "cli.bytes_written": (s["bytes_written"], "B"),
        "schmidt.decompose_calls": (st("schmidt.schmidt_decompose", "calls"), COUNT),
        "schmidt.decompose_ms": (st("schmidt.schmidt_decompose", "ms"), MS),
        "schmidt.svd_flops": (st("schmidt.schmidt_decompose", "post"), "flop"),
        "schmidt.rho_calls": (st("schmidt.heralded_density_matrix", "calls"), COUNT),
        "schmidt.rho_ms": (st("schmidt.heralded_density_matrix", "ms"), MS),
        "schmidt.herald_eff_ms": (st("schmidt.heralding_efficiency", "ms"), MS),
        "interference.hom_dip_calls": (st("interference.hom_dip", "calls"), COUNT),
        "interference.hom_dip_ms": (st("interference.hom_dip", "ms"), MS),
        "interference.two_source_self_ms": (st("interference.two_source_experiment", "excl_ms"),
                                            MS),
        "analysis.sweep_points": (st("analysis.filter_sweep", "points"), COUNT),
        "analysis.sweep_self_ms": (st("analysis.filter_sweep", "excl_ms"), MS),
        "analysis.counts_ms": (st("analysis.simulate_counts", "ms"), MS),
        "analysis.scan_ms": (st("analysis.simulate_jsi_scan", "ms"), MS),
        "analysis.fit_calls": (fit_calls, COUNT),
        "analysis.fit_ms": (st("analysis.fit_gaussian_dip", "ms"), MS),
        "analysis.fit_iterations": (st("analysis.fit_gaussian_dip", "post"), COUNT),
        "analysis.fit_converged_ratio": (
            st("analysis.fit_gaussian_dip", "post2") / fit_calls if fit_calls else 0.0, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (s["layer"].get(layer, {}).get("errors", 0), COUNT)
    return m
