"""Span tracing for the benchmark's traced run, applied from outside wlift.

While `Tracer.installed()` is active, every public function of the traced
wlift modules, `PiecewiseGeodesicPath.eval_many`, `WassersteinCurve.__call__`
and scipy's `linprog` as imported into `wlift.transport` are replaced by
wrappers.  A function is rebound under every name any wlift module holds it
by (`lifts` imports `optimal_coupling` from `transport`, the package
re-exports most names), and methods are replaced on their class.  Each call
appends a span (name, start, end, parent) to flat in-memory arrays; self
times are derived from the spans afterwards.  Leaving the context restores
every original.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("spaces", "measures", "paths", "transport", "norms", "lifts", "families", "cli")
CURVE_CALL = "lifts.curve_call"
EVAL_MANY = "paths.eval_many"
LINPROG = "highs.linprog"

# layers reported with call count and self time, and with call count only
TIMED = (
    "transport.optimal_coupling", "transport.compatibility_multicoupling",
    "transport.glue_chain", EVAL_MANY, "lifts.marginal_check",
    "lifts.pairwise_optimality_check", "lifts.lift_energy", "lifts.construct_lift_A",
    "lifts.construct_lift_B", CURVE_CALL, "measures.make_measure",
    "spaces.distance_matrix", "norms.besov_energy_pg", "norms.frac_sobolev_energy",
    "norms.grr_check", "norms.holder_norm_dyadic", "norms.p_variation",
    "norms.modulus_of_continuity", "norms.limsup_variation_dyadic",
    "lifts.curve_norm_power", "lifts.curve_besov_norm", "cli.main",
)
COUNTED = ("transport.wasserstein_distance", "transport.wasserstein_power",
           "measures.measures_equal")

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    [m for name in TIMED for m in ((f"{name}.calls", "count", "lower"),
                                   (f"{name}.self_s", "s", "lower"))]
    + [(f"{name}.calls", "count", "lower") for name in COUNTED]
    + [
        ("transport.optimal_coupling.calls_1d", "count", "lower"),
        ("transport.optimal_coupling.calls_le8", "count", "lower"),
        ("transport.optimal_coupling.calls_gt8", "count", "lower"),
        (f"{LINPROG}.calls", "count", "lower"),
        (f"{LINPROG}.total_s", "s", "lower"),
        (f"{LINPROG}.cols_max", "count", "lower"),
        ("transport.compatibility_multicoupling.product_size_max", "count", "lower"),
        ("transport.glue_chain.tuples_max", "count", "lower"),
        (f"{CURVE_CALL}.hit_ratio", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.residue_s", "s", "lower"),
    ]
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ot_bucket(counters, args, kwargs, out):
    """OT problems by kind and size: on the real line (closed-form
    eligible), else by the larger atom count."""
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    if mu.space.kind == "euclidean" and mu.space.dim == 1:
        key = "calls_1d"
    elif max(mu.size, nu.size) <= 8:
        key = "calls_le8"
    else:
        key = "calls_gt8"
    counters[f"transport.optimal_coupling.{key}"] += 1


def _running_max(metric, size):
    def probe(counters, args, kwargs, out):
        counters[metric] = max(counters[metric], size(args, kwargs, out))
    return probe


PROBES = {
    "transport.optimal_coupling": _ot_bucket,
    LINPROG: _running_max(f"{LINPROG}.cols_max", lambda a, k, out: len(_arg(a, k, 0, "c"))),
    "transport.compatibility_multicoupling": _running_max(
        "transport.compatibility_multicoupling.product_size_max",
        lambda a, k, out: out.product_size),
    "transport.glue_chain": _running_max(
        "transport.glue_chain.tuples_max", lambda a, k, out: out.indices.shape[0]),
}


def _wlift_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wlift" or n.startswith("wlift."))]


class Tracer:
    """Spans of one traced iteration, kept in memory."""

    def __init__(self):
        self._ids = {}  # span name -> id, in first-use order
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {m: 0 for m, unit, _ in PER_LAYER if m.endswith("_max") or ".calls_" in m}

    def _wrap(self, label, fn):
        nid = self._ids.setdefault(label, len(self._ids))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counters, probe = self._stack, time.perf_counter, self.counters, PROBES.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from wlift.lifts import WassersteinCurve
        from wlift.paths import PiecewiseGeodesicPath

        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"wlift.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        linprog = importlib.import_module("wlift.transport").linprog
        wrappers[id(linprog)] = (linprog, self._wrap(LINPROG, linprog))

        patched = []
        try:
            for mod in _wlift_modules():
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, obj))
            for cls, attr, label in ((PiecewiseGeodesicPath, "eval_many", EVAL_MANY),
                                     (WassersteinCurve, "__call__", CURVE_CALL)):
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(label, original))
                patched.append((cls, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int64), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def layer_stats(self, wall_s):
        """Per-name call counts, self and total times, the probes' counters,
        and the residue: wall time spent outside every span."""
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        k = len(self._ids)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        stats = dict(self.counters)
        for label, nid in self._ids.items():
            stats[f"{label}.calls"] = int(calls[nid])
            stats[f"{label}.self_s"] = float(self_s[nid])
            stats[f"{label}.total_s"] = float(total_s[nid])
        # a curve-call miss is a curve call with a make_measure child span
        cc, mm = self._ids[CURVE_CALL], self._ids["measures.make_measure"]
        evaluated = parent[(name == mm) & nested]
        misses = np.unique(evaluated[name[evaluated] == cc]).size
        n_cc = int(calls[cc])
        stats[f"{CURVE_CALL}.hit_ratio"] = (1.0 - misses / n_cc) if n_cc else 0.0
        stats["trace.spans"] = len(dur)
        stats["trace.residue_s"] = float(wall_s - dur[~nested].sum())
        return stats



def save_spans(path, tracers):
    """Writes the spans of every traced iteration to one .npz file; arrays of
    iteration k carry the suffix _k, and `names_k[name_k[i]]` labels span i."""
    arrays = {}
    for k, t in enumerate(tracers):
        for key, value in zip(("name", "parent", "start", "end"), t.arrays()):
            arrays[f"{key}_{k}"] = value
        arrays[f"names_{k}"] = np.array(list(t._ids))
    np.savez(path, **arrays)
