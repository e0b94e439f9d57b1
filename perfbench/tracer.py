"""Outside-in tracing of otfair's public functions.

The benchmark does not edit the package. Instead it replaces each traced
function, in every otfair module namespace that holds it, with a wrapper that
records a span (name, start, end, parent span, group) and per-call counters.
A call made through any binding of the function (``otfair.cot.eval_features``,
``otfair.rff.eval_features``, ``otfair.eval_features``) is therefore seen
once. A traced name that no longer exists raises at install time, so a rename
shows up as an error rather than as a layer reporting zero calls.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _rows_of(i, name):
    return lambda args, kwargs, out: (np.size(_arg(args, kwargs, i, name)),)


def _score_rows(args, kwargs, out):
    return (np.atleast_2d(_arg(args, kwargs, 1, "Z")).shape[0],)


def _pairings(args, kwargs, out):
    nx = np.size(_arg(args, kwargs, 2, "xs"))
    ny = np.size(_arg(args, kwargs, 3, "ys"))
    mode = _arg(args, kwargs, 6, "pair_mode", "full")
    return (nx * ny if mode == "full" else nx,)


def _entries(args, kwargs, out):
    return (np.size(out.mass),)


# "<module>.<function>" -> (extra counter names, function of (args, kwargs,
# result) giving their increments). The module part is the layer name and the
# otfair submodule that defines the function; every function also counts calls.
TRACED = {
    "rff.eval_features": (("rows",), _rows_of(1, "x")),
    "rff.grad_potential_input": ((), None),
    "cot.cot_run": ((), None),
    "cot.dual_update": (("pairings",), _pairings),
    "cot.dual_objective": ((), None),
    "cot.theta_update": ((), None),
    "cot.alpha": ((), None),
    "cot.conjugate": ((), None),
    "dot.dot_run": ((), None),
    "dot.optimal_coupling_1d": (("entries",), _entries),
    "dot.dot_theta_update": ((), None),
    "model.score_batch": (("rows",), _score_rows),
    "model.train_lr": ((), None),
    "dpp.fit_dpp": ((), None),
    "dpp.dpp_transform": (("rows",), _rows_of(2, "s")),
    "metrics.wasserstein1_1d": ((), None),
    "metrics.sdd": ((), None),
    "metrics.spdd": ((), None),
    "metrics.err_at_threshold": ((), None),
    "metrics.w1_barycenter": ((), None),
    "metrics.pooled": ((), None),
    "data.load_dataset": ((), None),
    "data.train_test_split": ((), None),
    "data.resample_positive_rate": ((), None),
    "harness.group_score_distributions": ((), None),
    "harness.build_target": ((), None),
    "harness.evaluate": ((), None),
    "synthetic.write_csv": ((), None),
}

PACKAGE = "otfair"

# A completed call to one of these ends one parameter update of a fit.
UPDATE_STEPS = ("cot.theta_update", "dot.dot_theta_update")


def resolve():
    """Map each traced function object to its layer name; raise if one is missing."""
    functions = {}
    for qual in TRACED:
        modname, fname = qual.split(".")
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        fn = getattr(mod, fname, None)
        if not callable(fn):
            raise LookupError(
                f"traced function {PACKAGE}.{qual} is missing; it was removed "
                "or renamed, so perfbench/tracer.py TRACED must follow it")
        functions[fn] = qual
    return functions


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans are tuples (id, name, start, end, parent id, group). A group is a
    (kind, index) pair set by the benchmark, e.g. ("request", 17); during a
    fit the index advances after every parameter update, so all spans of one
    update share a group.
    """

    def __init__(self):
        self.functions = resolve()
        self.spans = []
        self.counters = defaultdict(int)
        self.group = ("idle", 0)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, qual):
        keys, extra = TRACED[qual]
        names = [f"{qual}.{key}" for key in keys]
        advances = qual in UPDATE_STEPS
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            group = self.group
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, qual, start, end, parent, group))
            counters[qual + ".calls"] += 1
            if extra is not None:
                for name, val in zip(names, extra(args, kwargs, out)):
                    counters[name] += int(val)
            if advances:
                kind, idx = self.group
                self.group = (kind, idx + 1)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every binding of each traced function in the loaded otfair modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, qual) for fn, qual in self.functions.items()}
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(val)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- spans opened by the benchmark itself ---------------------------
    def span(self, name, group):
        return _BenchSpan(self, name, group)

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    # -- reports ----------------------------------------------------------
    def self_times(self):
        """Per-name self time: span duration minus the time of its child spans."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _group in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent, _group in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, group in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "group": list(group)}) + "\n")


class _BenchSpan:
    def __init__(self, tracer, name, group):
        self.tracer, self.name, self.group = tracer, name, group

    def __enter__(self):
        t = self.tracer
        self.sid = t._next_id
        t._next_id += 1
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.sid)
        t.group = self.group
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t.spans.append((self.sid, self.name, self.start, end, self.parent,
                        self.group))
        return False
