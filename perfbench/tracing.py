"""Span tracing of difftop's layers, installed from outside the package.

The tracer swaps wrappers into the module attributes through which one
difftop module calls another (``difftop.subdivision.lambda_inv``,
``difftop.lifting.psi_inv``, ...), into the methods of the objects the
benchmark hands to the program (instance data, ``canonicalize``), and
around the maps a fibration's oracle returns.  Every wrapped call records
a span (name, start, end, parent, item) in flat arrays kept in memory;
``write`` saves them when the run ends.

smoothfn's own globals ``lambda_fn``, ``gamma`` and ``xi`` are never
wrapped: bisection calls them about fifty times per inversion, so a span
there would measure the tracer.  Calls to ``lambda_fn`` from other
modules are counted without a span.
"""

import dataclasses
import functools
import time
from array import array

import numpy as np

from difftop import (cellcomplex, diffeology, diskmodel, instances, lifting,
                     smoothfn, subdivision, verify)

# (module, attribute, span name): cross-module call sites of each layer
SPAN_SITES = [
    (smoothfn, "lambda_inv", "smoothfn.lambda_inv"),
    (subdivision, "lambda_inv", "smoothfn.lambda_inv"),
    (smoothfn, "xi_inv", "smoothfn.xi_inv"),
    (subdivision, "xi_inv", "smoothfn.xi_inv"),
    (smoothfn, "smoothness_check", "smoothfn.smoothness_check"),
    (verify, "smoothness_check", "smoothfn.smoothness_check"),
    (diffeology, "smoothness_check", "smoothfn.smoothness_check"),
    (diskmodel, "section", "diskmodel.section"),
    (subdivision, "section", "diskmodel.section"),
    (lifting, "section", "diskmodel.section"),
    (instances, "section", "diskmodel.section"),
    (diskmodel, "Q", "diskmodel.Q"),
    (subdivision, "Q", "diskmodel.Q"),
    (lifting, "Q", "diskmodel.Q"),
    (diskmodel, "gen_plot", "diskmodel.gen_plot"),
    (subdivision, "check_disk", "diskmodel.check_disk"),
    (cellcomplex, "check_disk", "diskmodel.check_disk"),
    (subdivision, "psi", "subdivision.psi"),
    (lifting, "psi", "subdivision.psi"),
    (subdivision, "psi_inv", "subdivision.psi_inv"),
    (lifting, "psi_inv", "subdivision.psi_inv"),
    (diffeology, "smooth_check", "diffeology.smooth_check"),
]

# methods, wrapped on the class so every instance is covered
METHOD_SITES = [
    (cellcomplex.CellComplex, "canonicalize", "cellcomplex.canonicalize"),
    (instances.ChepInstance, "k", "instances.data"),
    (instances.ChepInstance, "f", "instances.data"),
    (instances.ChepInstance, "h", "instances.data"),
    (instances.ChepInstance, "position", "instances.data"),
    (instances.ExtendInstance, "bottom", "instances.data"),
    (instances.ExtendInstance, "f", "instances.data"),
    (instances.ExtendInstance, "position", "instances.data"),
]

# lambda_fn as seen from other modules: counted, not timed
COUNT_SITES = [subdivision, diskmodel, lifting, instances]

# constructors of fibrations, wrapped so that the lift maps they hand out
# record "lifting.oracle" spans
FIBRATION_SITES = [
    (lifting, "product_fibration"), (lifting, "point_fibration"),
    (instances, "product_fibration"), (instances, "point_fibration"),
    (verify, "product_fibration"),
]

SPAN_NAMES = sorted({s[2] for s in SPAN_SITES} | {s[2] for s in METHOD_SITES}
                    | {"lifting.H", "lifting.oracle"})


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_item = -1
        self.lambda_fn_calls = 0
        self._stack = []
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped in a span called ``name``."""
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter_ns
        rec_name, rec_parent, rec_item = self.name, self.parent, self.item
        rec_start, rec_end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_name)
            rec_name.append(nid)
            rec_parent.append(stack[-1] if stack else -1)
            rec_item.append(self.current_item)
            rec_end.append(0)
            stack.append(idx)
            rec_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec_end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_result(self, name, fn):
        # for factories and methods whose result is the map to trace
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap(name, fn(*args, **kwargs))
        return factory

    def _count_lambda(self, fn):
        @functools.wraps(fn)
        def counted(t):
            self.lambda_fn_calls += 1
            return fn(t)
        return counted

    def _fibration(self, make):
        @functools.wraps(make)
        def traced_make(*args, **kwargs):
            fib = make(*args, **kwargs)
            return dataclasses.replace(
                fib, lift_k=self._wrap_result("lifting.oracle", fib.lift_k))
        return traced_make

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        # wrap every distinct original once, so all sites share a wrapper
        wrapped = {}
        for mod, attr, name in SPAN_SITES:
            orig = getattr(mod, attr)
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self.wrap(name, orig)
            self._patch(mod, attr, wrapped[id(orig)])
        for cls, attr, name in METHOD_SITES:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        for mod in COUNT_SITES:
            self._patch(mod, "lambda_fn", self._count_lambda(mod.lambda_fn))
        for mod, attr in FIBRATION_SITES:
            self._patch(mod, attr, self._fibration(getattr(mod, attr)))
        cls = lifting.TrivialProductFibration
        self._patch(cls, "lift_j", self._wrap_result("lifting.oracle", cls.__dict__["lift_j"]))
        # chep/hep build their result through lifting.Homotopy
        homotopy_cls = lifting.Homotopy
        self._patch(lifting, "Homotopy",
                    lambda fn, *a, **k: homotopy_cls(self.wrap("lifting.H", fn), *a, **k))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def layer_stats(self):
        """{span name: (calls, self seconds, mean inclusive microseconds)}."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_tot = np.bincount(name, weights=self_s, minlength=k)
        incl_tot = np.bincount(name, weights=dur, minlength=k)
        out = {}
        for nid, nm in enumerate(self.names):
            c = int(calls[nid])
            out[nm] = (c, float(self_tot[nid]), 1e6 * float(incl_tot[nid]) / c if c else 0.0)
        return out

    def nesting_max(self, name):
        """Deepest nesting of spans called ``name`` inside one another."""
        if name not in self._ids:
            return 0
        nid = self._ids[name]
        names, parents = self.name, self.parent
        depth = array("i", bytes(4 * len(names)))
        for i in range(len(names)):
            p = parents[i]
            depth[i] = (depth[p] if p >= 0 else 0) + (names[i] == nid)
        return max(depth, default=0)

    def write(self, path):
        """Save every span as columns of a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
            parent=np.asarray(self.parent), item=np.asarray(self.item))
