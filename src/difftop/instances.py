"""File-specified instances: complexes, fibrations, homotopy data, demos.

Instance files are JSON.  Scalar formulas use a tiny expression AST --
constants, variables, arithmetic, trig, and the package's smoothing
profiles -- so the homotopy data are fully specified by the file, with
composition expressed by nesting:

    {"op": "lambda", "args": [{"op": "mul", "args":
        [{"op": "const", "value": 3}, {"op": "var", "index": 0}]}]}

Complexes built from files are "chain-shaped": a point base, 0-cells,
1-cells joining earlier targets, and optional 2-cells wrapping a 1-cell.
``chain_position(cx)`` is the map giving every point of such a complex a
scalar position coordinate, which is what the bundled homotopy data is
expressed in.  Every node is type-checked when the file is loaded, so a
malformed file raises InstanceError there and never a TypeError deep in
the lifting.

What the file fixes is worked out once, at load: each expression becomes
a tree of closures whose arithmetic nodes call the ``operator`` functions
(a fold of n arguments nests left into two-argument calls), and each
complex gets one position table, the positions of its 0-cells, of its
1-cells' ends and of its 2-cells' poles.  Evaluation computes only what depends on the point, in
the order the definitions state, so every value keeps its bits.
"""

import json
import math
import operator
import sys

import numpy as np

from .smoothfn import gamma, lambda_fn, xi
from .diskmodel import section
from .cellcomplex import CellComplex, ComplexPoint
from .lifting import product_fibration, point_fibration, TrivialProductFibration

__all__ = [
    "compile_expr", "complex_from_json", "chain_position",
    "chep_instance_from_json", "extend_instance_from_json",
    "bundled_chep_instance", "bundled_extend_instance", "InstanceError",
]


class InstanceError(ValueError):
    """Malformed or inconsistent instance description."""


_JSON_TYPES = {dict: "a JSON object", list: "a JSON list", int: "an integer"}


def _typed(node, kind, what):
    """node, which must be of JSON type kind; true and false are no integers."""
    if isinstance(node, bool) or not isinstance(node, kind):
        raise InstanceError(f"{what} must be {_JSON_TYPES[kind]}, not {node!r:.80}")
    return node


def _keys(node, accepted, what):
    """node, a JSON object whose keys are all in accepted."""
    for key in _typed(node, dict, what):
        if key not in accepted:
            raise InstanceError(f"unknown key {key!r:.80} in {what}; "
                                f"accepted: {', '.join(accepted)}")
    return node


def _number(node, what):
    """node as a finite float; true and false are no numbers."""
    if (isinstance(node, bool) or not isinstance(node, (int, float))
            or not abs(node) <= sys.float_info.max):
        raise InstanceError(f"{what} must be a finite number, not {node!r:.80}")
    return float(node)


_UNARY = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "neg": operator.neg,
    "abs": abs, "lambda": lambda_fn, "xi": xi, "gamma": gamma,
}

_BINARY_FOLD = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "pow": operator.pow,
}


def _compile(node, nvars):
    if not isinstance(node, dict):
        value = _number(node, "an expression that is not an object")
        return lambda u: value
    op = node.get("op")
    if op == "const":
        value = _number(_keys(node, ("op", "value"), "const").get("value"), "const value")
        return lambda u: value
    if op == "var":
        index = _typed(_keys(node, ("op", "index"), "var").get("index", 0), int, "var index")
        if not 0 <= index < nvars:
            raise InstanceError(f"var index {index} is not one of the {nvars} "
                                "variables of this expression")
        return lambda u: float(u[index])
    if not isinstance(op, str) or (op not in _UNARY and op not in _BINARY_FOLD):
        raise InstanceError(f"unknown expression op {op!r:.80}")
    args = _keys(node, ("op", "args"), op).get("args", [])
    parts = [_compile(a, nvars) for a in _typed(args, list, f"args of {op}")]
    if op in _UNARY:
        if len(parts) != 1:
            raise InstanceError(f"{op} takes one argument")
        fn, (arg,) = _UNARY[op], parts
        return lambda u: fn(arg(u))
    if len(parts) < 2:
        raise InstanceError(f"{op} takes at least two arguments")
    # fold left at compile time into nested two-argument calls
    fold, out = _BINARY_FOLD[op], parts[0]
    for part in parts[1:]:
        out = (lambda a, b: lambda u: fold(a(u), b(u)))(out, part)
    return out


def compile_expr(node, nvars, field="expression"):
    """The evaluator of an expression AST over nvars variables.

    Ops, arity and var indices are checked here, when the instance is
    loaded, so evaluation never meets a malformed node.  The evaluator
    takes a list of the variables' values.  An evaluation that raises
    (exp overflow, sin(inf), division by zero) or yields a non-real or
    non-finite value raises InstanceError naming ``field``.
    """
    fn = _compile(node, nvars)

    def evaluate(u):
        try:
            value = float(fn(u))
            if math.isfinite(value):
                return value
            why = f"the value {value}"
        except (ArithmeticError, ValueError, TypeError) as exc:
            why = exc
        at = ", ".join("%.6g" % v for v in u)
        raise InstanceError(f"{field} cannot be evaluated at ({at}): {why}")

    return evaluate


def _field(desc, key):
    if key not in desc:
        raise InstanceError(f"missing field {key!r} in {desc!r:.80}")
    return desc[key]


def _target_cell(at, cx, dim):
    """The cell index ``at`` names; it must be an earlier cell of dimension dim."""
    cell = _typed(_field(at, "cell"), int, "attach target cell")
    if not 0 <= cell < len(cx) or cx.cells[cell].dim != dim:
        raise InstanceError(f"attach target {cell} is not an earlier {dim}-cell")
    return cell


def _attach_target(t, cx):
    if _typed(t, dict, "attach target").get("base") is not True:
        t = _keys(t, ("base", "cell"), "attach target")
        return ComplexPoint.in_cell(_target_cell(t, cx, 0), np.array([1.0]))
    _keys(t, ("base",), "base attach target")
    if cx.base is None:
        raise InstanceError("attach target is the base, but the complex has none")
    return ComplexPoint.base(0.0)


def complex_from_json(desc):
    """Build a chain-shaped complex from {"base": ..., "cells": [...]}."""
    base = _keys(desc, ("base", "cells"), "complex").get("base")
    if base not in ("point", None):
        raise InstanceError(f'complex base must be "point" or null, not {base!r:.80}')
    cx = CellComplex(base=base)
    for spec in _typed(desc.get("cells", []), list, "complex cells"):
        dim = _typed(_field(_typed(spec, dict, "cell"), "dim"), int, "cell dim")
        if dim == 0:
            _keys(spec, ("dim",), "0-cell")
            cx = cx.attach(0)
            continue
        at = _typed(_keys(spec, ("dim", "attach"), "cell").get("attach", {}), dict, "attach")
        kind = at.get("kind")
        if dim == 1 and kind == "endpoints":
            _keys(at, ("kind", "pos", "neg"), "endpoints attach")
            pos = _attach_target(_field(at, "pos"), cx)
            neg = _attach_target(_field(at, "neg"), cx)
            cx = cx.attach(1, (lambda pos, neg: lambda v: pos if v[0] > 0 else neg)(pos, neg))
        elif dim == 2 and kind == "wrap":
            edge = _target_cell(_keys(at, ("kind", "cell"), "wrap attach"), cx, 1)

            def wrap(u, edge=edge):
                s = abs(math.atan2(u[1], u[0])) / math.pi
                return ComplexPoint.in_cell(
                    edge, np.array([math.cos(math.pi * s), math.sin(math.pi * s)]))

            cx = cx.attach(2, wrap)
        else:
            raise InstanceError(f"unsupported attach spec {at!r:.80} for a {dim}-cell")
    if base is None and not cx.cells:
        raise InstanceError("a complex with no base and no cells has no points")
    return cx


# the fibration kinds each instance kind can lift against, with the keys
# each reads: chep calls an oracle's lift_k, extend_lift its lift_j.  The
# constructors are looked up by name at call time, so a patched module
# attribute takes effect.
_CHEP_FIBRATIONS = {
    "product": (("kind", "base", "fiber"),
                lambda d: product_fibration(d.get("base", "R"), d.get("fiber", "R"))),
    "point": (("kind",), lambda d: point_fibration()),
}
_EXTEND_ORACLES = {
    "trivial_product": (("kind", "fiber_dim"), lambda d: TrivialProductFibration(
        fiber_dim=_typed(d.get("fiber_dim", 1), int, "fiber_dim"))),
}


def _fibration(desc, kinds, what):
    """The fibration ``desc`` names; its kind must be a key of ``kinds``.

    A missing kind means the first key of ``kinds``.
    """
    kind = _typed(desc, dict, what).get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise InstanceError(f"{what} kind {kind!r:.80} is not one of: {', '.join(kinds)}")
    keys, build = kinds[kind]
    return build(_keys(desc, keys, f"{kind} {what}"))


def chain_position(cx):
    """The scalar position map x -> float of a chain-shaped complex.

    The base sits at 0; the j-th 0-cell at j+1; a 1-cell interpolates
    linearly (in its canonical slot) between the positions of its two
    boundary targets; a 2-cell inherits the position of the edge point
    it wraps onto.  This is the coordinate the bundled homotopy data is
    written in.  The complex is immutable, so the positions of its
    0-cells, of each 1-cell's two ends and of each 2-cell's pole are
    worked out once here; the map only applies a 2-cell's wrap and
    interpolates along a 1-cell.
    """
    table = []    # per cell: its position, its ends' positions, or its pole's

    def position(x):
        x = cx.canonicalize(x)
        if x.kind == "base":
            return 0.0
        cell, fixed = cx.cells[x.cell], table[x.cell]
        dim = cell.dim
        if dim == 0:
            return fixed
        if dim == 1:
            s = float(section(1, x.point)[0])
            pos_at, neg_at = fixed
            return (1.0 - s) * pos_at + s * neg_at
        if dim == 2:
            w = x.point
            nrm = float(np.linalg.norm(w[:2]))
            if nrm < 1e-12:
                # the wrap coordinate collapses at the pole of the 2-cell;
                # the 0-end of the wrapped edge represents it
                return fixed
            return position(cell.attach(np.asarray(w[:2]) / nrm))
        raise InstanceError(f"chain_position undefined for a {dim}-cell")

    zero_cells = 0
    for cell in cx.cells:
        if cell.dim == 0:
            zero_cells += 1
            table.append(float(zero_cells))
        elif cell.dim == 1:
            table.append((position(cell.attach(np.array([1.0]))),
                          position(cell.attach(np.array([-1.0])))))
        elif cell.dim == 2:
            table.append(position(cell.attach(np.array([1.0, 0.0]))))
        else:
            table.append(None)
    return position


class ChepInstance:
    """A fibration, a relative complex, and compatible homotopy data.

    ``k`` is a scalar expression in (position, lambda(t)); the data are
    assembled so the compatibility equations hold by construction:
    f = (k at time 0, fiber0(position)) and h covers k over the base with
    fiber component fiber_base(lambda(t)).  ``k_offset`` breaks the first
    compatibility equation on purpose (negative-control files).
    """

    def __init__(self, desc):
        _keys(desc, ("fibration", "complex", "k", "fiber0", "fiber_base", "k_offset"),
              "chep instance")
        self.fibration = _fibration(desc.get("fibration", {}), _CHEP_FIBRATIONS,
                                    "fibration")
        self.complex = complex_from_json(_field(desc, "complex"))
        self._position = chain_position(self.complex)
        self._k = compile_expr(_field(desc, "k"), 2, "k")
        self._f0 = compile_expr(_field(desc, "fiber0"), 1, "fiber0")
        self._fb = compile_expr(_field(desc, "fiber_base"), 1, "fiber_base")
        self._off = _number(desc.get("k_offset", 0.0), "k_offset")

    def position(self, x):
        return self._position(x)

    def k(self, x, t):
        return self._k([self.position(x), lambda_fn(t)]) + self._off

    def f(self, x):
        c = self.position(x)
        return (self._k([c, 0.0]), self._f0([c]))

    def h(self, a, t):
        lt = lambda_fn(t)
        return (self._k([0.0, lt]) + self._off, self._fb([lt]))


class ExtendInstance:
    """A boundary-lift oracle, a complex, and the map to lift."""

    def __init__(self, desc):
        _keys(desc, ("oracle", "complex", "bottom", "f_fiber"), "extend instance")
        self.oracle = _fibration(desc.get("oracle", {}), _EXTEND_ORACLES, "oracle")
        f_fiber = desc.get("f_fiber", [0.4])
        if not isinstance(f_fiber, list) or len(f_fiber) != self.oracle.fiber_dim:
            raise InstanceError(f"f_fiber must be a list of fiber_dim = "
                                f"{self.oracle.fiber_dim} numbers, not {f_fiber!r:.80}")
        self._f_fiber = np.array([_number(v, "f_fiber entry") for v in f_fiber])
        self.complex = complex_from_json(_field(desc, "complex"))
        self._position = chain_position(self.complex)
        self._bottom = compile_expr(_field(desc, "bottom"), 1, "bottom")

    def position(self, x):
        return self._position(x)

    def bottom(self, x):
        return self._bottom([self.position(x)])

    def f(self, a):
        return (self._bottom([0.0]), self._f_fiber.copy())


chep_instance_from_json = ChepInstance
extend_instance_from_json = ExtendInstance


# ---------------------------------------------------------------------------
# Bundled demos
# ---------------------------------------------------------------------------

def bundled_chep_instance(k_offset=0.0):
    """Interval complex over the product fibration, nonconstant data.

    The interval hangs off a base point, so the base-tracking equation is
    exercised.  ``k_offset`` produces the incompatible negative-control
    instance.
    """
    desc = {
        "fibration": {"kind": "product"},
        "complex": {"base": "point", "cells": [
            {"dim": 0},
            {"dim": 1, "attach": {"kind": "endpoints",
                                  "pos": {"base": True}, "neg": {"cell": 0}}},
        ]},
        "k": {"op": "add", "args": [
            {"op": "mul", "args": [0.4, {"op": "sin", "args": [
                {"op": "mul", "args": [2.2, {"op": "var", "index": 0}]}]}]},
            {"op": "mul", "args": [0.3, {"op": "var", "index": 1}, {"op": "cos", "args": [
                {"op": "mul", "args": [1.3, {"op": "var", "index": 0}]}]}]},
            {"op": "mul", "args": [0.1, {"op": "var", "index": 1},
                                   {"op": "var", "index": 1}]}]},
        "fiber0": {"op": "sub", "args": [
            {"op": "cos", "args": [{"op": "mul", "args": [1.7, {"op": "var", "index": 0}]}]},
            {"op": "mul", "args": [0.2, {"op": "var", "index": 0}]}]},
        "fiber_base": {"op": "add", "args": [
            {"op": "cos", "args": [0.0]},
            {"op": "mul", "args": [0.5, {"op": "var", "index": 0}]}]},
        "k_offset": k_offset,
    }
    return chep_instance_from_json(desc), desc


def bundled_extend_instance():
    """Base point, 0-cell, joining edge, and a 2-cell wrapped on the edge."""
    desc = {
        "oracle": {"kind": "trivial_product", "fiber_dim": 1},
        "complex": {"base": "point", "cells": [
            {"dim": 0},
            {"dim": 1, "attach": {"kind": "endpoints",
                                  "pos": {"base": True}, "neg": {"cell": 0}}},
            {"dim": 2, "attach": {"kind": "wrap", "cell": 1}},
        ]},
        "bottom": {"op": "add", "args": [
            {"op": "mul", "args": [0.7, {"op": "sin", "args": [
                {"op": "mul", "args": [2.0, {"op": "var", "index": 0}]}]}]},
            0.1]},
        "f_fiber": [0.4],
    }
    return extend_instance_from_json(desc), desc


def load_instance_file(path):
    with open(path) as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise InstanceError(f"instance file {path!r} does not hold a JSON object")
    if "fibration" in desc or "k" in desc:
        return "chep", chep_instance_from_json(desc)
    if "oracle" in desc or "bottom" in desc:
        return "extend", extend_instance_from_json(desc)
    raise InstanceError(f"could not recognize instance file {path!r}")
