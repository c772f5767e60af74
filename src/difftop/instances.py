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
expressed in, written once over coordinate columns as diskmodel's charts
are.  Every node is type-checked when the file is loaded, so a malformed
file raises InstanceError there and never a TypeError deep in the lifting.

What the file fixes is worked out once, at load.  Each expression is
walked once on smoothfn's TRACE_OPS, checking every node, and compiled by
``straight_line`` into one function of the list of its variables: a line
per node in the order the definition evaluates them (a fold of n arguments
is n - 1 infix steps); its constants are arguments with default values,
never folded at load.  The same code on ARRAY_OPS's names, a constant an
array of one entry, evaluates rows.  Each complex gets one position table,
the positions of its 0-cells and of the ends of its 1-cells and of the
edges its 2-cells wrap, and its point body is traced once per cell
dimension.  Evaluation computes only what depends on the point, in the
order the definitions state, so every value keeps its bits.
"""

import functools
import json
import math
import operator
import sys

import numpy as np

from .smoothfn import (ARRAY_OPS, FLOAT_OPS, TRACE_OPS, lambda_fn, lambda_fn_batch, rebind,
                       straight_line)
from .diskmodel import DomainError, Q, _disk_floats, _Q, _section, check_disk_batch, section
from .cellcomplex import BOUNDARY_TOL, CellComplex, ComplexPoint
from .lifting import (ChepRows, ExtendRows, TrivialProductFibration, point_fibration,
                      product_fibration)

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


# op -> its function on traced values
_UNARY = {"neg": operator.neg, "abs": abs, "lambda": TRACE_OPS.lambda_fn,
          **{op: getattr(TRACE_OPS, op) for op in ("sin", "cos", "exp", "xi", "gamma")}}

# op -> the infix operator its arguments fold left with
_FOLD = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "div": operator.truediv, "pow": operator.pow}


def _constants(node):
    """How many constants node holds; never fewer than _walk reads of it."""
    if not isinstance(node, dict) or node.get("op") == "const":
        return 1
    args = node.get("args")
    return sum(map(_constants, args)) if isinstance(args, list) else 0


def _walk(node, c, u, consts):
    """Check node and return its traced value, from the traced values c of
    its constants and u of its variables; append each constant's float to
    consts.  Ops run in the order the definition evaluates: an op's
    arguments left to right, each fold step as soon as its right argument
    is known.
    """
    op = node.get("op") if isinstance(node, dict) else None
    if op == "const" or not isinstance(node, dict):
        consts.append(_number(_keys(node, ("op", "value"), "const").get("value"), "const value")
                      if op else _number(node, "an expression that is not an object"))
        return c[len(consts) - 1]
    if op == "var":
        index = _typed(_keys(node, ("op", "index"), "var").get("index", 0), int, "var index")
        if not 0 <= index < len(u):
            raise InstanceError(f"var index {index} is not one of the {len(u)} "
                                "variables of this expression")
        return u[index]
    if not isinstance(op, str) or (op not in _UNARY and op not in _FOLD):
        raise InstanceError(f"unknown expression op {op!r:.80}")
    args = _keys(node, ("op", "args"), op).get("args", [])
    out = None
    for arg in _typed(args, list, f"args of {op}"):
        value = _walk(arg, c, u, consts)
        out = value if out is None or op in _UNARY else _FOLD[op](out, value)
    if op in _UNARY and len(args) != 1:
        raise InstanceError(f"{op} takes one argument")
    if op in _FOLD and len(args) < 2:
        raise InstanceError(f"{op} takes at least two arguments")
    return _UNARY[op](out) if op in _UNARY else out


def _float_evaluator(fn, field):
    """fn on a list of floats as a float; InstanceError names field."""
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


def compile_expr(node, nvars, field="expression"):
    """The evaluator of an expression AST over nvars variables.

    Ops, keys, arity and var indices are checked here, when the instance
    is loaded, so evaluation never meets a malformed node.  The evaluator
    takes a list of the variables' values.  An evaluation that raises
    (exp overflow, sin(inf), division by zero) or yields a non-real or
    non-finite value raises InstanceError naming ``field``.

    Its ``rows`` attribute evaluates the same AST on a list of 1-D arrays
    (or floats) of N rows, through numpy's sin, cos and exp and the
    ``*_batch`` profiles, so a value may differ from the float one in the
    last bit.  When some node overflows, divides by zero or leaves the
    reals on some row, or a value is not finite, every row is evaluated
    again by the float evaluator, so each gets that evaluator's value or
    error; the InstanceError then names the field and the first bad row.
    """
    consts = []

    def body(x, *c):  # x[0] is the list of the variables' values, c the constants
        return _walk(node, c, [TRACE_OPS.load(x[0][i]) for i in range(nvars)], consts)

    fn = straight_line(body, 1, [f"c{i}" for i in range(_constants(node))], name=field)
    fn_rows = rebind(fn, ARRAY_OPS)
    fn.__defaults__, fn_rows.__defaults__ = tuple(consts), tuple(np.full(1, c) for c in consts)
    # a constant or a variable returns an array the code holds or was given
    fresh = isinstance(node, dict) and node.get("op") not in ("const", "var")
    # the rows form falls back on a copy of the float evaluator, so evaluate
    # and evaluate.rows hold no reference cycle
    evaluate, fallback = _float_evaluator(fn, field), _float_evaluator(fn, field)

    def evaluate_rows(u):
        u = [np.atleast_1d(np.asarray(v, dtype=float)) for v in u]
        shape = np.broadcast_shapes(*(v.shape for v in u))
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                value = fn_rows(u)
            if np.isfinite(value).all():
                if fresh and value.shape == shape:
                    return value
                return np.broadcast_to(value, shape).copy()
        except FloatingPointError:
            pass
        out = np.empty(shape)
        for i, args in enumerate(zip(*(np.broadcast_to(v, shape).tolist() for v in u))):
            try:
                out[i] = fallback(args)
            except InstanceError as exc:
                raise InstanceError(f"row {i}: {exc}") from None
        return out

    evaluate.rows = evaluate_rows
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


def _wrap_slot(u0, u1, ops):
    """The slot |atan2(u1, u0)|/pi of the edge point the wrap sends (u0, u1) to."""
    return abs(ops.atan2(u1, u0)) / ops.pi


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
                return ComplexPoint.in_cell(edge, Q(1, [_wrap_slot(u[0], u[1], FLOAT_OPS)]))

            wrap.edge = edge
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


def _edge_position(dim, w, pos_at, neg_at, ops, slot):
    """The position at the checked columns w of a point of a 1-cell, or of a
    2-cell wrapped on one, whose ends sit at pos_at and neg_at; slot(e) is
    section's slot at the columns e of an edge point."""
    if dim == 2:
        pole = ops.hypot(w[0], w[1]) < 1e-12
        w = _Q([_wrap_slot(w[0], w[1], ops)], ops)
    s = slot(w)
    at = ops.where(abs(w[1]) <= BOUNDARY_TOL, ops.where(w[0] > 0, pos_at, neg_at),
                   (1.0 - s) * pos_at + s * neg_at)
    return at if dim == 1 else ops.where(pole, pos_at, at)


@functools.lru_cache(maxsize=None)
def _edge_form(dim):
    """_edge_position on a point's dim + 1 floats and its two ends, as one
    straight-line function; its slot is a call, passed at each call."""
    return straight_line(lambda x, slot: _edge_position(dim, x[:-2], *x[-2:], TRACE_OPS, slot),
                         dim + 3, ("slot",), name=f"chain_position {dim}")


def _section_slot(e):
    """The slot of section(1, e): the point map's slot of an edge point."""
    return float(section(1, e)[0])


def chain_position(cx):
    """The scalar position map x -> float of a chain-shaped complex.

    The base sits at 0; the j-th 0-cell at j+1; a 1-cell point interpolates
    linearly in its slot (section's) between the positions of the cell's
    two ends, and one on its wall, |w1| <= BOUNDARY_TOL, takes the end its
    sign names, as canonicalize does; a 2-cell point takes the position of
    the edge point its wrap sends it to, and its pole, |u| < 1e-12, the
    edge's +1 end.  The positions of the 0-cells and of the ends of each
    1-cell and of each wrapped edge are worked out once here; a cell that
    is not a 0-cell, a 1-cell or a 2-cell attached by ``complex_from_json``'s
    wrap raises InstanceError.  A point off its cell's disk, an index naming
    no cell or a base point with no base raises DomainError.

    ``rows(cell, w)`` is the position of every row of the (N, dim+1) array
    w of points of one cell, and ``rows(-1, payloads)`` that of N base
    points; its DomainError names the first bad row.  The point map and
    ``rows`` run one body, ``_edge_position``: on a point's floats, compiled
    once per cell dimension with the ends as arguments (``_edge_form``), or
    on columns of rows (ARRAY_OPS), so a 2-cell row may differ in the last
    bit.
    """
    table = []    # per cell: its position, or the positions of its edge's ends

    def base():
        if cx.base is None:
            raise DomainError("a base point, but the complex has no base")
        return 0.0

    def position(x):
        if x.kind == "base":
            return base()
        dim, ends = cx.cell(x.cell).dim, table[x.cell]
        w = _disk_floats(x.point, dim)
        return ends if dim == 0 else _edge_form(dim)(*w, *ends, _section_slot)

    def position_rows(cell, w):
        if cell == -1:
            return np.full(len(w), base())
        dim, ends = cx.cell(cell).dim, table[cell]
        cols = list(check_disk_batch(w, dim).T)
        if dim > 0:
            ends = _edge_position(dim, cols, *ends, ARRAY_OPS,
                                  lambda e: _section(1, e, ARRAY_OPS)[0])
        return np.full(len(w), ends)

    position.rows = position_rows
    for i, cell in enumerate(cx.cells):
        if cell.dim == 0:
            table.append(float(cx.zero_cells().index(i) + 1))
        elif cell.dim == 1:
            table.append(tuple(position(cell.attach(np.array([e]))) for e in (1.0, -1.0)))
        elif cell.dim == 2 and hasattr(cell.attach, "edge"):
            table.append(table[cell.attach.edge])
        else:
            raise InstanceError(f"chain_position is undefined on cell {i}, a {cell.dim}-cell "
                                "not attached by a wrap")
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

    def rows(self):
        """f, h and k on rows of one cell, the data of ``chep(..., rows=)``."""
        position, k, f0, fb = self._position.rows, self._k.rows, self._f0.rows, self._fb.rows

        def k_rows(cell, w, t):
            return k([position(cell, w), lambda_fn_batch(t)]) + self._off

        def f_rows(cell, w):
            c = position(cell, w)
            return np.column_stack([k([c, 0.0]), f0([c])])

        def h_rows(a, t):
            lt = lambda_fn_batch(t)
            return np.column_stack([k([0.0, lt]) + self._off, fb([lt])])

        return ChepRows(f=f_rows, h=h_rows, k=k_rows)


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

    def rows(self):
        """f and bottom on rows of one cell, the data of ``extend_lift(..., rows=)``."""
        position, bottom = self._position.rows, self._bottom.rows

        def f_rows(a):
            return np.tile(np.concatenate([[self._bottom([0.0])], self._f_fiber]),
                           (len(a), 1))

        return ExtendRows(f=f_rows, bottom=lambda cell, w: bottom([position(cell, w)]))


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
