"""File-specified instances: spaces, complexes, fibrations, demo data.

Instance files are JSON.  Scalar formulas use a tiny expression AST --
constants, variables, arithmetic, trig, and the package's smoothing
profiles -- so attaching maps and homotopy data are fully specified by
the file, with composition expressed by nesting:

    {"op": "lambda", "args": [{"op": "mul", "args":
        [{"op": "const", "value": 3}, {"op": "var", "index": 0}]}]}

Complexes built from files are "chain-shaped": a point base, 0-cells,
1-cells joining earlier targets, and optional 2-cells wrapping a 1-cell.
``chain_position`` gives every point of such a complex a scalar position
coordinate, which is what the bundled homotopy data is expressed in.
"""

import json
import math

import numpy as np

from .smoothfn import gamma, lambda_fn, xi
from .diskmodel import random_disk, section
from .diffeology import (euclidean, product, coproduct, subspace, quotient,
                         irrational_torus)
from .cellcomplex import CellComplex, ComplexPoint
from .lifting import product_fibration, point_fibration, TrivialProductFibration

__all__ = [
    "compile_expr", "space_from_json", "complex_from_json",
    "fibration_from_json", "chain_position",
    "chep_instance_from_json", "extend_instance_from_json",
    "bundled_chep_instance", "bundled_extend_instance", "InstanceError",
]


class InstanceError(ValueError):
    """Malformed or inconsistent instance description."""


_UNARY = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "neg": lambda v: -v,
    "abs": abs, "lambda": lambda_fn, "xi": xi, "gamma": gamma,
}

_BINARY_FOLD = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": lambda a, b: a ** b,
}


def _compile(node, nvars):
    if isinstance(node, (int, float)):
        value = float(node)
        return lambda u: value
    if not isinstance(node, dict):
        raise InstanceError(f"expression {node!r:.80} is neither a number nor an object")
    op = node.get("op")
    if op in ("const", "var"):
        try:
            value = float(node.get("value")) if op == "const" else int(node.get("index", 0))
        except (TypeError, ValueError):
            raise InstanceError(f"bad {op} expression {node!r:.80}") from None
        if op == "const":
            return lambda u: value
        if not 0 <= value < nvars:
            raise InstanceError(f"var index {value} is not one of the {nvars} "
                                "variables of this expression")
        return lambda u: float(u[value])
    if op not in _UNARY and op not in _BINARY_FOLD:
        raise InstanceError(f"unknown expression op {op!r}")
    args = node.get("args", [])
    if not isinstance(args, list):
        raise InstanceError(f"args of {op!r} must be a list")
    parts = [_compile(a, nvars) for a in args]
    if op in _UNARY:
        if len(parts) != 1:
            raise InstanceError(f"{op} takes one argument")
        fn, (arg,) = _UNARY[op], parts
        return lambda u: fn(arg(u))
    if len(parts) < 2:
        raise InstanceError(f"{op} takes at least two arguments")
    fold, first, rest = _BINARY_FOLD[op], parts[0], parts[1:]

    def folded(u):
        out = first(u)
        for part in rest:
            out = fold(out, part(u))
        return out

    return folded


def compile_expr(node, nvars):
    """The evaluator of an expression AST over nvars variables.

    Ops, arity and var indices are checked here, when the instance is
    loaded, so evaluation never meets a malformed node.
    """
    fn = _compile(node, nvars)
    return lambda u: fn(np.atleast_1d(u))


def _flat_len(desc):
    """How many coordinates every flattened point of the described space has.

    A coproduct counts its shorter part, so a var index valid here is
    valid on both parts.
    """
    kind = desc.get("kind")
    if kind == "euclidean":
        return int(desc.get("dim", 1))
    if kind == "product":
        return sum(_flat_len(d) for d in desc["factors"])
    if kind == "coproduct":
        return 1 + min(_flat_len(d) for d in desc["parts"])
    if kind == "subspace":
        return _flat_len(desc["ambient"])
    return 1  # quotients and the torus flatten to their one representative


def space_from_json(desc):
    """Build a DiffSpace from its JSON description."""
    kind = desc.get("kind")
    if kind == "euclidean":
        return euclidean(int(desc.get("dim", 1)), window=float(desc.get("window", 5.0)))
    if kind == "product":
        x, y = (space_from_json(d) for d in desc["factors"])
        return product(x, y)
    if kind == "coproduct":
        x, y = (space_from_json(d) for d in desc["parts"])
        return coproduct(x, y)
    if kind == "subspace":
        amb = space_from_json(desc["ambient"])
        lo = np.asarray(desc["lower"], dtype=float)
        hi = np.asarray(desc["upper"], dtype=float)

        def member(p, lo=lo, hi=hi, amb=amb):
            v = amb.flatten(p)
            return bool(np.all(v >= lo) and np.all(v <= hi))

        return subspace(amb, member, name=desc.get("name"))
    if kind == "quotient":
        amb = space_from_json(desc["ambient"])
        canon = desc.get("canonicalize", "lambda")
        if canon == "lambda":
            return quotient(amb, lambda x: lambda_fn(float(np.atleast_1d(x)[0])),
                            name=desc.get("name", "I~"))
        expr = compile_expr(canon, _flat_len(desc["ambient"]))
        return quotient(amb, lambda x: expr(amb.flatten(x)), name=desc.get("name"))
    if kind == "torus_theta":
        return irrational_torus(float(desc["theta"]),
                                coeff_bound=int(desc.get("coeff_bound", 50)))
    raise InstanceError(f"unknown space kind {kind!r}")


def _field(desc, key):
    if key not in desc:
        raise InstanceError(f"missing field {key!r} in {desc!r:.80}")
    return desc[key]


def _target_cell(at, cx, dim):
    """The cell index ``at`` names; it must be an earlier cell of dimension dim."""
    cell = int(_field(at, "cell"))
    if not 0 <= cell < len(cx) or cx.cells[cell].dim != dim:
        raise InstanceError(f"attach target {cell} is not an earlier {dim}-cell")
    return cell


def _attach_target(t, cx):
    if t.get("base"):
        return ComplexPoint.base(0.0)
    return ComplexPoint.in_cell(_target_cell(t, cx, 0), np.array([1.0]))


def complex_from_json(desc):
    """Build a chain-shaped complex from {"base": ..., "cells": [...]}."""
    base = desc.get("base")
    cx = CellComplex(base=base)
    for spec in desc.get("cells", []):
        dim = int(_field(spec, "dim"))
        if dim == 0:
            cx = cx.attach(0)
            continue
        at = spec.get("attach", {})
        kind = at.get("kind")
        if dim == 1 and kind == "endpoints":
            pos = _attach_target(_field(at, "pos"), cx)
            neg = _attach_target(_field(at, "neg"), cx)
            cx = cx.attach(1, (lambda pos, neg: lambda v: pos if v[0] > 0 else neg)(pos, neg))
        elif dim == 2 and kind == "wrap":
            edge = _target_cell(at, cx, 1)

            def wrap(u, edge=edge):
                s = abs(math.atan2(u[1], u[0])) / math.pi
                return ComplexPoint.in_cell(
                    edge, np.array([math.cos(math.pi * s), math.sin(math.pi * s)]))

            cx = cx.attach(2, wrap)
        elif kind == "expr":
            # the boundary sphere of a dim-cell sits in R^dim
            coords = [compile_expr(c, dim) for c in _field(at, "coords")]
            cell = _target_cell(at, cx, len(coords) - 1)

            def gen_attach(u, cell=cell, coords=coords):
                w = np.array([c(u) for c in coords])
                return ComplexPoint.in_cell(cell, w / np.linalg.norm(w))

            cx = cx.attach(dim, gen_attach)
        else:
            raise InstanceError(f"unsupported attach spec {at!r} for a {dim}-cell")
    if base is None and not cx.cells:
        raise InstanceError("a complex with no base and no cells has no points")
    return cx


def fibration_from_json(desc):
    kind = desc.get("kind", "product")
    if kind == "product":
        return product_fibration(desc.get("base", "R"), desc.get("fiber", "R"))
    if kind == "point":
        return point_fibration()
    if kind == "trivial_product":
        return TrivialProductFibration(fiber_dim=int(desc.get("fiber_dim", 1)))
    raise InstanceError(f"unknown fibration kind {kind!r}")


def chain_position(cx, x):
    """Scalar position of a point in a chain-shaped complex.

    The base sits at 0; the j-th 0-cell at j+1; a 1-cell interpolates
    linearly (in its canonical slot) between the positions of its two
    boundary targets; a 2-cell inherits the position of the edge point
    it wraps onto.  This is the coordinate the bundled homotopy data is
    written in.
    """
    x = cx.canonicalize(x)
    if x.kind == "base":
        return 0.0
    cell = cx.cells[x.cell]
    if cell.dim == 0:
        return float(cx.zero_cells().index(x.cell) + 1)
    if cell.dim == 1:
        s = float(section(1, x.point)[0])
        pos_at = chain_position(cx, cell.attach(np.array([1.0])))
        neg_at = chain_position(cx, cell.attach(np.array([-1.0])))
        return (1.0 - s) * pos_at + s * neg_at
    if cell.dim == 2:
        w = x.point
        nrm = float(np.linalg.norm(w[:2]))
        if nrm < 1e-12:
            # the wrap coordinate collapses at the pole of the 2-cell;
            # pick the 0-end of the wrapped edge as its representative
            return chain_position(cx, cell.attach(np.array([1.0, 0.0])))
        return chain_position(cx, cell.attach(np.asarray(w[:2]) / nrm))
    raise InstanceError(f"chain_position undefined for a {cell.dim}-cell")


class ChepInstance:
    """A fibration, a relative complex, and compatible homotopy data.

    ``k_expr`` is a scalar expression in (position, lambda(t)); the data
    are assembled so the compatibility equations hold by construction:
    f = (k at time 0, fiber0(position)) and h covers k over the base
    with fiber component fiber_base(lambda(t)).  ``k_offset`` breaks the
    first compatibility equation on purpose (negative-control files).
    """

    def __init__(self, fibration, cx, k_expr, fiber0_expr, fiber_base_expr,
                 k_offset=0.0):
        self.fibration = fibration
        self.complex = cx
        self._k = compile_expr(k_expr, 2)
        self._f0 = compile_expr(fiber0_expr, 1)
        self._fb = compile_expr(fiber_base_expr, 1)
        self._off = float(k_offset)

    def position(self, x):
        return chain_position(self.complex, x)

    def k(self, x, t):
        return self._k([self.position(x), lambda_fn(t)]) + self._off

    def f(self, x):
        c = self.position(x)
        return (self._k([c, 0.0]), self._f0([c]))

    def h(self, a, t):
        lt = lambda_fn(t)
        return (self._k([0.0, lt]) + self._off, self._fb([lt]))

    def sample_point(self, rng):
        cx = self.complex
        choices = []
        if cx.base is not None:
            choices.append(ComplexPoint.base(0.0))
        for i, cell in enumerate(cx.cells):
            if cell.dim == 0:
                choices.append(ComplexPoint.in_cell(i, np.array([1.0])))
        pick = rng.uniform()
        edges = [i for i, c in enumerate(cx.cells) if c.dim == 1]
        if edges and pick < 0.7:
            i = edges[int(rng.integers(len(edges)))]
            s = float(rng.uniform())
            return ComplexPoint.in_cell(
                i, np.array([math.cos(math.pi * s), math.sin(math.pi * s)]))
        if choices:
            return choices[int(rng.integers(len(choices)))]
        raise InstanceError("complex has no points to sample")


def chep_instance_from_json(desc):
    return ChepInstance(
        fibration=fibration_from_json(desc.get("fibration", {"kind": "product"})),
        cx=complex_from_json(_field(desc, "complex")),
        k_expr=_field(desc, "k"),
        fiber0_expr=_field(desc, "fiber0"),
        fiber_base_expr=_field(desc, "fiber_base"),
        k_offset=float(desc.get("k_offset", 0.0)),
    )


class ExtendInstance:
    """A boundary-lift oracle, a complex, and the map to lift."""

    def __init__(self, oracle, cx, bottom_expr, f_fiber):
        self.oracle = oracle
        self.complex = cx
        self._bottom = compile_expr(bottom_expr, 1)
        self._f_fiber = np.asarray(f_fiber, dtype=float)

    def position(self, x):
        return chain_position(self.complex, x)

    def bottom(self, x):
        return self._bottom([self.position(x)])

    def f(self, a):
        return (self._bottom([0.0]), self._f_fiber.copy())

    def sample_point(self, rng):
        """One random disk point per cell plus the base point; pick one."""
        cx = self.complex
        candidates = [ComplexPoint.base(0.0)] if cx.base is not None else []
        candidates += [ComplexPoint.in_cell(i, random_disk(cell.dim, rng))
                       for i, cell in enumerate(cx.cells)]
        return candidates[int(rng.integers(len(candidates)))]


def extend_instance_from_json(desc):
    return ExtendInstance(
        oracle=fibration_from_json(desc.get("oracle", {"kind": "trivial_product"})),
        cx=complex_from_json(_field(desc, "complex")),
        bottom_expr=_field(desc, "bottom"),
        f_fiber=desc.get("f_fiber", [0.4]),
    )


# ---------------------------------------------------------------------------
# Bundled demos
# ---------------------------------------------------------------------------

def bundled_chep_instance(k_offset=0.0, relative=True):
    """Interval complex over the product fibration, nonconstant data.

    With ``relative`` the interval hangs off a base point (so the
    base-tracking equation is exercised); without it the complex is two
    0-cells joined by an edge.  ``k_offset`` produces the incompatible
    negative-control instance.
    """
    cells = ([{"dim": 0},
              {"dim": 1, "attach": {"kind": "endpoints",
                                    "pos": {"base": True}, "neg": {"cell": 0}}}]
             if relative else
             [{"dim": 0}, {"dim": 0},
              {"dim": 1, "attach": {"kind": "endpoints",
                                    "pos": {"cell": 0}, "neg": {"cell": 1}}}])
    desc = {
        "fibration": {"kind": "product"},
        "complex": {"base": "point" if relative else None, "cells": cells},
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
