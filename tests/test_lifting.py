import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st, target

from difftop import lifting
from difftop.cellcomplex import BOUNDARY_TOL, CellComplex, ComplexPoint
from difftop.diskmodel import (
    DomainError, Q, _coords, _rows, include_j, include_k, random_disk, random_disk_batch,
    random_sphere, retract_batch, section,
)
from difftop.homotopy import path_components
from difftop.instances import (
    InstanceError, bundled_chep_instance, bundled_extend_instance, chain_position,
    chep_instance_from_json, compile_expr, complex_from_json, extend_instance_from_json,
)
from difftop.lifting import (
    Fibration, LiftError, TrivialProductFibration, _wall_point, chep, extend_lift, hep,
    point_fibration, product_fibration, rows_at_points,
)
from difftop.smoothfn import ARRAY_OPS, FLOAT_OPS, gamma, lambda_fn, xi
from difftop.subdivision import L_TOL, CylPoint, psi_batch, psi_inv, psi_inv_batch
from difftop.verify import TOL_LIFT

RNG = np.random.default_rng(2024)


def _edge(a, b):
    return lambda v: ComplexPoint.in_cell(a if v[0] > 0 else b, np.array([1.0]))


def test_attach_zero_cell_to_empty():
    cx = CellComplex().attach(0)
    assert len(cx) == 1
    assert path_components(cx) == [[0]]


def test_attach_loop_is_connected():
    cx = CellComplex().attach(0).attach(1, _edge(0, 0))
    assert path_components(cx) == [[0]]


def test_attach_requires_map_for_positive_dim():
    with pytest.raises(DomainError):
        CellComplex().attach(1)


def test_canonicalize_pushes_down_and_is_idempotent():
    cx = CellComplex().attach(0).attach(0).attach(1, _edge(0, 1))
    boundary = ComplexPoint.in_cell(2, np.array([1.0, 0.0]))
    c1 = cx.canonicalize(boundary)
    assert c1.kind == "cell" and c1.cell == 0
    c2 = cx.canonicalize(c1)
    assert c2 == c1
    interior = ComplexPoint.in_cell(2, np.array([0.0, 1.0]))
    assert cx.canonicalize(interior).cell == 2


def test_canonicalize_rejects_non_descending():
    cx = CellComplex().attach(0)
    cx = cx.attach(1, lambda v: ComplexPoint.in_cell(1, np.array([1.0, 0.0])))
    with pytest.raises(DomainError, match="descend"):
        cx.canonicalize(ComplexPoint.in_cell(1, np.array([1.0, 0.0])))


def test_complex_eq_uses_canonical_form():
    cx = CellComplex().attach(0).attach(0).attach(1, _edge(0, 1))
    a = ComplexPoint.in_cell(2, np.array([1.0, BOUNDARY_TOL / 2]))
    b = ComplexPoint.in_cell(0, np.array([1.0]))
    assert cx.eq(a, b)


def test_complex_eq_of_base_points_is_an_absolute_slack():
    cx = CellComplex(base="pt")
    assert cx.eq(ComplexPoint.base(1000.0), ComplexPoint.base(1000.0))
    assert not cx.eq(ComplexPoint.base(1000.0), ComplexPoint.base(1000.005))


def test_product_fibration_lift_equations():
    p = product_fibration("B", "F")
    for n in range(0, 3):
        def bottom(w):
            return float(np.sum(section(n + 1, w)))

        def top(wd):
            return (bottom(include_k(n, wd)), float(np.sum(section(n, wd) ** 2)))

        H = p.lift_k(n, top, bottom)
        for _ in range(20):
            wd = random_disk(n, RNG)
            got, want = H(include_k(n, wd)), top(wd)
            assert abs(got[0] - want[0]) < 1e-8
            assert abs(got[1] - want[1]) < 1e-8
            w = random_disk(n + 1, RNG)
            assert p.project(H(w)) == bottom(w)


def test_product_fibration_constant_fiber():
    p = product_fibration("B", "F")
    H = p.lift_k(1, lambda wd: (0.0, 7.0), lambda w: 0.0)
    for _ in range(10):
        assert H(random_disk(2, RNG))[1] == 7.0


def test_point_fibration_lifts_by_retraction():
    p = point_fibration()
    H = p.lift_k(1, lambda wd: float(section(1, wd)[0]), lambda w: 0.0)
    wd = random_disk(1, RNG)
    assert H(include_k(1, wd)) == pytest.approx(float(section(1, wd)[0]), abs=1e-10)


def test_chep_empty_complex_returns_h():
    inst, _ = bundled_chep_instance()
    cx0 = CellComplex(base="point")
    H = chep(inst.fibration, cx0, inst.f, inst.h, inst.k)
    for t in np.linspace(0, 1, 7):
        assert H(ComplexPoint.base(0.0), t) == inst.h(0.0, t)


def test_chep_three_equations_on_bundled_instance():
    inst, _ = bundled_chep_instance()
    rng = np.random.default_rng(6)
    pre = [(inst.complex.sample_point(rng), float(rng.uniform())) for _ in range(30)]
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, precheck=pre)
    dev = 0.0
    for _ in range(400):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        Hx0, fx = H(x, 0.0), inst.f(x)
        dev = max(dev, abs(Hx0[0] - fx[0]), abs(Hx0[1] - fx[1]))
        dev = max(dev, abs(H(x, t)[0] - inst.k(x, t)))
        Ha, ha = H(ComplexPoint.base(0.0), t), inst.h(0.0, t)
        dev = max(dev, abs(Ha[0] - ha[0]), abs(Ha[1] - ha[1]))
    assert dev < 1e-6


def test_chep_rejects_incompatible_data():
    inst, _ = bundled_chep_instance(k_offset=0.4)
    rng = np.random.default_rng(7)
    pre = [(inst.complex.sample_point(rng), 0.5) for _ in range(10)]
    with pytest.raises(LiftError, match="precondition"):
        chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, precheck=pre)


def test_chep_absolute_complex_two_vertices():
    _, desc = bundled_chep_instance()
    # no base: two 0-cells joined by an edge
    desc["complex"] = {"base": None, "cells": [
        {"dim": 0}, {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints", "pos": {"cell": 0}, "neg": {"cell": 1}}},
    ]}
    inst = chep_instance_from_json(desc)
    rng = np.random.default_rng(8)
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
    dev = 0.0
    for _ in range(200):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        Hx0, fx = H(x, 0.0), inst.f(x)
        dev = max(dev, abs(Hx0[0] - fx[0]), abs(Hx0[1] - fx[1]))
        dev = max(dev, abs(H(x, t)[0] - inst.k(x, t)))
    assert dev < 1e-6


def test_hep_extends_and_tracks_base():
    inst, _ = bundled_chep_instance()
    rng = np.random.default_rng(9)
    H = hep(inst.complex, inst.f, inst.h)
    dev = 0.0
    for _ in range(200):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        Hx0, fx = H(x, 0.0), inst.f(x)
        dev = max(dev, abs(Hx0[0] - fx[0]), abs(Hx0[1] - fx[1]))
        Ha, ha = H(ComplexPoint.base(0.0), t), inst.h(0.0, t)
        dev = max(dev, abs(Ha[0] - ha[0]), abs(Ha[1] - ha[1]))
    assert dev < 1e-6


def _recursive_blend(g, t):
    """The Coons-style recursive blend of boundary-cube data g at t.

    The reference the two-point blend of TrivialProductFibration.lift_j
    is measured against: the recursion adds residuals that vanish up to
    rounding, so both agree within 1e-14.
    """
    n = len(t)
    if n == 0:
        return g(np.zeros(0))
    w = lambda_fn(float(t[-1]))
    head = np.asarray(t[:-1], dtype=float)
    lo = g(np.concatenate([head, [0.0]]))
    hi = g(np.concatenate([head, [1.0]]))
    base = (1.0 - w) * lo + w * hi
    if n == 1:
        return base

    def resid(s):
        s = np.asarray(s, dtype=float)
        return (g(np.concatenate([s, [float(t[-1])]]))
                - (1.0 - w) * g(np.concatenate([s, [0.0]]))
                - w * g(np.concatenate([s, [1.0]])))

    return base + _recursive_blend(resid, head)


def _reference_fiber(n, top, w):
    """The lift's fiber at w by the recursive blend of top over the cube's boundary."""
    def boundary_fiber(tb):
        v = Q(n, tb)[:-1]
        return np.atleast_1d(np.asarray(top(v / np.linalg.norm(v))[1], dtype=float))

    return _recursive_blend(boundary_fiber, section(n, w))


def _generic_top(v):
    """A map on the boundary sphere with a two-component fiber and no symmetry."""
    v = np.asarray(v, dtype=float)
    c = np.arange(1.0, len(v) + 1.0)
    return (float(v @ c), np.array([math.sin(1.3 * v[0] + 0.4) + 0.7 * v[-1] ** 3,
                                    math.exp(0.5 * float(v @ c)) - v[-1]]))


def _boundary_points(n, rng):
    """Sampled sphere points in R^n, +-e_0, and points with last coordinate 0 and below 0."""
    e0 = np.eye(n)[0]
    pts = [random_sphere(n, rng) for _ in range(50)] + [e0, -e0]
    if n >= 2:
        flat = random_sphere(n - 1, rng)
        pts += [np.append(flat, 0.0), np.append(-flat, -0.0)]
        below = random_sphere(n, rng)
        below[-1] = -abs(below[-1])
        pts.append(below)
    return pts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_product_lift_restricts_to_top_on_the_boundary(n):
    rng = np.random.default_rng(100 + n)
    lifted = TrivialProductFibration(fiber_dim=2).lift_j(n, _generic_top, lambda w: 0.0)
    for v in _boundary_points(n, rng):
        got = lifted(include_j(n, v))[1]
        assert got.shape == (2,)
        assert np.max(np.abs(got - _generic_top(v)[1])) <= 1e-14, v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_product_lift_matches_the_recursive_blend(n):
    rng = np.random.default_rng(200 + n)
    lifted = TrivialProductFibration(fiber_dim=2).lift_j(n, _generic_top, lambda w: 0.0)
    for _ in range(200):
        w = random_disk(n, rng)
        got, want = lifted(w)[1], _reference_fiber(n, _generic_top, w)
        assert np.max(np.abs(got - want)) <= 1e-14, w


def test_extend_lift_demo_equations():
    inst, _ = bundled_extend_instance()
    lift = extend_lift(inst.oracle, inst.complex, inst.f, inst.bottom,
                       precheck=[ComplexPoint.base(0.0)])
    rng = np.random.default_rng(10)
    assert lift(ComplexPoint.base(0.0)) == inst.f(0.0)
    dev = 0.0
    for _ in range(300):
        i = int(rng.integers(len(inst.complex)))
        w = random_disk(inst.complex.cells[i].dim, rng)
        x = ComplexPoint.in_cell(i, w)
        dev = max(dev, abs(inst.oracle.project(lift(x)) - inst.bottom(x)))
    assert dev < 1e-6


def test_extend_lift_boundary_seam():
    inst, _ = bundled_extend_instance()
    lift = extend_lift(inst.oracle, inst.complex, inst.f, inst.bottom)
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = random_sphere(2, rng)
        edge_val = lift(ComplexPoint.in_cell(2, np.array([u[0], u[1], 0.0])))
        inner = np.array([u[0], u[1], 1e-7])
        inner /= np.linalg.norm(inner)
        cell_val = lift(ComplexPoint.in_cell(2, inner))
        assert abs(edge_val[1][0] - cell_val[1][0]) < 1e-5
        assert abs(edge_val[0] - cell_val[0]) < 1e-5


def test_extend_lift_rejects_bad_base_data():
    inst, _ = bundled_extend_instance()

    def broken_f(a):
        return (inst.bottom(ComplexPoint.base(a)) + 1.0, np.array([0.0]))

    with pytest.raises(LiftError, match="precondition"):
        extend_lift(inst.oracle, inst.complex, broken_f, inst.bottom,
                    precheck=[ComplexPoint.base(0.0)])


def test_expression_language():
    expr = {"op": "add", "args": [
        {"op": "lambda", "args": [{"op": "var", "index": 0}]},
        {"op": "const", "value": 1.0}]}
    assert compile_expr(expr, 1)([0.5]) == pytest.approx(1.5)
    assert compile_expr({"op": "mul", "args": [2.0, 3.0, 4.0]}, 0)([]) == 24.0
    with pytest.raises(ValueError):
        compile_expr({"op": "zap"}, 0)
    with pytest.raises(InstanceError, match=r"^big cannot be evaluated at \(\): the value inf"):
        compile_expr({"op": "mul", "args": [1e308, 10.0]}, 0, "big")([])


@pytest.mark.parametrize("node, message", [
    ({"op": "add", "args": [1.0]}, "add takes at least two arguments"),
    ({"op": "add", "args": 5}, "args of add must be a JSON list, not 5"),
    ({"op": "const", "value": 1.0, "x": 2}, "unknown key 'x' in const; accepted: op, value"),
    ({"op": "const", "value": math.inf}, "const value must be a finite number, not inf"),
    (True, "an expression that is not an object must be a finite number, not True"),
    ({"op": "var", "index": True}, "var index must be an integer, not True"),
    ({"op": 3, "args": [1.0]}, "unknown expression op 3"),
    ({"op": "zap", "args": [1.0]}, "unknown expression op 'zap'"),
    ({"op": "sin"}, "sin takes one argument"),
    ({"op": "sin", "args": [{"op": "zap"}, 1.0]}, "unknown expression op 'zap'"),
    ({"op": "add", "args": [{"op": "zap"}, {"op": "var", "index": 9}]},
     "unknown expression op 'zap'"),
    ({"op": "add", "args": [{"op": "var", "index": 9}, {"op": "zap"}]},
     "var index 9 is not one of the 2 variables of this expression"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_malformed_expressions_fail_at_load_with_their_first_fault(node, message):
    """Every node is checked when the expression is loaded, in the order the
    definition evaluates; the first fault met is the one named."""
    with pytest.raises(InstanceError, match=rf"^{re.escape(message)}$"):
        compile_expr(node, 2, "probe")


@pytest.mark.parametrize("node", [
    {"op": "exp", "args": [1000.0]},
    {"op": "div", "args": [1.0, 0.0]},
    {"op": "pow", "args": [-8.0, 1 / 3]},
], ids=["exp overflow", "division by zero", "complex power"])
def test_constant_only_expressions_fail_only_when_evaluated(node):
    """An expression of constants alone loads, and both forms raise on
    evaluation, naming the field (the array form also the first row)."""
    evaluate = compile_expr(node, 1, "probe")
    with pytest.raises(InstanceError, match=r"^probe cannot be evaluated at \(0\.5\): "):
        evaluate([0.5])
    with pytest.raises(InstanceError, match=r"^row 0: probe cannot be evaluated at \(0\): "):
        evaluate.rows([np.zeros(2)])


_REF_UNARY = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "neg": lambda v: -v,
              "abs": abs, "lambda": lambda_fn, "xi": xi, "gamma": gamma}
_REF_FOLD = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
             "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
             "pow": lambda a, b: a ** b}


def _evaluate_by_recursion(node, u):
    """The value of an expression AST, worked out node by node."""
    if not isinstance(node, dict):
        return float(node)
    if node["op"] == "const":
        return float(node["value"])
    if node["op"] == "var":
        return float(u[node.get("index", 0)])
    values = [_evaluate_by_recursion(a, u) for a in node["args"]]
    if node["op"] in _REF_UNARY:
        return _REF_UNARY[node["op"]](values[0])
    out = values[0]
    for v in values[1:]:
        out = _REF_FOLD[node["op"]](out, v)
    return out


def _expressions(nvars):
    numbers = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3),
                        st.sampled_from([-0.0, 1e-300, 700.0, 1e300]))
    leaves = st.one_of(
        numbers,
        st.builds(lambda v: {"op": "const", "value": v}, numbers),
        st.builds(lambda i: {"op": "var", "index": i}, st.integers(0, nvars - 1)),
        st.just({"op": "var"}))
    return st.recursive(leaves, lambda args: st.one_of(
        st.builds(lambda op, a: {"op": op, "args": [a]}, st.sampled_from(sorted(_REF_UNARY)), args),
        st.builds(lambda op, a: {"op": op, "args": a}, st.sampled_from(sorted(_REF_FOLD)),
                  st.lists(args, min_size=2, max_size=4))), max_leaves=12)


_EXPRESSIONS = {nvars: _expressions(nvars) for nvars in (1, 2, 3)}


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_compiled_expression_matches_a_recursive_evaluator(data):
    """Same bits as the node-by-node value; a raise or a non-finite value names the field."""
    nvars = data.draw(st.integers(1, 3))
    node = data.draw(_EXPRESSIONS[nvars])
    u = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=nvars, max_size=nvars))
    evaluate = compile_expr(node, nvars, "probe")
    try:
        ref = float(_evaluate_by_recursion(node, u))
        finite = math.isfinite(ref)
    except (ArithmeticError, ValueError, TypeError):
        finite = False
    for args in (u, np.array(u)):
        if finite:
            assert evaluate(args).hex() == ref.hex()
        else:
            with pytest.raises(InstanceError, match=r"^probe cannot be evaluated at \("):
                evaluate(args)


def _position_by_recursion(cx, x):
    """chain_position's definition, re-derived from the complex at every call."""
    x = cx.canonicalize(x)
    if x.kind == "base":
        return 0.0
    cell = cx.cells[x.cell]
    if cell.dim == 0:
        return float(cx.zero_cells().index(x.cell) + 1)
    if cell.dim == 1:
        s = float(section(1, x.point)[0])
        return ((1.0 - s) * _position_by_recursion(cx, cell.attach(np.array([1.0])))
                + s * _position_by_recursion(cx, cell.attach(np.array([-1.0]))))
    if float(np.linalg.norm(x.point[:2])) < 1e-12:
        return _position_by_recursion(cx, cell.attach(np.array([1.0, 0.0])))
    # the wrap's slot formula is scale-free, so the disk point's first two
    # coordinates go to it as they are
    return _position_by_recursion(cx, cell.attach(x.point[:2]))


@pytest.mark.parametrize("segments", [2, 3, 4])
def test_chain_position_matches_its_recursive_definition(segments):
    cells, prev = [], {"base": True}
    for _ in range(segments):
        cells.append({"dim": 0})
        zero = {"cell": len(cells) - 1}
        cells.append({"dim": 1, "attach": {"kind": "endpoints", "pos": prev, "neg": zero}})
        cells.append({"dim": 2, "attach": {"kind": "wrap", "cell": len(cells) - 1}})
        prev = zero
    # an edge with both ends on the base, and a 2-cell wrapped on it
    cells.append({"dim": 1, "attach": {"kind": "endpoints",
                                       "pos": {"base": True}, "neg": {"base": True}}})
    cells.append({"dim": 2, "attach": {"kind": "wrap", "cell": len(cells) - 1}})
    cx = complex_from_json({"base": "point", "cells": cells})
    rng = np.random.default_rng(segments)
    points = [cx.sample_point(rng) for _ in range(300)]
    for i, cell in enumerate(cx.cells):
        if cell.dim == 1:
            ws = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
        elif cell.dim == 2:
            # the wrap pole, a point within 1e-12 of it, and boundary points
            ws = [[0.0, 0.0, 1.0], [3e-13, -4e-13, 1.0], [1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0], [0.6, -0.8, 0.0]]
        else:
            ws = [[1.0]]
        points += [ComplexPoint.in_cell(i, np.array(w)) for w in ws]
    position = chain_position(cx)
    for x in points:
        assert position(x).hex() == _position_by_recursion(cx, x).hex()


def test_complex_from_json_chain():
    cx = complex_from_json({"base": "point", "cells": [
        {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints",
                              "pos": {"base": True}, "neg": {"cell": 0}}}]})
    assert len(cx) == 2
    position = chain_position(cx)
    assert position(ComplexPoint.base(0.0)) == 0.0
    assert position(ComplexPoint.in_cell(0, np.array([1.0]))) == 1.0
    mid = ComplexPoint.in_cell(1, np.array([0.0, 1.0]))
    assert position(mid) == pytest.approx(0.5, abs=1e-12)


def test_chep_instance_json_roundtrip():
    _, desc = bundled_chep_instance()
    inst = chep_instance_from_json(desc)
    x = ComplexPoint.base(0.0)
    assert inst.k(x, 0.0) == pytest.approx(0.0, abs=1e-12)   # sin(0) terms
    assert inst.f(x)[0] == inst.k(x, 0.0)


def test_trivial_product_fibration_zero_cell():
    g = TrivialProductFibration(fiber_dim=2)
    lifted = g.lift_j(0, None, lambda w: 3.0)
    val = lifted(np.array([1.0]))
    assert val[0] == 3.0 and np.array_equal(val[1], np.zeros(2))


def test_chain_position_at_wrap_pole():
    inst, _ = bundled_extend_instance()
    pole = ComplexPoint.in_cell(2, np.array([0.0, 0.0, 1.0]))
    v = inst.bottom(pole)
    assert math.isfinite(v)


def test_sample_point_draws_base_and_every_cell():
    inst, _ = bundled_extend_instance()
    rng = np.random.default_rng(11)
    drawn = [inst.complex.sample_point(rng) for _ in range(200)]
    assert {x.cell for x in drawn} == {-1, 0, 1, 2}
    assert all(x.point.shape == (inst.complex.cells[x.cell].dim + 1,)
               for x in drawn if x.kind == "cell")
    with pytest.raises(DomainError, match="no points"):
        CellComplex().sample_point(rng)


# ---------------------------------------------------------------------------
# Array forms: rows of one cell in one call
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_array_expression_matches_the_float_evaluator(data):
    """Each row within 1e-9 relative of the float value (numpy's exp, sin
    and cos may differ in the last bit); a row the float evaluator rejects
    makes the array evaluator raise, naming the first such row."""
    nvars = data.draw(st.integers(1, 3))
    node = data.draw(_EXPRESSIONS[nvars])
    count = data.draw(st.integers(1, 4))
    u = [np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=count, max_size=count)))
         for _ in range(nvars)]
    evaluate = compile_expr(node, nvars, "probe")
    want, bad = [], None
    for i in range(count):
        try:
            want.append(evaluate([v[i] for v in u]))
        except InstanceError:
            bad = i if bad is None else bad
    if bad is not None:
        with pytest.raises(InstanceError, match=rf"^row {bad}: probe cannot be evaluated at \("):
            evaluate.rows(u)
        return
    got = evaluate.rows(u)
    assert got.shape == (count,)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_array_expression_broadcasts_constants_and_floats():
    k = compile_expr({"op": "add", "args": [{"op": "var", "index": 1},
                                            {"op": "lambda", "args": [0.5]}]}, 2)
    assert k.rows([np.zeros(3), 0.25]).tolist() == [0.75] * 3
    assert compile_expr(2.0, 1).rows([np.zeros(2)]).tolist() == [2.0, 2.0]
    big = compile_expr({"op": "exp", "args": [{"op": "var"}]}, 1, "big")
    with pytest.raises(InstanceError, match=r"^row 1: big cannot be evaluated at \(800\)"):
        big.rows([np.array([1.0, 800.0, 900.0])])
    # an overflow the float evaluator survives: lambda(1e308 * 10) is 1
    tame = compile_expr({"op": "lambda", "args": [{"op": "mul", "args": [
        {"op": "var"}, 10.0]}]}, 1)
    assert tame.rows([np.array([1e308, 0.05])]).tolist() == [1.0, lambda_fn(0.5)]


def test_long_folds_and_deep_chains_keep_the_reference_bits():
    """A 500-argument fold and a 400-level nested chain: the float form has
    the recursive value's bits, the array form is within the bound above."""
    rng = np.random.default_rng(27)
    fold = {"op": "add", "args": [
        {"op": ["mul", "div", "sub"][i % 3], "args": [float(c), {"op": "var", "index": i % 2}]}
        for i, c in enumerate(rng.uniform(0.5, 2.0, 500))]}
    chain = {"op": "var"}
    for i in range(400):
        chain = ({"op": ["sin", "cos", "lambda"][i % 3], "args": [chain]} if i % 2 else
                 {"op": ["add", "mul"][i % 4 // 2], "args": [chain, {"op": "var", "index": 1}]})
    for node in (fold, chain):
        evaluate = compile_expr(node, 2)
        u = [rng.uniform(0.5, 2.0, 6) for _ in range(2)]
        want = [_evaluate_by_recursion(node, args) for args in zip(*u)]
        assert [evaluate(args).hex() for args in zip(*u)] == [w.hex() for w in want]
        got = evaluate.rows(u)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e300])
def test_constants_keep_their_bits(value):
    for node in (value, {"op": "const", "value": value}):
        evaluate = compile_expr(node, 1)
        assert evaluate([0.5]).hex() == value.hex()
        assert [v.hex() for v in evaluate.rows([np.zeros(3)]).tolist()] == [value.hex()] * 3
        assert [v.hex() for v in evaluate.rows([np.zeros(1)]).tolist()] == [value.hex()]


def test_evaluators_share_no_mutable_state():
    """A caller writing into a returned array changes no later value: not
    of the same evaluator, its float form, another evaluator of the same
    expression, nor the variables it was given."""
    first, second = compile_expr(2.0, 1), compile_expr(2.0, 1)
    for evaluate in (first, second):
        evaluate.rows([np.zeros(1)])[0] = 99.0
    assert first.rows([np.zeros(1)]).tolist() == second.rows([np.zeros(1)]).tolist() == [2.0]
    assert first([0.0]) == second([0.0]) == 2.0
    u = np.array([1.0, 2.0])
    compile_expr({"op": "var"}, 1).rows([u])[0] = 99.0
    assert u.tolist() == [1.0, 2.0]


def _chain_complex(segments):
    """A base point, then segments of a 0-cell, an edge onto the last end and
    a 2-cell wrapped on the edge."""
    cells, prev = [], {"base": True}
    for _ in range(segments):
        cells.append({"dim": 0})
        zero = {"cell": len(cells) - 1}
        cells.append({"dim": 1, "attach": {"kind": "endpoints", "pos": prev, "neg": zero}})
        cells.append({"dim": 2, "attach": {"kind": "wrap", "cell": len(cells) - 1}})
        prev = zero
    return {"base": "point", "cells": cells}


def test_chain_position_rows_match_the_float_map():
    cx = complex_from_json(_chain_complex(2))
    position = chain_position(cx)
    rng = np.random.default_rng(5)
    for i, cell in enumerate(cx.cells):
        w = random_disk_batch(cell.dim, 20, rng)
        if cell.dim == 1:
            w[:3] = [[1.0, 0.0], [-1.0, 0.0], [-1.0, 4e-10]]
        elif cell.dim == 2:
            w[:3] = [[0.0, 0.0, 1.0], [3e-13, -4e-13, 1.0], [0.6, -0.8, 0.0]]
        got = position.rows(i, w)
        want = [position(ComplexPoint.in_cell(i, x)) for x in w]
        assert np.max(np.abs(got - want)) <= 1e-15
        assert got[:3].tolist() == want[:3]  # wall and pole rows keep their bits
    assert position.rows(-1, [0.0, 0.0]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("cell, w, why", [
    (0, [7.0], r"\|point\| = 7.0 is not 1"),
    (1, [3.0, 4.0], r"\|point\| = 5.0 is not 1"),
    (1, [3.0, 0.0], r"\|point\| = 3.0 is not 1"),  # off the disk, on its wall
    (2, [math.nan, 0.0, 1.0], "non-finite coordinates"),
    (2, [0.6, 0.0, -0.8], "not in the upper hemisphere"),
    (2, [5.0, 5.0, 5.0], r"\|point\| = 8.66"),
    (5, [1.0], "no cell 5"),
])
def test_chain_position_rejects_points_off_their_cell(cell, w, why):
    """Both forms check the point of every cell; rows name the first bad row."""
    inst, _ = bundled_extend_instance()
    position = chain_position(inst.complex)
    with pytest.raises(DomainError, match=why):
        inst.bottom(ComplexPoint.in_cell(cell, w))
    if cell < len(inst.complex):
        good = [1.0] + [0.0] * (len(w) - 1)
        with pytest.raises(DomainError, match="^row 1: .*" + why):
            position.rows(cell, [good, w])
    else:
        with pytest.raises(DomainError, match=why):
            position.rows(cell, [w])


def test_chain_position_rejects_base_points_with_no_base():
    position = chain_position(complex_from_json({"base": None, "cells": [{"dim": 0}]}))
    for evaluate in (lambda: position(ComplexPoint.base(0.0)),
                     lambda: position.rows(-1, [0.0, 0.0])):
        with pytest.raises(DomainError, match="no base"):
            evaluate()
    assert position.rows(0, [[1.0], [1.0]]).tolist() == [1.0, 1.0]


def test_chain_position_rejects_two_cells_not_attached_by_a_wrap():
    cx = complex_from_json(_chain_complex(1))
    with pytest.raises(InstanceError, match="cell 3, a 2-cell not attached by a wrap"):
        chain_position(cx.attach(2, lambda u: ComplexPoint.in_cell(1, np.array([1.0, 0.0]))))
    with pytest.raises(InstanceError, match="cell 3, a 3-cell"):
        chain_position(cx.attach(3, lambda u: ComplexPoint.in_cell(2, np.array([1.0, 0.0, 0.0]))))


def _rows_of_cell(rng, dim, count):
    """Uniform rows of the cell, rows near its boundary sphere (where the
    lift descends through a wall) and rows on it (canonicalized)."""
    w = random_disk_batch(dim, count, rng)
    if dim > 0:
        near = random_disk_batch(dim, count, rng)
        near[:, -1] *= rng.choice([0.0, 1e-3, 0.05], size=count)
        w = np.vstack([w, near / np.linalg.norm(near, axis=1, keepdims=True)])
    return w


def _wall_rows(n, w, t):
    """Rows whose hemisphere slice lands on the wall of L^n, not its floor."""
    lifted = psi_inv_batch(n, CylPoint(w, t))
    slice_ = np.column_stack([retract_batch(n, lifted), np.zeros(len(w))])
    return psi_batch(n, slice_).time > L_TOL


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_array_lift_matches_the_scalar_lift(segments, seed, via_hep):
    """H.rows and the extend lift's rows agree with the scalar maps within
    TOL_LIFT on every cell and the base, on wall rows and at t = 0 and 1;
    ``via_hep`` lifts the chep data against the point fibration by hep."""
    _, chep_desc = bundled_chep_instance()
    _, ext_desc = bundled_extend_instance()
    inst = chep_instance_from_json({**chep_desc, "complex": _chain_complex(segments)})
    einst = extend_instance_from_json({**ext_desc, "complex": _chain_complex(segments)})
    if via_hep:
        H = hep(inst.complex, inst.f, inst.h, rows=inst.rows())
    else:
        H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom, rows=einst.rows())
    rng = np.random.default_rng(seed)
    worst, walls = 0.0, 0
    for cell in [-1] + list(range(len(inst.complex))):
        dim = inst.complex.cells[cell].dim if cell >= 0 else 0
        w = [0.0] * 4 if cell < 0 else _rows_of_cell(rng, dim, 4)
        t = rng.uniform(0.3, 1.0, size=len(w))
        t[:2] = [0.0, 1.0]
        got = H.rows(cell, w, t)
        points = [ComplexPoint.base(x) if cell < 0 else ComplexPoint.in_cell(cell, x) for x in w]
        want = np.array([_coords(H(x, s)) for x, s in zip(points, t)])
        worst = max(worst, float(np.max(np.abs(got - want))))
        got = lift.rows(cell, w)
        want = np.array([_coords(lift(x)) for x in points])
        worst = max(worst, float(np.max(np.abs(got - want))))
        if cell >= 0:
            walls += int(np.sum(_wall_rows(dim, w, t)))
    note(f"worst |rows - scalar| = {worst:.3g}, {walls} wall rows")
    target(worst, label="worst |rows - scalar|")
    assert worst <= TOL_LIFT
    assert walls > 0


def _lifts_built_and_evaluated():
    """Weak references to the bundled instances and to their chep homotopy
    and extend_lift map, each built with rows and evaluated in both forms."""
    inst, _ = bundled_chep_instance()
    einst, _ = bundled_extend_instance()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom, rows=einst.rows())
    rng = np.random.default_rng(3)
    xs = [inst.complex.sample_point(rng) for _ in range(20)]
    ts = rng.uniform(0.0, 1.0, len(xs))
    [H(x, t) for x, t in zip(xs, ts)]
    rows_at_points(H.rows, xs, ts)
    xs = [einst.complex.sample_point(rng) for _ in range(20)]
    [lift(x) for x in xs]
    rows_at_points(lift.rows, xs)
    return [weakref.ref(obj) for obj in (inst, einst, H, H.fn, H.rows, lift, lift.rows)]


def test_lifts_hold_no_reference_cycles():
    """Dropped, the lifts and their instances are freed by reference
    counting alone: with the collector off, nothing is left for it."""
    _lifts_built_and_evaluated()
    gc.collect()
    gc.disable()
    try:
        refs = _lifts_built_and_evaluated()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("width", [1, 2, 3])
def test_wall_point_is_one_rule_for_floats_and_rows(width):
    """The float and the array wall point agree bit for bit, on tiny and
    huge rows too, and the rows keep the bits of numpy's row norm."""
    v = np.random.default_rng(width).standard_normal((2000, width))
    v = np.vstack([v, v * 1e-150, v * 1e150])
    got = _rows(_wall_point(list(v.T), ARRAY_OPS), len(v))
    assert got.tobytes() == (v / np.linalg.norm(v, axis=1)[:, None]).tobytes()
    want = [[float(c).hex() for c in row] for row in got]
    assert [[c.hex() for c in _wall_point(row, FLOAT_OPS)] for row in v.tolist()] == want


def test_rows_off_the_cell_are_rejected_by_row():
    inst, _ = bundled_chep_instance()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    with pytest.raises(DomainError, match=r"^row 1: \|point\| = "):
        H.rows(1, np.array([[0.6, 0.8], [0.5, 0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match=r"got an array of shape \(3,\)"):
        H.rows(1, np.array([0.0, 0.6, 0.8]), np.array([0.5]))


def test_times_without_one_per_row_are_rejected():
    inst, _ = bundled_chep_instance()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    w = np.array([[0.6, 0.8], [-0.6, 0.8]])
    for t, shape in (([0.1, 0.2, 0.3], r"\(3,\)"), ([0.5], r"\(1,\)"), (0.5, r"\(\)")):
        with pytest.raises(DomainError, match=rf"^expected one entry per row \(2\), "
                                              rf"got an array of shape {shape}$"):
            H.rows(1, w, t)
        with pytest.raises(DomainError, match=rf"shape {shape}$"):
            H.rows(-1, [0.0, 0.0], t)


def test_indices_naming_no_cell_are_rejected():
    """A cell index outside the complex, given or hit by an attaching map,
    raises DomainError naming it: in canonicalize, the scalar lift and the
    rows (where only -1, the base, is negative)."""
    inst, _ = bundled_chep_instance()
    einst, _ = bundled_extend_instance()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom, rows=einst.rows())
    cases = ((inst.complex, lambda x: H(x, 0.5), lambda c: H.rows(c, [[0.6, 0.8]], [0.5])),
             (einst.complex, lift, lambda c: lift.rows(c, [[0.6, 0.8]])))
    for cx, evaluate, rows in cases:
        for cell in (-1, len(cx)):
            for fn in (cx.canonicalize, evaluate):
                with pytest.raises(DomainError, match=rf"^no cell {cell}$"):
                    fn(ComplexPoint.in_cell(cell, [1.0, 0.0]))
        for cell in (-3, -2, len(cx)):
            with pytest.raises(DomainError, match=rf"^no cell {cell}$"):
                rows(cell)
    below = CellComplex().attach(0).attach(
        1, lambda v: ComplexPoint.in_cell(-2 if v[0] > 0 else 0, np.array([1.0])))
    assert below.canonicalize(ComplexPoint.in_cell(1, [-1.0, 0.0])).cell == 0
    with pytest.raises(DomainError, match=r"^no cell -2$"):
        below.canonicalize(ComplexPoint.in_cell(1, [1.0, 0.0]))


def test_a_base_point_of_a_complex_without_base_is_rejected():
    """A base point names nothing on a complex with no base: canonicalize,
    both H forms and both forms of the extend_lift map raise DomainError."""
    no_base = {"base": None, "cells": [
        {"dim": 0}, {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints", "pos": {"cell": 0}, "neg": {"cell": 1}}}]}
    inst = chep_instance_from_json(dict(bundled_chep_instance()[1], complex=no_base))
    einst = extend_instance_from_json(dict(bundled_extend_instance()[1], complex=no_base))
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom, rows=einst.rows())
    base = ComplexPoint.base(0.0)
    for evaluate in (CellComplex(None).attach(0).canonicalize, inst.complex.canonicalize,
                     lambda x: H(x, 0.5), lambda x: H.rows(-1, [x.point], [0.5]),
                     lift, lambda x: lift.rows(-1, [x.point])):
        with pytest.raises(DomainError, match="^a base point, but the complex has no base$"):
            evaluate(base)
    # an empty list of base rows still names the missing base
    with pytest.raises(DomainError, match="no base"):
        H.rows(-1, [], [])
    assert CellComplex("pt").canonicalize(base) == base


def test_the_array_form_needs_rows_and_the_oracles_array_method():
    """Without rows= no array form is built; with rows=, an oracle without
    its array method raises TypeError before any lift is built."""
    inst, _ = bundled_chep_instance()
    einst, _ = bundled_extend_instance()
    p, g = inst.fibration, einst.oracle
    assert chep(p, inst.complex, inst.f, inst.h, inst.k).rows is None
    assert hep(inst.complex, inst.f, inst.h).rows is None
    assert extend_lift(g, einst.complex, einst.f, einst.bottom).rows is None
    built = []

    def lift_k(n, top, bottom):
        built.append(n)
        return p.lift_k(n, top, bottom)

    class ScalarOracle:
        project = g.project

        def lift_j(self, n, top, square_bottom):
            built.append(n)
            return g.lift_j(n, top, square_bottom)

    with pytest.raises(TypeError, match=r"needs the fibration's lift_k_rows"):
        chep(Fibration(p.total, p.base, p.project, lift_k), inst.complex,
             inst.f, inst.h, inst.k, rows=inst.rows())
    with pytest.raises(TypeError, match=r"needs the oracle's lift_j_rows"):
        extend_lift(ScalarOracle(), einst.complex, einst.f, einst.bottom, rows=einst.rows())
    assert built == []


def test_an_off_sphere_boundary_point_raises_in_both_forms():
    """extend_lift's scalar top checks the boundary point an oracle hands
    it, as top_rows checks its rows: an oracle that scales that point off
    the sphere gets DomainError from both forms, not a lift."""
    inst, _ = bundled_extend_instance()
    g = inst.oracle

    class Scaling:
        project = g.project

        def lift_j(self, n, top, square_bottom):
            return g.lift_j(n, top and (lambda v: top(2.0 * np.asarray(v))), square_bottom)

        def lift_j_rows(self, n, top, square_bottom):
            return g.lift_j_rows(n, top and (lambda v: top(2.0 * v)), square_bottom)

    lift = extend_lift(Scaling(), inst.complex, inst.f, inst.bottom, rows=inst.rows())
    w = np.array([0.6, 0.8])
    with pytest.raises(DomainError, match=r"^\|point\| = 2\.0 is not 1"):
        lift(ComplexPoint.in_cell(1, w))
    with pytest.raises(DomainError, match=r"^row 0: \|point\| = 2\.0 is not 1"):
        lift.rows(1, w[None])


def _slice_off_L(psi_batch_):
    """A broken psi that sends hemisphere slice points (last coordinate 0)
    with a positive first coordinate to (0.6, 0, ..., 0.8) at time 0.5: a
    point of the open disk, off L^n, where the wall descent would go on."""
    def broken(n, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        c = psi_batch_(n, w)
        hit = (w[:, -1] == 0.0) & (w[:, 0] > 0.0)
        disk, time = c.disk.copy(), np.array(c.time, dtype=float)
        disk[hit] = [1.0] if n == 0 else [0.6] + [0.0] * (n - 1) + [0.8]
        time[hit] = 0.5
        return CylPoint(disk, time)
    return broken


def test_a_slice_off_L_raises_in_both_forms(monkeypatch):
    """Negative control of the L_TOL guard: chep's lift must reject a psi
    whose hemisphere slice leaves L^n, point by point and on rows."""
    inst, _ = bundled_chep_instance()
    broken = _slice_off_L(lifting.psi_batch)
    monkeypatch.setattr(lifting, "psi_batch", broken)
    monkeypatch.setattr(lifting, "psi", lambda n, w: CylPoint(*(a[0] for a in broken(n, w))))
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    w = np.array([[-0.6, 0.8], [-0.8, 0.6], [0.8, 0.6], [0.6, 0.8]])
    t = np.full(4, 0.5)
    with pytest.raises(LiftError, match=r"^hemisphere slice left L\^n at cell 1: "):
        H(ComplexPoint.in_cell(1, w[2]), 0.5)
    # the first row whose slice the broken psi moves
    lifted = psi_inv_batch(1, CylPoint(w, t))
    row = int(np.argmax(retract_batch(1, lifted)[:, 0] > 0.0))
    with pytest.raises(LiftError, match=rf"^hemisphere slice left L\^n at cell 1, row {row}, "
                                        r"time 0\.5: disk "):
        H.rows(1, w, t)


def _array_in_L(cyl):
    """in_L as it decided one point on numpy scalars."""
    disk = np.asarray(cyl[0], dtype=float)
    return (cyl[1] <= L_TOL) | (np.abs(disk[..., -1]) <= L_TOL)


def _pinned_chep(p, cx, f, h, k):
    """A test copy of chep's scalar descent as each stage once built arrays:
    the slice point through include_k into psi, the array in_L, and a
    CylPoint into psi_inv.  It calls lifting's psi as the module holds it,
    so a patched psi reaches it too."""
    lifts = []

    def H(pt, t):
        cp = cx.canonicalize(pt)
        if cp.kind == "base":
            return h(cp.point, t)
        return lifts[cp.cell](psi_inv(cx.cells[cp.cell].dim, CylPoint(cp.point, float(t))))

    for beta, cell in enumerate(cx.cells):
        def charact(d, beta=beta):
            return cx.canonicalize(ComplexPoint.in_cell(beta, d))

        def top(wd, beta=beta, cell=cell, charact=charact):
            cyl = lifting.psi(cell.dim, include_k(cell.dim, wd))
            d, tau = cyl
            if not _array_in_L(cyl):
                raise LiftError(f"hemisphere slice left L^n at cell {beta}: {cyl!r}")
            if tau <= L_TOL:
                return f(charact(d))
            return H(cell.attach(np.array(_wall_point(d[:-1].tolist(), FLOAT_OPS))), tau)

        def bottom(w, cell=cell, charact=charact):
            d, tau = lifting.psi(cell.dim, w)
            return k(charact(d), tau)

        lifts.append(p.lift_k(cell.dim, top, bottom))
    return H


def _pinned_extend(g, cx, f, bottom):
    """A test copy of extend_lift's scalar descent, whose top checked its
    sphere point through include_j's array."""
    lifts = []

    def lift(pt):
        cp = cx.canonicalize(pt)
        return f(cp.point) if cp.kind == "base" else lifts[cp.cell](cp.point)

    for beta, cell in enumerate(cx.cells):
        def top(v, cell=cell):
            return lift(cell.attach(include_j(cell.dim, v)[:-1]))

        def square_bottom(w, beta=beta):
            return bottom(cx.canonicalize(ComplexPoint.in_cell(beta, w)))

        lifts.append(g.lift_j(cell.dim, top if cell.dim > 0 else None, square_bottom))
    return lift


def _exact(value):
    """repr of value with every array as a list, so every bit shows."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_exact, value))})"
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def _outcome(fn):
    try:
        return "value", _exact(fn())
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


def _unit(*v):
    return (np.array(v) / np.linalg.norm(v)).tolist()


# per cell dimension: wall points, poles, points near a wall (whose lift
# descends through the cylinder's wall) and off-disk points
PIN_POINTS = {
    0: [[1.0], [2.0]],
    1: [[1.0, 0.0], [-1.0, 0.0], [-1.0, 4e-10], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6],
        _unit(0.8, 0.05), _unit(-0.6, 1e-3), [3.0, 4.0], [0.6, -0.8]],
    2: [[0.0, 0.0, 1.0], [3e-13, -4e-13, 1.0], [0.6, -0.8, 0.0], [-1.0, 0.0, 0.0],
        [0.48, 0.6, 0.64], [-0.36, 0.48, 0.8], _unit(0.6, -0.8, 0.05),
        _unit(-0.28, 0.96, 1e-3), [5.0, 5.0, 5.0]],
}
PIN_TIMES = [0.0, 1e-8, 0.5, 1.0]


def _pin_points(cx, rng):
    points = [ComplexPoint.base(0.0)] if cx.base is not None else []
    for i, cell in enumerate(cx.cells):
        ws = PIN_POINTS[cell.dim] + list(random_disk_batch(cell.dim, 3, rng))
        points += [ComplexPoint.in_cell(i, w) for w in ws]
    return points


def _pinned_instances():
    """The bundled instances and the 0/1/2-cell chain of the lift-descent
    benchmark, as (chep instance, extend instance) pairs."""
    inst, chep_desc = bundled_chep_instance()
    einst, ext_desc = bundled_extend_instance()
    yield inst, einst
    yield (chep_instance_from_json({**chep_desc, "complex": _chain_complex(2)}),
           extend_instance_from_json({**ext_desc, "complex": _chain_complex(2)}))


def test_the_scalar_descent_keeps_every_bit_and_error():
    """H(x, t) and lift(x) equal a copy of the array stage chain bit for bit,
    or raise the same exception with the same message: at wall points,
    poles and off-disk points, at t in {0, 1e-8, 0.5, 1} and, at points
    of an open cell, 1.5 (the base's own time check is newer than the copy)."""
    rng = np.random.default_rng(30)
    for inst, einst in _pinned_instances():
        H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
        ref = _pinned_chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
        for x in _pin_points(inst.complex, rng):
            on_cell = inst.complex.canonicalize(x).kind == "cell"
            for t in PIN_TIMES + ([1.5] if on_cell else []):
                assert _outcome(lambda: H(x, t)) == _outcome(lambda: ref(x, t)), (x, t)
        lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom)
        ref = _pinned_extend(einst.oracle, einst.complex, einst.f, einst.bottom)
        for x in _pin_points(einst.complex, rng):
            assert _outcome(lambda: lift(x)) == _outcome(lambda: ref(x)), x


def test_the_scalar_descent_keeps_its_errors_under_broken_maps(monkeypatch):
    """A psi whose slice leaves L^n, and an oracle that scales its boundary
    points off the sphere or into the wrong dimension, raise the same
    exception with the same message as the copy of the array stage chain."""
    inst, _ = bundled_chep_instance()
    broken = _slice_off_L(lifting.psi_batch)
    monkeypatch.setattr(lifting, "psi", lambda n, w: CylPoint(*(a[0] for a in broken(n, w))))
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
    ref = _pinned_chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
    rng = np.random.default_rng(31)
    raised = 0
    for x in _pin_points(inst.complex, rng):
        for t in PIN_TIMES:
            got = _outcome(lambda: H(x, t))
            assert got == _outcome(lambda: ref(x, t)), (x, t)
            raised += got[0] is LiftError
    assert raised > 0
    monkeypatch.undo()
    einst, _ = bundled_extend_instance()
    g = einst.oracle
    for scale in (lambda v: 2.0 * np.asarray(v), lambda v: np.append(v, 0.0)):
        class Broken:
            project = g.project

            def lift_j(self, n, top, square_bottom, scale=scale):
                return g.lift_j(n, top and (lambda v: top(scale(v))), square_bottom)

        lift = extend_lift(Broken(), einst.complex, einst.f, einst.bottom)
        ref = _pinned_extend(Broken(), einst.complex, einst.f, einst.bottom)
        outcomes = [_outcome(lambda: lift(x)) for x in _pin_points(einst.complex, rng)]
        assert outcomes == [_outcome(lambda: ref(x)) for x in _pin_points(einst.complex, rng)]
        assert any(kind is DomainError for kind, _ in outcomes)


def test_a_base_time_outside_the_unit_interval_is_rejected():
    """The base checks its time as a cell does, in both forms of H: a time
    outside [0,1], or NaN, raises DomainError and never reaches h."""
    inst, _ = bundled_chep_instance()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, rows=inst.rows())
    base, edge = ComplexPoint.base(0.0), ComplexPoint.in_cell(1, np.array([0.6, 0.8]))
    for t in (1.5, -1e-9, 1.0 + 2 ** -52, math.nan, math.inf):
        for x in (base, edge):
            with pytest.raises(DomainError, match=rf"^time {re.escape(repr(t))} outside \[0,1\]$"):
                H(x, t)
        with pytest.raises(DomainError, match=rf"^row 1: time {re.escape(repr(t))} outside"):
            H.rows(-1, [0.0, 0.0], [0.5, t])
        with pytest.raises(DomainError, match=rf"^row 0: time {re.escape(repr(t))} outside"):
            H.rows(1, [[0.6, 0.8]], [t])
        # the row named is the caller's, wherever its point's locus puts it:
        # an open-cell row after a wall row, a wall row after an open-cell one
        with pytest.raises(DomainError, match=rf"^row 1: time {re.escape(repr(t))} outside"):
            H.rows(1, [[1.0, 0.0], [0.6, 0.8]], [0.5, t])
        with pytest.raises(DomainError, match=rf"^row 1: time {re.escape(repr(t))} outside"):
            H.rows(1, [[0.6, 0.8], [1.0, 0.0]], [0.5, t])
    for t in (0.0, 1.0):
        assert H(base, t) == inst.h(0.0, t)
        assert H.rows(-1, [0.0], [t]).tolist() == [list(inst.h(0.0, t))]
