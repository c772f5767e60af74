import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.cellcomplex import BOUNDARY_TOL, CellComplex, ComplexPoint
from difftop.diskmodel import DomainError, include_k, random_disk, random_sphere, section
from difftop.homotopy import path_components
from difftop.instances import (
    InstanceError, bundled_chep_instance, bundled_extend_instance, chain_position,
    chep_instance_from_json, compile_expr, complex_from_json,
)
from difftop.lifting import (
    LiftError, TrivialProductFibration, chep, extend_lift, hep,
    point_fibration, product_fibration, transfinite_extension,
)
from difftop.smoothfn import gamma, lambda_fn, xi

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


def test_transfinite_extension_matches_boundary():
    def g(t):
        return math.sin(2.0 * t[0]) + (t[1] if len(t) > 1 else 0.0)

    # dimension 2: exact on all four walls
    for s in np.linspace(0, 1, 9):
        for t in (np.array([s, 0.0]), np.array([s, 1.0]),
                  np.array([0.0, s]), np.array([1.0, s])):
            assert transfinite_extension(g, t) == pytest.approx(g(t), abs=1e-12)


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
    nrm = float(np.linalg.norm(x.point[:2]))
    if nrm < 1e-12:
        return _position_by_recursion(cx, cell.attach(np.array([1.0, 0.0])))
    return _position_by_recursion(cx, cell.attach(np.asarray(x.point[:2]) / nrm))


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
