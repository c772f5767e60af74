import math

import numpy as np
import pytest

from difftop.cellcomplex import BOUNDARY_TOL, CellComplex, ComplexPoint
from difftop.diskmodel import DomainError, include_k, random_disk, random_sphere, section
from difftop.homotopy import path_components
from difftop.instances import (
    bundled_chep_instance, bundled_extend_instance, chain_position,
    chep_instance_from_json, compile_expr, complex_from_json,
)
from difftop.lifting import (
    LiftError, TrivialProductFibration, chep, extend_lift, hep,
    point_fibration, product_fibration, transfinite_extension,
)

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
    pre = [(inst.sample_point(rng), float(rng.uniform())) for _ in range(30)]
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, precheck=pre)
    dev = 0.0
    for _ in range(400):
        x = inst.sample_point(rng)
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
    pre = [(inst.sample_point(rng), 0.5) for _ in range(10)]
    with pytest.raises(LiftError, match="precondition"):
        chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, precheck=pre)


def test_chep_absolute_complex_two_vertices():
    inst, _ = bundled_chep_instance(relative=False)
    rng = np.random.default_rng(8)
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
    dev = 0.0
    for _ in range(200):
        x = inst.sample_point(rng)
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
        x = inst.sample_point(rng)
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


def test_complex_from_json_chain():
    cx = complex_from_json({"base": "point", "cells": [
        {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints",
                              "pos": {"base": True}, "neg": {"cell": 0}}}]})
    assert len(cx) == 2
    assert chain_position(cx, ComplexPoint.base(0.0)) == 0.0
    assert chain_position(cx, ComplexPoint.in_cell(0, np.array([1.0]))) == 1.0
    mid = ComplexPoint.in_cell(1, np.array([0.0, 1.0]))
    assert chain_position(cx, mid) == pytest.approx(0.5, abs=1e-12)


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
