import math

import numpy as np
import pytest

from difftop.cellcomplex import CellComplex, ComplexPoint
from difftop.diskmodel import DomainError, Q, random_disk, section
from difftop.homotopy import (
    Homotopy, PairMapRep, concat, delta_restrict, glue_double,
    path_components, star, to_tilde_homotopy,
)
from difftop.smoothfn import lambda_fn

RNG = np.random.default_rng(31)


def test_to_tilde_reclocks_real_homotopy():
    F = Homotopy(lambda x, t: t, "R")
    G = to_tilde_homotopy(F)
    assert G.kind == "I_tilde"
    assert G(None, 0.5) == lambda_fn(0.5) == 0.5
    assert G(None, 0.0) == 0.0 and G(None, 1.0) == 1.0


def test_to_tilde_passthrough():
    F = Homotopy(lambda x, t: t, "I_tilde")
    assert to_tilde_homotopy(F) is F


def test_to_tilde_preserves_endpoints():
    F = Homotopy(lambda x, t: np.array([x[0] + t, t * t]), "I")
    G = to_tilde_homotopy(F)
    for v in np.linspace(-2, 2, 7):
        x = np.array([v])
        assert np.array_equal(G(x, 0.0), F(x, 0.0))
        assert np.array_equal(G(x, 1.0), F(x, 1.0))


def _pair():
    F = Homotopy(lambda x, t: np.array([x[0], t]))
    G = Homotopy(lambda x, t: np.array([x[0] * (1 - t), 1.0 + t]))
    return F, G


def test_concat_constant_homotopies():
    C = Homotopy(lambda x, t: np.array([4.0]))
    H = concat(C, C, sample_points=[None])
    for t in np.linspace(0, 1, 9):
        assert np.array_equal(H(None, t), [4.0])


def test_concat_plateau_and_endpoints():
    F, G = _pair()
    H = concat(F, G, sample_points=[np.array([v]) for v in (-1.0, 0.5)])
    x = np.array([0.7])
    assert np.array_equal(H(x, 0.0), F(x, 0.0))
    assert np.array_equal(H(x, 1.0), G(x, 1.0))
    assert np.array_equal(H(x, 1.0 / 3.0), F(x, 1.0))   # lambda(1) = 1
    assert np.array_equal(H(x, 0.6), G(x, 0.0))         # lambda(-0.2) = 0


def test_concat_seam_agreement():
    F, G = _pair()
    x = np.array([0.3])
    assert np.max(np.abs(F(x, lambda_fn(1.5)) - G(x, lambda_fn(-0.5)))) < 1e-12


def test_concat_mismatch_raises_with_witness():
    # 100 vs 100.0005 passes a relative slack of 1e-5, not the absolute 1e-9
    for end, start in [(1.0, 5.0), (100.0, 100.0005)]:
        F = Homotopy(lambda x, t: np.array([end]))
        G = Homotopy(lambda x, t: np.array([start]))
        with pytest.raises(DomainError, match="differs"):
            concat(F, G, sample_points=[np.array([0.0])])


def _rep(n, shift=0.0):
    def fn(w):
        a = lambda_fn(3.0 * w[-2]) * (w[-2] + 1.0) + shift * w[-1]
        return np.array([a, w[-1]])
    return PairMapRep(n, fn, basepoint=np.zeros(2))


def test_star_constant_reps():
    x0 = np.array([1.0, 2.0])
    c = PairMapRep(2, lambda w: x0, basepoint=x0)
    st = star(2, c, c)
    for _ in range(20):
        assert np.array_equal(st(random_disk(2, RNG)), x0)


def test_star_first_slot_split():
    phi = PairMapRep(1, lambda w: np.array([section(1, w)[0]]))
    psi_r = PairMapRep(1, lambda w: np.array([3.0]))
    st = star(1, phi, psi_r)
    w = Q(1, [0.25])
    assert st(w) == pytest.approx(lambda_fn(0.75), abs=1e-12)
    w = Q(1, [0.75])
    assert np.array_equal(st(w), [3.0])


def test_star_dimension_and_basepoint_guards():
    with pytest.raises(DomainError):
        star(2, _rep(2), _rep(1))
    with pytest.raises(DomainError):
        star(0, _rep(0), _rep(0))
    for p0, p1 in [([0.0, 0.0], [1.0, 0.0]), ([1.0], [1.000005])]:
        a = PairMapRep(1, lambda w: w, basepoint=np.array(p0))
        b = PairMapRep(1, lambda w: w, basepoint=np.array(p1))
        with pytest.raises(DomainError, match="basepoints differ"):
            star(1, a, b)


def test_star_quotient_fiber_well_defined():
    n = 2
    st = star(n, _rep(n), _rep(n))
    for t1 in (0.0, 1.0):
        wa = Q(n, [t1, 0.3])
        wb = Q(n, [t1, 0.9])
        assert np.max(np.abs(st(wa) - st(wb))) < 1e-9


def test_delta_restrict():
    phi = PairMapRep(2, lambda w: w.copy())
    d = delta_restrict(2, phi)
    assert d.dim == 1
    v = random_disk(1, RNG)
    assert np.array_equal(d(v), np.concatenate([v, [0.0]]))
    # n=1: evaluation at the equator point (1, 0)
    phi1 = PairMapRep(1, lambda w: w.copy())
    d1 = delta_restrict(1, phi1)
    assert np.array_equal(d1(np.array([1.0])), [1.0, 0.0])


def test_delta_restrict_inherits_boundary_condition():
    # a triple rep sends the lower boundary half-disk to the basepoint;
    # its restriction sends the lower equator of the smaller disk there too
    d = delta_restrict(2, _rep(2))
    assert np.max(np.abs(d(np.array([-1.0, 0.0])))) < 1e-9


def test_glue_double_seam_and_bottom():
    e = np.array([2.0])
    lower = [np.array([0.3, -math.sqrt(1 - 0.09), 0.0])]
    g = glue_double(2, PairMapRep(2, lambda w: e), PairMapRep(2, lambda w: e),
                    sample_points=lower)
    w_half = Q(2, [0.4, lambda_fn(0.5)])
    assert np.array_equal(g(w_half), e)
    w0 = Q(2, [0.4, 0.0])
    assert np.array_equal(g(w0), e)


def test_glue_double_constancy_guard():
    bad = PairMapRep(2, lambda w: w[:1])
    lower = [np.array([0.3, -math.sqrt(1 - 0.09), 0.0]),
             np.array([-0.5, -math.sqrt(0.75), 0.0])]
    with pytest.raises(DomainError, match="constant"):
        glue_double(2, bad, bad, sample_points=lower)


def _edge(a, b):
    return lambda v: ComplexPoint.in_cell(a if v[0] > 0 else b, np.array([1.0]))


def test_path_components_basic():
    cx = CellComplex().attach(0).attach(0)
    assert path_components(cx) == [[0], [1]]
    cx = cx.attach(1, _edge(0, 1))
    assert path_components(cx) == [[0, 1]]


def test_path_components_loop():
    cx = CellComplex().attach(0)
    cx = cx.attach(1, _edge(0, 0))
    assert path_components(cx) == [[0]]


def test_path_components_interval_three_cells():
    cx = CellComplex().attach(0).attach(0).attach(1, _edge(0, 1))
    assert len(cx) == 3
    assert path_components(cx) == [[0, 1]]


def test_path_components_two_chains():
    cx = CellComplex().attach(0).attach(0).attach(0).attach(0)
    cx = cx.attach(1, _edge(0, 1)).attach(1, _edge(2, 3))
    assert path_components(cx) == [[0, 1], [2, 3]]


def test_path_components_higher_cells_do_not_merge():
    cx = CellComplex().attach(0).attach(0)
    cx = cx.attach(1, _edge(0, 0))

    def wrap(u):
        s = abs(math.atan2(u[1], u[0])) / math.pi
        return ComplexPoint.in_cell(2, np.array([math.cos(math.pi * s),
                                                 math.sin(math.pi * s)]))

    cx = cx.attach(2, wrap)
    assert path_components(cx) == [[0], [1]]
