import math

import numpy as np
import pytest

from difftop.diffeology import (
    MapEvaluator, SmoothCheckConfig, coproduct, d_topology_open_sample,
    euclidean, exponential_alpha, exponential_alpha_inv, functional,
    irrational_torus, product, quotient, smooth_check, subspace,
)
from difftop.diskmodel import DomainError
from difftop.smoothfn import lambda_fn

R = euclidean(1)
ITILDE = quotient(R, lambda x: lambda_fn(float(np.atleast_1d(x)[0])), name="I~")
I_SUB = subspace(R, lambda p: 0.0 <= float(np.atleast_1d(p)[0]) <= 1.0, name="I")
CFG = SmoothCheckConfig()


def _scalar(x):
    return float(np.atleast_1d(x)[0])


def test_product_generator_dimension():
    R2 = product(R, R)
    assert R2.generators[0].dim == 2
    p = R2.generators[0]((0.5, -1.0))
    assert _scalar(p[0]) == 0.5 and _scalar(p[1]) == -1.0


def test_coproduct_points_and_eq():
    C = coproduct(R, R)
    assert C.eq((0, np.array([1.0])), (0, np.array([1.0])))
    assert not C.eq((0, np.array([1.0])), (1, np.array([1.0])))
    tag, _ = C.generators[0]((0.3,))
    assert tag == 0


def test_quotient_of_line_by_lambda():
    # the quotient's chart is the smoothing profile itself
    g = ITILDE.generators[0]
    assert g((0.5,)) == pytest.approx(0.5)
    assert g((-3.0,)) == 0.0
    assert ITILDE.eq(lambda_fn(0.3), lambda_fn(0.3))


def test_subspace_restricts_sampling():
    rng = np.random.default_rng(0)
    for u in I_SUB.generators[0].sample(rng, 20):
        assert 0.0 <= u[0] <= 1.0


def test_smooth_check_accepts_smooth_maps():
    assert smooth_check(MapEvaluator(R, R, lambda x: x, "id"), CFG).passed
    lam = MapEvaluator(R, ITILDE, lambda x: lambda_fn(_scalar(x)), "lambda")
    assert smooth_check(lam, CFG).passed
    incl = MapEvaluator(ITILDE, I_SUB, lambda y: np.array([float(y)]), "incl")
    assert smooth_check(incl, CFG).passed


def test_smooth_check_rejects_kink():
    rep = smooth_check(MapEvaluator(R, R, lambda x: np.abs(x), "abs"), CFG)
    assert not rep.passed
    assert any(r["kind"] == "smoothness" for r in rep.records)


def test_smooth_check_witness_names_the_kinked_coordinate():
    R2 = euclidean(2)
    f = MapEvaluator(R, R2, lambda x: np.array([math.sin(_scalar(x)), abs(_scalar(x))]),
                     "sin_abs")
    rep = smooth_check(f, CFG)
    kinks = [r["witness"] for r in rep.records if r["kind"] == "smoothness"]
    assert not rep.passed and kinks
    assert all(w["coord"] == 1 for w in kinks) and [0.0] in [w["u"] for w in kinks]


def test_smooth_check_inconclusive_never_passes():
    def patchy(x):
        if _scalar(x) > 2.0:
            raise RuntimeError("off the chart")
        return x

    rep = smooth_check(MapEvaluator(R, R, patchy, "patchy"), CFG)
    assert rep.inconclusive
    assert not rep.passed


def test_exponential_alpha_values():
    R2 = product(R, R)
    f = MapEvaluator(R2, R, lambda xy: _scalar(xy[0]) + _scalar(xy[1]), "add")
    g = exponential_alpha(f)
    assert g.fn(np.array([2.0]))(np.array([3.0])) == 5.0
    # projection curries to a constant map
    proj = MapEvaluator(R2, R, lambda xy: xy[0], "fst")
    gp = exponential_alpha(proj)
    x = np.array([1.5])
    assert np.array_equal(gp.fn(x)(np.array([9.0])), x)


def test_exponential_roundtrip_bitwise():
    R2 = product(R, R)
    f = MapEvaluator(R2, R, lambda xy: math.sin(_scalar(xy[0])) * _scalar(xy[1]),
                     "mix")
    f2 = exponential_alpha_inv(exponential_alpha(f), R2, R)
    rng = np.random.default_rng(5)
    for a, b in rng.uniform(-3, 3, size=(200, 2)):
        xy = (np.array([a]), np.array([b]))
        assert f2.fn(xy) == f.fn(xy)


def test_functional_space_is_chartless():
    F = functional(R, R)
    assert F.generators == ()
    assert F.construction == "functional"


def test_functional_space_equality_raises():
    F = functional(R, R)
    with pytest.raises(TypeError):
        F.eq(lambda x: x, lambda x: x)


def test_open_sample_halfopen_interval():
    ok, _ = d_topology_open_sample(ITILDE, lambda y: 0.0 <= float(y) < 0.5,
                                   probes=[np.array([0.2])])
    assert ok


def test_open_sample_full_set():
    ok, _ = d_topology_open_sample(ITILDE, lambda y: True)
    assert ok


def test_open_sample_rejects_singleton():
    ok, wit = d_topology_open_sample(
        R, lambda p: abs(_scalar(p)) < 1e-15, probes=[np.array([0.0])])
    assert not ok and wit


def test_open_sample_rejects_closed_upper_cut():
    ok, _ = d_topology_open_sample(R, lambda p: _scalar(p) <= 0.5,
                                   probes=[np.array([0.5])])
    assert not ok


def test_torus_eq_examples():
    theta = math.sqrt(2.0)
    T = irrational_torus(theta)
    assert T.eq(0.0, theta)
    assert T.eq(0.0, 1.0 + theta)
    assert not T.eq(0.0, 0.5)
    assert T.eq(0.25, 0.25 + 3.0 - 2.0 * theta)


def test_torus_rejects_rational_and_near_rational():
    with pytest.raises(DomainError):
        irrational_torus(0.5)
    with pytest.raises(DomainError):
        irrational_torus(1.0 / 3.0 + 1e-14)


def test_torus_projection_is_smooth():
    T = irrational_torus(math.sqrt(2.0))
    rep = smooth_check(MapEvaluator(R, T, lambda x: _scalar(x), "proj"), CFG)
    assert rep.passed


def test_space_from_json_kinds():
    from difftop.instances import space_from_json, InstanceError
    import pytest as _pytest

    R1 = space_from_json({"kind": "euclidean", "dim": 2})
    assert R1.generators[0].dim == 2
    P = space_from_json({"kind": "product", "factors": [
        {"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 1}]})
    assert P.construction == "product"
    C = space_from_json({"kind": "coproduct", "parts": [
        {"kind": "euclidean", "dim": 1}, {"kind": "euclidean", "dim": 1}]})
    assert C.construction == "coproduct"
    S = space_from_json({"kind": "subspace", "ambient": {"kind": "euclidean", "dim": 1},
                         "lower": [0.0], "upper": [1.0]})
    assert S.construction == "subspace"
    Qt = space_from_json({"kind": "quotient", "ambient": {"kind": "euclidean", "dim": 1}})
    assert Qt.construction == "quotient"
    assert Qt.generators[0]((0.5,)) == pytest.approx(0.5)
    T = space_from_json({"kind": "torus_theta", "theta": math.sqrt(2.0)})
    assert T.construction == "quotient"
    with _pytest.raises(InstanceError):
        space_from_json({"kind": "mystery"})


def test_disk_point_json_roundtrip():
    from difftop.diskmodel import check_disk, point_to_json, random_disk
    import numpy as _np
    w = random_disk(2, _np.random.default_rng(3))
    obj = point_to_json(w)
    assert obj["dim"] == 2
    assert _np.array_equal(check_disk(obj["coords"], obj["dim"]), w)
