import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop import diffeology
from difftop.diffeology import (
    COEFF_BOUND, WINDOW, MapEvaluator, SmoothCheckConfig, coproduct, d_topology_open_sample,
    euclidean, exponential_alpha, exponential_alpha_inv, functional,
    irrational_torus, product, quotient, smooth_check, subspace,
)
from difftop.diskmodel import EQ_TOL, DomainError
from difftop.smoothfn import lambda_fn, lambda_inv, smoothness_check


def _scalar(x):
    return float(np.atleast_1d(x)[0])


R = euclidean(1)
ITILDE = quotient(R, lambda x: lambda_fn(_scalar(x)), name="I~", lift=lambda_inv)
# the same quotient inverting its chart by the default scan
ITILDE_SCAN = quotient(R, lambda x: lambda_fn(_scalar(x)), name="I~ scan")
I_SUB = subspace(R, lambda p: 0.0 <= _scalar(p) <= 1.0, name="I")
TORUS = irrational_torus(math.sqrt(2.0))
CFG = SmoothCheckConfig()


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


def test_euclidean_eq_is_an_absolute_slack():
    assert R.eq([1.0], [1.0 + 5e-10])
    assert not R.eq([1.0], [1.0 + 5e-6])
    assert not R.eq([1.0], [1.0, 1.0])  # no broadcasting


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


def test_smooth_check_rejects_images_outside_a_subspace():
    # the identity R -> I leaves I = [0, 1]; I's chart is R's chart restricted
    rep = smooth_check(MapEvaluator(R, I_SUB, lambda x: x, "id"), CFG)
    assert not rep.passed
    images = [r["witness"]["image"][0] for r in rep.records]
    assert images and all(r["kind"] == "factorization" for r in rep.records)
    assert all(not 0.0 <= y <= 1.0 for y in images)


@pytest.mark.parametrize("shift", [3.0, 7.0, 40.0])
def test_smooth_check_accepts_shifts_into_the_torus(shift):
    # x + shift is the projection R -> T after a translation; a shift by
    # m + n*theta leaves the chart window but not the torus
    rep = smooth_check(MapEvaluator(R, TORUS, lambda x: _scalar(x) + shift, "shift"), CFG)
    assert rep.passed, rep.records


@pytest.mark.parametrize("target, fn", [
    (product(R, R), lambda x: (x, x)),
    (coproduct(R, R), lambda x: (0, x)),
    (coproduct(R, R), lambda x: (1, x)),
], ids=["diagonal", "inject_left", "inject_right"])
def test_smooth_check_accepts_maps_into_products_and_coproducts(target, fn):
    rep = smooth_check(MapEvaluator(R, target, fn, "f"), CFG)
    assert rep.passed, rep.records


STEP = quotient(R, lambda x: float(_scalar(x) > 0.0), name="R/step")


@pytest.mark.parametrize("target, fn", [
    # 2.0 is no value of lambda, so the constant map 2.0 misses I~
    (ITILDE, lambda x: 2.0),
    (ITILDE_SCAN, lambda x: 2.0),
    # step - 1/2 changes sign at 0 without a root: the scan's bracket
    # holds no preimage, and the target's eq must say so
    (STEP, lambda x: 0.5),
    # R^1's one chart is defined on the window box (-5, 5) only, so a
    # parameter the inverse finds outside it is no witness
    (R, lambda x: x + 7.0),
], ids=["off_quotient_lift", "off_quotient_scan", "scan_bracket_jump", "outside_window"])
def test_smooth_check_rejects_images_on_no_chart(target, fn):
    rep = smooth_check(MapEvaluator(R, target, fn, "f"), CFG)
    assert not rep.passed and not rep.inconclusive
    assert rep.records and all(r["kind"] == "factorization" for r in rep.records)


def test_liftless_quotient_needs_one_dimensional_charts():
    with pytest.raises(TypeError):
        quotient(euclidean(2), lambda p: p)
    quotient(euclidean(2), lambda p: p, lift=lambda y: y)


SPACES = [euclidean(1), euclidean(2), euclidean(3), I_SUB, product(R, ITILDE),
          coproduct(R, euclidean(2)), ITILDE, ITILDE_SCAN, TORUS]
CHARTS = [(X, g) for X in SPACES for g in X.generators]


@pytest.mark.parametrize("space, g", CHARTS,
                         ids=[f"{X.name}-{i}" for i, (X, _) in enumerate(CHARTS)])
@given(data=st.data())
@settings(max_examples=150, deadline=None, database=None)
def test_chart_inverse_round_trip(space, g, data):
    u = np.array([data.draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
                  for lo, hi in zip(g.lo, g.hi)])
    p = g.fn(u)
    assert space.eq(g.fn(g.inverse(p)), p)


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


@pytest.mark.parametrize("target,fn,coord", [
    (R, lambda x: np.abs(x), 0),
    (product(R, R), lambda x: (np.sin(x), np.abs(x)), 1),
], ids=["abs", "product"])
def test_smooth_check_records_keep_the_bits_of_the_array_composite(target, fn, coord):
    # abs on R is probed on floats, the map into R x R on arrays; each
    # failure record is what smoothness_check reports on the array-valued
    # composite along the record's line
    f = MapEvaluator(R, target, fn, "kinked")
    rep = smooth_check(f, CFG)
    kinks = [r["witness"] for r in rep.records if r["kind"] == "smoothness"]
    assert not rep.passed and [0.0] in [w["u"] for w in kinks]
    for w in kinks:
        gen, u, d = R.generators[w["generator"]], np.array(w["u"]), np.array(w["direction"])
        want = smoothness_check(lambda s: target.flatten(fn(gen.fn(u + s * d))), 0.0, 1)
        assert w["coord"] == want.component[1] == coord
        assert w["estimates"] == want.side_estimates
        assert repr(w["estimates"]) == repr(want.side_estimates)


def test_a_one_coordinate_image_is_probed_on_floats(monkeypatch):
    # the lifted R -> I~ chart still passes, with one probe per sample
    values = []

    def recording(f, point, max_order):
        values.append(f(point))
        return smoothness_check(f, point, max_order)

    monkeypatch.setattr(diffeology, "smoothness_check", recording)
    assert smooth_check(MapEvaluator(R, ITILDE, lambda x: lambda_fn(_scalar(x)), "lam"),
                        CFG).passed
    assert len(values) == 11 and all(type(v) is float for v in values)
    values.clear()
    smooth_check(MapEvaluator(R, product(R, R), lambda x: (x, x), "diagonal"), CFG)
    assert len(values) == 11 and all(v.shape == (2,) for v in values)


def test_smooth_check_probes_axes_and_random_directions_only_above_one_dimension(
        monkeypatch):
    # 5 grid + 6 sampled parameters on R, 25 + 6 on R^2; R^1's only unit
    # directions are +-1, so a 1-D chart is probed once per sample
    probes = []

    def counting(f, point, max_order):
        probes.append(point)
        return smoothness_check(f, point, max_order)

    monkeypatch.setattr(diffeology, "smoothness_check", counting)
    assert smooth_check(MapEvaluator(R, R, lambda x: x, "id"), CFG).passed
    assert len(probes) == 11
    probes.clear()
    R2 = product(R, R)
    f = MapEvaluator(R2, R, lambda xy: math.sin(_scalar(xy[0])) * math.cos(_scalar(xy[1])),
                     "sin_cos")
    assert smooth_check(f, CFG).passed
    assert len(probes) == 31 * (2 + 2)


def test_smooth_check_inconclusive_never_passes():
    def patchy(x):
        if _scalar(x) > 2.0:
            raise RuntimeError("off the chart")
        return x

    rep = smooth_check(MapEvaluator(R, R, patchy, "patchy"), CFG)
    assert rep.inconclusive
    assert not rep.passed


def test_smooth_check_without_samples_is_inconclusive():
    # a kink on a subspace too thin for any grid or sampled parameter
    thin = subspace(R, lambda p: abs(_scalar(p) - 0.3) < 1e-6)
    rep = smooth_check(MapEvaluator(thin, R, lambda x: np.abs(x - 0.3), "kink"), CFG)
    assert rep.inconclusive and not rep.passed
    assert rep.records == [{"kind": "no_samples", "witness": {"generator": 0}}]


def test_smooth_check_of_a_source_without_generators_is_inconclusive():
    source = functional(R, R)
    rep = smooth_check(MapEvaluator(source, R, lambda f: 0.0, "const"), CFG)
    assert rep.inconclusive and not rep.passed
    assert rep.records == [{"kind": "no_samples", "witness": {"source": source.name}}]


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


def _torus_eq_by_scan(theta, x, y):
    """Some integers |m|, |n| <= COEFF_BOUND with |x - y - n theta - m| < EQ_TOL."""
    d = float(x) - float(y)
    return any(abs(d - nn * theta - m) < EQ_TOL
               for nn in range(-COEFF_BOUND, COEFF_BOUND + 1)
               for m in range(-COEFF_BOUND, COEFF_BOUND + 1))


@pytest.mark.parametrize("theta", [math.sqrt(2.0), (math.sqrt(5.0) - 1.0) / 2.0, -math.pi])
def test_torus_eq_agrees_with_a_scan_of_every_shift(theta):
    T = irrational_torus(theta)
    rng = np.random.default_rng(17)
    bound = COEFF_BOUND
    coeffs = [-bound - 1, -bound, -1, 0, 1, bound, bound + 1]
    offsets = [0.0, EQ_TOL, -EQ_TOL, 0.25]
    offsets += [s * EQ_TOL + e for s in (1, -1) for e in (-1e-12, -1e-13, 1e-13, 1e-12)]
    pairs = []
    for _ in range(120):
        m = int(rng.choice(coeffs)) if rng.uniform() < 0.5 else int(rng.integers(-bound, bound + 1))
        nn = int(rng.choice(coeffs)) if rng.uniform() < 0.5 else int(rng.integers(-bound, bound + 1))
        off = float(rng.choice(offsets)) if rng.uniform() < 0.8 else float(rng.uniform(-1, 1))
        y = float(rng.uniform(-5.0, 5.0))
        pairs.append((y + m + nn * theta + off, y))
    verdicts = [T.eq(x, y) for x, y in pairs]
    assert verdicts == [_torus_eq_by_scan(theta, x, y) for x, y in pairs]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("theta", [math.sqrt(2.0), -math.pi])
def test_torus_eq_on_arrays_is_eq_pair_by_pair(theta):
    T = irrational_torus(theta)
    rng = np.random.default_rng(29)
    y = rng.uniform(-5.0, 5.0, size=(3, 20))
    m, nn = rng.integers(-COEFF_BOUND - 2, COEFF_BOUND + 3, size=(2, 3, 20))
    off = rng.choice([0.0, 0.5 * EQ_TOL, -EQ_TOL, 2 * EQ_TOL, 0.25], size=y.shape)
    x = y + m + nn * theta + off
    got = T.eq(x, y)
    assert got.shape == y.shape
    assert got.tolist() == [[T.eq(a, b) for a, b in zip(*row)] for row in zip(x, y)]
    assert got.tolist() == [[_torus_eq_by_scan(theta, a, b) for a, b in zip(*row)]
                            for row in zip(x, y)]
    assert got.any() and not got.all()


@pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0),
                                  (math.inf, math.inf), (math.nan, math.nan), (1e308, -1e308)])
def test_torus_eq_calls_a_non_finite_point_unequal(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TORUS.eq(x, y) is False
        assert TORUS.eq(np.array([x, 1.0]), np.array([y, 1.0])).tolist() == [False, True]


def _torus_inverse_by_scan(theta, x):
    """The first shift m + n*theta, smallest |n| first, that moves x into the window."""
    for nn in sorted(range(-COEFF_BOUND, COEFF_BOUND + 1), key=abs):
        u = x - nn * theta - max(-COEFF_BOUND, min(COEFF_BOUND, round(x - nn * theta)))
        if -WINDOW < u < WINDOW:
            return u
    return None


@pytest.mark.parametrize("theta", [math.sqrt(2.0), (math.sqrt(5.0) - 1.0) / 2.0, -math.pi])
def test_torus_chart_inverse_agrees_with_a_scan_of_the_shifts(theta):
    inverse = irrational_torus(theta).generators[0].inverse
    xs = np.random.default_rng(41).uniform(-250.0, 250.0, size=300).tolist()
    for x in xs + [-WINDOW, WINDOW, 0.0, theta]:
        want = _torus_inverse_by_scan(theta, x)
        if want is None:
            with pytest.raises(ValueError, match="no shift"):
                inverse(x)
        else:
            assert inverse(x).tolist() == [want]


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_torus_chart_inverse_rejects_a_non_finite_point(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no shift"):
            TORUS.generators[0].inverse(x)


@pytest.mark.parametrize("theta, q", [(0.5, 2), (2.0 / 3.0, 3), (0.1, 10), (-7.0, 1), (1e308, 1)])
def test_torus_names_the_smallest_denominator(theta, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"\(denominator {q}\)"):
            irrational_torus(theta)


def test_torus_rejects_rational_and_near_rational():
    with pytest.raises(DomainError):
        irrational_torus(0.5)
    with pytest.raises(DomainError):
        irrational_torus(1.0 / 3.0 + 1e-14)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_torus_rejects_a_non_finite_slope(theta):
    with pytest.raises(DomainError, match="theta=.*not a finite"):
        irrational_torus(theta)


def test_torus_projection_is_smooth():
    rep = smooth_check(MapEvaluator(R, TORUS, lambda x: _scalar(x), "proj"), CFG)
    assert rep.passed


def test_disk_point_json_roundtrip():
    from difftop.diskmodel import check_disk, point_to_json, random_disk
    import numpy as _np
    w = random_disk(2, _np.random.default_rng(3))
    obj = point_to_json(w)
    assert obj["dim"] == 2
    assert _np.array_equal(check_disk(obj["coords"], obj["dim"]), w)
