import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.diskmodel import (
    POINT_TOL, DomainError, Q, check_disk, check_sphere, gen_plot, include_j, include_k,
    max_dev, q, random_disk, random_sphere, reflect, retract, retract_homotopy, section,
)
from difftop.smoothfn import lambda_inv
from difftop.subdivision import CylPoint

RNG = np.random.default_rng(1234)


def test_q_on_the_point_disk():
    t = 0.3
    assert np.allclose(q(0, [1.0], t),
                       [math.cos(math.pi * t), math.sin(math.pi * t)])


def test_q_restricts_to_inclusion_at_zero():
    v = random_disk(2, RNG)
    assert np.array_equal(q(2, v, 0.0), np.concatenate([v, [0.0]]))


def test_q_spec_point():
    assert np.allclose(q(1, [0.0, 1.0], 0.5), [0.0, 0.0, 1.0], atol=1e-15)


def test_q_rejects_bad_points():
    with pytest.raises(DomainError):
        q(1, [0.5, 0.2], 0.3)          # not unit norm
    with pytest.raises(DomainError):
        q(1, [0.6, -0.8], 0.3)         # lower hemisphere


def test_Q_values():
    assert np.allclose(Q(1, [0.0]), [1.0, 0.0])
    assert np.allclose(Q(2, [0.5, 0.5]), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(Q(2, [0.5, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(Q(0, []), [1.0])


def test_gen_plot_saturates():
    assert np.allclose(gen_plot(1, [-5.0]), [1.0, 0.0])
    assert np.allclose(gen_plot(1, [7.0]), [-1.0, 0.0], atol=1e-15)
    assert np.allclose(gen_plot(2, [0.5, 0.5]), [0.0, 0.0, 1.0], atol=1e-15)


def test_section_examples():
    assert np.allclose(section(1, [1.0, 0.0]), [0.0])
    assert np.allclose(section(2, [0.0, 0.0, 1.0]), [0.5, 0.5])


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_section_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    w = random_disk(n, rng)
    assert np.max(np.abs(Q(n, section(n, w)) - w)) < 1e-10


def test_section_pole_convention():
    t = section(2, [1.0, 0.0, 0.0])
    assert np.array_equal(t, [0.0, 0.0])


def test_include_j_examples():
    assert np.allclose(include_j(1, [1.0]), [1.0, 0.0])
    assert np.allclose(include_j(1, [-1.0]), [-1.0, 0.0])
    assert np.allclose(include_j(2, [0.0, 1.0]), [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        include_j(1, [0.5])


def test_include_k_agrees_with_q_at_zero():
    for n in range(0, 4):
        w = random_disk(n, RNG)
        assert np.array_equal(include_k(n, w), q(n, w, 0.0))


def test_reflect_involution_and_equator():
    assert np.allclose(reflect(1, [0.0, 1.0]), [0.0, -1.0])
    w = random_disk(2, RNG)
    assert np.array_equal(reflect(2, reflect(2, w)), w)
    assert np.allclose(reflect(1, [1.0, 0.0]), [1.0, 0.0])


def test_retract_identity_on_slice():
    for n in range(0, 4):
        w = random_disk(n, RNG)
        assert np.max(np.abs(retract(n, include_k(n, w)) - w)) < 1e-10


def test_retract_point_case():
    t = 0.37
    w = np.array([math.cos(math.pi * t), math.sin(math.pi * t)])
    assert np.allclose(retract(0, w), [1.0])


def test_retract_spec_point():
    assert np.allclose(retract(1, [0.0, 0.0, 1.0]), [0.0, 1.0], atol=1e-15)


def test_retract_homotopy_endpoints():
    w = random_disk(3, RNG)
    assert np.max(np.abs(retract_homotopy(2, w, 0.0) - w)) < 1e-12
    end = include_k(2, retract(2, w))
    assert np.max(np.abs(retract_homotopy(2, w, 1.0) - end)) < 1e-10


def test_retract_homotopy_halfway_point():
    s_half = lambda_inv(0.5)
    got = retract_homotopy(0, np.array([0.0, 1.0]), s_half)
    assert np.allclose(got, [math.cos(math.pi / 4), math.sin(math.pi / 4)])


def test_outputs_stay_unit_norm():
    for _ in range(100):
        n = int(RNG.integers(1, 4))
        w = gen_plot(n, RNG.uniform(-2, 3, size=n))
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert w[-1] >= -1e-12


def test_random_sphere_is_full_sphere():
    pts = [random_sphere(2, RNG) for _ in range(200)]
    assert any(p[-1] < 0 for p in pts) and any(p[-1] > 0 for p in pts)


def test_check_disk_dim_mismatch():
    with pytest.raises(DomainError):
        check_disk([1.0, 0.0], n=2)


def test_check_disk_rejects_non_finite():
    with pytest.raises(DomainError, match="non-finite"):
        check_disk([float("nan"), 0.0], 1)


def test_random_samplers_reject_empty_spheres():
    for n in (0, -1):
        with pytest.raises(DomainError):
            random_sphere(n, RNG)
    with pytest.raises(DomainError):
        random_disk(-1, RNG)


def test_max_dev_is_the_largest_coordinate_difference():
    # a (base, fiber) point is the concatenation of its flattened parts
    assert max_dev((0.5, np.array([1.0, 2.0])), (0.25, np.array([1.0, 2.5]))) == 0.5
    assert max_dev((0.5, np.array([1.0])), np.array([0.5, 1.0])) == 0.0
    assert max_dev(CylPoint(np.array([0.6, 0.8]), 0.25),
                   CylPoint(np.array([0.6, 0.8]), 0.75)) == 0.5
    assert max_dev(3.0, [3.0]) == 0.0
    assert max_dev((), np.zeros(0)) == 0.0
    assert max_dev([math.inf], [-math.inf]) == math.inf


@pytest.mark.parametrize("a,b", [
    (np.array([1.0, 2.0]), np.array([1.0])),           # shapes differ
    ((0.5, np.array([1.0])), (0.5, 1.0, 2.0)),
    (np.array([1.0, math.nan]), np.array([1.0, 2.0])),  # NaN propagates
    ((math.nan, np.array([1.0])), (0.0, np.array([1.0]))),
    ([math.inf], [math.inf]),                           # inf - inf, without a warning
])
def test_max_dev_is_nan_where_points_cannot_agree(a, b):
    d = max_dev(a, b)
    assert math.isnan(d) and not d <= 1.0 and not d > 1.0


# ---------------------------------------------------------------------------
# bit identity with the numpy formulation of the charts
# ---------------------------------------------------------------------------

def ref_check_sphere(v):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("non-finite")
    if abs(np.linalg.norm(v) - 1.0) > POINT_TOL:
        raise DomainError("norm")
    return v


def ref_check_disk(w, n=None):
    w = np.asarray(w, dtype=float)
    if n is not None and len(w) != n + 1:
        raise DomainError("length")
    ref_check_sphere(w)
    if w[-1] < -POINT_TOL:
        raise DomainError("hemisphere")
    return w


def ref_q(n, v, t):
    v = ref_check_disk(v, n)
    c, s = math.cos(math.pi * t), math.sin(math.pi * t)
    return np.concatenate([v[:-1], [v[-1] * c, v[-1] * s]])


def ref_Q(n, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(t) != n:
        raise DomainError("length")
    w = np.array([1.0])
    for i in range(n):
        c, s = math.cos(math.pi * t[i]), math.sin(math.pi * t[i])
        w = np.concatenate([w[:-1], [w[-1] * c, w[-1] * s]])
    return w


def ref_section(n, w):
    w = ref_check_disk(w, n)
    t = np.zeros(n)
    for i in range(n - 1):
        rest = float(np.linalg.norm(w[i + 1:]))
        t[i] = math.atan2(rest, w[i]) / math.pi
        if rest == 0.0:
            return t
    if n >= 1:
        t[n - 1] = math.atan2(abs(w[n]), w[n - 1]) / math.pi
    return t


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()


def outcome(fn, *args):
    """fn's result, or the DomainError class if it raised one."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def assert_same_outcome(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    if want is DomainError:
        assert got is DomainError
    else:
        assert same(got, want)


# cube coordinates with the equator and the fold points t = 0, 1/2, 1 common
cube = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
# coordinates with exact zeros common, so that tails of a point vanish (poles)
coord = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0]),
                  st.floats(-1.0, 1.0, allow_subnormal=False))


def unit(v, axis):
    """v normalized; the unit vector along axis when |v| is too small to
    normalize to within the membership slack (its square is subnormal)."""
    r = np.linalg.norm(v)
    return v / r if r > 1e-150 else np.eye(len(v))[axis]


@st.composite
def disk_points(draw):
    """(n, w): w the normalized draw, its last coordinate made >= 0."""
    n = draw(st.integers(0, 4))
    v = unit(np.array(draw(st.lists(coord, min_size=n + 1, max_size=n + 1))),
             draw(st.integers(0, n)))
    if draw(st.booleans()):
        v[-1] = 0.0                                     # the equator
        v = unit(v, 0)
    v[-1] = abs(v[-1])
    return n, v


@given(disk_points(), cube)
@settings(max_examples=400, deadline=None)
def test_charts_match_numpy_reference_bit_for_bit(nw, t):
    n, w = nw
    assert_same_outcome(check_disk, ref_check_disk, w, n)
    assert_same_outcome(check_sphere, ref_check_sphere, w)
    assert_same_outcome(section, ref_section, n, w)
    assert_same_outcome(q, ref_q, n, w, t)
    assert_same_outcome(Q, ref_Q, n, ref_section(n, w))
    assert_same_outcome(Q, ref_Q, n, [t] * n)


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_membership_matches_numpy_reference_off_the_sphere(v):
    # mostly off the sphere: both must reject, or both accept the same array
    assert_same_outcome(check_sphere, ref_check_sphere, v)
    assert_same_outcome(check_disk, ref_check_disk, v, len(v) - 1)


def test_strided_points_match_numpy_reference():
    # BLAS sums a strided array of length >= 4 in another order than a
    # contiguous one; np.linalg.norm sums a contiguous copy
    rng = np.random.default_rng(5)
    for n in range(5):
        for w in rng.standard_normal((400, n + 1)):
            w[-1] = abs(w[-1])
            w = np.repeat(w / np.linalg.norm(w), 2)[::2]
            assert same(check_disk(w, n), ref_check_disk(w, n))
            assert same(section(n, w), ref_section(n, w))


def test_poles_keep_the_zero_tail_convention():
    for n in range(5):
        for i in range(n + 1):
            for sign in (1.0, -1.0):
                w = np.zeros(n + 1)
                w[i] = sign if i < n else 1.0
                assert same(section(n, w), ref_section(n, w))
                assert same(Q(n, section(n, w)), ref_Q(n, ref_section(n, w)))


# ---------------------------------------------------------------------------
# the membership contract
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
NON_FINITE = [[NAN, 0.0, 1.0], [INF, 0.0, 0.0], [0.0, -INF, 0.0],
              [INF, NAN, 0.0]]
OVERFLOW = [1e200, 1e200, 1e200]   # finite, but its squares overflow
OFF_SPHERE = [0.5, 0.2, 0.1]
DISK_CHECKS = {
    "check_disk": lambda w: check_disk(w, 2),
    "section": lambda w: section(2, w),
    "q": lambda w: q(2, w, 0.5),
    "include_k": lambda w: include_k(2, w),
}
SPHERE_CHECKS = {"check_sphere": check_sphere, "include_j": lambda v: include_j(3, v)}


@pytest.mark.parametrize("name", [*DISK_CHECKS, *SPHERE_CHECKS])
@pytest.mark.parametrize("point", NON_FINITE)
def test_non_finite_points_are_rejected_as_non_finite(name, point):
    fn = {**DISK_CHECKS, **SPHERE_CHECKS}[name]
    with pytest.raises(DomainError, match="non-finite"):
        fn(point)


# the BLAS dot behind the norm warns when the squares overflow, as
# np.linalg.norm does; the point is still rejected
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("name", [*DISK_CHECKS, *SPHERE_CHECKS])
@pytest.mark.parametrize("point", [OVERFLOW, OFF_SPHERE])
def test_points_off_the_sphere_are_rejected(name, point):
    fn = {**DISK_CHECKS, **SPHERE_CHECKS}[name]
    with pytest.raises(DomainError, match="is not 1 within"):
        fn(point)


@pytest.mark.parametrize("name", DISK_CHECKS)
@pytest.mark.parametrize("point,match", [
    ([0.6, 0.0, -0.8], "upper hemisphere"),
    ([0.6, 0.8], "expected dim 2"),
])
def test_disk_checks_reject_lower_hemisphere_and_wrong_length(name, point, match):
    with pytest.raises(DomainError, match=match):
        DISK_CHECKS[name](point)


def test_Q_and_include_j_reject_wrong_lengths():
    with pytest.raises(DomainError, match="expected 2 cube coordinates"):
        Q(2, [0.5])
    with pytest.raises(DomainError, match="expected a sphere point in R"):
        include_j(2, [0.6, 0.0, 0.8])
