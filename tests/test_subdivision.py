import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.diskmodel import DomainError, include_k, q, random_disk, section
from difftop.smoothfn import lambda_fn, lambda_inv, smoothness_check, xi
from difftop.subdivision import (
    L_TOL, PHI_BRANCHES, PHI_INVERSES, CylPoint, in_L, phi_branch, phi_map, psi, psi_inv,
    rho, seam_curve, source_point, target_region,
)

RNG = np.random.default_rng(77)


def test_phi_branch_agreement_at_walls():
    for _ in range(50):
        n = int(RNG.integers(1, 4))
        v = random_disk(n - 1, RNG)
        t = float(RNG.uniform())
        # wall 1/3: branch 1 and 2 both give (q(v, lambda(t/3)), lambda(t))
        d, y = phi_map(n, 1.0 / 3.0, t, v)
        assert np.max(np.abs(d - q(n - 1, v, lambda_fn(t / 3.0)))) < 1e-12
        assert abs(y - lambda_fn(t)) < 1e-12
        # wall 2/3: both give (q(v, lambda(1 - t/3)), lambda(t))
        d, y = phi_map(n, 2.0 / 3.0, t, v)
        assert np.max(np.abs(d - q(n - 1, v, lambda_fn(1.0 - t / 3.0)))) < 1e-12
        assert abs(y - lambda_fn(t)) < 1e-12


def test_phi_middle_branch_at_top():
    v = random_disk(1, RNG)
    d, y = phi_map(2, 0.5, 1.0, v)
    # (3-2t)s + t - 1 at t=1 is s, so the disk slot is lambda(1/2)
    assert np.max(np.abs(d - q(1, v, lambda_fn(0.5)))) < 1e-12
    assert y == 1.0


def test_phi_domain_errors():
    v = random_disk(1, RNG)
    with pytest.raises(DomainError):
        phi_map(2, 1.2, 0.5, v)
    with pytest.raises(DomainError):
        source_point(2, v, 0.5, -0.1)


# s in [1e-3, 1 - 1e-3]: toward s = 0 every t maps near the corner (0, 1),
# and t = a / s loses about 3e-16 / s of its accuracy (likewise at s = 1)
@given(st.one_of(st.floats(1e-3, 1.0 - 1e-3), st.sampled_from([1.0 / 3.0, 2.0 / 3.0])),
       st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
@settings(max_examples=300, deadline=None)
def test_phi_inverses_invert_phi_branches(s, t):
    k = phi_branch(s)
    a, b = PHI_BRANCHES[k](s, t)
    j = target_region(a, b)
    s1, t1 = PHI_INVERSES[j](a, b)
    assert abs(s1 - s) <= 1e-12 and abs(t1 - t) <= 1e-12
    # the float rules and their array forms pick the same index
    assert phi_branch(np.array([s]))[0] == k
    assert target_region(np.array([a]), np.array([b]))[0] == j


def test_target_region_walls_join_the_outer_regions():
    assert target_region(0.0, 0.0) == 0 and target_region(1.0, 0.0) == 2
    # at b = 1 the walls are 1/3 and 1 - 1/3, one ulp above 2/3
    assert target_region(1.0 / 3.0, 1.0) == 0
    assert target_region(1.0 - 1.0 / 3.0, 1.0) == 2
    assert target_region(0.5, 0.5) == 1
    assert list(target_region(np.array([0.0, 0.5, 1.0]), np.zeros(3))) == [0, 1, 2]


def test_phi_inverse_corner_has_time_zero():
    # a = 0, b = 1: the cylinder top over the boundary, where s = 0
    assert target_region(0.0, 1.0) == 0
    assert PHI_INVERSES[0](0.0, 1.0) == (0.0, 0.0)
    s, t = PHI_INVERSES[0](np.array([0.0, 0.1]), np.array([1.0, 1.0]))
    assert s[0] == t[0] == 0.0 and t[1] == pytest.approx(1.0)


def test_phi_branch_walls_join_the_slab_below():
    assert phi_branch(1.0 / 3.0) == 0 and phi_branch(2.0 / 3.0) == 1
    assert phi_branch(0.0) == 0 and phi_branch(0.5) == 1 and phi_branch(1.0) == 2
    assert list(phi_branch(np.array([1.0 / 3.0, 2.0 / 3.0]))) == [0, 1]


def test_rho_fixes_identity_bands():
    for s in (0.05, 0.1, 0.16, 0.87, 0.95):
        w = source_point(2, random_disk(1, RNG), s, float(RNG.uniform()))
        assert np.max(np.abs(rho(2, w) - w)) < 1e-10


def test_rho_fixes_center():
    w = source_point(2, random_disk(1, RNG), 0.5, 0.3)
    assert np.max(np.abs(rho(2, w) - w)) < 1e-10


def test_rho_moves_blend_band():
    # xi(0.25) != 0.25, so rho genuinely moves this band
    w = source_point(2, random_disk(1, RNG), 0.25, 0.4)
    r1 = rho(2, w)
    r2 = rho(2, r1)
    assert np.max(np.abs(r1 - w)) > 1e-6
    assert np.max(np.abs(r2 - r1)) > 1e-6  # not idempotent
    assert xi(0.25) != 0.25


def test_psi0_is_chart_inverse():
    t = 0.25
    w = np.array([math.cos(math.pi * t), math.sin(math.pi * t)])
    c = psi(0, w)
    assert np.allclose(c.disk, [1.0])
    assert c.time == pytest.approx(t, abs=1e-14)
    assert np.max(np.abs(psi_inv(0, CylPoint(np.array([1.0]), t)) - w)) < 1e-14


def test_psi_boundary_display():
    # time-zero slice: s=1/2 gives (q(v, lambda(1/2)), 0)
    for n in (1, 2, 3):
        v = random_disk(n - 1, RNG)
        w = source_point(n, v, 0.5, 0.0)
        c = psi(n, w)
        assert abs(c.time) < 1e-12
        assert np.max(np.abs(c.disk - q(n - 1, v, lambda_fn(0.5)))) < 1e-10
        # s=0.1 is in the identity band: (q(v,0), lambda(0.7))
        w = source_point(n, v, 0.1, 0.0)
        c = psi(n, w)
        assert np.max(np.abs(c.disk - q(n - 1, v, 0.0))) < 1e-10
        assert c.time == pytest.approx(lambda_fn(0.7), abs=1e-10)


def test_psi_boundary_lands_in_L():
    for _ in range(100):
        n = int(RNG.integers(1, 4))
        w = include_k(n, random_disk(n, RNG))
        assert in_L(n, psi(n, w))


def test_psi_roundtrip_both_ways():
    for _ in range(300):
        n = int(RNG.integers(0, 4))
        w = random_disk(n + 1, RNG)
        w2 = psi_inv(n, psi(n, w))
        d = np.max(np.abs(w2 - w))
        if d > 1e-8:
            # certified wrinkle collapse: images must be bit-close
            c1, c2 = psi(n, w), psi(n, w2)
            assert np.max(np.abs(c1.disk - c2.disk)) < 1e-11
            assert abs(c1.time - c2.time) < 1e-11
        c = CylPoint(random_disk(n, RNG), float(RNG.uniform()))
        c2 = psi(n, psi_inv(n, c))
        assert np.max(np.abs(c2.disk - c.disk)) < 1e-8
        assert abs(c2.time - c.time) < 1e-8


def test_psi_inv_boundary_example():
    # the time-zero cylinder point over the middle band comes back at s = 1/2
    n = 2
    v = random_disk(n - 1, RNG)
    c = CylPoint(q(n - 1, v, lambda_fn(0.5)), 0.0)
    w = psi_inv(n, c)
    cc = section(n + 1, w)
    assert lambda_inv(cc[n - 1]) == pytest.approx(0.5, abs=1e-9)


def test_psi_inv_domain_errors():
    with pytest.raises(DomainError):
        psi_inv(1, CylPoint(np.array([1.0, 0.0]), 1.5))
    with pytest.raises(DomainError):
        psi_inv(1, CylPoint(np.array([5.0, 0.0]), 0.5))


def _bad_points(dim):
    """Points that violate disk^dim membership, one per kind of fault."""
    w = np.full(dim + 1, 1.0 / math.sqrt(dim + 1))
    nan = w.copy()
    nan[0] = math.nan
    lower = w.copy()
    lower[-1] = -lower[-1]
    return {"wrong_length": np.append(w, 0.0), "off_sphere": 1.5 * w,
            "nan": nan, "lower_hemisphere": lower}


@pytest.mark.parametrize("kind", ["wrong_length", "off_sphere", "nan",
                                  "lower_hemisphere"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_membership_contract(n, kind):
    # one check per input array remains, and it rejects every kind of fault
    with pytest.raises(DomainError):
        psi(n, _bad_points(n + 1)[kind])
    with pytest.raises(DomainError):
        psi_inv(n, CylPoint(_bad_points(n)[kind], 0.5))
    with pytest.raises(DomainError):
        rho(n, _bad_points(n + 1)[kind])
    if n >= 1:  # phi_map's v lives in disk^(n-1)
        with pytest.raises(DomainError):
            phi_map(n, 0.5, 0.5, _bad_points(n - 1)[kind])


def test_in_L_examples():
    assert in_L(1, CylPoint(np.array([0.6, 0.8]), 0.0))
    assert in_L(1, CylPoint(np.array([1.0, 0.0]), 0.7))
    assert not in_L(1, CylPoint(np.array([math.cos(1.0), math.sin(1.0)]), 0.5))


def _near(v):
    """v and the floats one ulp either side of it."""
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# times and last coordinates at the edges of L^n's slack
EDGES = sorted({x for v in (0.0, L_TOL, -L_TOL) for x in _near(v)} | {-0.0}) + [
    math.nan, math.inf, -math.inf]


@given(st.integers(0, 3), st.sampled_from(EDGES) | st.floats(-1.0, 1.0),
       st.sampled_from(EDGES) | st.floats(-1.0, 2.0), st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_in_L_of_a_point_is_a_bool_equal_to_its_row_verdict(n, last, time, head):
    """One point is decided by the rule that decides rows, and gives a
    Python bool; the disk need not be on the sphere, in_L reads its last
    coordinate only."""
    disk = np.array([head] * n + [last])
    verdict = in_L(n, CylPoint(disk, time))
    assert type(verdict) is bool
    rows = in_L(n, CylPoint(disk[None], np.array([time])))
    assert rows.shape == (1,) and verdict == bool(rows[0])
    assert verdict == (time <= L_TOL or abs(last) <= L_TOL)


def test_seam_smoothness_with_and_without_wrinkle():
    n = 2
    v = random_disk(n - 1, RNG)
    t = 0.45
    for seam in (1.0 / 3.0, 2.0 / 3.0):
        assert smoothness_check(seam_curve(n, v, t, True), seam, 3).passed
        assert smoothness_check(seam_curve(n, v, t, False), seam, 1).verdicts[1] == "fail"


@given(st.integers(1, 3), st.sampled_from([1.0 / 3.0, 2.0 / 3.0]),
       st.floats(0.05, 0.95), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vector_seam_check_matches_per_coordinate_checks(n, seam, t, wrinkle, seed):
    # the scalar check of each coordinate is the reference for the one
    # vector check: an order fails when some coordinate fails, and the
    # report carries the deciding coordinate's estimates bit for bit
    curve = seam_curve(n, random_disk(n - 1, np.random.default_rng(seed)), t, wrinkle)
    rep = smoothness_check(curve, seam, 3)
    coords = [smoothness_check(lambda s, j=j: curve(s)[j], seam, 3)
              for j in range(len(curve(seam)))]
    for k in (1, 2, 3):
        failing = [c for c in coords if c.verdicts[k] == "fail"]
        assert rep.verdicts[k] == ("fail" if failing else "pass")
        assert rep.deviations[k] == max(c.deviations[k] for c in failing or coords)
        ref = coords[rep.component[k]]
        assert (rep.fd_estimates[k], rep.side_estimates[k], rep.deviations[k]) == (
            ref.fd_estimates[k], ref.side_estimates[k], ref.deviations[k])
