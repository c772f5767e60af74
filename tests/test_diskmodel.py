import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.diskmodel import (
    DomainError, Q, check_disk, gen_plot, include_j, include_k, q,
    random_disk, random_sphere, reflect, retract, retract_homotopy, section,
)
from difftop.smoothfn import lambda_inv

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
