import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.smoothfn import (
    FDConfig, fd_weights, gamma, lambda_fn, lambda_inv,
    smoothness_check, xi, xi_inv,
)


def gamma_deriv(t):
    """Closed-form first derivative of gamma."""
    if t <= 0.0:
        return 0.0
    return math.exp(-1.0 / t) / (t * t)


def lambda_deriv(t):
    """Closed-form first derivative of lambda_fn (0 outside (0,1))."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    g, gc = gamma(t), gamma(1.0 - t)
    dg, dgc = gamma_deriv(t), gamma_deriv(1.0 - t)
    return (dg * gc + g * dgc) / (g + gc) ** 2


def test_gamma_values():
    assert gamma(-2.0) == 0.0
    assert gamma(0.0) == 0.0
    assert gamma(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert gamma(0.5) > 0.0


def test_gamma_increasing_on_positive_axis():
    ts = np.linspace(1e-3, 5.0, 500)
    vals = [gamma(t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gamma_deriv_matches_fd():
    for t in (0.3, 0.7, 1.5):
        est = smoothness_check(gamma, t, 1).fd_estimates[1]
        assert est == pytest.approx(gamma_deriv(t), rel=1e-8)
    assert gamma_deriv(-1.0) == 0.0


def test_lambda_plateaus_and_midpoint():
    assert lambda_fn(-1.0) == 0.0
    assert lambda_fn(0.0) == 0.0
    assert lambda_fn(1.0) == 1.0
    assert lambda_fn(2.5) == 1.0
    assert lambda_fn(0.5) == pytest.approx(0.5, abs=1e-15)


def test_lambda_quarter_symmetry():
    assert lambda_fn(0.25) + lambda_fn(0.75) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-1.0, max_value=2.0))
@settings(max_examples=300)
def test_lambda_symmetry_property(t):
    assert abs(lambda_fn(t) + lambda_fn(1.0 - t) - 1.0) <= 1e-12


@given(st.floats(min_value=-1.0, max_value=2.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_lambda_monotone_property(t, d):
    assert lambda_fn(t + d) >= lambda_fn(t)


def test_lambda_deriv_matches_fd():
    for t in (0.25, 0.5, 0.8):
        est = smoothness_check(lambda_fn, t, 1).fd_estimates[1]
        assert est == pytest.approx(lambda_deriv(t), rel=1e-7)


def test_xi_examples():
    assert xi(0.1) == 0.1
    assert xi(0.5) == pytest.approx(0.5, abs=1e-15)
    assert xi(1.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert xi(0.9) == 0.9


def test_xi_maps_intervals_onto_themselves():
    for lo, hi in ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)):
        assert xi(lo) == pytest.approx(lo, abs=1e-15)
        assert xi(hi) == pytest.approx(hi, abs=1e-15)
        for s in np.linspace(lo, hi, 50):
            assert lo - 1e-15 <= xi(s) <= hi + 1e-15


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_xi_reflection_property(s):
    assert abs(xi(s) + xi(1.0 - s) - 1.0) <= 1e-12


def test_xi_inv_examples_and_errors():
    assert xi_inv(0.0) == 0.0
    assert xi_inv(0.5) == pytest.approx(0.5, abs=1e-12)
    assert xi_inv(0.1) == 0.1
    with pytest.raises(ValueError):
        xi_inv(1.5)
    with pytest.raises(ValueError):
        xi_inv(-0.2)


# denormal and near-1 inputs, plus the band walls of xi
EXTREME_YS = [5e-324, 1e-300, 1.0 - 2.0 ** -53,
              1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0]
INVERSE_GRID = np.concatenate([np.linspace(0.0, 1.0, 10001), EXTREME_YS])


def test_xi_inv_roundtrip():
    for y in INVERSE_GRID:
        assert abs(xi(xi_inv(y)) - y) <= 1e-13


def test_lambda_inv_roundtrip_and_errors():
    for y in INVERSE_GRID:
        assert abs(lambda_fn(lambda_inv(y)) - y) <= 1e-15
    with pytest.raises(ValueError):
        lambda_inv(2.0)
    with pytest.raises(ValueError):
        lambda_inv(-1e-300)


@pytest.mark.parametrize("inv", [lambda_inv, xi_inv])
def test_inverses_monotone(inv):
    ys = np.sort(INVERSE_GRID)
    vals = [inv(y) for y in ys]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[0] and vals[-1] <= 1.0


def test_fd_weights_standard_stencils():
    assert np.allclose(fd_weights(1, [-1, 0, 1]), [-0.5, 0.0, 0.5])
    assert np.allclose(fd_weights(2, [-1, 0, 1]), [1.0, -2.0, 1.0])
    with pytest.raises(ValueError):
        fd_weights(3, [0, 1])


def test_smoothness_check_flatness_of_lambda():
    rep = smoothness_check(lambda_fn, 0.0, 3, expected={1: 0.0, 2: 0.0, 3: 0.0})
    assert rep.passed
    assert all(abs(v) < 1e-4 for v in rep.fd_estimates.values())


def test_smoothness_check_detects_kink():
    rep = smoothness_check(abs, 0.0, 1)
    assert rep.verdicts[1] == "fail"
    assert not rep.passed
    left, right = rep.side_estimates[1]
    assert left == pytest.approx(-1.0, abs=1e-9)
    assert right == pytest.approx(1.0, abs=1e-9)


def test_smoothness_check_xi_flat_at_wall():
    rep = smoothness_check(xi, 1.0 / 3.0, 2, expected={1: 0.0, 2: 0.0})
    assert rep.passed
    assert all(abs(v) < 1e-4 for v in rep.fd_estimates.values())


def test_smoothness_check_inconclusive_on_failure():
    def broken(t):
        if t > 0.01:
            raise RuntimeError("no value here")
        return t

    rep = smoothness_check(broken, 0.0, 2)
    assert rep.inconclusive
    assert not rep.passed


def test_vector_check_of_one_component_is_the_float_check():
    for f, p in ((lambda_fn, 0.4), (xi, 1.0 / 3.0), (abs, 0.0), (math.sin, 0.7)):
        a = smoothness_check(f, p, 3)
        b = smoothness_check(lambda t: np.array([f(t)]), p, 3)
        assert (a.fd_estimates, a.side_estimates, a.verdicts, a.deviations) == (
            b.fd_estimates, b.side_estimates, b.verdicts, b.deviations)
        assert a.component == b.component == {1: 0, 2: 0, 3: 0}


def test_vector_check_reports_the_failing_component():
    # component 0 is smooth with the larger derivative disagreement
    # allowance; component 1 has a kink of slope jump 0.02
    rep = smoothness_check(lambda t: np.array([50.0 * math.sin(t), 0.01 * abs(t)]), 0.0, 1)
    assert rep.verdicts[1] == "fail" and rep.component[1] == 1
    assert rep.side_estimates[1] == pytest.approx((-0.01, 0.01), abs=1e-9)


def test_vector_check_inconclusive_on_a_non_finite_component():
    rep = smoothness_check(lambda t: np.array([t, math.inf if t > 0.01 else t]), 0.0, 2)
    assert rep.verdicts == {1: "inconclusive", 2: "inconclusive"}
    assert not rep.passed


def test_smoothness_check_order_cap():
    with pytest.raises(ValueError):
        smoothness_check(lambda_fn, 0.5, 9)


def test_fd_config_override():
    cfg = FDConfig(base_step=5e-3, levels=4, tol=1e-3)
    rep = smoothness_check(math.sin, 0.4, 2, config=cfg)
    assert rep.passed
