import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop import smoothfn
from difftop.diskmodel import random_disk
from difftop.smoothfn import (
    FD_TOL, fd_weights, gamma, gamma_batch, lambda_fn, lambda_inv, smoothness_check, xi,
    xi_batch, xi_inv, xi_inv_batch,
)
from difftop.subdivision import seam_curve


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


def test_gamma_of_a_subnormal_numpy_float_is_zero_without_a_warning():
    # -1/t overflows for a subnormal t; the suite turns warnings into errors
    assert gamma(np.float64(5e-324)) == 0.0


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


# xi_inv's Newton iteration stops within a few ulps of the root, so the
# round trip is held to two ulps of 1/3 (4.4e-16)
XI_RT = 4.5e-16
# both blend bands densely, and 1 to 1e6 ulps to either side of each band
# end; next to 1/3 and 2/3 xi is flat to double precision
BLEND_GRID = np.concatenate(
    [np.linspace(1.0 / 6.0, 1.0 / 3.0, 20001), np.linspace(2.0 / 3.0, 5.0 / 6.0, 20001)]
    + [w + np.array([-1.0, 1.0]) * k * math.ulp(w)
       for w in (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0)
       for k in (1, 2, 3, 10, 100, 1e3, 1e4, 1e5, 1e6)])


def test_xi_inv_roundtrip():
    # pytest turns warnings into errors: no Newton step may warn
    for y in np.concatenate([INVERSE_GRID, BLEND_GRID]).tolist():
        assert abs(xi(xi_inv(y)) - y) <= XI_RT, y


def test_xi_inv_batch_roundtrip():
    s = xi_inv_batch(BLEND_GRID)
    assert np.max(np.abs(xi_batch(s) - BLEND_GRID)) <= XI_RT
    assert np.all(np.diff(s[:20001]) >= 0.0) and np.all(np.diff(s[20001:40002]) >= 0.0)


def test_xi_inv_at_the_band_ends():
    # the walls and the band ends come back exactly; one ulp inside a band,
    # z = 2 - 6y (lower band) or 6y - 4 (upper band) may round to 1 or 0,
    # which gives the band end
    for y in (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0):
        assert xi_inv(y) == y
        assert xi_inv_batch(np.array([y]))[0] == y
    for lo, hi in ((1.0 / 6.0, 1.0 / 3.0), (2.0 / 3.0, 5.0 / 6.0)):
        for y in (math.nextafter(lo, 1.0), math.nextafter(hi, 0.0)):
            assert lo <= xi_inv(y) <= hi
            assert lo <= xi_inv_batch(np.array([y]))[0] <= hi


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
    rep = smoothness_check(lambda_fn, 0.0, 3)
    assert rep.passed
    assert all(abs(v) < FD_TOL for v in rep.fd_estimates.values())


def test_smoothness_check_detects_kink():
    rep = smoothness_check(abs, 0.0, 1)
    assert rep.verdicts[1] == "fail"
    assert not rep.passed
    left, right = rep.side_estimates[1]
    assert left == pytest.approx(-1.0, abs=1e-9)
    assert right == pytest.approx(1.0, abs=1e-9)


def test_smoothness_check_xi_flat_at_wall():
    rep = smoothness_check(xi, 1.0 / 3.0, 2)
    assert rep.passed
    assert all(abs(v) < FD_TOL for v in rep.fd_estimates.values())


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


@pytest.mark.parametrize("x", [1e14, 1e17, -1e14])
def test_no_verdict_where_the_nodes_round_together(x):
    # every node x + m h rounds onto x or a neighbour: the ladder has no
    # resolution, so a kink of slope jump 2 must not pass
    rep = smoothness_check(lambda t: abs(t - x), x, 3)
    assert rep.verdicts == {1: "inconclusive", 2: "inconclusive", 3: "inconclusive"}
    assert not rep.passed and rep.fd_estimates == {}


def test_a_kink_at_1e12_still_fails():
    rep = smoothness_check(lambda t: abs(t - 1e12), 1e12, 1)
    assert rep.verdicts == {1: "fail"}


def test_gamma_batch_matches_gamma():
    t = np.array([-1.0, 0.0, 1e-300, 1e-3, 0.002, 0.5, 3.0, math.inf, math.nan])
    got = gamma_batch(t)
    want = [gamma(v) for v in t.tolist()]
    assert np.allclose(got[:-1], want[:-1], rtol=1e-15, atol=0.0)
    assert math.isnan(got[-1]) and math.isnan(want[-1])


def test_smoothness_check_order_cap():
    for max_order in (9, 7, 0, -1):
        with pytest.raises(ValueError, match=re.escape(f"max_order {max_order} outside 1..6")):
            smoothness_check(lambda_fn, 0.5, max_order)


@pytest.mark.parametrize("max_order,calls", [(3, 25), (1, 13)])
@pytest.mark.parametrize("point", [0.0, 1.0 / 3.0, 0.7, -2.5])
def test_each_distinct_argument_is_evaluated_once(max_order, calls, point):
    # the stencils of all sides, orders and ladder levels share nodes;
    # evaluating every stencil node would take 185 calls at order 3, 45 at 1
    args = []

    def f(t):
        args.append(t)
        return lambda_fn(t)

    smoothness_check(f, point, max_order)
    assert len(args) == calls
    assert len(set(args)) == len(args)


def test_a_raising_call_is_not_stored():
    # only the first call at 0.01 raises: order 1 is inconclusive, and
    # order 2 asks for 0.01 again and gets a value
    calls = []

    def f(t):
        calls.append(t)
        if t == 0.01 and calls.count(t) == 1:
            raise RuntimeError("first call fails")
        return t

    rep = smoothness_check(f, 0.0, 2)
    assert rep.verdicts == {1: "inconclusive", 2: "pass"}
    assert calls.count(0.01) == 2


@pytest.mark.parametrize("value,shape", [(np.zeros(0), "(0,)"), (np.zeros((2, 3)), "(2, 3)")])
def test_a_value_of_another_shape_is_rejected_by_name(value, shape):
    with pytest.raises(ValueError, match=re.escape(f"returned a value of shape {shape}")):
        smoothness_check(lambda t: value, 0.5, 1)


def test_overflow_in_the_ladder_is_inconclusive_without_a_warning():
    # the suite turns warnings into errors; an order whose table overflows
    # has no verdict, and an order below it keeps its own
    rep = smoothness_check(lambda t: 1e308 * (1.0 + t), 0.3, 2)
    assert rep.verdicts == {1: "inconclusive", 2: "inconclusive"}
    assert rep.fd_estimates == rep.side_estimates == rep.deviations == {}
    rep = smoothness_check(lambda t: 1e303 * t, 0.5, 3)
    assert rep.verdicts == {1: "pass", 2: "pass", 3: "inconclusive"}
    assert rep.fd_estimates[1] == pytest.approx(1e303, rel=1e-9)


@pytest.mark.parametrize("bad", [math.inf, math.nan, None], ids=["inf", "nan", "raise"])
def test_a_failing_node_leaves_the_orders_that_do_not_use_it(bad):
    # x + 0.035 and beyond are nodes of order 3 only: order 2 reaches 0.03
    def f(t):
        if t <= 0.035:
            return math.sin(t)
        if bad is None:
            raise RuntimeError("no value here")
        return bad

    rep = smoothness_check(f, 0.0, 3)
    assert rep.verdicts == {1: "pass", 2: "pass", 3: "inconclusive"}


def test_plans_are_built_on_first_use():
    code = ("import difftop, difftop.verify; from difftop import smoothfn; "
            "print(smoothfn._plan.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("order", range(1, 7))
def test_every_plan_entry_differentiates_polynomials(order):
    # each row of the map is exact on polynomials of degree <= order + 1:
    # a table entry gives d^order/dx^order of x^order/order! = 1 and of
    # lower powers 0, and every error term is 0
    offsets, matrix, steps, sizes, matrices = smoothfn._plan(order)
    assert offsets[0] == 0 and len(set(offsets)) == len(offsets)
    # a non-finite node value then reaches some entry of the order's table
    assert np.all(np.abs(matrix).max(axis=0) > 0)
    # the plan carries the orders below it, and the steps a check adds to x
    assert sizes == tuple(len(smoothfn._plan(k)[0]) for k in range(1, order + 1))
    assert all(m is smoothfn._plan(k)[1] for k, m in enumerate(matrices, 1))
    assert matrices[-1] is matrix
    if order > 1:
        assert offsets[:len(smoothfn._plan(order - 1)[0])] == smoothfn._plan(order - 1)[0]
    h = smoothfn.FD_STEP * 0.5 ** (smoothfn.FD_LEVELS - 1)
    assert steps == tuple(m * h for m in offsets)
    x = np.array(offsets) * (smoothfn.FD_STEP / 2 ** (smoothfn.FD_LEVELS - 1))
    kinds = np.tile(np.repeat([1.0, 0.0], len(matrix) // 6), 3)  # entry or error row
    for degree in range(order + 2):
        v = x ** degree / math.factorial(degree)
        want = kinds if degree == order else 0.0
        assert np.all(np.abs(matrix @ v - want) <= 1e-12 * (np.abs(matrix) @ np.abs(v)) + 1e-12)


def _pinned_check(f, point, max_order):
    """smoothness_check's arithmetic spelled out one order at a time.

    Each order's node values less the value at x, one ``np.dot`` of the
    order's matrix per component, then per side the first entry of least
    error; the verdict rule is the docstring's.  A report that matches this
    one field for field keeps the bits of every estimate.
    """
    report = smoothfn.SmoothnessReport(point=float(point), max_order_tested=max_order,
                                       tolerance_used=FD_TOL)
    h = smoothfn.FD_STEP * 0.5 ** (smoothfn.FD_LEVELS - 1)
    args = [point + m * h for m in smoothfn._plan(max_order)[0]]
    distinct = next((i for i, t in enumerate(args) if t in args[:i]), len(args))
    values = {}
    for k in range(1, max_order + 1):
        offsets, matrix = smoothfn._plan(k)[:2]
        if len(offsets) > distinct:
            report.verdicts.update({o: "inconclusive" for o in range(k, max_order + 1)})
            break
        try:
            for t in args[:len(offsets)]:
                if t not in values:
                    values[t] = f(t)
        except Exception:
            report.verdicts[k] = "inconclusive"
            continue
        nodes = np.array([values[t] for t in args[:len(offsets)]], dtype=float)
        nodes = nodes.reshape(1, -1) if nodes.ndim == 1 else nodes.T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = nodes - nodes[:, :1]
            table = np.array([np.dot(matrix, row) for row in nodes])
        if not np.isfinite(table).all():
            report.verdicts[k] = "inconclusive"
            continue
        rows = []
        for j, out in enumerate(table):
            picked = []
            for entries, errors in out.reshape(3, 2, -1):  # central, left, right
                i = int(np.argmin(np.abs(errors)))
                picked.append((float(entries[i]), abs(float(errors[i]))))
            (central, _), (left, err_l), (right, err_r) = picked
            dev = abs(left - right)
            ok = dev <= FD_TOL * max(1.0, abs(left), abs(right)) + 2.0 * (err_l + err_r)
            rows.append((not ok, dev, j, central, left, right))
        failed, dev, j, central, left, right = max(rows, key=lambda r: r[:2])
        report.fd_estimates[k] = central
        report.side_estimates[k] = (left, right)
        report.deviations[k] = dev
        report.component[k] = j
        report.verdicts[k] = "fail" if failed else "pass"
    return report


def _assert_pinned(make, point):
    """The check of a fresh ``make()`` matches the pinned one, at orders 1-3."""
    for max_order in (1, 2, 3):
        got = smoothness_check(make(), point, max_order)
        want = _pinned_check(make(), point, max_order)
        # repr spells each float's bits, so -0.0 differs from 0.0 there
        assert got == want and repr(got) == repr(want), (point, max_order)


def _forms(g):
    """Factories of g as a float, a one-element array and the first of three components."""
    return (lambda: g, lambda: lambda t: np.array([g(t)]),
            lambda: lambda t: np.array([g(t), math.sin(3.0 * t), abs(t - 0.45)]))


def test_reports_keep_the_bits_of_the_per_order_arithmetic():
    # the flat ends and walls, a kink, and 200 seeded interior points each
    cases = [(lambda_fn, 0.0), (lambda_fn, 1.0), (xi, 1.0 / 3.0), (xi, 2.0 / 3.0),
             (lambda t: 0.01 * abs(t - 0.3) + lambda_fn(t), 0.3)]
    rng = np.random.default_rng(29)
    cases += [(g, float(p)) for g in (lambda_fn, xi) for p in rng.uniform(0.0, 1.0, 200)]
    for g, p in cases:
        for make in _forms(g):
            _assert_pinned(make, p)


def _raising_once(bad, form):
    """A factory of one form of sin whose first call at ``bad`` raises."""
    def make():
        seen = []

        def g(t):
            if t == bad and not seen:
                seen.append(t)
                raise RuntimeError("first call fails")
            return math.sin(t)

        return _forms(g)[form]()

    return make


def test_inconclusive_reports_keep_the_bits_of_the_per_order_arithmetic():
    # a node that raises on its first call only (x + 16 h is a node of every
    # order, x + 64 h of order 3 alone), an inf node beyond the reach of
    # order 2, and finite values near 1e300 whose tables overflow at some
    # orders; warnings are errors in this suite
    h = smoothfn.FD_STEP / 2 ** (smoothfn.FD_LEVELS - 1)
    for point in (0.0, 0.25):
        for bad in (point + 16 * h, point + 64 * h):
            for form in range(3):
                _assert_pinned(_raising_once(bad, form), point)
        for make in _forms(lambda t, p=point: math.sin(t) if t <= p + 0.035 else math.inf):
            _assert_pinned(make, point)
        for scale in (1e300, 3e300, 1e303, 1e306):
            for make in _forms(lambda t, s=scale: s * (1.0 + t) * (1.0 + 0.5 * t * t)):
                _assert_pinned(make, point)
    # kinks far from 0, where arguments start to round together
    for x in (1e12, 2.0 ** 40, 1e13, -1e13, 1e14):
        for make in _forms(lambda t, x=x: abs(t - x)):
            _assert_pinned(make, x)
    # the retried call leaves order 1 without a verdict and gives order 2 one
    rep = smoothness_check(_raising_once(16 * h, 0)(), 0.0, 2)
    assert rep.verdicts == {1: "inconclusive", 2: "pass"}


# ---------------------------------------------------------------------------
# The reference ladder: the step-by-step estimator that the compiled plans
# replaced, kept to pin their verdicts and estimates
# ---------------------------------------------------------------------------

class _NodeFailure(RuntimeError):
    """A stencil node raised or gave a non-finite value."""


def _stencil(order, side):
    if side == 0:
        r = (order + 2) // 2
        offsets = list(range(-r, r + 1))
    else:
        offsets = [side * i for i in range(order + 2)]
    return offsets, fd_weights(order, offsets)


def _richardson(raw, p, series):
    """Best entry of the Neville/Richardson table of a ladder, as (value, err)."""
    best, best_err = raw[0], math.inf
    for i in range(1, len(raw)):
        err = abs(raw[i] - raw[i - 1])
        if err < best_err:
            best, best_err = raw[i], err
    col = list(raw)
    for j in range(1, len(raw)):
        fac = 2.0 ** (p + (j - 1) * series)
        nxt = []
        for i in range(1, len(col)):
            t = col[i] + (col[i] - col[i - 1]) / (fac - 1.0)
            err = max(abs(t - col[i]), abs(t - col[i - 1]))
            if err < best_err:
                best, best_err = t, err
            nxt.append(t)
        col = nxt
    return best, best_err


def _estimates(f, values, x, order, side):
    """f^(order)(x) per component of f, as (value, err), on one side's ladder."""
    offsets, w = _stencil(order, side)
    p, series = (2, 2) if side == 0 else (len(offsets) - order, 1)
    raw = []  # raw[level][component]
    h = smoothfn.FD_STEP
    for _ in range(smoothfn.FD_LEVELS):
        try:
            nodes = []
            for o in offsets:
                t = x + o * h
                if t not in values:
                    values[t] = f(t)
                nodes.append(values[t])
            rows = np.array(nodes, dtype=float)
        except Exception as exc:
            raise _NodeFailure(f"evaluation failed near {x!r}: {exc}") from exc
        rows = rows.reshape(1, -1) if rows.ndim == 1 else rows.T.copy()
        sums = [float(w.dot(row)) for row in rows]
        if not all(map(math.isfinite, sums)) and not np.isfinite(rows).all():
            raise _NodeFailure(f"non-finite value near {x!r} at step {h!r}")
        raw.append([v / h ** order for v in sums])
        h *= 0.5
    return [_richardson(ladder, p, series) for ladder in zip(*raw)]


def _reference_check(f, point, max_order):
    """smoothness_check computed with the reference ladder.

    Returns the report and, per order, the error terms of the reported
    component's left and right estimates.
    """
    report = smoothfn.SmoothnessReport(point=float(point), max_order_tested=max_order,
                                       tolerance_used=smoothfn.FD_TOL)
    tol = smoothfn.FD_TOL
    values, side_errors = {}, {}
    for k in range(1, max_order + 1):
        try:
            sides = [_estimates(f, values, point, k, side) for side in (0, -1, +1)]
        except _NodeFailure:
            report.verdicts[k] = "inconclusive"
            continue
        rows = []
        for j, ((central, _), (left, err_l), (right, err_r)) in enumerate(zip(*sides)):
            dev = abs(left - right)
            ok = dev <= tol * max(1.0, abs(left), abs(right)) + 2.0 * (err_l + err_r)
            rows.append((not ok, dev, j, central, left, right))
        failed, dev, j, central, left, right = max(rows, key=lambda r: r[:2])
        report.fd_estimates[k] = central
        report.side_estimates[k] = (left, right)
        report.deviations[k] = dev
        report.component[k] = j
        report.verdicts[k] = "fail" if failed else "pass"
        side_errors[k] = (sides[1][j][1], sides[2][j][1])
    return report, side_errors


def _assert_matches_reference(f, point, max_order, components=0):
    """Equal verdicts, and estimates within 1e-5 * max(1, |reference|).

    A one-sided estimate may also lie anywhere within the reference's own
    error term: where two entries of its Richardson table have nearly equal
    errors, round-off decides which one is kept.  A vector-valued f names
    its number of components; its estimates are compared coordinate by
    coordinate, since the component a passing order reports is the one of
    largest round-off.
    """
    got = smoothness_check(f, point, max_order)
    assert got.verdicts == _reference_check(f, point, max_order)[0].verdicts, point
    assert not components or len(f(point)) == components
    for g in [lambda t, j=j: f(t)[j] for j in range(components)] or [f]:
        a = smoothness_check(g, point, max_order)
        b, side_errors = _reference_check(g, point, max_order)
        assert a.verdicts == b.verdicts, (point, a, b)
        for k in b.fd_estimates:
            ref = b.fd_estimates[k]
            assert abs(a.fd_estimates[k] - ref) <= 1e-5 * max(1.0, abs(ref)), (point, a, b)
            for x, y, err in zip(a.side_estimates[k], b.side_estimates[k], side_errors[k]):
                assert abs(x - y) <= 1e-5 * max(1.0, abs(y)) + err, (point, a, b)
    return got


INTERIOR = np.linspace(0.0, 1.0, 2002)[1:-1]


@pytest.mark.parametrize("f", [lambda_fn, xi, gamma], ids=["lambda", "xi", "gamma"])
def test_compiled_ladder_matches_the_reference_on_the_profiles(f):
    # 2,000 interior points of [0, 1], orders 1..3 on each
    for p in INTERIOR:
        _assert_matches_reference(f, float(p), 3)


def test_compiled_ladder_matches_the_reference_on_flatness_claims():
    for f, p in ((lambda_fn, 0.0), (lambda_fn, 1.0), (xi, 1.0 / 3.0), (xi, 2.0 / 3.0)):
        rep = _assert_matches_reference(f, p, 3)
        assert rep.passed
        assert all(abs(v) < FD_TOL for v in rep.fd_estimates.values())
    assert _assert_matches_reference(abs, 0.0, 1).verdicts == {1: "fail"}


def test_compiled_ladder_matches_the_reference_on_kink_controls():
    rng = np.random.default_rng(18)
    for p in rng.uniform(0.0, 1.0, 50):
        for slope in (0.01, 1.0):
            rep = _assert_matches_reference(
                lambda t, p=float(p), s=slope: s * abs(t - p) + lambda_fn(t), float(p), 1)
            assert rep.verdicts == {1: "fail"}


def test_compiled_ladder_matches_the_reference_on_seam_curves():
    # 100 curves across phi's walls: wrinkled at order 3, unwrinkled at 1
    rng = np.random.default_rng(17)
    for i in range(100):
        n = 1 + i % 3
        v, t = random_disk(n - 1, rng), float(rng.uniform(0.05, 0.95))
        seam = (1.0 / 3.0, 2.0 / 3.0)[i % 2]
        _assert_matches_reference(seam_curve(n, v, t, True), seam, 3, components=n + 1)
        _assert_matches_reference(seam_curve(n, v, t, False), seam, 1, components=n + 1)


def test_compiled_ladder_matches_the_reference_on_vectors_and_failures():
    vector = lambda t: np.array([lambda_fn(t), xi(t), math.sin(t)])  # noqa: E731
    for p in (-0.2, 0.1, 0.5, 1.2):
        _assert_matches_reference(vector, p, 3, components=3)
    assert _assert_matches_reference(
        lambda t: math.inf if t > 0.01 else t, 0.0, 2).verdicts == {
            1: "inconclusive", 2: "inconclusive"}
    assert _assert_matches_reference(
        lambda t: np.array([t, 1.0 / t]), 0.0, 2).verdicts == {
            1: "inconclusive", 2: "inconclusive"}
