"""The array entry points agree with their scalar twins.

Each ``*_batch`` function is checked against its scalar function applied
entry by entry or row by row, at n = 0..3, within AGREE per coordinate.
The draws include poles (a tail of exactly 0), both blend bands of xi_inv,
and points in the wrinkle-collapse bands around s = 1/3 and 2/3.

xi_inv and xi_inv_batch solve one Newton iteration to within a few ulps,
but numpy's log may differ from math's in the last bit, and where xi is
flat to double precision (the collapse bands around 1/3 and 2/3) a whole
interval of s has one image.  There a batch result that is farther than
AGREE from the scalar one must be a preimage of the same point: the
forward images of the two must agree within AGREE.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop.diskmodel import (
    DomainError, Q, Q_batch, check_disk, check_disk_batch, max_dev, max_dev_batch, q,
    q_batch, random_disk, random_disk_batch, retract, retract_batch, section, section_batch,
)
from difftop.smoothfn import (
    lambda_fn, lambda_fn_batch, lambda_inv, lambda_inv_batch, xi, xi_batch, xi_inv,
    xi_inv_batch,
)
from difftop.subdivision import CylPoint, psi, psi_batch, psi_inv, psi_inv_batch, source_point

AGREE = 1e-14

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=0, max_value=3)
row_counts = st.integers(min_value=0, max_value=12)


def _disk_rows(rng, dim, rows):
    """Uniform points of disk^dim, about half of them made poles.

    A pole keeps the first j + 1 coordinates, rescaled to norm 1, and a
    tail of exactly 0, of either sign: atan2 of a -0.0 slot is pi, so only
    the pole convention keeps the later slots 0.
    """
    w = random_disk_batch(dim, rows, rng)
    for i in range(rows):
        if dim >= 1 and rng.uniform() < 0.5:
            j = int(rng.integers(dim))
            w[i, j + 1:] = rng.choice([0.0, -0.0], size=dim - j)
            w[i, :j + 1] /= np.linalg.norm(w[i, :j + 1])
    return w


def _collapse_rows(rng, n, rows):
    """Points of disk^(n+1) whose slot s lies within 0.01 of 1/3 or 2/3.

    xi is flat to double precision on parts of these bands, so psi sends
    distinct points there to one image.
    """
    walls = rng.choice([1.0 / 3.0, 2.0 / 3.0], size=rows)
    return np.array([source_point(n, random_disk(n - 1, rng), float(s), float(rng.uniform()))
                     for s in walls + rng.uniform(-0.01, 0.01, size=rows)]).reshape(rows, n + 2)


def _cyl(c):
    return np.concatenate([c.disk, [c.time]])


def _psi_rows(n, w):
    cs = [psi(n, row) for row in w]
    return np.array([_cyl(c) for c in cs]).reshape(len(w), n + 2)


def _batch_cyl(c):
    return np.column_stack([c.disk, c.time])


# ---------------------------------------------------------------------------
# smoothfn
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1.0, max_value=2.0), max_size=12)
       | st.lists(st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-3, 1.0 - 2**-53,
                                   1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0]), max_size=6))
@settings(max_examples=200, deadline=None)
def test_profiles_match(ts):
    t = np.array(ts, dtype=float)
    assert np.max(np.abs(lambda_fn_batch(t) - [lambda_fn(x) for x in ts]), initial=0.0) <= AGREE
    assert np.max(np.abs(xi_batch(t) - [xi(x) for x in ts]), initial=0.0) <= AGREE


def test_profiles_keep_nan():
    t = np.array([0.2, math.nan, 0.5])
    for f, f1 in ((lambda_fn_batch, lambda_fn), (xi_batch, xi)):
        got = f(t)
        assert math.isnan(got[1]) and math.isnan(f1(math.nan))
        assert got[0] == pytest.approx(f1(0.2), abs=AGREE)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12))
@settings(max_examples=200, deadline=None)
def test_lambda_inv_matches(ys):
    y = np.array(ys, dtype=float)
    want = [lambda_inv(v) for v in ys]
    assert np.max(np.abs(lambda_inv_batch(y) - want), initial=0.0) <= AGREE


# both blend bands, the closed-form middle, the identity bands, and values
# within a few ulps of the walls 1/3 and 2/3, where xi is flat
xi_values = st.one_of(
    st.floats(min_value=1.0 / 6.0, max_value=1.0 / 3.0),
    st.floats(min_value=2.0 / 3.0, max_value=5.0 / 6.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 5.0 / 6.0, 1.0]),
    st.builds(lambda w, k: w + k * 2**-54, st.sampled_from([1.0 / 3.0, 2.0 / 3.0]),
              st.integers(min_value=-8, max_value=8)),
)


@given(st.lists(xi_values, max_size=12))
@settings(max_examples=100, deadline=None)
def test_xi_inv_matches(ys):
    got = xi_inv_batch(np.array(ys, dtype=float))
    for g, y in zip(got.tolist(), ys):
        want = xi_inv(y)
        assert abs(g - want) <= AGREE or abs(xi(g) - xi(want)) <= AGREE, y


@pytest.mark.parametrize("f, name", [(lambda_inv_batch, "lambda_inv"),
                                     (xi_inv_batch, "xi_inv")])
@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_inverses_name_the_first_entry_outside_the_unit_interval(f, name, bad):
    with pytest.raises(ValueError, match=f"{name}: entry 2, y=nan|{name}: entry 2, y={bad}"):
        f(np.array([0.2, 0.7, bad, 2.0]))


# ---------------------------------------------------------------------------
# diskmodel
# ---------------------------------------------------------------------------

@given(dims, seeds, row_counts)
@settings(max_examples=200, deadline=None)
def test_disk_charts_match(n, seed, rows):
    rng = np.random.default_rng(seed)
    w = _disk_rows(rng, n, rows)
    want = np.array([check_disk(row, n) for row in w]).reshape(rows, n + 1)
    assert np.array_equal(check_disk_batch(w, n), want)
    t = section_batch(n, w)
    want = np.array([section(n, row) for row in w]).reshape(rows, n)
    assert np.max(np.abs(t - want), initial=0.0) <= AGREE
    # the pole convention: slots after a zero tail are exactly 0
    assert np.array_equal(t == 0.0, want == 0.0)
    want = np.array([Q(n, row) for row in t]).reshape(rows, n + 1)
    assert np.max(np.abs(Q_batch(n, t) - want), initial=0.0) <= AGREE
    times = rng.uniform(size=rows)
    want = np.array([q(n, row, x) for row, x in zip(w, times.tolist())]).reshape(rows, n + 2)
    assert np.max(np.abs(q_batch(n, w, times) - want), initial=0.0) <= AGREE
    assert np.array_equal(max_dev_batch(w, want[:, :-1]),
                          [max_dev(a, b) for a, b in zip(w, want[:, :-1])])


@given(dims, seeds, row_counts)
@settings(max_examples=200, deadline=None)
def test_retract_matches(n, seed, rows):
    rng = np.random.default_rng(seed)
    # equator rows: the last coordinate 0, the others rescaled to norm 1
    equator = random_disk_batch(n + 1, rows, rng)
    equator[:, -1] = 0.0
    equator /= np.linalg.norm(equator, axis=1)[:, None]
    w = np.concatenate([_disk_rows(rng, n + 1, rows), equator])
    want = np.array([retract(n, row) for row in w]).reshape(len(w), n + 1)
    assert np.max(np.abs(retract_batch(n, w) - want), initial=0.0) <= AGREE


def _bad_points(dim):
    """Points that break disk^dim membership, one per kind of fault."""
    w = np.full(dim + 1, 1.0 / math.sqrt(dim + 1))
    nan, inf, lower = w.copy(), w.copy(), w.copy()
    nan[0] = math.nan
    inf[0] = math.inf
    lower[-1] = -lower[-1]
    return {"off_sphere": 1.5 * w, "nan": nan, "inf": inf, "huge": 1e200 * w,
            "lower_hemisphere": lower}


@pytest.mark.parametrize("kind", ["off_sphere", "nan", "inf", "huge", "lower_hemisphere"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_membership_verdicts_match(n, kind):
    rng = np.random.default_rng(n)
    bad = _bad_points(n)[kind]
    with pytest.raises(DomainError):
        check_disk(bad, n)
    for i in (0, 2):
        w = random_disk_batch(n, 4, rng)
        w[i] = bad
        for call in (lambda: check_disk_batch(w, n), lambda: section_batch(n, w),
                     lambda: q_batch(n, w, np.zeros(4))):
            with pytest.raises(DomainError, match=f"^row {i}: "):
                call()
        with pytest.raises(DomainError, match=f"^row {i}: "):
            psi_inv_batch(n, CylPoint(w, np.full(4, 0.5)))
        w1 = random_disk_batch(n + 1, 4, rng)
        w1[i] = _bad_points(n + 1)[kind]
        for call in (lambda: psi_batch(n, w1), lambda: retract_batch(n, w1)):
            with pytest.raises(DomainError, match=f"^row {i}: "):
                call()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rows_of_the_wrong_length_are_rejected(n):
    w = random_disk_batch(n + 1, 3, np.random.default_rng(0))
    with pytest.raises(DomainError):
        check_disk_batch(w, n)
    with pytest.raises(DomainError):
        section_batch(n, w)
    with pytest.raises(DomainError):
        Q_batch(n, np.zeros((3, n + 1)))


def test_max_dev_batch_edge_cases():
    inf, nan = math.inf, math.nan
    a = np.array([[inf], [inf], [nan], [1.0], [-inf]])
    b = np.array([[-inf], [inf], [0.0], [1.5], [-inf]])
    got = max_dev_batch(a, b)
    assert got[0] == inf
    assert all(math.isnan(x) for x in got[[1, 2, 4]])
    assert got[3] == 0.5
    assert np.array_equal(got, [max_dev(x, y) for x, y in zip(a, b)], equal_nan=True)
    assert np.array_equal(max_dev_batch(np.zeros((2, 0)), np.zeros((2, 0))), [0.0, 0.0])
    with pytest.raises(ValueError):
        max_dev_batch(np.zeros((2, 3)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

@given(dims, seeds, row_counts)
@settings(max_examples=200, deadline=None)
def test_psi_matches(n, seed, rows):
    rng = np.random.default_rng(seed)
    w = _disk_rows(rng, n + 1, rows)
    if n >= 1:
        w = np.concatenate([w, _collapse_rows(rng, n, rows)])
    got = _batch_cyl(psi_batch(n, w))
    assert np.max(np.abs(got - _psi_rows(n, w)), initial=0.0) <= AGREE


@given(dims, seeds, row_counts)
@settings(max_examples=200, deadline=None)
def test_psi_inv_matches(n, seed, rows):
    rng = np.random.default_rng(seed)
    disk = _disk_rows(rng, n, rows)
    time = np.where(rng.uniform(size=rows) < 0.2, rng.integers(2, size=rows),
                    rng.uniform(size=rows))
    if n >= 1:  # images of the collapse bands: their preimages are not unique
        img = _psi_rows(n, _collapse_rows(rng, n, rows))
        disk = np.concatenate([disk, img[:, :-1]])
        time = np.concatenate([time, img[:, -1]])
    got = psi_inv_batch(n, CylPoint(disk, time))
    for g, d, y in zip(got, disk, time.tolist()):
        want = psi_inv(n, CylPoint(d, y))
        if max_dev(g, want) > AGREE:
            assert max_dev(_cyl(psi(n, g)), _cyl(psi(n, want))) <= AGREE


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_psi_inv_batch_names_a_time_outside_the_unit_interval(n, bad):
    times = np.array([0.2, 0.0, bad, 1.0])
    with pytest.raises(DomainError):
        psi_inv(n, CylPoint(random_disk(n, np.random.default_rng(0)), bad))
    disk = random_disk_batch(n, 4, np.random.default_rng(n))
    with pytest.raises(DomainError, match="^row 2: time"):
        psi_inv_batch(n, CylPoint(disk, times))


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_empty_and_one_row_arrays(n, rows):
    rng = np.random.default_rng(rows)
    w = random_disk_batch(n + 1, rows, rng)
    assert w.shape == (rows, n + 2)
    c = psi_batch(n, w)
    assert c.disk.shape == (rows, n + 1) and c.time.shape == (rows,)
    assert psi_inv_batch(n, c).shape == (rows, n + 2)
    assert section_batch(n + 1, w).shape == (rows, n + 1)
    assert Q_batch(n + 1, section_batch(n + 1, w)).shape == (rows, n + 2)
    assert max_dev_batch(w, w).shape == (rows,)
    for f in (lambda_fn_batch, lambda_inv_batch, xi_batch, xi_inv_batch):
        assert f(np.full(rows, 0.25)).shape == (rows,)
    if rows:
        want = psi_inv(n, CylPoint(c.disk[0], c.time[0]))
        assert max_dev(psi_inv_batch(n, c)[0], want) <= AGREE
