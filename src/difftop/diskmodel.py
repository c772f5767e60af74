"""Hemisphere model of disks and spheres.

The n-disk is modelled as the upper hemisphere of the unit n-sphere in
R^(n+1).  It carries the iterated-quotient structure built from the maps

    q_n(v, t) = (v_1, ..., v_n, v_{n+1} cos(pi t), v_{n+1} sin(pi t)),

whose composite Q_n : [0,1]^n -> disk^n is the single chart everything
here routes through.  ``section`` is the canonical right inverse of Q_n
(spherical-coordinate peeling with a deterministic pole convention) and
is what makes maps *out of* the quotient computable.

Points are plain numpy arrays of length n+1; the boundary sphere of the
n-disk is the full unit (n-1)-sphere sitting in the equator plane
(last coordinate 0), and the reflected disk is the lower hemisphere.

``max_dev`` is the package's one point-agreement rule: two points agree
within tol when max_dev(a, b) <= tol, and every equality and gluing check
uses it, with EQ_TOL as the slack of point equality.

The ``*_batch`` functions are the array entry points: they take an
(N, n+1) array whose rows are points (an (N, n) array of cube
coordinates for Q) and return arrays of rows that agree with the scalar
function applied row by row within 1e-14 per coordinate (numpy's trig
may round differently from math's).  q, Q, section and retract are each
written once over coordinate columns (``_suspend``, ``_Q``, ``_section``,
``_retract``): (N,) arrays as smoothfn's ARRAY_OPS, or traced once per
dimension on TRACE_OPS and compiled to straight-line float code
(``_chart_form``), which gives their bits on FLOAT_OPS.
"""

import functools
import math

import numpy as np

from .smoothfn import ARRAY_OPS, TRACE_OPS, lambda_fn, straight_line

__all__ = [
    "DomainError", "POINT_TOL", "EQ_TOL", "max_dev",
    "check_disk", "check_sphere",
    "point_to_json",
    "q", "Q", "gen_plot", "section",
    "include_j", "include_k", "reflect", "retract", "retract_homotopy",
    "random_disk", "random_sphere",
    "max_dev_batch", "check_disk_batch", "q_batch", "Q_batch", "section_batch",
    "retract_batch", "random_disk_batch",
]

# membership slack for |norm - 1| and hemisphere sign; round-trips through
# the trig charts stay below 1e-12 for n <= 3, so this is a 10^3 margin
POINT_TOL = 1e-9
# slack of point equality: max_dev(a, b) <= EQ_TOL in the gluing checks
# of homotopy, CellComplex.eq and the DiffSpace equalities
EQ_TOL = 1e-9


class DomainError(ValueError):
    """A point violates the membership contract of an operation."""


def _coords(p):
    """p as a flat float array; a tuple is the concatenation of its parts."""
    if isinstance(p, tuple):
        return np.concatenate([_coords(c) for c in p]) if p else np.zeros(0)
    return np.asarray(p, dtype=float).ravel()


def max_dev(a, b):
    """The largest |a - b| over all coordinates.

    A tuple counts as the concatenation of its flattened parts, so a
    (base, fiber) total-space point or a CylPoint compares coordinate by
    coordinate.  Differing shapes, a NaN coordinate or two equal infinite
    ones give NaN, for which neither ``<= tol`` nor ``> tol`` holds; two
    empty points give 0.0.
    """
    a, b = _coords(a), _coords(b)
    if a.shape != b.shape:
        return math.nan
    # on Python floats inf - inf is NaN without numpy's RuntimeWarning, and
    # costs less than entering np.errstate on every call
    devs = [abs(x - y) for x, y in zip(a.tolist(), b.tolist())]
    return math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)


def check_disk(w, n):
    """Assert w lies on the upper hemisphere of dimension n."""
    w = np.asarray(w, dtype=float)
    if len(w) != n + 1:
        raise DomainError(f"expected dim {n} (length {n + 1}), got length {len(w)}")
    check_sphere(w)
    last = float(w[-1])
    if last < -POINT_TOL:
        raise DomainError(f"last coordinate {last!r} < 0: not in the upper hemisphere")
    return w


def _disk_floats(w, n):
    """w's coordinates as a list of floats (a list without numpy), checked as check_disk checks."""
    x = list(map(float, w)) if type(w) is list else np.asarray(w, dtype=float).tolist()
    if not (isinstance(x, list) and len(x) == n + 1 and abs(math.hypot(*x) - 1.0) <= POINT_TOL
            and x[-1] >= -POINT_TOL):
        check_disk(w, n)  # raises, with the message of the rule w breaks
    return x


def point_to_json(w):
    """Wire form of a disk point: coordinate list plus its dimension."""
    w = np.asarray(w, dtype=float)
    return {"dim": int(len(w) - 1), "coords": [float(c) for c in w]}


def check_sphere(v):
    """Assert v is a unit vector (a point of the full boundary sphere)."""
    v = np.asarray(v, dtype=float)
    # hypot squares nothing, so a huge finite point gets its norm (inf only
    # past the float range) and no overflow RuntimeWarning, and the norm
    # test below rejects it; a non-finite coordinate makes r NaN or inf
    r = math.hypot(*v.tolist())
    if not math.isfinite(r) and not np.isfinite(v).all():
        raise DomainError(f"non-finite coordinates {v!r}")
    if abs(r - 1.0) > POINT_TOL:
        raise DomainError(f"|point| = {r!r} is not 1 within {POINT_TOL}")
    return v


def _floats(a):
    """a as a list of Python floats; a scalar becomes a one-element list."""
    a = np.asarray(a, dtype=float).tolist()
    return a if isinstance(a, list) else [a]


def _suspend(x, t, ops):
    """The suspension step x -> (x cos(pi t), x sin(pi t)) of q and Q."""
    a = ops.pi * t
    return [x * ops.cos(a), x * ops.sin(a)]


def _Q(t, ops):
    """The columns of Q at the cube-coordinate columns t."""
    w = [1.0]
    for ti in t:
        w[-1:] = _suspend(w[-1], ti, ops)
    return w


def _section(n, x, ops):
    """The cube-coordinate columns of section at the n+1 columns x."""
    rest, sq = [0.0] * n, 0.0  # rest[i] = |x[i+1:]|, exactly |x[n]| for i = n - 1
    for i in range(n, 0, -1):
        sq = sq + x[i] * x[i]
        rest[i - 1] = ops.sqrt(sq) if i < n else abs(x[n])
    t, live = [], True
    for r, c in zip(rest, x):
        t.append(ops.where(live, ops.atan2(r, c) / ops.pi, 0.0))
        live = live & (r != 0.0)
    return t


def _retract(x, ops):
    """The columns of retract at the columns x: fold the last two into one."""
    return x[:-2] + [ops.hypot(x[-2], x[-1])]


@functools.lru_cache(maxsize=None)
def _chart_form(chart, n):
    """q, Q, section or retract on the floats of a point of disk^n (q: and a
    time; Q: n cube coordinates), as one straight-line function."""
    body, size = {
        "q": (lambda x: x[:n] + _suspend(x[n], x[n + 1], TRACE_OPS), n + 2),
        "Q": (lambda x: _Q(x, TRACE_OPS), n),
        "section": (lambda x: _section(n, x, TRACE_OPS), n + 1),
        "retract": (lambda x: _retract(x, TRACE_OPS), n + 1),
    }[chart]
    return straight_line(body, size, name=f"{chart} {n}")


def _rows(cols, count):
    """The columns (arrays of count entries, or floats) as a (count, k) array."""
    out = np.empty((count, len(cols)))
    for i, c in enumerate(cols):
        out[:, i] = c
    return out


def q(n, v, t):
    """One suspension step: disk^n x [0,1] -> disk^(n+1).

    Sends (v, t) to (v_1, ..., v_n, v_{n+1} cos(pi t), v_{n+1} sin(pi t)).
    t = 0 is the inclusion as the upper hemisphere's equator-preserving
    copy, t = 1 lands in the reflected (lower) hemisphere.
    """
    return np.array(_chart_form("q", n)(*_disk_floats(v, n), t))


def Q(n, t):
    """Iterated suspension chart [0,1]^n -> disk^n.

    Q(0) is the unique point (1,) of the 0-disk; Q(1)(t) is the upper
    unit semicircle (cos pi t, sin pi t).
    """
    t = _floats(t)
    if len(t) != n:
        raise DomainError(f"expected {n} cube coordinates, got {len(t)}")
    return np.array(_chart_form("Q", n)(*t))


def gen_plot(n, x):
    """The generating chart R^n -> disk^n: Q(n) after lambda in each slot."""
    return Q(n, [lambda_fn(xi) for xi in _floats(x)])


def section(n, w):
    """Canonical cube coordinates: the right inverse of Q(n).

    Peels spherical coordinates level by level.  Each slot is recovered
    as t_i = atan2(|tail|, w_i) / pi where |tail| is the norm of the
    still-unpeeled coordinates (squares summed from the right); this is
    well-conditioned in every regime (arccos of a near-1 ratio would lose
    half the significant digits whenever a slot sits near 0 or 1).  The
    final slot uses atan2(|w_{n+1}|, w_n), landing in [0,1] because the
    last coordinate is nonnegative up to membership slack.  When a tail
    vanishes exactly the remaining slots are 0, a fixed fiber representative
    at the poles.  Q(n, section(n, w)) == w within 1e-10 for n <= 3.
    """
    return np.array(_chart_form("section", n)(*_disk_floats(w, n)))


def include_j(n, v):
    """Boundary inclusion sphere^(n-1) -> disk^n: append a zero."""
    v = check_sphere(v)
    if len(v) != n:
        raise DomainError(f"expected a sphere point in R^{n}, got length {len(v)}")
    return np.array(v.tolist() + [0.0])


def include_k(n, w):
    """Hemisphere inclusion disk^n -> disk^(n+1): append a zero.

    Agrees exactly with q(n, w, 0).
    """
    return np.array(_disk_floats(w, n) + [0.0])


def reflect(n, w):
    """Swap hemispheres by negating the last coordinate (an involution)."""
    out = np.array(w, dtype=float)
    out[-1] = -out[-1]
    return out


def retract(n, w):
    """Deformation retraction disk^(n+1) -> disk^n: drop the last cube slot.

    Q(n+1, t) splits the last coordinate x >= 0 of Q(n, t[:n]) into
    (x cos(pi t_n), x sin(pi t_n)); the retraction folds that pair back.
    """
    return np.array(_chart_form("retract", n + 1)(*_disk_floats(w, n + 1)))


def random_disk(n, rng):
    """Uniform sample of the n-disk (upper hemisphere) carrier.

    Draws on the round sphere in R^(n+1) and flips into the upper
    hemisphere.  Unlike pushing uniform parameters through the lambda
    chart -- which piles mass onto the poles and the saturation collar of
    lambda -- this sampler almost surely stays where the charts are
    numerically invertible.
    """
    w = random_sphere(n + 1, rng)
    w[-1] = abs(w[-1])
    return w


def random_sphere(n, rng):
    """Uniform sample of the full boundary sphere in R^n (n >= 1)."""
    if n < 1:
        raise DomainError(f"random_sphere needs n >= 1, got {n}")
    while True:
        g = rng.standard_normal(n)
        r = np.linalg.norm(g)
        if r > 1e-6:
            break
    return g / r


def retract_homotopy(n, w, s):
    """Track of the retraction: scales the last cube slot by 1 - lambda(s).

    s = 0 returns w; s = 1 returns include_k(n, retract(n, w)).  The
    lambda reparameterization makes the track stationary near both ends.
    """
    w = _disk_floats(w, n + 1)
    t_n = math.atan2(abs(w[-1]), w[-2]) / math.pi  # section's last slot
    v = _chart_form("retract", n + 1)(*w)
    return np.array(_chart_form("q", n)(*v, t_n * (1.0 - lambda_fn(s))))


# ---------------------------------------------------------------------------
# Array entry points: one point per row
# ---------------------------------------------------------------------------

def max_dev_batch(a, b):
    """max_dev row by row: an (N,) array for two (N, k) arrays of points.

    A NaN coordinate or two equal infinite ones give NaN for that row, and
    no RuntimeWarning; rows of no coordinates give 0.0.  Rows share one
    width, so arrays of different shapes are a caller's error (ValueError).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"max_dev_batch: shapes {a.shape} and {b.shape} "
                         "are not one (N, k)")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        return np.max(np.abs(a - b), axis=1, initial=0.0)


def check_disk_batch(w, n):
    """Assert every row of w lies on the upper hemisphere of the n-disk.

    The rules of check_disk row by row: n + 1 coordinates, all finite, norm
    within POINT_TOL of 1, last coordinate at least -POINT_TOL.  The
    DomainError names the first row that breaks one.  Returns w as a
    C-contiguous float array.
    """
    w = np.asarray(w, dtype=float, order="C")
    if w.ndim != 2 or w.shape[1] != n + 1:
        raise DomainError(f"expected rows of dim {n} (length {n + 1}), "
                          f"got an array of shape {w.shape}")
    # the squares of a huge finite coordinate overflow to inf, which the
    # norm test rejects
    with np.errstate(over="ignore"):
        r = np.sqrt(np.einsum("ij,ij->i", w, w))
    finite = np.isfinite(w).all(axis=1)
    bad = ~finite | ~(np.abs(r - 1.0) <= POINT_TOL) | (w[:, -1] < -POINT_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            why = f"non-finite coordinates {w[i]!r}"
        elif not abs(r[i] - 1.0) <= POINT_TOL:
            why = f"|point| = {float(r[i])!r} is not 1 within {POINT_TOL}"
        else:
            why = (f"last coordinate {float(w[i, -1])!r} < 0: "
                   "not in the upper hemisphere")
        raise DomainError(f"row {i}: {why}")
    return w


def q_batch(n, v, t):
    """q row by row: rows v of the n-disk, one time t per row."""
    *w, x = check_disk_batch(v, n).T
    return _rows(w + _suspend(x, np.asarray(t, dtype=float), ARRAY_OPS), len(x))


def Q_batch(n, t):
    """Q row by row: an (N, n) array of cube coordinates to N disk points."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != n:
        raise DomainError(f"expected rows of {n} cube coordinates, "
                          f"got an array of shape {t.shape}")
    return _rows(_Q(list(t.T), ARRAY_OPS), len(t))


def section_batch(n, w):
    """section row by row, with its pole convention."""
    w = check_disk_batch(w, n)
    return _rows(_section(n, list(w.T), ARRAY_OPS), len(w))


def retract_batch(n, w):
    """retract row by row: rows of disk^(n+1) to rows of disk^n."""
    w = check_disk_batch(w, n + 1)
    return _rows(_retract(list(w.T), ARRAY_OPS), len(w))


def random_disk_batch(n, count, rng):
    """``count`` uniform samples of the n-disk, as rows (see random_disk).

    The draw rejects and redraws a normal vector shorter than 1e-6, as
    random_sphere does, so the rows follow the same law as random_disk's,
    though not the same stream of the generator.
    """
    g = rng.standard_normal((count, n + 1))
    r = np.linalg.norm(g, axis=1)
    short = np.flatnonzero(r <= 1e-6)
    while short.size:
        g[short] = rng.standard_normal((short.size, n + 1))
        r[short] = np.linalg.norm(g[short], axis=1)
        short = short[r[short] <= 1e-6]
    w = g / r[:, None]
    w[:, -1] = np.abs(w[:, -1])
    return w
