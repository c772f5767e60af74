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
function applied row by row within 1e-14 per coordinate.
"""

import math

import numpy as np

from .smoothfn import lambda_fn

__all__ = [
    "DomainError", "POINT_TOL", "EQ_TOL", "max_dev",
    "check_disk", "check_sphere",
    "point_to_json",
    "q", "Q", "gen_plot", "section",
    "include_j", "include_k", "reflect", "retract", "retract_homotopy",
    "random_disk", "random_sphere",
    "max_dev_batch", "check_disk_batch", "q_batch", "Q_batch", "section_batch",
    "random_disk_batch",
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


def _norm(x):
    """Euclidean norm of a C-contiguous 1-D float array.

    Bit for bit what np.linalg.norm returns: sqrt of the BLAS dot.  The
    dot fuses multiply-adds, so a Python sum of squares or math.hypot
    differs in the last bit on 8-18% of vectors of length 2 to 5; on a
    strided array of length >= 4 BLAS sums in another order, which is why
    check_disk returns a C-contiguous array for section's tail norms.
    """
    return math.sqrt(x.dot(x))


def check_disk(w, n=None):
    """Assert w lies on the upper hemisphere (of dimension n if given)."""
    w = np.asarray(w, dtype=float, order="C")
    if n is not None and len(w) != n + 1:
        raise DomainError(f"expected dim {n} (length {n + 1}), got length {len(w)}")
    check_sphere(w)
    last = float(w[-1])
    if last < -POINT_TOL:
        raise DomainError(f"last coordinate {last!r} < 0: not in the upper hemisphere")
    return w


def point_to_json(w):
    """Wire form of a disk point: coordinate list plus its dimension."""
    w = np.asarray(w, dtype=float)
    return {"dim": int(len(w) - 1), "coords": [float(c) for c in w]}


def check_sphere(v):
    """Assert v is a unit vector (a point of the full boundary sphere)."""
    v = np.asarray(v, dtype=float, order="C")
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


def _suspend(x, t):
    """The suspension step x -> (x cos(pi t), x sin(pi t)) of q and Q."""
    a = math.pi * t
    return [x * math.cos(a), x * math.sin(a)]


def q(n, v, t):
    """One suspension step: disk^n x [0,1] -> disk^(n+1).

    Sends (v, t) to (v_1, ..., v_n, v_{n+1} cos(pi t), v_{n+1} sin(pi t)).
    t = 0 is the inclusion as the upper hemisphere's equator-preserving
    copy, t = 1 lands in the reflected (lower) hemisphere.
    """
    w = check_disk(v, n).tolist()
    w[-1:] = _suspend(w[-1], t)
    return np.array(w)


def Q(n, t):
    """Iterated suspension chart [0,1]^n -> disk^n.

    Q(0) is the unique point (1,) of the 0-disk; Q(1)(t) is the upper
    unit semicircle (cos pi t, sin pi t).
    """
    t = _floats(t)
    if len(t) != n:
        raise DomainError(f"expected {n} cube coordinates, got {len(t)}")
    w = [1.0]
    for ti in t:
        w[-1:] = _suspend(w[-1], ti)
    return np.array(w)


def gen_plot(n, x):
    """The generating chart R^n -> disk^n: Q(n) after lambda in each slot."""
    return Q(n, [lambda_fn(xi) for xi in _floats(x)])


def section(n, w):
    """Canonical cube coordinates: the right inverse of Q(n).

    Peels spherical coordinates level by level.  Each slot is recovered
    as t_i = atan2(|tail|, w_i) / pi where |tail| is the norm of the
    still-unpeeled coordinates; this is well-conditioned in every regime
    (arccos of a near-1 ratio would lose half the significant digits
    whenever a slot sits near 0 or 1).  The final slot uses
    atan2(|w_{n+1}|, w_n), landing in [0,1] because the last coordinate
    is nonnegative up to membership slack.  When a tail vanishes exactly
    the remaining slots are 0 -- a deterministic fiber representative at
    the poles.  Q(n, section(n, w)) == w within 1e-10 for n <= 3.
    """
    w = check_disk(w, n)
    x = w.tolist()
    t = [0.0] * n
    for i in range(n - 1):
        rest = _norm(w[i + 1:])
        t[i] = math.atan2(rest, x[i]) / math.pi
        if rest == 0.0:
            return np.array(t)  # pole: remaining slots stay 0
    if n >= 1:
        t[n - 1] = math.atan2(abs(x[n]), x[n - 1]) / math.pi
    return np.array(t)


def include_j(n, v):
    """Boundary inclusion sphere^(n-1) -> disk^n: append a zero."""
    v = check_sphere(v)
    if len(v) != n:
        raise DomainError(f"expected a sphere point in R^{n}, got length {len(v)}")
    out = np.zeros(n + 1)
    out[:n] = v
    return out


def include_k(n, w):
    """Hemisphere inclusion disk^n -> disk^(n+1): append a zero.

    Agrees exactly with q(n, w, 0).
    """
    w = check_disk(w, n)
    out = np.zeros(n + 2)
    out[:-1] = w
    return out


def reflect(n, w):
    """Swap hemispheres by negating the last coordinate (an involution)."""
    w = np.asarray(w, dtype=float)
    out = w.copy()
    out[-1] = -out[-1]
    return out


def retract(n, w):
    """Deformation retraction disk^(n+1) -> disk^n: drop the last cube slot."""
    t = section(n + 1, w)
    return Q(n, t[:n])


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
    t = section(n + 1, w)
    t[n] *= 1.0 - lambda_fn(s)
    return Q(n + 1, t)


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


def _suspend_rows(w, t):
    """The suspension step of q on every row: its last coordinate x becomes
    (x cos(pi t), x sin(pi t))."""
    out = np.empty((w.shape[0], w.shape[1] + 1))
    out[:, :-2] = w[:, :-1]
    a = math.pi * np.asarray(t, dtype=float)
    out[:, -2] = w[:, -1] * np.cos(a)
    out[:, -1] = w[:, -1] * np.sin(a)
    return out


def q_batch(n, v, t):
    """q row by row: rows v of the n-disk, one time t per row."""
    return _suspend_rows(check_disk_batch(v, n), t)


def Q_batch(n, t):
    """Q row by row: an (N, n) array of cube coordinates to N disk points."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != n:
        raise DomainError(f"expected rows of {n} cube coordinates, "
                          f"got an array of shape {t.shape}")
    w = np.ones((t.shape[0], 1))
    for i in range(n):
        w = _suspend_rows(w, t[:, i])
    return w


def section_batch(n, w):
    """section row by row, with its pole convention.

    A row whose tail vanishes exactly keeps 0 in every later slot; the
    tail norms are taken from the right, so they may differ from
    section's in the last bit.
    """
    w = check_disk_batch(w, n)
    t = np.zeros((w.shape[0], n))
    if n == 0:
        return t
    # rest[:, i] = |w[:, i+1:]|
    rest = np.sqrt(np.cumsum((w * w)[:, :0:-1], axis=1)[:, ::-1])
    live = np.ones(w.shape[0], dtype=bool)
    for i in range(n - 1):
        t[live, i] = np.arctan2(rest[live, i], w[live, i]) / math.pi
        live &= rest[:, i] != 0.0
    t[live, n - 1] = np.arctan2(np.abs(w[live, n]), w[live, n - 1]) / math.pi
    return t


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
