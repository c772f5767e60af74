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
"""

import math

import numpy as np

from .smoothfn import lambda_fn

__all__ = [
    "DomainError", "POINT_TOL",
    "check_disk", "check_sphere",
    "point_to_json",
    "q", "Q", "gen_plot", "section",
    "include_j", "include_k", "reflect", "retract", "retract_homotopy",
    "random_disk", "random_sphere",
]

# membership slack for |norm - 1| and hemisphere sign; round-trips through
# the trig charts stay below 1e-12 for n <= 3, so this is a 10^3 margin
POINT_TOL = 1e-9


class DomainError(ValueError):
    """A point violates the membership contract of an operation."""


def _norm(x):
    """Euclidean norm of a C-contiguous 1-D float array.

    Bit for bit what np.linalg.norm returns: sqrt of the BLAS dot.  The
    dot fuses multiply-adds, so a Python sum of squares or math.hypot
    differs in the last bit on 8-18% of vectors of length 2 to 5; on a
    strided array of length >= 4 BLAS sums in another order, which is why
    the membership checks make their arrays C-contiguous.
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
    r = _norm(v)
    # a non-finite coordinate makes r NaN or inf; so does a finite vector
    # whose squares overflow, which the norm test below rejects
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
