"""Subdivision of the (n+1)-disk into a cylinder over the n-disk.

The centerpiece is a smooth bijection

    psi : disk^(n+1)  ->  disk^n x [0,1]

assembled from a piecewise chart ``phi_map`` (three closed-form branches
over the slabs s in [0,1/3], [1/3,2/3], [2/3,1] of the next-to-last cube
slot) precomposed with the wrinkle ``rho``, which reparameterizes that
slot by the profile ``xi``.  The branches of phi_map meet continuously
but not differentiably; because xi flattens every derivative at 1/3 and
2/3, the wrinkled composite is smooth across the seams.  That trade is
exactly what the seam checks in the verification suite measure: psi
passes finite-difference smoothness across the seams, while phi_map
alone must fail them.

Restricted to the equatorial copy of disk^n (time slot 0), psi lands in
the boundary-and-floor subspace

    L^n = sphere^(n-1) x [0,1]  union  disk^n x {0},

which is what makes it the change of coordinates behind the cell-by-cell
homotopy lifting in ``lifting``.

Parameter conventions: a point of disk^(n+1) is written through the
chart Q(n+1, (e_1, ..., e_{n-1}, lambda(s), lambda(t))) with v =
Q(n-1, e) the underlying (n-1)-disk point, s the subdivided slot and t
the cylinder slot.  ``source_point`` builds such a point; psi and
psi_inv recover the parameters through the canonical section.

psi picks its branch by PHI_BRANCHES[phi_branch(s)], psi_inv by
PHI_INVERSES[target_region(a, b)], each written once over coordinate
columns (``_psi``, ``_psi_inv``).  The array entry points psi_batch and
psi_inv_batch run them on N points at once, as rows, with one mask per
branch, and agree with psi and psi_inv row by row.  psi and psi_inv run
one straight-line float function per dimension (``_psi_form``), traced
from section followed by ``_psi`` or ``_psi_inv`` on smoothfn's
TRACE_OPS; the wrinkle, xi or xi_inv, stays a call, passed at each call.
"""

import functools
from typing import NamedTuple

import numpy as np

from .smoothfn import (ARRAY_OPS, TRACE_OPS, lambda_fn, lambda_inv, straight_line, xi, xi_batch,
                       xi_inv, xi_inv_batch)
from .diskmodel import (DomainError, Q, _disk_floats, _Q, _rows, _section, check_disk, q,
                        section, section_batch)

__all__ = [
    "CylPoint", "source_point", "PHI_BRANCHES", "phi_branch", "target_walls",
    "PHI_INVERSES", "target_region", "phi_map", "rho", "psi", "psi_inv",
    "psi_batch", "psi_inv_batch", "seam_curve", "in_L",
]


class CylPoint(NamedTuple):
    """A point of disk^n x [0,1]: hemisphere coordinates plus a time.

    psi_batch and psi_inv_batch hold N points in one CylPoint: an (N, n+1)
    array of disk rows and an (N,) array of times.
    """
    disk: np.ndarray
    time: float


def _check_time(t):
    """The float t, or the (N,) array t of the times of N rows, checked to lie in [0,1]."""
    if isinstance(t, float) and not 0.0 <= t <= 1.0:
        raise DomainError(f"time {t!r} outside [0,1]")
    if isinstance(t, np.ndarray) and not (inside := (t >= 0.0) & (t <= 1.0)).all():
        i = int(np.argmin(inside))
        raise DomainError(f"row {i}: time {float(t[i])!r} outside [0,1]")
    return t


def _check_params(s, t):
    """Assert the chart parameters s and t lie in [0,1]."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError(f"parameters s={s!r}, t={t!r} outside [0,1]")


def source_point(n, v, s, t):
    """The disk^(n+1) point with parameters (v, s, t); v in disk^(n-1)."""
    _check_params(s, t)
    return Q(n + 1, section(n - 1, v).tolist() + [lambda_fn(s), lambda_fn(t)])


# target parameters (a, b) of phi on each slab of s, in slab order: the
# image is (q(n-1, v, lambda(a)), lambda(b))
PHI_BRANCHES = (
    lambda s, t: (s * t, 1.0 - 3.0 * s * (1.0 - t)),
    lambda s, t: ((3.0 - 2.0 * t) * s + t - 1.0, t),
    lambda s, t: (1.0 - (1.0 - s) * t, 1.0 - 3.0 * (1.0 - s) * (1.0 - t)),
)


def phi_branch(s):
    """Index into PHI_BRANCHES of the slab of s; a wall joins the slab below.

    s in [0,1] may be a float or an array, giving an index per entry.
    """
    return (s > 1.0 / 3.0) * 1 + (s > 2.0 / 3.0) * 1


def target_walls(t):
    """The walls s = t/3 and s = 1 - t/3 between the target regions."""
    return t / 3.0, 1.0 - t / 3.0


def target_region(a, b):
    """Index into PHI_INVERSES of the target region of (a, b); a wall joins
    the outer region.  Like phi_branch, it takes floats or arrays."""
    lo, hi = target_walls(b)
    return (a > lo) * 1 + (a >= hi) * 1


def _lower_inverse(a, b):
    """(s, t) of PHI_BRANCHES[0] with target (a, b).  At the cylinder top
    over the boundary, a = 0 with b = 1, s is 0 and t is taken to be 0,
    consistent with the quotient identifications at the poles."""
    s = (1.0 + 3.0 * a - b) / 3.0
    return s, a / (s + (s == 0.0))


def _upper_inverse(a, b):
    """The lower inverse under the reflection a -> 1 - a, s -> 1 - s."""
    s, t = _lower_inverse(1.0 - a, b)
    return 1.0 - s, t


# source parameters (s, t) of phi's target pair (a, b), in region order
PHI_INVERSES = (
    _lower_inverse,
    lambda a, b: ((a + 1.0 - b) / (3.0 - 2.0 * b), b),
    _upper_inverse,
)


def phi_map(n, s, t, v):
    """Piecewise cylinder chart, branch by the slab containing s.

    Takes the disk^(n+1) point with parameters (v, s, t) to a CylPoint.
    Adjacent branches agree on the walls s = 1/3 and s = 2/3 but with
    mismatched derivatives; see ``psi`` for the smoothed composite.
    v is validated by ``q``.
    """
    _check_params(s, t)
    a, b = PHI_BRANCHES[phi_branch(s)](s, t)
    return CylPoint(q(n - 1, v, lambda_fn(a)), lambda_fn(b))


def rho(n, w):
    """Wrinkle disk^(n+1) -> disk^(n+1): reparameterize slot n by xi.

    Fixes every point whose s-parameter lies in [0,1/6] or [5/6,1]; not
    an involution and not idempotent in between.  For n = 0 there is no
    subdivided slot and rho is the identity.
    """
    if n == 0:
        return check_disk(w, 1)
    c = section(n + 1, w)
    s = lambda_inv(c[n - 1])
    c[n - 1] = lambda_fn(xi(s))
    return Q(n + 1, c)


def _psi(n, c, ops, wrinkle):
    """psi on the section columns c of disk^(n+1): (disk columns, time).
    ``wrinkle`` is the profile applied to the slot s, None for phi_map."""
    if n == 0:
        return [1.0], c[0]
    s, t = ops.lambda_inv(c[n - 1]), ops.lambda_inv(c[n])
    s = s if wrinkle is None else wrinkle(s)
    a, b = ops.pick(PHI_BRANCHES, phi_branch(s), s, t)
    return _Q(c[:n - 1] + [ops.lambda_fn(a)], ops), ops.lambda_fn(b)


def _psi_inv(n, e, y, ops, wrinkle):
    """psi_inv on the section columns e of disk^n and the times y, as
    columns; ``wrinkle`` is the inverse profile applied to s, or None."""
    if n == 0:
        return _Q([y], ops)
    a, b = ops.lambda_inv(e[n - 1]), ops.lambda_inv(y)
    s, t = ops.pick(PHI_INVERSES, target_region(a, b), a, b)
    s, t = ops.clip01(s), ops.clip01(t)
    s = s if wrinkle is None else wrinkle(s)
    return _Q(e[:n - 1] + [ops.lambda_fn(s), ops.lambda_fn(t)], ops)


@functools.lru_cache(maxsize=None)
def _psi_form(n, inverse, wrinkle):
    """psi (inverse: psi_inv) in dimension n as one straight-line function of
    the n + 2 floats of its point (inverse: the disk's, then the time) and
    the profile ``wrinkle`` it calls, unless wrinkle is False."""
    def body(x, fn):
        fn = fn if wrinkle else None
        if inverse:
            return _psi_inv(n, _section(n, x[:-1], TRACE_OPS), x[-1], TRACE_OPS, fn)
        return _psi(n, _section(n + 1, x, TRACE_OPS), TRACE_OPS, fn)
    return straight_line(body, n + 2, ("wrinkle",),
                         name=f"psi{'_inv' * inverse} {n}{'' if wrinkle else ' unwrinkled'}")


def psi(n, w, wrinkle=True):
    """Smooth bijection disk^(n+1) -> disk^n x [0,1].

    The composite of the wrinkle with the piecewise chart; psi(0, -)
    inverts the one-slot chart q(0, -, -) directly.  ``wrinkle=False``
    skips the reparameterization and exposes the raw piecewise chart at
    point level -- the negative control for the seam smoothness checks.
    """
    disk, time = _psi_form(n, False, bool(wrinkle))(*_disk_floats(w, n + 1), xi)
    return CylPoint(np.array(disk), time)


def psi_inv(n, cyl, wrinkle=True):
    """Inverse of psi, branch by the target region.

    Recovers the target parameters (a, b) of the cylinder point, inverts
    the matching phi branch by PHI_INVERSES, undoes the wrinkle by
    xi_inv, and reassembles through the canonical chart.
    """
    e = _disk_floats(cyl[0], n)
    return np.array(_psi_form(n, True, bool(wrinkle))(*e, _check_time(float(cyl[1])), xi_inv))


def psi_batch(n, w):
    """psi row by row: N rows of disk^(n+1) points to a CylPoint of N rows.

    DomainError names the first row off the disk.
    """
    c = section_batch(n + 1, w)
    disk, time = _psi(n, list(c.T), ARRAY_OPS, xi_batch)
    return CylPoint(_rows(disk, len(c)), time)


def psi_inv_batch(n, cyl):
    """psi_inv row by row: a CylPoint of N rows to an (N, n+2) array.

    DomainError names the first row whose disk point is off the disk, else
    the first time outside [0,1].
    """
    e = section_batch(n, cyl[0])
    y = np.asarray(cyl[1], dtype=float)
    if y.shape != (len(e),):
        raise DomainError(f"expected {len(e)} times, got an array of shape {y.shape}")
    return _rows(_psi_inv(n, list(e.T), _check_time(y), ARRAY_OPS, xi_inv_batch), len(y))


def seam_curve(n, v, t, wrinkle=True):
    """s -> psi(n, source_point(n, v, s, t)) in chart parameters.

    The curve crosses phi's walls s = 1/3 and 2/3.  Its value is
    lambda_inv of each slot of the disk's section and of the time, ending
    in phi's (a, b): their kinks have full size for every t (at s = 1/3,
    db/ds jumps from -3(1-t) to 0), where lambda would flatten them below
    any FD tolerance for t near 0.  s is clamped into [0,1].
    """
    def curve(s):
        c = psi(n, source_point(n, v, min(1.0, max(0.0, s)), t), wrinkle=wrinkle)
        return np.array([lambda_inv(e) for e in section(n, c.disk)]
                        + [lambda_inv(c.time)])
    return curve


# membership slack of L^n: time, or the disk's last coordinate, within
# L_TOL of 0
L_TOL = 1e-8


def in_L(n, cyl):
    """Membership in L^n: time 0, or disk component on the boundary sphere.

    On a CylPoint of rows (see psi_batch) it gives one verdict per row; on one point, a bool.
    """
    disk, time = cyl
    if isinstance(time, np.ndarray):
        last = np.asarray(disk, dtype=float)[..., -1]
    else:
        time, last = float(time), float(disk[-1])
    return (time <= L_TOL) | (abs(last) <= L_TOL)
