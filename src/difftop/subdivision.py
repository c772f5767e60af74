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
"""

from typing import NamedTuple

import numpy as np

from .smoothfn import lambda_fn, lambda_inv, xi, xi_inv
from .diskmodel import DomainError, Q, check_disk, q, section

__all__ = [
    "CylPoint", "source_point", "PHI_BRANCHES", "phi_branch", "target_walls",
    "phi_map", "region_classify",
    "rho", "psi", "psi_inv", "seam_curve", "in_L",
]


class CylPoint(NamedTuple):
    """A point of disk^n x [0,1]: hemisphere coordinates plus a time."""
    disk: np.ndarray
    time: float


def source_point(n, v, s, t):
    """The disk^(n+1) point with parameters (v, s, t); v in disk^(n-1)."""
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError(f"parameters s={s!r}, t={t!r} outside [0,1]")
    e = section(n - 1, v)
    return Q(n + 1, e.tolist() + [lambda_fn(s), lambda_fn(t)])


# target parameters (a, b) of phi on each slab of s, in slab order: the
# image is (q(n-1, v, lambda(a)), lambda(b))
PHI_BRANCHES = (
    lambda s, t: (s * t, 1.0 - 3.0 * s * (1.0 - t)),
    lambda s, t: ((3.0 - 2.0 * t) * s + t - 1.0, t),
    lambda s, t: (1.0 - (1.0 - s) * t, 1.0 - 3.0 * (1.0 - s) * (1.0 - t)),
)


def phi_branch(s):
    """Index into PHI_BRANCHES of the slab of s; a wall joins the slab below."""
    if s <= 1.0 / 3.0:
        return 0
    return 1 if s <= 2.0 / 3.0 else 2


def target_walls(t):
    """The walls s = t/3 and s = 1 - t/3 between the target regions."""
    return t / 3.0, 1.0 - t / 3.0


def phi_map(n, s, t, v):
    """Piecewise cylinder chart, branch by the slab containing s.

    Takes the disk^(n+1) point with parameters (v, s, t) to a CylPoint.
    Adjacent branches agree on the walls s = 1/3 and s = 2/3 but with
    mismatched derivatives; see ``psi`` for the smoothed composite.
    v is validated by ``q``.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise DomainError(f"parameters s={s!r}, t={t!r} outside [0,1]")
    a, b = PHI_BRANCHES[phi_branch(s)](s, t)
    return CylPoint(q(n - 1, v, lambda_fn(a)), lambda_fn(b))


def region_classify(s, t, side, tol=0.0):
    """Region tags (1, 2, 3) of a parameter pair, on either side of phi.

    side "V" tags the source by the slab of s alone; side "W" tags the
    target pair (s, t) -- understood as the preimage parameters of the
    point (lambda(s), lambda(t)) -- by s <= t/3, t/3 <= s <= 1 - t/3,
    s >= 1 - t/3.  Points within ``tol`` of a wall carry both adjacent
    tags; the result is a sorted tuple.
    """
    if side == "V":
        lo, hi = 1.0 / 3.0, 2.0 / 3.0
    elif side == "W":
        lo, hi = target_walls(t)
    else:
        raise ValueError(f"side must be 'V' or 'W', got {side!r}")
    tags = []
    if s <= lo + tol:
        tags.append(1)
    if lo - tol <= s <= hi + tol:
        tags.append(2)
    if s >= hi - tol:
        tags.append(3)
    return tuple(tags)


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


def psi(n, w, wrinkle=True):
    """Smooth bijection disk^(n+1) -> disk^n x [0,1].

    The composite of the wrinkle with the piecewise chart; psi(0, -)
    inverts the one-slot chart q(0, -, -) directly.  ``wrinkle=False``
    skips the reparameterization and exposes the raw piecewise chart at
    point level -- the negative control for the seam smoothness checks.
    """
    c = section(n + 1, w)
    if n == 0:
        return CylPoint(np.array([1.0]), float(c[0]))
    v = Q(n - 1, c[:n - 1])
    s = lambda_inv(c[n - 1])
    t = lambda_inv(c[n])
    if wrinkle:
        s = xi(s)
    return phi_map(n, s, t, v)


def psi_inv(n, cyl, wrinkle=True):
    """Inverse of psi, branch by the target region.

    Recovers the target parameters (a, b) of the cylinder point, inverts
    the matching phi branch in closed form, undoes the wrinkle by
    xi_inv, and reassembles through the canonical chart.  Where the
    branch-1 formula degenerates (a = 0 with b = 1, the cylinder top
    over the boundary) the time parameter is taken to be 0, consistent
    with the quotient identifications at the poles.
    """
    e = section(n, cyl[0])
    y = float(cyl[1])
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"time {y!r} outside [0,1]")
    if n == 0:
        return Q(1, [y])
    a = lambda_inv(e[n - 1])
    b = lambda_inv(y)
    lo, hi = target_walls(b)
    if a <= lo:
        sw = (1.0 + 3.0 * a - b) / 3.0
        t = a / sw if sw > 0.0 else 0.0
    elif a >= hi:
        a1 = 1.0 - a
        s1 = (1.0 + 3.0 * a1 - b) / 3.0
        t = a1 / s1 if s1 > 0.0 else 0.0
        sw = 1.0 - s1
    else:
        t = b
        sw = (a + 1.0 - t) / (3.0 - 2.0 * t)
    sw = min(1.0, max(0.0, sw))
    t = min(1.0, max(0.0, t))
    s = xi_inv(sw) if wrinkle else sw
    return Q(n + 1, e[:n - 1].tolist() + [lambda_fn(s), lambda_fn(t)])


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


def in_L(n, cyl, tol=1e-8):
    """Membership in L^n: time 0, or disk component on the boundary sphere."""
    disk = np.asarray(cyl[0], dtype=float)
    return float(cyl[1]) <= tol or abs(disk[-1]) <= tol
