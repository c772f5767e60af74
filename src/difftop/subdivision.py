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
PHI_INVERSES[target_region(a, b)].  The array entry points psi_batch and
psi_inv_batch run the same tables with one mask per branch on N points
at once, as rows, and agree with psi and psi_inv row by row.
"""

from typing import NamedTuple

import numpy as np

from .smoothfn import (lambda_fn, lambda_fn_batch, lambda_inv, lambda_inv_batch, xi,
                       xi_batch, xi_inv, xi_inv_batch)
from .diskmodel import DomainError, Q, Q_batch, check_disk, q, section, section_batch

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


def _by_index(table, k, x, y):
    """table[k[i]](x[i], y[i]) for every entry i of the arrays, as two arrays."""
    u, v = np.empty_like(x), np.empty_like(x)
    for j, formula in enumerate(table):
        m = k == j
        u[m], v[m] = formula(x[m], y[m])
    return u, v


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
    s = lambda_inv(c[n - 1])
    t = lambda_inv(c[n])
    if wrinkle:
        s = xi(s)
    a, b = PHI_BRANCHES[phi_branch(s)](s, t)
    return CylPoint(Q(n, c[:n - 1].tolist() + [lambda_fn(a)]), lambda_fn(b))


def psi_inv(n, cyl, wrinkle=True):
    """Inverse of psi, branch by the target region.

    Recovers the target parameters (a, b) of the cylinder point, inverts
    the matching phi branch by PHI_INVERSES, undoes the wrinkle by
    xi_inv, and reassembles through the canonical chart.
    """
    e = section(n, cyl[0])
    y = float(cyl[1])
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"time {y!r} outside [0,1]")
    if n == 0:
        return Q(1, [y])
    a = lambda_inv(e[n - 1])
    b = lambda_inv(y)
    s, t = PHI_INVERSES[target_region(a, b)](a, b)
    s = min(1.0, max(0.0, s))
    t = min(1.0, max(0.0, t))
    s = xi_inv(s) if wrinkle else s
    return Q(n + 1, e[:n - 1].tolist() + [lambda_fn(s), lambda_fn(t)])


def psi_batch(n, w):
    """psi row by row: N rows of disk^(n+1) points to a CylPoint of N rows.

    DomainError names the first row off the disk.
    """
    c = section_batch(n + 1, w)
    if n == 0:
        return CylPoint(np.ones((len(c), 1)), c[:, 0])
    s = lambda_inv_batch(c[:, n - 1])
    t = lambda_inv_batch(c[:, n])
    s = xi_batch(s)
    a, b = _by_index(PHI_BRANCHES, phi_branch(s), s, t)
    disk = Q_batch(n, np.column_stack([c[:, :n - 1], lambda_fn_batch(a)]))
    return CylPoint(disk, lambda_fn_batch(b))


def psi_inv_batch(n, cyl):
    """psi_inv row by row: a CylPoint of N rows to an (N, n+2) array.

    DomainError names the first row whose disk point is off the disk, else
    the first time outside [0,1].
    """
    e = section_batch(n, cyl[0])
    y = np.asarray(cyl[1], dtype=float)
    if y.shape != (len(e),):
        raise DomainError(f"expected {len(e)} times, got an array of shape {y.shape}")
    bad = ~((y >= 0.0) & (y <= 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"row {i}: time {float(y[i])!r} outside [0,1]")
    if n == 0:
        return Q_batch(1, y[:, None])
    a = lambda_inv_batch(e[:, n - 1])
    b = lambda_inv_batch(y)
    s, t = _by_index(PHI_INVERSES, target_region(a, b), a, b)
    s = xi_inv_batch(np.clip(s, 0.0, 1.0))
    t = np.clip(t, 0.0, 1.0)
    return Q_batch(n + 1, np.column_stack([e[:, :n - 1], lambda_fn_batch(s),
                                           lambda_fn_batch(t)]))


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

    On a CylPoint of rows (see psi_batch) it gives one verdict per row.
    """
    disk = np.asarray(cyl[0], dtype=float)
    return (cyl[1] <= L_TOL) | (np.abs(disk[..., -1]) <= L_TOL)
