"""Cell-by-cell lifting: covering homotopy extension and boundary lifts.

A fibration is carried operationally: a projection plus an oracle that
solves lifting squares against the hemisphere inclusion disk^n ->
disk^(n+1).  Given such an oracle, ``chep`` extends compatible homotopy
data over a finite relative cell complex one cell at a time: for each
n-cell the subdivision chart psi turns the pair (new cell) x [0,1] into
a single (n+1)-disk whose hemisphere slice carries the already-known
data, the oracle fills the disk, and psi_inv transports the filling back
to the cell.  ``hep`` is the same machinery against the projection to a
point, where the retraction is itself the oracle.  ``extend_lift`` runs
the analogous induction for boundary-inclusion oracles, extending a lift
over the whole complex.

Oracles are interfaces on purpose: only the product bundle (and the
point projection) ship built in, everything else can be supplied.
"""

from dataclasses import dataclass

import numpy as np

from .smoothfn import lambda_fn
from .diskmodel import Q, check_sphere, include_k, max_dev, retract, section
from .subdivision import L_TOL, CylPoint, in_L, psi, psi_inv
from .cellcomplex import ComplexPoint
from .homotopy import Homotopy

__all__ = [
    "Fibration", "product_fibration", "point_fibration",
    "chep", "hep", "extend_lift",
    "TrivialProductFibration", "transfinite_extension",
    "LiftError",
]


class LiftError(RuntimeError):
    """A lifting square could not be completed."""


@dataclass(frozen=True)
class Fibration:
    """A projection with a lifting oracle against hemisphere inclusions.

    ``lift_k(n, top, bottom)`` receives a square: top on disk^n into the
    total space, bottom on disk^(n+1) into the base, commuting over the
    inclusion; it must return a map on disk^(n+1) into the total space
    restricting to ``top`` and projecting to ``bottom`` (within the
    verification tolerances of the caller).
    """
    total: object
    base: object
    project: object
    lift_k: object


def product_fibration(B, F):
    """The trivial bundle: total points are (base, fiber) pairs.

    The lift keeps the prescribed base component and transports the
    fiber component along the deformation retraction onto the
    hemisphere slice, which makes both lift equations hold by
    construction.
    """
    def lift_k(n, top, bottom):
        def lifted(w):
            return (bottom(w), top(retract(n, w))[1])
        return lifted

    return Fibration(total=(B, F), base=B, project=lambda e: e[0], lift_k=lift_k)


def point_fibration():
    """The projection to a point; the retraction is the lift.

    Base points are the number 0.0, which keeps the sampled equation
    checks numeric.
    """
    def lift_k(n, top, bottom):
        return lambda w: top(retract(n, w))

    return Fibration(total=None, base=None, project=lambda e: 0.0, lift_k=lift_k)


def chep(p, complex_, f, h, k, precheck=None, tol=1e-6):
    """Covering homotopy extension over a finite relative cell complex.

    Inputs: ``f`` maps complex points into the total space; ``h`` is a
    homotopy on the base-space payloads; ``k`` a homotopy on complex
    points into the base of ``p``; they must satisfy, up to ``tol``,

        k(x, 0) = p(f(x)),   h(a, 0) = f(a),   p(h(a, t)) = k(a, t).

    Returns a homotopy H on complex points with H(x, 0) = f(x),
    H = h over the base, and p(H(x, t)) = k(x, t), each up to the
    oracle's accuracy.  ``precheck`` is an iterable of (complex point,
    time) pairs on which the compatibility equations are verified first;
    a violation raises LiftError with the witness.
    """
    if precheck:
        for x, t in precheck:
            if not max_dev(k(x, 0.0), p.project(f(x))) <= tol:
                raise LiftError(f"chep precondition k(x,0) = p(f(x)) fails at {x!r}: "
                                f"{k(x, 0.0)!r} vs {p.project(f(x))!r}")
            if x.kind == "base":
                a = x.point
                if not max_dev(h(a, 0.0), f(x)) <= tol:
                    raise LiftError(f"chep precondition h(a,0) = f(a) fails at {a!r}")
                if not max_dev(p.project(h(a, t)), k(x, t)) <= tol:
                    raise LiftError(f"chep precondition p(h(a,t)) = k(a,t) fails "
                                    f"at {a!r}, t={t!r}")

    lifts = {}

    def H_eval(pt, t):
        cp = complex_.canonicalize(pt)
        if cp.kind == "base":
            return h(cp.point, t)
        return lifts[cp.cell](psi_inv(complex_.cells[cp.cell].dim,
                                      CylPoint(cp.point, float(t))))

    for beta, cell in enumerate(complex_.cells):
        n = cell.dim

        def charact(d, beta=beta):
            return complex_.canonicalize(ComplexPoint.in_cell(beta, d))

        def top(wd, beta=beta, cell=cell, charact=charact):
            cyl = psi(cell.dim, include_k(cell.dim, wd))
            d, tau = cyl
            # a slice outside L^n marks a defect in psi, not in the instance data
            if not in_L(cell.dim, cyl):
                raise LiftError(
                    f"hemisphere slice left L^n at cell {beta}: {cyl!r}")
            if tau <= L_TOL:
                return f(charact(d))
            # wall of the cylinder: descend through the attaching map
            v = np.asarray(d[:-1], dtype=float)
            v = v / np.linalg.norm(v)
            return H_eval(cell.attach(v), tau)

        def bottom(w, cell=cell, charact=charact):
            d, tau = psi(cell.dim, w)
            return k(charact(d), tau)

        lifts[beta] = p.lift_k(n, top, bottom)

    return Homotopy(H_eval, "I_tilde")


def hep(complex_, f, h, precheck=None, tol=1e-6):
    """Homotopy extension: chep against the projection to the point."""
    return chep(point_fibration(), complex_, f, h, k=lambda x, t: 0.0,
                precheck=precheck, tol=tol)


def extend_lift(g, complex_, f, bottom, precheck=None, tol=1e-6):
    """Extend a lift over a complex against a boundary-inclusion oracle.

    ``g`` must expose ``lift_j(n, top, square_bottom)`` solving squares
    against the boundary inclusion sphere^(n-1) -> disk^n, plus a
    ``project``.  ``f`` is the given lift on base payloads and ``bottom``
    the map to lift, defined on complex points.  Returns a map on
    complex points restricting to ``f`` over the base and projecting to
    ``bottom``, up to the oracle's accuracy.
    """
    if precheck:
        for x in precheck:
            if x.kind == "base":
                if not max_dev(g.project(f(x.point)), bottom(x)) <= tol:
                    raise LiftError(
                        f"extend_lift precondition p(f(a)) = bottom(a) fails at {x!r}")

    cell_lifts = {}

    def lift_eval(pt):
        cp = complex_.canonicalize(pt)
        if cp.kind == "base":
            return f(cp.point)
        return cell_lifts[cp.cell](cp.point)

    for beta, cell in enumerate(complex_.cells):
        def top(v, cell=cell):
            return lift_eval(cell.attach(np.asarray(v, dtype=float)))

        def square_bottom(w, beta=beta):
            return bottom(complex_.canonicalize(ComplexPoint.in_cell(beta, w)))

        cell_lifts[beta] = g.lift_j(cell.dim, top if cell.dim > 0 else None,
                                    square_bottom)

    return lift_eval


# ---------------------------------------------------------------------------
# A supplied boundary-lift oracle: trivial bundle with contractible fiber
# ---------------------------------------------------------------------------

def transfinite_extension(g, t):
    """Blend boundary-cube data into the interior (Coons-style, recursive).

    ``g`` is defined on the boundary of the unit cube of dimension
    len(t); the result matches g exactly on every face and blends with
    lambda_fn weights, so wall derivatives stay flat.
    """
    n = len(t)
    if n == 0:
        return g(np.zeros(0))
    w = lambda_fn(float(t[-1]))
    head = np.asarray(t[:-1], dtype=float)
    lo = g(np.concatenate([head, [0.0]]))
    hi = g(np.concatenate([head, [1.0]]))
    base = (1.0 - w) * lo + w * hi
    if n == 1:
        return base

    def resid(s):
        s = np.asarray(s, dtype=float)
        return (g(np.concatenate([s, [float(t[-1])]]))
                - (1.0 - w) * g(np.concatenate([s, [0.0]]))
                - w * g(np.concatenate([s, [1.0]])))

    return base + transfinite_extension(resid, head)


@dataclass(frozen=True)
class TrivialProductFibration:
    """Trivial bundle base x R^m with a boundary-lift oracle.

    The fiber is contractible, so boundary data always extends: the
    fiber component of the lift is the transfinite blend of the
    prescribed boundary values in canonical cube coordinates, and the
    base component is exactly the square's bottom map.
    """
    fiber_dim: int = 1

    def project(self, e):
        return e[0]

    def lift_j(self, n, top, square_bottom):
        if n == 0:
            return lambda w: (square_bottom(w), np.zeros(self.fiber_dim))

        def boundary_fiber(tb):
            w = Q(n, tb)
            v = np.asarray(w[:-1], dtype=float)
            v = v / np.linalg.norm(v)
            return np.atleast_1d(np.asarray(top(check_sphere(v))[1], dtype=float))

        def lifted(w):
            t = section(n, w)
            return (square_bottom(w), transfinite_extension(boundary_fiber, t))

        return lifted
