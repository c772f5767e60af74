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

Oracles are interfaces on purpose: three ship built in (the product and
point fibrations, TrivialProductFibration), everything else can be supplied.
Given data in array form (``rows=``), a lift also gets an array form,
which fills cells by the oracle's ``lift_k_rows``/``lift_j_rows``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .smoothfn import ARRAY_OPS, FLOAT_OPS, lambda_fn, lambda_fn_batch
from .diskmodel import (Q, Q_batch, DomainError, _disk_floats, _rows, check_disk_batch,
                        check_sphere, include_j, max_dev, reflect, retract, retract_batch,
                        section, section_batch)
from .subdivision import L_TOL, _check_time, in_L, psi, psi_batch, psi_inv, psi_inv_batch
from .cellcomplex import BOUNDARY_TOL, ComplexPoint
from .homotopy import Homotopy

__all__ = [
    "Fibration", "product_fibration", "point_fibration",
    "chep", "hep", "extend_lift", "ChepRows", "ExtendRows", "rows_at_points",
    "TrivialProductFibration",
    "LiftError",
]


class LiftError(RuntimeError):
    """A lifting square could not be completed."""


# ---------------------------------------------------------------------------
# Rows: points of one locus of a complex, evaluated in one call
# ---------------------------------------------------------------------------
#
# The array forms below evaluate maps on the rows of one locus: an (N, n+1)
# array of points of one n-cell, or for the base (cell -1) a list of N base
# payloads.  A value is an (N, e) array whose row i holds the coordinates of
# point i, flattened as max_dev flattens them, so a (base, fiber) pair
# becomes one row.  Attaching maps stay float callables, applied to the few
# rows that reach a cell's boundary.

class ChepRows(NamedTuple):
    """Array forms of chep's data, on rows of one locus.

    ``f(cell, w)`` and ``k(cell, w, t)`` take the points of one open cell
    (or the base, cell -1) and ``h(a, t)`` a list of base payloads; each
    returns an (N, e) array (k may return an (N,) one).
    """
    f: object
    h: object
    k: object


class ExtendRows(NamedTuple):
    """Array forms of extend_lift's data: ``f(a)`` on a list of base
    payloads and ``bottom(cell, w)`` on the points of one open cell."""
    f: object
    bottom: object


def _as_rows(values):
    """values as an (N, e) float array; an (N,) array becomes one column."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


def _gather(count, parts):
    """One (count, e) array from (row indices, values) pairs covering range(count)."""
    out = None
    for idx, values in parts:
        if len(idx):
            values = _as_rows(values)
            out = np.empty((count, values.shape[1])) if out is None else out
            out[idx] = values
    return np.empty((count, 0)) if out is None else out


def _loci(points):
    """Complex points grouped by the locus they name, in order of first appearance.

    Yields (cell, row indices, points): cell -1 is the base, whose points
    stay a list of payloads; a cell's points are stacked into rows.
    """
    groups = {}
    for i, pt in enumerate(points):
        groups.setdefault(pt.cell, []).append(i)
    for cell, idx in groups.items():
        pts = [points[i].point for i in idx]
        yield cell, np.array(idx), pts if cell < 0 else np.array(pts)


def _by_locus(complex_, cell, w):
    """The rows w of ``cell`` (-1: base payloads) grouped by canonical locus.

    The rows of the open cell come first, as they are; a row on the
    boundary is canonicalized through the attaching maps (see _loci).  A bad
    index, rows off its disk or base rows with no base raise DomainError.
    """
    if cell == -1:
        complex_.canonicalize(ComplexPoint.base(None))  # DomainError if there is no base
        if len(w):
            yield cell, np.arange(len(w)), w
        return
    w = check_disk_batch(w, complex_.cell(cell).dim)
    edge = np.abs(w[:, -1]) <= BOUNDARY_TOL
    inner = np.flatnonzero(~edge)
    if inner.size:
        yield cell, inner, w[inner]
    edge = np.flatnonzero(edge)
    points = [complex_.canonicalize(ComplexPoint.in_cell(cell, w[i])) for i in edge]
    for locus, idx, pts in _loci(points):
        yield locus, edge[idx], pts


def _on_loci(fn, groups, *columns):
    """fn(cell, points, *columns at the group's rows) per (cell, row indices,
    points) group, in row order; each column needs one entry per row."""
    groups = list(groups)
    count = sum(len(idx) for _, idx, _ in groups)
    for shape in map(np.shape, columns):
        if shape != (count,):
            raise DomainError(f"expected one entry per row ({count}), "
                              f"got an array of shape {shape}")
    return _gather(count, [(idx, fn(c, pts, *(col[idx] for col in columns)))
                           for c, idx, pts in groups])


def rows_at_points(fn, points, *columns):
    """An array form fn(cell, w, *columns) at a list of complex points.

    One call per cell (and one for the base), in order of first
    appearance, each with the rows of the arrays in ``columns`` that
    belong to its points; the (N, e) result is in the order of ``points``.
    """
    return _on_loci(fn, _loci(points), *columns)


@dataclass(frozen=True)
class Fibration:
    """A projection with a lifting oracle against hemisphere inclusions.

    ``lift_k(n, top, bottom)`` receives a square: top on disk^n into the
    total space, bottom on disk^(n+1) into the base, commuting over the
    inclusion; it must return a map on disk^(n+1) into the total space
    restricting to ``top`` and projecting to ``bottom`` (within the
    verification tolerances of the caller).  ``lift_k_rows(n, top,
    bottom)`` solves the same square on rows: its top and bottom, and the
    map it returns, take arrays of disk rows and give (N, e) arrays of
    flattened points; only chep's array form (``rows=``) needs it.
    """
    total: object
    base: object
    project: object
    lift_k: object
    lift_k_rows: object = None


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

    def lift_k_rows(n, top, bottom):
        def lifted(w):
            base = _as_rows(bottom(w))
            return np.column_stack([base, top(retract_batch(n, w))[:, base.shape[1]:]])
        return lifted

    return Fibration(total=(B, F), base=B, project=lambda e: e[0], lift_k=lift_k,
                     lift_k_rows=lift_k_rows)


def point_fibration():
    """The projection to a point; the retraction is the lift.

    Base points are the number 0.0, which keeps the sampled equation
    checks numeric.
    """
    def lift_k(n, top, bottom):
        return lambda w: top(retract(n, w))

    def lift_k_rows(n, top, bottom):
        return lambda w: top(retract_batch(n, w))

    return Fibration(total=None, base=None, project=lambda e: 0.0, lift_k=lift_k,
                     lift_k_rows=lift_k_rows)


def chep(p, complex_, f, h, k, precheck=None, tol=1e-6, rows=None):
    """Covering homotopy extension over a finite relative cell complex.

    Inputs: ``f`` maps complex points into the total space; ``h`` is a
    homotopy on the base-space payloads; ``k`` a homotopy on complex
    points into the base of ``p``; they must satisfy, up to ``tol``,

        k(x, 0) = p(f(x)),   h(a, 0) = f(a),   p(h(a, t)) = k(a, t).

    Returns a homotopy H on complex points with H(x, 0) = f(x),
    H = h over the base, and p(H(x, t)) = k(x, t), each up to the
    oracle's accuracy.  ``precheck`` is an iterable of (complex point,
    time) pairs on which the compatibility equations are verified first;
    a violation raises LiftError with the witness.  f, h and k feed only
    the scalar H and the precheck.

    Given ``rows`` (the data in array form, a ChepRows), and only then,
    ``H.rows(cell, w, t)`` is H at the rows w of one cell (cell -1: a list
    of base payloads) and N times t, as an (N, e) array.  It inverts psi
    on all rows at once, fills the cell by the oracle's ``lift_k_rows``
    (TypeError if it has none), and descends in masks: slice rows with
    time at most L_TOL go to rows.f, wall rows to the cells their
    attaching map hits, base rows to rows.h.  A hemisphere slice off L^n
    raises LiftError naming the cell, and in the array form the row of
    the slice and its time.
    """
    if rows is not None and p.lift_k_rows is None:
        raise TypeError("chep(rows=...) needs the fibration's lift_k_rows")
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

    lifts, lifts_rows = [], []
    for beta in range(len(complex_.cells)):
        # a cell's descent reaches only the cells before it, so it closes over
        # the lifts made so far and no lift refers back to a later one
        below = _chep_descent(complex_, h, rows, tuple(lifts), tuple(lifts_rows))
        lift, lift_rows = _chep_cell(p, complex_, beta, f, k, rows, below)
        lifts.append(lift)
        lifts_rows.append(lift_rows)

    H_eval, H_locus = _chep_descent(complex_, h, rows, lifts, lifts_rows)

    def H_rows(cell, w, t):  # t checked in the caller's row order; _on_loci rejects other shapes
        groups, t = list(_by_locus(complex_, cell, w)), np.asarray(t, dtype=float)
        return _on_loci(H_locus, groups, _check_time(t) if t.shape == (len(w),) else t)

    return Homotopy(H_eval, "I_tilde", rows=None if rows is None else H_rows)


def _wall_point(v, ops):
    """The columns of v/|v|, the point of the boundary sphere a cylinder wall
    descends from; |v| is the root of the squares summed left to right, on a
    point's floats (FLOAT_OPS) and on rows (ARRAY_OPS) alike."""
    sq = 0.0
    for c in v:
        sq = sq + c * c
    r = ops.sqrt(sq)
    return [c / r for c in v]


def _chep_descent(complex_, h, rows, lifts, lifts_rows):
    """H at a complex point, and at canonical rows of one locus (open-cell
    rows or base payloads), through the cells' ``lifts`` and h over the base."""
    def H_eval(pt, t):
        cp = complex_.canonicalize(pt)
        if cp.kind == "base":
            return h(cp.point, _check_time(float(t)))
        return lifts[cp.cell](psi_inv(complex_.cells[cp.cell].dim, (cp.point, t)))

    def H_locus(cell, w, t):  # t is checked: by H.rows, or psi's time of a wall row
        if cell < 0:
            return rows.h(w, t)
        return lifts_rows[cell](psi_inv_batch(complex_.cells[cell].dim, (w, t)))

    return H_eval, H_locus


def _chep_cell(p, complex_, beta, f, k, rows, below):
    """The lift of cell beta, and its array form given ``rows`` (else None);
    ``below`` is the _chep_descent through the cells before beta."""
    cell = complex_.cells[beta]
    H_below, H_locus_below = below

    def charact(d):  # d is psi's float array, as ComplexPoint.in_cell would make it
        return complex_.canonicalize(ComplexPoint("cell", beta, d))

    def top(wd):
        cyl = psi(cell.dim, _disk_floats(wd, cell.dim) + [0.0])  # include_k's point
        d, tau = cyl
        # a slice outside L^n marks a defect in psi, not in the instance data
        if not in_L(cell.dim, cyl):
            raise LiftError(f"hemisphere slice left L^n at cell {beta}: {cyl!r}")
        if tau <= L_TOL:
            return f(charact(d))
        # wall of the cylinder: descend through the attaching map
        return H_below(cell.attach(np.array(_wall_point(d[:-1].tolist(), FLOAT_OPS))), tau)

    def bottom(w):
        d, tau = psi(cell.dim, w)
        return k(charact(d), tau)

    def top_rows(wd):
        d, tau = psi_batch(cell.dim, np.column_stack([wd, np.zeros(len(wd))]))
        off = np.flatnonzero(~in_L(cell.dim, (d, tau)))
        if off.size:
            i = int(off[0])
            raise LiftError(f"hemisphere slice left L^n at cell {beta}, row {i}, "
                            f"time {float(tau[i])!r}: disk {d[i]!r}")
        floor = np.flatnonzero(tau <= L_TOL)
        # walls of the cylinder: descend from the cell's boundary sphere
        wall = np.flatnonzero(tau > L_TOL)
        ends = _rows(_wall_point(list(d[wall, :-1].T), ARRAY_OPS) + [0.0], len(wall))
        return _gather(len(wd), [
            (floor, _on_loci(rows.f, _by_locus(complex_, beta, d[floor]))),
            (wall, _on_loci(H_locus_below, _by_locus(complex_, beta, ends), tau[wall]))])

    def bottom_rows(w):
        d, tau = psi_batch(cell.dim, w)
        return _on_loci(rows.k, _by_locus(complex_, beta, d), tau)

    return (p.lift_k(cell.dim, top, bottom),
            None if rows is None else p.lift_k_rows(cell.dim, top_rows, bottom_rows))


def hep(complex_, f, h, precheck=None, tol=1e-6, rows=None):
    """Homotopy extension: chep against the projection to the point.

    ``rows``, if given, is a ChepRows whose k is never called: the point
    fibration's lift does not read the base.
    """
    return chep(point_fibration(), complex_, f, h, k=lambda x, t: 0.0,
                precheck=precheck, tol=tol, rows=rows)


def extend_lift(g, complex_, f, bottom, precheck=None, tol=1e-6, rows=None):
    """Extend a lift over a complex against a boundary-inclusion oracle.

    ``g`` must expose ``lift_j(n, top, square_bottom)`` solving squares
    against the boundary inclusion sphere^(n-1) -> disk^n, plus a
    ``project``.  ``f`` is the given lift on base payloads and ``bottom``
    the map to lift, defined on complex points.  Returns a map on
    complex points restricting to ``f`` over the base and projecting to
    ``bottom``, up to the oracle's accuracy.

    Given ``rows`` (the data in array form, an ExtendRows), and only
    then, the map's ``rows(cell, w)`` is the map at the rows w of one cell
    (cell -1: a list of base payloads), as an (N, e) array; it fills each
    cell by the oracle's ``lift_j_rows`` (TypeError if it has none).
    """
    if rows is not None and not hasattr(g, "lift_j_rows"):
        raise TypeError("extend_lift(rows=...) needs the oracle's lift_j_rows")
    if precheck:
        for x in precheck:
            if x.kind == "base":
                if not max_dev(g.project(f(x.point)), bottom(x)) <= tol:
                    raise LiftError(
                        f"extend_lift precondition p(f(a)) = bottom(a) fails at {x!r}")

    cell_lifts, cell_lifts_rows = [], []
    for beta in range(len(complex_.cells)):
        # as in chep: each cell closes over the lifts of the cells before it
        below = _extend_descent(complex_, f, rows, tuple(cell_lifts), tuple(cell_lifts_rows))
        lift, lift_rows = _extend_cell(g, complex_, beta, bottom, rows, below)
        cell_lifts.append(lift)
        cell_lifts_rows.append(lift_rows)

    lift_eval, lift_locus = _extend_descent(complex_, f, rows, cell_lifts, cell_lifts_rows)

    def lift_rows(cell, w):
        return _on_loci(lift_locus, _by_locus(complex_, cell, w))

    lift_eval.rows = None if rows is None else lift_rows
    return lift_eval


def _extend_descent(complex_, f, rows, cell_lifts, cell_lifts_rows):
    """The lift at a complex point, and at canonical rows of one locus
    (open-cell rows or base payloads), through ``cell_lifts`` and f over the base."""
    def lift_eval(pt):
        cp = complex_.canonicalize(pt)
        if cp.kind == "base":
            return f(cp.point)
        return cell_lifts[cp.cell](cp.point)

    def lift_locus(cell, w):
        return rows.f(w) if cell < 0 else cell_lifts_rows[cell](w)

    return lift_eval, lift_locus


def _extend_cell(g, complex_, beta, bottom, rows, below):
    """The lift of cell beta, and its array form given ``rows`` (else None);
    ``below`` is the _extend_descent through the cells before beta."""
    cell = complex_.cells[beta]
    lift_below, lift_locus_below = below

    def top(v):  # a boundary sphere point, checked as include_j checks it (and raises)
        v = check_sphere(v)
        return lift_below(cell.attach(v if len(v) == cell.dim else include_j(cell.dim, v)))

    def square_bottom(w):
        return bottom(complex_.canonicalize(ComplexPoint.in_cell(beta, w)))

    def top_rows(v):
        return _on_loci(lift_locus_below, _by_locus(complex_, beta,
                                                    np.column_stack([v, np.zeros(len(v))])))

    def square_bottom_rows(w):
        return _on_loci(rows.bottom, _by_locus(complex_, beta, w))

    has_top = cell.dim > 0
    return (g.lift_j(cell.dim, top if has_top else None, square_bottom),
            None if rows is None else g.lift_j_rows(cell.dim, top_rows if has_top else None,
                                                    square_bottom_rows))


# ---------------------------------------------------------------------------
# A supplied boundary-lift oracle: trivial bundle with contractible fiber
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivialProductFibration:
    """Trivial bundle base x R^m with a boundary-lift oracle.

    The fiber is contractible, so boundary data always extends.  With
    t = section(n, w), the lift's fiber blends the fibers of ``top`` at
    v = Q(n-1, t[:-1]) and its reflection with lambda_fn(t[-1]) weights:
    wall derivatives stay flat, and on the boundary, where t[-1] is 0 or
    1, it is ``top``'s.  The base component is the square's bottom map.
    ``lift_j_rows`` is the same lift on rows (see Fibration.lift_k_rows).
    """
    fiber_dim: int = 1

    def project(self, e):
        return e[0]

    def lift_j(self, n, top, square_bottom):
        if n == 0:
            return lambda w: (square_bottom(w), np.zeros(self.fiber_dim))

        def lifted(w):
            t = section(n, w)
            v = Q(n - 1, t[:-1])
            a = lambda_fn(t[-1])
            lo, hi = (np.asarray(top(u)[1], dtype=float) for u in (v, reflect(n - 1, v)))
            return (square_bottom(w), np.atleast_1d((1.0 - a) * lo + a * hi))

        return lifted

    def lift_j_rows(self, n, top, square_bottom):
        m = self.fiber_dim
        if n == 0:
            return lambda w: np.column_stack([_as_rows(square_bottom(w)), np.zeros((len(w), m))])

        def lifted(w):
            t = section_batch(n, w)
            v = Q_batch(n - 1, t[:, :-1])
            a = lambda_fn_batch(t[:, -1])[:, None]
            lo = top(v)[:, -m:]
            v[:, -1] = -v[:, -1]  # the reflection
            hi = top(v)[:, -m:]
            return np.column_stack([_as_rows(square_bottom(w)), (1.0 - a) * lo + a * hi])

        return lifted
