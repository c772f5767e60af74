"""Homotopy algebra on evaluators.

Homotopies are maps (point, time in [0,1]) -> point.  Every construction
here reparameterizes time through ``lambda_fn`` so that the results are
stationary near the endpoints; gluing two such homotopies end to end
therefore never manufactures a kink.  The same trick, applied in a
cube slot of the disk chart, gives the maps of representatives
(``PairMapRep``) of relative homotopy classes: the product ``star``, the
boundary restriction ``delta_restrict`` and the two-sided doubling
``glue_double`` used to compare lifts.  Each takes and returns
representatives whose maps evaluate blocks of disk points, one per row,
in one pass through the array charts.

Two points agree when max_dev(a, b) <= EQ_TOL, an absolute slack of
10^-9 with no relative part.  ``concat`` compares its seam at each
sample point, ``star`` and ``glue_double`` compare basepoints, and
``glue_double`` holds both maps constant on its block of sample rows.

``path_components`` computes the path partition of a finite cell
complex combinatorially: only 1-cells can join components (the boundary
sphere of an n-cell is connected for n >= 2, so its attaching image
already lies in a single component).
"""

from dataclasses import dataclass

import numpy as np

from .smoothfn import lambda_fn, lambda_fn_batch, lambda_inv_batch
from .diskmodel import (EQ_TOL, DomainError, Q_batch, check_disk_batch, max_dev,
                        max_dev_batch, section_batch)

__all__ = [
    "Homotopy", "PairMapRep", "to_tilde_homotopy", "concat",
    "star", "delta_restrict", "glue_double",
    "path_components",
]


@dataclass(frozen=True)
class Homotopy:
    """A time-parameterized family of maps.

    ``kind`` records the parameterization convention of ``fn``: "R" for a
    family defined for all real times, "I" for the plain unit interval,
    "I_tilde" for the endpoint-flat convention this package works in.
    ``rows``, when a construction supplies it, is an array form of ``fn``
    (see lifting.chep).
    """
    fn: object
    kind: str = "I_tilde"
    rows: object = None

    def __call__(self, x, t):
        return self.fn(x, t)


def to_tilde_homotopy(F):
    """Reparameterize an "R" or "I" homotopy into the endpoint-flat kind.

    Precomposes the time slot with lambda_fn, which fixes both endpoint
    maps exactly (lambda(0) = 0, lambda(1) = 1) and flattens the time
    dependence near them; an "I_tilde" homotopy passes through unchanged.
    """
    if F.kind == "I_tilde":
        return F
    return Homotopy(lambda x, t: F.fn(x, lambda_fn(t)), "I_tilde")


def concat(F, G, sample_points=()):
    """Concatenation: run F on [0,1/2], G on [1/2,1], lambda-reclocked.

    The composite is F(x, lambda(3t)) then G(x, lambda(3t-2)); both
    branches sit at the common middle map F(.,1) = G(.,0) throughout
    [1/3, 2/3], so the seam is flat.  End maps are preserved exactly.
    Compatibility F(x,1) = G(x,0) is checked on ``sample_points`` and a
    failing witness is reported.
    """
    for x in sample_points:
        if not max_dev(F.fn(x, 1.0), G.fn(x, 0.0)) <= EQ_TOL:
            raise DomainError(
                f"concat: end of first homotopy differs from start of second at x={x!r}: "
                f"{F.fn(x, 1.0)!r} vs {G.fn(x, 0.0)!r}")

    def fn(x, t):
        if t <= 0.5:
            return F.fn(x, lambda_fn(3.0 * t))
        return G.fn(x, lambda_fn(3.0 * t - 2.0))

    return Homotopy(fn, "I_tilde")


@dataclass(frozen=True)
class PairMapRep:
    """A representative of a relative homotopy class.

    ``fn`` maps the n-disk into a target space, sending the boundary
    sphere into a chosen subspace and the lower half of the boundary to
    the basepoint.  It maps an (N, n+1) array of disk points, one per row,
    to the (N, e) array of their images; a single point is a one-row array.
    """
    dim: int
    fn: object
    basepoint: object = None

    def __call__(self, w):
        return self.fn(w)


def _check_reps(name, n, *reps):
    """n >= 1, every rep on the n-disk, and one basepoint among those named."""
    if n < 1:
        raise DomainError(f"{name} needs dimension >= 1")
    if any(rep.dim != n for rep in reps):
        raise DomainError(f"{name}: dimension mismatch: {[rep.dim for rep in reps]} at n={n}")
    points = [rep.basepoint for rep in reps if rep.basepoint is not None]
    if not all(max_dev(p, points[0]) <= EQ_TOL for p in points[1:]):
        raise DomainError(f"{name}: basepoints differ")


def _two_sided(n, phi, psi, slot, clock):
    """The rep sending each row w to phi or psi by the slot s of section(w).

    With (u, left, right) = clock(s): psi at lambda(right) if u > 1/2, else phi at lambda(left).
    """
    def fn(w):
        t = section_batch(n, w)
        u, left, right = clock(t[:, slot])
        r = u > 0.5
        t[:, slot] = lambda_fn_batch(np.where(r, right, left))
        a, b = phi.fn(Q_batch(n, t[~r])), psi.fn(Q_batch(n, t[r]))
        out = np.empty((len(w), a.shape[1]))
        out[~r], out[r] = a, b
        return out

    return PairMapRep(n, fn, phi.basepoint)


def star(n, phi, psi_rep):
    """Representative-level class multiplication on the n-disk, n >= 1.

    Evaluates at w by splitting the first cube slot of the canonical
    chart: phi sees lambda(3 t1), psi_rep sees lambda(3 t1 - 2).  At the
    wall t1 = 1/2 both sides evaluate their argument at a boundary slot
    (lambda(3/2) = 1, lambda(-1/2) = 0), where the triple-map boundary
    conditions force agreement.  Each row takes the side its t1 picks.
    """
    _check_reps("star", n, phi, psi_rep)
    return _two_sided(n, phi, psi_rep, 0, lambda t1: (t1, 3.0 * t1, 3.0 * t1 - 2.0))


def delta_restrict(n, phi):
    """Boundary restriction: evaluate phi on the equatorial (n-1)-disk.

    Sends v in disk^(n-1) (a vector in R^n) to phi((v, 0)).  For n = 1
    this is evaluation at the single equator point (1, 0).
    """
    _check_reps("delta_restrict", n, phi)

    def fn(v):
        return phi.fn(np.column_stack([check_disk_batch(v, n - 1), np.zeros(len(v))]))

    return PairMapRep(n - 1, fn, phi.basepoint)


def glue_double(n, phi0, phi1, sample_points=()):
    """Two-sided doubling: phi0 on the bottom half slot, phi1 mirrored.

    At the point with cube coordinates (t, lambda(u)) the result is
    phi0 at (t, lambda(2u)) for u <= 1/2 and phi1 at (t, lambda(2-2u))
    for u >= 1/2, each row on the side its u picks.  Both maps must be
    constant with a common value on the lower boundary half-disk, which
    the seam evaluates to from either side; the rows ``sample_points`` of
    that half-disk check it, and a failure names its witness row.
    """
    _check_reps("glue_double", n, phi0, phi1)
    w = np.asarray(sample_points, dtype=float).reshape(-1, n + 1)
    vals = np.concatenate([phi0.fn(w), phi1.fn(w)])  # phi0's rows, then phi1's
    bad = np.flatnonzero(~(max_dev_batch(vals, np.broadcast_to(vals[:1], vals.shape)) <= EQ_TOL))
    if bad.size:
        i = bad[0] % len(w)
        raise DomainError(f"glue_double: representative not constant on the lower half-disk, "
                          f"witness row {i} {w[i]!r}: {vals[bad[0]]!r} vs {vals[0]!r}")

    return _two_sided(n, phi0, phi1, n - 1,
                      lambda s: (u := lambda_inv_batch(s), 2.0 * u, 2.0 - 2.0 * u))


class UnionFind:
    """Disjoint sets over range(size) with path compression."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def path_components(complex_):
    """Partition of the 0-cells of a finite complex into path components.

    Union-find over the cells: every 1-cell merges the loci of its two
    boundary points (the attaching images of +1 and -1).  Cells of
    dimension >= 2 are attached along connected spheres, so they never
    merge distinct components and are ignored.  Boundary points landing
    in the base are pooled into a single extra node -- adequate for the
    empty or path-connected bases used here.

    Returns a list of sorted lists of 0-cell indices.
    """
    cells = complex_.cells
    uf = UnionFind(len(cells) + 1)  # extra node for the base
    base_node = len(cells)

    def locus(pt):
        pt = complex_.canonicalize(pt)
        return base_node if pt.kind == "base" else pt.cell

    for idx, cell in enumerate(cells):
        if cell.dim != 1:
            continue
        for v in (np.array([1.0]), np.array([-1.0])):
            uf.union(idx, locus(cell.attach(v)))

    groups = {}
    for i in complex_.zero_cells():
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(groups.values())
