"""Finite cell complexes built by attaching hemisphere disks.

A complex is an optional base space plus an ordered list of cells; the
cell at index beta carries a dimension n and an attaching map sending
points of the boundary sphere in R^n into the complex built from the
base and the cells before beta.  Attaching one cell is one pushout step,
so the inclusion of the base into the finished complex is a finite
relative cell complex.

Points are tagged loci: either a base point or (cell index, disk point).
``canonicalize`` pushes boundary disk points down through attaching maps
until they sit in an open cell or the base; the push strictly decreases
the cell index, so it terminates in at most one step per cell.  ``eq``
compares canonical loci: the same cell (or both in the base) and
max_dev(a, b) <= EQ_TOL, at most 10^-9 apart in every coordinate, unless
the base space brings its own ``eq``.
"""

from typing import NamedTuple

import numpy as np

from .diskmodel import EQ_TOL, DomainError, check_disk, max_dev, random_disk

__all__ = ["ComplexPoint", "Cell", "CellComplex", "BOUNDARY_TOL"]

# a disk point counts as boundary when its last coordinate is this close
# to the equator plane
BOUNDARY_TOL = 1e-9


class ComplexPoint(NamedTuple):
    """A located point: kind "base" (payload in the base space) or "cell"."""
    kind: str
    cell: int          # cell index; -1 for base points
    point: object      # base payload, or disk coordinates array

    @staticmethod
    def base(p):
        return ComplexPoint("base", -1, p)

    @staticmethod
    def in_cell(idx, w):
        return ComplexPoint("cell", idx, np.asarray(w, dtype=float))


class Cell(NamedTuple):
    dim: int
    attach: object     # sphere point in R^dim -> ComplexPoint, None for dim 0


class CellComplex:
    """Base space plus ordered cells; immutable, extended by ``attach``."""

    def __init__(self, base=None, cells=()):
        self.base = base
        self.cells = tuple(cells)

    def __len__(self):
        return len(self.cells)

    def attach(self, dim, attaching=None):
        """Append one cell; its attaching map must hit the complex so far.

        A 0-cell has an empty boundary sphere and needs no attaching map.
        """
        if dim < 0:
            raise DomainError("cell dimension must be >= 0")
        if dim > 0 and attaching is None:
            raise DomainError(f"a {dim}-cell needs an attaching map")
        return CellComplex(self.base, self.cells + (Cell(dim, attaching),))

    def cell_point(self, idx, w):
        if not 0 <= idx < len(self.cells):
            raise DomainError(f"no cell {idx}")
        w = check_disk(w, self.cells[idx].dim)
        return ComplexPoint.in_cell(idx, w)

    def sample_point(self, rng):
        """The base point or a uniformly chosen cell, then a random_disk point of it."""
        if self.base is None and not self.cells:
            raise DomainError("a complex with no base and no cells has no points")
        i = int(rng.integers(len(self.cells) + (self.base is not None)))
        if i == len(self.cells):
            return ComplexPoint.base(0.0)
        return ComplexPoint.in_cell(i, random_disk(self.cells[i].dim, rng))

    def canonicalize(self, pt):
        """Push boundary points down through attaching maps; idempotent."""
        steps = 0
        while pt.kind == "cell":
            cell = self.cells[pt.cell]
            w = pt.point
            if cell.dim == 0 or abs(w[-1]) > BOUNDARY_TOL:
                return pt  # interior of an open cell
            nxt = cell.attach(np.asarray(w[:-1], dtype=float))
            if nxt.kind == "cell" and nxt.cell >= pt.cell:
                raise DomainError(
                    f"attaching map of cell {pt.cell} does not descend (hit cell {nxt.cell})")
            pt = nxt
            steps += 1
            if steps > len(self.cells):
                raise DomainError("canonicalization failed to terminate")
        return pt

    def eq(self, p1, p2):
        """Point equality after canonicalization: same locus, max_dev <= EQ_TOL."""
        a, b = self.canonicalize(p1), self.canonicalize(p2)
        if a.kind != b.kind or a.cell != b.cell:
            return False
        if a.kind == "base" and hasattr(self.base, "eq"):
            return self.base.eq(a.point, b.point)
        return max_dev(a.point, b.point) <= EQ_TOL

    def zero_cells(self):
        return [i for i, c in enumerate(self.cells) if c.dim == 0]
