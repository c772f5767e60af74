"""Homotopy algebra at the evaluator level.

Concatenation, the class product on disk representatives, boundary
restriction, the doubling map, and combinatorial path components of a
finite cell complex.
"""

import numpy as np

from difftop import (CellComplex, ComplexPoint, Homotopy, PairMapRep, Q,
                     concat, delta_restrict, lambda_fn, path_components,
                     star, to_tilde_homotopy)
from difftop.diskmodel import section_batch

print("=== reclocking a straight-line homotopy ===")
F = Homotopy(lambda x, t: (1 - t) * x + t * (x + 2.0), kind="R")
G = to_tilde_homotopy(F)
print("  times 0, .25, .5, 1 ->",
      [round(float(G(1.0, t)), 4) for t in (0, 0.25, 0.5, 1.0)])
print("  (the middle crawls: lambda(0.25) =", round(lambda_fn(0.25), 4), ")")

print("\n=== concatenation holds a plateau around the seam ===")
A = Homotopy(lambda x, t: np.array([t]))
B = Homotopy(lambda x, t: np.array([1.0 + t]))
H = concat(A, B, sample_points=[None])
for t in (0.0, 0.3, 1 / 3, 0.5, 2 / 3, 0.75, 1.0):
    print(f"  H(t={t:.3f}) = {float(H(None, t)[0]):.6f}")

print("\n=== the class product splits the first chart slot ===")
# representatives map blocks of disk points, one per row
phi = PairMapRep(1, lambda w: section_batch(1, w))
psi = PairMapRep(1, lambda w: 2.0 + section_batch(1, w))
st = star(1, phi, psi)
for t1 in (0.1, 0.25, 0.5, 0.75, 0.9):
    print(f"  t1={t1:.2f} -> {float(st(Q(1, [t1])[None])[0, 0]):.6f}")

print("\n=== boundary restriction ===")
rep = PairMapRep(2, lambda w: w.copy())
d = delta_restrict(2, rep)
print("  restriction of the identity sends v to (v, 0):",
      d(np.array([[0.6, 0.8]]))[0])

print("\n=== path components of small complexes ===")
def edge(a, b):
    return lambda v: ComplexPoint.in_cell(a if v[0] > 0 else b, np.array([1.0]))

cx = CellComplex().attach(0).attach(0).attach(0)
print("  three vertices:            ", path_components(cx))
cx = cx.attach(1, edge(0, 1))
print("  join the first two:        ", path_components(cx))
cx = cx.attach(1, edge(1, 2))
print("  chain all three:           ", path_components(cx))
cx = cx.attach(1, edge(0, 0))
print("  a loop changes nothing:    ", path_components(cx))
