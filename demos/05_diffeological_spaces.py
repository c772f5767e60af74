"""Plot-generated spaces and sample-level smooth-map evidence.

Builds the flat interval as a quotient of the line, runs the smooth-map
checker on maps that should pass and one that should fail, exercises the
exponential law, the plot-final open-set test, and the irrational torus.
"""

import math

import numpy as np

from difftop import (MapEvaluator, d_topology_open_sample, euclidean,
                     exponential_alpha, exponential_alpha_inv,
                     irrational_torus, lambda_fn, lambda_inv, product, quotient,
                     smooth_check, subspace)

R = euclidean(1)
# lambda_inv lifts a point of the flat interval back to the line
Itilde = quotient(R, lambda x: lambda_fn(float(np.atleast_1d(x)[0])), name="I~",
                  lift=lambda_inv)
I = subspace(R, lambda p: 0.0 <= float(np.atleast_1d(p)[0]) <= 1.0, name="I")

print("=== spaces ===")
for X in (R, Itilde, I, product(R, R)):
    print(f"  {X.name:12s} construction={X.construction:9s} "
          f"generators={len(X.generators)}")

print("\n=== smooth-map evidence ===")
cases = [
    ("identity on the line", MapEvaluator(R, R, lambda x: x, "id")),
    ("the step into the flat interval",
     MapEvaluator(R, Itilde, lambda x: lambda_fn(float(np.atleast_1d(x)[0])), "lam")),
    ("inclusion flat interval -> interval",
     MapEvaluator(Itilde, I, lambda y: np.array([float(y)]), "incl")),
    ("absolute value (should FAIL)",
     MapEvaluator(R, R, lambda x: np.abs(x), "abs")),
]
for label, f in cases:
    rep = smooth_check(f)
    print(f"  {label:40s} -> {'pass' if rep.passed else 'FAIL'}")

print("\n=== exponential law: currying is literal and exact ===")
R2 = product(R, R)
f = MapEvaluator(R2, R, lambda xy: float(np.atleast_1d(xy[0])[0])
                 + float(np.atleast_1d(xy[1])[0]), "add")
g = exponential_alpha(f)
print("  alpha(add)(2)(3) =", g.fn(np.array([2.0]))(np.array([3.0])))
f2 = exponential_alpha_inv(g, R2, R)
xy = (np.array([0.7]), np.array([-1.2]))
print("  uncurry(curry(add)) == add bitwise:", f2.fn(xy) == f.fn(xy))

print("\n=== open sets in the plot-final topology ===")
ok, _ = d_topology_open_sample(Itilde, lambda y: 0.0 <= float(y) < 0.5,
                               probes=[np.array([0.2])])
print("  [0, 1/2) in the flat interval: open-consistent =", ok)
ok, _ = d_topology_open_sample(R, lambda p: abs(float(np.atleast_1d(p)[0])) < 1e-15,
                               probes=[np.array([0.0])])
print("  the singleton {0} in the line: open-consistent =", ok)

print("\n=== the irrational torus ===")
theta = math.sqrt(2.0)
T = irrational_torus(theta)
print(f"  slope sqrt(2): eq(0, theta) = {T.eq(0.0, theta)}, "
      f"eq(0, 1+theta) = {T.eq(0.0, 1.0 + theta)}, "
      f"eq(0, 1/2) = {T.eq(0.0, 0.5)}")
rep = smooth_check(MapEvaluator(R, T, lambda x: float(np.atleast_1d(x)[0]), "proj"))
print("  projection line -> torus passes the checker:", rep.passed)
# x + 3 can leave the chart window; the chart's inverse shifts it back by 3
rep = smooth_check(MapEvaluator(R, T, lambda x: float(np.atleast_1d(x)[0]) + 3.0, "shift"))
print("  x -> x + 3 into the torus passes the checker:", rep.passed)
try:
    irrational_torus(2.0 / 3.0)
except Exception as exc:
    print("  rational slope rejected:", type(exc).__name__)
