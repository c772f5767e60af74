"""Tour of the one-dimensional smoothing machinery.

Everything in this package is glued together by three scalar functions:
the flat exponential gamma, the smooth step lambda, and the wrinkle
profile xi.  This script prints their defining identities and shows the
finite-difference checker telling a flat seam from a genuine kink.
"""

import numpy as np

from difftop import gamma, lambda_fn, xi, xi_inv, smoothness_check

print("=== gamma: flat at zero, then exp(-1/t) ===")
for t in (-2.0, 0.0, 0.25, 1.0, 4.0):
    print(f"  gamma({t:5.2f}) = {gamma(t):.10g}")

print("\n=== lambda: a smooth step that is *exactly* 0 and 1 outside (0,1) ===")
for t in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
    print(f"  lambda({t:5.2f}) = {lambda_fn(t):.10g}")

worst = max(abs(lambda_fn(t) + lambda_fn(1 - t) - 1.0)
            for t in np.linspace(-1, 2, 20001))
print(f"  symmetry lambda(t)+lambda(1-t)=1, worst deviation: {worst:.2e}")

print("\n=== the checker: derivative estimates by one-sided differences ===")
rep = smoothness_check(lambda_fn, 0.0, 3)
print("  lambda at 0 (flatness claim):", rep.verdicts,
      "estimates", {k: f"{v:.1e}" for k, v in rep.fd_estimates.items()})

rep = smoothness_check(abs, 0.0, 1)
left, right = rep.side_estimates[1]
print(f"  |t| at 0: left slope {left:+.3f}, right slope {right:+.3f}"
      f" -> verdict {rep.verdicts[1]}")

print("\n=== xi: identity near the ends, every derivative flat at 1/3, 2/3 ===")
for s in (0.1, 1 / 3, 0.5, 2 / 3, 0.9):
    print(f"  xi({s:.4f}) = {xi(s):.10g}")
rep = smoothness_check(xi, 1 / 3, 3)
print("  flatness at 1/3:", rep.verdicts,
      "estimates", {k: f"{v:.1e}" for k, v in rep.fd_estimates.items()})

grid = np.linspace(0, 1, 2001)
print("  reflection worst:", max(abs(xi(s) + xi(1 - s) - 1) for s in grid))
print("  inversion worst: ", max(abs(xi(xi_inv(y)) - y) for y in grid))
print("  increasing:      ", all(xi(a) <= xi(b)
                                 for a, b in zip(grid, grid[1:])))
