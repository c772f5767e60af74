"""Covering homotopy extension over a cell complex, end to end.

The bundled instance is an interval hanging off a base point, sitting
over the trivial line bundle.  Given a starting lift f, a homotopy h on
the base and a homotopy k downstairs, the cell-by-cell algorithm
produces H with

    H(x, 0) = f(x),   H = h over the base,   projection(H(x, t)) = k(x, t),

and this script measures all three on a grid.  The second half runs the
boundary-oracle variant: extending a lift over a complex with a 2-cell,
where the contractible fiber makes boundary data always extendable.
"""

import numpy as np

from difftop import ComplexPoint, chep, extend_lift
from difftop.instances import bundled_chep_instance, bundled_extend_instance

rng = np.random.default_rng(7)

print("=== covering homotopy extension on the interval instance ===")
inst, _ = bundled_chep_instance()
pre = [(inst.complex.sample_point(rng), float(rng.uniform())) for _ in range(40)]
H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k, precheck=pre)

dev_f = dev_h = dev_k = 0.0
for _ in range(800):
    x = inst.complex.sample_point(rng)
    t = float(rng.uniform())
    H0, fx = H(x, 0.0), inst.f(x)
    dev_f = max(dev_f, abs(H0[0] - fx[0]), abs(H0[1] - fx[1]))
    dev_k = max(dev_k, abs(H(x, t)[0] - inst.k(x, t)))
    Ha, ha = H(ComplexPoint.base(0.0), t), inst.h(0.0, t)
    dev_h = max(dev_h, abs(Ha[0] - ha[0]), abs(Ha[1] - ha[1]))
print(f"  H(x,0) = f(x)      worst deviation {dev_f:.2e}")
print(f"  H = h on the base  worst deviation {dev_h:.2e}")
print(f"  p(H(x,t)) = k(x,t) worst deviation {dev_k:.2e}")

print("\n  a slice of the lifted track over the edge midpoint:")
x = ComplexPoint.in_cell(1, np.array([0.0, 1.0]))
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    b, y = H(x, t)
    print(f"    t={t:.2f}: base {b:+.5f}  fiber {y:+.5f}")

print("\n=== incompatible data is rejected before any lifting ===")
bad, _ = bundled_chep_instance(k_offset=0.5)
try:
    chep(bad.fibration, bad.complex, bad.f, bad.h, bad.k,
         precheck=[(bad.complex.sample_point(rng), 0.5)])
except Exception as exc:
    print(" ", type(exc).__name__, "-", str(exc)[:64], "...")

print("\n=== extending a lift against a boundary oracle ===")
einst, _ = bundled_extend_instance()
lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom,
                   precheck=[ComplexPoint.base(0.0)])
dev = 0.0
for _ in range(500):
    x = einst.complex.sample_point(rng)
    dev = max(dev, abs(einst.oracle.project(lift(x)) - einst.bottom(x)))
print(f"  projection equation worst deviation over the base and all cells: {dev:.2e}")
print(f"  restriction to the base is exact:",
      lift(ComplexPoint.base(0.0)) == einst.f(0.0))
w2 = ComplexPoint.in_cell(2, np.array([0.0, 0.0, 1.0]))
print(f"  sample value on the 2-cell: {lift(w2)}")
