"""Covering homotopy extension over a cell complex, end to end.

The bundled instance is an interval hanging off a base point, sitting
over the trivial line bundle.  Given a starting lift f, a homotopy h on
the base and a homotopy k downstairs, the cell-by-cell algorithm
produces H with

    H(x, 0) = f(x),   H = h over the base,   projection(H(x, t)) = k(x, t),

and this script measures all three on sampled points with the check that
the lifting suite and ``difftop chep`` share, which counts a NaN as a
failure.  The second half runs the boundary-oracle variant: extending a
lift over a complex with a 2-cell, where the contractible fiber makes
boundary data always extendable.
"""

import numpy as np

from difftop import ComplexPoint, chep, extend_lift
from difftop.instances import bundled_chep_instance, bundled_extend_instance
from difftop.verify import RunConfig, check_chep_instance, check_extend_instance

rng = np.random.default_rng(7)
cfg = RunConfig()


def show(records):
    for r in records:
        flag = "pass" if r["pass"] else "FAIL"
        print(f"  [{flag}] {r['property']}: worst deviation {r['worst_dev']:.2e} "
              f"(tol {r['tol']:g}, {r['samples']} samples)")


print("=== covering homotopy extension on the interval instance ===")
inst, _ = bundled_chep_instance()
records, _ = check_chep_instance(inst, cfg, rng)
show(records)

print("\n  a slice of the lifted track over the edge midpoint:")
H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
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
records, _ = check_extend_instance(einst, cfg, rng)
show(records)
lift = extend_lift(einst.oracle, einst.complex, einst.f, einst.bottom)
w2 = ComplexPoint.in_cell(2, np.array([0.0, 0.0, 1.0]))
print(f"  sample value on the 2-cell: {lift(w2)}")
