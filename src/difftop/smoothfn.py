"""One-dimensional smoothing machinery and finite-difference smoothness checks.

The three profiles built here drive everything else in the package:

* ``gamma``  -- the classic flat-at-zero exponential, 0 for t <= 0 and
  exp(-1/t) for t > 0,
* ``lambda_fn`` -- the monotone step gamma(t)/(gamma(t)+gamma(1-t)),
  identically 0 below 0 and identically 1 above 1, with all derivatives
  vanishing at both ends,
* ``xi`` -- a strictly increasing reparameterization of [0,1] that is the
  identity near 0 and 1, fixes 1/3 and 2/3 while flattening every
  derivative there, and commutes with the reflection s -> 1-s.

``smoothness_check`` is the numerical surrogate for smoothness claims:
it estimates derivatives by central and one-sided finite differences on a
shrinking step ladder with Richardson extrapolation, and reports whether
the one-sided estimates agree (the derivative exists) or match a supplied
expected value (typically 0 for flatness claims).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "gamma", "lambda_fn", "lambda_inv",
    "xi", "xi_inv",
    "FDConfig", "SmoothnessReport", "smoothness_check",
    "fd_weights", "EvaluationError",
]


def gamma(t):
    """Flat exponential: 0 for t <= 0, exp(-1/t) for t > 0."""
    if t <= 0.0:
        return 0.0
    return math.exp(-1.0 / t)


def lambda_fn(t):
    """Monotone smooth step: exactly 0 for t <= 0 and exactly 1 for t >= 1.

    Satisfies lambda_fn(1-t) = 1 - lambda_fn(t) for every t.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    g = gamma(t)
    return g / (g + gamma(1.0 - t))


def _bisect_increasing(f, y, lo, hi):
    # plain bisection to a 1e-14 bracket; unconditionally correct for
    # non-decreasing f
    flo = f(lo) - y
    if flo >= 0.0:
        return lo
    if f(hi) - y <= 0.0:
        return hi
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) - y <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambda_inv(y):
    """Inverse of lambda_fn restricted to [0,1], in closed form.

    lambda_fn collapses (-inf,0] to 0 and [1,inf) to 1; the representative
    returned here is the unique preimage inside [0,1].  On (0,1),
    lambda(t) = y means L = ln(y/(1-y)) = 1/(1-t) - 1/t, i.e. the
    quadratic L t^2 + (2-L) t - 1 = 0, whose root in (0,1) is
    2 / ((2-L) + sqrt(L^2+4)).  The round trip lambda_fn(lambda_inv(y))
    stays within 1e-15 of y, down to denormal y and up to 1 - 2^-53.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"lambda_inv: y={y!r} outside [0,1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    L = math.log(y) - math.log1p(-y)
    return 2.0 / ((2.0 - L) + math.sqrt(L * L + 4.0))


def xi(s):
    """Wrinkle profile: increasing, fixes [0,1/6] and [5/6,1] pointwise.

    On [1/3,2/3] equals lambda_fn(3s-1)/3 + 1/3, so every derivative
    vanishes at s = 1/3 and s = 2/3.  The gaps [1/6,1/3] and [2/3,5/6]
    are bridged by the blend s + lambda_fn(6s-1)*(1/3-s), whose value and
    derivatives of all orders match both neighbours at the junctions
    (lambda_fn is flat at 0 and 1); the upper gap is filled by the
    reflection xi(s) = 1 - xi(1-s).
    """
    if s <= 1.0 / 6.0 or s >= 5.0 / 6.0:
        return s
    if 1.0 / 3.0 <= s <= 2.0 / 3.0:
        return lambda_fn(3.0 * s - 1.0) / 3.0 + 1.0 / 3.0
    if s < 1.0 / 3.0:
        w = lambda_fn(6.0 * s - 1.0)
        return s + w * (1.0 / 3.0 - s)
    # 2/3 < s < 5/6: reflect the lower blend
    r = 1.0 - s
    w = lambda_fn(6.0 * r - 1.0)
    return 1.0 - (r + w * (1.0 / 3.0 - r))


def xi_inv(y):
    """Unique s in [0,1] with xi(s) = y.

    xi maps each of [0,1/6], [1/6,1/3], [1/3,2/3], [2/3,5/6], [5/6,1]
    onto itself.  The outer bands are the identity and the middle band
    inverts in closed form through lambda_inv.  Only the two blend bands
    search, by bisection inside their own bracket shrunk to 1e-14:
    xi' vanishes at 1/3 and 2/3, so Newton-type steps are unreliable
    there, while bisection is safe because xi is increasing.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"xi_inv: y={y!r} outside [0,1]")
    if y <= 1.0 / 6.0 or y >= 5.0 / 6.0:
        return y  # identity region, exact
    if 1.0 / 3.0 <= y <= 2.0 / 3.0:
        return (lambda_inv(3.0 * y - 1.0) + 1.0) / 3.0
    if y < 1.0 / 3.0:
        return _bisect_increasing(xi, y, 1.0 / 6.0, 1.0 / 3.0)
    return _bisect_increasing(xi, y, 2.0 / 3.0, 5.0 / 6.0)


# ---------------------------------------------------------------------------
# Finite-difference derivative estimation
# ---------------------------------------------------------------------------

class EvaluationError(RuntimeError):
    """A stencil evaluation failed (exception or non-finite value)."""


def fd_weights(order, offsets):
    """Finite-difference weights for the given derivative order at 0.

    Fornberg's recursion on arbitrary nodes; ``offsets`` are in units of
    the step size.  Returns one weight per offset (to be divided by
    h**order after summing).
    """
    a = np.asarray(offsets, dtype=float)
    n = len(a)
    if n <= order:
        raise ValueError("need more than `order` stencil nodes")
    C = np.zeros((n, order + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = a[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = a[i]
        for j in range(i):
            c3 = a[i] - a[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, order]


@dataclass(frozen=True)
class FDConfig:
    """Step ladder and tolerance for finite-difference smoothness checks.

    Five halvings of the base step reach h ~ 6e-4: deep enough that the
    exp(-1/t)-flat seams in this package have negligible truncation error
    at the finest level, while the order-3 round-off floor
    (eps * sum|weights| / h^3) stays a factor of ~3 below ``tol``.
    """
    base_step: float = 1e-2
    levels: int = 5
    tol: float = 1e-4


_DEFAULT_FD = FDConfig()

# highest derivative order smoothness_check accepts: the round-off floor
# eps * sum|weights| / h^order of the finest ladder level grows with it
_MAX_ORDER = 6


@functools.lru_cache(maxsize=None)
def _stencil(order, side):
    """Offsets and weights of the stencil for ``order`` on ``side``."""
    # minimal stencils plus one node (accuracy 2); small coefficient sums
    # keep the round-off floor low on the fine ladder levels
    if side == 0:
        r = (order + 2) // 2
        offsets = list(range(-r, r + 1))
    else:
        offsets = [side * i for i in range(order + 2)]
    w = fd_weights(order, offsets)
    w.setflags(write=False)  # one array serves every caller
    return offsets, w


def _richardson(raw, p, series):
    """Best entry of the Neville/Richardson table of a ladder, as (value, err)."""
    best, best_err = raw[0], math.inf
    for i in range(1, len(raw)):
        err = abs(raw[i] - raw[i - 1])
        if err < best_err:
            best, best_err = raw[i], err
    col = list(raw)
    for j in range(1, len(raw)):
        fac = 2.0 ** (p + (j - 1) * series)
        nxt = []
        for i in range(1, len(col)):
            t = col[i] + (col[i] - col[i - 1]) / (fac - 1.0)
            err = max(abs(t - col[i]), abs(t - col[i - 1]))
            if err < best_err:
                best, best_err = t, err
            nxt.append(t)
        col = nxt
    return best, best_err


def _estimates(f, x, order, side, cfg):
    """Estimate f^(order)(x) on a shrinking step ladder, per component of f.

    ``side`` 0 uses a symmetric central stencil, -1/+1 one-sided stencils
    reaching only left/right of x.  Raw estimates at steps h, h/2, ... are
    Richardson-extrapolated (error series h^2, h^4, ... for central
    stencils, h^p, h^(p+1), ... one-sided) and the table entry with the
    smallest neighbour-disagreement is kept as ``(value, err)``.  Each
    stencil node is evaluated once; the values form a C-contiguous
    (components, nodes) array, so each component's weighted sum is the dot
    product a float-valued f gets, bit for bit.

    Raises EvaluationError if any stencil point cannot be evaluated.
    """
    offsets, w = _stencil(order, side)
    # symmetric stencils have an even error series
    p, series = (2, 2) if side == 0 else (len(offsets) - order, 1)
    raw = []  # raw[level][component]
    h = cfg.base_step
    for _ in range(cfg.levels):
        try:
            rows = np.array([f(x + o * h) for o in offsets], dtype=float)
        except Exception as exc:
            raise EvaluationError(f"evaluation failed near {x!r}: {exc}") from exc
        rows = rows.reshape(1, -1) if rows.ndim == 1 else rows.T.copy()
        sums = [float(w.dot(row)) for row in rows]
        # a non-finite value makes its sum non-finite, even at weight 0
        if not all(map(math.isfinite, sums)) and not np.isfinite(rows).all():
            raise EvaluationError(f"non-finite value near {x!r} at step {h!r}")
        raw.append([v / h ** order for v in sums])
        h *= 0.5
    return [_richardson(ladder, p, series) for ladder in zip(*raw)]


@dataclass
class SmoothnessReport:
    """Per-order derivative estimates and verdicts at a single point."""
    point: float
    max_order_tested: int
    tolerance_used: float
    fd_estimates: dict = field(default_factory=dict)   # order -> central estimate
    side_estimates: dict = field(default_factory=dict)  # order -> (left, right)
    verdicts: dict = field(default_factory=dict)       # order -> pass/fail/inconclusive
    deviations: dict = field(default_factory=dict)     # order -> measured disagreement
    component: dict = field(default_factory=dict)      # order -> index of reported component

    @property
    def passed(self):
        return bool(self.verdicts) and all(v == "pass" for v in self.verdicts.values())

    @property
    def inconclusive(self):
        return any(v == "inconclusive" for v in self.verdicts.values())


def smoothness_check(f, point, max_order, config=None, expected=None):
    """Check existence (or expected values) of derivatives of f at a point.

    For each order 1..max_order the left- and right-sided estimates must
    agree within ``tol * max(1, |left|, |right|)`` plus twice the sum of
    their own uncertainty estimates; the allowance keeps smooth functions
    with violent higher derivatives (every profile here is built from
    exp(-1/t)) from flunking on truncation error, while a genuine kink
    leaves both estimators confident and far apart.  When ``expected``
    supplies a target for an order (e.g. 0 for a flatness claim), the
    central estimate must instead match it within ``tol * max(1, |target|)``
    plus the same kind of allowance.  Any stencil evaluation failure marks
    the order inconclusive -- an inconclusive report never counts as
    passing.

    f may return a float or a non-empty 1-D array, whose components each
    get a float-valued f's arithmetic.  An order fails when any component
    fails; the report keeps the failing component with the largest
    deviation, or if none fails, the one with the largest deviation.
    """
    cfg = config or _DEFAULT_FD
    if max_order > _MAX_ORDER:
        raise ValueError(f"max_order {max_order} exceeds cap {_MAX_ORDER}")
    report = SmoothnessReport(point=float(point), max_order_tested=max_order,
                              tolerance_used=cfg.tol)
    for k in range(1, max_order + 1):
        try:
            sides = [_estimates(f, point, k, side, cfg) for side in (0, -1, +1)]
        except EvaluationError:
            report.verdicts[k] = "inconclusive"
            continue
        rows = []  # (failed, dev, component, central, left, right)
        for j, ((central, err_c), (left, err_l), (right, err_r)) in enumerate(zip(*sides)):
            if expected is not None and k in expected:
                target = expected[k]
                dev = abs(central - target)
                ok = dev <= cfg.tol * max(1.0, abs(target)) + 2.0 * err_c
            else:
                dev = abs(left - right)
                ok = dev <= cfg.tol * max(1.0, abs(left), abs(right)) + 2.0 * (err_l + err_r)
            rows.append((not ok, dev, j, central, left, right))
        failed, dev, j, central, left, right = max(rows, key=lambda r: r[:2])
        report.fd_estimates[k] = central
        report.side_estimates[k] = (left, right)
        report.deviations[k] = dev
        report.component[k] = j
        report.verdicts[k] = "fail" if failed else "pass"
    return report
