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

Formulas written once over coordinate columns take an ops table: FLOAT_OPS
for floats, ARRAY_OPS for (N,) arrays, and TRACE_OPS, which records the
operations of one run so that ``straight_line`` compiles them into one
float function.  All three hold the same names: math functions, lambda_fn,
lambda_inv, xi, gamma, where, pick, clip01, all, pi and load, which reads a
variable.  The float entry points of diskmodel, subdivision and instances
call compiled functions; instances runs the same code on ARRAY_OPS's names.

``smoothness_check`` is the numerical surrogate for smoothness claims:
it estimates derivatives by central and one-sided finite differences on a
shrinking step ladder with Richardson extrapolation, and reports whether
the one-sided estimates agree (the derivative exists).  A flatness claim
reads the central estimates it reports (``fd_estimates``).
"""

import functools
import math
import re
import sys
from dataclasses import dataclass, field
from types import FunctionType, SimpleNamespace

import numpy as np

__all__ = [
    "gamma", "lambda_fn", "lambda_inv",
    "xi", "xi_inv",
    "gamma_batch", "lambda_fn_batch", "lambda_inv_batch", "xi_batch", "xi_inv_batch",
    "SmoothnessReport", "smoothness_check",
    "fd_weights",
]


def gamma(t):
    """Flat exponential: 0 for t <= 0, exp(-1/t) for t > 0."""
    if t <= 0.0:
        return 0.0
    # Python's float division: a subnormal t gives -inf and exp(-inf) = 0.0,
    # where a numpy float64 t would warn of overflow
    return math.exp(-1.0 / float(t))


def lambda_fn(t):
    """Monotone smooth step: exactly 0 for t <= 0 and exactly 1 for t >= 1.

    Satisfies lambda_fn(1-t) = 1 - lambda_fn(t) for every t.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    g = math.exp(-1.0 / float(t))  # gamma(t) and gamma(1 - t), both of positive arguments
    return g / (g + math.exp(-1.0 / float(1.0 - t)))


def _bisect_increasing(f, y, lo, hi):
    # plain bisection to a 1e-14 bracket of a non-decreasing f, for the scan
    # inverse of diffeology; the caller guarantees f(lo) < y < f(hi), so
    # neither end point is the answer
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
    inverts in closed form through lambda_inv.  The two blend bands solve
    one equation by safeguarded Newton (``_blend_inverse``), and
    xi(xi_inv(y)) stays within 4.5e-16 of y.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"xi_inv: y={y!r} outside [0,1]")
    if y <= 1.0 / 6.0 or y >= 5.0 / 6.0:
        return y  # identity region, exact
    if 1.0 / 3.0 <= y <= 2.0 / 3.0:
        return (lambda_inv(3.0 * y - 1.0) + 1.0) / 3.0
    return _blend_inverse(y, FLOAT_OPS)


# a Newton step of at most this many ulps of v ends the iteration: by the
# sixth step on 400,000 values of both blend bands, 1 to 1e12 ulps from
# their ends included; the cap only bounds a pathological input
_NEWTON_ULPS = 4.0 * sys.float_info.epsilon
_NEWTON_ROUNDS = 100


def _blend_inverse(y, ops):
    """xi_inv on the blend bands, for floats (FLOAT_OPS) and arrays (ARRAY_OPS).

    On the lower band, with v = 2 - 6s and z = 2 - 6y, xi(s) = y reads
    v lambda(v) = z, since 1/3 - s = v/6 and 1 - lambda(1-v) = lambda(v).
    Newton solves h(v) = ln v - log1p(exp(1/v - 1/(1-v))) = ln z, where
    h'(v) = 1/v + (1 - lambda(v)) (1/v^2 + 1/(1-v)^2); exp is only taken
    of -|q|, so no step overflows.  Each step keeps the bracket (lo, hi)
    of the root and bisects when it would leave it.  The upper band is the
    reflection, z = 6y - 4 and s = (4 + v)/6.  z <= 0 (v = 0) gives the
    wall 1/3 or 2/3, z >= 1 (v = 1) the band end 1/6 or 5/6.
    """
    lower = y < 1.0 / 3.0
    z = ops.where(lower, 2.0 - 6.0 * y, 6.0 * y - 4.0)
    inside = (z > 0.0) & (z < 1.0)
    target = ops.log(ops.where(inside, z, 0.5))
    v, lo, hi = 1.0 / (1.0 - target), 0.0 * target, 1.0 + 0.0 * target
    settled = inside ^ True  # not inside, for a bool and an array alike
    for _ in range(_NEWTON_ROUNDS):
        q = 1.0 / v - 1.0 / (1.0 - v)
        e = ops.exp(-abs(q))
        h = ops.log(v) - 0.5 * (q + abs(q)) - ops.log1p(e) - target
        slope = 1.0 / v + ((e + (q >= 0.0) * (1.0 - e)) / (1.0 + e)
                           * (1.0 / (v * v) + 1.0 / ((1.0 - v) * (1.0 - v))))
        lo, hi = ops.where(h > 0.0, lo, v), ops.where(h > 0.0, v, hi)
        step = ops.where(settled, 0.0, h / slope)
        settled = settled | (abs(step) <= _NEWTON_ULPS * v)
        v = v - step
        v = ops.where(settled | ((lo < v) & (v < hi)), v, 0.5 * (lo + hi))
        if ops.all(settled):
            break
    v = ops.where(inside, v, (z >= 1.0) * 1.0)
    return ops.where(lower, (2.0 - v) / 6.0, (4.0 + v) / 6.0)


# ---------------------------------------------------------------------------
# Array entry points: the profiles and their inverses elementwise
# ---------------------------------------------------------------------------
#
# Each ``*_batch`` function takes an array (of one or more dimensions) and
# returns one of the same shape whose entries agree with the scalar function
# within 1e-14: numpy's exp and log may differ from math's in the last bit.
# xi_inv and xi_inv_batch share one Newton rule, which solves for v = 2 - 6s
# (or 6s - 4) from ln z, so they differ only by what that bit moves: 2.2e-16
# at most on a grid of both blend bands, also next to 1/3 and 2/3, where xi
# itself is flat to double precision.  exp and log run only on the entries
# that need them, so no entry raises a floating-point warning; a NaN entry
# of lambda_fn_batch or xi_batch gives NaN, as the scalar functions do.

# exp(-1/t) underflows to exactly 0.0 for t <= 1e-3 (1/t >= 1000 > 745.2),
# which also keeps 1/t of a subnormal t from overflowing
_GAMMA_FLOOR = 1e-3


def _gamma_batch(t):
    g = np.zeros_like(t)
    m = t > _GAMMA_FLOOR
    g[m] = np.exp(-1.0 / t[m])
    return g


def gamma_batch(t):
    """gamma elementwise; a NaN entry gives NaN."""
    t = np.asarray(t, dtype=float)
    g = _gamma_batch(t)
    g[np.isnan(t)] = math.nan
    return g


def lambda_fn_batch(t):
    """lambda_fn elementwise."""
    t = np.asarray(t, dtype=float)
    out = np.clip(t, 0.0, 1.0)  # the plateaus; NaN entries stay NaN
    m = (t > 0.0) & (t < 1.0)
    g = _gamma_batch(t[m])
    out[m] = g / (g + _gamma_batch(1.0 - t[m]))
    return out


def _check_unit_interval(name, y):
    bad = np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))
    if bad.size:
        raise ValueError(f"{name}: entry {bad[0]}, y={float(y.flat[bad[0]])!r}, "
                         "outside [0,1]")


def lambda_inv_batch(y):
    """lambda_inv elementwise; ValueError names the first entry outside [0,1].

    Entries are counted in C order over the flattened array.
    """
    y = np.asarray(y, dtype=float)
    _check_unit_interval("lambda_inv", y)
    out = y.copy()  # 0 and 1 are their own preimages
    m = (y > 0.0) & (y < 1.0)
    L = np.log(y[m]) - np.log1p(-y[m])
    out[m] = 2.0 / ((2.0 - L) + np.sqrt(L * L + 4.0))
    return out


def xi_batch(s):
    """xi elementwise."""
    s = np.asarray(s, dtype=float)
    out = s.copy()  # the identity bands; NaN entries stay NaN
    mid = (s >= 1.0 / 3.0) & (s <= 2.0 / 3.0)
    out[mid] = lambda_fn_batch(3.0 * s[mid] - 1.0) / 3.0 + 1.0 / 3.0
    low = (s > 1.0 / 6.0) & (s < 1.0 / 3.0)
    sl = s[low]
    out[low] = sl + lambda_fn_batch(6.0 * sl - 1.0) * (1.0 / 3.0 - sl)
    high = (s > 2.0 / 3.0) & (s < 5.0 / 6.0)
    r = 1.0 - s[high]
    out[high] = 1.0 - (r + lambda_fn_batch(6.0 * r - 1.0) * (1.0 / 3.0 - r))
    return out


def xi_inv_batch(y):
    """xi_inv elementwise; ValueError names the first entry outside [0,1].

    The blend bands run the scalar's Newton iteration (``_blend_inverse``)
    on all their entries at once.
    """
    y = np.asarray(y, dtype=float)
    _check_unit_interval("xi_inv", y)
    out = y.copy()  # identity bands
    mid = (y >= 1.0 / 3.0) & (y <= 2.0 / 3.0)
    out[mid] = (lambda_inv_batch(3.0 * y[mid] - 1.0) + 1.0) / 3.0
    blend = ((y > 1.0 / 6.0) & (y < 1.0 / 3.0)) | ((y > 2.0 / 3.0) & (y < 5.0 / 6.0))
    if blend.any():
        out[blend] = _blend_inverse(y[blend], ARRAY_OPS)
    return out


# The backends of a formula written once over coordinate columns (floats, or
# (N,) arrays, or traced values below): where(c, a, b) is a if c else b, both
# evaluated on every row of an array; pick(table, k, x, y) is table[k](x, y);
# load(v) is float(v) on floats and v itself on arrays; pi is math.pi in every
# table.  Shared code never asks which table it has.

def _pick_rows(table, k, x, y):
    """table[k[i]](x[i], y[i]) for every entry i of the arrays, as two arrays."""
    u, v = np.empty_like(x), np.empty_like(x)
    for j, formula in enumerate(table):
        m = k == j
        u[m], v[m] = formula(x[m], y[m])
    return u, v


FLOAT_OPS = SimpleNamespace(
    cos=math.cos, sin=math.sin, atan2=math.atan2, sqrt=math.sqrt, hypot=math.hypot, all=bool,
    log=math.log, log1p=math.log1p, exp=math.exp, where=lambda c, a, b: a if c else b,
    clip01=lambda x: min(1.0, max(0.0, x)), pick=lambda table, k, x, y: table[k](x, y),
    lambda_fn=lambda_fn, lambda_inv=lambda_inv, xi=xi, gamma=gamma, load=float, pi=math.pi)
ARRAY_OPS = SimpleNamespace(
    cos=np.cos, sin=np.sin, atan2=np.arctan2, sqrt=np.sqrt, hypot=np.hypot,
    log=np.log, log1p=np.log1p, exp=np.exp, all=np.all, where=np.where,
    clip01=lambda x: np.clip(x, 0.0, 1.0), pick=_pick_rows, load=lambda v: v, pi=math.pi,
    lambda_fn=lambda_fn_batch, lambda_inv=lambda_inv_batch, xi=xi_batch, gamma=gamma_batch)


# The third backend, TRACE_OPS, records instead of computing: a value is the
# name of the line of its tape that computes it, and lines come in the order
# the body evaluates.  ``straight_line`` runs a body once on traced arguments
# and compiles its tape into one function that calls FLOAT_OPS's functions by
# name, so it gives the body's bits on FLOAT_OPS (``rebind``: another table's).
# A traced value in a Python condition raises TypeError, so a body that
# branches on its data never compiles; a table entry of ``pick`` and a callable
# argument stay calls, made when the function runs.  Unread lines (here float
# and bool operators, which cannot raise, and loads of variables nothing
# reads) are dropped, and 1.0 * x emits x.

@functools.lru_cache(maxsize=256)
def compiled(source, filename):
    """The code object of source, compiled once per source and file name."""
    return compile(source, filename, "exec")


def _src(v):
    """The source of a traced value, a finite constant, or a list of them."""
    if isinstance(v, (list, tuple)):
        return f"[{', '.join(map(_src, v))}]"
    if isinstance(v, _Traced):
        return v.name
    if type(v) in (bool, int, float) and math.isfinite(v):
        return f"({v!r})"  # repr keeps every bit of a float, -0.0 too
    raise TypeError(f"cannot trace the constant {v!r}")


def _emit(tape, expr, count=1):
    """Add the line ``t<j> = expr`` to tape (a dict from each line's names to its
    expression, and from ``pick``'s names to its tables); its value or values."""
    names = [f"t{len(tape)}"] if count == 1 else [f"t{len(tape)}_{i}" for i in range(count)]
    tape[", ".join(names)] = expr
    out = [_Traced(tape, name) for name in names]
    return out if count > 1 else out[0]


class _Traced:
    """A value of TRACE_OPS, the name of a line of ``tape``, or a function
    of FLOAT_OPS (``tape`` None) that records on its arguments' tape."""
    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape, self.name = tape, name

    def __bool__(self):
        raise TypeError("a traced value has no truth value: the body branches on its data")

    def __call__(self, *args):
        tapes = [a.tape for a in (self, *args) if isinstance(a, _Traced) and a.tape is not None]
        if not tapes:  # a table function of constants: the value itself
            return getattr(FLOAT_OPS, self.name)(*args)
        return _emit(tapes[0], f"{self.name}({', '.join(map(_src, args))})")


def _op(form):
    unit = 1.0 if " * " in form else None  # x * 1.0 and 1.0 * x are x, bit for bit
    return lambda *args: args[0] if type(args[-1]) is float and args[-1] == unit else _emit(
        args[0].tape, form.format(*map(_src, args)))


_Traced.__neg__, _Traced.__abs__ = _op("-{0}"), _op("abs({0})")
_Traced.__getitem__ = lambda self, i: _Traced(self.tape, f"{self.name}[{_src(i)}]")  # no line
for _symbol, _name in zip("+ - * / ** & | ^ < <= > >= == !=".split(),
                          "add sub mul truediv pow and or xor lt le gt ge eq ne".split()):
    setattr(_Traced, f"__{_name}__", _op(f"{{0}} {_symbol} {{1}}"))
    if _symbol[0] not in "<>=!":  # Python mirrors a comparison: 0.0 < t asks t > 0.0
        setattr(_Traced, f"__r{_name}__", _op(f"{{1}} {_symbol} {{0}}"))


def _traced_pick(table, k, x, y):
    if not isinstance(k, _Traced):
        return table[k](x, y)
    name = f"table{len(k.tape)}"
    k.tape[name] = table
    return _emit(k.tape, f"{name}[{k.name}]({_src(x)}, {_src(y)})", count=2)


TRACE_OPS = SimpleNamespace(**{
    **{name: _Traced(None, name) for name in vars(FLOAT_OPS)},
    "where": lambda c, a, b: _op("{1} if {0} else {2}")(c, a, b) if isinstance(c, _Traced) else (
        a if c else b),
    "all": bool, "pick": _traced_pick, "pi": math.pi})


def straight_line(body, size, fns=(), name="body"):
    """body(x, *fns) on floats, compiled to one function of x_0..x_{size-1}, *fns:
    the body runs once on traced arguments; it returns a value or nested lists
    or tuples of values (the function, lists).  Its file name is ``<name>``."""
    tape, args = {}, [f"x{i}" for i in range(size)] + list(fns)
    out = _src(body([_Traced(tape, a) for a in args[:size]], *(_Traced(tape, f) for f in fns)))
    read, lines = set(re.findall(r"\w+", out)), ""
    for k, v in reversed(tape.items()):  # the lines that lead to the value
        if isinstance(v, str) and read.intersection(k.split(", ")):
            read.update(re.findall(r"\w+", v))
            lines = f"    {k} = {v}\n" + lines
    namespace = {"__builtins__": {}, "abs": abs, **vars(FLOAT_OPS),
                 **{k: v for k, v in tape.items() if not isinstance(v, str)}}
    source = f"def form({', '.join(args)}):\n{lines}    return {out}\n"
    exec(compiled(source, f"<{name}>"), namespace)
    return namespace.pop("form")


def rebind(form, ops):
    """The code of form, a function of ``straight_line``, on ops's entries; on
    ARRAY_OPS it takes arrays if its body traced no ``where`` on data."""
    return FunctionType(form.__code__, {**form.__globals__, **vars(ops)})


# ---------------------------------------------------------------------------
# Finite-difference derivative estimation
# ---------------------------------------------------------------------------

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


# The step ladder and tolerance of every smoothness check: FD_LEVELS
# steps from FD_STEP, each half the last, reach h ~ 6e-4.  That is deep
# enough that the exp(-1/t)-flat seams in this package have negligible
# truncation error at the finest level, while the order-3 round-off floor
# (eps * sum|weights| / h^3) stays a factor of ~3 below FD_TOL.
FD_STEP = 1e-2
FD_LEVELS = 5
FD_TOL = 1e-4

# highest derivative order smoothness_check accepts: the round-off floor
# eps * sum|weights| / h^order of the finest ladder level grows with it
_MAX_ORDER = 6


@functools.lru_cache(maxsize=None)
def _plan(order):
    """The step ladders of orders 1..order, compiled to what a check reads.

    Returns (offsets, matrix, steps, sizes, matrices).  ``offsets`` are the
    distinct nodes of all sides and FD_LEVELS levels in finest steps,
    ordered by the lowest order that needs them (so each order's nodes are a
    prefix of the next order's), then by distance from x; ``steps`` are
    the same nodes as argument steps m h, with h the finest step.  For the
    central, left and right stencil in turn, ``matrix`` maps node values to
    the entries after the first of that side's Neville/Richardson table,
    with 1/h**order folded in, then to their error terms: the distance to
    the left neighbour in the previous column, the larger disagreement, as
    t - col[i-1] = fac * (t - col[i]), fac >= 4.  ``sizes`` and
    ``matrices`` hold the node count and the matrix of each order 1..order,
    so a check reads one plan and builds nothing.
    """
    shift = FD_LEVELS - 1  # the finest step is FD_STEP / 2**shift
    used = {o << (shift - level) for o in range(-order - 1, order + 2)
            for level in range(FD_LEVELS)}
    lower = _plan(order - 1) if order > 1 else ((), None, (), (), ())
    offsets = lower[0] + tuple(sorted(used.difference(lower[0]), key=lambda m: (abs(m), m)))
    column = {m: i for i, m in enumerate(offsets)}
    rows = []
    for side in (0, -1, +1):
        # minimal stencils plus one node (accuracy 2: error series h^2, h^4,
        # ... centrally, h^2, h^3, ... one-sided); small coefficient sums
        # keep the round-off floor low on the fine ladder levels
        r = (order + 2) // 2
        stencil = range(-r, r + 1) if side == 0 else [side * i for i in range(order + 2)]
        weights = fd_weights(order, stencil)
        col = [np.zeros(len(offsets)) for _ in range(FD_LEVELS)]
        for level, row in enumerate(col):
            for o, w in zip(stencil, weights):
                row[column[o << (shift - level)]] = w / (FD_STEP * 0.5 ** level) ** order
        entries, errors = col[1:], [b - a for a, b in zip(col, col[1:])]
        for j in range(1, FD_LEVELS):
            fac = 2.0 ** (2 + (j - 1) * (2 if side == 0 else 1))
            nxt = [b + (b - a) / (fac - 1.0) for a, b in zip(col, col[1:])]
            entries += nxt
            errors += [t - a for a, t in zip(col, nxt)]
            col = nxt
        rows += entries + errors
    matrix = np.array(rows)
    matrix.setflags(write=False)  # one array serves every caller
    h = FD_STEP * 0.5 ** shift
    return (offsets, matrix, tuple(m * h for m in offsets),
            lower[3] + (len(offsets),), lower[4] + (matrix,))


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


def smoothness_check(f, point, max_order):
    """Check that the derivatives of f at a point exist, up to max_order.

    For each order 1..max_order the left- and right-sided estimates must
    agree within ``FD_TOL * max(1, |left|, |right|)`` plus twice the sum of
    their own uncertainty estimates; the allowance keeps smooth functions
    with violent higher derivatives (every profile here is built from
    exp(-1/t)) from flunking on truncation error, while a genuine kink
    leaves both estimators confident and far apart.  The report also keeps
    each order's central estimate, which a flatness claim compares with 0
    itself.  An order is inconclusive when one of its nodes raises or gives
    a non-finite value, or when an entry or error term of its tables
    overflows, or when two of its node arguments x + m h round to one float
    (at |x| above about 1e13 the ladder has no resolution left); an
    inconclusive report never counts as passing.

    Per order, the Richardson tables of all three sides are one linear map
    of the node values, and each side keeps its first entry of least error.
    All sides, orders and ladder levels share nodes, and each distinct
    argument is evaluated once per check: an order-3 check calls f at 25
    arguments, an order-1 check at 13.  A call does no set-up: it reads the
    argument steps, node counts and matrices from one cached ``_plan`` and
    makes one matrix-vector product per order and component.  f must be a
    function of its argument alone that returns a fresh value on each call;
    a call that raises stores nothing, and the next order asks again.

    f may return a float or a non-empty 1-D array; each component gets its
    own matrix-vector product, so a one-component array gets a float's
    bits.  Any other shape, or a max_order outside 1.._MAX_ORDER, raises
    ValueError.  An order fails when any component fails; the report keeps
    the failing component with the largest deviation, or if none fails,
    the one with the largest deviation.
    """
    if not 1 <= max_order <= _MAX_ORDER:
        raise ValueError(f"max_order {max_order} outside 1..{_MAX_ORDER}")
    _, matrix, steps, sizes, matrices = _plan(max_order)
    args = [point + m for m in steps]
    distinct = len(args)  # args before the first that rounds onto an earlier one
    if len(set(args)) < distinct:
        distinct = next(i for i, t in enumerate(args) if t in args[:i])
    values, evaluated = [], []  # f on a prefix of args; orders with every node
    for k, size in enumerate(sizes, 1):
        if size > distinct:
            break  # no resolution left at this order, nor at those above
        try:
            for t in args[len(values):size]:
                values.append(f(t))
        except Exception:
            continue
        evaluated.append(k)
    report = SmoothnessReport(point=float(point), max_order_tested=max_order,
                              tolerance_used=FD_TOL,
                              verdicts=dict.fromkeys(range(1, max_order + 1), "inconclusive"))
    if not evaluated:
        return report
    nodes = np.array(values[:sizes[evaluated[-1] - 1]], dtype=float)
    if nodes.ndim > 2 or nodes.size == 0:
        raise ValueError(f"smoothness_check: f returned a value of shape {nodes.shape[1:]}, "
                         "not a float or a non-empty 1-D array")
    # every node has a nonzero coefficient, so a non-finite node value, like
    # an overflow in the products, leaves a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        # (component, node), less f(x): the rows annihilate constants
        rows = [nodes - nodes[0]] if nodes.ndim == 1 else nodes.T.copy() - nodes[:1].T
        # one matrix-vector product (np.dot) per order and component
        table = np.array([matrices[k - 1].dot(row[:sizes[k - 1]])
                          for k in evaluated for row in rows])
    width = len(rows)
    finite = np.isfinite(table).all(axis=1).tolist()  # per (order, component)
    # per (order, component, side): the entries, then their error terms
    table = table.reshape(-1, 2, len(matrix) // 6)
    least = np.abs(table[:, 1]).argmin(axis=1)
    picks = table[np.arange(len(table)), :, least].tolist()  # [entry, signed error]
    judged = []  # per (order, component): (failed, dev, component, central, left, right)
    for at in range(0, len(picks), 3):
        (central, _), (left, err_l), (right, err_r) = picks[at:at + 3]
        dev = abs(left - right)
        ok = dev <= FD_TOL * max(1.0, abs(left), abs(right)) + 2.0 * (abs(err_l) + abs(err_r))
        judged.append((not ok, dev, at // 3 % width, central, left, right))
    for i, k in enumerate(evaluated):
        if not all(finite[i * width:(i + 1) * width]):
            continue
        block = judged[i * width:(i + 1) * width]
        failed, dev, j, central, left, right = block[0] if width == 1 else max(
            block, key=lambda r: r[:2])
        report.fd_estimates[k] = central
        report.side_estimates[k] = (left, right)
        report.deviations[k] = dev
        report.component[k] = j
        report.verdicts[k] = "fail" if failed else "pass"
    return report
