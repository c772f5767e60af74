"""Plot-based diffeological spaces and sample-level smooth-map checking.

A space is represented by finitely many generating parameterizations
(charts from open boxes), a point-equality predicate, and a numeric
embedding of its carrier.  Derived spaces -- products, coproducts,
subspaces, quotients -- derive their generators structurally; the full
diffeology (everything that locally factors through the generators) is
never materialized.

Point equality in euclidean spaces and quotients is max_dev(a, b) <=
EQ_TOL: every coordinate within 1e-9, with no relative slack; products,
coproducts and subspaces compare with their factors' equalities.

``smooth_check`` is the executable reading of "composites with plots are
plots": it samples each source generator, runs directional
finite-difference smoothness on the composite, and witnesses that every
sampled image point lies on some target chart, through the chart's
closed-form inverse.  It produces evidence at pinned tolerances
(``smoothfn.FD_TOL`` and ``EQ_TOL``), not proofs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .smoothfn import FD_STEP, _bisect_increasing, smoothness_check
from .diskmodel import EQ_TOL, DomainError, max_dev

__all__ = [
    "Parameterization", "DiffSpace", "MapEvaluator",
    "euclidean", "product", "coproduct", "subspace", "quotient", "functional",
    "SmoothCheckConfig", "smooth_check",
    "exponential_alpha", "exponential_alpha_inv",
    "d_topology_open_sample", "irrational_torus",
]

@dataclass(frozen=True)
class Parameterization:
    """A chart from an open box in R^k into a carrier.

    ``inverse`` maps a point to a chart parameter with that image (a float
    array of length k, not necessarily in the box), or raises ValueError
    or an ArithmeticError when there is none.  ``valid`` optionally filters
    the box (used by subspace restriction); sampling rejects invalid
    parameters.
    """
    lo: tuple
    hi: tuple
    fn: object
    inverse: object
    valid: object = None

    @property
    def dim(self):
        return len(self.lo)

    def __call__(self, u):
        return self.fn(_as_vector(u))

    def admits(self, p):
        """Whether ``valid`` accepts the image point p; True without a filter."""
        return self.valid is None or self.valid(p)

    def sample(self, rng, count, margin=0.0):
        """Rejection-sample valid parameters, shrunk from the walls."""
        lo = np.asarray(self.lo) + margin
        hi = np.asarray(self.hi) - margin
        out = []
        attempts = 0
        while len(out) < count and attempts < 200 * max(count, 1):
            u = rng.uniform(lo, hi)
            attempts += 1
            if self.admits(self.fn(u)):
                out.append(u)
        return out


@dataclass(frozen=True)
class DiffSpace:
    """A carrier with finitely many generating charts and point equality."""
    name: str
    generators: tuple
    eq: object
    flatten: object                 # point -> 1-d float array, for numerics
    construction: str = "euclidean"


@dataclass(frozen=True)
class MapEvaluator:
    source: DiffSpace
    target: DiffSpace
    fn: object
    name: str = ""

    def __call__(self, x):
        return self.fn(x)


# half-width of the chart box of R^n
WINDOW = 5.0


def _as_vector(p):
    return np.array(p, dtype=float, ndmin=1)


def euclidean(n):
    """R^n with the identity chart on the window box (-WINDOW, WINDOW)^n."""
    gen = Parameterization((-WINDOW,) * n, (WINDOW,) * n,
                           lambda u: np.asarray(u, dtype=float), _as_vector)
    return DiffSpace(
        name=f"R^{n}",
        generators=(gen,),
        eq=lambda a, b: max_dev(a, b) <= EQ_TOL,
        flatten=_as_vector,
        construction="euclidean",
    )


def product(X, Y):
    """Product space; points are pairs, charts are pairs of charts."""
    def chart(gx, gy):
        return Parameterization(
            gx.lo + gy.lo, gx.hi + gy.hi,
            lambda u: (gx(u[:gx.dim]), gy(u[gx.dim:])),
            lambda p: np.concatenate([gx.inverse(p[0]), gy.inverse(p[1])]),
            valid=None if gx.valid is None and gy.valid is None else
            lambda p: gx.admits(p[0]) and gy.admits(p[1]))

    gens = tuple(chart(gx, gy) for gx in X.generators for gy in Y.generators)
    return DiffSpace(
        name=f"({X.name} x {Y.name})",
        generators=gens,
        eq=lambda a, b: X.eq(a[0], b[0]) and Y.eq(a[1], b[1]),
        flatten=lambda p: np.concatenate([X.flatten(p[0]), Y.flatten(p[1])]),
        construction="product",
    )


def coproduct(X, Y):
    """Disjoint union; points are (tag, point) with tag 0 or 1."""
    def chart(g, tag):
        def inverse(p):
            if p[0] != tag:
                raise ValueError(f"a point tagged {p[0]!r} is off summand {tag}")
            return g.inverse(p[1])

        return Parameterization(g.lo, g.hi, lambda u: (tag, g(u)), inverse,
                                valid=None if g.valid is None else lambda p: g.valid(p[1]))

    gens = tuple(chart(g, tag) for tag, Z in ((0, X), (1, Y)) for g in Z.generators)

    def eq(a, b):
        if a[0] != b[0]:
            return False
        return (X if a[0] == 0 else Y).eq(a[1], b[1])

    def flatten(p):
        inner = (X if p[0] == 0 else Y).flatten(p[1])
        return np.concatenate([[float(p[0])], inner])

    return DiffSpace(f"({X.name} + {Y.name})", gens, eq, flatten, "coproduct")


def subspace(Y, membership, name=None):
    """Subspace of Y cut out by a membership predicate.

    Generators are the ambient charts restricted (by rejection) to the
    parameters whose images satisfy the predicate.
    """
    gens = tuple(
        Parameterization(g.lo, g.hi, g.fn, g.inverse,
                         valid=(lambda g: lambda p: g.admits(p) and membership(p))(g))
        for g in Y.generators
    )
    return DiffSpace(name or f"{{{Y.name} | membership}}", gens, Y.eq, Y.flatten,
                     "subspace")


_SCAN_NODES = 81  # evenly spaced nodes of a lift-less quotient's scan, walls included


def _scan_inverse(g, canonicalizer):
    """Chart inverse of a quotient of a 1-D space that has no lift.

    Scans the interior nodes of g's box for the first zero or sign change
    of canonicalizer(g(u)) - y and bisects it; raises ValueError when
    there is none, or when y or a representative is not one number.
    """
    nodes = np.linspace(g.lo[0], g.hi[0], _SCAN_NODES)[1:-1].tolist()

    def inverse(y):
        y = np.asarray(y, dtype=float).item()

        def h(t):
            return np.asarray(canonicalizer(g.fn(np.array([t]))), dtype=float).item() - y

        a = ha = None
        for b in nodes:
            hb = h(b)
            if hb == 0.0:
                return np.array([b])
            if ha is not None and (ha < 0.0) != (hb < 0.0):
                sign = 1.0 if ha < 0.0 else -1.0
                return np.array([_bisect_increasing(lambda t: sign * h(t), 0.0, a, b)])
            a, ha = b, hb
        raise ValueError(f"no parameter of the chart reaches {y!r}")

    return inverse


def quotient(Y, canonicalizer, name=None, lift=None):
    """Quotient of Y along a canonicalizing projection.

    The projection must send every ambient point of a class to one
    numeric representative; the points of the quotient *are* those
    representatives.  Generators are the ambient charts followed by the
    projection, and equality compares representatives directly (the
    projection is not assumed idempotent, so it is never re-applied to
    quotient points).

    ``lift`` sends a representative to an ambient point of its class
    (``smoothfn.lambda_inv`` for the line modulo lambda), raising
    ValueError for a point of no class; the charts invert through it.
    Without one they invert by a scan of the ambient chart, which must
    be 1-D (else TypeError), for scalar representatives.
    """
    if lift is None and any(g.dim != 1 for g in Y.generators):
        raise TypeError(f"quotient of {Y.name}: without a lift every ambient chart "
                        "must be 1-D")

    def chart(g):
        inverse = (_scan_inverse(g, canonicalizer) if lift is None
                   else lambda y: g.inverse(lift(y)))
        return Parameterization(g.lo, g.hi, lambda u: canonicalizer(g(u)), inverse,
                                valid=g.valid)

    gens = tuple(chart(g) for g in Y.generators)
    return DiffSpace(name or f"{Y.name}/~", gens, lambda a, b: max_dev(a, b) <= EQ_TOL,
                     _as_vector, "quotient")


def functional(X, Y):
    """Mapping space C(X, Y), carried only through curried evaluators.

    No generators are materialized; its structure is honored by
    construction (evaluation against charts of X), not sampled directly.
    Equality of maps is not decidable from samples, so ``eq`` raises
    TypeError.
    """
    def eq(f, g):
        raise TypeError(f"C({X.name},{Y.name}): equality of maps is not decidable")

    return DiffSpace(
        name=f"C({X.name},{Y.name})",
        generators=(),
        eq=eq,
        flatten=lambda f: np.array([]),
        construction="functional",
    )


# ---------------------------------------------------------------------------
# Smooth-map checking
# ---------------------------------------------------------------------------

# smooth_check tests first derivatives along the axes and, on charts of
# dimension >= 2, this many random unit directions per sample (in R^1 a unit
# direction is +-1, and a probe along -e mirrors the one along e)
_LINE_ORDER = 1
_DIRECTIONS = 2


@dataclass(frozen=True)
class SmoothCheckConfig:
    samples_per_generator: int = 6
    grid_per_axis: int = 5          # odd counts include box centers
    seed: int = 20570


@dataclass
class SmoothCheckReport:
    passed: bool = True
    inconclusive: bool = False
    records: list = field(default_factory=list)

    def add_failure(self, kind, witness, inconclusive=False):
        self.passed = False
        self.inconclusive = self.inconclusive or inconclusive
        self.records.append({"kind": kind, "witness": witness})


def _grid_samples(gen, cfg, margin):
    if gen.dim == 0:
        return [np.zeros(0)]
    axes = [np.linspace(lo + margin, hi - margin, cfg.grid_per_axis)
            for lo, hi in zip(gen.lo, gen.hi)]
    if gen.dim == 1:
        pts = [np.array([a]) for a in axes[0]]
    else:
        mesh = np.meshgrid(*axes)
        pts = [np.array(t) for t in zip(*(m.ravel() for m in mesh))]
        if len(pts) > cfg.grid_per_axis ** 2:
            pts = pts[:: max(1, len(pts) // cfg.grid_per_axis ** 2)]
    if gen.valid is not None:
        pts = [u for u in pts if gen.valid(gen.fn(u))]
    return pts


def _factors_through(y, target):
    """Whether the image point y lies on some target chart.

    A chart's inverse proposes a parameter; y lies on the chart when that
    parameter is inside the chart's open box, the chart's ``valid`` filter
    admits its image, and the target's ``eq`` identifies that image with
    y.  An inverse that rejects y says only that y is off that chart.
    """
    for g in target.generators:
        try:
            u = g.inverse(y)
        except (ValueError, ArithmeticError):
            continue
        if (u.shape == (g.dim,) and all(lo < a < hi for lo, a, hi in zip(g.lo, u, g.hi))
                and g.admits(p := g.fn(u)) and target.eq(p, y)):
            return True
    return False


def smooth_check(f, config=None):
    """Sample-level smoothness verdict for a map between spaces.

    For every generator of the source: composites are probed on a grid
    plus random parameters; at each sample the composite must (a) have
    agreeing one-sided derivative estimates along the axes (and random
    directions when the chart has dimension >= 2), and (b) land on some
    target generator, whose inverse gives a parameter in its box with that
    image up to the target's ``eq``.  Failures carry witnesses; evaluation
    breakdowns, and a source generator with no sample or no generator at
    all, mark the report inconclusive rather than passing.
    """
    cfg = config or SmoothCheckConfig()
    rng = np.random.default_rng(cfg.seed)
    report = SmoothCheckReport()
    margin = FD_STEP * (_LINE_ORDER + 2)

    if not f.source.generators:
        report.add_failure("no_samples", {"source": f.source.name}, inconclusive=True)
    for gi, gen in enumerate(f.source.generators):
        samples = _grid_samples(gen, cfg, margin)
        samples += gen.sample(rng, cfg.samples_per_generator, margin=margin)
        if not samples:
            report.add_failure("no_samples", {"generator": gi}, inconclusive=True)
        axes = list(np.eye(gen.dim))
        for u in samples:
            dirs = axes.copy()
            for _ in range(_DIRECTIONS if gen.dim > 1 else 0):
                d = rng.standard_normal(gen.dim)
                dirs.append(d / np.linalg.norm(d))

            try:
                y = f.fn(gen.fn(u))
                y_flat = f.target.flatten(y)
            except Exception as exc:
                report.add_failure("evaluation", {"generator": gi, "u": list(u),
                                                  "error": repr(exc)}, inconclusive=True)
                continue

            if len(y_flat) == 0:
                dirs = []  # a map into a point has nothing to differentiate
            # a one-coordinate image is probed as a float: the check gives it
            # the bits of its one-element array at less cost
            one = len(y_flat) == 1

            def composite(u_):
                p = f.target.flatten(f.fn(gen.fn(u_)))
                return p.item() if one else p

            for d in dirs:
                rep = smoothness_check(lambda s, d=d: composite(u + s * d), 0.0,
                                       _LINE_ORDER)
                if rep.inconclusive:
                    report.add_failure("inconclusive", {
                        "generator": gi, "u": list(u), "direction": list(d)}, inconclusive=True)
                elif not rep.passed:
                    report.add_failure("smoothness", {
                        "generator": gi, "u": list(u),
                        "coord": rep.component[_LINE_ORDER],
                        "direction": list(d), "estimates": rep.side_estimates})

            if f.target.generators and not _factors_through(y, f.target):
                report.add_failure("factorization", {
                    "generator": gi, "u": list(u), "image": list(y_flat)})
    return report


# ---------------------------------------------------------------------------
# Exponential law
# ---------------------------------------------------------------------------

def exponential_alpha(f):
    """Curry a map on a product: alpha(f)(x)(y) = f(x, y), bit for bit."""
    X = getattr(f.source, "name", "")

    def curried(x):
        return lambda y: f.fn((x, y))

    return MapEvaluator(source=None, target=None, fn=curried,
                        name=f"alpha({f.name or X})")


def exponential_alpha_inv(g, source=None, target=None):
    """Uncurry: alpha_inv(g)(x, y) = g(x)(y); exact inverse of currying."""
    return MapEvaluator(source=source, target=target,
                        fn=lambda xy: g.fn(xy[0])(xy[1]),
                        name=f"alpha_inv({g.name})")


# ---------------------------------------------------------------------------
# D-topology and the irrational torus
# ---------------------------------------------------------------------------

# d_topology_open_sample: auto-sampled probes per generator, samples per
# ball, the radius ladder (halved from _RADIUS_START down to _MIN_RADIUS)
# and the seed of its own generator
_PROBES_PER_GENERATOR = 12
_BALL_SAMPLES = 40
_RADIUS_START = 0.25
_MIN_RADIUS = 1e-6
_OPEN_SAMPLE_SEED = 31415


def d_topology_open_sample(X, set_membership, probes=None):
    """Evidence that a set is open in the plot-final topology.

    A set is open iff its preimage under every plot is open.  For each
    generator and each probe parameter inside the preimage, shrinking
    balls are sampled until one stays inside; a probe that still sees
    outside points at radius 1e-6 is a counterexample.  Auto-sampled
    probes only find fat sets, so thin ones (a singleton has sampling
    probability zero) should be probed explicitly through ``probes``, a
    list of parameter vectors offered to every generator of matching
    dimension.  Returns (verdict, witnesses).
    """
    rng = np.random.default_rng(_OPEN_SAMPLE_SEED)
    witnesses = []
    for gi, gen in enumerate(X.generators):
        if gen.dim == 0:
            continue
        explicit = [_as_vector(u) for u in (probes or [])]
        explicit = [u for u in explicit if len(u) == gen.dim and set_membership(gen(u))]
        sampled = [u for u in gen.sample(rng, 4 * _PROBES_PER_GENERATOR)
                   if set_membership(gen(u))][:_PROBES_PER_GENERATOR]
        for u in explicit + sampled:
            r = _RADIUS_START
            interior = False
            while r >= _MIN_RADIUS:
                bad = False
                for _ in range(_BALL_SAMPLES):
                    d = rng.standard_normal(gen.dim)
                    d *= rng.uniform() ** (1.0 / gen.dim) / np.linalg.norm(d)
                    if not set_membership(gen(u + r * d)):
                        bad = True
                        break
                if not bad:
                    interior = True
                    break
                r *= 0.5
            if not interior:
                witnesses.append({"generator": gi, "u": list(u),
                                  "radius": _MIN_RADIUS})
    return len(witnesses) == 0, witnesses


# |m|, |n| bound of the relation x - y = m + n*theta in irrational_torus
COEFF_BOUND = 50


def irrational_torus(theta):
    """The line modulo the subgroup generated by 1 and theta.

    ``eq`` identifies x and y when x - y = m + n*theta, up to EQ_TOL, for
    integers |m|, |n| <= COEFF_BOUND (the subgroup is dense; the bound keeps
    points apart), on two floats or two arrays of one shape; a non-finite
    point compares unequal.  A theta that is not finite or within 1e-12 of
    some p/q, q <= COEFF_BOUND, is rejected.  The chart's inverse shifts a
    point into the window, smallest |n| first (ValueError if non-finite).
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta={theta!r} is not a finite slope")
    q = np.arange(1.0, COEFF_BOUND + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge theta is rational at q = 1
        rational = np.flatnonzero(np.abs(theta * q - np.round(theta * q)) / q < 1e-12)
    if rational.size:
        raise DomainError(f"theta={theta!r} looks rational (denominator {rational[0] + 1}); "
                          "the quotient would collapse")
    n = np.arange(-COEFF_BOUND, COEFF_BOUND + 1)
    shifts = n[np.argsort(np.abs(n), kind="stable")] * theta  # n*theta, smallest |n| first

    def eq(x, y):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d matches no shift
            r = np.subtract(x, y, dtype=float)[..., None] - shifts
            m = np.round(r)
            hit = ((np.abs(m) <= COEFF_BOUND) & (np.abs(r - m) < EQ_TOL)).any(axis=-1)
        return hit if hit.ndim else bool(hit)

    def inverse(p):
        r = float(p) - shifts
        u = r - np.clip(np.round(r), -COEFF_BOUND, COEFF_BOUND)
        inside = (-WINDOW < u) & (u < WINDOW)
        if not inside.any():
            raise ValueError(f"no shift m + n*theta moves {float(p)!r} into the window")
        return u[[np.argmax(inside)]]

    gen = Parameterization((-WINDOW,), (WINDOW,), lambda u: float(u[0]), inverse)
    return DiffSpace(
        name=f"T_theta({theta:.6g})",
        generators=(gen,),
        eq=eq,
        flatten=lambda p: np.array([float(p)]),
        construction="quotient",
    )
