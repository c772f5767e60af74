"""Plot-based diffeological spaces and sample-level smooth-map checking.

A space is represented by finitely many generating parameterizations
(charts from open boxes), a point-equality predicate, and a numeric
embedding of its carrier.  Derived spaces -- products, coproducts,
subspaces, quotients -- derive their generators structurally; the full
diffeology (everything that locally factors through the generators) is
never materialized.

``smooth_check`` is the executable reading of "composites with plots are
plots": it samples each source generator, runs directional
finite-difference smoothness on the composite, and witnesses that every
sampled image point factors through some target generator by a local
preimage search.  It produces evidence at configured tolerances, not
proofs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .smoothfn import FDConfig, smoothness_check
from .diskmodel import DomainError

__all__ = [
    "Parameterization", "DiffSpace", "MapEvaluator",
    "euclidean", "product", "coproduct", "subspace", "quotient", "functional",
    "SmoothCheckConfig", "smooth_check",
    "exponential_alpha", "exponential_alpha_inv",
    "d_topology_open_sample", "irrational_torus",
]

# coordinate slack of point equality in euclidean spaces, quotients and
# the irrational torus
EQ_TOL = 1e-9


@dataclass(frozen=True)
class Parameterization:
    """A chart from an open box in R^k into a carrier.

    ``valid`` optionally filters the box (used by subspace restriction);
    sampling rejects invalid parameters.
    """
    lo: tuple
    hi: tuple
    fn: object
    valid: object = None

    @property
    def dim(self):
        return len(self.lo)

    def __call__(self, u):
        return self.fn(np.atleast_1d(np.asarray(u, dtype=float)))

    def sample(self, rng, count, margin=0.0):
        """Rejection-sample valid parameters, shrunk from the walls."""
        lo = np.asarray(self.lo) + margin
        hi = np.asarray(self.hi) - margin
        out = []
        attempts = 0
        while len(out) < count and attempts < 200 * max(count, 1):
            u = rng.uniform(lo, hi)
            attempts += 1
            if self.valid is None or self.valid(self.fn(u)):
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


def euclidean(n, window=5.0):
    """R^n with the identity chart on the window box (-w, w)^n."""
    gen = Parameterization((-window,) * n, (window,) * n,
                           lambda u: np.asarray(u, dtype=float))
    return DiffSpace(
        name=f"R^{n}",
        generators=(gen,),
        eq=lambda a, b: bool(np.allclose(np.asarray(a, float), np.asarray(b, float),
                                         atol=EQ_TOL)),
        flatten=lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
        construction="euclidean",
    )


def product(X, Y):
    """Product space; points are pairs, charts are pairs of charts."""
    gens = tuple(
        Parameterization(
            gx.lo + gy.lo, gx.hi + gy.hi,
            (lambda gx, gy: lambda u: (gx(u[:gx.dim]), gy(u[gx.dim:])))(gx, gy),
            valid=(lambda gx, gy: (
                None if gx.valid is None and gy.valid is None else
                lambda p: (gx.valid is None or gx.valid(p[0]))
                and (gy.valid is None or gy.valid(p[1]))))(gx, gy),
        )
        for gx in X.generators for gy in Y.generators
    )
    return DiffSpace(
        name=f"({X.name} x {Y.name})",
        generators=gens,
        eq=lambda a, b: X.eq(a[0], b[0]) and Y.eq(a[1], b[1]),
        flatten=lambda p: np.concatenate([X.flatten(p[0]), Y.flatten(p[1])]),
        construction="product",
    )


def coproduct(X, Y):
    """Disjoint union; points are (tag, point) with tag 0 or 1."""
    gens = tuple(
        Parameterization(g.lo, g.hi, (lambda g, tag: lambda u: (tag, g(u)))(g, tag),
                         valid=(lambda g, tag: None if g.valid is None
                                else lambda p: g.valid(p[1]))(g, tag))
        for tag, Z in ((0, X), (1, Y)) for g in Z.generators
    )

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
        Parameterization(g.lo, g.hi, g.fn,
                         valid=(lambda g: membership if g.valid is None
                                else lambda p: g.valid(p) and membership(p))(g))
        for g in Y.generators
    )
    return DiffSpace(name or f"{{{Y.name} | membership}}", gens, Y.eq, Y.flatten,
                     "subspace")


def quotient(Y, canonicalizer, name=None):
    """Quotient of Y along a canonicalizing projection.

    The projection must send every ambient point of a class to one
    numeric representative; the points of the quotient *are* those
    representatives.  Generators are the ambient charts followed by the
    projection, and equality compares representatives directly (the
    projection is not assumed idempotent, so it is never re-applied to
    quotient points).
    """
    gens = tuple(
        Parameterization(g.lo, g.hi, (lambda g: lambda u: canonicalizer(g(u)))(g),
                         valid=g.valid)
        for g in Y.generators
    )

    def eq(a, b):
        fa = np.atleast_1d(np.asarray(a, dtype=float))
        fb = np.atleast_1d(np.asarray(b, dtype=float))
        return bool(np.allclose(fa, fb, atol=EQ_TOL))

    return DiffSpace(name or f"{Y.name}/~", gens, eq,
                     lambda p: np.atleast_1d(np.asarray(p, dtype=float)),
                     "quotient")


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

# smooth_check tests first derivatives along the axes and this many random
# directions per sample
_LINE_ORDER = 1
_DIRECTIONS = 2
# a sampled image factors through a target chart when some parameter
# lands within FACTOR_TOL of it; the local search starts from at most
# _MULTISTART distinct coarse candidates per chart
FACTOR_TOL = 1e-7
_MULTISTART = 4


@dataclass(frozen=True)
class SmoothCheckConfig:
    samples_per_generator: int = 6
    grid_per_axis: int = 5          # odd counts include box centers
    fd: FDConfig = field(default_factory=FDConfig)
    seed: int = 20570


@dataclass
class SmoothCheckReport:
    map_name: str
    passed: bool = True
    inconclusive: bool = False
    records: list = field(default_factory=list)

    def add_failure(self, kind, witness):
        self.passed = False
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


def _distinct_starts(vals, count):
    """Indices of the ``count`` smallest values, one per distinct value.

    Values are told apart by log10 to six decimals, so a flat plateau
    cannot eat the whole multistart budget.
    """
    seen, starts = set(), []
    for i in sorted(range(len(vals)), key=vals.__getitem__):
        key = round(math.log10(vals[i] + 1e-300), 6)
        if key in seen:
            continue
        seen.add(key)
        starts.append(i)
        if len(starts) >= count:
            break
    return starts


def _factors_through(y_flat, target, rng):
    """Search a target chart for a local preimage of the flattened point.

    A coarse scan seeds the local optimizer: charts built from the flat
    profiles have wide zero-gradient plateaus where a descent method
    would otherwise stall at the first iterate.
    """
    # imported here, its one use: it is most of the import time of difftop
    from scipy import optimize

    for g in target.generators:
        if g.dim == 0:
            if np.allclose(target.flatten(g(np.zeros(0))), y_flat, atol=FACTOR_TOL):
                return True
            continue

        def dist2(u):
            try:
                return float(np.sum((target.flatten(g.fn(u)) - y_flat) ** 2))
            except Exception:
                return np.inf

        lo, hi = np.asarray(g.lo), np.asarray(g.hi)
        thresh = FACTOR_TOL ** 2

        if g.dim == 1:
            # bracketed scalar search around the best coarse nodes
            nodes = np.linspace(lo[0], hi[0], 81)
            vals = [dist2(np.array([a])) for a in nodes]
            step = nodes[1] - nodes[0]
            for i in _distinct_starts(vals, _MULTISTART):
                if vals[i] < thresh:
                    return True
                res = optimize.minimize_scalar(
                    lambda a: dist2(np.array([a])), method="bounded",
                    bounds=(max(lo[0], nodes[i] - step), min(hi[0], nodes[i] + step)),
                    options={"xatol": 1e-13})
                if res.fun < thresh:
                    return True
            continue

        cloud = [0.5 * (lo + hi)]
        cloud += [rng.uniform(lo, hi) for _ in range(40)]
        vals = [dist2(u) for u in cloud]
        for i in _distinct_starts(vals, _MULTISTART):
            if vals[i] < thresh:
                return True
            res = optimize.minimize(dist2, cloud[i], method="L-BFGS-B",
                                    bounds=list(zip(lo, hi)),
                                    options={"ftol": 1e-18, "gtol": 1e-14})
            if res.fun < thresh:
                return True
            # derivative-free polish; the descent step can stall short of
            # the tolerance when the chart's slope is small
            res = optimize.minimize(dist2, res.x, method="Nelder-Mead",
                                    options={"fatol": 1e-18, "xatol": 1e-12,
                                             "maxiter": 400})
            if res.fun < thresh:
                return True
    return False


def smooth_check(f, config=None):
    """Sample-level smoothness verdict for a map between spaces.

    For every generator of the source: composites are probed on a grid
    plus random parameters; at each sample the composite must (a) have
    directionally agreeing one-sided derivative estimates along the axes
    and random directions, and (b) land, within tolerance, on some
    target generator (local preimage search).  Failures carry witnesses;
    evaluation breakdowns mark the report inconclusive rather than
    passing.
    """
    cfg = config or SmoothCheckConfig()
    rng = np.random.default_rng(cfg.seed)
    report = SmoothCheckReport(map_name=f.name or "<map>")
    margin = cfg.fd.base_step * (_LINE_ORDER + 2)

    for gi, gen in enumerate(f.source.generators):
        samples = _grid_samples(gen, cfg, margin)
        samples += gen.sample(rng, cfg.samples_per_generator, margin=margin)
        for u in samples:
            dirs = [np.eye(gen.dim)[a] for a in range(gen.dim)]
            for _ in range(_DIRECTIONS if gen.dim > 0 else 0):
                d = rng.standard_normal(gen.dim)
                dirs.append(d / np.linalg.norm(d))

            def composite(u_):
                return f.target.flatten(f.fn(gen.fn(u_)))

            try:
                y_flat = composite(u)
            except Exception as exc:
                report.inconclusive = True
                report.add_failure("evaluation", {"generator": gi, "u": list(u),
                                                  "error": repr(exc)})
                continue

            if len(y_flat) == 0:
                dirs = []  # a map into a point has nothing to differentiate
            for d in dirs:
                rep = smoothness_check(lambda s, d=d: composite(u + s * d), 0.0,
                                       _LINE_ORDER, config=cfg.fd)
                if rep.inconclusive:
                    report.inconclusive = True
                    report.add_failure("inconclusive", {
                        "generator": gi, "u": list(u), "direction": list(d)})
                elif not rep.passed:
                    report.add_failure("smoothness", {
                        "generator": gi, "u": list(u),
                        "coord": rep.component[_LINE_ORDER],
                        "direction": list(d), "estimates": rep.side_estimates})

            if f.target.generators and not _factors_through(y_flat, f.target, rng):
                report.add_failure("factorization", {
                    "generator": gi, "u": list(u), "image": list(y_flat)})
    if report.inconclusive:
        report.passed = False
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
        explicit = [np.atleast_1d(np.asarray(u, dtype=float)) for u in (probes or [])]
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


def irrational_torus(theta, coeff_bound=50):
    """The line modulo the subgroup generated by 1 and theta.

    Point equality identifies x and y when x - y = m + n*theta, up to
    EQ_TOL, for some integers with |m|, |n| <= coeff_bound.  The subgroup
    is dense, so the bound is what keeps equality from degenerating to
    "always true";
    it is an explicit approximation knob, not a hidden constant.  A theta
    within 1e-12 of a fraction p/q with q <= coeff_bound is rejected.
    """
    for qd in range(1, coeff_bound + 1):
        if abs(theta * qd - round(theta * qd)) / qd < 1e-12:
            raise DomainError(
                f"theta={theta!r} looks rational (denominator {qd}); "
                "the quotient would collapse")

    def eq(x, y):
        d = float(x) - float(y)
        for nn in range(-coeff_bound, coeff_bound + 1):
            m = round(d - nn * theta)
            if abs(m) <= coeff_bound and abs(d - nn * theta - m) < EQ_TOL:
                return True
        return False

    gen = Parameterization((-5.0,), (5.0,), lambda u: float(u[0]))
    return DiffSpace(
        name=f"T_theta({theta:.6g})",
        generators=(gen,),
        eq=eq,
        flatten=lambda p: np.array([float(p)]),
        construction="quotient",
    )
