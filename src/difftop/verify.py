"""Named verification suites with machine-readable, seed-reproducible results.

Each suite returns a list of property records

    {"property", "samples", "worst_dev", "tol", "pass", "note"}

which its report sorts by property name.  Each record's ``tol`` is a
pinned constant of the ladder below.  Every record comes from one
``Tally``, opened with the property's name, samples, tol and note and
fed its deviations; the instance checks return the records ``difftop
chep`` prints, and the lifting suite folds them into its own.  All
sampling is driven by the run seed, so two runs with the same seed and
samples produce byte-identical reports.  A property over thousands of
sampled disk or cylinder points draws one array per dimension and
evaluates it through the array entry points (``*_batch``) of diskmodel,
smoothfn and subdivision.  The negative controls (the kink detector, the
unwrinkled seam control, the singleton open-set) are first-class
properties: they pass exactly when the checked machinery *rejects* what
it must reject, guarding the tolerances against being vacuously loose.
"""

import math
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import smoothfn as sf
from . import diskmodel as dm
from . import subdivision as sd
from . import diffeology as dg
from .smoothfn import FD_TOL, smoothness_check
from .diskmodel import max_dev
from .cellcomplex import CellComplex, ComplexPoint
from .homotopy import (Homotopy, PairMapRep, concat, glue_double, path_components,
                       star)
from .lifting import (ChepRows, LiftError, chep, extend_lift, hep, product_fibration,
                      rows_at_points)
from .instances import bundled_chep_instance, bundled_extend_instance, chain_position

__all__ = ["RunConfig", "SUITES", "Tally", "make_report", "run_suite", "suite_names",
           "check_chep_instance", "check_extend_instance"]

# highest derivative order the suites check: the flatness claims on lambda
# and xi and the seam checks all stop at 3
MAX_FD_ORDER = 3

# The tolerance ladder every suite checks at: algebraic identities at
# TOL_ALG, round trips through trig and inversion at TOL_RT,
# finite-difference smoothness at smoothfn.FD_TOL, lifted homotopy
# equations at TOL_LIFT; each stage of machinery costs roughly three
# digits.  Round trips through the disk chart alone are held to TOL_DISK,
# the bound diskmodel.section documents for Q(n, section(n, w)) == w.
TOL_ALG = 1e-12
TOL_DISK = 1e-10
TOL_RT = 1e-8
TOL_LIFT = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Sampling level and seed for the suites; ``samples`` scales every count."""
    samples: float = 1.0
    seed: int = 20570

    def rng(self, tag):
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def count(self, base):
        return max(1, int(round(base * self.samples)))


class Tally:
    """The worst deviation of one property, and the record it makes.

    ``add`` takes floats, ``add_rows`` arrays; both count a non-finite
    deviation as inf, since plain max() swallows NaN (max(0.0, nan) is
    0.0) and inf fails every tolerance.  The record passes when the worst
    deviation is finite and at most tol, unless the property sets
    ``verdict``.  A yes/no property is a tally at tol 0 fed float(not ok);
    a count property adds its count once.
    """

    def __init__(self, name, samples, tol, note=""):
        self.name, self.samples, self.tol, self.note = name, samples, tol, note
        self.dev = 0.0
        self.verdict = None

    def add(self, *devs):
        self.dev = max((self.dev, *(d if math.isfinite(d) else math.inf for d in devs)))

    def add_rows(self, devs):
        devs = np.asarray(devs, dtype=float)
        self.add(float(np.max(np.where(np.isfinite(devs), devs, math.inf), initial=0.0)))

    def record(self):
        ok = math.isfinite(self.dev) and self.dev <= self.tol
        return {"property": self.name, "samples": int(self.samples),
                "worst_dev": float(self.dev), "tol": float(self.tol),
                "pass": bool(ok if self.verdict is None else self.verdict), "note": self.note}


class _Tallies(list):
    """The tallies a suite or an instance check opens, one per property."""

    def open(self, name, samples, tol, note=""):
        self.append(Tally(name, samples, tol, note))
        return self[-1]

    def records(self):
        return [t.record() for t in self]


def make_report(name, cfg, props):
    """The report envelope shared by the suites and ``difftop chep``."""
    props = sorted(props, key=lambda r: r["property"])
    return {"suite": name, "config": asdict(cfg), "properties": props,
            "passed": all(r["pass"] for r in props)}


def _per_n(total, ns):
    """(n, count) pairs when sample i of ``total`` has dimension ns[i % len(ns)].

    The suites draw one array of points per n; the counts keep the sample
    mix of a loop over i.
    """
    return [(n, len(range(j, total, len(ns)))) for j, n in enumerate(ns)]


def _cyl_rows(c):
    """A CylPoint of rows as one (N, n+2) array: disk coordinates, then time."""
    return np.column_stack([c.disk, c.time])


# ---------------------------------------------------------------------------
# smoothfn
# ---------------------------------------------------------------------------

def suite_smoothfn(cfg):
    out = _Tallies()
    n = cfg.count(10000)

    ts = np.linspace(-1.0, 2.0, n)
    out.open("lambda_symmetry_grid", n, TOL_ALG).add(
        *(abs(sf.lambda_fn(t) + sf.lambda_fn(1.0 - t) - 1.0) for t in ts))

    lows = np.linspace(-3.0, 0.0, 200)
    highs = np.linspace(1.0, 4.0, 200)
    out.open("lambda_plateaus_exact", 400, 0.0, "identically 0 below 0 and 1 above 1").add(
        *(abs(sf.lambda_fn(t)) for t in lows), *(abs(sf.lambda_fn(t) - 1.0) for t in highs))

    orders = range(1, MAX_FD_ORDER + 1)
    for name, f, points in (("lambda_flat_at_ends_fd", sf.lambda_fn, (0.0, 1.0)),
                            ("xi_flat_at_walls_fd", sf.xi, (1.0 / 3.0, 2.0 / 3.0))):
        flat = out.open(name, 2 * MAX_FD_ORDER, FD_TOL)
        for pt in points:
            rep = smoothness_check(f, pt, MAX_FD_ORDER)
            flat.add(*(abs(rep.fd_estimates.get(k, math.nan)) for k in orders))

    kink = out.open("abs_kink_detected", 1, FD_TOL,
                    "negative control: the checker must reject the kink")
    rep = smoothness_check(abs, 0.0, 1)
    kink.add(rep.deviations.get(1, 0.0))
    kink.verdict = rep.verdicts.get(1) == "fail"

    plateaus = out.open("xi_identity_plateaus_exact", 400, 0.0)
    for grid in (np.linspace(0.0, 1.0 / 6.0, 200), np.linspace(5.0 / 6.0, 1.0, 200)):
        plateaus.add(*(abs(sf.xi(s) - s) for s in grid))

    m = cfg.count(1000)
    grid = np.linspace(1.0 / 3.0, 2.0 / 3.0, m)
    out.open("xi_middle_branch", m, TOL_ALG).add(
        *(abs(sf.xi(s) - (sf.lambda_fn(3.0 * s - 1.0) / 3.0 + 1.0 / 3.0)) for s in grid))

    grid = np.linspace(0.0, 1.0, n)
    vals = [sf.xi(s) for s in grid]
    out.open("xi_monotone_grid", n, TOL_ALG).add(
        *(vals[i] - vals[i + 1] for i in range(len(vals) - 1)))

    out.open("xi_fixes_subdivision_walls", 4, TOL_ALG).add(
        *(abs(sf.xi(w) - w) for w in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)))

    grid = np.linspace(0.0, 1.0, m)
    out.open("xi_reflection", m, TOL_ALG).add(
        *(abs(sf.xi(s) + sf.xi(1.0 - s) - 1.0) for s in grid))

    out.open("xi_inv_roundtrip", m, TOL_RT).add(
        *(abs(sf.xi(sf.xi_inv(y)) - y) for y in grid))

    return out.records()


# ---------------------------------------------------------------------------
# diskmodel
# ---------------------------------------------------------------------------

def suite_diskmodel(cfg):
    out = _Tallies()
    rng = cfg.rng("diskmodel")

    n_samp = cfg.count(10000)
    roundtrip = out.open("q_section_roundtrip", n_samp, TOL_DISK)
    for n, k in _per_n(n_samp, (1, 2, 3)):
        # gen_plot, the lambda chart: its saturation collar reaches the poles
        w = dm.Q_batch(n, sf.lambda_fn_batch(rng.uniform(-1.5, 2.5, size=(k, n))))
        roundtrip.add_rows(dm.max_dev_batch(dm.Q_batch(n, dm.section_batch(n, w)), w))

    m = cfg.count(1000)
    base = out.open("q_base_inclusion_exact", m, 0.0)
    top = out.open("q_top_reflects", m, TOL_ALG)
    unit = out.open("unit_norm_outputs", m, TOL_ALG)
    for n, k in _per_n(m, (0, 1, 2)):
        v = dm.random_disk_batch(n, k, rng)
        w0 = dm.q_batch(n, v, np.zeros(k))
        base.add_rows(dm.max_dev_batch(w0, np.column_stack([v, np.zeros(k)])))
        w1 = dm.q_batch(n, v, np.ones(k))
        top.add_rows(np.abs(w1[:, -1]))
        top.add_rows(np.abs(w1[:, -2] + v[:, -1]))
        w = dm.Q_batch(n + 1, sf.lambda_fn_batch(rng.uniform(-1.5, 2.5, size=(k, n + 1))))
        unit.add_rows(np.abs(np.linalg.norm(w, axis=1) - 1.0))

    identity = out.open("retract_include_identity", m, TOL_DISK)
    for i in range(m):
        n = i % 4
        w = dm.random_disk(n, rng)
        identity.add(max_dev(dm.retract(n, dm.include_k(n, w)), w))

    ends = out.open("retract_homotopy_ends", cfg.count(300), TOL_DISK)
    for i in range(ends.samples):
        n = i % 3
        w = dm.random_disk(n + 1, rng)
        end = dm.include_k(n, dm.retract(n, w))
        ends.add(max_dev((dm.retract_homotopy(n, w, 0.0), dm.retract_homotopy(n, w, 1.0)),
                         (w, end)))

    return out.records()


# ---------------------------------------------------------------------------
# homotopy
# ---------------------------------------------------------------------------

def _triple_rep(n):
    """A representative of a map of triples into (R^2, x-axis, origin).

    The last coordinate is 0 on the whole boundary sphere; both
    coordinates vanish on the lower boundary half-disk.
    """
    return PairMapRep(n, lambda w: np.column_stack(
        [sf.lambda_fn_batch(3.0 * w[:, -2]) * (w[:, -2] + 1.0), w[:, -1]]), np.zeros(2))


def suite_homotopy(cfg):
    out = _Tallies()
    rng = cfg.rng("homotopy")
    m = cfg.count(1000)

    # the product homotopies on R^m: row i of x is the i-th sample point
    F = Homotopy(lambda x, t: np.column_stack([x * (1.0 - t), np.full(len(x), math.sin(t))]))
    G = Homotopy(lambda x, t: np.column_stack([x * 0.0, np.full(len(x), math.sin(1.0) + t * t)]))
    H = concat(F, G, sample_points=[np.linspace(-2, 2, 9)[:, None]])
    x = rng.uniform(-2.0, 2.0, size=(m, 1))
    out.open("concat_seam", m, TOL_ALG).add_rows(
        dm.max_dev_batch(F.fn(x, sf.lambda_fn(1.5)), G.fn(x, sf.lambda_fn(-0.5))))

    out.open("concat_endpoints_exact", m, 0.0).add_rows(dm.max_dev_batch(
        np.hstack([H.fn(x, 0.0), H.fn(x, 1.0)]), np.hstack([F.fn(x, 0.0), G.fn(x, 1.0)])))

    out.open("concat_plateau", m, TOL_ALG).add_rows(dm.max_dev_batch(
        np.hstack([H.fn(x, 1.0 / 3.0), H.fn(x, 0.6)]), np.hstack([F.fn(x, 1.0), G.fn(x, 0.0)])))

    # formula-level well-definedness over pole fibers: evaluate the star
    # composite through two distinct cube preimages of the same point
    stars = {n: star(n, _triple_rep(n), _triple_rep(n)) for n in (1, 2, 3)}
    fibers = out.open("star_quotient_fibers", cfg.count(300), dm.EQ_TOL)
    # per sample: t_rest, then one fiber point per pole slot t1 = 0, 1
    draws = [rng.uniform(0.0, 1.0, size=(3, 1 + i % 2)) for i in range(fibers.samples)]
    for j, n in enumerate((2, 3)):
        d = np.array(draws[j::2]).reshape(-1, 3, n - 1)
        for t1 in (0.0, 1.0):
            wa, wb = (dm.Q_batch(n, np.column_stack([np.full(len(d), t1), d[:, s]]))
                      for s in (0, 1 + int(t1)))
            fibers.add_rows(dm.max_dev_batch(stars[n](wa), stars[n](wb)))

    boundary = out.open("star_boundary_conditions", cfg.count(1000), dm.EQ_TOL)
    spheres = [dm.random_sphere(1 + i % 3, rng) for i in range(boundary.samples)]
    for j, n in enumerate((1, 2, 3)):
        v = np.array(spheres[j::3]).reshape(-1, n)
        w = np.hstack([v, np.zeros((len(v), 1))])
        boundary.add_rows(np.abs(stars[n](w)[:, 1]))  # boundary -> x-axis
        w[:, -2] = -np.abs(w[:, -2])                  # lower half -> origin
        boundary.add_rows(dm.max_dev_batch(stars[n](w), np.zeros((len(w), 2))))

    e = np.array([0.7])
    lower_pts = [[d[0], -d[1], 0.0] for d in (dm.random_disk(1, rng) for _ in range(20))]
    g = glue_double(2, PairMapRep(2, lambda w: e + 0.1 * sf.lambda_fn_batch(3 * w[:, -1:])),
                    PairMapRep(2, lambda w: e + 0.2 * sf.lambda_fn_batch(3 * w[:, -1:])),
                    sample_points=lower_pts)
    seam = out.open("glue_double_seam", cfg.count(200), TOL_ALG)
    t_rest = rng.uniform(0.0, 1.0, size=seam.samples)
    w_half, w0 = (dm.Q_batch(2, np.column_stack([t_rest, np.full(seam.samples, u)]))
                  for u in (sf.lambda_fn(0.5), 0.0))
    seam.add_rows(dm.max_dev_batch(g(w_half), np.broadcast_to(e, (seam.samples, 1))))
    seam.add_rows(dm.max_dev_batch(g(w0), e + 0.1 * sf.lambda_fn_batch(3 * w0[:, -1:])))

    oracle = out.open("path_components_vs_oracle", cfg.count(100), 0.0,
                      "exact agreement with dense-sampling oracle")
    mismatches = 0
    for _ in range(oracle.samples):
        cx = _random_complex(rng, max_cells=20)
        got = path_components(cx)
        want = _components_oracle(cx)
        if got != want:
            mismatches += 1
    oracle.add(mismatches)

    # attaching the same edges in another order must not change the partition
    order = out.open("path_components_order_independent", cfg.count(50), 0.0)
    diffs = 0
    for _ in range(order.samples):
        n0 = int(rng.integers(1, 8))
        edges = [(int(rng.integers(n0)), int(rng.integers(n0)))
                 for _ in range(int(rng.integers(13)))]
        permuted = [edges[j] for j in rng.permutation(len(edges))]
        diffs += int(path_components(_edge_complex(n0, edges))
                     != path_components(_edge_complex(n0, permuted)))
    order.add(diffs)

    return out.records()


def _random_complex(rng, max_cells=20):
    """1 to 7 0-cells, then edges up to a drawn total of cells; each edge draws a, then b."""
    n0 = int(rng.integers(1, 8))
    total = int(rng.integers(n0, max_cells + 1))
    return _edge_complex(n0, [(int(rng.integers(n0)), int(rng.integers(n0)))
                              for _ in range(total - n0)])


def _components_oracle(cx):
    """Dense sampling of attaching images plus graph reachability; every
    base point is the one node -1, as path_components pools the base."""
    adj = {i: set() for i in range(-1, len(cx.cells))}
    for i, cell in enumerate(cx.cells):
        if cell.dim == 0 or cell.attach is None:
            continue
        if cell.dim == 1:
            samples = [np.array([1.0]), np.array([-1.0])]
        else:
            samples = [dm.random_sphere(cell.dim, np.random.default_rng(j))
                       for j in range(8)]
        for v in samples:
            j = cx.canonicalize(cell.attach(v)).cell
            adj[i].add(j)
            adj[j].add(i)
    seen, comps, zero = set(), [], set(cx.zero_cells())
    for i in adj:
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            j = stack.pop()
            if j in comp:
                continue
            comp.add(j)
            stack.extend(adj[j] - comp)
        seen |= comp
        comps.append(sorted(comp & zero))
    return sorted(c for c in comps if c)


def _edge(a, b):
    """Attaching map of a 1-cell running from 0-cell a (at +1) to b (at -1)."""
    return lambda v: ComplexPoint.in_cell(a if v[0] > 0 else b, np.array([1.0]))


def _edge_complex(n0, edges):
    """n0 0-cells, then one 1-cell from a to b per pair (a, b) of edges, in order."""
    cx = CellComplex()
    for _ in range(n0):
        cx = cx.attach(0)
    for a, b in edges:
        cx = cx.attach(1, _edge(a, b))
    return cx


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def suite_subdivision(cfg):
    out = _Tallies()
    rng = cfg.rng("subdivision")

    m = cfg.count(1000)
    agree = out.open("phi_branch_agreement", m, TOL_ALG)
    for n, k in _per_n(m, (1, 2, 3)):
        v = dm.random_disk_batch(n - 1, k, rng)
        t = rng.uniform(size=k)
        for s0, branches in ((1.0 / 3.0, sd.PHI_BRANCHES[:2]),
                             (2.0 / 3.0, sd.PHI_BRANCHES[1:])):
            c1, c2 = (sd.CylPoint(dm.q_batch(n - 1, v, sf.lambda_fn_batch(a)),
                                  sf.lambda_fn_batch(b))
                      for a, b in (br(s0, t) for br in branches))
            agree.add_rows(dm.max_dev_batch(_cyl_rows(c1), _cyl_rows(c2)))

    # slab j's branch lands in [0,1]^2 (target_region extends its regions
    # off it), in target region j up to 1e-9 of rounding across a wall
    s, t = rng.uniform(size=(m, 2)).T
    k = sd.phi_branch(s)
    bad = 0
    for j, branch in enumerate(sd.PHI_BRANCHES):
        a, b = branch(s[k == j], t[k == j])
        lo, hi = sd.target_walls(b)
        off_wall = np.minimum(np.abs(a - lo), np.abs(a - hi)) > 1e-9
        off_square = np.maximum(np.abs(a - 0.5), np.abs(b - 0.5)) > 0.5 + 1e-9
        bad += int(np.sum(off_square | ((sd.target_region(a, b) != j) & off_wall)))
    out.open("region_preservation", m, 0.0,
             "source slab tags survive into target region tags").add(bad)

    cnt = cfg.count(1000)
    misses = 0
    for n, k in _per_n(cnt, (1, 2, 3)):
        w = dm.q_batch(n, dm.random_disk_batch(n, k, rng), np.zeros(k))
        misses += int(np.sum(~sd.in_L(n, sd.psi_batch(n, w))))
    out.open("psi_boundary_into_L", cnt, 0.0).add(misses)

    n_rt = cfg.count(10000)
    forward = out.open("psi_roundtrip_forward", n_rt, TOL_RT)
    collapsed = 0
    genuine = 0
    for n, k in _per_n(n_rt, (0, 1, 2, 3)):
        w = dm.random_disk_batch(n + 1, k, rng)
        c = sd.psi_batch(n, w)
        w2 = sd.psi_inv_batch(n, c)
        d = dm.max_dev_batch(w2, w)
        # the wrinkle flattens bands of the chart onto the subdivision
        # walls; inside them distinct points have bit-identical images
        # and no inverse exists.  Certify: the forward images must agree.
        # A non-finite w2 has no image: its row stays a defect at inf.
        off = ~(d <= TOL_RT)
        cert = off & np.isfinite(w2).all(axis=1)
        forward.add_rows(d[~cert])
        img = dm.max_dev_batch(_cyl_rows(sd.psi_batch(n, w2[cert])), _cyl_rows(c)[cert])
        certified = int(np.sum(img <= 1e-11))
        collapsed += certified
        genuine += int(np.sum(off)) - certified
    forward.verdict = genuine == 0
    forward.note = (f"{collapsed} samples in certified wrinkle-collapse fibers "
                    f"(forward images bit-close), {genuine} genuine defects")

    backward = out.open("psi_roundtrip_backward", n_rt, TOL_RT)
    for n, k in _per_n(n_rt, (0, 1, 2, 3)):
        c = sd.CylPoint(dm.random_disk_batch(n, k, rng), rng.uniform(size=k))
        w = sd.psi_inv_batch(n, c)
        # psi rejects a non-finite row; its deviation is inf
        ok = np.isfinite(w).all(axis=1)
        d = np.full(k, math.inf)
        d[ok] = dm.max_dev_batch(_cyl_rows(sd.psi_batch(n, w[ok])), _cyl_rows(c)[ok])
        backward.add_rows(d)

    chart = out.open("psi0_inverts_chart", cfg.count(200), TOL_ALG)
    for _ in range(chart.samples):
        t = float(rng.uniform())
        w = np.array([math.cos(math.pi * t), math.sin(math.pi * t)])
        c = sd.psi(0, w)
        chart.add(max_dev(c, (1.0, t)))

    fixes = out.open("rho_fixes_outer_bands", cfg.count(300), TOL_RT)
    for i in range(fixes.samples):
        n = 1 + (i % 3)
        s = float(rng.uniform())
        s = s / 6.0 if i % 2 == 0 else 5.0 / 6.0 + s / 6.0
        w = sd.source_point(n, dm.random_disk(n - 1, rng), s, float(rng.uniform()))
        fixes.add(max_dev(sd.rho(n, w), w))

    witness = out.open("rho_not_idempotent_witness", 1, 1e-6,
                       "the wrinkle genuinely moves the middle bands")
    w = sd.source_point(2, dm.random_disk(1, rng), 0.25, 0.4)
    wit = max_dev(sd.rho(2, sd.rho(2, w)), sd.rho(2, w))
    witness.add(wit)
    witness.verdict = wit > 1e-6

    # the seam checks differentiate psi across phi's walls in chart
    # parameters (sd.seam_curve), where the raw chart's kink has full size
    curves = cfg.count(20)
    total, passed, failed_ctrl = 2 * curves, 0, 0
    for i in range(curves):
        n = 1 + (i % 3)
        v = dm.random_disk(n - 1, rng)
        t = float(rng.uniform(0.05, 0.95))
        for seam in (1.0 / 3.0, 2.0 / 3.0):
            passed += smoothness_check(sd.seam_curve(n, v, t), seam,
                                       MAX_FD_ORDER).passed
            failed_ctrl += smoothness_check(sd.seam_curve(n, v, t, False), seam,
                                            1).verdicts[1] == "fail"
    wrinkled = out.open("seam_smoothness_wrinkled", total, 0.0,
                        "orders 1..%d two-sided agreement across both walls" % MAX_FD_ORDER)
    wrinkled.add(total - passed)
    frac = failed_ctrl / total
    control = out.open("seam_control_fails_unwrinkled", total, 0.1,
                       "negative control: raw chart must break at the walls")
    control.add(1.0 - frac)
    control.verdict = frac >= 0.9

    return out.records()


# ---------------------------------------------------------------------------
# diffeology
# ---------------------------------------------------------------------------

_TORUS_BLOCK = 250  # torus pairs per array call of eq: bounds its (pairs, shifts) arrays


def suite_diffeology(cfg):
    out = _Tallies()
    rng = cfg.rng("diffeology")
    R = dg.euclidean(1)
    It = dg.quotient(R, lambda x: sf.lambda_fn(float(np.atleast_1d(x)[0])), name="I~",
                     lift=sf.lambda_inv)
    I = dg.subspace(R, lambda p: 0.0 <= float(np.atleast_1d(p)[0]) <= 1.0, name="I")
    sc = dg.SmoothCheckConfig(seed=cfg.seed)

    consts = [0.0, 0.3, sf.lambda_fn(0.8), 1.0]
    ok = all(dg.smooth_check(dg.MapEvaluator(R, It, (lambda c: lambda x: c)(c),
                                             f"const{c}"), sc).passed
             for c in consts)
    out.open("constant_plots_factor", len(consts), 0.0, "covering axiom shadow").add(
        float(not ok))

    polys = [lambda u: 0.3 * u ** 2 - 0.5, lambda u: math.sin(u),
             lambda u: u * 0.5 + 0.1]
    ok = all(dg.smooth_check(dg.MapEvaluator(
        R, It, (lambda p: lambda x: sf.lambda_fn(p(float(np.atleast_1d(x)[0]))))(p),
        "precomp"), sc).passed for p in polys)
    out.open("precomposition_closure", len(polys), 0.0).add(float(not ok))

    maps = [dg.MapEvaluator(R, R, lambda x: x, "id"),
            dg.MapEvaluator(R, It, lambda x: sf.lambda_fn(float(np.atleast_1d(x)[0])),
                            "lambda"),
            dg.MapEvaluator(It, I, lambda y: np.array([float(y)]), "incl")]
    bad = sum(0 if dg.smooth_check(f, sc).passed else 1 for f in maps)
    out.open("smooth_inclusions_pass", len(maps), 0.0,
             "identity, the quotient chart, and the interval inclusion").add(bad)

    rep = dg.smooth_check(dg.MapEvaluator(R, R, lambda x: np.abs(x), "abs"), sc)
    out.open("abs_control_fails", 1, 0.0, "negative control").add(float(rep.passed))

    R2 = dg.product(R, R)
    f = dg.MapEvaluator(R2, R, lambda xy: np.atleast_1d(xy[0])[0] ** 2
                        + 0.5 * np.atleast_1d(xy[1])[0], "poly2")
    g = dg.exponential_alpha(f)
    f2 = dg.exponential_alpha_inv(g, R2, R)
    m = cfg.count(1000)
    exact = all(
        f2.fn((np.array([a]), np.array([b]))) == f.fn((np.array([a]), np.array([b])))
        for a, b in rng.uniform(-3.0, 3.0, size=(m, 2)))
    out.open("exponential_roundtrip_exact", m, 0.0, "bitwise").add(float(not exact))

    okh, _ = dg.d_topology_open_sample(It, lambda y: 0.0 <= float(y) < 0.5,
                                       probes=[np.array([0.2])])
    out.open("open_halfopen_consistent", 1, 0.0).add(float(not okh))

    oks, wit = dg.d_topology_open_sample(
        R, lambda p: abs(float(np.atleast_1d(p)[0])) < 1e-15,
        probes=[np.array([0.0])])
    out.open("open_singleton_rejected", 1, 0.0, "negative control").add(float(oks))

    theta = math.sqrt(2.0)
    T = dg.irrational_torus(theta)
    m = cfg.count(1000)
    bad = 0
    for start in range(0, m, _TORUS_BLOCK):  # the pairs' draws in order, x then y
        x, y = rng.uniform(-2.0, 2.0, size=(min(_TORUS_BLOCK, m - start), 2)).T
        ok = T.eq(x, x) & T.eq(x, x + 1.0) & T.eq(x, x + theta) & (T.eq(x, y) == T.eq(y, x))
        bad += int(np.count_nonzero(~ok))
    distinct = T.eq(0.0, 0.5)
    torus = out.open("torus_eq_shift_invariance", m, 0.0,
                     "reflexive, symmetric, shift-invariant; 0 != 1/2")
    torus.add(bad)
    torus.verdict = bad == 0 and not distinct

    rep = dg.smooth_check(dg.MapEvaluator(
        R, T, lambda x: float(np.atleast_1d(x)[0]), "proj"), sc)
    out.open("torus_projection_smooth", 1, 0.0).add(float(not rep.passed))

    return out.records()


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def suite_lifting(cfg):
    out = _Tallies()
    rng = cfg.rng("lifting")

    p = product_fibration("R", "R")
    m = cfg.count(300)
    restriction = out.open("product_lift_restriction", m, TOL_RT)
    projection = out.open("product_lift_projection", m, TOL_RT)
    # square i has dimension i % 3 and its own coefficients; each is lifted
    # at three pairs (wd, w), drawn in turn as a loop over squares would
    draws = []
    for i in range(m):
        coef = rng.uniform(-1.0, 1.0, size=4)
        draws += [(i % 3, coef, dm.random_disk(i % 3, rng), dm.random_disk(i % 3 + 1, rng))
                  for _ in range(3)]
    for n in range(min(m, 3)):
        coef, wd, w = (np.array(col) for col in zip(*(d[1:] for d in draws if d[0] == n)))

        # the product lift is pointwise: row j of what it hands top and
        # bottom belongs to row j of its input, so row j's coefficients apply
        def bottom(w, n=n, coef=coef):
            t = dm.section_batch(n + 1, w)
            return coef[:, 0] + coef[:, 1] * t.sum(axis=1) + coef[:, 2] * t.prod(axis=1)

        def top(wd, n=n, coef=coef, bottom=bottom):
            return np.column_stack([bottom(np.column_stack([wd, np.zeros(len(wd))])),
                                    coef[:, 3] + (dm.section_batch(n, wd) ** 2).sum(axis=1)])

        H = p.lift_k_rows(n, top, bottom)
        restriction.add_rows(dm.max_dev_batch(H(np.column_stack([wd, np.zeros(len(wd))])),
                                              top(wd)))
        projection.add_rows(np.abs(H(w)[:, 0] - bottom(w)))

    idempotent = out.open("canonicalize_idempotent", cfg.count(200), 0.0)
    bad = 0
    for _ in range(idempotent.samples):
        cx = _random_complex(rng, max_cells=12)
        for _ in range(3):
            i = int(rng.integers(len(cx)))
            dim = cx.cells[i].dim
            w = dm.random_disk(dim, rng)
            if rng.uniform() < 0.5 and dim >= 1:
                w[-1] = 0.0
                w = w / np.linalg.norm(w)
            pt = ComplexPoint.in_cell(i, w)
            c1 = cx.canonicalize(pt)
            c2 = cx.canonicalize(c1)
            if not (c1[:2] == c2[:2] and max_dev(c1.point, c2.point) == 0.0):
                bad += 1
    idempotent.add(bad)

    inst, _ = bundled_chep_instance()
    equations, _ = check_chep_instance(inst, cfg, rng)
    out.open("chep_demo_equations", cfg.count(1000), TOL_LIFT,
             "H(x,0)=f, H|base=h, p(H)=k on the bundled instance").add(
        *(r["worst_dev"] for r in equations))

    rejected = False
    try:
        bad_inst, _ = bundled_chep_instance(k_offset=0.5)
        chep(bad_inst.fibration, bad_inst.complex, bad_inst.f, bad_inst.h,
             bad_inst.k, precheck=[(bad_inst.complex.sample_point(rng), 0.5)
                                   for _ in range(20)], tol=TOL_LIFT)
    except LiftError:
        rejected = True
    out.open("chep_rejects_incompatible", 1, 0.0, "negative control").add(float(not rejected))

    _chep_order_independence(cfg, out.open("chep_order_independence", cfg.count(200), TOL_RT,
                                           "independent cells permuted, outputs compared"))
    _chep_stationary(cfg, inst, out.open("chep_stationary_product", cfg.count(300), TOL_LIFT,
                                   "constant-in-time data lifts to the hand formula"))

    data = inst.rows()
    Hh = hep(inst.complex, inst.f, inst.h,
             precheck=[(ComplexPoint.base(0.0), 0.0)], tol=TOL_LIFT, rows=data)
    contract = out.open("hep_contract", cfg.count(400), TOL_LIFT,
                        "H(x,0)=f and H over the base = h")
    xs, ts = _draw(rng, contract.samples, inst.complex.sample_point)
    base = [0.0] * len(ts)
    contract.add_rows(dm.max_dev_batch(rows_at_points(Hh.rows, xs, np.zeros(len(ts))),
                                       rows_at_points(data.f, xs)))
    contract.add_rows(dm.max_dev_batch(Hh.rows(-1, base, ts), data.h(base, ts)))

    einst, _ = bundled_extend_instance()
    (projects, restricts), _ = check_extend_instance(einst, cfg, rng)
    demo = out.open("extend_lift_demo", cfg.count(500), TOL_LIFT,
                    "projection equation plus exact restriction to the base")
    demo.add(projects["worst_dev"])
    demo.verdict = projects["pass"] and restricts["pass"]

    cx0 = CellComplex(base="pt")
    l0 = extend_lift(einst.oracle, cx0, einst.f, einst.bottom)
    ok = max_dev(l0(ComplexPoint.base(0.0)), einst.f(0.0)) == 0.0
    out.open("extend_lift_no_cells", 1, 0.0).add(float(not ok))

    return out.records()


def _draw(rng, count, sample_point):
    """count pairs (sample_point(rng), uniform time), drawn in turn, as a list
    of points and an array of times."""
    pairs = [(sample_point(rng), float(rng.uniform())) for _ in range(count)]
    return [x for x, _ in pairs], np.array([t for _, t in pairs])


def _chep_order_independence(cfg, tally):
    rng = cfg.rng("lifting-order")
    lifts = []
    for swapped in (False, True):
        # four 0-cells and the edges 0-1 and 2-3; swapped attaches 2-3 first
        cx = _edge_complex(4, [(2, 3), (0, 1)] if swapped else [(0, 1), (2, 3)])
        # chain_position is the same on both edge orders
        position = chain_position(cx).rows

        def k_rows(cell, w, t, position=position):
            return 0.3 * np.sin(2.0 * position(cell, w)) + 0.2 * sf.lambda_fn_batch(t)

        def f_rows(cell, w, position=position, k_rows=k_rows):
            return np.column_stack([k_rows(cell, w, np.zeros(len(w))),
                                    np.cos(1.3 * position(cell, w))])

        lifts.append(chep(product_fibration("R", "R"), cx, None, None, None, tol=TOL_LIFT,
                          rows=ChepRows(f=f_rows, h=None, k=k_rows)))

    def edge_point(rng):
        ch, s = int(rng.integers(2)), float(rng.uniform())
        return ch, np.array([math.cos(math.pi * s), math.sin(math.pi * s)])

    pts, ts = _draw(rng, tally.samples, edge_point)
    # the edge of chain ch is cell 4 + ch, and cell 5 - ch when swapped
    tally.add_rows(dm.max_dev_batch(
        rows_at_points(lifts[0].rows, [ComplexPoint.in_cell(4 + ch, w) for ch, w in pts], ts),
        rows_at_points(lifts[1].rows, [ComplexPoint.in_cell(5 - ch, w) for ch, w in pts], ts)))


def _chep_stationary(cfg, inst, tally):
    rng = cfg.rng("lifting-stationary")
    fiber_c = 0.75
    data = inst.rows()

    def k_rows(cell, w, t):
        return data.k(cell, w, np.zeros(len(w)))

    def f_rows(cell, w):
        return np.column_stack([k_rows(cell, w, None), np.full(len(w), fiber_c)])

    H = chep(inst.fibration, inst.complex, None, None, None, tol=TOL_LIFT,
             rows=ChepRows(f=f_rows, h=lambda a, t: f_rows(-1, a), k=k_rows))
    xs, ts = _draw(rng, tally.samples, inst.complex.sample_point)
    tally.add_rows(dm.max_dev_batch(rows_at_points(H.rows, xs, ts),
                                    rows_at_points(f_rows, xs)))


# ---------------------------------------------------------------------------
# instance checks, shared by the lifting suite and ``difftop chep``
# ---------------------------------------------------------------------------

def check_chep_instance(inst, cfg, rng):
    """Lift a chep instance and sample its three equations.

    Draws 50 precheck pairs, builds H by ``chep`` (which raises
    LiftError on incompatible data), then samples cfg.count(1000) pairs
    (x, t) and evaluates them through H's array form, one call per cell.
    Returns the records ``difftop chep`` prints, of H(x, 0) = f(x), of H =
    h over the base (vacuous when the complex has no base) and of p(H(x,
    t)) = k(x, t), plus the sampled rows (x, t, H(x, t)) in draw order.
    """
    pre = [(inst.complex.sample_point(rng), float(rng.uniform())) for _ in range(50)]
    data = inst.rows()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k,
             precheck=pre, tol=TOL_LIFT, rows=data)
    has_base = inst.complex.base is not None
    cnt = cfg.count(1000)
    out = _Tallies()
    at_zero = out.open("H_at_time_zero_is_f", cnt, TOL_LIFT)
    over_base = out.open("H_over_base_is_h", cnt, TOL_LIFT,
                         "" if has_base else "vacuous: the complex has no base")
    projection = out.open("projection_of_H_is_k", cnt, TOL_LIFT)
    xs, ts = _draw(rng, cnt, inst.complex.sample_point)
    at_zero.add_rows(dm.max_dev_batch(rows_at_points(H.rows, xs, np.zeros(cnt)),
                                      rows_at_points(data.f, xs)))
    Hxt = rows_at_points(H.rows, xs, ts)
    projection.add_rows(np.abs(Hxt[:, 0] - rows_at_points(data.k, xs, ts)[:, 0]))
    if has_base:
        base = [0.0] * cnt
        over_base.add_rows(dm.max_dev_batch(H.rows(-1, base, ts), data.h(base, ts)))
    return out.records(), list(zip(xs, ts.tolist(), Hxt))


def check_extend_instance(inst, cfg, rng):
    """Lift an extend instance and sample its projection equation.

    Returns the records ``difftop chep`` prints: p(lift(x)) = bottom(x)
    over cfg.count(500) points from ``CellComplex.sample_point``, evaluated
    through the lift's array form, one call per cell, then whether the
    lift restricts exactly to f over the base, if any; plus the sampled
    rows (x, lift(x)) in draw order, lift(x) as a row of coordinates.
    """
    data = inst.rows()
    base = [ComplexPoint.base(0.0)] if inst.complex.base is not None else []
    lift = extend_lift(inst.oracle, inst.complex, inst.f, inst.bottom,
                       precheck=base, tol=TOL_LIFT, rows=data)
    out = _Tallies()
    projects = out.open("lift_projects_to_bottom", cfg.count(500), TOL_LIFT)
    xs = [inst.complex.sample_point(rng) for _ in range(projects.samples)]
    ys = rows_at_points(lift.rows, xs)
    projects.add_rows(np.abs(np.array([inst.oracle.project(y) for y in ys])
                             - rows_at_points(data.bottom, xs)[:, 0]))
    ok = all(max_dev(lift(a), inst.f(0.0)) == 0.0 for a in base)
    out.open("lift_restricts_to_f", 1, 0.0,
             "" if base else "vacuous: the complex has no base").add(float(not ok))
    return out.records(), list(zip(xs, ys))


SUITES = {
    "smoothfn": suite_smoothfn,
    "diskmodel": suite_diskmodel,
    "homotopy": suite_homotopy,
    "subdivision": suite_subdivision,
    "diffeology": suite_diffeology,
    "lifting": suite_lifting,
}


def suite_names():
    return list(SUITES) + ["all"]


def run_suite(name, cfg=None):
    """Run one suite (or "all"); returns the report dictionary."""
    cfg = cfg or RunConfig()
    if name == "all":
        props = []
        for key in SUITES:
            for rec in SUITES[key](cfg):
                rec["property"] = f"{key}.{rec['property']}"
                props.append(rec)
    elif name in SUITES:
        props = SUITES[name](cfg)
    else:
        raise KeyError(name)
    return make_report(name, cfg, props)
