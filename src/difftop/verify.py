"""Named verification suites with machine-readable, seed-reproducible results.

Each suite returns a list of property records

    {"property", "samples", "worst_dev", "tol", "pass", "note"}

sorted by property name.  Each record's ``tol`` is a pinned constant of
the ladder below.  All sampling is driven by the run seed, so two runs
with the same seed and samples produce byte-identical reports.  A
property over thousands of sampled disk or cylinder points draws one
array per dimension and evaluates it through the array entry points
(``*_batch``) of diskmodel, smoothfn and subdivision.  The
negative controls (the kink detector, the unwrinkled seam control, the
singleton open-set) are first-class properties: they pass exactly when
the checked machinery *rejects* what it must reject, guarding the
tolerances against being vacuously loose.
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
from .lifting import (LiftError, chep, extend_lift, hep, product_fibration)
from .instances import bundled_chep_instance, bundled_extend_instance, chain_position

__all__ = ["RunConfig", "SUITES", "run_suite", "suite_names",
           "worst", "check_chep_instance", "check_extend_instance"]

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


def _rec(name, samples, worst_dev, tol, ok, note=""):
    return {"property": name, "samples": int(samples),
            "worst_dev": float(worst_dev), "tol": float(tol),
            "pass": bool(ok), "note": note}


def _within(name, samples, dev, tol, note=""):
    """A deviation record: passes when dev is finite and at most tol."""
    return _rec(name, samples, dev, tol, math.isfinite(dev) and dev <= tol, note)


def _holds(name, samples, ok, note=""):
    """A yes/no record: worst_dev 0 when ok holds and 1 when it does not."""
    return _rec(name, samples, 0.0 if ok else 1.0, 0.0, ok, note)


def _report(name, config, props):
    """The report envelope shared by the suites and ``difftop chep``."""
    props = sorted(props, key=lambda r: r["property"])
    return {"suite": name, "config": config, "properties": props,
            "passed": all(r["pass"] for r in props)}


def worst(*devs):
    """The largest deviation, with every non-finite one counted as inf.

    Every worst-deviation accumulation goes through here: plain max()
    swallows NaN (max(0.0, nan) is 0.0), which would let a property whose
    evaluation produced NaN pass.  inf fails every tolerance.
    """
    return max(d if math.isfinite(d) else math.inf for d in devs)


def _worst_rows(devs):
    """worst() over an array of deviations, 0.0 when the array is empty."""
    devs = np.asarray(devs, dtype=float)
    return float(np.max(np.where(np.isfinite(devs), devs, math.inf), initial=0.0))


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
    out = []
    n = cfg.count(10000)

    ts = np.linspace(-1.0, 2.0, n)
    dev = worst(*(abs(sf.lambda_fn(t) + sf.lambda_fn(1.0 - t) - 1.0) for t in ts))
    out.append(_within("lambda_symmetry_grid", n, dev, TOL_ALG))

    lows = np.linspace(-3.0, 0.0, 200)
    highs = np.linspace(1.0, 4.0, 200)
    dev = worst(*(abs(sf.lambda_fn(t)) for t in lows),
                *(abs(sf.lambda_fn(t) - 1.0) for t in highs))
    out.append(_within("lambda_plateaus_exact", 400, dev, 0.0,
                       "identically 0 below 0 and 1 above 1"))

    orders = range(1, MAX_FD_ORDER + 1)
    expected = {k: 0.0 for k in orders}
    dev = 0.0
    for pt in (0.0, 1.0):
        rep = smoothness_check(sf.lambda_fn, pt, MAX_FD_ORDER, expected=expected)
        dev = worst(dev, *(abs(rep.fd_estimates.get(k, math.nan)) for k in orders))
    out.append(_within("lambda_flat_at_ends_fd", 2 * MAX_FD_ORDER, dev, FD_TOL))

    rep = smoothness_check(abs, 0.0, 1)
    dev = rep.deviations.get(1, 0.0)
    out.append(_rec("abs_kink_detected", 1, dev, FD_TOL,
                    rep.verdicts.get(1) == "fail",
                    "negative control: the checker must reject the kink"))

    grid = np.linspace(0.0, 1.0 / 6.0, 200)
    dev = worst(*(abs(sf.xi(s) - s) for s in grid))
    grid = np.linspace(5.0 / 6.0, 1.0, 200)
    dev = worst(dev, *(abs(sf.xi(s) - s) for s in grid))
    out.append(_within("xi_identity_plateaus_exact", 400, dev, 0.0))

    m = cfg.count(1000)
    grid = np.linspace(1.0 / 3.0, 2.0 / 3.0, m)
    dev = worst(*(abs(sf.xi(s) - (sf.lambda_fn(3.0 * s - 1.0) / 3.0 + 1.0 / 3.0))
                  for s in grid))
    out.append(_within("xi_middle_branch", m, dev, TOL_ALG))

    grid = np.linspace(0.0, 1.0, n)
    vals = [sf.xi(s) for s in grid]
    dev = worst(0.0, *(vals[i] - vals[i + 1] for i in range(len(vals) - 1)))
    out.append(_within("xi_monotone_grid", n, dev, TOL_ALG))

    dev = worst(*(abs(sf.xi(w) - w) for w in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)))
    out.append(_within("xi_fixes_subdivision_walls", 4, dev, TOL_ALG))

    grid = np.linspace(0.0, 1.0, m)
    dev = worst(*(abs(sf.xi(s) + sf.xi(1.0 - s) - 1.0) for s in grid))
    out.append(_within("xi_reflection", m, dev, TOL_ALG))

    dev = worst(*(abs(sf.xi(sf.xi_inv(y)) - y) for y in grid))
    out.append(_within("xi_inv_roundtrip", m, dev, TOL_RT))

    dev = 0.0
    for pt in (1.0 / 3.0, 2.0 / 3.0):
        rep = smoothness_check(sf.xi, pt, MAX_FD_ORDER, expected=expected)
        dev = worst(dev, *(abs(rep.fd_estimates.get(k, math.nan)) for k in orders))
    out.append(_within("xi_flat_at_walls_fd", 2 * MAX_FD_ORDER, dev, FD_TOL))

    return out


# ---------------------------------------------------------------------------
# diskmodel
# ---------------------------------------------------------------------------

def suite_diskmodel(cfg):
    out = []
    rng = cfg.rng("diskmodel")

    n_samp = cfg.count(10000)
    dev = 0.0
    for n, k in _per_n(n_samp, (1, 2, 3)):
        # gen_plot, the lambda chart: its saturation collar reaches the poles
        w = dm.Q_batch(n, sf.lambda_fn_batch(rng.uniform(-1.5, 2.5, size=(k, n))))
        dev = worst(dev, _worst_rows(dm.max_dev_batch(dm.Q_batch(n, dm.section_batch(n, w)),
                                                      w)))
    out.append(_within("q_section_roundtrip", n_samp, dev, TOL_DISK))

    m = cfg.count(1000)
    dev0 = dev1 = devn = 0.0
    for n, k in _per_n(m, (0, 1, 2)):
        v = dm.random_disk_batch(n, k, rng)
        w0 = dm.q_batch(n, v, np.zeros(k))
        dev0 = worst(dev0, _worst_rows(dm.max_dev_batch(w0, np.column_stack([v, np.zeros(k)]))))
        w1 = dm.q_batch(n, v, np.ones(k))
        dev1 = worst(dev1, _worst_rows(np.abs(w1[:, -1])),
                     _worst_rows(np.abs(w1[:, -2] + v[:, -1])))
        w = dm.Q_batch(n + 1, sf.lambda_fn_batch(rng.uniform(-1.5, 2.5, size=(k, n + 1))))
        devn = worst(devn, _worst_rows(np.abs(np.linalg.norm(w, axis=1) - 1.0)))
    out.append(_within("q_base_inclusion_exact", m, dev0, 0.0))
    out.append(_within("q_top_reflects", m, dev1, TOL_ALG))
    out.append(_within("unit_norm_outputs", m, devn, TOL_ALG))

    dev = 0.0
    for i in range(m):
        n = i % 4
        w = dm.random_disk(n, rng)
        dev = worst(dev, max_dev(dm.retract(n, dm.include_k(n, w)), w))
    out.append(_within("retract_include_identity", m, dev, TOL_DISK))

    dev = 0.0
    for i in range(cfg.count(300)):
        n = i % 3
        w = dm.random_disk(n + 1, rng)
        end = dm.include_k(n, dm.retract(n, w))
        dev = worst(dev, max_dev((dm.retract_homotopy(n, w, 0.0),
                                  dm.retract_homotopy(n, w, 1.0)), (w, end)))
    out.append(_within("retract_homotopy_ends", cfg.count(300), dev, TOL_DISK))

    return out


# ---------------------------------------------------------------------------
# homotopy
# ---------------------------------------------------------------------------

def _triple_rep(n):
    """A representative of a map of triples into (R^2, x-axis, origin).

    The last coordinate is 0 on the whole boundary sphere; both
    coordinates vanish on the lower boundary half-disk.
    """
    def fn(w):
        a = sf.lambda_fn(3.0 * w[-2]) * (w[-2] + 1.0)
        return np.array([a, w[-1]])

    return PairMapRep(n, fn, basepoint=np.zeros(2))


def suite_homotopy(cfg):
    out = []
    rng = cfg.rng("homotopy")
    m = cfg.count(1000)

    F = Homotopy(lambda x, t: np.array([x[0] * (1.0 - t), math.sin(t)]))
    G = Homotopy(lambda x, t: np.array([x[0] * 0.0, math.sin(1.0) + t * t]))
    H = concat(F, G, sample_points=[np.array([v]) for v in np.linspace(-2, 2, 9)])
    xs = [np.array([v]) for v in rng.uniform(-2.0, 2.0, size=m)]
    dev = worst(*(max_dev(F.fn(x, sf.lambda_fn(1.5)), G.fn(x, sf.lambda_fn(-0.5)))
                  for x in xs))
    out.append(_within("concat_seam", m, dev, TOL_ALG))

    dev = worst(*(max_dev((H.fn(x, 0.0), H.fn(x, 1.0)), (F.fn(x, 0.0), G.fn(x, 1.0)))
                  for x in xs))
    out.append(_within("concat_endpoints_exact", m, dev, 0.0))

    dev = worst(*(max_dev((H.fn(x, 1.0 / 3.0), H.fn(x, 0.6)), (F.fn(x, 1.0), G.fn(x, 0.0)))
                  for x in xs))
    out.append(_within("concat_plateau", m, dev, TOL_ALG))

    # formula-level well-definedness over pole fibers: evaluate the star
    # composite through two distinct cube preimages of the same point
    dev = 0.0
    cnt = cfg.count(300)
    for i in range(cnt):
        n = 2 + (i % 2)
        phi = _triple_rep(n)
        psi_r = _triple_rep(n)
        t_rest = rng.uniform(0.0, 1.0, size=n - 1)
        for t1 in (0.0, 1.0):  # pole slots: the remaining slots are fiber
            t_alt = rng.uniform(0.0, 1.0, size=n - 1)
            wa = dm.Q(n, np.concatenate([[t1], t_rest]))
            wb = dm.Q(n, np.concatenate([[t1], t_alt]))
            sa = star(n, phi, psi_r)
            dev = worst(dev, max_dev(sa.fn(wa), sa.fn(wb)))
    out.append(_within("star_quotient_fibers", cnt, dev, dm.EQ_TOL))

    dev = 0.0
    cnt = cfg.count(1000)
    for i in range(cnt):
        n = 1 + (i % 3)
        st = star(n, _triple_rep(n), _triple_rep(n))
        v = dm.random_sphere(n, rng)
        val = st.fn(np.concatenate([v, [0.0]]))
        dev = worst(dev, abs(val[1]))                     # boundary -> x-axis
        lower = v.copy()
        lower[-1] = -abs(lower[-1])
        val = st.fn(np.concatenate([lower, [0.0]]))
        dev = worst(dev, max_dev(val, st.basepoint))     # lower half -> origin
    out.append(_within("star_boundary_conditions", cnt, dev, dm.EQ_TOL))

    e = np.array([0.7])
    lower_pts = []
    for _ in range(20):
        d = dm.random_disk(1, rng)
        lower_pts.append(np.array([d[0], -d[1], 0.0]))
    g = glue_double(2, PairMapRep(2, lambda w: e + 0.1 * sf.lambda_fn(3 * w[-1])),
                    PairMapRep(2, lambda w: e + 0.2 * sf.lambda_fn(3 * w[-1])),
                    sample_points=lower_pts)
    dev = 0.0
    for _ in range(cfg.count(200)):
        t_rest = rng.uniform(0.0, 1.0, size=1)
        w_half = dm.Q(2, np.concatenate([t_rest, [sf.lambda_fn(0.5)]]))
        dev = worst(dev, max_dev(g(w_half), e))
        w0 = dm.Q(2, np.concatenate([t_rest, [0.0]]))
        dev = worst(dev, max_dev(g(w0), e + 0.1 * sf.lambda_fn(3 * w0[-1])))
    out.append(_within("glue_double_seam", cfg.count(200), dev, TOL_ALG))

    mismatches = 0
    trials = cfg.count(100)
    for _ in range(trials):
        cx, _ = _random_complex(rng, max_cells=20)
        got = path_components(cx)
        want = _components_oracle(cx)
        if got != want:
            mismatches += 1
    out.append(_within("path_components_vs_oracle", trials, mismatches, 0.0,
                       "exact agreement with dense-sampling oracle"))

    # permuting independent chains must not change the partition shape
    diffs = 0
    for _ in range(cfg.count(50)):
        sizes1 = sorted(len(g) for g in path_components(_pair_complex(False)))
        sizes2 = sorted(len(g) for g in path_components(_pair_complex(True)))
        if sizes1 != sizes2:
            diffs += 1
    out.append(_within("path_components_order_independent", cfg.count(50), diffs, 0.0))

    return out


def _random_complex(rng, max_cells=20):
    cx = CellComplex()
    n0 = int(rng.integers(1, 8))
    for _ in range(n0):
        cx = cx.attach(0)
    edges = []
    total = int(rng.integers(n0, max_cells + 1))
    while len(cx) < total:
        a, b = int(rng.integers(n0)), int(rng.integers(n0))
        cx = cx.attach(1, _edge(a, b))
        edges.append((a, b))
    return cx, edges


def _components_oracle(cx):
    """Dense sampling of attaching images plus graph reachability."""
    nodes = list(range(len(cx.cells)))
    adj = {i: set() for i in nodes}
    for i, cell in enumerate(cx.cells):
        if cell.dim == 0 or cell.attach is None:
            continue
        if cell.dim == 1:
            samples = [np.array([1.0]), np.array([-1.0])]
        else:
            samples = [dm.random_sphere(cell.dim, np.random.default_rng(j))
                       for j in range(8)]
        for v in samples:
            pt = cx.canonicalize(cell.attach(v))
            if pt.kind == "cell":
                adj[i].add(pt.cell)
                adj[pt.cell].add(i)
    seen, comps = set(), []
    for i in nodes:
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
        comps.append(sorted(c for c in comp if cx.cells[c].dim == 0))
    return sorted(c for c in comps if c)


def _edge(a, b):
    """Attaching map of a 1-cell running from 0-cell a (at +1) to b (at -1)."""
    return lambda v: ComplexPoint.in_cell(a if v[0] > 0 else b, np.array([1.0]))


def _pair_complex(swapped):
    """Four 0-cells and the edges 0-1 and 2-3; swapped attaches 2-3 first."""
    cx = CellComplex()
    for _ in range(4):
        cx = cx.attach(0)
    for a, b in [(2, 3), (0, 1)] if swapped else [(0, 1), (2, 3)]:
        cx = cx.attach(1, _edge(a, b))
    return cx


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def suite_subdivision(cfg):
    out = []
    rng = cfg.rng("subdivision")

    m = cfg.count(1000)
    dev = 0.0
    for n, k in _per_n(m, (1, 2, 3)):
        v = dm.random_disk_batch(n - 1, k, rng)
        t = rng.uniform(size=k)
        for s0, branches in ((1.0 / 3.0, sd.PHI_BRANCHES[:2]),
                             (2.0 / 3.0, sd.PHI_BRANCHES[1:])):
            c1, c2 = (sd.CylPoint(dm.q_batch(n - 1, v, sf.lambda_fn_batch(a)),
                                  sf.lambda_fn_batch(b))
                      for a, b in (br(s0, t) for br in branches))
            dev = worst(dev, _worst_rows(dm.max_dev_batch(_cyl_rows(c1), _cyl_rows(c2))))
    out.append(_within("phi_branch_agreement", m, dev, TOL_ALG))

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
    out.append(_within("region_preservation", m, bad, 0.0,
                       "source slab tags survive into target region tags"))

    cnt = cfg.count(1000)
    misses = 0
    for n, k in _per_n(cnt, (1, 2, 3)):
        w = dm.q_batch(n, dm.random_disk_batch(n, k, rng), np.zeros(k))
        misses += int(np.sum(~sd.in_L(n, sd.psi_batch(n, w))))
    out.append(_within("psi_boundary_into_L", cnt, misses, 0.0))

    n_rt = cfg.count(10000)
    dev = 0.0
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
        dev = worst(dev, _worst_rows(d[~cert]))
        img = dm.max_dev_batch(_cyl_rows(sd.psi_batch(n, w2[cert])), _cyl_rows(c)[cert])
        certified = int(np.sum(img <= 1e-11))
        collapsed += certified
        genuine += int(np.sum(off)) - certified
    out.append(_rec("psi_roundtrip_forward", n_rt, dev, TOL_RT, genuine == 0,
                    f"{collapsed} samples in certified wrinkle-collapse fibers "
                    f"(forward images bit-close), {genuine} genuine defects"))

    dev = 0.0
    for n, k in _per_n(n_rt, (0, 1, 2, 3)):
        c = sd.CylPoint(dm.random_disk_batch(n, k, rng), rng.uniform(size=k))
        w = sd.psi_inv_batch(n, c)
        # psi rejects a non-finite row; its deviation is inf
        ok = np.isfinite(w).all(axis=1)
        d = np.full(k, math.inf)
        d[ok] = dm.max_dev_batch(_cyl_rows(sd.psi_batch(n, w[ok])), _cyl_rows(c)[ok])
        dev = worst(dev, _worst_rows(d))
    out.append(_within("psi_roundtrip_backward", n_rt, dev, TOL_RT))

    dev = 0.0
    for _ in range(cfg.count(200)):
        t = float(rng.uniform())
        w = np.array([math.cos(math.pi * t), math.sin(math.pi * t)])
        c = sd.psi(0, w)
        dev = worst(dev, max_dev(c, (1.0, t)))
    out.append(_within("psi0_inverts_chart", cfg.count(200), dev, TOL_ALG))

    dev = 0.0
    cnt = cfg.count(300)
    for i in range(cnt):
        n = 1 + (i % 3)
        s = float(rng.uniform())
        s = s / 6.0 if i % 2 == 0 else 5.0 / 6.0 + s / 6.0
        w = sd.source_point(n, dm.random_disk(n - 1, rng), s, float(rng.uniform()))
        dev = worst(dev, max_dev(sd.rho(n, w), w))
    out.append(_within("rho_fixes_outer_bands", cnt, dev, TOL_RT))

    w = sd.source_point(2, dm.random_disk(1, rng), 0.25, 0.4)
    wit = max_dev(sd.rho(2, sd.rho(2, w)), sd.rho(2, w))
    out.append(_rec("rho_not_idempotent_witness", 1, wit, 1e-6, wit > 1e-6,
                    "the wrinkle genuinely moves the middle bands"))

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
    out.append(_within("seam_smoothness_wrinkled", total, total - passed, 0.0,
                       "orders 1..%d two-sided agreement across both walls" % MAX_FD_ORDER))
    frac = failed_ctrl / total
    out.append(_rec("seam_control_fails_unwrinkled", total, 1.0 - frac, 0.1,
                    frac >= 0.9,
                    "negative control: raw chart must break at the walls"))

    return out


# ---------------------------------------------------------------------------
# diffeology
# ---------------------------------------------------------------------------

def _line_spaces():
    R = dg.euclidean(1)
    It = dg.quotient(R, lambda x: sf.lambda_fn(float(np.atleast_1d(x)[0])), name="I~",
                     lift=sf.lambda_inv)
    I = dg.subspace(R, lambda p: 0.0 <= float(np.atleast_1d(p)[0]) <= 1.0, name="I")
    return R, It, I


def suite_diffeology(cfg):
    out = []
    rng = cfg.rng("diffeology")
    R, It, I = _line_spaces()
    sc = dg.SmoothCheckConfig(seed=cfg.seed)

    consts = [0.0, 0.3, sf.lambda_fn(0.8), 1.0]
    ok = all(dg.smooth_check(dg.MapEvaluator(R, It, (lambda c: lambda x: c)(c),
                                             f"const{c}"), sc).passed
             for c in consts)
    out.append(_holds("constant_plots_factor", len(consts), ok, "covering axiom shadow"))

    polys = [lambda u: 0.3 * u ** 2 - 0.5, lambda u: math.sin(u),
             lambda u: u * 0.5 + 0.1]
    ok = all(dg.smooth_check(dg.MapEvaluator(
        R, It, (lambda p: lambda x: sf.lambda_fn(p(float(np.atleast_1d(x)[0]))))(p),
        "precomp"), sc).passed for p in polys)
    out.append(_holds("precomposition_closure", len(polys), ok))

    maps = [dg.MapEvaluator(R, R, lambda x: x, "id"),
            dg.MapEvaluator(R, It, lambda x: sf.lambda_fn(float(np.atleast_1d(x)[0])),
                            "lambda"),
            dg.MapEvaluator(It, I, lambda y: np.array([float(y)]), "incl")]
    bad = sum(0 if dg.smooth_check(f, sc).passed else 1 for f in maps)
    out.append(_within("smooth_inclusions_pass", len(maps), bad, 0.0,
                       "identity, the quotient chart, and the interval inclusion"))

    rep = dg.smooth_check(dg.MapEvaluator(R, R, lambda x: np.abs(x), "abs"), sc)
    out.append(_holds("abs_control_fails", 1, not rep.passed, "negative control"))

    R2 = dg.product(R, R)
    f = dg.MapEvaluator(R2, R, lambda xy: np.atleast_1d(xy[0])[0] ** 2
                        + 0.5 * np.atleast_1d(xy[1])[0], "poly2")
    g = dg.exponential_alpha(f)
    f2 = dg.exponential_alpha_inv(g, R2, R)
    m = cfg.count(1000)
    exact = all(
        f2.fn((np.array([a]), np.array([b]))) == f.fn((np.array([a]), np.array([b])))
        for a, b in rng.uniform(-3.0, 3.0, size=(m, 2)))
    out.append(_holds("exponential_roundtrip_exact", m, exact, "bitwise"))

    okh, _ = dg.d_topology_open_sample(It, lambda y: 0.0 <= float(y) < 0.5,
                                       probes=[np.array([0.2])])
    out.append(_holds("open_halfopen_consistent", 1, okh))

    oks, wit = dg.d_topology_open_sample(
        R, lambda p: abs(float(np.atleast_1d(p)[0])) < 1e-15,
        probes=[np.array([0.0])])
    out.append(_holds("open_singleton_rejected", 1, not oks, "negative control"))

    theta = math.sqrt(2.0)
    T = dg.irrational_torus(theta)
    m = cfg.count(1000)
    bad = 0
    for _ in range(m):
        x = float(rng.uniform(-2.0, 2.0))
        y = float(rng.uniform(-2.0, 2.0))
        if not (T.eq(x, x) and T.eq(x, x + 1.0) and T.eq(x, x + theta)
                and T.eq(x, y) == T.eq(y, x)):
            bad += 1
    distinct = T.eq(0.0, 0.5)
    out.append(_rec("torus_eq_shift_invariance", m, bad, 0.0,
                    bad == 0 and not distinct,
                    "reflexive, symmetric, shift-invariant; 0 != 1/2"))

    rep = dg.smooth_check(dg.MapEvaluator(
        R, T, lambda x: float(np.atleast_1d(x)[0]), "proj"), sc)
    out.append(_holds("torus_projection_smooth", 1, rep.passed))

    return out


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def suite_lifting(cfg):
    out = []
    rng = cfg.rng("lifting")

    p = product_fibration("R", "R")
    m = cfg.count(300)
    dev_top = dev_proj = 0.0
    for i in range(m):
        n = i % 3
        coef = rng.uniform(-1.0, 1.0, size=4)

        def bottom(w, coef=coef, n=n):
            t = dm.section(n + 1, w)
            return coef[0] + coef[1] * float(np.sum(t)) + coef[2] * float(np.prod(t))

        def top(wd, coef=coef, n=n):
            t = dm.section(n, wd)
            return (bottom(dm.include_k(n, wd)),
                    coef[3] + float(np.sum(np.asarray(t) ** 2)))

        H = p.lift_k(n, top, bottom)
        for _ in range(3):
            wd = dm.random_disk(n, rng)
            got, want = H(dm.include_k(n, wd)), top(wd)
            dev_top = worst(dev_top, max_dev(got, want))
            w = dm.random_disk(n + 1, rng)
            dev_proj = worst(dev_proj, abs(p.project(H(w)) - bottom(w)))
    out.append(_within("product_lift_restriction", m, dev_top, TOL_RT))
    out.append(_within("product_lift_projection", m, dev_proj, TOL_RT))

    cnt = cfg.count(200)
    bad = 0
    for _ in range(cnt):
        cx, _ = _random_complex(rng, max_cells=12)
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
    out.append(_within("canonicalize_idempotent", cnt, bad, 0.0))

    inst, _ = bundled_chep_instance()
    devs, _ = check_chep_instance(inst, cfg, rng)
    dev = worst(*devs)
    out.append(_within("chep_demo_equations", cfg.count(1000), dev, TOL_LIFT,
                       "H(x,0)=f, H|base=h, p(H)=k on the bundled instance"))

    rejected = False
    try:
        bad_inst, _ = bundled_chep_instance(k_offset=0.5)
        chep(bad_inst.fibration, bad_inst.complex, bad_inst.f, bad_inst.h,
             bad_inst.k, precheck=[(bad_inst.complex.sample_point(rng), 0.5)
                                   for _ in range(20)], tol=TOL_LIFT)
    except LiftError:
        rejected = True
    out.append(_holds("chep_rejects_incompatible", 1, rejected, "negative control"))

    dev = _chep_order_independence(cfg)
    out.append(_within("chep_order_independence", cfg.count(200), dev, TOL_RT,
                       "independent cells permuted, outputs compared"))

    dev = _chep_stationary(cfg)
    out.append(_within("chep_stationary_product", cfg.count(300), dev, TOL_LIFT,
                       "constant-in-time data lifts to the hand formula"))

    Hh = hep(inst.complex, inst.f, inst.h,
             precheck=[(ComplexPoint.base(0.0), 0.0)], tol=TOL_LIFT)
    dev = 0.0
    for _ in range(cfg.count(400)):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        dev = worst(dev, max_dev(Hh(x, 0.0), inst.f(x)),
                    max_dev(Hh(ComplexPoint.base(0.0), t), inst.h(0.0, t)))
    out.append(_within("hep_contract", cfg.count(400), dev, TOL_LIFT,
                       "H(x,0)=f and H over the base = h"))

    einst, _ = bundled_extend_instance()
    dev, restr = check_extend_instance(einst, cfg, rng)
    out.append(_rec("extend_lift_demo", cfg.count(500), dev, TOL_LIFT,
                    dev <= TOL_LIFT and restr,
                    "projection equation plus exact restriction to the base"))

    cx0 = CellComplex(base="pt")
    l0 = extend_lift(einst.oracle, cx0, einst.f, einst.bottom)
    ok = max_dev(l0(ComplexPoint.base(0.0)), einst.f(0.0)) == 0.0
    out.append(_holds("extend_lift_no_cells", 1, ok))

    return out


def _chep_order_independence(cfg):
    rng = cfg.rng("lifting-order")
    lifts = []
    for swapped in (False, True):
        cx = _pair_complex(swapped)
        # chain_position is the same on both edge orders
        position = chain_position(cx)

        def k(x, t, position=position):
            return 0.3 * math.sin(2.0 * position(x)) + 0.2 * sf.lambda_fn(t)

        def f(x, position=position, k=k):
            return (k(x, 0.0), math.cos(1.3 * position(x)))

        lifts.append(chep(product_fibration("R", "R"), cx, f, None, k, tol=TOL_LIFT))

    dev = 0.0
    for _ in range(cfg.count(200)):
        ch = int(rng.integers(2))
        s = float(rng.uniform())
        t = float(rng.uniform())
        w = np.array([math.cos(math.pi * s), math.sin(math.pi * s)])
        # the edge of chain ch is cell 4 + ch, and cell 5 - ch when swapped
        dev = worst(dev, max_dev(lifts[0](ComplexPoint.in_cell(4 + ch, w), t),
                                 lifts[1](ComplexPoint.in_cell(5 - ch, w), t)))
    return dev


def _chep_stationary(cfg):
    rng = cfg.rng("lifting-stationary")
    inst, _ = bundled_chep_instance()
    cx = inst.complex
    fiber_c = 0.75

    def k(x, t):
        return inst.k(x, 0.0)

    def f(x):
        return (k(x, 0.0), fiber_c)

    def h(a, t):
        return (k(ComplexPoint.base(a), 0.0), fiber_c)

    H = chep(inst.fibration, cx, f, h, k, tol=TOL_LIFT)
    dev = 0.0
    for _ in range(cfg.count(300)):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        dev = worst(dev, max_dev(H(x, t), (k(x, t), fiber_c)))
    return dev


# ---------------------------------------------------------------------------
# instance checks, shared by the lifting suite and ``difftop chep``
# ---------------------------------------------------------------------------

def check_chep_instance(inst, cfg, rng):
    """Lift a chep instance and sample its three equations.

    Draws 50 precheck pairs, builds H by ``chep`` (which raises
    LiftError on incompatible data), then samples cfg.count(1000) pairs
    (x, t).  Returns the worst deviations of H(x, 0) = f(x), of H = h
    over the base (0 when the complex has no base) and of
    p(H(x, t)) = k(x, t), plus the sampled rows (x, t, H(x, t)).
    """
    pre = [(inst.complex.sample_point(rng), float(rng.uniform())) for _ in range(50)]
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k,
             precheck=pre, tol=TOL_LIFT)
    has_base = inst.complex.base is not None
    dev_f = dev_h = dev_p = 0.0
    rows = []
    for _ in range(cfg.count(1000)):
        x = inst.complex.sample_point(rng)
        t = float(rng.uniform())
        dev_f = worst(dev_f, max_dev(H(x, 0.0), inst.f(x)))
        Hxt = H(x, t)
        dev_p = worst(dev_p, abs(Hxt[0] - inst.k(x, t)))
        if has_base:
            dev_h = worst(dev_h, max_dev(H(ComplexPoint.base(0.0), t), inst.h(0.0, t)))
        rows.append((x, t, Hxt))
    return (dev_f, dev_h, dev_p), rows


def check_extend_instance(inst, cfg, rng):
    """Lift an extend instance and sample its projection equation.

    Returns the worst deviation of p(lift(x)) = bottom(x) over
    cfg.count(500) points from ``CellComplex.sample_point``, and whether the
    lift restricts exactly to f over the base.
    """
    lift = extend_lift(inst.oracle, inst.complex, inst.f, inst.bottom,
                       precheck=[ComplexPoint.base(0.0)], tol=TOL_LIFT)
    dev = 0.0
    for _ in range(cfg.count(500)):
        x = inst.complex.sample_point(rng)
        dev = worst(dev, abs(inst.oracle.project(lift(x)) - inst.bottom(x)))
    return dev, max_dev(lift(ComplexPoint.base(0.0)), inst.f(0.0)) == 0.0


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
                rec = dict(rec)
                rec["property"] = f"{key}.{rec['property']}"
                props.append(rec)
    elif name in SUITES:
        props = SUITES[name](cfg)
    else:
        raise KeyError(name)
    return _report(name, asdict(cfg), props)
