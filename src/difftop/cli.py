"""Batch front door: run verification suites, evaluate maps, lift demos.

Exit codes: 0 all checks passed, 1 a property failed, 2 usage error,
3 instance precondition violated.  Reports are JSON (sorted keys, fixed
field set, no timestamps), so identical seed and configuration give
byte-identical output; the text rendering is derived from the same
records.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import smoothfn as sf
from . import diskmodel as dm
from . import subdivision as sd
from .cellcomplex import ComplexPoint
from .lifting import LiftError, chep, extend_lift
from .instances import bundled_chep_instance, load_instance_file
from .verify import RunConfig, run_suite, suite_names, worst

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE, _EXIT_INSTANCE = 0, 1, 2, 3


def _config_from(args):
    return RunConfig(
        tol_alg=args.tol_alg, tol_rt=args.tol_rt, tol_fd=args.tol_fd,
        tol_lift=args.tol_lift, samples=args.samples, fd_order=args.fd_order,
        seed=args.seed, disable_wrinkle=getattr(args, "disable_wrinkle", False),
    )


def _emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(report, stream, sort_keys=True, indent=2)
        stream.write("\n")
        return
    stream.write(f"suite: {report['suite']}\n")
    for r in report["properties"]:
        flag = "pass" if r["pass"] else "FAIL"
        stream.write(f"  [{flag}] {r['property']}: worst_dev={r['worst_dev']:.6g} "
                     f"tol={r['tol']:.6g} samples={r['samples']}\n")
        if r["note"]:
            stream.write(f"         {r['note']}\n")
    stream.write("result: " + ("pass" if report["passed"] else "FAIL") + "\n")


def cmd_verify(args):
    cfg = _config_from(args)
    report = run_suite(args.suite, cfg)
    _emit(report, args.report)
    return _EXIT_PASS if report["passed"] else _EXIT_FAIL


_SCALAR_MAPS = {
    "gamma": sf.gamma, "lambda": sf.lambda_fn, "lambda_inv": sf.lambda_inv,
    "xi": sf.xi, "xi_inv": sf.xi_inv,
}


def _fmt_vec(values):
    return " ".join("%.17g" % float(v) for v in np.atleast_1d(values))


def _print_point(w, as_json):
    if as_json:
        print(json.dumps(dm.point_to_json(w), sort_keys=True))
    else:
        print(_fmt_vec(w))


def cmd_eval(args):
    name, params = args.map, [float(a) for a in args.args]
    try:
        if name in _SCALAR_MAPS:
            if len(params) != 1:
                raise ValueError(f"{name} takes one argument")
            print("%.17g" % _SCALAR_MAPS[name](params[0]))
        elif name in ("Q", "gen_plot"):
            n = int(params[0])
            fn = dm.Q if name == "Q" else dm.gen_plot
            _print_point(fn(n, params[1:]), args.json_points)
        elif name == "q":
            n = int(params[0])
            _print_point(dm.q(n, params[1:n + 2], params[n + 2]), args.json_points)
        elif name == "section":
            n = int(params[0])
            print(_fmt_vec(dm.section(n, params[1:])))
        elif name == "rho":
            n = int(params[0])
            _print_point(sd.rho(n, params[1:]), args.json_points)
        elif name == "psi":
            n = int(params[0])
            c = sd.psi(n, params[1:], wrinkle=not args.disable_wrinkle)
            if args.json_points:
                print(json.dumps({"disk": dm.point_to_json(c.disk),
                                  "time": float(c.time)}, sort_keys=True))
            else:
                print(_fmt_vec(c.disk) + " " + "%.17g" % c.time)
        elif name == "psi_inv":
            n = int(params[0])
            c = sd.CylPoint(np.asarray(params[1:n + 2]), params[n + 2])
            _print_point(sd.psi_inv(n, c, wrinkle=not args.disable_wrinkle),
                         args.json_points)
        else:
            print(f"unknown map {name!r}; choices: "
                  f"{sorted(_SCALAR_MAPS) + ['Q', 'gen_plot', 'q', 'section', 'rho', 'psi', 'psi_inv']}",
                  file=sys.stderr)
            return _EXIT_USAGE
    except (ValueError, IndexError, dm.DomainError) as exc:
        print(f"eval error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_PASS


def cmd_chep(args):
    cfg = _config_from(args)
    if args.instance == "bundled":
        inst, _ = bundled_chep_instance()
        kind = "chep"
    else:
        try:
            kind, inst = load_instance_file(args.instance)
        except (OSError, ValueError) as exc:
            print(f"cannot load instance: {exc}", file=sys.stderr)
            return _EXIT_USAGE

    rng = np.random.default_rng(cfg.seed)
    try:
        if kind == "chep":
            report = _run_chep_instance(inst, cfg, rng, args.csv)
        else:
            report = _run_extend_instance(inst, cfg, rng)
    except LiftError as exc:
        print(f"instance precondition violated: {exc}", file=sys.stderr)
        return _EXIT_INSTANCE
    _emit(report, args.report)
    return _EXIT_PASS if report["passed"] else _EXIT_FAIL


def _run_chep_instance(inst, cfg, rng, csv_path=None):
    pre = [(inst.sample_point(rng), float(rng.uniform())) for _ in range(50)]
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k,
             precheck=pre, tol=cfg.tol_lift)
    n = cfg.count(1000)
    dev_f = dev_h = dev_p = 0.0
    rows = []
    has_base = inst.complex.base is not None
    for _ in range(n):
        x = inst.sample_point(rng)
        t = float(rng.uniform())
        Hx0, fx = H(x, 0.0), inst.f(x)
        dev_f = worst(dev_f, abs(Hx0[0] - fx[0]), abs(Hx0[1] - fx[1]))
        Hxt = H(x, t)
        dev_p = worst(dev_p, abs(Hxt[0] - inst.k(x, t)))
        if has_base:
            Ha, ha = H(ComplexPoint.base(0.0), t), inst.h(0.0, t)
            dev_h = worst(dev_h, abs(Ha[0] - ha[0]), abs(Ha[1] - ha[1]))
        if csv_path:
            rows.append((inst.position(x), t, Hxt[0], Hxt[1]))
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("position,t,H_base,H_fiber\n")
            for row in rows:
                fh.write(",".join("%.17g" % v for v in row) + "\n")
    props = [
        {"property": "H_at_time_zero_is_f", "samples": n, "worst_dev": dev_f,
         "tol": cfg.tol_lift, "pass": dev_f <= cfg.tol_lift, "note": ""},
        {"property": "H_over_base_is_h", "samples": n, "worst_dev": dev_h,
         "tol": cfg.tol_lift, "pass": dev_h <= cfg.tol_lift,
         "note": "" if has_base else "vacuous: the complex has no base"},
        {"property": "projection_of_H_is_k", "samples": n, "worst_dev": dev_p,
         "tol": cfg.tol_lift, "pass": dev_p <= cfg.tol_lift, "note": ""},
    ]
    return {"suite": "chep-instance", "config": {"seed": cfg.seed,
            "tol_lift": cfg.tol_lift, "samples": cfg.samples},
            "properties": props, "passed": all(p["pass"] for p in props)}


def _run_extend_instance(inst, cfg, rng):
    lift = extend_lift(inst.oracle, inst.complex, inst.f, inst.bottom,
                       precheck=[ComplexPoint.base(0.0)], tol=cfg.tol_lift)
    n = cfg.count(500)
    dev = 0.0
    for i in range(n):
        x = _sample_extend_point(inst.complex, rng)
        dev = worst(dev, abs(inst.oracle.project(lift(x)) - inst.bottom(x)))
    restr = lift(ComplexPoint.base(0.0)) == inst.f(0.0)
    props = [
        {"property": "lift_projects_to_bottom", "samples": n, "worst_dev": dev,
         "tol": cfg.tol_lift, "pass": dev <= cfg.tol_lift, "note": ""},
        {"property": "lift_restricts_to_f", "samples": 1,
         "worst_dev": 0.0 if restr else 1.0, "tol": 0.0, "pass": restr, "note": ""},
    ]
    return {"suite": "extend-instance", "config": {"seed": cfg.seed,
            "tol_lift": cfg.tol_lift, "samples": cfg.samples},
            "properties": props, "passed": all(p["pass"] for p in props)}


def _sample_extend_point(cx, rng):
    candidates = []
    if cx.base is not None:
        candidates.append(ComplexPoint.base(0.0))
    for i, cell in enumerate(cx.cells):
        w = dm.random_disk(cell.dim, rng)
        candidates.append(ComplexPoint.in_cell(i, w))
    return candidates[int(rng.integers(len(candidates)))]


def cmd_dump(args):
    cfg = _config_from(args)
    rng = np.random.default_rng(cfg.seed)
    n = args.n
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        header = (["n", "s", "t"] + [f"v_{i}" for i in range(n)] + ["region"]
                  + [f"out_{i}" for i in range(n + 1)] + ["time"])
        out.write(",".join(header) + "\n")
        for _ in range(args.count):
            v = dm.random_disk(n - 1, rng)
            s, t = float(rng.uniform()), float(rng.uniform())
            tags = sd.region_classify(s, t, "V")
            c = sd.psi(n, sd.source_point(n, v, s, t),
                       wrinkle=not args.disable_wrinkle)
            row = ([str(n), "%.17g" % s, "%.17g" % t]
                   + ["%.17g" % x for x in v]
                   + ["|".join(map(str, tags))]
                   + ["%.17g" % x for x in c.disk] + ["%.17g" % c.time])
            out.write(",".join(row) + "\n")
    finally:
        if args.out:
            out.close()
    return _EXIT_PASS


def _add_common(p):
    p.add_argument("--tol-alg", type=float, default=1e-12, dest="tol_alg")
    p.add_argument("--tol-rt", type=float, default=1e-8, dest="tol_rt")
    p.add_argument("--tol-fd", type=float, default=1e-4, dest="tol_fd")
    p.add_argument("--tol-lift", type=float, default=1e-6, dest="tol_lift")
    p.add_argument("--samples", type=float, default=1.0,
                   help="sample-count multiplier")
    p.add_argument("--fd-order", type=int, default=3, dest="fd_order")
    p.add_argument("--seed", type=int, default=20570)
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.add_argument("--disable-wrinkle", action="store_true",
                   dest="disable_wrinkle",
                   help="debug: run the subdivision bijection without the wrinkle")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="difftop",
        description="verification suites and evaluators for the smooth "
                    "homotopy toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=suite_names())
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a named map at coordinates")
    p.add_argument("map")
    p.add_argument("args", nargs="*")
    p.add_argument("--json-points", action="store_true", dest="json_points",
                   help="emit points as {dim, coords} JSON objects")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chep", help="run a lifting instance file "
                                    "(or 'bundled')")
    p.add_argument("instance")
    p.add_argument("--csv", default=None, help="write sampled H values as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_chep)

    p = sub.add_parser("dump", help="CSV sample dump of the subdivision map")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_dump)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
