"""Batch front door: run verification suites, evaluate maps, lift demos.

Exit codes: 0 all checks passed, 1 a property failed, 2 usage error,
3 instance precondition violated.  Reports are JSON (sorted keys, fixed
field set, no timestamps), so identical seed and configuration give
byte-identical output; the text rendering is derived from the same
records.
"""

import argparse
import contextlib
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import smoothfn as sf
from . import diskmodel as dm
from . import subdivision as sd
from .lifting import LiftError
from .instances import bundled_chep_instance, load_instance_file
from .verify import (RunConfig, _holds, _report, _within, check_chep_instance,
                     check_extend_instance, run_suite, suite_names)

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE, _EXIT_INSTANCE = 0, 1, 2, 3


def _config_from(args):
    """The RunConfig the flags of a subcommand set; the rest keep their defaults."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if hasattr(args, f.name)})


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
    name = args.map
    wrinkle = not _config_from(args).disable_wrinkle
    try:
        params = [float(a) for a in args.args]
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
            c = sd.psi(n, params[1:], wrinkle=wrinkle)
            if args.json_points:
                print(json.dumps({"disk": dm.point_to_json(c.disk),
                                  "time": float(c.time)}, sort_keys=True))
            else:
                print(_fmt_vec(c.disk) + " " + "%.17g" % c.time)
        elif name == "psi_inv":
            n = int(params[0])
            c = sd.CylPoint(np.asarray(params[1:n + 2]), params[n + 2])
            _print_point(sd.psi_inv(n, c, wrinkle=wrinkle), args.json_points)
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

    # open the CSV before sampling, so a bad path costs no lifts
    try:
        csv = open(args.csv, "w") if args.csv and kind == "chep" else contextlib.nullcontext()
    except OSError as exc:
        print(f"cannot open --csv file: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    rng = np.random.default_rng(cfg.seed)
    try:
        with csv as fh:
            if kind == "chep":
                props = _chep_props(inst, cfg, rng, fh)
            else:
                props = _extend_props(inst, cfg, rng)
    except LiftError as exc:
        print(f"instance precondition violated: {exc}", file=sys.stderr)
        return _EXIT_INSTANCE
    report = _report(f"{kind}-instance", {"seed": cfg.seed, "tol_lift": cfg.tol_lift,
                                          "samples": cfg.samples}, props)
    _emit(report, args.report)
    return _EXIT_PASS if report["passed"] else _EXIT_FAIL


def _chep_props(inst, cfg, rng, csv=None):
    (dev_f, dev_h, dev_p), rows = check_chep_instance(inst, cfg, rng)
    if csv is not None:
        csv.write("position,t,H_base,H_fiber\n")
        for x, t, Hxt in rows:
            row = (inst.position(x), t, Hxt[0], Hxt[1])
            csv.write(",".join("%.17g" % v for v in row) + "\n")
    n, tol = cfg.count(1000), cfg.tol_lift
    note = "" if inst.complex.base is not None else "vacuous: the complex has no base"
    return [_within("H_at_time_zero_is_f", n, dev_f, tol),
            _within("H_over_base_is_h", n, dev_h, tol, note),
            _within("projection_of_H_is_k", n, dev_p, tol)]


def _extend_props(inst, cfg, rng):
    dev, restr = check_extend_instance(inst, cfg, rng)
    return [_within("lift_projects_to_bottom", cfg.count(500), dev, cfg.tol_lift),
            _holds("lift_restricts_to_f", 1, restr)]


def cmd_dump(args):
    cfg = _config_from(args)
    rng = np.random.default_rng(cfg.seed)
    n = args.n
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"cannot open --out file: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    with out as fh:
        header = (["n", "s", "t"] + [f"v_{i}" for i in range(n)] + ["region"]
                  + [f"out_{i}" for i in range(n + 1)] + ["time"])
        fh.write(",".join(header) + "\n")
        for _ in range(args.count):
            v = dm.random_disk(n - 1, rng)
            s, t = float(rng.uniform()), float(rng.uniform())
            tags = sd.region_classify(s, t, "V")
            c = sd.psi(n, sd.source_point(n, v, s, t), wrinkle=not cfg.disable_wrinkle)
            row = ([str(n), "%.17g" % s, "%.17g" % t]
                   + ["%.17g" % x for x in v]
                   + ["|".join(map(str, tags))]
                   + ["%.17g" % x for x in c.disk] + ["%.17g" % c.time])
            fh.write(",".join(row) + "\n")
    return _EXIT_PASS


def _checked(convert, ok, what):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                      "a finite tolerance >= 0")
# --samples scales every sample count: at the bound `verify all` runs for
# over an hour, and far above it a count overflows or never finishes
_MAX_SAMPLES = 1000.0
_multiplier = _checked(float, lambda v: 0.0 < v <= _MAX_SAMPLES,
                       f"a number > 0 and <= {_MAX_SAMPLES:g}")
_positive = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")

# flags that set a RunConfig field of the same name; when a flag is not
# given, the field keeps its RunConfig default
_CONFIG_FLAGS = {
    "--tol-alg": {"type": _tolerance},
    "--tol-rt": {"type": _tolerance},
    "--tol-fd": {"type": _tolerance},
    "--tol-lift": {"type": _tolerance},
    "--samples": {"type": _multiplier, "help": "sample-count multiplier, "
                  f"in (0, {_MAX_SAMPLES:g}]"},
    "--fd-order": {"type": _positive},
    "--seed": {"type": _seed},
    "--disable-wrinkle": {"action": "store_true", "help": "debug: run the "
                          "subdivision bijection without the wrinkle"},
}


def _add_config_flags(p, *flags):
    for flag in flags:
        p.add_argument(flag, default=argparse.SUPPRESS, **_CONFIG_FLAGS[flag])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="difftop",
        description="verification suites and evaluators for the smooth "
                    "homotopy toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=suite_names())
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a named map at coordinates")
    p.add_argument("map")
    p.add_argument("args", nargs="*")
    p.add_argument("--json-points", action="store_true", dest="json_points",
                   help="emit points as {dim, coords} JSON objects")
    _add_config_flags(p, "--disable-wrinkle")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chep", help="run a lifting instance file "
                                    "(or 'bundled')")
    p.add_argument("instance")
    p.add_argument("--csv", default=None, help="write sampled H values as CSV")
    _add_config_flags(p, "--tol-lift", "--samples", "--seed")
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_chep)

    p = sub.add_parser("dump", help="CSV sample dump of the subdivision map")
    p.add_argument("--n", type=_positive, default=2)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_config_flags(p, "--seed", "--disable-wrinkle")
    p.set_defaults(func=cmd_dump)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
