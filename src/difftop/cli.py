"""Batch front door: run verification suites, evaluate maps, lift demos.

Exit codes: 0 all checks passed, 1 a property failed, 2 usage error or
output that cannot be written, 3 instance precondition violated.  Reports
are JSON (sorted keys, fixed field set, no timestamps), so identical seed
and samples give byte-identical output; the text rendering is derived
from the same records.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import smoothfn as sf
from . import diskmodel as dm
from . import subdivision as sd
from .lifting import LiftError
from .instances import InstanceError, bundled_chep_instance, load_instance_file
from .verify import (RunConfig, check_chep_instance, check_extend_instance, make_report,
                     run_suite, suite_names)

_EXIT_PASS, _EXIT_FAIL, _EXIT_USAGE, _EXIT_INSTANCE = 0, 1, 2, 3


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
    report = run_suite(args.suite, RunConfig(samples=args.samples, seed=args.seed))
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


_DIM_MAPS = ("Q", "gen_plot", "q", "section", "rho", "psi", "psi_inv")


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _point_and_time(name, n, rest):
    """q's and psi_inv's arguments after the dimension: a point of R^(n+1), a time."""
    if len(rest) != n + 2:
        raise ValueError(f"{name} in dimension {n} takes {n + 2} numbers after "
                         f"the dimension, got {len(rest)}")
    return rest[:n + 1], rest[n + 1]


def _in_unit(value, what):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value!r} is not in [0, 1]")


def cmd_eval(args):
    name = args.map
    if name not in _SCALAR_MAPS and name not in _DIM_MAPS:
        print(f"unknown map {name!r}; choices: {sorted(_SCALAR_MAPS) + list(_DIM_MAPS)}",
              file=sys.stderr)
        return _EXIT_USAGE
    wrinkle = not args.disable_wrinkle
    try:
        params = [_finite(a) for a in args.args]
        if name in _SCALAR_MAPS:
            if len(params) != 1:
                raise ValueError(f"{name} takes one argument")
            print("%.17g" % _SCALAR_MAPS[name](params[0]))
            return _EXIT_PASS
        if not params or not params[0].is_integer() or params[0] < 0:
            raise ValueError(f"{name} takes a dimension, an integer >= 0, first")
        n, rest = int(params[0]), params[1:]
        if name == "Q":
            for t in rest:
                _in_unit(t, "cube coordinate")
            _print_point(dm.Q(n, rest), args.json_points)
        elif name == "gen_plot":
            _print_point(dm.gen_plot(n, rest), args.json_points)
        elif name == "q":
            x, t = _point_and_time(name, n, rest)
            _in_unit(t, "time")
            _print_point(dm.q(n, x, t), args.json_points)
        elif name == "section":
            print(_fmt_vec(dm.section(n, rest)))
        elif name == "rho":
            _print_point(sd.rho(n, rest), args.json_points)
        elif name == "psi":
            c = sd.psi(n, rest, wrinkle=wrinkle)
            if args.json_points:
                print(json.dumps({"disk": dm.point_to_json(c.disk),
                                  "time": float(c.time)}, sort_keys=True))
            else:
                print(_fmt_vec(c.disk) + " " + "%.17g" % c.time)
        else:  # psi_inv
            x, t = _point_and_time(name, n, rest)
            c = sd.CylPoint(np.asarray(x), t)
            _print_point(sd.psi_inv(n, c, wrinkle=wrinkle), args.json_points)
    except (ValueError, IndexError, dm.DomainError) as exc:
        print(f"eval error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_PASS


def cmd_chep(args):
    cfg = RunConfig(samples=args.samples, seed=args.seed)
    if args.instance == "bundled":
        inst, _ = bundled_chep_instance()
        kind = "chep"
    else:
        try:
            kind, inst = load_instance_file(args.instance)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"cannot load instance: {exc}", file=sys.stderr)
            return _EXIT_USAGE

    if args.csv and kind != "chep":
        print(f"--csv applies to chep instances only; this is an {kind} instance",
              file=sys.stderr)
        return _EXIT_USAGE

    # open the CSV before sampling, so a bad path costs no lifts
    try:
        csv = open(args.csv, "w") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        print(f"cannot open --csv file: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    check = check_chep_instance if kind == "chep" else check_extend_instance
    try:
        with csv as fh:
            props, rows = check(inst, cfg, np.random.default_rng(cfg.seed))
            if fh is not None:
                fh.write("position,t,H_base,H_fiber\n")
                for x, t, Hxt in rows:
                    row = (inst.position(x), t, Hxt[0], Hxt[1])
                    fh.write(",".join("%.17g" % v for v in row) + "\n")
    except LiftError as exc:
        print(f"instance precondition violated: {exc}", file=sys.stderr)
        return _EXIT_INSTANCE
    except InstanceError as exc:
        print(f"cannot evaluate instance: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    report = make_report(f"{kind}-instance", cfg, props)
    _emit(report, args.report)
    return _EXIT_PASS if report["passed"] else _EXIT_FAIL


def cmd_dump(args):
    rng = np.random.default_rng(args.seed)
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
            c = sd.psi(n, sd.source_point(n, v, s, t), wrinkle=not args.disable_wrinkle)
            row = ([str(n), "%.17g" % s, "%.17g" % t]
                   + ["%.17g" % x for x in v]
                   + [str(sd.phi_branch(s) + 1)]
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


# --samples scales every sample count: at the bound `verify all` runs for
# over an hour, and far above it a count overflows or never finishes
_MAX_SAMPLES = 1000.0
_multiplier = _checked(float, lambda v: 0.0 < v <= _MAX_SAMPLES,
                       f"a number > 0 and <= {_MAX_SAMPLES:g}")
_positive = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative = _checked(int, lambda v: v >= 0, "an integer >= 0")

# the flags of more than one subcommand
_SAMPLES = {"type": _multiplier, "default": RunConfig.samples,
            "help": f"sample-count multiplier, in (0, {_MAX_SAMPLES:g}]"}
_SEED = {"type": _nonnegative, "default": RunConfig.seed}
_NO_WRINKLE = {"action": "store_true",
               "help": "debug: run the subdivision bijection without the wrinkle"}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="difftop",
        description="verification suites and evaluators for the smooth "
                    "homotopy toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--samples", **_SAMPLES)
    p.add_argument("--seed", **_SEED)
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a named map at coordinates")
    p.add_argument("map")
    p.add_argument("args", nargs="*")
    p.add_argument("--json-points", action="store_true", dest="json_points",
                   help="emit points as {dim, coords} JSON objects")
    p.add_argument("--disable-wrinkle", **_NO_WRINKLE)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chep", help="run a lifting instance file "
                                    "(or 'bundled')")
    p.add_argument("instance")
    p.add_argument("--csv", default=None, help="write sampled H values as CSV")
    p.add_argument("--samples", **_SAMPLES)
    p.add_argument("--seed", **_SEED)
    p.add_argument("--report", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_chep)

    p = sub.add_parser("dump", help="CSV sample dump of the subdivision map")
    p.add_argument("--n", type=_positive, default=2)
    p.add_argument("--count", type=_nonnegative, default=100)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", **_SEED)
    p.add_argument("--disable-wrinkle", **_NO_WRINKLE)
    p.set_defaults(func=cmd_dump)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:  # a full disk, or a reader that closed the pipe
        print(f"cannot write output: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # the exit flush of what stdout still holds would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
