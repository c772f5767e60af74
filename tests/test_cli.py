import json
import math
import subprocess
import sys

import pytest

from difftop import cli
from difftop.cli import main
from difftop.instances import bundled_chep_instance, bundled_extend_instance


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_lambda(capsys):
    code, out, _ = run_cli(["eval", "lambda", "0.5"], capsys)
    assert code == 0
    assert float(out) == 0.5


def test_eval_Q(capsys):
    code, out, _ = run_cli(["eval", "Q", "1", "0"], capsys)
    assert code == 0
    assert out.strip() == "1 0"


def test_eval_psi_point_case(capsys):
    t = 0.25
    w = [math.cos(math.pi * t), math.sin(math.pi * t)]
    code, out, _ = run_cli(["eval", "psi", "0", str(w[0]), str(w[1])], capsys)
    assert code == 0
    disk, time = out.split()
    assert float(disk) == 1.0
    assert float(time) == pytest.approx(t, abs=1e-12)


def test_eval_unknown_map_is_usage_error(capsys):
    code, _, err = run_cli(["eval", "frobnicate", "1"], capsys)
    assert code == 2
    assert "unknown map" in err


def test_eval_bad_arity_is_usage_error(capsys):
    code, _, _ = run_cli(["eval", "lambda", "1", "2"], capsys)
    assert code == 2


def test_eval_non_numeric_argument_is_usage_error(capsys):
    code, out, err = run_cli(["eval", "lambda", "abc"], capsys)
    assert code == 2 and out == ""
    assert "eval error" in err


def test_verify_smoothfn_passes(capsys):
    code, out, _ = run_cli(["verify", "smoothfn", "--report", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["suite"] == "smoothfn"


def test_verify_unknown_suite_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "difftop.cli", "verify", "nope"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_verify_reports_are_deterministic(capsys):
    code1, out1, _ = run_cli(["verify", "smoothfn", "--seed", "7"], capsys)
    code2, out2, _ = run_cli(["verify", "smoothfn", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_report(capsys):
    _, out1, _ = run_cli(["verify", "diskmodel", "--seed", "1"], capsys)
    _, out2, _ = run_cli(["verify", "diskmodel", "--seed", "2"], capsys)
    assert json.loads(out1)["passed"] and json.loads(out2)["passed"]
    assert out1 != out2  # sampled deviations move with the seed


def test_chep_bundled_passes(capsys):
    code, out, _ = run_cli(["chep", "bundled", "--samples", "0.2"], capsys)
    assert code == 0
    rep = json.loads(out)
    names = {p["property"] for p in rep["properties"]}
    assert names == {"H_at_time_zero_is_f", "H_over_base_is_h",
                     "projection_of_H_is_k"}


def test_chep_instance_file_roundtrip(tmp_path, capsys):
    _, desc = bundled_chep_instance()
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.2"], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_chep_incompatible_instance_exits_3(tmp_path, capsys):
    _, desc = bundled_chep_instance(k_offset=0.5)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(desc))
    code, _, err = run_cli(["chep", str(path)], capsys)
    assert code == 3
    assert "precondition" in err


def test_chep_extend_instance_file(tmp_path, capsys):
    _, desc = bundled_extend_instance()
    path = tmp_path / "extend.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "extend-instance" and rep["passed"]


def test_chep_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(["chep", "/nonexistent/inst.json"], capsys)
    assert code == 2


def test_chep_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "h.csv"
    code, _, _ = run_cli(["chep", "bundled", "--samples", "0.05",
                          "--csv", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "position,t,H_base,H_fiber"
    assert len(lines) > 1


def test_chep_unopenable_csv_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before opening the CSV")

    monkeypatch.setattr(cli, "check_chep_instance", no_sampling)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["chep", "bundled", "--csv", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot open --csv file") and err.count("\n") == 1


def test_dump_csv_header_and_shape(capsys):
    code, out, _ = run_cli(["dump", "--n", "2", "--count", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,t,v_0,v_1,region,out_0,out_1,out_2,time"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert row[0] == "2" and len(row) == 10


def test_dump_is_deterministic(capsys):
    _, out1, _ = run_cli(["dump", "--n", "1", "--count", "4", "--seed", "3"], capsys)
    _, out2, _ = run_cli(["dump", "--n", "1", "--count", "4", "--seed", "3"], capsys)
    assert out1 == out2


def test_dump_out_file_matches_stdout(tmp_path, capsys):
    argv = ["dump", "--n", "2", "--count", "3", "--seed", "5"]
    _, out, _ = run_cli(argv, capsys)
    path = tmp_path / "dump.csv"
    code, out_file, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 0 and out_file == ""
    assert path.read_text() == out


def test_dump_unopenable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["dump", "--out", str(path), "--count", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot open --out file") and err.count("\n") == 1


def test_eval_json_points(capsys):
    code, out, _ = run_cli(["eval", "Q", "2", "0.5", "0.5", "--json-points"],
                           capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2 and len(obj["coords"]) == 3
    assert obj["coords"][2] == pytest.approx(1.0)


def test_chep_no_base_is_vacuous_over_base(tmp_path, capsys):
    _, desc = bundled_chep_instance(relative=False)
    path = tmp_path / "absolute.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.2"], capsys)
    assert code == 0
    rec = {p["property"]: p for p in json.loads(out)["properties"]}["H_over_base_is_h"]
    assert rec["pass"] and rec["worst_dev"] == 0.0
    assert rec["note"] == "vacuous: the complex has no base"


def test_chep_instance_missing_fields_exits_2(tmp_path, capsys):
    path = tmp_path / "k_only.json"
    path.write_text(json.dumps({"k": 1}))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert "missing field 'complex'" in err


def test_chep_instance_without_points_exits_2(tmp_path, capsys):
    _, desc = bundled_extend_instance()
    desc["complex"] = {"base": None, "cells": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert "no base and no cells" in err


@pytest.mark.parametrize("target", [5, 1])  # missing, and the edge itself
def test_chep_attach_to_later_cell_exits_2(tmp_path, capsys, target):
    _, desc = bundled_chep_instance()
    desc["complex"]["cells"][1]["attach"]["neg"] = {"cell": target}
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"attach target {target} is not an earlier 0-cell" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_dump_below_dimension_1_exits_2(n):
    # --n 0 used to hang: random_disk(-1) rejected the empty draw forever
    proc = subprocess.run(
        [sys.executable, "-m", "difftop.cli", "dump", "--n", n, "--count", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--n" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "smoothfn", "--samples", "nan"],
    ["verify", "smoothfn", "--samples", "0"],
    ["chep", "bundled", "--samples", "inf"],
    ["verify", "smoothfn", "--samples", "1e305"],
    ["chep", "bundled", "--samples", "1000.5"],
    ["verify", "smoothfn", "--tol-alg", "nan"],
    ["verify", "smoothfn", "--tol-rt", "-1e-9"],
    ["chep", "bundled", "--tol-lift", "inf"],
    ["verify", "smoothfn", "--fd-order", "0"],
    ["verify", "smoothfn", "--seed", "-1"],
    ["dump", "--seed", "x"],
])
def test_bad_numeric_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


CONFIG_FLAGS = ["--tol-alg", "--tol-rt", "--tol-fd", "--tol-lift", "--samples",
                "--fd-order", "--seed", "--report", "--disable-wrinkle"]
KEPT_FLAGS = {"eval": {"--disable-wrinkle"},
              "chep": {"--tol-lift", "--samples", "--seed", "--report"},
              "dump": {"--seed", "--disable-wrinkle"}}
REMOVED = [(cmd, flag) for cmd, kept in KEPT_FLAGS.items()
           for flag in CONFIG_FLAGS if flag not in kept]


def test_each_subcommand_has_only_the_flags_it_reads():
    from difftop.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {cmd: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
             for cmd, p in sub.choices.items()}
    assert flags["verify"] == set(CONFIG_FLAGS)
    assert flags["eval"] == KEPT_FLAGS["eval"] | {"--json-points"}
    assert flags["chep"] == KEPT_FLAGS["chep"] | {"--csv"}
    assert flags["dump"] == KEPT_FLAGS["dump"] | {"--n", "--count", "--out"}
    assert sum(map(len, flags.values())) == 21


@pytest.mark.parametrize("cmd,flag", REMOVED)
def test_flag_a_subcommand_does_not_read_exits_2(cmd, flag, capsys):
    argv = {"eval": ["eval", "lambda", "0.5"], "chep": ["chep", "bundled"],
            "dump": ["dump"]}[cmd]
    argv = argv + [flag] + ([] if flag == "--disable-wrinkle" else ["1"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_accepts_all_nine_flags():
    from dataclasses import asdict
    from difftop.cli import _config_from, build_parser
    args = build_parser().parse_args([
        "verify", "smoothfn", "--tol-alg", "1e-11", "--tol-rt", "1e-7",
        "--tol-fd", "1e-3", "--tol-lift", "1e-5", "--samples", "0.5",
        "--fd-order", "2", "--seed", "4", "--report", "text",
        "--disable-wrinkle"])
    assert args.report == "text"
    assert asdict(_config_from(args)) == {
        "tol_alg": 1e-11, "tol_rt": 1e-7, "tol_fd": 1e-3, "tol_lift": 1e-5,
        "samples": 0.5, "fd_order": 2, "seed": 4, "disable_wrinkle": True}


def test_samples_upper_bound_is_inclusive():
    from difftop.cli import _MAX_SAMPLES, build_parser
    args = build_parser().parse_args(["verify", "smoothfn", "--samples", "1000"])
    assert args.samples == _MAX_SAMPLES == 1000.0


@pytest.mark.parametrize("k,message", [
    ({"op": "zap", "args": [1.0]}, "unknown expression op 'zap'"),
    ({"op": "var", "index": 7}, "var index 7 is not one of the 2 variables"),
    ({"op": "sin", "args": [1.0, 2.0]}, "sin takes one argument"),
])
def test_chep_malformed_expression_exits_2(tmp_path, capsys, k, message):
    _, desc = bundled_chep_instance()
    desc["k"] = k
    path = tmp_path / "bad_expr.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path), "--samples", "0.01"], capsys)
    assert code == 2 and out == ""
    assert message in err
