import contextlib
import copy
import errno
import functools
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difftop import cli
from difftop.cli import main
from difftop.diskmodel import max_dev
from difftop.instances import (InstanceError, bundled_chep_instance, bundled_extend_instance,
                               load_instance_file)
from difftop.lifting import chep
from difftop.subdivision import phi_branch
from difftop.verify import TOL_LIFT


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


@pytest.mark.parametrize("argv,message", [
    (["lambda", "nan"], "'nan' is not a finite number"),
    (["Q", "1", "nan"], "'nan' is not a finite number"),
    (["gen_plot", "1", "nan"], "'nan' is not a finite number"),
    (["section", "1", "inf", "0"], "'inf' is not a finite number"),
    (["Q", "1", "1.5"], "cube coordinate 1.5 is not in [0, 1]"),
    (["Q", "2", "0.5", "-0.25"], "cube coordinate -0.25 is not in [0, 1]"),
    (["q", "1", "0.6", "0.8", "2.5"], "time 2.5 is not in [0, 1]"),
    (["Q", "1.5", "0.3"], "Q takes a dimension, an integer >= 0, first"),
    (["psi", "-1"], "psi takes a dimension, an integer >= 0, first"),
    (["rho"], "rho takes a dimension, an integer >= 0, first"),
    (["q", "1", "0.6", "0.8", "0.5", "9"],
     "q in dimension 1 takes 3 numbers after the dimension, got 4"),
    (["q", "1", "0.6", "0.8"], "q in dimension 1 takes 3 numbers after the dimension, got 2"),
    (["psi_inv", "2", "0", "0.6", "0.8", "0.5", "0.1"],
     "psi_inv in dimension 2 takes 4 numbers after the dimension, got 5"),
    (["psi_inv", "1", "0.6", "0.8"],
     "psi_inv in dimension 1 takes 3 numbers after the dimension, got 2"),
])
def test_eval_argument_outside_its_domain_exits_2(capsys, argv, message):
    code, out, err = run_cli(["eval"] + argv, capsys)
    assert code == 2 and out == ""
    assert err == f"eval error: {message}\n"


def test_eval_point_whose_squares_overflow_exits_2_without_a_warning():
    # any RuntimeWarning from the membership check would be an error here,
    # and one printed warning would add lines to stderr
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "difftop.cli", "eval", "section", "1",
         "1e200", "1e200"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("eval error: |point| = ")


def test_eval_accepts_the_ends_of_its_domains(capsys):
    code, out, _ = run_cli(["eval", "Q", "2", "0", "1"], capsys)
    assert code == 0 and len(out.split()) == 3
    code, out, _ = run_cli(["eval", "q", "0", "1", "1"], capsys)
    assert code == 0 and len(out.split()) == 2
    code, out, _ = run_cli(["eval", "gen_plot", "1", "-3"], capsys)
    assert code == 0 and out.split() == ["1", "0"]


def test_verify_smoothfn_passes(capsys):
    code, out, _ = run_cli(["verify", "smoothfn", "--report", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["suite"] == "smoothfn"


def test_verify_all_at_tiny_samples_passes(capsys):
    # every count is 1, so three of the four per-n groups of a property
    # drawn per dimension are empty
    code, out, _ = run_cli(["verify", "all", "--samples", "0.0001", "--report", "json"],
                           capsys)
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    samples = {p["property"]: p["samples"] for p in rep["properties"]}
    assert samples["subdivision.psi_roundtrip_forward"] == 1
    assert samples["diskmodel.q_section_roundtrip"] == 1


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
    out_csv.write_text("old rows\n")
    out_csv.chmod(0o640)
    code, _, _ = run_cli(["chep", "bundled", "--samples", "0.05",
                          "--csv", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "position,t,H_base,H_fiber"
    assert len(lines) > 1
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]
    assert stat.S_IMODE(out_csv.stat().st_mode) == 0o640


INCOMPATIBLE = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "instances",
                            "chep_incompatible.json")
INTERVAL = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "instances",
                        "chep_interval.json")


@pytest.mark.parametrize("instance", ["bundled", INTERVAL])
def test_chep_csv_rows_come_in_draw_order(instance, tmp_path, capsys):
    # the check evaluates H one cell at a time through its array form; the
    # rows it prints are still the draws in turn, each at the scalar H
    out_csv = tmp_path / "h.csv"
    code, _, _ = run_cli(["chep", instance, "--samples", "0.1", "--seed", "7",
                          "--csv", str(out_csv)], capsys)
    assert code == 0
    inst = bundled_chep_instance()[0] if instance == "bundled" else load_instance_file(instance)[1]
    rng = np.random.default_rng(7)
    for _ in range(50):  # the precheck pairs come first
        inst.complex.sample_point(rng), rng.uniform()
    H = chep(inst.fibration, inst.complex, inst.f, inst.h, inst.k)
    lines = out_csv.read_text().strip().splitlines()[1:]
    assert len(lines) == 100
    for line in lines:
        x, t = inst.complex.sample_point(rng), float(rng.uniform())
        position, time_, base, fiber = map(float, line.split(","))
        assert (position, time_) == (inst.position(x), t)
        assert max_dev((base, fiber), H(x, t)) <= TOL_LIFT


def test_chep_failed_lift_keeps_an_existing_csv(tmp_path, capsys):
    out_csv = tmp_path / "keep.csv"
    out_csv.write_bytes(b"old rows\n")
    code, out, err = run_cli(["chep", INCOMPATIBLE, "--csv", str(out_csv)], capsys)
    assert code == 3 and out == "" and "precondition" in err
    assert out_csv.read_bytes() == b"old rows\n"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.csv"]


def test_chep_unevaluable_instance_leaves_no_csv(tmp_path, capsys, monkeypatch):
    def unevaluable(*args):
        raise InstanceError("k cannot be evaluated")

    monkeypatch.setattr(cli, "check_chep_instance", unevaluable)
    out_csv = tmp_path / "h.csv"
    code, _, err = run_cli(["chep", "bundled", "--csv", str(out_csv)], capsys)
    assert code == 2 and err.startswith("cannot evaluate instance")
    assert list(tmp_path.iterdir()) == []


def test_chep_csv_through_a_symlink_keeps_the_link(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    target.write_text("old rows\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(["chep", "bundled", "--samples", "0.05", "--csv", str(link)], capsys)
    assert code == 0 and link.is_symlink()
    assert target.read_text().startswith("position,t,H_base,H_fiber\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "rows.csv"]


def test_chep_csv_to_a_pipe_writes_in_place(tmp_path, capsys):
    # a rename would replace the pipe (or a device such as /dev/full) by a file
    fifo = tmp_path / "rows"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, _ = run_cli(["chep", "bundled", "--samples", "0.05", "--csv", str(fifo)], capsys)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 0 and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got and got[0].startswith("position,t,H_base,H_fiber\n")


def test_chep_csv_on_a_directory_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before opening the CSV")

    monkeypatch.setattr(cli, "check_chep_instance", no_sampling)
    code, out, err = run_cli(["chep", "bundled", "--csv", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot open --csv file") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_chep_unopenable_csv_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before opening the CSV")

    monkeypatch.setattr(cli, "check_chep_instance", no_sampling)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["chep", "bundled", "--csv", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot open --csv file") and err.count("\n") == 1


def test_chep_csv_on_an_extend_instance_exits_2_before_lifting(tmp_path, capsys,
                                                               monkeypatch):
    # --csv writes H of a chep instance; an extend instance has none to write
    def no_lift(*args):
        raise AssertionError("lifted an extend instance given --csv")

    monkeypatch.setattr(cli, "check_extend_instance", no_lift)
    path = tmp_path / "extend.json"
    path.write_text(json.dumps(bundled_extend_instance()[1]))
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(["chep", str(path), "--csv", str(out_csv)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("--csv applies to chep instances only") and err.count("\n") == 1
    assert not out_csv.exists()


def test_dump_csv_header_and_shape(capsys):
    code, out, _ = run_cli(["dump", "--n", "2", "--count", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,t,v_0,v_1,region,out_0,out_1,out_2,time"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert row[0] == "2" and len(row) == 10


def test_dump_region_is_the_slab_of_s(capsys):
    _, out, _ = run_cli(["dump", "--n", "2", "--count", "200", "--seed", "1"], capsys)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {r[5] for r in rows} == {"1", "2", "3"}
    for r in rows:
        assert r[5] == str(phi_branch(float(r[1])) + 1)


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
    _, desc = bundled_chep_instance()
    # no base: two 0-cells joined by an edge
    desc["complex"] = {"base": None, "cells": [
        {"dim": 0}, {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints", "pos": {"cell": 0}, "neg": {"cell": 1}}},
    ]}
    path = tmp_path / "absolute.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.2"], capsys)
    assert code == 0
    rec = {p["property"]: p for p in json.loads(out)["properties"]}["H_over_base_is_h"]
    assert rec["pass"] and rec["worst_dev"] == 0.0
    assert rec["note"] == "vacuous: the complex has no base"


def test_extend_no_base_is_vacuous_over_base(tmp_path, capsys):
    _, desc = bundled_extend_instance()
    desc["complex"] = {"base": None, "cells": [
        {"dim": 0}, {"dim": 0},
        {"dim": 1, "attach": {"kind": "endpoints", "pos": {"cell": 0}, "neg": {"cell": 1}}},
    ]}
    path = tmp_path / "absolute.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.2"], capsys)
    assert code == 0
    rec = {p["property"]: p for p in json.loads(out)["properties"]}["lift_restricts_to_f"]
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
    ["chep", "bundled", "--seed", "-1"],
    ["verify", "smoothfn", "--seed", "1.5"],
    ["verify", "smoothfn", "--samples", "-0.5"],
    ["dump", "--n", "x"],
    ["verify", "smoothfn", "--seed", "-1"],
    ["dump", "--seed", "x"],
    ["dump", "--count", "-3"],
    ["dump", "--count", "1.5"],
])
def test_bad_numeric_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


# the run-configuration flags, the tolerance and FD-order flags that
# pinning the ladder removed among them: a subcommand rejects each it
# does not read
CONFIG_FLAGS = ["--tol-alg", "--tol-rt", "--tol-fd", "--tol-lift", "--samples",
                "--fd-order", "--seed", "--report", "--disable-wrinkle"]
KEPT_FLAGS = {"verify": {"--samples", "--seed", "--report"},
              "eval": {"--disable-wrinkle"},
              "chep": {"--samples", "--seed", "--report"},
              "dump": {"--seed", "--disable-wrinkle"}}
REMOVED = [(cmd, flag) for cmd, kept in KEPT_FLAGS.items()
           for flag in CONFIG_FLAGS if flag not in kept]


def test_each_subcommand_has_only_the_flags_it_reads():
    from difftop.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {cmd: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
             for cmd, p in sub.choices.items()}
    assert flags["verify"] == KEPT_FLAGS["verify"]
    assert flags["eval"] == KEPT_FLAGS["eval"] | {"--json-points"}
    assert flags["chep"] == KEPT_FLAGS["chep"] | {"--csv"}
    assert flags["dump"] == KEPT_FLAGS["dump"] | {"--n", "--count", "--out"}
    assert sum(map(len, flags.values())) == 14


@pytest.mark.parametrize("cmd,flag", REMOVED)
def test_flag_a_subcommand_does_not_read_exits_2(cmd, flag, capsys):
    argv = {"verify": ["verify", "smoothfn"], "eval": ["eval", "lambda", "0.5"],
            "chep": ["chep", "bundled"], "dump": ["dump"]}[cmd]
    argv = argv + [flag] + ([] if flag == "--disable-wrinkle" else ["1"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_config_is_samples_and_seed(capsys):
    # the tolerances are pinned, so a report's config holds only the flags
    for argv in (["verify", "smoothfn"], ["chep", "bundled"]):
        code, out, _ = run_cli(argv + ["--samples", "0.05", "--seed", "4"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {"samples": 0.05, "seed": 4}
    code, out, _ = run_cli(["verify", "smoothfn", "--samples", "0.05", "--report", "text"],
                           capsys)
    assert code == 0 and out.endswith("result: pass\n")


def _full_disk_open(path, *args, **kwargs):
    """open() whose file takes no write, as on a full disk."""
    fh = open(path, *args, **kwargs)

    def write(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fh.write = write
    return fh


@pytest.mark.parametrize("argv,to_stdout", [
    (["verify", "smoothfn", "--samples", "0.05"], True),
    (["dump", "--out", "rows.csv"], False),
    (["chep", "bundled", "--samples", "0.05", "--csv", "rows.csv"], False),
])
def test_full_disk_exits_2_with_one_line(argv, to_stdout, tmp_path, capsys, monkeypatch):
    if to_stdout:  # a redirected stdout: the system's full device
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as out:
            proc = subprocess.run([sys.executable, "-m", "difftop.cli"] + argv, stdout=out,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        code, err = proc.returncode, proc.stderr
    else:  # an output file, in a temporary directory, whose writes fail
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "open", _full_disk_open, raising=False)
        code, _, err = run_cli(argv, capsys)
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert code == 2
    assert err == "cannot write output: [Errno 28] No space left on device\n"


def test_closed_pipe_exits_2_with_one_line():
    proc = subprocess.Popen([sys.executable, "-m", "difftop.cli", "dump", "--count", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("n,s,t,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "cannot write output: [Errno 32] Broken pipe\n"


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


def _replace(desc, path, value):
    """A copy of desc with the node at path (a tuple of keys) replaced."""
    if not path:
        return value
    out = copy.deepcopy(desc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("path,value,message", [
    (("complex", "cells", 0), 5, "cell must be a JSON object"),
    (("complex",), [], "complex must be a JSON object"),
    (("complex", "cells", 1, "attach", "pos"), 3, "attach target must be a JSON object"),
    (("fibration",), "product", "fibration must be a JSON object"),
    (("k_offset",), None, "k_offset must be a finite number"),
    (("complex", "base"), 5, 'complex base must be "point" or null'),
])
def test_chep_node_of_wrong_json_type_exits_2(tmp_path, capsys, path, value, message):
    _, desc = bundled_chep_instance()
    path_ = tmp_path / "wrong_type.json"
    path_.write_text(json.dumps(_replace(desc, path, value)))
    code, out, err = run_cli(["chep", str(path_), "--samples", "0.01"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot load instance: " + message) and err.count("\n") == 1


def test_chep_base_target_without_a_base_exits_2(tmp_path, capsys):
    _, desc = bundled_chep_instance()
    desc["complex"]["base"] = None
    path = tmp_path / "no_base.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert "attach target is the base, but the complex has none" in err


def test_chep_too_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot load instance") and err.count("\n") == 1


@pytest.mark.parametrize("bundled,key,kind,accepted", [
    (bundled_chep_instance, "fibration", "trivial_product", "product, point"),
    (bundled_extend_instance, "oracle", "product", "trivial_product"),
])
def test_fibration_kind_the_instance_cannot_call_exits_2(tmp_path, capsys, bundled,
                                                         key, kind, accepted):
    _, desc = bundled()
    desc[key] = {"kind": kind}
    path = tmp_path / "wrong_oracle.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"{key} kind {kind!r} is not one of: {accepted}" in err


def _misspell_k_offset(desc):
    desc["k_ofset"] = desc.pop("k_offset")  # ignored, it would leave the data compatible


def _cells(desc):
    return desc["complex"]["cells"]


@pytest.mark.parametrize("bundled,edit,message", [
    (functools.partial(bundled_chep_instance, k_offset=0.5), _misspell_k_offset,
     "'k_ofset' in chep instance; accepted: fibration, complex, k, fiber0, "
     "fiber_base, k_offset"),
    (bundled_extend_instance, lambda d: d.update(oracle={"knd": "trivial_product"}),
     "'knd' in trivial_product oracle; accepted: kind, fiber_dim"),
    (bundled_extend_instance, lambda d: d.update(colour=1), "'colour' in extend instance"),
    (bundled_chep_instance, lambda d: d["fibration"].update(fibre="R"),
     "'fibre' in product fibration; accepted: kind, base, fiber"),
    (bundled_chep_instance, lambda d: d["complex"].update(cell=[]), "'cell' in complex"),
    (bundled_chep_instance, lambda d: _cells(d)[0].update(attach={}),
     "'attach' in 0-cell; accepted: dim"),
    (bundled_chep_instance, lambda d: _cells(d)[1].update(name="edge"), "'name' in cell"),
    (bundled_chep_instance, lambda d: _cells(d)[1]["attach"].update(cell=0),
     "'cell' in endpoints attach"),
    (bundled_extend_instance, lambda d: _cells(d)[2]["attach"].update(pos={"base": True}),
     "'pos' in wrap attach"),
    (bundled_chep_instance, lambda d: _cells(d)[1]["attach"]["pos"].update(cell=0),
     "'cell' in base attach target; accepted: base"),
    (bundled_chep_instance, lambda d: _cells(d)[1]["attach"]["neg"].update(base_=True),
     "'base_' in attach target; accepted: base, cell"),
    (bundled_chep_instance, lambda d: d.update(k={"op": "var", "index": 0, "value": 2}),
     "'value' in var; accepted: op, index"),
    (bundled_chep_instance, lambda d: d.update(k={"op": "const", "value": 2, "args": []}),
     "'args' in const; accepted: op, value"),
    (bundled_extend_instance, lambda d: d["bottom"].update(arg=[1.0]),
     "'arg' in add; accepted: op, args"),
])
def test_instance_key_no_kind_reads_exits_2(tmp_path, capsys, bundled, edit, message):
    _, desc = bundled()
    edit(desc)
    path = tmp_path / "unknown_key.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot load instance: unknown key " + message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", [
    {"op": "sin", "args": [{"op": "mul", "args": [1e308, 10.0]}]},  # sin(inf)
    {"op": "exp", "args": [{"op": "mul", "args": [800.0, {"op": "var", "index": 0}]}]},
    {"op": "pow", "args": [-1.0, 0.5]},  # a complex value
    {"op": "div", "args": [1.0, {"op": "var", "index": 1}]},  # 1 / lambda(0)
])
def test_chep_expression_failing_while_sampling_exits_2(tmp_path, capsys, k):
    _, desc = bundled_chep_instance()
    desc["k"] = k
    path = tmp_path / "raises.json"
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path), "--samples", "0.01"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("cannot evaluate instance: k cannot be evaluated at")
    assert err.count("\n") == 1


def test_extend_instance_with_a_two_dimensional_fiber(tmp_path, capsys):
    _, desc = bundled_extend_instance()
    desc["oracle"]["fiber_dim"] = 2
    desc["f_fiber"] = [0.4, -0.2]
    path = tmp_path / "fiber2.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["chep", str(path), "--samples", "0.05"], capsys)
    assert code == 0 and json.loads(out)["passed"]
    desc["f_fiber"] = [0.4]
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(["chep", str(path)], capsys)
    assert code == 2 and "f_fiber must be a list of fiber_dim = 2 numbers" in err


def _paths(node, prefix=()):
    """The path of every node of a JSON tree, the root included."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_DESCS = {"chep": bundled_chep_instance()[1], "extend": bundled_extend_instance()[1]}
_NODES = [(kind, path) for kind, desc in _DESCS.items() for path in _paths(desc)]
# words of the instance format, so that replacements often parse some way
_WORDS = sorted({key for _, path in _NODES for key in path if isinstance(key, str)}
                | {"op", "var", "const", "value", "index", "args", "sin", "exp", "div",
                   "pow", "lambda", "point", "product", "trivial_product", "endpoints",
                   "wrap", "base", "cell"})
_SUBTREES = [functools.reduce(lambda n, k: n[k], path, _DESCS[kind])
             for kind, path in _NODES]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(_WORDS) | st.text(max_size=6) | st.sampled_from(_SUBTREES),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=4),
                                     inner, max_size=4)),
    max_leaves=8)


def test_instance_fuzz_exits_with_a_documented_code(tmp_path):
    """One node of a bundled desc replaced by any JSON value: no traceback.

    The exit code is 0, 2 or 3, or 1 with a failed property record.
    """
    path = tmp_path / "fuzz.json"

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(_NODES), _JSON)
    def run(node, value):
        kind, at = node
        path.write_text(json.dumps(_replace(_DESCS[kind], at, value)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["chep", str(path), "--samples", "0.01"])
        assert code in (0, 1, 2, 3), err.getvalue()
        if code == 1:
            assert not all(r["pass"] for r in json.loads(out.getvalue())["properties"])

    start = time.perf_counter()
    run()
    assert time.perf_counter() - start <= 10.0
