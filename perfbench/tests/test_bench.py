"""Tests of the benchmark itself: metric names, gates and fault injection.

Run from the repository root:
    python3 -m pytest -q perfbench/tests

Runs are short (one second of timed batches, one set-up probe) and
verify-all passes at a reduced sampling level; the gates under test are
the same as in full runs.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from difftop import diffeology, instances, lifting, smoothfn, subdivision  # noqa: E402
from difftop.smoothfn import SmoothnessReport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "VERIFY_SAMPLES", 0.05)


def measure(workload, trace=False):
    result, _ = run.measure(workload, SEED, 1.0, trace)
    return result


def test_spec_matches_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    result = measure(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_chart_fd_makes_no_inversion_calls():
    metrics = measure("chart-fd", trace=True)["metrics"]
    assert metrics["smoothfn.lambda_inv.calls"]["value"] == 0
    assert metrics["smoothfn.xi_inv.calls"]["value"] == 0
    assert metrics["smoothfn.smoothness_check.calls"]["value"] > 0


def test_tracer_restores_every_patched_attribute():
    before = {(id(mod), attr): getattr(mod, attr) for mod, attr, _ in tracing.SPAN_SITES}
    before_k = instances.ChepInstance.k
    with tracing.Tracer():
        assert hasattr(subdivision.lambda_inv, "__wrapped__")
        # smoothfn's own profile globals stay unwrapped under tracing
        assert not any(hasattr(getattr(smoothfn, g), "__wrapped__")
                       for g in ("lambda_fn", "gamma", "xi"))
    for mod, attr, _ in tracing.SPAN_SITES:
        assert getattr(mod, attr) is before[(id(mod), attr)]
    assert instances.ChepInstance.k is before_k
    assert subdivision.lambda_inv is smoothfn.lambda_inv


def test_nan_deviation_is_a_failure():
    checks = workloads.Checks()
    assert not checks.within("x", float("nan"), 1.0)
    assert checks.worst["x"] == math.inf
    assert math.isnan(workloads.max_dev([0.0, float("nan")], [0.0, 0.0]))


# -- fault injection: each fault must make failed_frac > 0 ------------------

def failed_frac(result):
    return result["failed"] / result["attempted"]


def test_fault_psi_inv_shifted(monkeypatch):
    orig = subdivision.psi_inv
    monkeypatch.setattr(subdivision, "psi_inv",
                        lambda n, cyl, wrinkle=True: orig(n, cyl, wrinkle) + 1e-6)
    result = measure("subdiv-roundtrip")
    assert failed_frac(result) > 0 and not result["correct"]


def test_fault_lift_oracle_returns_nan_fiber(monkeypatch):
    orig = instances.product_fibration

    def nan_fiber(B, F):
        fib = orig(B, F)

        def lift_k(n, top, bottom):
            lifted = fib.lift_k(n, top, bottom)
            return lambda w: (lifted(w)[0], float("nan"))

        return lifting.Fibration(fib.total, fib.base, fib.project, lift_k)

    monkeypatch.setattr(instances, "product_fibration", nan_fiber)
    result = measure("lift-descent")
    assert failed_frac(result) > 0 and not result["correct"]


def test_fault_smoothness_check_always_passes(monkeypatch):
    def always_pass(f, point, max_order, config=None, expected=None):
        rep = SmoothnessReport(point=float(point), max_order_tested=max_order,
                               tolerance_used=1e-4)
        for k in range(1, max_order + 1):
            rep.fd_estimates[k] = 0.0
            rep.verdicts[k] = "pass"
        return rep

    monkeypatch.setattr(smoothfn, "smoothness_check", always_pass)
    monkeypatch.setattr(diffeology, "smoothness_check", always_pass)
    result = measure("chart-fd")
    assert failed_frac(result) > 0 and not result["correct"]


def test_verify_all_gates_verdict_and_determinism(monkeypatch):
    from difftop import verify
    reports = iter([{"passed": True, "properties": [], "n": 1},
                    {"passed": True, "properties": [], "n": 2},
                    {"passed": False, "properties": [], "n": 1}])
    monkeypatch.setattr(verify, "run_suite", lambda name, cfg=None: next(reports))
    wl = workloads.VerifyAll(SEED)
    for b in range(3):
        wl.batch(b)
    # the second report's bytes differ from the first; the third did not pass
    assert (wl.checks.attempted, wl.checks.failed) == (3, 2)


def test_verify_all_counts_fd_control_miss_without_failing(monkeypatch):
    from difftop import verify

    def prop(name, ok):
        return {"property": name, "pass": ok}

    control = next(iter(workloads.FD_CONTROLS))
    reports = iter([{"passed": False, "properties": [prop(control, False)]},
                    {"passed": False, "properties": [prop("subdivision.x", False)]},
                    {"passed": False, "properties": [prop(control, False),
                                                     prop("lifting.y", False)]}])
    monkeypatch.setattr(verify, "run_suite", lambda name, cfg=None: next(reports))
    for b, failed in enumerate((0, 1, 1)):
        # a fresh workload per report, so the byte-identity gate stays out of it
        wl = workloads.VerifyAll(SEED)
        wl.batch(b)
        assert (wl.checks.attempted, wl.checks.failed) == (1, failed)
        assert wl.checks.counts.get("fd_control_missed", 0) == (b != 1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_seed():
    a, b = workloads.SubdivRoundtrip(SEED), workloads.SubdivRoundtrip(SEED)
    assert all(np.array_equal(a.fwd[n], b.fwd[n]) for n in range(4))
    assert workloads.LiftDescent(SEED).chep_json == workloads.LiftDescent(SEED).chep_json
