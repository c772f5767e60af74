"""Acceptance gate: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion asserts its pinned tolerances and its runtime budget; the
suites behind them are executed once per session and shared.
"""

import subprocess
import sys
import time

from difftop.verify import RunConfig, run_suite

_CFG = RunConfig()
_CACHE = {}


def _suite(name):
    if name not in _CACHE:
        t0 = time.perf_counter()
        rep = run_suite(name, _CFG)
        _CACHE[name] = (rep, time.perf_counter() - t0)
    return _CACHE[name]


def _props(rep):
    return {p["property"]: p for p in rep["properties"]}


def _announce(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_lambda_identity_suite():
    rep, dt = _suite("smoothfn")
    p = _props(rep)
    ok = (p["lambda_symmetry_grid"]["pass"]
          and p["lambda_symmetry_grid"]["tol"] == 1e-12
          and p["lambda_symmetry_grid"]["samples"] >= 10000
          and p["lambda_plateaus_exact"]["pass"]
          and p["lambda_flat_at_ends_fd"]["pass"]
          and p["lambda_flat_at_ends_fd"]["tol"] == 1e-4)
    _announce(1, "lambda identities, exact plateaus, flat ends", ok and dt < 1.0,
              f"suite {dt:.2f}s < 1s")


def test_criterion_02_xi_suite():
    rep, dt = _suite("smoothfn")
    p = _props(rep)
    checks = ["xi_identity_plateaus_exact", "xi_middle_branch",
              "xi_monotone_grid", "xi_fixes_subdivision_walls",
              "xi_reflection", "xi_inv_roundtrip"]
    ok = all(p[c]["pass"] for c in checks)
    ok = ok and p["xi_monotone_grid"]["samples"] >= 10000
    ok = ok and p["xi_inv_roundtrip"]["tol"] == 1e-8
    ok = ok and p["xi_middle_branch"]["tol"] == 1e-12
    _announce(2, "xi branch/monotonicity/reflection/inversion", ok and dt < 1.0,
              f"suite {dt:.2f}s < 1s")


def test_criterion_03_disk_model():
    rep, dt = _suite("diskmodel")
    p = _props(rep)
    ok = (p["q_section_roundtrip"]["pass"]
          and p["q_section_roundtrip"]["tol"] == 1e-10
          and p["q_section_roundtrip"]["samples"] >= 10000
          and p["q_base_inclusion_exact"]["pass"]
          and p["retract_include_identity"]["pass"]
          and p["retract_include_identity"]["tol"] == 1e-10)
    _announce(3, "disk chart inversion and retraction identities",
              ok and dt < 5.0, f"suite {dt:.2f}s < 5s")


def test_criterion_04_subdivision():
    rep, dt = _suite("subdivision")
    p = _props(rep)
    ok = (p["phi_branch_agreement"]["pass"]
          and p["phi_branch_agreement"]["tol"] == 1e-12
          and p["phi_branch_agreement"]["samples"] >= 1000
          and p["region_preservation"]["pass"]
          and p["psi_roundtrip_forward"]["pass"]
          and p["psi_roundtrip_forward"]["tol"] == 1e-8
          and p["psi_roundtrip_forward"]["samples"] >= 10000
          and p["psi_roundtrip_backward"]["pass"]
          and p["psi_roundtrip_backward"]["samples"] >= 10000
          and p["psi_boundary_into_L"]["pass"]
          and p["seam_smoothness_wrinkled"]["pass"]
          and p["seam_control_fails_unwrinkled"]["pass"])
    _announce(4, "subdivision chart: branches, regions, inversion, seams",
              ok and dt < 30.0, f"suite {dt:.2f}s < 30s")


def test_criterion_05_homotopy_algebra():
    rep, dt = _suite("homotopy")
    p = _props(rep)
    ok = (p["concat_seam"]["pass"] and p["concat_seam"]["tol"] == 1e-12
          and p["concat_endpoints_exact"]["pass"]
          and p["star_quotient_fibers"]["pass"]
          and p["star_quotient_fibers"]["tol"] == 1e-9
          and p["path_components_vs_oracle"]["pass"]
          and p["path_components_vs_oracle"]["samples"] >= 100)
    _announce(5, "concatenation, class product, path components vs oracle",
              ok and dt < 10.0, f"suite {dt:.2f}s < 10s")


def test_criterion_06_covering_homotopy_extension():
    rep, dt = _suite("lifting")
    p = _props(rep)
    pr = p["chep_demo_equations"]
    ok = pr["pass"] and pr["tol"] == 1e-6 and pr["samples"] >= 1000
    _announce(6, "covering homotopy extension equations on the interval demo",
              ok and dt < 10.0,
              f"worst_dev={pr['worst_dev']:.2e}, suite {dt:.2f}s < 10s")


def test_criterion_07_extend_lift():
    rep, dt = _suite("lifting")
    pr = _props(rep)["extend_lift_demo"]
    ok = pr["pass"] and pr["tol"] == 1e-6
    _announce(7, "boundary-oracle lift over the bundled complex",
              ok and dt < 10.0, f"worst_dev={pr['worst_dev']:.2e}")


def test_criterion_08_exponential_law():
    rep, dt = _suite("diffeology")
    pr = _props(rep)["exponential_roundtrip_exact"]
    ok = pr["pass"] and pr["samples"] >= 1000 and pr["worst_dev"] == 0.0
    _announce(8, "curry/uncurry bitwise round-trip", ok and dt < 10.0,
              f"suite {dt:.2f}s")


def test_criterion_09_negative_controls():
    rep_s, _ = _suite("smoothfn")
    rep_d, _ = _suite("diffeology")
    kink = _props(rep_s)["abs_kink_detected"]
    singleton = _props(rep_d)["open_singleton_rejected"]
    ok = kink["pass"] and singleton["pass"]
    _announce(9, "calibration: kink rejected, singleton not open", ok,
              f"kink deviation {kink['worst_dev']:.1f}")


def test_criterion_10_deterministic_reports():
    # determinism is about the bytes: same seed and config, same report
    cmd = [sys.executable, "-m", "difftop.cli", "verify", "all",
           "--seed", "424242", "--samples", "0.05", "--report", "json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = (r1.stdout == r2.stdout and len(r1.stdout) > 0
          and r1.returncode == r2.returncode)
    _announce(10, "verify-all reports byte-identical under a fixed seed", ok,
              f"{len(r1.stdout)} bytes compared")
