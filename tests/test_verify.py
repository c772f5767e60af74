import math

import numpy as np
import pytest

import difftop.diskmodel
import difftop.smoothfn
import difftop.subdivision
import difftop.verify
from difftop.cellcomplex import CellComplex
from difftop.homotopy import path_components
from difftop.instances import bundled_chep_instance, chep_instance_from_json, complex_from_json
from difftop.lifting import Fibration
from difftop.verify import (RunConfig, Tally, _components_oracle, check_chep_instance, run_suite,
                            suite_diskmodel, suite_homotopy, suite_smoothfn, suite_subdivision)


def _props(records):
    return {r["property"]: r for r in records}


def _tally(*adds, tol=0.0, rows=False):
    """A tally fed each entry of adds, by add_rows when rows is set."""
    t = Tally("p", 1, tol)
    for devs in adds:
        if rows:
            t.add_rows(devs)
        else:
            t.add(*devs)
    return t.record()


def test_tally_add_counts_non_finite_as_inf():
    assert _tally((0.0, math.nan))["worst_dev"] == math.inf  # max(0.0, nan) is 0.0
    assert _tally((math.nan, 0.0))["worst_dev"] == math.inf
    assert _tally((math.nan,), (0.0,))["worst_dev"] == math.inf
    assert _tally((0.0,), (math.nan,))["worst_dev"] == math.inf
    assert _tally((1e-3, -math.inf, 2e-3))["worst_dev"] == math.inf
    assert _tally((1e-3, 2e-3, 0.0))["worst_dev"] == 2e-3
    assert _tally((1e-3,), (2e-3,), (0.0,))["worst_dev"] == 2e-3


def test_nan_inverse_fails_roundtrip_property(monkeypatch):
    # negative control: a NaN at the second grid point, where plain max()
    # would drop it, must fail the property
    cfg = RunConfig(samples=0.1)
    assert _props(suite_smoothfn(cfg))["xi_inv_roundtrip"]["pass"]
    real = difftop.smoothfn.xi_inv
    calls = []

    def xi_inv_nan(y):
        calls.append(y)
        return math.nan if len(calls) == 2 else real(y)

    monkeypatch.setattr(difftop.smoothfn, "xi_inv", xi_inv_nan)
    rec = _props(suite_smoothfn(cfg))["xi_inv_roundtrip"]
    assert not rec["pass"]
    assert rec["worst_dev"] == math.inf


def _nan_in_row(f, row):
    """f with its result's row ``row`` set to NaN, on arrays that have it."""
    def patched(*args, **kwargs):
        out = f(*args, **kwargs)
        if len(out) > row:
            out = out.copy()
            out[row] = math.nan
        return out
    return patched


@pytest.mark.parametrize("module, name, suite, props", [
    (difftop.subdivision, "psi_inv_batch", suite_subdivision,
     ["psi_roundtrip_forward", "psi_roundtrip_backward"]),
    (difftop.diskmodel, "section_batch", suite_diskmodel, ["q_section_roundtrip"]),
])
def test_nan_row_fails_batched_roundtrip_properties(monkeypatch, module, name, suite, props):
    # negative control on the array path: one NaN row among the passing
    # ones must reach the record as inf, not be dropped by a max
    cfg = RunConfig(samples=0.05)
    assert all(_props(suite(cfg))[p]["pass"] for p in props)
    monkeypatch.setattr(module, name, _nan_in_row(getattr(module, name), 1))
    rec = _props(suite(cfg))
    for p in props:
        assert not rec[p]["pass"]
        assert rec[p]["worst_dev"] == math.inf


@pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
def test_swapped_branches_fail_region_preservation(monkeypatch, order):
    # negative control: a slab evaluated by another slab's branch lands off
    # the target square or in another target region
    cfg = RunConfig(samples=0.05)
    assert _props(suite_subdivision(cfg))["region_preservation"]["pass"]
    branches = difftop.subdivision.PHI_BRANCHES
    monkeypatch.setattr(difftop.subdivision, "PHI_BRANCHES", tuple(branches[i] for i in order))
    rec = _props(suite_subdivision(cfg))["region_preservation"]
    assert not rec["pass"]
    assert rec["worst_dev"] > 0


def test_path_components_mutant_that_ignores_the_last_edge_fails_order_independence(
        monkeypatch):
    # negative control: the two attaching orders of one edge set usually end
    # on different edges, so dropping the last-attached one splits differently
    cfg = RunConfig()
    assert _props(suite_homotopy(cfg))["path_components_order_independent"]["pass"]

    def ignores_last_edge(cx):
        cells = cx.cells[:-1] if cx.cells and cx.cells[-1].dim == 1 else cx.cells
        return path_components(CellComplex(cx.base, cells))

    monkeypatch.setattr(difftop.verify, "path_components", ignores_last_edge)
    rec = _props(suite_homotopy(cfg))["path_components_order_independent"]
    assert not rec["pass"]
    assert rec["worst_dev"] > 0


def test_tally_add_rows_counts_non_finite_as_inf():
    assert _tally(np.array([]), rows=True)["worst_dev"] == 0.0
    assert _tally(np.array([1e-3, math.nan, 2e-3]), rows=True)["worst_dev"] == math.inf
    assert _tally(np.array([math.nan, 1e-3]), rows=True)["worst_dev"] == math.inf
    assert _tally(np.array([1e-3, math.nan]), rows=True)["worst_dev"] == math.inf
    assert _tally(np.array([1e-3, -math.inf]), rows=True)["worst_dev"] == math.inf
    assert _tally(np.array([1e-3, 2e-3]), rows=True)["worst_dev"] == 2e-3
    assert _tally(np.array([3e-3]), np.array([]), rows=True)["worst_dev"] == 3e-3


def test_nan_lift_fails_chep_check():
    # negative control: an oracle whose lifts carry a NaN fiber must fail
    # the instance check shared by the lifting suite and `difftop chep`
    inst, _ = bundled_chep_instance()
    p = inst.fibration

    def lift_k_rows(n, top, bottom):
        lifted = p.lift_k_rows(n, top, bottom)

        def nan_fiber(w):
            out = lifted(w)
            out[:, 1:] = math.nan
            return out
        return nan_fiber

    inst.fibration = Fibration(p.total, p.base, p.project, p.lift_k, lift_k_rows)
    cfg = RunConfig(samples=0.05)
    records, _ = check_chep_instance(inst, cfg, cfg.rng("nan-oracle"))
    rec = _props(records)
    assert rec["H_at_time_zero_is_f"]["worst_dev"] == math.inf
    assert not rec["H_at_time_zero_is_f"]["pass"]
    # the lifting suite folds these records into chep_demo_equations
    assert max(r["worst_dev"] for r in records) == math.inf


def test_tally_fails_on_non_finite_and_passes_at_the_bound():
    assert _tally((1e-9,), tol=1e-9)["pass"]
    assert _tally((0.0,), tol=0.0)["pass"]
    assert not _tally((2e-9,), tol=1e-9)["pass"]
    for dev in (math.nan, math.inf, -math.inf):
        assert not _tally((dev,), tol=1e-9)["pass"]
    assert not _tally((math.inf,), tol=math.inf)["pass"]
    # a count property adds its count once
    count = _tally((3,))
    assert (count["worst_dev"], count["pass"]) == (3.0, False)


def test_tally_verdict_replaces_the_tolerance_rule():
    for dev, verdict in ((0.5, True), (0.0, False)):
        t = Tally("p", 1, 1e-6)
        t.add(dev)
        t.verdict = verdict
        rec = t.record()
        assert (rec["worst_dev"], rec["pass"]) == (dev, verdict)


def test_yes_no_tally_maps_verdicts_to_unit_deviation():
    def yes_no(ok, note=""):
        t = Tally("p", 3, 0.0, note)
        t.add(float(not ok))
        return t.record()

    yes, no = yes_no(True, "n"), yes_no(False)
    assert (yes["worst_dev"], yes["tol"], yes["pass"], yes["note"]) == (0.0, 0.0, True, "n")
    assert (no["worst_dev"], no["pass"], no["samples"]) == (1.0, False, 3)


def test_chep_instance_samples_every_cell():
    # base, 0-cell, edge and a 2-cell wrapped on the edge: the shared
    # sampler draws points in all four, and every equation holds on them
    _, desc = bundled_chep_instance()
    desc["complex"]["cells"].append({"dim": 2, "attach": {"kind": "wrap", "cell": 1}})
    inst = chep_instance_from_json(desc)
    cfg = RunConfig(samples=0.2)
    records, rows = check_chep_instance(inst, cfg, cfg.rng("every-cell"))
    cells = {x.cell for x, _, _ in rows}
    assert cells == {-1, 0, 1, 2}
    assert all(r["pass"] for r in records)


# the property names of run_suite("all"), per suite
SUITE_PROPERTIES = {
    "smoothfn": ["abs_kink_detected", "lambda_flat_at_ends_fd", "lambda_plateaus_exact",
                 "lambda_symmetry_grid", "xi_fixes_subdivision_walls", "xi_flat_at_walls_fd",
                 "xi_identity_plateaus_exact", "xi_inv_roundtrip", "xi_middle_branch",
                 "xi_monotone_grid", "xi_reflection"],
    "diskmodel": ["q_base_inclusion_exact", "q_section_roundtrip", "q_top_reflects",
                  "retract_homotopy_ends", "retract_include_identity", "unit_norm_outputs"],
    "homotopy": ["concat_endpoints_exact", "concat_plateau", "concat_seam", "glue_double_seam",
                 "path_components_order_independent", "path_components_vs_oracle",
                 "star_boundary_conditions", "star_quotient_fibers"],
    "subdivision": ["phi_branch_agreement", "psi0_inverts_chart", "psi_boundary_into_L",
                    "psi_roundtrip_backward", "psi_roundtrip_forward", "region_preservation",
                    "rho_fixes_outer_bands", "rho_not_idempotent_witness",
                    "seam_control_fails_unwrinkled", "seam_smoothness_wrinkled"],
    "diffeology": ["abs_control_fails", "constant_plots_factor", "exponential_roundtrip_exact",
                   "open_halfopen_consistent", "open_singleton_rejected",
                   "precomposition_closure", "smooth_inclusions_pass",
                   "torus_eq_shift_invariance", "torus_projection_smooth"],
    "lifting": ["canonicalize_idempotent", "chep_demo_equations", "chep_order_independence",
                "chep_rejects_incompatible", "chep_stationary_product", "extend_lift_demo",
                "extend_lift_no_cells", "hep_contract", "product_lift_projection",
                "product_lift_restriction"],
}


def test_run_suite_all_reports_each_property_once():
    # a refactor that drops or duplicates a record fails here
    assert [len(v) for v in SUITE_PROPERTIES.values()] == [11, 6, 8, 10, 9, 10]
    names = [r["property"] for r in run_suite("all", RunConfig(samples=0.01))["properties"]]
    assert len(names) == len(set(names)) == 54
    assert names == sorted(f"{suite}.{prop}" for suite, props in SUITE_PROPERTIES.items()
                           for prop in props)


def _wrap(cell):
    return {"dim": 2, "attach": {"kind": "wrap", "cell": cell}}


def _joining(pos, neg):
    return {"dim": 1, "attach": {"kind": "endpoints", "pos": pos, "neg": neg}}


@pytest.mark.parametrize("base, cells, want", [
    # an edge 0-1 wrapped, a lone 0-cell, and a wrapped loop on it
    (None, [{"dim": 0}, {"dim": 0}, _joining({"cell": 0}, {"cell": 1}), _wrap(2), {"dim": 0},
            _joining({"cell": 4}, {"cell": 4}), _wrap(5)], [[0, 1], [4]]),
    # two wrapped edges on one 0-cell pair and a third 0-cell left alone
    (None, [{"dim": 0}, {"dim": 0}, {"dim": 0}, _joining({"cell": 1}, {"cell": 0}), _wrap(3),
            _wrap(3), _joining({"cell": 0}, {"cell": 1}), _wrap(6)], [[0, 1], [2]]),
    # a chain off a base point, each edge wrapped
    ("point", [{"dim": 0}, _joining({"base": True}, {"cell": 0}), _wrap(1), {"dim": 0},
               _joining({"cell": 0}, {"cell": 3}), _wrap(4)], [[0, 3]]),
])
def test_components_oracle_agrees_on_wrap_two_cells(base, cells, want):
    """The oracle's sphere-sampling branch, on 2-cells wrapped on an edge."""
    cx = complex_from_json({"base": base, "cells": cells})
    assert any(cell.dim == 2 for cell in cx.cells)
    assert path_components(cx) == _components_oracle(cx) == want


def test_components_oracle_pools_the_base():
    """Two 0-cells joined only through a point base lie in one component."""
    cx = complex_from_json({"base": "point", "cells": [
        {"dim": 0}, {"dim": 0}, _joining({"base": True}, {"cell": 0}),
        _joining({"base": True}, {"cell": 1})]})
    assert path_components(cx) == _components_oracle(cx) == [[0, 1]]
