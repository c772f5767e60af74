import math

import numpy as np
import pytest

import difftop.diskmodel
import difftop.smoothfn
import difftop.subdivision
from difftop.cli import _chep_props
from difftop.instances import bundled_chep_instance, chep_instance_from_json
from difftop.lifting import Fibration
from difftop.verify import (TOL_LIFT, RunConfig, check_chep_instance, suite_diskmodel,
                            suite_smoothfn, suite_subdivision, worst)


def _props(records):
    return {r["property"]: r for r in records}


def test_worst_counts_non_finite_as_inf():
    assert worst(0.0, math.nan) == math.inf  # max(0.0, nan) is 0.0
    assert worst(math.nan, 0.0) == math.inf
    assert worst(1e-3, -math.inf, 2e-3) == math.inf
    assert worst(1e-3, 2e-3, 0.0) == 2e-3


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


def test_worst_rows_counts_non_finite_as_inf():
    from difftop.verify import _worst_rows
    assert _worst_rows(np.array([])) == 0.0
    assert _worst_rows(np.array([1e-3, math.nan, 2e-3])) == math.inf
    assert _worst_rows(np.array([1e-3, 2e-3])) == 2e-3


def test_nan_lift_fails_chep_check():
    # negative control: an oracle whose lifts carry a NaN fiber must fail
    # the instance check shared by the lifting suite and `difftop chep`
    inst, _ = bundled_chep_instance()
    p = inst.fibration

    def lift_k(n, top, bottom):
        lifted = p.lift_k(n, top, bottom)
        return lambda w: (lifted(w)[0], math.nan)

    inst.fibration = Fibration(p.total, p.base, p.project, lift_k)
    cfg = RunConfig(samples=0.05)
    devs, _ = check_chep_instance(inst, cfg, cfg.rng("nan-oracle"))
    assert worst(*devs) == math.inf
    rec = {r["property"]: r for r in _chep_props(inst, cfg, cfg.rng("nan-oracle"))}
    assert rec["H_at_time_zero_is_f"]["worst_dev"] == math.inf
    assert not rec["H_at_time_zero_is_f"]["pass"]


def test_within_fails_on_non_finite_and_passes_at_the_bound():
    from difftop.verify import _within
    assert _within("p", 1, 1e-9, 1e-9)["pass"]
    assert _within("p", 1, 0.0, 0.0)["pass"]
    assert not _within("p", 1, 2e-9, 1e-9)["pass"]
    for dev in (math.nan, math.inf):
        assert not _within("p", 1, dev, 1e-9)["pass"]
    assert not _within("p", 1, math.inf, math.inf)["pass"]


def test_holds_maps_verdicts_to_unit_deviation():
    from difftop.verify import _holds
    yes, no = _holds("p", 3, True, "n"), _holds("p", 3, False)
    assert (yes["worst_dev"], yes["tol"], yes["pass"], yes["note"]) == (0.0, 0.0, True, "n")
    assert (no["worst_dev"], no["pass"], no["samples"]) == (1.0, False, 3)


def test_chep_instance_samples_every_cell():
    # base, 0-cell, edge and a 2-cell wrapped on the edge: the shared
    # sampler draws points in all four, and every equation holds on them
    _, desc = bundled_chep_instance()
    desc["complex"]["cells"].append({"dim": 2, "attach": {"kind": "wrap", "cell": 1}})
    inst = chep_instance_from_json(desc)
    cfg = RunConfig(samples=0.2)
    devs, rows = check_chep_instance(inst, cfg, cfg.rng("every-cell"))
    cells = {x.cell for x, _, _ in rows}
    assert cells == {-1, 0, 1, 2}
    assert all(d <= TOL_LIFT for d in devs)
