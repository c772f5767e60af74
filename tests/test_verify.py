import math

import difftop.smoothfn
from difftop.verify import RunConfig, suite_smoothfn, worst


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
