"""The names the benchmark in ``perfbench/`` patches and builds still exist.

``perfbench/tracing.py`` wraps module attributes and methods of difftop by
name, and the chart-fd workload builds a SmoothCheckConfig by keyword.
Deleting or renaming one of them breaks the benchmark; this test makes
that fail in the main suite, in well under a second, instead of only in
``perfbench/tests``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from difftop import diffeology, lifting, subdivision

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_site():
    tracing = _load("tracing")
    before = [getattr(mod, attr) for mod, attr, _ in tracing.SPAN_SITES]
    tracer = tracing.Tracer().install()
    try:
        H = lifting.Homotopy(lambda x, t: t, "I_tilde")
        assert H(None, 0.5) == 0.5
        c = subdivision.psi(1, np.array([0.0, 0.6, 0.8]))
        w = subdivision.psi_inv(1, c, True)
        assert np.allclose(w, [0.0, 0.6, 0.8])
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr, _ in tracing.SPAN_SITES] == before
    assert "lifting.H" in tracer.names and "subdivision.psi_inv" in tracer.names


def test_chart_fd_smooth_check_config_builds():
    workloads = _load("workloads")
    cfg = diffeology.SmoothCheckConfig(samples_per_generator=2, grid_per_axis=3,
                                       seed=1)
    for f, smooth in workloads._line_maps():
        assert diffeology.smooth_check(f, cfg).passed == smooth
