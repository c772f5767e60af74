"""The demos and the bundled instance files run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name, code", [("chep_interval.json", 0),
                                        ("chep_incompatible.json", 3),
                                        ("extend_two_cells.json", 0)])
def test_bundled_instance_exit_code(name, code):
    proc = _run(["-m", "difftop.cli", "chep", f"demos/instances/{name}"])
    assert proc.returncode == code, proc.stderr
