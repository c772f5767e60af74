"""Import hygiene: no unused imports, and no heavy import at CLI start.

Lint: every name a module imports is referenced in that module.

Standard-library only (ast), so it runs wherever the tests run.  A name
listed in the module's ``__all__`` counts as used: it is re-exported.
The package's ``__init__.py`` is skipped, since every name it imports is
there to be re-exported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*ROOT.glob("src/difftop/*.py"), *ROOT.glob("tests/*.py"),
                            *ROOT.glob("demos/*.py")] if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in source and never referenced, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0]
                         for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_and_skips_reexports():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "import x.y\nfrom __future__ import annotations\n"
           "__all__ = ['c']\nprint(np.pi, x.y)\n")
    assert unused_imports(src) == ["e", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where it is used (diffeology._factors_through):
    # loading it is most of the cost of starting the CLI
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, difftop.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
