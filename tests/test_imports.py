"""Import hygiene: no unused imports or exports, and no scipy at CLI start or in use.

Lint: every name a module imports is referenced in that module, every
name in a package module's ``__all__`` is referenced outside it, and no
module of the package calls ``allclose``.

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


def exported_names(source):
    """The names listed in source's top-level ``__all__``, if any."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


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
    return sorted(imported - used - set(exported_names(source)))


def test_checker_finds_unused_and_skips_reexports():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "import x.y\nfrom __future__ import annotations\n"
           "__all__ = ['c']\nprint(np.pi, x.y)\n")
    assert unused_imports(src) == ["e", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def allclose_calls(source):
    """Line numbers of the calls to anything named allclose in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "allclose"]


def test_checker_finds_allclose_calls():
    src = "import numpy as np\nnp.allclose(a, b)\nfrom numpy import allclose\nallclose(a, b)\n"
    assert allclose_calls(src) == [2, 4]


@pytest.mark.parametrize("path", [p for p in FILES if p.parent.name == "difftop"],
                         ids=lambda p: p.name)
def test_package_never_calls_allclose(path):
    # its default rtol loosens a documented absolute slack; use max_dev
    assert allclose_calls(path.read_text()) == []


def test_cli_import_leaves_scipy_unloaded():
    # difftop does not depend on scipy: importing scipy.optimize costs more
    # than the rest of starting the CLI, and smooth_check inverts charts in
    # closed form
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, difftop, difftop.cli; "
            "difftop.verify.run_suite('diffeology'); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def referenced_names(source):
    """Names, attributes, imported names and identifier strings in source.

    A string counts because perfbench's tracer patches functions by name.
    """
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_checker_collects_references():
    src = "from m import a\nb.c(d)\ngetattr(m, 'e')\n__all__ = ['f']\n"
    assert {"a", "b", "c", "d", "e", "f"} <= referenced_names(src)
    assert exported_names(src) == ["f"]


PACKAGE = sorted(ROOT.glob("src/difftop/*.py"))
USERS = PACKAGE + sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"),
                          *ROOT.glob("perfbench/**/*.py")])


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_export_is_used_outside_its_module(path):
    # an export nothing else names is dead API: delete it or drop it from
    # __all__ (the package __init__ re-exporting a name counts as a use)
    refs = set().union(*(referenced_names(p.read_text()) for p in USERS if p != path))
    assert [name for name in exported_names(path.read_text()) if name not in refs] == []
