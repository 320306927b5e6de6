"""numpy is the package's only runtime dependency, and each module's
`__all__` names only what it defines or imports.

Every module under src/surgact is parsed, not imported, so a module that
would fail to import is still checked.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surgact"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of the modules a file imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


MODULES = sorted(PACKAGE.rglob("*.py"))


def test_the_package_has_modules():
    assert PACKAGE / "nn.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert absolute_imports(path) - ALLOWED == set()


def test_the_check_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import nn\nimport numpy.linalg\n"
                     "def f():\n    from scipy import signal\n")
    assert absolute_imports(probe) - ALLOWED == {"scipy"}


def exported_and_bound(path: Path) -> tuple[list[str], set[str]]:
    """The names a module's `__all__` lists, and the names its top level
    binds: definitions, assignments and imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported: list[str] = []
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return exported, bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_exists(path):
    exported, bound = exported_and_bound(path)
    assert [name for name in exported if name not in bound] == []


def test_the_export_check_sees_a_stale_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .m import a\nb: int = 1\ndef c(): pass\nclass D: pass\n"
                     "__all__ = ['a', 'b', 'c', 'D', 'Gone']\n")
    exported, bound = exported_and_bound(probe)
    assert [name for name in exported if name not in bound] == ["Gone"]
