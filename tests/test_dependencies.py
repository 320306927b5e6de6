"""numpy is the package's only runtime dependency.

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
