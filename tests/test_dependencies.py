"""numpy is the package's only runtime dependency, each module's `__all__`
names only what it defines or imports, every name a submodule exports,
and every public function and class of a module without `__all__`, is
read somewhere in the package or the benchmark, every exception class is
one of the three exit-code tiers or is caught by type in the package,
each UPPER_CASE constant is assigned in one module, only `atomic` calls
`json.dumps`, no module imports another's underscore name, and under the
repository's pytest settings a failing hypothesis test fails alone
instead of stopping the suite.

Every module under src/surgact is parsed, not imported, so a module that
would fail to import is still checked.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surgact"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
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


def used_names(paths) -> set[str]:
    """The names these files read, as a bare name or as an attribute."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


@functools.cache
def names_read_by_the_code() -> set[str]:
    return used_names(MODULES + sorted(PERFBENCH.rglob("*.py")))


# the package's own __all__ lists its submodules, which a caller imports
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_exported_name_is_read(path):
    exported, _ = exported_and_bound(path)
    assert [name for name in exported if name not in names_read_by_the_code()] == []


def test_the_read_check_sees_an_unread_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("__all__ = ['a', 'b', 'Unread']\n"
                     "def a(): pass\ndef b(): pass\nclass Unread: pass\n")
    user = tmp_path / "user.py"
    user.write_text("from . import probe\nfrom .probe import Unread, a\na()\nprobe.b()\n")
    exported, _ = exported_and_bound(probe)
    used = used_names([probe, user])
    assert [name for name in exported if name not in used] == ["Unread"]


def public_definitions(path: Path) -> list[str]:
    """The functions and classes a module's top level defines under a name
    without a leading underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


WITHOUT_ALL = [p for p in MODULES if not exported_and_bound(p)[0]]


@pytest.mark.parametrize("path", WITHOUT_ALL, ids=lambda p: p.name)
def test_every_public_definition_is_read(path):
    # a module without __all__ exports all its public names; one nothing
    # reads is code no result depends on
    assert [name for name in public_definitions(path)
            if name not in names_read_by_the_code()] == []


def test_the_definition_check_sees_an_unread_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("LIMIT = 3\ndef used(): pass\ndef _private(): pass\n"
                     "class Unread: pass\nclass Read: pass\n")
    user = tmp_path / "user.py"
    user.write_text("from . import probe\nfrom .probe import used\nused()\nprobe.Read()\n")
    used = used_names([probe, user])
    assert [name for name in public_definitions(probe) if name not in used] == ["Unread"]


# the classes `cli.main` maps to exit codes 3, 1 and 2
TIERS = {"SurgactError", "ConfigError", "DataError"}


def defined_classes(path: Path) -> list[str]:
    """The classes a module defines at its top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def caught_names(paths) -> set[str]:
    """The names the `except` clauses of these files catch, bare or as an
    attribute, alone or in a tuple."""
    caught = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.attr if isinstance(t, ast.Attribute) else t.id
                              for t in types if isinstance(t, (ast.Name, ast.Attribute)))
    return caught


def test_every_error_class_is_a_tier_or_caught():
    # a class no caller tells apart from its tier is one more name to import
    caught = caught_names(MODULES)
    assert [name for name in defined_classes(PACKAGE / "errors.py")
            if name not in TIERS | caught] == []


def test_the_error_check_sees_an_uncaught_class(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class SurgactError(Exception): pass\n"
                      "class ConfigError(SurgactError): pass\n"
                      "class DataError(SurgactError): pass\n"
                      "class Caught(SurgactError): pass\n"
                      "class Uncaught(DataError): pass\n")
    user = tmp_path / "user.py"
    user.write_text("from . import errors\nfrom .errors import Caught, Uncaught\n"
                    "try:\n    raise Uncaught('x')\n"
                    "except (errors.Caught, KeyError):\n    pass\n")
    caught = caught_names([errors, user])
    assert caught == {"Caught", "KeyError"}
    assert [name for name in defined_classes(errors)
            if name not in TIERS | caught] == ["Uncaught"]


def constants_assigned(path: Path) -> set[str]:
    """The UPPER_CASE names a module's top level assigns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id.isupper())
    return names


def constants_assigned_twice(paths) -> dict[str, list[str]]:
    """Each constant that more than one of these modules assigns, with them."""
    owners: dict[str, list[str]] = {}
    for path in paths:
        for name in constants_assigned(path):
            owners.setdefault(name, []).append(path.name)
    return {name: where for name, where in owners.items() if len(where) > 1}


def test_every_constant_is_assigned_in_one_module():
    # a second assignment is a second definition that can drift
    assert constants_assigned_twice(MODULES) == {}


def test_the_constant_check_sees_a_second_assignment(tmp_path):
    first = tmp_path / "first.py"
    first.write_text("GAP = -1\nLIMIT: int = 3\nlower = 1\n")
    second = tmp_path / "second.py"
    second.write_text("from .first import LIMIT\nGAP = -1\n"
                      "def f():\n    LIMIT = 4\n")
    assert constants_assigned_twice([first, second]) == {"GAP": ["first.py", "second.py"]}


def calls_json_dumps(path: Path) -> bool:
    """Whether a file calls `json.dumps` or `json.dump`."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
               and node.func.attr in ("dump", "dumps")
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_only_atomic_writes_json_text():
    # one owner of the JSON text the package emits: `atomic.json_text`
    assert [path.name for path in MODULES if calls_json_dumps(path)] == ["atomic.py"]


def test_the_json_check_sees_a_second_call_site(tmp_path):
    atomic = tmp_path / "atomic.py"
    atomic.write_text("import json\ndef json_text(obj):\n    return json.dumps(obj)\n")
    second = tmp_path / "second.py"
    second.write_text("import json\ndef f(x, fh):\n    json.dump(x, fh, indent=2)\n")
    reader = tmp_path / "reader.py"
    reader.write_text("import json\nfrom .atomic import json_text\n"
                      "def g(s):\n    return json_text(json.loads(s))\n")
    assert [path.name for path in (atomic, second, reader)
            if calls_json_dumps(path)] == ["atomic.py", "second.py"]


def calls_loadtxt(path: Path) -> bool:
    """Whether a file calls `loadtxt`, as an attribute (`np.loadtxt`) or a
    bare name."""
    return any(isinstance(node, ast.Call) and (
                   isinstance(node.func, ast.Attribute) and node.func.attr == "loadtxt"
                   or isinstance(node.func, ast.Name) and node.func.id == "loadtxt")
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))


def test_only_dataset_parses_numeric_text():
    # one owner of how kinematics text becomes an array: `load_trial_kinematics`
    assert [path.name for path in MODULES if calls_loadtxt(path)] == ["dataset.py"]


def test_the_loadtxt_check_sees_a_second_call_site(tmp_path):
    dataset = tmp_path / "dataset.py"
    dataset.write_text("import numpy as np\ndef load(lines):\n"
                       "    return np.loadtxt(lines, ndmin=2)\n")
    second = tmp_path / "second.py"
    second.write_text("from numpy import loadtxt\ndef f(path):\n    return loadtxt(path)\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from .dataset import load\nloader = load\n"
                      "def g(lines):\n    return load(lines)\n")
    assert [path.name for path in (dataset, second, reader)
            if calls_loadtxt(path)] == ["dataset.py", "second.py"]


def private_names_imported(path: Path) -> list[str]:
    """The underscore names, dunders aside, a module imports from another."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{a.name}" for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_an_underscore_name(path):
    # an underscore name is its module's own; a second reader makes it API
    assert private_names_imported(path) == []


def test_the_private_import_check_sees_an_underscore_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ._version import __version__\nfrom . import nn\n"
                     "from .tcn import _is_a, is_a\n"
                     "def f():\n    from .nn import _as_signal\n")
    assert private_names_imported(probe) == ["tcn._is_a", "nn._as_signal"]


# the test tools' own deprecations are not the package's: the one a failing
# @given test meets must not turn that failure into an INTERNALERROR that
# ends the run
FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_stop_the_suite(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_GIVEN)
    config = PACKAGE.parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
