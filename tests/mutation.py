#!/usr/bin/env python3
"""List the mutants of one package module that the named tests do not kill.

    python3 tests/mutation.py src/surgact/runner.py tests/test_runner.py tests/test_cli.py

Each mutant changes one node of the module's syntax tree:

- a binary or augmented-assignment operator swapped (`+` and `-`, `*` and
  `/`, `//` to `*`, `%` to `//`, `**` to `*`, `|` and `&`);
- one comparison swapped (`<` and `<=`, `>` and `>=`, `==` and `!=`, `is`
  and `is not`, `in` and `not in`);
- an integer constant plus one;
- `and` and `or` swapped;
- a unary minus dropped (`-x` becomes `+x`).

Annotations are left alone. The tool copies the repository (without `.git`
and caches) to a temporary directory, checks that the tests pass there on
the module as `ast.unparse` writes it back, then writes each mutant over the
copy's module in turn and runs `python -m pytest -x -q` on the named tests,
with bytecode writing off so that no stale cache is read. A mutant whose
tests fail, or run past `TIMEOUT`, is killed; one whose tests pass
survives.

A mutant is named by its module, its enclosing function or class, and the
node's source before and after (`runner.py:run_experiment: a - b -> a + b`),
with `#n` added when the same change occurs more than once there, so a name
outlives edits elsewhere in the file. `EQUIVALENT` lists, by name, the
survivors known to change no result and no error, each with the reason.
Every other survivor is printed, and the exit status is 1 if there is one.

The file name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
          ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr}
COMPARISON = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
              ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
              ast.In: ast.NotIn, ast.NotIn: ast.In}
# seconds after which a mutant's test run counts as a kill: a mutated loop
# bound can make a run that never ends
TIMEOUT = 600

# survivors that change no result and no error, by name, with the reason
EQUIVALENT: dict[str, str] = {
    # metrics.py, against test_metrics and test_runner
    "metrics.py:levenshtein: len(a) < len(b) -> len(a) <= len(b)":
        "swapping two sequences of equal length changes nothing: the distance is symmetric "
        "and the table has the same size either way",
    "metrics.py:levenshtein: 1 -> 2 #6":
        "`prev = list(range(len(b) + 2))` adds a last value no cell reads: the table is built "
        "only when `a` is not empty, and its first row replaces `prev` with `len(b) + 1` values",
    "metrics.py:levenshtein: up + 1 < best -> up + 1 <= best":
        "on a tie the branch stores the value `best` already holds",
    "metrics.py:levenshtein: left + 1 < best -> left + 1 <= best":
        "on a tie the branch stores the value `best` already holds",
    # tcn.py, against test_tcn and test_runner
    "tcn.py:TcnModel.backward: n < t -> n <= t":
        "when n == t the branch adds the sum over no repeated frames, +0.0, to the last "
        "frame's gradient: every value stays equal (a -0.0 may become +0.0, which no later "
        "sum tells apart)",
    # nn.py, against test_nn and test_tcn
    "nn.py:<module>: 32768 -> 32769":
        "Adam's update is elementwise, so `ADAM_BLOCK` only sizes the slices it works in: "
        "every block size gives the same bits",
    "nn.py:Conv1d._phase_kernels: 1 -> 2 #2":
        "`reshape(..., -2)`: numpy reads any negative size as the one dimension it infers",
    "nn.py:Conv1d._phase_kernels: 1 -> 2 #3":
        "`reshape(co, -2)`: numpy reads any negative size as the one dimension it infers",
    "nn.py:Conv1d._im2col: t + q - 1 -> t + q + 1":
        "reserving `c * q * (t + q + 1)` values only makes the column buffer larger",
    "nn.py:pool_relu_norm: 2 -> 3 #4":
        "`y[:, 1:3 * n:2]` takes the same frames as `1:2 * n:2`, since t <= 2n + 1 puts no "
        "odd frame at or past 2n",
    "nn.py:pool_relu_norm_backward: 2 -> 3 #4":
        "`gx[:, 1:3 * n:2]` is the same view as `1:2 * n:2`, since t <= 2n + 1 puts no odd "
        "frame at or past 2n",
}


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _scopes(tree: ast.AST) -> dict[int, str]:
    """Each node's enclosing function or class path; `<module>` at the top."""
    scopes: dict[int, str] = {}

    def visit(node: ast.AST, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{path}.{child.name}" if path else child.name
            scopes[id(child)] = path or "<module>"
            visit(child, inner)

    visit(tree, "")
    return scopes


def _changes(node: ast.AST) -> Iterator[Callable[[], None]]:
    """Each mutation of `node`, as a function that applies it in place."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
        yield lambda: setattr(node, "op", BINARY[type(node.op)]())
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARISON:
                yield lambda i=i: node.ops.__setitem__(i, COMPARISON[type(node.ops[i])]())
    elif isinstance(node, ast.BoolOp):
        yield lambda: setattr(node, "op", ast.Or() if isinstance(node.op, ast.And) else ast.And())
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield lambda: setattr(node, "value", node.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield lambda: setattr(node, "op", ast.UAdd())


def _sites(tree: ast.AST) -> Iterator[tuple[ast.AST, str, Callable[[], None]]]:
    """(node, scope, apply) for every mutation of the tree, in a fixed order."""
    skip = _annotation_nodes(tree)
    scopes = _scopes(tree)
    for node in ast.walk(tree):
        if id(node) not in skip:
            for apply in _changes(node):
                yield node, scopes.get(id(node), "<module>"), apply


def mutants(path: Path) -> list[tuple[str, int, str]]:
    """(name, line, source) of each mutant of the module at `path`."""
    source = path.read_text(encoding="utf-8")
    count = len(list(_sites(ast.parse(source))))
    out: list[tuple[str, int, str]] = []
    seen: Counter = Counter()
    for index in range(count):
        # each mutant starts from a fresh tree
        tree = ast.parse(source)
        node, scope, apply = list(_sites(tree))[index]
        before = ast.unparse(node)
        apply()
        name = f"{path.name}:{scope}: {before} -> {ast.unparse(node)}"
        seen[name] += 1
        if seen[name] > 1:
            name += f" #{seen[name]}"
        out.append((name, node.lineno, ast.unparse(tree)))
    return sorted(out, key=lambda m: m[1])


def _copy_repository(into: Path) -> Path:
    copy = into / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work",
        "*.egg-info"))
    return copy


def _tests_pass(copy: Path, tests: list[str]) -> bool:
    env = os.environ | {"PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/surgact/runner.py")
    parser.add_argument("tests", nargs="+",
                        help="the test files (or ids) to run, relative to the repository root")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT)
    found = mutants(module)
    with tempfile.TemporaryDirectory(prefix="surgact-mutation-") as scratch:
        copy = _copy_repository(Path(scratch))
        target = copy / relative
        target.write_text(ast.unparse(ast.parse(module.read_text(encoding="utf-8"))),
                          encoding="utf-8")
        if not _tests_pass(copy, args.tests):
            print(f"the tests fail on the unmutated {relative}; nothing to measure")
            return 2
        survivors, equivalent = [], []
        for number, (name, line, source) in enumerate(found, 1):
            target.write_text(source, encoding="utf-8")
            started = time.perf_counter()
            killed = not _tests_pass(copy, args.tests)
            outcome = "killed" if killed else (
                "equivalent" if name in EQUIVALENT else "SURVIVED")
            print(f"[{number}/{len(found)}] {outcome:<10} line {line:<4} {name} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
            if not killed:
                (equivalent if name in EQUIVALENT else survivors).append((line, name))
    print(f"{relative}: {len(found)} mutants, {len(found) - len(survivors) - len(equivalent)} "
          f"killed, {len(equivalent)} listed as equivalent, {len(survivors)} survived")
    for line, name in survivors:
        print(f"survivor: line {line}: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
