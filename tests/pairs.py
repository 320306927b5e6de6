#!/usr/bin/env python3
"""Time a commit against this checkout in alternating pairs of benchmark runs.

    python3 tests/pairs.py PARENT [--workload W] [--pairs N] [--seconds S]

The tree of PARENT (any git revision) is exported with `git archive` into a
temporary directory, and this checkout's working tree is copied beside it
(without `.git` and caches), so that both trees sit at paths of the same
length on the same file system: an A/A run with this checkout in place of
the copy read ingest-loto's `peak_rss_mb` 0.3% higher in 10 of 10 pairs
on a 2-CPU VM.
For each pair and each workload, `perfbench/run.py --workload W --seed 7
--seconds S --trace 0` then runs once in each tree, each in a fresh
process, the parent first in odd pairs and the change first in even ones,
so that a host that speeds up or slows down over the session favours
neither side.

For each workload and each end-to-end metric that `BENCHMARK.json` lists,
it prints both medians, both interquartile ranges (the middle half of the
runs), the change's wins out of the pairs (ties count for neither side),
the relative move of the median, and whether a move for the worse is inside
the metric's `bound`. It also prints the failed runs of each side and both
trees' payload hashes (`tests/payload_hashes.py --workload W`, in a fresh
process at one BLAS thread), which are equal when the change keeps every
result bit. An A/A run (PARENT = HEAD, with a clean checkout) shows the
host's own spread.

It reads `BENCHMARK.json` and changes nothing under `perfbench/`: it is a
way to run the benchmark, not part of it. Standard library only; the file
name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def export(revision: str, into: Path) -> Path:
    """The tree of `revision`, written to `into/parent` by `git archive`."""
    tree = into / "parent"
    tree.mkdir()
    archive = into / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), revision],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def copy_checkout(into: Path) -> Path:
    """This checkout's working tree, copied to `into/change`."""
    return Path(shutil.copytree(ROOT, into / "change", ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work",
        "*.egg-info")))


def bench(tree: Path, workload: str, seconds: float) -> dict:
    """One fresh-process benchmark run in `tree`: its last line's JSON, or
    {"failed_run": reason} if the run did not finish."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed_run": f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"}
    return json.loads(lines[-1])


def payload_hash(tree: Path, workload: str) -> str:
    tool = tree / "tests" / "payload_hashes.py"
    if not tool.is_file():
        return "n/a (no tests/payload_hashes.py)"
    proc = subprocess.run([sys.executable, str(tool), "--workload", workload], cwd=tree,
                          env=os.environ | ONE_THREAD, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else f"failed (exit {proc.returncode})"


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def table(workload: str, runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    """The rows for one workload: one per end-to-end metric."""
    lines = [f"{workload}: {len(runs['change'])} pairs",
             f"  {'metric':<14} {'parent':>12} {'iqr':>10} {'change':>12} {'iqr':>10} "
             f"{'wins':>6} {'move':>8}  bound"]
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if "metrics" in p and "metrics" in c]
        if not pairs:
            lines.append(f"  {name:<14} no pair finished")
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        pm, cm = statistics.median(parent), statistics.median(change)
        move = (cm - pm) / pm if pm else 0.0
        inside = sign * move <= bound
        lines.append(f"  {name:<14} {pm:>12.6g} {iqr(parent):>10.3g} {cm:>12.6g} "
                     f"{iqr(change):>10.3g} {wins:>3}/{len(pairs):<2} {move:>+8.1%}  "
                     f"{'inside' if inside else 'OUTSIDE'} {bound:.0%}")
    for side in ("parent", "change"):
        failed = [r.get("failed_run") or f"{r['failed']}/{r['attempted']} calls failed"
                  for r in runs[side] if "failed_run" in r or r.get("failed")]
        lines.append(f"  {side} failed runs: {len(failed)}"
                     + "".join(f"\n    {reason}" for reason in failed))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the git revision to compare this checkout with")
    parser.add_argument("--workload", action="append",
                        help="a workload to time (repeatable; default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="each run's measured window (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="surgact-pairs-") as scratch:
        trees = {"parent": export(args.parent, Path(scratch)),
                 "change": copy_checkout(Path(scratch))}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for number in range(args.pairs):
            order = ("parent", "change") if number % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(bench(trees[side], workload, seconds))
            print(f"pair {number + 1}/{args.pairs} done ({order[0]} first)", flush=True)
        hashes = {w: {side: payload_hash(tree, w) for side, tree in trees.items()}
                  for w in workloads}
    print(f"{args.parent} (parent) against this checkout (change): {args.pairs} alternating "
          f"pairs of `perfbench/run.py --seed {SEED} --seconds {seconds:g} --trace 0`")
    for workload in workloads:
        print("\n".join(table(workload, runs[workload], spec["end_to_end"])))
        same = hashes[workload]["parent"] == hashes[workload]["change"]
        print(f"  payload sha256: parent {hashes[workload]['parent']}, change "
              f"{hashes[workload]['change']} ({'equal' if same else 'DIFFERENT'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
