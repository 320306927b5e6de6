#!/usr/bin/env python3
"""Print the sha256 of each benchmark workload's deterministic payload.

    python3 tests/payload_hashes.py

For tiny-louo, real-louo and ingest-loto, the workloads of
`perfbench/run.py`, this writes the corpus `make_corpus` generates from
seed 7, runs the workload's experiment on it (training seed 0, as the
benchmark does) and prints the sha256 of `json_bytes(include_timing=False)`.
A change that keeps every result bit prints the same lines as its parent.

- The payload names its catalog, so each corpus goes to a fixed directory
  under the system temp directory: two checkouts run one after the other
  hash the same catalog path.
- The payload bytes depend on the BLAS thread count, so each workload runs
  in a fresh process started with OPENBLAS_NUM_THREADS=1 and
  OMP_NUM_THREADS=1.

The file name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("tiny-louo", "real-louo", "ingest-loto")
SEED = 7  # the corpus seed the benchmark's figures are quoted at
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def payload_hash(name: str) -> str:
    """One workload's payload sha256, computed in this process."""
    # run.py puts this checkout's src first on the path and checks it
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS, make_corpus

    from surgact.runner import ExperimentConfig, run_experiment

    workload = WORKLOADS[name]
    corpus = Path(tempfile.gettempdir()) / "surgact-payload-hashes" / f"{name}-seed{SEED}"
    shutil.rmtree(corpus, ignore_errors=True)
    manifest = make_corpus(workload, SEED, corpus)
    report = run_experiment(ExperimentConfig(catalog=str(manifest), seed=0,
                                             **workload.experiment))
    return hashlib.sha256(report.json_bytes(include_timing=False)).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES,
                        help="hash this workload here instead of all of them in subprocesses")
    args = parser.parse_args(argv)
    if args.workload:
        print(payload_hash(args.workload))
        return 0
    for name in NAMES:
        run = subprocess.run(
            [sys.executable, __file__, "--workload", name],
            env=os.environ | ONE_THREAD, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            return run.returncode
        print(f"{name} {run.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
