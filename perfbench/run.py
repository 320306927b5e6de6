#!/usr/bin/env python3
"""Benchmark of surgact's experiment pipeline.

    python3 perfbench/run.py --workload tiny-louo --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run generates a synthetic corpus from the seed (untimed), then drives the
public API from this single process with `workers` at its default:
`surgact validate` plus `surgact folds` through `surgact.cli.main` (the set-up
a user pays before launching), and `surgact.runner.run_experiment` with
`output_dir` set, repeated until `--seconds` are used. Every experiment call
is checked (see `OutputCheck`).

Both modes first make one checked, untimed experiment call as a warm-up.
`--trace 0` then prints the end-to-end metrics. `--trace 1` makes one more
untraced call (the reference for the tracing overhead), then traced calls,
and prints the per-layer metrics (see spans.py). `--workload all` runs
every workload in both modes, each in its own process, and prints one table.
The last line of output is always a JSON object; everything above it is the
human-readable report.

Layers are the package modules: dataset, crossval, runner, tcn, nn and
metrics. Which end-to-end metric each per-layer metric should move, and on
which workload, is recorded in PER_LAYER_NOTES below.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# The package is benchmarked from its source tree, as checked out.
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    import surgact
    from surgact import cli
    from surgact.dataset import build_catalog
    from surgact.errors import DataError
    from surgact.runner import (
        ExperimentConfig,
        load_report,
        plan_folds,
        run_experiment,
    )
    from surgact.synth import generate_synthetic_dataset
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import surgact from {ROOT / 'src'}: {exc}")
if (ROOT / "src") not in Path(surgact.__file__).resolve().parents:
    raise SystemExit(f"perfbench: surgact was imported from {surgact.__file__}, "
                     f"not from this checkout's {ROOT / 'src'}")

from spans import Tracer, traced  # noqa: E402  (needs surgact on the path)

SETUP_SHARE = 0.3  # of each block, for set-up rounds (at least one per call)
MIN_SETUP_ROUNDS = 3
MIN_EXPERIMENT_CALLS = 2  # timed; each is compared with the warm-up call
MIN_TRACED_CALLS = 2  # the computed counts are compared across two traces


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # generate_synthetic_dataset arguments besides out_dir/seed
    experiment: dict  # ExperimentConfig fields besides catalog/output_dir
    combined_mp_only: bool = False  # drop every transcript but combined mp
    quality_floor: Optional[tuple[float, float]] = None  # accuracy, edit (%)


# Why each workload exists, and which changes it predicts no change for, is
# recorded with it in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="tiny-louo",
        corpus=dict(num_tasks=1, num_subjects=3, trials_per_subject=2,
                    num_classes=3, frames_range=(280, 320)),
        experiment=dict(granularity="mp", cv="louo", tasks=("T01",),
                        learning_rate=1e-3, weight_decay=1e-4, epochs=60,
                        kernel_size=9),
        quality_floor=(95.0, 80.0),
    ),
    Workload(
        name="real-louo",
        corpus=dict(num_tasks=1, num_subjects=3, trials_per_subject=2,
                    num_classes=15, frames_range=(3800, 4200),
                    segment_frames=(20, 45)),
        experiment=dict(granularity="mp", cv="louo", tasks=("T01",),
                        learning_rate=1e-3, weight_decay=1e-4, epochs=3,
                        kernel_size=21),
    ),
    Workload(
        name="ingest-loto",
        corpus=dict(num_tasks=2, num_subjects=4, trials_per_subject=2,
                    num_classes=15, frames_range=(3800, 4200),
                    segment_frames=(20, 45)),
        experiment=dict(granularity="mp-left", cv="loto", test_task="T02",
                        train_tasks=("T01",), learning_rate=1e-3,
                        weight_decay=1e-4, epochs=1, kernel_size=21),
        combined_mp_only=True,
    ),
)}

# per-layer name: what moves when this layer gets faster, or what it counts.
# Names and units are BENCHMARK.json's (see `listed_metrics`).
PER_LAYER_NOTES = {
    "nn.conv_forward_s": "experiment_s, frames_per_s on real-louo",
    "nn.conv_backward_s": "experiment_s, frames_per_s on real-louo",
    "nn.conv_calls": "Conv1d forward plus backward calls",
    "nn.conv_gflop": "2*Cout*Cin*k*T per forward, twice that per backward",
    "nn.im2col_mb": "Cin*k*T float64 columns built per forward and per backward",
    "nn.adam_s": "experiment_s on tiny-louo",
    "nn.adam_steps": "optimizer steps",
    "nn.adam_params": "parameters updated, summed over steps",
    "tcn.forward_self_s": "experiment_s on tiny-louo (non-conv layers, checks)",
    "tcn.backward_self_s": "experiment_s on tiny-louo (non-conv layers, checks)",
    "nn.loss_s": "experiment_s on tiny-louo",
    "tcn.train_self_s": "experiment_s on tiny-louo",
    "tcn.train_frame_steps": "frames through a training step, summed",
    "dataset.kinematics_s": "setup_s, experiment_s on ingest-loto; setup_s on real-louo",
    "dataset.kinematics_calls": "kinematics files parsed",
    "dataset.kinematics_mb": "kinematics bytes parsed",
    "dataset.transcript_s": "setup_s, experiment_s on ingest-loto (includes split_by_arm)",
    "dataset.split_by_arm_calls": "per-arm derivations (ingest-loto only)",
    "dataset.catalog_s": "setup_s, experiment_s on ingest-loto",
    "runner.vocabulary_s": "setup_s, experiment_s on ingest-loto",
    "tcn.predict_s": "experiment_s on ingest-loto (eval forward, convs included)",
    "tcn.predict_calls": "trials evaluated",
    "crossval.plan_s": "experiment_s (planning)",
    "crossval.folds": "folds planned; >1 lets folds run in parallel",
    "runner.emit_s": "experiment_s (report emission)",
    "runner.self_s": "experiment_s (fold loop, tensors, model build)",
    "runner.folds_failed": "feeds failed_ratio",
    "runner.folds_diverged": "feeds failed_ratio",
    "metrics.accuracy_s": "experiment_s; under 1% on every workload",
    "metrics.edit_s": "experiment_s; under 1% on every workload",
    "metrics.ap_s": "experiment_s; under 1% on every workload",
    "metrics.edit_cells": "Levenshtein cells filled",
    "metrics.accuracy_pct": "report aggregate, fixed per seed: a speed change must not move it",
    "metrics.edit_pct": "report aggregate, fixed per seed: a speed change must not move it",
    "metrics.map_macro_pct": "report aggregate, fixed per seed: a speed change must not move it",
    "trace.experiment_s": "traced experiment_s, the base of every share",
    "trace.overhead_s": "traced minus untraced experiment_s",
}

# per-layer name: report aggregate key
AGGREGATES = {"metrics.accuracy_pct": "accuracy_mean",
              "metrics.edit_pct": "edit_score_mean",
              "metrics.map_macro_pct": "map_macro_mean"}


# ---------------------------------------------------------------------------
# inputs

def make_corpus(workload: Workload, seed: int, out_dir: Path) -> Path:
    manifest = generate_synthetic_dataset(out_dir, seed=seed, **workload.corpus)
    if workload.combined_mp_only:
        doc = json.loads(manifest.read_text())
        for entry in doc["entries"]:
            entry["transcripts"] = {"mp": entry["transcripts"]["mp"]}
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest


@dataclass(frozen=True)
class Work:
    """What one experiment call must process, computed from the inputs."""

    fold_names: tuple[str, ...]
    train_frame_steps: int
    eval_frames: int
    trials: int

    @property
    def frames(self) -> int:
        return self.train_frame_steps + self.eval_frames


def expected_work(config: ExperimentConfig) -> Work:
    catalog = build_catalog(config.catalog)
    plans = plan_folds(config, catalog)
    frames = {}
    for entry in catalog.entries:
        with open(entry.kinematics) as fh:
            frames[entry.key] = sum(1 for line in fh if line.strip())
    return Work(
        fold_names=tuple(p.name for p in plans),
        train_frame_steps=sum(config.epochs * sum(frames[k] for k in p.train_trials)
                              for p in plans),
        eval_frames=sum(frames[k] for p in plans for k in p.test_trials),
        trials=len(catalog.entries),
    )


# ---------------------------------------------------------------------------
# output checks

@dataclass
class OutputCheck:
    """Counts operations and the ones whose output is wrong.

    An experiment call fails if it raises, if a fold is failed or diverged,
    if load_report rejects its report.json, if its deterministic payload
    differs from the run's first call, if an aggregate is missing, or if it
    misses the workload's accuracy/edit floor. A set-up round fails if either command exits
    non-zero or prints other than the catalog and the planned folds.
    """

    workload: Workload
    work: Work
    attempted: int = 0
    experiment_calls: int = 0
    experiment_failures: int = 0
    problems: list = field(default_factory=list)
    reference: Optional[bytes] = None

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)

    def experiment(self, report, error: Optional[str], out_dir: Path) -> None:
        self.experiment_calls += 1
        problems = [error] if error else []
        if report is not None:
            bad = [f"{f['name']} {f['status']}" for f in report.folds
                   if f["status"] != "ok"]
            if bad:
                problems.append(f"folds not ok: {bad}")
            try:
                load_report(out_dir / "report.json")
            except DataError as exc:
                problems.append(f"load_report rejected report.json: {exc}")
            payload = report.json_bytes(include_timing=False)
            if self.reference is None:
                self.reference = payload
            elif payload != self.reference:
                problems.append("payload differs from the run's first call")
            floor = self.workload.quality_floor
            agg = report.aggregate
            missing = [k for k in AGGREGATES.values() if agg.get(k) is None]
            if missing:
                problems.append(f"aggregates missing: {missing}")
            elif floor and (agg["accuracy_mean"] < floor[0]
                            or agg["edit_score_mean"] < floor[1]):
                problems.append(
                    f"accuracy {agg['accuracy_mean']:.2f} / edit "
                    f"{agg['edit_score_mean']:.2f} below {floor[0]} / {floor[1]}")
        self.experiment_failures += bool(problems)
        self._record(f"experiment call {self.experiment_calls}", problems)

    def setup(self, validate: tuple[int, str], folds: tuple[int, str]) -> None:
        problems = []
        code, out = validate
        if code != 0 or not out.startswith(f"ok: {self.work.trials} trials"):
            problems.append(f"validate exited {code}: {out.strip()[:200]!r}")
        code, out = folds
        try:
            names = tuple(f["name"] for f in json.loads(out)) if code == 0 else None
        except (json.JSONDecodeError, TypeError, KeyError):
            names = None
        if names != self.work.fold_names:
            problems.append(f"folds exited {code}, planned {names}")
        self._record("set-up", problems)

    def traces(self, counters: list[Counter]) -> None:
        """The computed counts repeat exactly across traces, and the frames
        trained and evaluated match the inputs."""
        first = counters[0]
        problems = [f"trace {i}: {k} {c[k]} != {first[k]}"
                    for i, c in enumerate(counters[1:], start=1)
                    for k in first.keys() | c.keys() if c[k] != first[k]]
        for key, expected in (("tcn.train_frame_steps", self.work.train_frame_steps),
                              ("eval_frames", self.work.eval_frames)):
            if first[key] != expected:
                problems.append(f"traced {key} {first[key]}, inputs imply {expected}")
        self._record("trace counts", problems)


# ---------------------------------------------------------------------------
# timed operations

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def setup_round(config: ExperimentConfig, check: OutputCheck) -> float:
    folds = ["folds", "--catalog", config.catalog,
             "--granularity", config.granularity, "--cv", config.cv]
    if config.tasks:
        folds += ["--tasks", *config.tasks]
    if config.test_task:
        folds += ["--test-task", config.test_task, "--train-tasks", *config.train_tasks]
    start = time.perf_counter()
    validate_result = _cli(["validate", "--catalog", config.catalog])
    folds_result = _cli(folds)
    elapsed = time.perf_counter() - start
    check.setup(validate_result, folds_result)
    return elapsed


def experiment_call(config: ExperimentConfig, check: OutputCheck,
                    tracer: Optional[Tracer] = None):
    report, error = None, None
    run = tracer.wrap("runner.experiment", run_experiment) if tracer else run_experiment
    start = time.perf_counter()
    try:
        report = run(config)
    except Exception as exc:  # noqa: BLE001 - a raising call is a failed call
        traceback.print_exc(file=sys.stderr)
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    check.experiment(report, error, Path(config.output_dir))
    return elapsed, report


def repeat(call, seconds: float, minimum: int) -> list[float]:
    """Call until one more call would overrun `seconds`, at least `minimum`
    times; returns each call's seconds."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < minimum or (
            time.perf_counter() - start + statistics.median(times) <= seconds):
        times.append(call())
    return times


# ---------------------------------------------------------------------------
# metrics

def summarize(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    text = f"median {statistics.median(samples):.4f}"
    supported = [p for p in (99, 95, 90, 75) if len(samples) * (100 - p) / 100 >= 10]
    if supported:
        cuts = statistics.quantiles(samples, n=100)
        text += f", p{supported[0]} {cuts[supported[0] - 1]:.4f}"
    else:
        text += ", no tail percentile (p75 needs 40 samples)"
    return text + f", max {max(samples):.4f}, n={len(samples)}"


def end_to_end(setup: list[float], experiment: list[float], work: Work) -> dict[str, float]:
    median = statistics.median(experiment)
    return {
        "experiment_s": median,
        "setup_s": statistics.median(setup),
        "frames_per_s": work.frames / median,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def quality(report) -> dict[str, float]:
    """The report's aggregates; 0 where there is none, which the output
    check has already counted as a failure."""
    agg = report.aggregate if report is not None else {}
    return {name: agg.get(key) or 0.0 for name, key in AGGREGATES.items()}


def layer_metrics(tracer: Tracer, trace_id: int, counts, report) -> dict[str, float]:
    own = tracer.self_times(trace_id)
    total = tracer.inclusive_times(trace_id)
    statuses = [f["status"] for f in report.folds] if report is not None else []
    return {
        "nn.conv_forward_s": own.get("nn.conv_forward", 0.0),
        "nn.conv_backward_s": own.get("nn.conv_backward", 0.0),
        "nn.conv_calls": counts["nn.conv_calls"],
        "nn.conv_gflop": counts["conv_flop"] / 1e9,
        "nn.im2col_mb": counts["im2col_bytes"] / 1e6,
        "nn.adam_s": own.get("nn.adam", 0.0),
        "nn.adam_steps": counts["nn.adam_steps"],
        "nn.adam_params": counts["nn.adam_params"],
        "tcn.forward_self_s": own.get("tcn.forward", 0.0),
        "tcn.backward_self_s": own.get("tcn.backward", 0.0),
        "nn.loss_s": own.get("nn.loss", 0.0),
        "tcn.train_self_s": own.get("tcn.train", 0.0),
        "tcn.train_frame_steps": counts["tcn.train_frame_steps"],
        "dataset.kinematics_s": own.get("dataset.kinematics", 0.0),
        "dataset.kinematics_calls": counts["dataset.kinematics_calls"],
        "dataset.kinematics_mb": counts["kinematics_bytes"] / 1e6,
        "dataset.transcript_s": own.get("dataset.transcript", 0.0),
        "dataset.split_by_arm_calls": counts["dataset.split_by_arm_calls"],
        "dataset.catalog_s": own.get("dataset.catalog", 0.0),
        "runner.vocabulary_s": own.get("runner.vocabulary", 0.0),
        "tcn.predict_s": total.get("tcn.predict", 0.0),
        "tcn.predict_calls": counts["tcn.predict_calls"],
        "crossval.plan_s": own.get("crossval.plan", 0.0),
        "crossval.folds": counts["crossval.folds"],
        "runner.emit_s": own.get("runner.emit", 0.0),
        "runner.self_s": own.get("runner.experiment", 0.0),
        "runner.folds_failed": statuses.count("failed"),
        "runner.folds_diverged": statuses.count("diverged"),
        "metrics.accuracy_s": own.get("metrics.accuracy", 0.0),
        "metrics.edit_s": own.get("metrics.edit", 0.0),
        "metrics.ap_s": own.get("metrics.ap", 0.0),
        "metrics.edit_cells": counts["metrics.edit_cells"],
        **quality(report),
        "trace.experiment_s": total["runner.experiment"],
    }


def shares(metrics: dict[str, float], units: dict[str, str]) -> list[tuple[str, float]]:
    """Self-time buckets as shares of the traced experiment, largest first.
    The buckets partition the experiment call, except tcn.predict_s, which
    includes the eval forward pass and is left out."""
    base = metrics["trace.experiment_s"]
    buckets = {"nn.conv (forward+backward)":
               metrics["nn.conv_forward_s"] + metrics["nn.conv_backward_s"]}
    for name, unit in units.items():
        if unit == "s" and not name.startswith(("nn.conv_", "trace.", "tcn.predict")):
            buckets[name] = metrics[name]
    return sorted(((k, v / base) for k, v in buckets.items()), key=lambda kv: -kv[1])


def confirmation(workload: str, ranked: list[tuple[str, float]]) -> str:
    """Whether the trace shows the cost the workload was chosen for."""
    share = dict(ranked)
    if workload == "tiny-louo":
        return f"nn.adam_s is {share['nn.adam_s']:.1%} of the traced call (chosen for >= 15%)"
    wanted = {"real-louo": "nn.conv (forward+backward)",
              "ingest-loto": "dataset.kinematics_s"}[workload]
    verdict = "largest share" if ranked[0][0] == wanted else f"not largest ({ranked[0][0]} is)"
    return f"{wanted}: {share[wanted]:.1%}, {verdict}"


# ---------------------------------------------------------------------------
# environment

def _git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"git_sha": "unknown (not a git checkout)", "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30, check=True).stdout
    except (subprocess.SubprocessError, OSError) as exc:
        return {"git_sha": f"unknown ({exc})", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "surgact": surgact.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **_git_state(),
    }


# ---------------------------------------------------------------------------
# runs

def listed_metrics(kind: str) -> dict[str, str]:
    """Name: unit of the `kind` ("end_to_end" or "per_layer") metrics that
    BENCHMARK.json lists, in its order."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _result_line(check: OutputCheck, metrics: dict[str, float], units: dict[str, str]) -> str:
    missing = units.keys() - metrics.keys()
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json lists metrics run.py does not "
                         f"compute: {sorted(missing)}")
    return json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> str:
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    corpus_dir = run_dir / "corpus"
    try:
        manifest = make_corpus(workload, seed, corpus_dir)
        # the workload seed makes the inputs; the experiment's own seed stays
        # fixed, as in the acceptance run
        config = ExperimentConfig(catalog=str(manifest), output_dir=str(run_dir / "out"),
                                  seed=0, **workload.experiment)
        work = expected_work(config)
        check = OutputCheck(workload, work)
        for key, value in environment().items():
            print(f"env {key}: {value}")
        print(f"workload {workload.name} seed {seed}: {work.trials} trials, "
              f"{len(work.fold_names)} folds, {work.train_frame_steps} trained "
              f"frame-steps + {work.eval_frames} evaluated frames per call")
        # The first call of a process pays one-off costs (allocator growth,
        # BLAS thread start-up) that later calls do not, so both modes make
        # one checked but untimed call first. It also parses every file the
        # set-up rounds parse.
        experiment_call(config, check)
        if trace:
            return _traced_run(workload, config, work, check, seconds, run_dir)
        return _untraced_run(config, work, check, seconds)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)


def _untraced_run(config, work: Work, check: OutputCheck, seconds: float) -> str:
    setup, experiment, reports = [], [], []
    deadline = time.perf_counter() + seconds

    def block():
        # One experiment call, then set-up rounds up to their share of the
        # time. The host's speed drifts within seconds, so set-up spread over
        # the whole window samples the same conditions as the calls.
        start = time.perf_counter()
        elapsed, report = experiment_call(config, check)
        experiment.append(elapsed)
        reports.append(report)
        setup.append(setup_round(config, check))
        while sum(setup) < SETUP_SHARE / (1 - SETUP_SHARE) * sum(experiment):
            setup.append(setup_round(config, check))
        return time.perf_counter() - start

    repeat(block, seconds, MIN_EXPERIMENT_CALLS)
    # what is left of the window, too short for another block, goes to set-up
    while (len(setup) < MIN_SETUP_ROUNDS
           or time.perf_counter() + statistics.median(setup) <= deadline):
        setup.append(setup_round(config, check))
    units = listed_metrics("end_to_end")
    metrics = end_to_end(setup, experiment, work)
    print(f"setup_s: {summarize(setup)}")
    print(f"experiment_s: {summarize(experiment)}")
    print(f"failed_ratio: {check.experiment_failures}/{check.experiment_calls} "
          f"experiment calls = {check.experiment_failures / check.experiment_calls:.3f}")
    for problem in check.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:<16} {value:>14.6f} {units.get(name, '(not listed)')}")
    first = next((r for r in reports if r is not None), None)
    for name, value in quality(first).items():
        print(f"{name:<16} {value:>14.6f} % (per-layer metric, shown for reference)")
    return _result_line(check, metrics, units)


def _traced_run(workload: Workload, config, work: Work, check: OutputCheck,
                seconds: float, run_dir: Path) -> str:
    start = time.perf_counter()
    # the overhead is taken against a warm untraced call, as the traced
    # calls are warm too
    untraced, _ = experiment_call(config, check)
    tracer = Tracer()
    per_trace: list[dict[str, float]] = []
    counters: list[Counter] = []

    def call():
        counters.append(tracer.start_trace(len(per_trace)))
        elapsed, report = experiment_call(config, check, tracer)
        per_trace.append(layer_metrics(tracer, tracer.trace_id, counters[-1], report))
        return elapsed

    with traced(tracer):
        repeat(call, seconds - (time.perf_counter() - start), MIN_TRACED_CALLS)
    check.traces(counters)
    units = listed_metrics("per_layer")
    # times are medians over the traces; counts and aggregates repeat exactly
    metrics = {name: statistics.median(m[name] for m in per_trace)
               if units.get(name) == "s" else value
               for name, value in per_trace[0].items()}
    metrics["trace.overhead_s"] = metrics["trace.experiment_s"] - untraced
    (run_dir / "spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "trace"], "spans": tracer.spans}))

    print(f"untraced experiment_s: {untraced:.4f}; traced: "
          f"{summarize([m['trace.experiment_s'] for m in per_trace])}")
    for problem in check.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        unit, note = units.get(name, "(not listed)"), PER_LAYER_NOTES.get(name, "")
        print(f"{name:<28} {value:>16.6f} {unit:<6} {note}" if isinstance(value, float)
              else f"{name:<28} {value:>16} {unit:<6} {note}")
    ranked = shares(metrics, units)
    print("self-time shares of the traced call:")
    for name, share in ranked:
        print(f"  {name:<28} {share:7.1%}")
    print(f"why {workload.name}: {confirmation(workload.name, ranked)}")
    return _result_line(check, metrics, units)


def run_all(seed: int, seconds: float) -> str:
    """Every workload in both modes, each in its own process, as one table."""
    results: dict[str, dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("why ", "FAILED ", "failed_ratio")):
                    print(f"[{name} trace {trace}] {line}")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"perfbench: {name} trace {trace} exited {proc.returncode}")
            results.setdefault(name, {"correct": True, "attempted": 0, "failed": 0,
                                      "metrics": {}})
            doc = json.loads(lines[-1])
            entry = results[name]
            entry["correct"] &= doc["correct"]
            entry["attempted"] += doc["attempted"]
            entry["failed"] += doc["failed"]
            entry["metrics"].update(doc["metrics"])
    names = list(WORKLOADS)
    print(f"{'metric':<28} {'unit':<9}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in {**listed_metrics("end_to_end"), **listed_metrics("per_layer")}.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>16.6g}" for n in names)
        print(f"{metric:<28} {unit:<9}{row}")
    print(f"{'failed / attempted':<38}"
          + "".join(f"{str(results[n]['failed']) + '/' + str(results[n]['attempted']):>16}"
                    for n in names))
    return json.dumps({"correct": all(r["correct"] for r in results.values()),
                       "attempted": sum(r["attempted"] for r in results.values()),
                       "failed": sum(r["failed"] for r in results.values()),
                       "workloads": results})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured window of experiment calls and set-up rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(run_all(args.seed, args.seconds))
    else:
        print(run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
