"""Command line interface.

Exit codes: 0 success, 1 bad request/configuration (a usage error too),
2 malformed input data, 3 runtime failure (also `experiment` when no fold
trained, or when its one `--fold` diverged).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from ._version import __version__
from .atomic import json_text, write_atomic
from .dataset import (
    ARM_SIDES,
    GRANULARITIES,
    build_catalog,
    load_transcript,
    load_trial_kinematics,
)
from .errors import ConfigError, DataError, SurgactError
from .runner import (
    CV_MODES,
    ExperimentConfig,
    check_minimum,
    combine_reports,
    load_experiment_config,
    plan_folds,
    run_experiment,
)
from .synth import generate_synthetic_dataset

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit EXIT_CONFIG, not argparse's
    2, which means malformed input data here. Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    # each flag's dest is the ExperimentConfig field it sets
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--catalog", help="catalog manifest path")
    p.add_argument("--granularity", choices=GRANULARITIES)
    p.add_argument("--cv", choices=CV_MODES)
    p.add_argument("--tasks", nargs="+", help="task or combo names (louo)")
    p.add_argument("--test-task", help="held-out task (loto)")
    p.add_argument("--train-tasks", nargs="+", help="training task or combo names (loto)")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--kernel-size", type=int,
                   help="override the derived kernel width (odd)")
    p.add_argument("--seed", type=int)
    p.add_argument("--expected-channels", type=int)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    # a field without a flag reads None, which leaves the config file's value
    return load_experiment_config(
        args.config,
        **{f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)})


def _write_result(text: str, out: Optional[str], what: str) -> None:
    """Write `text` atomically to `out` and say so, or print it."""
    if out:
        write_atomic(Path(out), text.encode())
        print(f"{what} -> {out}")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    # the loaders the experiments use: each file is read once, every
    # transcript against its trial's length, and a combined 'mp' one that
    # a per-arm view derives from is held to the split's rule (`arms`)
    check_minimum("expected_channels", args.expected_channels)
    catalog = build_catalog(args.catalog)
    for entry in catalog.entries:
        length = len(load_trial_kinematics(entry.kinematics, args.expected_channels))
        for granularity, path in entry.transcripts:
            load_transcript(path, granularity, length, arms=granularity == "mp" and any(
                entry.transcript_source(g)[0] == "mp" for g in ARM_SIDES))
    print(f"ok: {len(catalog.entries)} trials, {len(catalog.tasks())} tasks "
          f"({', '.join(catalog.tasks())})")
    return EXIT_OK


def _cmd_folds(args) -> int:
    config = _experiment_config(args)
    catalog = build_catalog(config.catalog)
    plans = plan_folds(config, catalog)
    doc = [
        {
            "name": p.name,
            "held_out": p.held_out,
            "num_train_trials": len(p.train_trials),
            "num_test_trials": len(p.test_trials),
            "train_trials": ["/".join(k) for k in p.train_trials],
            "test_trials": ["/".join(k) for k in p.test_trials],
        }
        for p in plans
    ]
    _write_result(json_text(doc), args.out, f"{len(plans)} folds")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    # run_experiment itself writes what the run makes when output_dir is set
    report = run_experiment(config, args.fold)
    if config.output_dir:
        print(f"{'fold report' if args.fold else 'report'} written under {config.output_dir}")
    if args.fold:
        fold = report.folds[0]
        if not config.output_dir:
            sys.stdout.write(json_text(fold))
        if fold["status"] != "ok":
            print(f"fold {fold['name']} {fold['status']}: {fold['error']}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    agg = report.aggregate
    summary = f"folds: {agg['num_ok_folds']}/{agg['num_folds']} ok"
    if agg["accuracy_mean"] is not None:
        summary += (f"; accuracy {agg['accuracy_mean']:.2f}"
                    f", edit {agg['edit_score_mean']:.2f}")
    print(summary)
    if agg["num_ok_folds"] == 0:
        # every fold diverged: the report is written, but no model trained
        print(f"failure: no fold trained; {agg['num_diverged_folds']} of "
              f"{agg['num_folds']} diverged", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_synth(args) -> int:
    manifest = generate_synthetic_dataset(
        args.out,
        num_tasks=args.tasks,
        num_subjects=args.subjects,
        trials_per_subject=args.trials_per_subject,
        num_classes=args.classes,
        frames_range=(args.min_frames, args.max_frames),
        seed=args.seed,
    )
    print(str(manifest))
    return EXIT_OK


def _cmd_report(args) -> int:
    _write_result(combine_reports(args.inputs), args.out, "combined table")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="surgact",
        description="Surgical activity recognition experiments on kinematic data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every catalog file parses cleanly")
    p.add_argument("--catalog", required=True)
    p.add_argument("--expected-channels", type=int)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("folds", help="emit cross-validation fold plans")
    _add_experiment_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_folds)

    p = sub.add_parser("experiment", help="run all folds, or one, and report")
    _add_experiment_args(p)
    p.add_argument("--fold", help="run only this fold (a name from `folds`)")
    p.add_argument("--output-dir", help="write report.json and tables.txt here, "
                   "or folds/FOLD.json for one fold")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", type=int, default=2)
    p.add_argument("--subjects", type=int, default=3)
    p.add_argument("--trials-per-subject", type=int, default=2)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--min-frames", type=int, default=280)
    p.add_argument("--max-frames", type=int, default=320)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="combine report.json files into one table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SurgactError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
