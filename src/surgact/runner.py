"""Experiment orchestration: configuration, fold execution, and reports.

An experiment is: a catalog, a label granularity, a cross-validation setup
(LOUO, a single LOTO split, or the full LOTO suite), and model settings.
Before the first fold trains, every fold's model settings are derived: its
RNG seed, from the experiment seed and the fold name, and its kernel width,
from its own training transcripts. Then each fold trains a fresh model and
scores the held-out trials. Report payloads are fully
deterministic for a given catalog and config; wall-clock numbers live in a
separate "timing" subtree so two identical runs produce byte-identical
payloads once timing is dropped.

Every trial a run plans is read and checked once, before the first fold,
into its transcript and model-ready arrays (`read_trials`), and the
folds share the one immutable record it returns. A trial's targets hold
`GAP` on the frames no segment covers: none for motion primitives, a
gesture transcript's gaps. Training and evaluation read them the same way
for every granularity: the loss counts a GAP frame for nothing, and
`run_fold` scores accuracy and AP on a held-out trial's other frames and
the edit score on its targets' segments, which a gap ends.

Every fold of a report has the same keys (`_fold_payload`), whether it is
ok, diverged or failed, which `run_experiment`'s fold loop alone decides;
a fold that did not finish has no training, metrics or map.

Each setting is declared once, as an `ExperimentConfig` field: the field
names are the config file's keys and the CLI flags' destinations, and
`load_experiment_config` builds the one config from a file, from flags, or
from both. The model settings are checked by `tcn.check_model_settings`,
the rule set `ModelConfig` uses too.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._version import __version__
from .atomic import check_writable, json_text, read_json, write_atomic
from .crossval import (
    FoldPlan,
    loto_folds,
    loto_suite,
    louo_folds,
)
from .dataset import (
    COLUMNS_PER_ARM,
    GAP,
    GRANULARITIES,
    IDLE,
    Catalog,
    LabelTranscript,
    TrialKey,
    arm_columns,
    build_catalog,
    encode_frames,
    load_transcript,
    load_trial_kinematics,
    mp_verb,
    select_features,
    split_by_arm,
)
from .errors import ConfigError, DataError, NonFiniteLoss, SurgactError
from .metrics import (
    edit_score,
    frame_accuracy,
    map_report,
    pooled_class_average_precisions,
    segment_labels,
)
from .tcn import (
    DEFAULT_EPOCHS,
    DEFAULT_FILTERS,
    HYPERPARAM_DEFAULTS,
    ModelConfig,
    TcnModel,
    TrialTensors,
    check_model_settings,
    compute_kernel_size,
    is_a,
    predict_labels,
    train_fold,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "TrialData",
    "load_experiment_config",
    "derive_fold_seed",
    "plan_folds",
    "experiment_vocabulary",
    "read_trials",
    "fold_model_config",
    "run_fold",
    "run_experiment",
    "emit_report",
    "load_report",
    "combine_reports",
]

CV_MODES = ("louo", "loto", "loto-suite")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Every field is a config file key and a CLI flag (the flag's `dest`);
    `filters`, `left_offset` and `right_offset` are config keys only.
    """

    catalog: str
    granularity: str
    cv: str
    tasks: Optional[tuple[str, ...]] = None  # task or combo names
    test_task: Optional[str] = None
    train_tasks: Optional[tuple[str, ...]] = None  # task or combo names
    learning_rate: Optional[float] = None  # None -> default for the cv mode
    weight_decay: Optional[float] = None
    epochs: int = DEFAULT_EPOCHS
    filters: tuple[int, int, int] = DEFAULT_FILTERS
    kernel_size: Optional[int] = None  # None -> derived per fold
    seed: int = 0
    expected_channels: Optional[int] = None
    left_offset: int = 0
    right_offset: int = COLUMNS_PER_ARM
    output_dir: Optional[str] = None

    def __post_init__(self):
        # a config file can hold any JSON value, so types are checked first
        for f in fields(self):
            kind = _FIELD_TYPES.get(f.name)
            value = getattr(self, f.name)
            if kind is None or (value is None and f.default is None):
                continue
            if not is_a(value, kind):
                raise ConfigError(f"{f.name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        for name in ("tasks", "train_tasks"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{name} must be a list of task names, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity: {self.granularity!r}")
        if self.cv not in CV_MODES:
            raise ConfigError(f"cv must be one of {CV_MODES}, got {self.cv!r}")
        if self.cv == "louo":
            if self.tasks is None:
                raise ConfigError("louo needs tasks")
            if self.test_task or self.train_tasks:
                raise ConfigError("test_task/train_tasks are for loto runs")
        elif self.cv == "loto":
            if not self.test_task or not self.train_tasks:
                raise ConfigError("loto needs test_task and train_tasks")
            if self.tasks:
                raise ConfigError("tasks are for louo runs")
        else:  # loto-suite
            if any((self.tasks, self.test_task, self.train_tasks)):
                raise ConfigError("loto-suite takes no task arguments")
        for name in _FIELD_MINIMUMS:
            check_minimum(name, getattr(self, name))
        twice = sorted(c for c, n in Counter(self.feature_columns()).items() if n > 1)
        if twice:
            raise ConfigError(
                f"left_offset {self.left_offset} and right_offset {self.right_offset} "
                f"select columns {twice} twice")
        if self.expected_channels is not None:
            past = [c for c in self.feature_columns() if c >= self.expected_channels]
            if past:
                raise ConfigError(
                    f"left_offset {self.left_offset} and right_offset {self.right_offset} "
                    f"select column {past[0]}, past expected_channels {self.expected_channels}")
        # a rate left None takes its cv mode's default, LOTO's for the suite
        defaults = HYPERPARAM_DEFAULTS["louo" if self.cv == "louo" else "loto"]
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults[name])
        # the values the folds' models get, checked before any file is read
        object.__setattr__(self, "filters", check_model_settings(
            self.filters, self.learning_rate, self.weight_decay, self.epochs,
            self.kernel_size))
        # a numpy scalar or a Fraction passes the checks, but the report's
        # JSON holds a Python int or float; those two are kept as they are
        for f in fields(self):
            value = getattr(self, f.name)
            if is_a(value, Real) and not isinstance(value, (int, float)):
                object.__setattr__(self, f.name, int(value) if isinstance(value, Integral)
                                   else float(value))

    def feature_columns(self) -> tuple[int, ...]:
        """The model's input columns: both arms for gesture and mp, the
        modeled arm alone for mp-left and mp-right."""
        if self.granularity in ("gesture", "mp"):
            return arm_columns(self.left_offset) + arm_columns(self.right_offset)
        if self.granularity == "mp-left":
            return arm_columns(self.left_offset)
        return arm_columns(self.right_offset)


# the type of each scalar field the model-setting rules do not cover; None
# passes where it is the default
_FIELD_TYPES = {
    "catalog": str, "test_task": str, "output_dir": str,
    "seed": Integral, "expected_channels": Integral,
    "left_offset": Integral, "right_offset": Integral,
}
_TYPE_NAMES = {str: "a string", Integral: "an integer"}
# the least value of each column setting
_FIELD_MINIMUMS = {"expected_channels": 1, "left_offset": 0, "right_offset": 0}


def check_minimum(name: str, value: Optional[int]) -> None:
    """Raise ConfigError if the column setting `name` is below its least
    value; None passes."""
    least = _FIELD_MINIMUMS[name]
    if value is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def load_experiment_config(path=None, **overrides) -> ExperimentConfig:
    """The experiment a JSON config file and keyword overrides (CLI flags)
    describe; either may be absent. An override wins unless it is None.

    Relative catalog/output paths read from the file resolve against the
    file's directory; override paths are kept as given, so relative ones
    resolve against the working directory.
    """
    names = {f.name for f in fields(ExperimentConfig)}
    unknown = set(overrides) - names
    if unknown:
        raise ConfigError(f"unknown config override: {sorted(unknown)}")
    merged: dict = {}
    if path is not None:
        p = Path(path)
        merged = read_json(p, "config file", ConfigError)
        if not isinstance(merged, dict):
            raise ConfigError(f"config file must hold a JSON object: {p}")
        unknown = set(merged) - names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("catalog", "output_dir"):
            if isinstance(merged.get(key), str) and not Path(merged[key]).is_absolute():
                merged[key] = str((p.parent / merged[key]).resolve())
    merged.update((k, v) for k, v in overrides.items() if v is not None)
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(merged)
    if missing:
        raise ConfigError(f"missing required settings (config keys or flags): {sorted(missing)}")
    return ExperimentConfig(**merged)


def derive_fold_seed(seed: int, fold_name: str) -> int:
    """Stable per-fold seed: folds get decorrelated streams and renaming or
    reordering folds never silently changes another fold's draw."""
    digest = hashlib.sha256(f"{seed}:{fold_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def plan_folds(config: ExperimentConfig, catalog: Catalog) -> list[FoldPlan]:
    """Resolve the config's cross-validation request into fold plans.

    A fold's name picks its seed and its fold file, so two folds may not
    share one, as subjects ('A-B', 'C') and ('A', 'B-C') would."""
    if config.cv == "louo":
        plans = louo_folds(catalog, config.tasks, config.granularity)
    elif config.cv == "loto":
        plans = [loto_folds(catalog, config.test_task, config.train_tasks,
                            config.granularity)]
    else:
        plans = loto_suite(catalog, config.granularity)
    held_out: dict[str, str] = {}
    for plan in plans:
        if plan.name in held_out:
            raise DataError(f"two folds are named {plan.name!r}: one holds out "
                            f"{held_out[plan.name]}, the other {plan.held_out}")
        held_out[plan.name] = plan.held_out
    return plans


# ---------------------------------------------------------------------------
# trial data

def experiment_vocabulary(granularity: str,
                          transcripts: Iterable[LabelTranscript]) -> tuple[str, ...]:
    """The fixed class list for an experiment: every label of the
    `granularity` transcripts `read_trials` reads, sorted; MP granularities
    always include Idle (the gap/off-arm label). The output layer keeps this
    size on every fold, so a class missing from some fold's training data
    stays predictable-in-principle rather than silently dropped. Fewer than
    two classes is a data error."""
    labels = {seg.label for transcript in transcripts for seg in transcript.segments}
    if granularity != "gesture":
        labels.add(IDLE)
    if len(labels) < 2:
        raise DataError(
            f"the selected trials' {granularity!r} labels give "
            f"{len(labels)} class(es) {sorted(labels)}; a model needs at least 2")
    return tuple(sorted(labels))


@dataclass(frozen=True)
class TrialData:
    """The planned trials, each read once, into what a fold uses: the class
    list, and for each trial its transcript (for the kernel width) and its
    `TrialTensors`. Every fold shares it, read-only."""

    granularity: str
    feature_columns: tuple[int, ...]
    vocabulary: tuple[str, ...]
    transcripts: Mapping[TrialKey, LabelTranscript]
    tensors: Mapping[TrialKey, TrialTensors]


def read_trials(config: ExperimentConfig, catalog: Catalog,
                plans: Sequence[FoldPlan]) -> TrialData:
    """Read and check every trial the plans use now, each once and in plan
    order, so that bad input is rejected before any fold trains.

    A trial's kinematics are read first, then its transcript
    (`CatalogEntry.transcript_source`) against their length; a per-arm view
    of a combined 'mp' file is split from it by `split_by_arm`, after the
    loader (`arms`) checked each row for a tool side. The class list
    (`experiment_vocabulary`) is taken over those transcripts, and each
    trial keeps its feature columns and its `encode_frames` targets: Idle
    fills an MP transcript's gaps, and a gesture one's are GAP. The data
    rules are the loaders' and `encode_frames`'s; the kinematics are not
    kept.
    """
    granularity = config.granularity
    columns = config.feature_columns()
    transcripts: dict[TrialKey, LabelTranscript] = {}
    features: dict[TrialKey, np.ndarray] = {}
    planned = dict.fromkeys(k for plan in plans for k in plan.train_trials + plan.test_trials)
    for key in planned:
        entry = catalog.get(*key)
        kinematics = load_trial_kinematics(entry.kinematics, config.expected_channels)
        source, path = entry.transcript_source(granularity)
        transcript = load_transcript(path, source, len(kinematics),
                                     arms=source != granularity)
        if source != granularity:
            left, right = split_by_arm(transcript)
            transcript = left if granularity == "mp-left" else right
        try:
            features[key] = select_features(kinematics, columns)
        except DataError as exc:
            raise DataError(f"{entry.kinematics}: {exc}") from None
        transcripts[key] = transcript
    vocabulary = experiment_vocabulary(granularity, transcripts.values())
    label_to_id = {lab: i for i, lab in enumerate(vocabulary)}
    tensors: dict[TrialKey, TrialTensors] = {}
    for key, transcript in transcripts.items():
        targets = encode_frames(
            transcript, label_to_id, fill=None if granularity == "gesture" else IDLE)
        # every fold that uses the trial shares these arrays
        features[key].setflags(write=False)
        targets.setflags(write=False)
        tensors[key] = TrialTensors(features[key], targets)
    return TrialData(granularity, columns, vocabulary,
                     MappingProxyType(transcripts), MappingProxyType(tensors))


# ---------------------------------------------------------------------------
# fold execution

def fold_model_config(fold: FoldPlan, trials: TrialData,
                      config: ExperimentConfig) -> ModelConfig:
    """One fold's model settings: the seed derived from the fold name, the
    kernel width (the config's, or derived from the fold's training
    transcripts) and the class count.

    A fold whose kernel width cannot be derived is a data error naming it.
    """
    kernel = config.kernel_size
    if kernel is None:
        try:
            kernel = compute_kernel_size(trials.transcripts[k] for k in fold.train_trials)
        except DataError as exc:
            raise DataError(f"fold {fold.name}: {exc}") from None
    return ModelConfig(
        num_classes=len(trials.vocabulary),
        kernel_size=kernel,
        filters=config.filters,
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        epochs=config.epochs,
        seed=derive_fold_seed(config.seed, fold.name),
    )


def _fold_payload(fold: FoldPlan, model_config: ModelConfig) -> dict:
    """A fold's report entry before it trains: what the plan and its model
    settings fix, status "ok", and no error, training, metrics or map yet.
    Every fold of a report, ok, diverged or failed, has these keys."""
    return {
        "name": fold.name,
        "held_out": fold.held_out,
        "seed": model_config.seed,
        "kernel_size": model_config.kernel_size,
        "num_classes": model_config.num_classes,
        "num_train_trials": len(fold.train_trials),
        "num_test_trials": len(fold.test_trials),
        "status": "ok",
        "error": None,
        "training": None,
        "metrics": None,
        "map": None,
    }


def run_fold(fold: FoldPlan, trials: TrialData,
             model_config: ModelConfig) -> dict:
    """Train and evaluate one fold with the settings `fold_model_config`
    gave it; returns the payload: `_fold_payload`'s with `training` as
    `train_fold` returns it, and the held-out trials' scores. Accuracy and
    AP read the frames whose target is not GAP; the edit score and the
    support count read the targets' segments, with the prediction set to
    GAP where the target is, so a gap ends a segment in both. AP and
    support group each class by `group_of` (itself, or an MP class's verb),
    and `map` is `map_report`'s block, None when no class has a defined AP.
    Every error propagates, a non-finite loss as `train_fold`'s
    `NonFiniteLoss`: `run_experiment`'s fold loop decides the fold's status.
    """
    vocab = trials.vocabulary
    model = TcnModel(model_config, len(trials.feature_columns))
    payload = _fold_payload(fold, model_config)
    payload["training"] = train_fold(model, fold, trials.tensors)

    # AP scores a gesture class alone and an MP class by its verb
    group_of = {lab: lab if trials.granularity == "gesture" else mp_verb(lab)
                for lab in vocab}
    per_trial: dict[str, dict] = {}
    pooled: list[tuple[np.ndarray, np.ndarray]] = []
    support: Counter = Counter()
    for key in fold.test_trials:
        tensors = trials.tensors[key]
        pred, scores = predict_labels(model, tensors.features)
        keep = tensors.targets != GAP
        targets = tensors.targets[keep]
        acc = frame_accuracy(pred[keep].tolist(), targets.tolist())
        ref_frames = tensors.targets.tolist()
        edit = edit_score(np.where(keep, pred, GAP).tolist(), ref_frames)
        per_trial["/".join(key)] = {
            "accuracy": acc,
            "edit_score": edit,
            "frames": int(pred.shape[0]),
            "labeled_frames": int(keep.sum()),
        }
        pooled.append((scores[keep], targets))
        for label_id in segment_labels(ref_frames):
            support[group_of[vocab[label_id]]] += 1

    # build_catalog refuses '/' in an id: one entry per held-out trial, in order
    payload["metrics"] = {
        "accuracy_mean": float(np.mean([t["accuracy"] for t in per_trial.values()])),
        "edit_score_mean": float(np.mean([t["edit_score"] for t in per_trial.values()])),
        "per_trial": per_trial,
    }
    payload["map"] = map_report(
        pooled_class_average_precisions(pooled, vocab, group_of), support)
    return payload


def _aggregate(fold_payloads: Sequence[dict]) -> dict:
    ok = [f for f in fold_payloads if f["status"] == "ok"]
    agg: dict = {
        "num_folds": len(fold_payloads),
        "num_ok_folds": len(ok),
        "num_diverged_folds": sum(1 for f in fold_payloads if f["status"] == "diverged"),
        "accuracy_mean": None,
        "edit_score_mean": None,
        "map_macro_mean": None,
        "map_micro_mean": None,
        "per_class_ap_mean": {},
        "per_class_support_total": {},
    }
    if not ok:
        return agg
    agg["accuracy_mean"] = float(np.mean([f["metrics"]["accuracy_mean"] for f in ok]))
    agg["edit_score_mean"] = float(np.mean([f["metrics"]["edit_score_mean"] for f in ok]))
    with_map = [f for f in ok if f["map"] is not None]
    if with_map:
        agg["map_macro_mean"] = float(np.mean([f["map"]["macro"] for f in with_map]))
        agg["map_micro_mean"] = float(np.mean([f["map"]["micro"] for f in with_map]))
        classes = {c for f in with_map for c in f["map"]["per_class"]}
        for c in sorted(classes):
            values = [f["map"]["per_class"][c] for f in with_map
                      if f["map"]["per_class"].get(c) is not None]
            agg["per_class_ap_mean"][c] = float(np.mean(values)) if values else None
            agg["per_class_support_total"][c] = int(sum(
                f["map"]["support"][c] for f in with_map))
    return agg


@dataclass(frozen=True)
class ExperimentReport:
    """Deterministic experiment outcome plus a segregated timing subtree."""

    version: str
    experiment: dict
    folds: tuple[dict, ...]
    aggregate: dict
    timing: dict

    def payload(self, include_timing: bool = True) -> dict:
        out = {
            "version": self.version,
            "experiment": self.experiment,
            "folds": list(self.folds),
            "aggregate": self.aggregate,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def json_bytes(self, include_timing: bool = True) -> bytes:
        return json_text(self.payload(include_timing)).encode()


def _experiment_payload(config: ExperimentConfig, plans: Sequence[FoldPlan],
                        trials: TrialData) -> dict:
    """Every setting but `output_dir`, and what the run derived from the
    catalog."""
    out = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "output_dir"}
    out["kernel_size_override"] = out.pop("kernel_size")
    return {
        **out,
        "num_features": len(trials.feature_columns),
        "vocabulary": list(trials.vocabulary),
        "fold_names": [p.name for p in plans],
    }


def run_experiment(config: ExperimentConfig,
                   fold_name: Optional[str] = None) -> ExperimentReport:
    """Execute every fold of the configured experiment, or only the one
    named `fold_name` (CLI `experiment --fold`); an unknown name is a
    ConfigError.

    Every planned trial is read and checked, whichever folds run, and the
    run's model settings derived, first, so bad input raises a DataError
    before any fold trains, and one fold rejects the input the whole
    experiment does. Then output_dir is made and the files the run writes
    there (`_report_files`) checked, so an unusable one fails before
    training too. The fold loop alone sets a fold's status from what
    `run_fold` raises: `NonFiniteLoss` records it diverged, skipped by the
    aggregates; any other error records it failed and stops the run, and is
    re-raised with fold context once the files are written (when output_dir
    is set): a full run's report, a partial one too, or the one fold's
    payload, which a failed fold does not write.
    """
    started = time.perf_counter()
    catalog = build_catalog(config.catalog)
    plans = plan_folds(config, catalog)
    run = [p for p in plans if fold_name in (None, p.name)]
    if not run:
        names = ", ".join(p.name for p in plans)
        raise ConfigError(f"no fold named {fold_name!r}; available: {names}")
    trials = read_trials(config, catalog, plans)
    model_configs = [fold_model_config(plan, trials, config) for plan in run]
    written = _report_files(config.output_dir, fold_name) if config.output_dir else ()
    experiment = _experiment_payload(config, plans, trials)

    folds: list[dict] = []
    fold_seconds: dict[str, float] = {}
    failure: Optional[Exception] = None
    for plan, model_config in zip(run, model_configs):
        t0 = time.perf_counter()
        try:
            payload = run_fold(plan, trials, model_config)
        except Exception as exc:  # noqa: BLE001 - recorded; a failure is re-raised
            status = "diverged" if isinstance(exc, NonFiniteLoss) else "failed"
            payload = {**_fold_payload(plan, model_config), "status": status, "error": str(exc)}
            failure = exc if status == "failed" else None
        folds.append(payload)
        fold_seconds[plan.name] = time.perf_counter() - t0
        if failure is not None:
            break

    report = ExperimentReport(
        version=__version__,
        experiment=experiment,
        folds=tuple(folds),
        aggregate=_aggregate(folds),
        timing={
            "total_seconds": time.perf_counter() - started,
            "folds": dict(sorted(fold_seconds.items())),
        },
    )
    if config.output_dir and fold_name is None:
        emit_report(report, config.output_dir)
    elif written and failure is None:
        write_atomic(written[0], json_text(folds[0]).encode())
    if failure is not None:
        raise SurgactError(f"fold {folds[-1]['name']} failed: {failure}") from failure
    return report


# ---------------------------------------------------------------------------
# report emission and loading

def _fmt(value, width: int = 7) -> str:
    if value is None:
        return "N/A".rjust(width)
    return f"{value:{width}.2f}"


def render_tables(payload: dict) -> str:
    """Human-readable tables for one report payload."""
    exp = payload["experiment"]
    lines = [
        f"granularity: {exp['granularity']}   cv: {exp['cv']}   "
        f"seed: {exp['seed']}   epochs: {exp['epochs']}",
        f"catalog: {exp['catalog']}",
        f"classes ({len(exp['vocabulary'])}): {', '.join(exp['vocabulary'])}",
        "",
        f"{'fold':<34} {'held out':<18} {'k':>3} {'acc':>7} {'edit':>7}",
    ]
    for fold in payload["folds"]:
        if fold["status"] != "ok":
            lines.append(
                f"{fold['name']:<34} {fold['held_out']:<18} "
                f"{'-':>3} [{fold['status']}] {fold['error']}")
            continue
        metrics = fold["metrics"]
        lines.append(
            f"{fold['name']:<34} {fold['held_out']:<18} {fold['kernel_size']:>3} "
            f"{_fmt(metrics['accuracy_mean'])} {_fmt(metrics['edit_score_mean'])}")
    agg = payload["aggregate"]
    lines.append("-" * 72)
    lines.append(
        f"{'mean over ' + str(agg['num_ok_folds']) + ' folds':<57} "
        f"{_fmt(agg['accuracy_mean'])} {_fmt(agg['edit_score_mean'])}")
    if agg["per_class_ap_mean"]:
        lines.append("")
        lines.append(f"{'class':<24} {'#':>6} {'AP':>8}")
        for cls in sorted(agg["per_class_ap_mean"]):
            ap = agg["per_class_ap_mean"][cls]
            sup = agg["per_class_support_total"][cls]
            lines.append(f"{cls:<24} {sup:>6} {_fmt(ap, 8)}")
        lines.append(
            f"{'mAP (macro / micro)':<24} {'':>6} "
            f"{_fmt(agg['map_macro_mean'], 8)} / {_fmt(agg['map_micro_mean'], 8)}")
    lines.append("")
    return "\n".join(lines)


def _report_files(out_dir, fold_name: Optional[str] = None) -> tuple[Path, ...]:
    """The files a run writes under `out_dir`, their directory made and each
    refused now (`check_writable`) if it cannot be written: a full run's
    `report.json` and `tables.txt`, or one fold's `folds/<fold_name>.json`,
    which never replaces a full run's report."""
    out = Path(out_dir) if fold_name is None else Path(out_dir) / "folds"
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SurgactError(f"cannot create output directory {out}: {exc}")
    paths = ((out / "report.json", out / "tables.txt") if fold_name is None
             else (out / f"{fold_name}.json",))
    for path in paths:
        check_writable(path)
    return paths


def emit_report(report: ExperimentReport, out_dir) -> None:
    """Write `report.json` and `tables.txt` under `out_dir`, each atomically;
    a failed write is a SurgactError naming the file."""
    report_json, tables = _report_files(out_dir)
    write_atomic(report_json, report.json_bytes(include_timing=True))
    write_atomic(tables, render_tables(report.payload()).encode())


def load_report(path) -> dict:
    """Read a report.json back and re-verify its aggregate block."""
    p = Path(path)
    payload = read_json(p, "report")
    if not isinstance(payload, dict):
        raise DataError(f"report must hold a JSON object: {p}")
    try:
        recomputed = _aggregate(payload.get("folds", ()))
        stored = payload.get("aggregate", {})
        for key in ("accuracy_mean", "edit_score_mean", "map_macro_mean", "map_micro_mean"):
            a, b = stored.get(key), recomputed.get(key)
            if (a is None) != (b is None):
                raise DataError(f"report aggregate {key!r} inconsistent with folds")
            # written so that a NaN on either side is refused
            if a is not None and not abs(a - b) <= 1e-9:
                raise DataError(f"report aggregate {key!r} = {a} but folds imply {b}")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"report is malformed: {p}: {exc!r}")
    return payload


def combine_reports(paths: Sequence) -> str:
    """One summary row per report (CLI `report` re-aggregation)."""
    lines = [f"{'tasks':<28} {'granularity':<10} {'cv':<10} "
             f"{'acc':>7} {'edit':>7} {'macro':>7} {'micro':>7}"]
    for path in paths:
        payload = load_report(path)
        try:
            exp = payload["experiment"]
            agg = payload["aggregate"]
            if exp["cv"] == "loto":
                label = f"{exp['test_task']}<-{'+'.join(exp['train_tasks'])}"
            elif exp["tasks"]:
                label = "+".join(exp["tasks"])
            else:
                label = exp["cv"]
            lines.append(
                f"{label:<28} {exp['granularity']:<10} {exp['cv']:<10} "
                f"{_fmt(agg['accuracy_mean'])} {_fmt(agg['edit_score_mean'])} "
                f"{_fmt(agg['map_macro_mean'])} {_fmt(agg['map_micro_mean'])}")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"report is malformed: {path}: {exc!r}")
    lines.append("")
    return "\n".join(lines)
