"""Cross-validation fold planning.

Two setups:

* Leave-One-User-Out (LOUO): one fold per subject over the selected tasks;
  the subject's trials across all selected tasks are held out together.
  Subjects are namespaced by source dataset, so subject "2" of one dataset
  never merges with subject "2" of another, while the three tasks recorded
  from the same eight subjects in one dataset share those subjects' folds.

* Leave-One-Task-Out (LOTO): train on a set of tasks, test on a disjoint
  held-out task. `loto_suite` enumerates the canonical battery of task
  transfer plans used for reporting.

A task list may name combos (`TASK_COMBOS`) as well as tasks; `louo_folds`
and `loto_folds` read it through `expand_tasks`, then check it once.

Planning is pure: no kinematics or transcripts are read, only the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .dataset import Catalog, TrialKey
from .errors import ConfigError

# Canonical task order: the two tasks with gesture and MP labels from the
# eight-subject teleoperation dataset (S, NP) and its third task (KT), then
# the simulator task (PT), then the two dry-lab tasks (PaS, PoaP).
TASK_ORDER = ("S", "NP", "KT", "PT", "PaS", "PoaP")

TASK_COMBOS: dict[str, tuple[str, ...]] = {
    "SNP": ("S", "NP"),
    "PTPaS": ("PT", "PaS"),
    "JIGSAWS": ("S", "NP", "KT"),
    "ROSMA": ("PaS", "PoaP"),
    "All": ("S", "NP", "KT", "PT", "PaS", "PoaP"),
}

# The full leave-one-task-out battery: (test task, train tasks). Grouped by
# test task; train sets range from all five other tasks down to a single
# related task.
LOTO_SUITE_ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("S", ("NP", "KT", "PT", "PaS", "PoaP")),
    ("S", ("KT", "PT", "PaS", "PoaP")),
    ("S", ("NP", "KT")),
    ("S", ("NP",)),
    ("NP", ("S", "KT", "PT", "PaS", "PoaP")),
    ("NP", ("KT", "PT", "PaS", "PoaP")),
    ("NP", ("S", "KT")),
    ("NP", ("S",)),
    ("KT", ("S", "NP", "PT", "PaS", "PoaP")),
    ("KT", ("PT", "PaS", "PoaP")),
    ("KT", ("S", "NP")),
    ("PT", ("S", "NP", "KT", "PaS", "PoaP")),
    ("PT", ("S", "NP", "KT", "PoaP")),
    ("PT", ("PaS",)),
    ("PaS", ("S", "NP", "KT", "PT", "PoaP")),
    ("PaS", ("S", "NP", "KT", "PoaP")),
    ("PaS", ("PT", "PoaP")),
    ("PaS", ("PT",)),
    ("PaS", ("PoaP",)),
    ("PoaP", ("S", "NP", "KT", "PT", "PaS")),
    ("PoaP", ("S", "NP", "KT", "PT")),
    ("PoaP", ("PaS",)),
)


@dataclass(frozen=True)
class FoldPlan:
    """One train/test split. Trial keys are (task, subject, trial)."""

    name: str
    held_out: str
    train_trials: tuple[TrialKey, ...]
    test_trials: tuple[TrialKey, ...]

    def __post_init__(self):
        overlap = set(self.train_trials) & set(self.test_trials)
        if overlap:
            raise ConfigError(f"fold {self.name}: trials in both sides: {sorted(overlap)}")


def expand_tasks(names: Iterable[str]) -> tuple[str, ...]:
    """The tasks a list of task or combo names selects: a `TASK_COMBOS` key
    stands for its tasks and any other name for itself. Each task comes
    once, in `TASK_ORDER` order, then the names it does not hold, sorted."""
    tasks = dict.fromkeys(t for name in names for t in TASK_COMBOS.get(name, (name,)))
    known = [t for t in TASK_ORDER if t in tasks]
    extra = sorted(t for t in tasks if t not in TASK_ORDER)
    return tuple(known + extra)


def _sorted_keys(entries) -> tuple[TrialKey, ...]:
    return tuple(sorted(e.key for e in entries))


def _check_selection(catalog: Catalog, tasks: Sequence[str], granularity: Optional[str]) -> None:
    """Every task is in the catalog; at "gesture", `check_gesture_transfer`."""
    available = set(catalog.tasks())
    unknown = [t for t in tasks if t not in available]
    if unknown:
        raise ConfigError(f"tasks not in catalog: {unknown}")
    if granularity == "gesture":
        check_gesture_transfer(catalog, tasks)


def louo_folds(catalog: Catalog, tasks: Sequence[str],
               granularity: Optional[str] = None) -> list[FoldPlan]:
    """One fold per (dataset, subject) with at least one trial in `tasks`;
    fewer than two subjects leave a fold nothing to train on."""
    tasks = expand_tasks(tasks)
    if not tasks:
        raise ConfigError("no tasks selected")
    _check_selection(catalog, tasks, granularity)
    pool = catalog.entries_for_tasks(tasks)
    subjects = sorted({e.subject_key for e in pool})
    if len(subjects) < 2:
        raise ConfigError(
            f"leave-one-user-out needs at least 2 subjects; tasks {list(tasks)} "
            f"have {len(subjects)}")
    folds = []
    for ds, subj in subjects:
        test = [e for e in pool if e.subject_key == (ds, subj)]
        train = [e for e in pool if e.subject_key != (ds, subj)]
        folds.append(FoldPlan(
            name=f"louo-{ds}-{subj}",
            held_out=f"{ds}/{subj}",
            train_trials=_sorted_keys(train),
            test_trials=_sorted_keys(test),
        ))
    return folds


def check_gesture_transfer(catalog: Catalog, tasks: Sequence[str]) -> None:
    """Gesture experiments need gesture labels on every trial of every
    involved task, and gesture vocabularies are dataset-specific, so all
    tasks must share one source dataset."""
    pool = catalog.entries_for_tasks(tasks)
    labelled = {e.task for e in pool} - {
        e.task for e in pool if e.transcript_path("gesture") is None}
    no_labels = [t for t in tasks if t not in labelled]
    if no_labels:
        raise ConfigError(f"tasks without gesture labels: {no_labels}")
    datasets = {e.dataset for e in pool}
    if len(datasets) > 1:
        raise ConfigError(
            f"gesture vocabularies do not transfer across datasets: {sorted(datasets)}")


def loto_folds(
    catalog: Catalog,
    test_task: str,
    train_tasks: Sequence[str],
    granularity: Optional[str] = None,
) -> FoldPlan:
    """Plan a single task-transfer fold: train tasks -> held-out task."""
    train_tasks = expand_tasks(train_tasks)
    if not train_tasks:
        raise ConfigError("no training tasks selected")
    if test_task in train_tasks:
        raise ConfigError(f"test task {test_task!r} also in training tasks")
    _check_selection(catalog, (test_task, *train_tasks), granularity)
    return FoldPlan(
        name=f"loto-{test_task}-from-{'+'.join(train_tasks)}",
        held_out=test_task,
        train_trials=_sorted_keys(catalog.entries_for_tasks(train_tasks)),
        test_trials=_sorted_keys(catalog.entries_for_tasks([test_task])),
    )


def loto_suite(catalog: Catalog, granularity: Optional[str] = None) -> list[FoldPlan]:
    """The canonical task-transfer battery as fold plans.

    All six tasks must be present in the catalog. With granularity="gesture"
    only the rows whose tasks all carry gesture labels from one source
    dataset are planned (`check_gesture_transfer`), and none is a ConfigError.
    """
    available = set(catalog.tasks())
    missing = [t for t in TASK_ORDER if t not in available]
    if missing:
        raise ConfigError(f"catalog lacks tasks required by the suite: {missing}")
    plans = []
    for test_task, train_tasks in LOTO_SUITE_ROWS:
        if granularity == "gesture":
            try:
                check_gesture_transfer(catalog, (test_task, *train_tasks))
            except ConfigError:
                continue
        plans.append(loto_folds(catalog, test_task, train_tasks))
    if not plans:
        raise ConfigError("no row of the suite keeps the gesture rule: every task "
                          "must carry gesture labels from one source dataset")
    return plans
