"""Release gate: one test per acceptance criterion, in order.

Each test prints a single [PASS]/[FAIL] line with the measured quantity
beside its threshold, then asserts. Run with

    pytest tests/test_acceptance.py -v -s

to see the lines inline (without -s they still appear for failures, and
pytest's own PASSED/FAILED column mirrors them). The final criterion needs
the full public dataset and is skipped unless COMPASS_CATALOG is set.
"""

import itertools
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from surgact.crossval import (
    LOTO_SUITE_ROWS,
    loto_folds,
    loto_suite,
    louo_folds,
)
from surgact.dataset import Catalog, CatalogEntry
from surgact.metrics import average_precision, edit_score, levenshtein
from surgact.runner import ExperimentConfig, run_experiment
from surgact.synth import generate_synthetic_dataset
from surgact.tcn import ModelConfig, TcnModel

from conftest import make_study_catalog
from reference_nn import finite_diff_check, gradient_pass


def check(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient oracle

def _flat_loss(model, x, targets):
    """Loss as a function of the flattened parameter vector."""

    def f(flat):
        model.theta[...] = flat
        loss, _ = gradient_pass(model, x, targets)
        return loss, model.grad.copy()

    return f


def test_1_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        frames = int(rng.integers(8, 17))
        features = int(rng.integers(1, 5))
        classes = int(rng.integers(2, 4))
        config = ModelConfig(num_classes=classes, kernel_size=3,
                             filters=(2, 3, 4),
                             seed=int(rng.integers(0, 2**31)))
        model = TcnModel(config, features)
        x = rng.normal(size=(features, frames))
        targets = rng.integers(0, classes, size=frames)
        point = model.theta.copy()
        worst = max(worst, finite_diff_check(
            _flat_loss(model, x, targets), point, h=1e-5))
    elapsed = time.perf_counter() - t0
    check("1 gradient oracle (50 tiny nets)",
          worst < 1e-4 and elapsed < 60.0,
          f"max rel err {worst:.2e} (< 1e-4) in {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. metric oracles

@lru_cache(maxsize=None)
def _recursive_distance(a: tuple, b: tuple) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(_recursive_distance(a[:-1], b) + 1,
               _recursive_distance(a, b[:-1]) + 1,
               _recursive_distance(a[:-1], b[:-1]) + (a[-1] != b[-1]))


def _threshold_ap(scores, positives) -> float:
    """Average precision by explicit threshold enumeration, in percent."""
    scores = list(map(float, scores))
    n_pos = sum(positives)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, positives) if s >= t and y)
        flagged = sum(1 for s in scores if s >= t)
        precision = tp / flagged
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return 100.0 * ap


def test_2_metric_oracles():
    t0 = time.perf_counter()
    seqs = []
    for length in range(7):
        seqs.extend(itertools.product("ABC", repeat=length))
    lev_mismatches = sum(
        1 for a in seqs for b in seqs
        if levenshtein(a, b) != _recursive_distance(a, b))
    _recursive_distance.cache_clear()

    rng = np.random.default_rng(99)
    ap_worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 21))
        if i % 2:
            scores = rng.normal(size=n)
        else:  # coarse levels force threshold ties
            scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 1.0], size=n)
        positives = rng.integers(0, 2, size=n).astype(bool)
        if not positives.any():
            positives[int(rng.integers(0, n))] = True
        ap_worst = max(ap_worst, abs(
            average_precision(scores, positives)
            - _threshold_ap(scores, positives)))

    edit = edit_score(["A", "B", "C"], ["A", "C"])
    edit_expected = 100.0 * (1.0 - 1.0 / 3.0)  # one deletion, length 3
    edit_ok = abs(edit - 66.67) <= 0.01 and abs(edit - edit_expected) < 1e-9

    elapsed = time.perf_counter() - t0
    check("2 metric oracles",
          lev_mismatches == 0 and ap_worst < 1e-9 and edit_ok
          and elapsed < 30.0,
          f"levenshtein {len(seqs)**2} exhaustive pairs, {lev_mismatches} "
          f"mismatches; AP max |diff| {ap_worst:.1e} (< 1e-9) on 200 draws; "
          f"edit {edit:.2f} (66.67 +-0.01); {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. fold-plan invariants

def _random_catalog(seed: int) -> Catalog:
    rng = np.random.default_rng(seed)
    datasets = ("DSA", "DSB")
    pools = {"DSA": [f"A{i:02d}" for i in range(15)],
             "DSB": [f"B{i:02d}" for i in range(15)]}
    entries = []
    for t in range(int(rng.integers(1, 7))):
        task = f"T{t}"
        dataset = datasets[int(rng.integers(0, 2))]
        subjects = rng.choice(pools[dataset],
                              size=int(rng.integers(1, 9)), replace=False)
        for subject in subjects:
            for trial in range(int(rng.integers(1, 4))):
                stem = f"{task}_{subject}_{trial:03d}"
                entries.append(CatalogEntry(
                    dataset=dataset, task=task, subject=str(subject),
                    trial=f"{trial:03d}",
                    kinematics=Path(f"/x/{stem}.txt"),
                    transcripts=(("mp", Path(f"/x/{stem}_mp.txt")),)))
    return Catalog(entries=tuple(entries))


def test_3_fold_plan_invariants():
    t0 = time.perf_counter()
    problems = []
    for seed in (7, 8, 9):
        catalog = _random_catalog(seed)
        tasks = catalog.tasks()
        subject_of = {e.key: e.subject_key for e in catalog.entries}
        all_keys = sorted(e.key for e in catalog.entries)

        folds = louo_folds(catalog, tasks)
        tested = sorted(k for f in folds for k in f.test_trials)
        if tested != all_keys:
            problems.append(f"seed {seed}: LOUO test sets are not a partition")
        for fold in folds:
            held = {subject_of[k] for k in fold.test_trials}
            if len(held) != 1:
                problems.append(f"seed {seed}: {fold.name} mixes subjects")
            if held & {subject_of[k] for k in fold.train_trials}:
                problems.append(f"seed {seed}: {fold.name} leaks its subject")
            if set(fold.train_trials) & set(fold.test_trials):
                problems.append(f"seed {seed}: {fold.name} shares trials")

        if len(tasks) >= 2:
            for test_task in tasks:
                rest = tuple(t for t in tasks if t != test_task)
                plan = loto_folds(catalog, test_task, rest, "mp")
                train_tasks = {k[0] for k in plan.train_trials}
                test_tasks = {k[0] for k in plan.test_trials}
                if test_task in train_tasks or test_tasks != {test_task}:
                    problems.append(f"seed {seed}: task leak in {plan.name}")

    study = make_study_catalog()
    n_all = len(louo_folds(study, ("All",)))
    n_s = len(louo_folds(study, ("S",)))
    if n_all != 28:
        problems.append(f"LOUO over All gave {n_all} folds, expected 28")
    if n_s != 8:
        problems.append(f"LOUO over S gave {n_s} folds, expected 8")

    elapsed = time.perf_counter() - t0
    check("3 fold-plan invariants",
          not problems and elapsed < 10.0,
          f"3 randomized catalogs partition cleanly, no subject/task leaks; "
          f"study shape gives {n_all} folds (All) and {n_s} (S); "
          f"{elapsed:.1f}s (< 10s)" if not problems else "; ".join(problems))


# ---------------------------------------------------------------------------
# 4. task-transfer suite inventory

def test_4_transfer_suite_inventory():
    t0 = time.perf_counter()
    study = make_study_catalog()
    plans = loto_suite(study, "mp")
    rows = [(p.held_out, tuple(sorted({k[0] for k in p.train_trials})))
            for p in plans]
    wanted = [(test, tuple(sorted(train))) for test, train in LOTO_SUITE_ROWS]
    spot = ("S", ("KT", "PT", "PaS", "PoaP"))
    spot_ok = (spot[0], tuple(sorted(spot[1]))) in rows
    leak_free = all(p.held_out not in {k[0] for k in p.train_trials}
                    for p in plans)
    elapsed = time.perf_counter() - t0
    check("4 transfer-suite inventory",
          rows == wanted and len(plans) == 22 and spot_ok and leak_free
          and elapsed < 5.0,
          f"{len(plans)} rows match the frozen inventory "
          f"(test=S trains on KT+PT+PaS+PoaP: {spot_ok}), no task leaks; "
          f"{elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 5 and 6 share one trained experiment

@pytest.fixture(scope="module")
def separable_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("separable") / "corpus"
    manifest = generate_synthetic_dataset(
        root, num_tasks=1, num_subjects=3, trials_per_subject=2,
        num_classes=3, frames_range=(280, 320), seed=11)
    config = ExperimentConfig(
        catalog=str(manifest), granularity="mp", cv="louo", tasks=("T01",),
        learning_rate=1e-3, weight_decay=1e-4, epochs=60, kernel_size=9,
        seed=0)
    t0 = time.perf_counter()
    report = run_experiment(config)
    return config, report, time.perf_counter() - t0


def test_5_end_to_end_learnability(separable_run):
    _, report, elapsed = separable_run
    acc = report.aggregate["accuracy_mean"]
    edit = report.aggregate["edit_score_mean"]
    check("5 end-to-end learnability (LOUO, 3 classes, 6 trials)",
          acc >= 95.0 and edit >= 80.0 and elapsed < 300.0,
          f"accuracy {acc:.2f} (>= 95), edit {edit:.2f} (>= 80), "
          f"60 epochs in {elapsed:.1f}s (< 300s)")


def test_6_determinism(separable_run):
    config, report, _ = separable_run
    again = run_experiment(config)
    a = report.json_bytes(include_timing=False)
    b = again.json_bytes(include_timing=False)
    check("6 determinism",
          a == b,
          f"two runs, identical {len(a)}-byte metric payloads")


# ---------------------------------------------------------------------------
# 7. full-dataset reproduction (conditional)

@pytest.mark.skipif(
    "COMPASS_CATALOG" not in os.environ,
    reason="set COMPASS_CATALOG to the dataset's catalog manifest to run "
           "the hours-long reproduction check")
def test_7_dataset_reproduction():
    config = ExperimentConfig(
        catalog=os.environ["COMPASS_CATALOG"], granularity="gesture",
        cv="louo", tasks=("S",), seed=0)
    report = run_experiment(config)
    acc = report.aggregate["accuracy_mean"]
    edit = report.aggregate["edit_score_mean"]
    check("7 dataset reproduction (S gestures, LOUO)",
          abs(acc - 84.6) <= 4.0 and abs(edit - 87.7) <= 5.0,
          f"accuracy {acc:.2f} (84.6 +-4), edit {edit:.2f} (87.7 +-5)")
