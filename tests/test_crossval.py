"""Fold planning invariants on a catalog shaped like the real six-task corpus."""

from collections import Counter

import pytest

from surgact.crossval import (
    LOTO_SUITE_ROWS,
    TASK_COMBOS,
    TASK_ORDER,
    FoldPlan,
    check_gesture_transfer,
    expand_tasks,
    loto_folds,
    loto_suite,
    louo_folds,
)
from surgact.dataset import Catalog
from surgact.errors import ConfigError

from conftest import STUDY_SHAPE, SUBJECT_POOLS


class TestTaskCombos:
    def test_known_combos(self):
        assert TASK_COMBOS["JIGSAWS"] == ("S", "NP", "KT")
        assert TASK_COMBOS["ROSMA"] == ("PaS", "PoaP")
        assert TASK_COMBOS["SNP"] == ("S", "NP")
        assert TASK_COMBOS["PTPaS"] == ("PT", "PaS")
        assert TASK_COMBOS["All"] == TASK_ORDER

    def test_combo_tasks_follow_canonical_order(self):
        for tasks in TASK_COMBOS.values():
            idx = [TASK_ORDER.index(t) for t in tasks]
            assert idx == sorted(idx)

    def test_expand_tasks(self):
        assert expand_tasks(["S", "JIGSAWS"]) == ("S", "NP", "KT")
        assert expand_tasks(["ROSMA", "JIGSAWS", "PT"]) == TASK_ORDER
        assert expand_tasks(["T02", "PaS", "T01", "T02"]) == ("PaS", "T01", "T02")
        assert expand_tasks([]) == ()
        for name, tasks in TASK_COMBOS.items():
            assert expand_tasks([name]) == tasks
        for task in TASK_ORDER:
            assert expand_tasks([task]) == (task,)


class TestFoldPlan:
    def test_rejects_shared_trials(self):
        key = ("S", "B", "001")
        with pytest.raises(ConfigError, match="trials in both sides"):
            FoldPlan(name="x", held_out="y", train_trials=(key,), test_trials=(key,))


class TestLouoFolds:
    def test_one_fold_per_subject_across_all_tasks(self, study_catalog):
        folds = louo_folds(study_catalog, ("All",))
        assert len(folds) == 28  # 8 + 8 + 12 subjects over three sources

    def test_single_task_fold_count(self, study_catalog):
        assert len(louo_folds(study_catalog, ["S"])) == 8
        assert len(louo_folds(study_catalog, ["PT"])) == 8
        assert len(louo_folds(study_catalog, ["PaS"])) == 12

    def test_shared_subjects_collapse_to_shared_folds(self, study_catalog):
        # the three tasks recorded from the same eight people: still 8 folds
        folds = louo_folds(study_catalog, ("JIGSAWS",))
        assert len(folds) == 8

    def test_fold_partition_invariants(self, study_catalog):
        tasks = TASK_COMBOS["All"]
        pool = {e.key for e in study_catalog.entries_for_tasks(tasks)}
        folds = louo_folds(study_catalog, tasks)
        seen_test = Counter()
        for fold in folds:
            train, test = set(fold.train_trials), set(fold.test_trials)
            assert train and test
            assert not train & test
            assert train | test == pool
            held = {study_catalog.get(*k).subject_key for k in test}
            assert len(held) == 1
            held_key = held.pop()
            assert fold.held_out == f"{held_key[0]}/{held_key[1]}"
            assert all(study_catalog.get(*k).subject_key != held_key for k in train)
            seen_test.update(test)
        # every trial is tested exactly once across the folds
        assert set(seen_test) == pool
        assert all(v == 1 for v in seen_test.values())

    def test_trial_keys_are_sorted(self, study_catalog):
        fold = louo_folds(study_catalog, ["S"])[0]
        assert list(fold.train_trials) == sorted(fold.train_trials)
        assert list(fold.test_trials) == sorted(fold.test_trials)

    def test_fold_names(self, study_catalog):
        names = [f.name for f in louo_folds(study_catalog, ["PaS"])]
        assert names[0] == "louo-ROSMA-R01"
        assert len(set(names)) == len(names)

    def test_unknown_task(self, study_catalog):
        with pytest.raises(ConfigError, match="tasks not in catalog"):
            louo_folds(study_catalog, ["XX"])

    def test_empty_selection(self, study_catalog):
        with pytest.raises(ConfigError, match="no tasks selected"):
            louo_folds(study_catalog, [])


class TestGestureTransfer:
    def test_same_source_tasks_allowed(self, study_catalog):
        check_gesture_transfer(study_catalog, ("S", "NP", "KT"))

    def test_cross_source_rejected(self, study_catalog):
        with pytest.raises(ConfigError,
                           match="gesture vocabularies do not transfer across datasets"):
            check_gesture_transfer(study_catalog, ("S", "PT"))

    def test_unlabeled_task_rejected(self, study_catalog):
        with pytest.raises(ConfigError, match="tasks without gesture labels"):
            check_gesture_transfer(study_catalog, ("PaS",))


class TestLotoFolds:
    def test_single_plan(self, study_catalog):
        plan = loto_folds(study_catalog, "S", ["NP"])
        assert plan.name == "loto-S-from-NP"
        assert plan.held_out == "S"
        assert len(plan.train_trials) == STUDY_SHAPE["NP"][0]
        assert len(plan.test_trials) == STUDY_SHAPE["S"][0]
        assert {k[0] for k in plan.train_trials} == {"NP"}
        assert {k[0] for k in plan.test_trials} == {"S"}

    def test_train_tasks_canonically_ordered_in_name(self, study_catalog):
        plan = loto_folds(study_catalog, "S", ["PaS", "KT"])
        assert plan.name == "loto-S-from-KT+PaS"

    def test_test_task_in_train_rejected(self, study_catalog):
        with pytest.raises(ConfigError, match="also in training tasks"):
            loto_folds(study_catalog, "S", ["S", "NP"])

    def test_unknown_task(self, study_catalog):
        with pytest.raises(ConfigError, match="tasks not in catalog"):
            loto_folds(study_catalog, "S", ["XX"])

    def test_empty_train(self, study_catalog):
        with pytest.raises(ConfigError, match="no training tasks selected"):
            loto_folds(study_catalog, "S", [])

    def test_gesture_transfer_guard(self, study_catalog):
        with pytest.raises(ConfigError,
                           match="gesture vocabularies do not transfer across datasets"):
            loto_folds(study_catalog, "KT", ["PT"], granularity="gesture")
        loto_folds(study_catalog, "S", ["NP"], granularity="gesture")


class TestLotoSuite:
    def test_row_inventory(self):
        # 4 + 4 + 3 + 3 + 5 + 3 plans grouped by test task
        per_test = Counter(test for test, _ in LOTO_SUITE_ROWS)
        assert per_test == {"S": 4, "NP": 4, "KT": 3, "PT": 3, "PaS": 5, "PoaP": 3}
        assert len(LOTO_SUITE_ROWS) == 22
        assert len(set(LOTO_SUITE_ROWS)) == 22

    def test_expected_rows_present(self):
        assert ("S", ("KT", "PT", "PaS", "PoaP")) in LOTO_SUITE_ROWS
        assert ("PT", ("PaS",)) in LOTO_SUITE_ROWS
        assert ("PoaP", ("PaS",)) in LOTO_SUITE_ROWS

    def test_suite_plans(self, study_catalog):
        plans = loto_suite(study_catalog)
        assert len(plans) == 22
        for plan, (test_task, train_tasks) in zip(plans, LOTO_SUITE_ROWS):
            assert plan.held_out == test_task
            assert {k[0] for k in plan.test_trials} == {test_task}
            assert {k[0] for k in plan.train_trials} == set(train_tasks)
            assert not set(plan.train_trials) & set(plan.test_trials)

    def test_gesture_suite_keeps_same_source_rows(self, study_catalog):
        plans = loto_suite(study_catalog, granularity="gesture")
        kept = {(p.held_out, tuple(sorted({k[0] for k in p.train_trials})))
                for p in plans}
        assert kept == {
            ("S", ("KT", "NP")),
            ("S", ("NP",)),
            ("NP", ("KT", "S")),
            ("NP", ("S",)),
            ("KT", ("NP", "S")),
        }

    def test_missing_task_rejected(self, study_catalog):
        partial = Catalog(entries=tuple(
            e for e in study_catalog.entries if e.task != "PoaP"))
        with pytest.raises(ConfigError, match="catalog lacks tasks required by the suite"):
            loto_suite(partial)


class TestStudyShapeFixture:
    def test_counts_match_the_published_corpus(self, study_catalog):
        per_task = Counter(e.task for e in study_catalog.entries)
        assert per_task == {t: n for t, (n, _) in STUDY_SHAPE.items()}
        for dataset, pool in SUBJECT_POOLS.items():
            subjects = {e.subject for e in study_catalog.entries
                        if e.dataset == dataset}
            assert subjects == set(pool)
