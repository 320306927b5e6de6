"""Experiment orchestration tests on the synthetic corpus.

The heavier end-to-end assertions (byte determinism, learnability at full
training length) live in the acceptance module; here experiments run with
one or two epochs because the claims under test are structural.
"""

import errno
import gc
import json
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import surgact.atomic as atomic_mod
import surgact.runner as runner_mod
from surgact.cli import main as cli_main
from surgact.crossval import TASK_ORDER, FoldPlan, louo_folds
from surgact.dataset import (
    GAP,
    GRANULARITIES,
    IDLE,
    arm_columns,
    build_catalog,
    encode_frames,
    load_transcript,
)
from surgact.errors import ConfigError, DataError, NonFiniteLoss, SurgactError
from surgact.metrics import average_precision, map_report
from surgact.nn import Adam
from surgact.runner import (
    ExperimentConfig,
    combine_reports,
    derive_fold_seed,
    emit_report,
    experiment_vocabulary,
    fold_model_config,
    load_experiment_config,
    load_report,
    plan_folds,
    read_trials,
    render_tables,
    run_experiment,
    run_fold,
    run_single_fold,
)
from surgact.synth import generate_synthetic_dataset
from surgact.tcn import HYPERPARAM_DEFAULTS, predict_labels


def synth_config(manifest, **kwargs):
    base = dict(catalog=str(manifest), granularity="mp", cv="louo",
                tasks=("T01",), epochs=2, seed=3)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_louo_with_tasks(self, synth_manifest):
        cfg = synth_config(synth_manifest)
        assert cfg.tasks == ("T01",)

    def test_tasks_list_coerced_to_tuple(self, synth_manifest):
        cfg = synth_config(synth_manifest, tasks=["T01", "T02"], filters=[8, 12, 16])
        assert cfg.tasks == ("T01", "T02")
        assert cfg.filters == (8, 12, 16)

    @pytest.mark.parametrize("kwargs, message", [
        # louo needs a selection
        ({"tasks": None}, "louo needs tasks"),
        # loto argument on louo
        ({"test_task": "T02"}, "test_task/train_tasks are for loto runs"),
        # loto needs both sides
        ({"cv": "loto", "tasks": None}, "loto needs test_task and train_tasks"),
        ({"cv": "loto", "tasks": None, "test_task": "T01"},
         "loto needs test_task and train_tasks"),
        # suite takes no tasks
        ({"cv": "loto-suite"}, "loto-suite takes no task arguments"),
        ({"granularity": "frame"}, "unknown granularity: 'frame'"),
        ({"cv": "kfold", "tasks": None}, r"cv must be one of \(.*\), got 'kfold'"),
        ({"learning_rate": 0.0}, "learning_rate must be a finite number > 0, got 0.0"),
        ({"learning_rate": float("nan")}, "learning_rate must be a finite number > 0, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be a finite number > 0, got inf"),
        ({"learning_rate": float("-inf")}, "learning_rate must be a finite number > 0, got -inf"),
        ({"weight_decay": -1e-4}, "weight_decay must be a finite number >= 0, got -0.0001"),
        ({"weight_decay": float("nan")}, "weight_decay must be a finite number >= 0, got nan"),
        ({"weight_decay": float("inf")}, "weight_decay must be a finite number >= 0, got inf"),
        ({"weight_decay": float("-inf")}, "weight_decay must be a finite number >= 0, got -inf"),
        ({"epochs": -1}, "epochs must be an integer >= 0, got -1"),
        # keeps louo tasks
        ({"cv": "loto", "test_task": "T02", "train_tasks": ("T01",)},
         "tasks are for louo runs"),
        ({"kernel_size": 4}, "kernel_size must be an odd positive integer, got 4"),
        ({"kernel_size": True}, "kernel_size must be an odd positive integer, got True"),
        # as a config file can spell them: rejected before any file is read
        ({"filters": [4, 6]}, r"filters must be 3 positive counts, got \[4, 6\]"),
        ({"filters": [4, 6, "8"]}, r"filters must be 3 positive counts, got \[4, 6, '8'\]"),
        ({"epochs": "5"}, "epochs must be an integer >= 0, got '5'"),
        ({"epochs": 2.0}, "epochs must be an integer >= 0, got 2.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"learning_rate": "1e-3"}, "learning_rate must be a finite number > 0, got '1e-3'"),
        ({"tasks": "T01"}, "tasks must be a list of task names, got 'T01'"),
        ({"tasks": ["T01", 2]}, r"tasks must be a list of task names, got \['T01', 2\]"),
        ({"catalog": 7}, "catalog must be a string, got 7"),
        # column settings out of range, rejected before any file is read
        ({"left_offset": -1}, "left_offset must be >= 0, got -1"),
        ({"right_offset": -1}, "right_offset must be >= 0, got -1"),
        ({"expected_channels": 0}, "expected_channels must be >= 1, got 0"),
        ({"expected_channels": -3}, "expected_channels must be >= 1, got -3"),
        # column 18 twice
        ({"right_offset": 5}, r"left_offset 0 and right_offset 5 select columns \[18\] twice"),
        ({"left_offset": 19, "right_offset": 19},
         r"right_offset 19 select columns \[19, 20, 21, 31, 32, 33, 37\] twice"),
    ], ids=[f"kwargs{i}" for i in range(34)])
    def test_rejections(self, synth_manifest, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            synth_config(synth_manifest, **kwargs)

    def test_loto_form(self, synth_manifest):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="loto", test_task="T01", train_tasks=("T02",))
        assert cfg.learning_rate == HYPERPARAM_DEFAULTS["loto"]["learning_rate"]

    def test_hyperparameter_defaults_per_mode(self, synth_manifest):
        louo = synth_config(synth_manifest)
        assert louo.learning_rate == HYPERPARAM_DEFAULTS["louo"]["learning_rate"]
        assert louo.weight_decay == HYPERPARAM_DEFAULTS["louo"]["weight_decay"]
        loto = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                                cv="loto", test_task="T01", train_tasks=("T02",))
        assert loto.learning_rate == HYPERPARAM_DEFAULTS["loto"]["learning_rate"]
        assert loto.weight_decay == HYPERPARAM_DEFAULTS["loto"]["weight_decay"]
        suite = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                                 cv="loto-suite")
        assert suite.learning_rate == HYPERPARAM_DEFAULTS["loto"]["learning_rate"]

    def test_explicit_hyperparameters_win(self, synth_manifest):
        cfg = synth_config(synth_manifest, learning_rate=1e-3, weight_decay=1e-4)
        assert cfg.learning_rate == 1e-3
        assert cfg.weight_decay == 1e-4

    def test_feature_spec_follows_granularity(self, synth_manifest):
        for granularity in ("gesture", "mp"):
            assert synth_config(synth_manifest, granularity=granularity).feature_columns() == (
                arm_columns(0) + arm_columns(19))
        left = synth_config(synth_manifest, granularity="mp-left")
        assert left.feature_columns() == arm_columns(0)
        right = synth_config(synth_manifest, granularity="mp-right")
        assert right.feature_columns() == arm_columns(19)
        shifted = synth_config(synth_manifest, granularity="mp-left", left_offset=2)
        assert shifted.feature_columns() == arm_columns(2)
        assert len(shifted.feature_columns()) == 7


class TestLoadExperimentConfig:
    def write(self, tmp_path, doc):
        p = tmp_path / "cfg" / "exp.json"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(doc))
        return p

    BASE = {"catalog": "data/manifest.json", "granularity": "mp",
            "cv": "louo", "tasks": ["T01"]}

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        p = self.write(tmp_path, dict(self.BASE, output_dir="out"))
        cfg = load_experiment_config(p)
        assert cfg.catalog == str((tmp_path / "cfg" / "data" / "manifest.json").resolve())
        assert cfg.output_dir == str((tmp_path / "cfg" / "out").resolve())

    def test_override_paths_resolve_against_the_working_directory(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = self.write(tmp_path, dict(self.BASE, output_dir="out"))
        cfg = load_experiment_config(p, catalog="c/m.json")
        assert Path(cfg.catalog).resolve() == tmp_path / "c" / "m.json"
        assert cfg.output_dir == str((tmp_path / "cfg" / "out").resolve())

    def test_overrides_alone(self, tmp_path):
        cfg = load_experiment_config(catalog="m.json", granularity="mp", cv="louo",
                                     tasks=["T01"], epochs=None)
        assert cfg == ExperimentConfig(catalog="m.json", granularity="mp", cv="louo",
                                       tasks=("T01",))
        with pytest.raises(ConfigError, match=r"missing required settings "
                                              r"\(config keys or flags\): \['catalog'\]"):
            load_experiment_config(granularity="mp", cv="louo", tasks=["T01"])

    def test_overrides_win_and_none_is_ignored(self, tmp_path):
        p = self.write(tmp_path, dict(self.BASE, epochs=10))
        cfg = load_experiment_config(p, epochs=3, seed=9, granularity=None)
        assert cfg.epochs == 3
        assert cfg.seed == 9
        assert cfg.granularity == "mp"

    def test_unknown_file_key(self, tmp_path):
        p = self.write(tmp_path, dict(self.BASE, batch_size=4))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_experiment_config(p)

    def test_unknown_override(self, tmp_path):
        p = self.write(tmp_path, self.BASE)
        with pytest.raises(ConfigError, match="unknown config override"):
            load_experiment_config(p, momentum=0.9)

    def test_missing_required_key(self, tmp_path):
        p = self.write(tmp_path, {"granularity": "mp", "cv": "louo"})
        with pytest.raises(ConfigError,
                           match=r"missing required settings \(config keys or flags\)"):
            load_experiment_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_experiment_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text("{oops")
        with pytest.raises(ConfigError, match="config file is not valid JSON"):
            load_experiment_config(p)


class TestDeriveFoldSeed:
    def test_frozen_values(self):
        # pinned so a future change to the derivation cannot slip in silently
        assert derive_fold_seed(0, "louo-SYNTH-U01") == 4250294987712566844
        assert derive_fold_seed(0, "louo-SYNTH-U02") == 2552759846384323929
        assert derive_fold_seed(7, "loto-S-from-NP") == 8347848466432461936

    def test_distinct_across_folds_and_seeds(self):
        values = {derive_fold_seed(s, name)
                  for s in (0, 1, 2)
                  for name in ("a", "b", "c", "louo-X-1")}
        assert len(values) == 12

    def test_range(self):
        for s in (0, 123456789):
            v = derive_fold_seed(s, "fold")
            assert 0 <= v < 2**63


class TestPlanFolds:
    def test_louo_by_tasks(self, synth_manifest):
        catalog = build_catalog(synth_manifest)
        plans = plan_folds(synth_config(synth_manifest), catalog)
        assert [p.name for p in plans] == [
            "louo-SYNTH-U01", "louo-SYNTH-U02", "louo-SYNTH-U03"]

    def test_louo_by_combo(self, study_catalog, synth_manifest):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="louo", tasks=("JIGSAWS",))
        assert len(plan_folds(cfg, study_catalog)) == 8

    def test_louo_gesture_guard(self, study_catalog, synth_manifest):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="gesture",
                               cv="louo", tasks=("All",))
        with pytest.raises(ConfigError,
                           match=r"tasks without gesture labels: \['PaS', 'PoaP'\]"):
            plan_folds(cfg, study_catalog)

    @pytest.mark.parametrize("combo", ["JIGSAWS", "All"])
    def test_a_combo_name_plans_its_tasks_folds(self, study_catalog, synth_manifest, combo):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="louo", tasks=[combo])
        assert cfg.tasks == (combo,)  # kept as given
        assert plan_folds(cfg, study_catalog) == louo_folds(
            study_catalog, (combo,))

    def test_a_task_and_a_combo_that_holds_it_select_it_once(self, study_catalog,
                                                              synth_manifest):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="louo", tasks=("S", "JIGSAWS"))
        plans = plan_folds(cfg, study_catalog)
        assert plans == louo_folds(study_catalog, ("S", "NP", "KT"))
        for plan in plans:
            keys = plan.train_trials + plan.test_trials
            assert len(set(keys)) == len(keys)
            assert {k[0] for k in keys} == {"S", "NP", "KT"}

    def test_loto_train_tasks_by_combo(self, study_catalog, synth_manifest):
        def loto(test_task):
            return ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                                    cv="loto", test_task=test_task,
                                    train_tasks=("JIGSAWS",))
        [plan] = plan_folds(loto("PT"), study_catalog)
        assert plan.name == "loto-PT-from-S+NP+KT"
        assert {k[0] for k in plan.train_trials} == {"S", "NP", "KT"}
        with pytest.raises(ConfigError, match="test task 'S' also in training tasks"):
            plan_folds(loto("S"), study_catalog)

    def test_loto_single_plan(self, synth_manifest):
        catalog = build_catalog(synth_manifest)
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="loto", test_task="T01", train_tasks=("T02",))
        plans = plan_folds(cfg, catalog)
        assert len(plans) == 1
        assert plans[0].held_out == "T01"

    def test_suite_on_study_catalog(self, study_catalog, synth_manifest):
        cfg = ExperimentConfig(catalog=str(synth_manifest), granularity="mp",
                               cv="loto-suite")
        assert len(plan_folds(cfg, study_catalog)) == 22


def read_planned(cfg, keys=None):
    """`read_trials` as `run_experiment` calls it: every planned trial, or
    the planned trials `keys`."""
    catalog = build_catalog(cfg.catalog)
    plans = plan_folds(cfg, catalog)
    if keys is None:
        keys = sorted({k for p in plans for k in p.train_trials + p.test_trials})
    return read_trials(cfg, catalog, plans, keys)


def synth_trials(manifest, granularity="mp"):
    """Every trial of the synthetic corpus, read at `granularity`."""
    return read_planned(synth_config(manifest, granularity=granularity,
                                     tasks=("T01", "T02")))


class TestExperimentVocabulary:
    def test_mp_includes_idle(self, synth_manifest):
        vocab = synth_trials(synth_manifest).vocabulary
        assert "Idle" in vocab
        assert len(vocab) == 5  # 4 classes + Idle
        assert list(vocab) == sorted(vocab)

    def test_gesture_has_no_idle(self, synth_manifest):
        assert synth_trials(synth_manifest, "gesture").vocabulary == ("G1", "G2", "G3", "G4")
        entry = build_catalog(synth_manifest).entries[0]
        parsed = load_transcript(entry.transcript_path("gesture"), "gesture")
        assert experiment_vocabulary("gesture", [parsed]) == tuple(sorted(parsed.labels))

    def test_per_arm_vocab_keeps_own_side_plus_idle(self, synth_manifest):
        left = synth_trials(synth_manifest, "mp-left").vocabulary
        right = synth_trials(synth_manifest, "mp-right").vocabulary
        assert "Idle" in left and "Idle" in right
        assert all("(L," in lab for lab in left if lab != "Idle")
        assert all("(R," in lab for lab in right if lab != "Idle")
        assert set(left) & set(right) == {"Idle"}


def write_mini_corpus(root, *, with_gesture=True, with_arm_files=False):
    """Two-subject corpus with a gap in the gesture labels and no per-arm
    transcript files, to exercise the GAP targets and the arm-derivation path."""
    (root / "kin").mkdir(parents=True)
    (root / "lab").mkdir()
    rng = np.random.default_rng(0)
    entries = []
    for subject in ("A", "B"):
        stem = f"T_{subject}_001"
        frames = 40
        np.savetxt(root / "kin" / f"{stem}.txt",
                   rng.normal(size=(frames, 38)), fmt="%.4f")
        (root / "lab" / f"{stem}_mp.txt").write_text(
            "0 19 Grasp(L, X)\n20 39 Push(R, Y)\n")
        transcripts = {"mp": f"lab/{stem}_mp.txt"}
        if with_gesture:
            (root / "lab" / f"{stem}_gesture.txt").write_text(
                "0 9 G1\n20 39 G2\n")
            transcripts["gesture"] = f"lab/{stem}_gesture.txt"
        if with_arm_files:
            (root / "lab" / f"{stem}_left.txt").write_text(
                "0 19 Grasp(L, X)\n20 39 Idle\n")
            transcripts["mp-left"] = f"lab/{stem}_left.txt"
        entries.append({"dataset": "MINI", "task": "T", "subject": subject,
                        "trial": "001", "kinematics": f"kin/{stem}.txt",
                        "transcripts": transcripts})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"sample_rate": 10.0, "entries": entries}))
    return manifest


def mini_config(manifest, granularity, **kwargs):
    return ExperimentConfig(catalog=str(manifest), granularity=granularity, cv="louo",
                            tasks=("T",), **kwargs)


class TestReadTrials:
    def test_mp_targets_label_every_frame(self, synth_manifest):
        cfg = synth_config(synth_manifest)
        everything = read_planned(cfg)
        key = sorted(everything.tensors)[0]
        trials = read_planned(cfg, [key])
        assert trials.vocabulary == everything.vocabulary
        tensors = trials.tensors[key]
        assert tensors.targets.dtype == np.int64
        assert tensors.features.shape == (tensors.targets.shape[0], 14)
        assert set(np.unique(tensors.targets)) <= set(range(len(trials.vocabulary)))

    def test_gesture_gap_is_gap(self, tmp_path):
        manifest = write_mini_corpus(tmp_path)
        trials = read_planned(mini_config(manifest, "gesture"))
        assert trials.vocabulary == ("G1", "G2")
        targets = trials.tensors[("T", "A", "001")].targets
        np.testing.assert_array_equal(targets[0:10], 0)
        np.testing.assert_array_equal(targets[10:20], GAP)
        np.testing.assert_array_equal(targets[20:40], 1)

    def test_arm_view_derived_from_combined_transcript(self, tmp_path):
        manifest = write_mini_corpus(tmp_path)
        trials = read_planned(mini_config(manifest, "mp-left"))
        assert trials.vocabulary == ("Grasp(L, X)", "Idle")
        targets = trials.tensors[("T", "A", "001")].targets
        np.testing.assert_array_equal(targets[:20], 0)   # the L grasp
        np.testing.assert_array_equal(targets[20:], 1)   # Idle

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_every_trial_carries_the_encoded_targets(self, tmp_path, granularity):
        # the targets encode_frames gives the bound transcript, for every
        # granularity: no GAP where Idle fills the gaps, GAP on a gesture
        # transcript's unlabelled frames
        manifest = write_mini_corpus(tmp_path)
        trials = read_planned(mini_config(manifest, granularity))
        label_to_id = {lab: i for i, lab in enumerate(trials.vocabulary)}
        for key, tensors in trials.tensors.items():
            expected = encode_frames(trials.transcripts[key], label_to_id,
                                     fill=None if granularity == "gesture" else IDLE)
            np.testing.assert_array_equal(tensors.targets, expected)
            gap = tensors.targets == GAP
            if granularity == "gesture":
                assert gap[10:20].all() and gap.sum() == 10
            else:
                assert not gap.any()

    def test_declared_arm_file_wins_over_derivation(self, tmp_path):
        manifest = write_mini_corpus(tmp_path, with_arm_files=True)
        trials = read_planned(mini_config(manifest, "mp-left"))
        assert trials.vocabulary == ("Grasp(L, X)", "Idle")
        np.testing.assert_array_equal(trials.tensors[("T", "A", "001")].targets[:20], 0)

    def test_unattributed_label_cannot_be_derived(self, tmp_path):
        manifest = write_mini_corpus(tmp_path)
        (tmp_path / "lab" / "T_B_001_mp.txt").write_text("0 19 Touch\n20 39 Push(R, Y)\n")
        with pytest.raises(DataError,
                           match="T_B_001_mp.txt: motion primitive 'Touch' names no tool side"):
            read_planned(mini_config(manifest, "mp-left"), keys=[])

    def test_vocabulary_requires_transcripts_everywhere(self, tmp_path):
        manifest = write_mini_corpus(tmp_path, with_gesture=False)
        plan = FoldPlan(name="f", held_out="B", train_trials=(("T", "A", "001"),),
                        test_trials=(("T", "B", "001"),))
        with pytest.raises(DataError, match="declares no 'gesture' transcript"):
            read_trials(mini_config(manifest, "gesture"), build_catalog(manifest),
                        [plan], [])

    def test_the_record_holds_what_the_folds_share_read_only(self, synth_manifest):
        cfg = synth_config(synth_manifest)
        catalog = build_catalog(synth_manifest)
        plans = plan_folds(cfg, catalog)
        key, other = plans[0].test_trials
        trials = read_trials(cfg, catalog, plans, [key])
        assert (trials.granularity, trials.feature_columns) == ("mp", cfg.feature_columns())
        assert set(trials.tensors) == set(trials.transcripts) == {key}
        tensors = trials.tensors[key]
        assert trials.transcripts[key].length == tensors.features.shape[0]
        for array in (tensors.features, tensors.targets):
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            trials.tensors[other] = tensors
        with pytest.raises(FrozenInstanceError):
            trials.vocabulary = ()


class TestRunFold:
    def test_payload_shape(self, synth_manifest):
        cfg = synth_config(synth_manifest)
        plans = plan_folds(cfg, build_catalog(synth_manifest))
        trials = read_planned(cfg)
        payload = run_fold(plans[0], trials, fold_model_config(plans[0], trials, cfg))
        assert payload["status"] == "ok"
        assert payload["name"] == "louo-SYNTH-U01"
        assert payload["held_out"] == "SYNTH/U01"
        assert payload["seed"] == derive_fold_seed(cfg.seed, plans[0].name)
        assert payload["kernel_size"] % 2 == 1 and payload["kernel_size"] >= 3
        assert payload["num_classes"] == 5
        assert payload["num_train_trials"] == 4
        assert payload["num_test_trials"] == 2
        assert len(payload["training"]["epoch_losses"]) == cfg.epochs
        assert payload["training"]["steps"] == 4 * cfg.epochs
        assert set(payload["metrics"]["per_trial"]) == {
            "/".join(k) for k in plans[0].test_trials}
        assert 0.0 <= payload["metrics"]["accuracy_mean"] <= 100.0
        assert payload["map"] is not None
        # verb grouping: map classes are verbs, not full labels
        assert set(payload["map"]["per_class"]) <= {
            "Grasp", "Release", "Touch", "Untouch", "Pull", "Push", "Idle"}

    def test_map_scores_the_kept_frames_alone(self, tmp_path, monkeypatch):
        # frames 10-19 of each gesture trial are GAP: the fold's map
        # is map_report over the model's scores on the other 30 frames
        models = []
        real_predict = runner_mod.predict_labels

        def predict_spy(model, features):
            models.append(model)
            return real_predict(model, features)

        monkeypatch.setattr(runner_mod, "predict_labels", predict_spy)
        manifest = write_mini_corpus(tmp_path)
        cfg = mini_config(manifest, "gesture", epochs=1, kernel_size=3)
        plan = plan_folds(cfg, build_catalog(manifest))[0]
        trials = read_planned(cfg)
        payload = run_fold(plan, trials, fold_model_config(plan, trials, cfg))
        (model,) = models
        (key,) = plan.test_trials
        tensors = trials.tensors[key]
        _, scores = predict_labels(model, tensors.features)

        def block(frames):
            return map_report(
                {name: average_precision(scores[frames, i], tensors.targets[frames] == i)
                 for i, name in enumerate(trials.vocabulary)},
                {"G1": 1, "G2": 1})

        labelled = tensors.targets != GAP
        assert labelled.sum() == 30
        assert payload["map"] == block(labelled)
        # the GAP frames, read as negatives of every class, would change the APs
        assert payload["map"] != block(np.ones(40, dtype=bool))

    def test_a_gap_ends_a_segment(self, tmp_path, monkeypatch):
        # three segments, two of them G1 with only a gap between them
        manifest = write_mini_corpus(tmp_path)
        for subject in ("A", "B"):
            (tmp_path / "lab" / f"T_{subject}_001_gesture.txt").write_text(
                "0 9 G1\n20 29 G1\n30 39 G2\n")
        # G1 on frames 0-19, G2 on 20-39: the second G1 segment is missed
        pred = np.repeat([0, 1], 20)

        def predict(model, features):
            return pred, np.eye(2)[pred]

        monkeypatch.setattr(runner_mod, "predict_labels", predict)
        cfg = mini_config(manifest, "gesture", epochs=0, kernel_size=3)
        plan = plan_folds(cfg, build_catalog(manifest))[0]
        trials = read_planned(cfg)
        payload = run_fold(plan, trials, fold_model_config(plan, trials, cfg))
        assert payload["map"]["support"] == {"G1": 2, "G2": 1}
        # segments [G1, G2] against [G1, G1, G2]: one deletion over three
        (trial,) = payload["metrics"]["per_trial"].values()
        assert trial["edit_score"] == pytest.approx(200 / 3)
        assert trial["accuracy"] == pytest.approx(200 / 3)

    def test_kernel_override_is_used(self, synth_manifest):
        cfg = synth_config(synth_manifest, kernel_size=5, epochs=0)
        plans = plan_folds(cfg, build_catalog(synth_manifest))
        trials = read_planned(cfg)
        payload = run_fold(plans[0], trials, fold_model_config(plans[0], trials, cfg))
        assert payload["kernel_size"] == 5

    def test_training_never_touches_held_out_trials(self, synth_manifest, monkeypatch):
        # the kernel width and the training steps see exactly the fold's
        # training trials, however many trials the record holds
        seen = []
        real_kernel, real_train = runner_mod.compute_kernel_size, runner_mod.train_fold

        def kernel_spy(transcripts):
            transcripts = list(transcripts)
            seen.append(("kernel", transcripts))
            return real_kernel(transcripts)

        def train_spy(model, fold, data):
            seen.append(("train", sorted(data)))
            return real_train(model, fold, data)

        monkeypatch.setattr(runner_mod, "compute_kernel_size", kernel_spy)
        monkeypatch.setattr(runner_mod, "train_fold", train_spy)
        cfg = synth_config(synth_manifest, epochs=1)
        plans = plan_folds(cfg, build_catalog(synth_manifest))
        trials = read_planned(cfg)
        for plan in plans:
            seen.clear()
            run_fold(plan, trials, fold_model_config(plan, trials, cfg))
            assert not set(plan.train_trials) & set(plan.test_trials)
            assert seen == [
                ("kernel", [trials.transcripts[k] for k in plan.train_trials]),
                ("train", sorted(plan.train_trials)),
            ]


class TestRunExperiment:
    def test_report_structure_and_aggregates(self, synth_manifest, tmp_path):
        cfg = synth_config(synth_manifest, output_dir=str(tmp_path / "out"))
        report = run_experiment(cfg)
        assert len(report.folds) == 3
        assert report.experiment["fold_names"] == [
            "louo-SYNTH-U01", "louo-SYNTH-U02", "louo-SYNTH-U03"]
        assert report.experiment["vocabulary"][-1] != ""
        assert report.experiment["sample_rate"] == 30.0
        assert report.aggregate["num_ok_folds"] == 3
        agg_acc = np.mean([f["metrics"]["accuracy_mean"] for f in report.folds])
        assert report.aggregate["accuracy_mean"] == pytest.approx(agg_acc)
        # emitted artifacts: report.json must survive the loader's re-check
        loaded = load_report(tmp_path / "out" / "report.json")
        assert loaded["aggregate"]["num_folds"] == 3
        assert (tmp_path / "out" / "tables.txt").is_file()

    def test_experiment_block_holds_every_setting(self, synth_manifest):
        cfg = synth_config(synth_manifest, epochs=1, kernel_size=5)
        experiment = run_experiment(cfg).experiment
        names = {f.name for f in fields(ExperimentConfig)} - {"output_dir", "kernel_size"}
        assert names | {"kernel_size_override"} <= set(experiment)
        assert "output_dir" not in experiment and "kernel_size" not in experiment
        assert experiment["kernel_size_override"] == 5
        assert experiment["learning_rate"] == HYPERPARAM_DEFAULTS["louo"]["learning_rate"]
        assert experiment["weight_decay"] == HYPERPARAM_DEFAULTS["louo"]["weight_decay"]

    def test_timing_is_segregated(self, synth_manifest):
        report = run_experiment(synth_config(synth_manifest, epochs=1))
        with_timing = report.payload(include_timing=True)
        without = report.payload(include_timing=False)
        assert "timing" in with_timing and "timing" not in without
        assert set(with_timing["timing"]) == {"total_seconds", "folds"}

    def test_runs_are_byte_deterministic(self, synth_manifest):
        a = run_experiment(synth_config(synth_manifest))
        b = run_experiment(synth_config(synth_manifest))
        assert a.json_bytes(include_timing=False) == b.json_bytes(include_timing=False)

    def test_a_comma_delimited_corpus_gives_the_same_report(self, tmp_path):
        manifest = generate_synthetic_dataset(
            tmp_path / "corpus", num_tasks=1, num_subjects=3, trials_per_subject=1,
            frames_range=(40, 60), seed=3)
        cfg = synth_config(manifest, kernel_size=3)
        blank = run_experiment(cfg).json_bytes(include_timing=False)
        for entry in build_catalog(manifest).entries:
            text = entry.kinematics.read_text()
            assert "," not in text
            entry.kinematics.write_text(text.replace(" ", ", "))
        assert run_experiment(cfg).json_bytes(include_timing=False) == blank

    def test_one_model_alive_at_a_time(self, synth_manifest, monkeypatch):
        # each fold's model is dropped before the next fold builds its own
        models = []
        real_model = runner_mod.TcnModel

        def tracked_model(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in models), "an earlier fold's model is alive"
            model = real_model(*args, **kwargs)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(runner_mod, "TcnModel", tracked_model)
        run_experiment(synth_config(synth_manifest, epochs=0))
        assert len(models) == 3

    def test_diverged_folds_are_skipped_not_fatal(self, synth_manifest, monkeypatch):
        def explode(*args, **kwargs):
            raise NonFiniteLoss("synthetic divergence")

        monkeypatch.setattr(runner_mod, "train_fold", explode)
        report = run_experiment(synth_config(synth_manifest, epochs=1))
        assert report.aggregate["num_diverged_folds"] == 3
        assert report.aggregate["num_ok_folds"] == 0
        assert report.aggregate["accuracy_mean"] is None
        assert all(f["status"] == "diverged" for f in report.folds)
        assert all("divergence" in f["error"] for f in report.folds)

    def test_every_fold_payload_has_the_same_keys(self, synth_manifest, tmp_path,
                                                  monkeypatch):
        # an ok fold, a diverged one, then a failed one that stops the run
        real_model, real_train_fold = runner_mod.TcnModel, runner_mod.train_fold
        calls = []

        def flaky_model(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("disk fell over")
            return real_model(*args, **kwargs)

        def train_fold(model, fold, data):
            if len(calls) == 2:
                raise NonFiniteLoss("synthetic divergence")
            return real_train_fold(model, fold, data)

        monkeypatch.setattr(runner_mod, "TcnModel", flaky_model)
        monkeypatch.setattr(runner_mod, "train_fold", train_fold)
        out = tmp_path / "partial"
        cfg = synth_config(synth_manifest, epochs=1, output_dir=str(out))
        with pytest.raises(SurgactError, match="fold louo-SYNTH-U03 failed"):
            run_experiment(cfg)
        folds = json.loads((out / "report.json").read_text())["folds"]
        assert [f["status"] for f in folds] == ["ok", "diverged", "failed"]
        assert set(folds[0]) == set(folds[1]) == set(folds[2])
        plan, failed = plan_folds(cfg, build_catalog(synth_manifest))[2], folds[2]
        model_config = fold_model_config(plan, read_planned(cfg), cfg)
        assert failed["name"] == plan.name and failed["held_out"] == plan.held_out
        assert failed["seed"] == model_config.seed
        assert failed["kernel_size"] == model_config.kernel_size
        assert failed["num_classes"] == model_config.num_classes
        assert failed["num_train_trials"] == len(plan.train_trials)
        assert failed["num_test_trials"] == len(plan.test_trials)
        assert failed["error"] == "disk fell over"
        assert failed["training"] is failed["metrics"] is failed["map"] is None
        assert "[failed] disk fell over" in (out / "tables.txt").read_text()

    def test_fold_failure_persists_partial_report(self, synth_manifest, tmp_path,
                                                  monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("disk fell over")

        monkeypatch.setattr(runner_mod, "TcnModel", explode)
        out = tmp_path / "partial"
        with pytest.raises(SurgactError, match="fold louo-SYNTH-U01 failed"):
            run_experiment(synth_config(synth_manifest, epochs=1,
                                        output_dir=str(out)))
        payload = json.loads((out / "report.json").read_text())
        statuses = [f["status"] for f in payload["folds"]]
        assert statuses == ["failed"]  # the run stops at the first failed fold


class TestRunSingleFold:
    def test_named_fold_is_the_experiment_fold(self, synth_manifest):
        cfg = synth_config(synth_manifest, epochs=1)
        payload = run_single_fold(cfg, "louo-SYNTH-U02")
        assert payload["name"] == "louo-SYNTH-U02"
        assert payload["status"] == "ok"
        assert payload == run_experiment(cfg).folds[1]

    def test_diverged_fold_is_returned(self, synth_manifest):
        cfg = synth_config(synth_manifest, epochs=1, learning_rate=1e308)
        payload = run_single_fold(cfg, "louo-SYNTH-U02")
        assert payload["status"] == "diverged"
        assert "louo-SYNTH-U02" in payload["error"]

    def test_non_finite_parameters_after_the_last_step(self, synth_manifest, monkeypatch):
        # every loss is finite; only the last step leaves non-finite parameters
        steps = []
        real_step = Adam.step

        def poisoning_step(self, params, grads):
            real_step(self, params, grads)
            steps.append(None)
            if len(steps) == 4:  # 4 training trials, 1 epoch
                params[0][0] = np.nan

        monkeypatch.setattr(Adam, "step", poisoning_step)
        cfg = synth_config(synth_manifest, epochs=1)
        payload = run_single_fold(cfg, "louo-SYNTH-U02")
        assert len(steps) == 4
        assert payload["status"] == "diverged"
        assert "louo-SYNTH-U02" in payload["error"] and "non-finite" in payload["error"]

    def test_reads_its_fold_kinematics_only(self, tmp_path, monkeypatch):
        # a suite plans every trial of six tasks; fold loto-S-from-NP reads
        # the kinematics of S and NP alone, and its class list is still
        # every planned trial's, including a label only a PoaP trial has
        manifest = generate_synthetic_dataset(
            tmp_path, num_tasks=len(TASK_ORDER), num_subjects=2, trials_per_subject=1,
            num_classes=3, frames_range=(40, 48), seed=5)
        doc = json.loads(manifest.read_text())
        names = {f"T{i + 1:02d}": task for i, task in enumerate(TASK_ORDER)}
        for entry in doc["entries"]:
            entry["task"] = names[entry["task"]]
            if entry["task"] == "PoaP" and entry["subject"] == "U01":
                (manifest.parent / entry["transcripts"]["mp"]).write_text(
                    "0 3 Touch(L, Extra)\n")
        manifest.write_text(json.dumps(doc))
        read, vocabularies = [], []
        real_kinematics = runner_mod.load_trial_kinematics
        real_vocabulary = runner_mod.experiment_vocabulary

        def kinematics_spy(path, *args):
            read.append(Path(path).name)
            return real_kinematics(path, *args)

        def vocabulary_spy(*args):
            vocabularies.append(real_vocabulary(*args))
            return vocabularies[-1]

        monkeypatch.setattr(runner_mod, "load_trial_kinematics", kinematics_spy)
        monkeypatch.setattr(runner_mod, "experiment_vocabulary", vocabulary_spy)
        cfg = ExperimentConfig(catalog=str(manifest), granularity="mp", cv="loto-suite",
                               epochs=0, kernel_size=3)
        payload = run_single_fold(cfg, "loto-S-from-NP")
        assert payload["status"] == "ok"
        assert sorted(read) == [f"{task}_{subject}_001.txt" for task in ("T01", "T02")
                                for subject in ("U01", "U02")]
        read.clear()
        report = run_experiment(cfg)
        assert len(read) == 2 * len(TASK_ORDER)
        assert vocabularies[0] == vocabularies[1] == tuple(report.experiment["vocabulary"])
        assert "Touch(L, Extra)" in vocabularies[0]
        assert payload["num_classes"] == len(vocabularies[0])

    def test_unknown_fold_name(self, synth_manifest):
        with pytest.raises(ConfigError,
                           match="no fold named 'louo-SYNTH-U99'; available: louo-SYNTH-U01"):
            run_single_fold(synth_config(synth_manifest), "louo-SYNTH-U99")


class TestReportsOnDisk:
    def test_load_report_detects_tampering(self, synth_manifest, tmp_path):
        cfg = synth_config(synth_manifest, epochs=1,
                           output_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        path = tmp_path / "out" / "report.json"
        payload = json.loads(path.read_text())
        payload["aggregate"]["accuracy_mean"] = (
            payload["aggregate"]["accuracy_mean"] + 1.0)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="accuracy_mean"):
            load_report(path)

    def test_load_report_missing_or_invalid(self, tmp_path):
        with pytest.raises(DataError):
            load_report(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(DataError):
            load_report(bad)

    @pytest.mark.parametrize("doc", [
        [], [{"folds": []}], "report", 3,
        {"folds": 5}, {"folds": [{"name": "f"}]}, {"folds": [], "aggregate": []},
    ], ids=["empty-list", "list", "string", "number", "folds-number",
            "fold-without-status", "aggregate-list"])
    def test_load_report_rejects_other_json(self, tmp_path, doc):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=str(bad)):
            load_report(bad)

    def test_combine_reports_rejects_a_report_without_its_experiment(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"folds": [], "aggregate": {}}))
        with pytest.raises(DataError, match="experiment"):
            combine_reports([bad])

    def test_emit_report_refuses_unwritable_target(self, synth_manifest, tmp_path):
        report = run_experiment(synth_config(synth_manifest, epochs=0))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(SurgactError, match="cannot create output directory"):
            emit_report(report, blocker / "out")

    def test_report_file_is_the_reports_json_bytes(self, synth_manifest, tmp_path):
        report = run_experiment(synth_config(synth_manifest, epochs=0))
        emit_report(report, tmp_path / "out")
        written = (tmp_path / "out" / "report.json").read_bytes()
        assert written == report.json_bytes(include_timing=True)
        assert written == atomic_mod.json_text(report.payload()).encode()

    @pytest.mark.parametrize("name", ["report.json", "tables.txt"])
    def test_failed_write_keeps_the_previous_file(self, synth_manifest, tmp_path,
                                                   monkeypatch, name):
        out = tmp_path / "out"
        emit_report(run_experiment(synth_config(synth_manifest, epochs=0)), out)
        previous = (out / name).read_bytes()
        newer = run_experiment(synth_config(synth_manifest, epochs=1))

        def half_then_full_disk(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if Path(path).name.startswith(f".{name}."):
                write = fh.write

                def fail_partway(data):
                    write(data[:len(data) // 2])
                    fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = fail_partway
            return fh

        monkeypatch.setattr(atomic_mod, "open", half_then_full_disk, raising=False)
        with pytest.raises(SurgactError, match="cannot write .*: No space left"):
            emit_report(newer, out)
        assert (out / name).read_bytes() == previous
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "tables.txt"]

    def test_written_data_is_synced_before_the_rename(self, tmp_path, monkeypatch):
        calls = []
        for name in ("fsync", "replace"):
            def spy(*args, _real=getattr(atomic_mod.os, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(atomic_mod.os, name, spy)
        atomic_mod.write_atomic(tmp_path / "report.json", b"{}")
        assert calls == ["fsync", "replace"]
        assert (tmp_path / "report.json").read_bytes() == b"{}"

    def test_render_tables_lists_folds_and_means(self, synth_manifest):
        report = run_experiment(synth_config(synth_manifest, epochs=1))
        text = render_tables(report.payload())
        assert "louo-SYNTH-U01" in text
        assert "mean over 3 folds" in text
        assert "mAP (macro / micro)" in text

    def test_combine_reports(self, synth_manifest, tmp_path):
        cfg = synth_config(synth_manifest, epochs=1,
                           output_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        table = combine_reports([tmp_path / "out" / "report.json"])
        assert "T01" in table
        assert "mp" in table


def corrupt_grab_label(root):
    (root / "lab" / "T_B_001_mp.txt").write_text("0 19 Grab(L, X)\n20 39 Push(R, Y)\n")


def corrupt_short_trial(root):
    np.savetxt(root / "kin" / "T_B_001.txt", np.zeros((5, 38)), fmt="%.4f")
    (root / "lab" / "T_B_001_mp.txt").write_text("0 2 Grasp(L, X)\n3 4 Push(R, Y)\n")


def keep_right_arm_only(root):
    # the combined files name no left-arm primitive, so mp-left has only Idle
    for subject in ("A", "B"):
        (root / "lab" / f"T_{subject}_001_mp.txt").write_text(
            "0 19 Grasp(R, X)\n20 39 Push(R, Y)\n")


def keep_one_gesture(root):
    for subject in ("A", "B"):
        (root / "lab" / f"T_{subject}_001_gesture.txt").write_text("0 39 G1\n")


def corrupt_sample_rate(value):
    def corrupt(root):
        doc = json.loads((root / "manifest.json").read_text())
        doc["sample_rate"] = value
        (root / "manifest.json").write_text(json.dumps(doc))
    return corrupt


class TestBadInputIsRejectedBeforeTraining:
    @pytest.mark.parametrize("corrupt", [
        corrupt_grab_label,
        corrupt_short_trial,
        corrupt_sample_rate(-5),
        corrupt_sample_rate("120"),
    ], ids=["unparseable-mp-label", "5-frame-trial", "negative-rate", "string-rate"])
    def test_rejected(self, tmp_path, monkeypatch, capsys, corrupt):
        manifest = write_mini_corpus(tmp_path, with_gesture=False)
        corrupt(tmp_path)
        assert cli_main(["validate", "--catalog", str(manifest)]) == 2
        assert "data error:" in capsys.readouterr().err
        self.assert_nothing_trained(tmp_path, monkeypatch, manifest)

    def test_feature_column_outside_a_trial(self, tmp_path, monkeypatch, capsys):
        # validate knows no feature columns; the experiment checks them
        # against every trial's width before the first fold
        manifest = write_mini_corpus(tmp_path, with_gesture=False)
        np.savetxt(tmp_path / "kin" / "T_B_001.txt", np.zeros((40, 20)), fmt="%.4f")
        assert cli_main(["experiment", "--catalog", str(manifest), "--granularity", "mp",
                         "--cv", "louo", "--tasks", "T", "--epochs", "1"]) == 2
        assert "column 20 outside [0, 20)" in capsys.readouterr().err
        self.assert_nothing_trained(tmp_path, monkeypatch, manifest,
                                    match=r"column 20 outside \[0, 20\)")

    @pytest.mark.parametrize("granularity, corrupt, only", [
        ("mp-left", keep_right_arm_only, "Idle"),
        ("gesture", keep_one_gesture, "G1"),
    ])
    def test_fewer_than_two_classes(self, tmp_path, monkeypatch, capsys, granularity,
                                    corrupt, only):
        manifest = write_mini_corpus(tmp_path)
        corrupt(tmp_path)
        assert cli_main(["experiment", "--catalog", str(manifest), "--granularity",
                         granularity, "--cv", "louo", "--tasks", "T", "--epochs", "1",
                         "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert repr(granularity) in err and repr(only) in err and "at least 2" in err
        self.assert_nothing_trained(tmp_path, monkeypatch, manifest, granularity=granularity)

    @pytest.mark.parametrize("subject", ["A", "B"], ids=["held-out", "in-training"])
    def test_gesture_transcript_that_labels_no_frame(self, tmp_path, monkeypatch, capsys,
                                                     subject):
        # fold louo-MINI-A holds out subject A's trial and trains on B's
        manifest = write_mini_corpus(tmp_path)
        empty = tmp_path / "lab" / f"T_{subject}_001_gesture.txt"
        empty.write_text("")
        assert cli_main(["experiment", "--catalog", str(manifest), "--granularity",
                         "gesture", "--cv", "louo", "--tasks", "T", "--epochs", "1",
                         "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"data error: {empty}: gesture transcript labels no frame\n")
        self.assert_nothing_trained(tmp_path, monkeypatch, manifest, granularity="gesture",
                                    match="gesture transcript labels no frame")

    @staticmethod
    def assert_nothing_trained(tmp_path, monkeypatch, manifest, granularity="mp",
                               match=None):
        trained = []
        real_train_fold = runner_mod.train_fold

        def spy(*args, **kwargs):
            trained.append(args[1].name)
            return real_train_fold(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "train_fold", spy)
        cfg = ExperimentConfig(catalog=str(manifest), granularity=granularity, cv="louo",
                               tasks=("T",), epochs=1, output_dir=str(tmp_path / "out"))
        with pytest.raises(DataError, match=match):
            run_experiment(cfg)
        with pytest.raises(DataError, match=match):
            run_single_fold(cfg, "louo-MINI-A")
        assert trained == []
        assert not (tmp_path / "out").exists()


class TestEachTranscriptIsReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        counts = Counter()
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            counts[path.name] += 1
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        return counts

    @staticmethod
    def transcript_reads(reads):
        return {name: n for name, n in reads.items() if name.endswith("_mp.txt")}

    @pytest.mark.parametrize("granularity", ["mp", "mp-left"])
    def test_per_experiment(self, tmp_path, reads, granularity):
        # mp is declared; mp-left is derived from the combined mp file. Each
        # trial is in two folds, and its kinematics file is read once too.
        manifest = write_mini_corpus(tmp_path, with_gesture=False)
        run_experiment(ExperimentConfig(catalog=str(manifest), granularity=granularity,
                                        cv="louo", tasks=("T",), epochs=1))
        assert self.transcript_reads(reads) == {"T_A_001_mp.txt": 1, "T_B_001_mp.txt": 1}
        kinematics = {name: n for name, n in reads.items() if name.endswith("_001.txt")}
        assert kinematics == {"T_A_001.txt": 1, "T_B_001.txt": 1}

    def test_per_validate(self, tmp_path, reads):
        manifest = write_mini_corpus(tmp_path, with_gesture=False)
        assert cli_main(["validate", "--catalog", str(manifest)]) == 0
        assert self.transcript_reads(reads) == {"T_A_001_mp.txt": 1, "T_B_001_mp.txt": 1}
