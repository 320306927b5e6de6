"""Command line behavior: flag plumbing, output artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surgact
from surgact.atomic import json_text
from surgact.cli import main
from surgact.runner import load_report


@pytest.fixture(scope="module")
def cli_report_dir(synth_manifest, tmp_path_factory):
    """One experiment run through the CLI, shared by the report tests."""
    out = tmp_path_factory.mktemp("cli-report")
    rc = main(["experiment", "--catalog", str(synth_manifest),
               "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
               "--epochs", "1", "--seed", "5", "--output-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture
def train_calls(monkeypatch):
    """The names of the folds `runner.train_fold` is called for."""
    import surgact.runner

    calls = []
    real_train_fold = surgact.runner.train_fold

    def spy(*args, **kwargs):
        calls.append(args[1].name)
        return real_train_fold(*args, **kwargs)

    monkeypatch.setattr(surgact.runner, "train_fold", spy)
    return calls


def small_corpus(root, subjects):
    """A one-task synthetic corpus of one trial per subject whose per-arm
    views are derived from the combined mp files."""
    main(["synth", "--out", str(root), "--tasks", "1", "--subjects", str(subjects),
          "--trials-per-subject", "1", "--min-frames", "40", "--max-frames", "60"])
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    for entry in doc["entries"]:
        del entry["transcripts"]["mp-left"], entry["transcripts"]["mp-right"]
    manifest.write_text(json.dumps(doc))
    return manifest


def experiment_argv(manifest, granularity, out):
    return ["experiment", "--catalog", str(manifest), "--granularity", granularity,
            "--cv", "louo", "--tasks", "T01", "--epochs", "1", "--output-dir", str(out)]


SMALL_SYNTH = ["--tasks", "1", "--subjects", "2", "--trials-per-subject", "1",
               "--min-frames", "40", "--max-frames", "60"]


class TestSynthCommand:
    def test_generates_and_prints_manifest(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "corpus"), "--tasks", "1",
                   "--subjects", "2", "--trials-per-subject", "1",
                   "--classes", "3", "--min-frames", "40", "--max-frames", "60"])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        assert json.loads((tmp_path / "corpus" / "manifest.json").read_text())

    def test_manifest_is_its_json_text(self, synth_manifest):
        text = synth_manifest.read_text()
        assert text == json_text(json.loads(text))

    def test_bad_shape_is_config_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--classes", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        target = tmp_path / "corpus"
        target.write_text("not a directory\n")
        rc = main(["synth", "--out", str(target), *SMALL_SYNTH])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"failure: cannot write {target / 'kinematics'}: Not a directory\n"

    def test_out_holding_a_file_named_kinematics_exits_3(self, tmp_path, capsys):
        (tmp_path / "kinematics").write_text("a file\n")
        rc = main(["synth", "--out", str(tmp_path), *SMALL_SYNTH])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"failure: cannot write {tmp_path / 'kinematics'}: File exists\n"
        assert not (tmp_path / "manifest.json").exists()


class TestValidateCommand:
    def test_clean_corpus(self, synth_manifest, capsys):
        rc = main(["validate", "--catalog", str(synth_manifest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 12 trials")
        assert "T01" in out and "T02" in out

    def test_missing_catalog_is_data_error(self, tmp_path, capsys):
        rc = main(["validate", "--catalog", str(tmp_path / "none.json")])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err

    def test_channel_expectation_mismatch(self, synth_manifest, capsys):
        rc = main(["validate", "--catalog", str(synth_manifest),
                   "--expected-channels", "39"])
        assert rc == 2
        assert "38" in capsys.readouterr().err

    def test_channel_count_below_one_is_a_bad_request(self, tmp_path, capsys):
        # refused before any file is read: the catalog does not exist
        for argv in (["validate"], ["experiment", "--granularity", "mp", "--cv", "louo",
                                    "--tasks", "T01"]):
            rc = main(argv + ["--catalog", str(tmp_path / "none.json"),
                              "--expected-channels", "0"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == "error: expected_channels must be >= 1, got 0\n"

    def test_mp_label_without_a_tool_side(self, tmp_path, capsys):
        # validate and an mp-left experiment both accept the label while the
        # trials declare per-arm files, and both reject it once the per-arm
        # views must be derived from the combined mp transcript
        main(["synth", "--out", str(tmp_path), "--tasks", "1", "--subjects", "2",
              "--trials-per-subject", "1", "--min-frames", "40", "--max-frames", "60"])
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        mp = tmp_path / doc["entries"][0]["transcripts"]["mp"]
        first, rest = mp.read_text().split("\n", 1)
        start, end, _ = first.split(" ", 2)
        mp.write_text(f"{start} {end} Touch\n{rest}")
        validate = ["validate", "--catalog", str(manifest)]
        experiment = ["experiment", "--catalog", str(manifest), "--granularity",
                      "mp-left", "--cv", "louo", "--tasks", "T01", "--epochs", "0"]
        assert main(validate) == 0
        assert main(experiment) == 0
        capsys.readouterr()

        for entry in doc["entries"]:
            entry["transcripts"] = {"mp": entry["transcripts"]["mp"]}
        manifest.write_text(json.dumps(doc))
        assert main(validate) == 2
        assert f"{mp.name}: motion primitive 'Touch' names no tool side" in (
            capsys.readouterr().err)
        assert main(experiment) == 2


    @pytest.mark.parametrize("label", ["Grasp(R, Obj1)", "Grasp"])
    def test_declared_arm_file_holds_the_arm_rule(self, tmp_path, capsys, label):
        # a declared mp-left file is held to the rule its derived view keeps:
        # each label is Idle or names the left tool
        main(["synth", "--out", str(tmp_path), "--tasks", "1", "--subjects", "2",
              "--trials-per-subject", "1", "--min-frames", "40", "--max-frames", "60"])
        doc = json.loads((tmp_path / "manifest.json").read_text())
        left = tmp_path / doc["entries"][0]["transcripts"]["mp-left"]
        first, rest = left.read_text().split("\n", 1)
        start, end, _ = first.split(" ", 2)
        left.write_text(f"{start} {end} {label}\n{rest}")
        capsys.readouterr()
        message = (f"data error: {left}:1: mp-left label {label!r} is neither Idle "
                   f"nor an action of tool side L\n")
        assert main(["validate", "--catalog", str(tmp_path / "manifest.json")]) == 2
        assert capsys.readouterr().err == message
        assert main(experiment_argv(tmp_path / "manifest.json", "mp-left",
                                    tmp_path / "out")) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("transcripts", [["mp"], {"mp": 3}])
    def test_transcripts_not_path_strings_is_data_error(self, tmp_path, capsys,
                                                        transcripts):
        main(["synth", "--out", str(tmp_path), "--tasks", "1", "--subjects", "2",
              "--trials-per-subject", "1", "--min-frames", "40", "--max-frames", "60"])
        capsys.readouterr()
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["entries"][1]["transcripts"] = transcripts
        manifest.write_text(json.dumps(doc))
        assert main(["validate", "--catalog", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: manifest entry 1: transcripts")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field,value,message", [
        ("subject", 3, "subject must be a string, got 3"),
        ("transcripts", {"frame": "x.txt"}, "unknown transcript granularity 'frame'"),
    ])
    def test_malformed_entry_is_data_error(self, tmp_path, capsys, field, value, message):
        main(["synth", "--out", str(tmp_path), "--tasks", "1", "--subjects", "2",
              "--trials-per-subject", "1", "--min-frames", "40", "--max-frames", "60"])
        capsys.readouterr()
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["entries"][1][field] = value
        manifest.write_text(json.dumps(doc))
        assert main(["validate", "--catalog", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: manifest entry 1: {message}")
        assert err.count("\n") == 1


class TestFoldsCommand:
    def test_prints_plans_as_json(self, synth_manifest, capsys):
        rc = main(["folds", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo",
                   "--tasks", "T01", "T02"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in doc] == [
            "louo-SYNTH-U01", "louo-SYNTH-U02", "louo-SYNTH-U03"]
        assert all(p["num_train_trials"] == 8 for p in doc)
        assert all(len(p["test_trials"]) == 4 for p in doc)

    def test_out_flag_writes_file(self, synth_manifest, tmp_path, capsys):
        target = tmp_path / "folds.json"
        rc = main(["folds", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "loto",
                   "--test-task", "T01", "--train-tasks", "T02",
                   "--out", str(target)])
        assert rc == 0
        assert "1 folds ->" in capsys.readouterr().out
        assert json.loads(target.read_text())[0]["held_out"] == "T01"

    def test_stdout_and_out_file_are_the_json_text(self, synth_manifest, tmp_path,
                                                   capsys):
        argv = ["folds", "--catalog", str(synth_manifest), "--granularity", "mp",
                "--cv", "louo", "--tasks", "T01", "T02"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == json_text(json.loads(printed))
        target = tmp_path / "folds.json"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == f"3 folds -> {target}\n"
        assert target.read_text() == printed

    def test_missing_required_options(self, capsys):
        rc = main(["folds", "--granularity", "mp", "--cv", "louo",
                   "--tasks", "T01"])
        assert rc == 1
        assert "catalog" in capsys.readouterr().err

    def test_incoherent_cv_arguments(self, synth_manifest, capsys):
        rc = main(["folds", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "loto"])
        assert rc == 1
        assert "test_task" in capsys.readouterr().err

    def test_config_file_with_overrides(self, synth_manifest, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "catalog": str(synth_manifest), "granularity": "mp",
            "cv": "louo", "tasks": ["T02"]}))
        rc = main(["folds", "--config", str(cfg), "--tasks", "T01"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(t.startswith("T01/") for p in doc for t in p["test_trials"])


    def test_a_config_file_with_task_combo_exits_1(self, synth_manifest, tmp_path,
                                                   capsys):
        # a combo is named in `tasks`; `task_combo` is not a config key
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "catalog": str(synth_manifest), "granularity": "mp",
            "cv": "louo", "tasks": ["T01"], "task_combo": "All"}))
        rc = main(["folds", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys: ['task_combo']" in capsys.readouterr().err

    def test_the_task_combo_flag_is_gone(self, synth_manifest, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["folds", "--catalog", str(synth_manifest), "--granularity", "mp",
                  "--cv", "louo", "--task-combo", "All"])
        assert caught.value.code == 1
        assert "unrecognized arguments: --task-combo" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["validate"], "the following arguments are required: --catalog"),
        (["folds", "--granularity", "bogus"], "argument --granularity: invalid choice"),
        (["folds", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    ], ids=["missing-flag", "bad-choice", "bad-int"])
    def test_a_usage_error_exits_1_with_the_usage(self, capsys, argv, message):
        # exit 2 is malformed input data; a usage error is a bad request
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: surgact {argv[0]} ")
        assert f"surgact {argv[0]}: error: {message}" in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["folds", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 0
        assert capsys.readouterr().out


class TestExperimentCommand:
    def test_writes_report_and_summary(self, synth_manifest, cli_report_dir,
                                       capsys):
        payload = load_report(cli_report_dir / "report.json")
        assert payload["aggregate"]["num_ok_folds"] == 3
        assert (cli_report_dir / "tables.txt").is_file()

    def test_summary_without_output_dir(self, synth_manifest, capsys):
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "folds: 3/3 ok" in out
        assert "accuracy" in out

    def test_fold_failure_exits_3(self, synth_manifest, tmp_path, capsys,
                                  monkeypatch):
        import surgact.runner

        def explode(*args, **kwargs):
            raise RuntimeError("disk fell over")

        monkeypatch.setattr(surgact.runner, "TcnModel", explode)
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "0", "--output-dir", str(tmp_path / "broken")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "failure:" in err and "louo-SYNTH-U01" in err
        # the partial report still landed for post-mortem
        partial = json.loads((tmp_path / "broken" / "report.json").read_text())
        assert partial["folds"][0]["status"] == "failed"

    def test_no_fold_trained_exits_3_after_the_report(self, synth_manifest, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "1", "--learning-rate", "1e300",
                   "--output-dir", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "folds: 0/3 ok" in captured.out
        assert captured.err == "failure: no fold trained; 3 of 3 diverged\n"
        payload = load_report(out / "report.json")
        assert [f["status"] for f in payload["folds"]] == ["diverged"] * 3

    def test_some_folds_diverged_exits_0(self, synth_manifest, capsys, monkeypatch):
        import surgact.runner
        from surgact.errors import NonFiniteLoss

        real_train_fold = surgact.runner.train_fold

        def first_diverges(model, fold, data):
            if fold.name == "louo-SYNTH-U01":
                raise NonFiniteLoss("synthetic divergence")
            return real_train_fold(model, fold, data)

        monkeypatch.setattr(surgact.runner, "train_fold", first_diverges)
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "folds: 2/3 ok" in captured.out and captured.err == ""

    def test_bad_input_exits_2_before_training(self, synth_manifest, tmp_path,
                                                capsys):
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "0", "--expected-channels", "39",
                   "--output-dir", str(tmp_path / "broken")])
        assert rc == 2
        assert "38 channels, expected 39" in capsys.readouterr().err
        assert not (tmp_path / "broken").exists()

    def test_a_trial_too_narrow_for_the_features_is_named(self, tmp_path, capsys,
                                                          train_calls):
        # the model reads column 31 (the right arm's first), which a
        # 30-column trial does not have
        manifest = small_corpus(tmp_path / "corpus", subjects=2)
        narrow = tmp_path / "corpus" / "kinematics" / "T01_U02_001.txt"
        rows = [line.split()[:30] for line in narrow.read_text().splitlines()]
        narrow.write_text("".join(" ".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(experiment_argv(manifest, "mp", tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"data error: {narrow}: column 31 outside [0, 30)\n")
        assert train_calls == []
        assert not (tmp_path / "out").exists()

    def test_one_subject_louo_exits_1_while_planning(self, tmp_path, capsys, train_calls):
        # each fold trains on the subjects it does not hold out
        manifest = small_corpus(tmp_path / "corpus", subjects=1)
        capsys.readouterr()
        assert main(["folds", "--catalog", str(manifest), "--granularity", "mp",
                     "--cv", "louo", "--tasks", "T01",
                     "--out", str(tmp_path / "folds.json")]) == 1
        assert main(experiment_argv(manifest, "mp", tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.count("error: leave-one-user-out needs at least 2 subjects") == 2
        assert train_calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    def test_output_dir_under_a_file_exits_3_before_training(self, synth_manifest,
                                                             tmp_path, capsys,
                                                             train_calls):
        (tmp_path / "afile").write_text("a file, not a directory")
        rc = main(["experiment", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "1", "--output-dir", str(tmp_path / "afile" / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("failure: cannot create output directory")
        assert err.count("\n") == 1
        assert train_calls == []

    @pytest.mark.parametrize("target, text, exits, message", [
        ("transcripts/mp/T01_U02_001.txt", "",
         {"validate": 0, "mp": 0, "mp-left": 0}, None),
        ("transcripts/gesture/T01_U02_001.txt", "",
         {"validate": 2, "gesture": 2}, ": gesture transcript labels no frame"),
        ("kinematics/T01_U02_001.txt", ",,,\n,,,\n",
         {"validate": 2, "mp": 2}, ":1: row has delimiters but no values"),
        ("kinematics/T01_U02_001.txt", "1,,3\n4,,6\n",
         {"validate": 2, "mp": 2}, ":1: empty cell beside a comma"),
    ], ids=["empty-mp-transcript", "empty-gesture-transcript", "comma-only-rows",
            "doubled-comma"])
    def test_empty_transcripts_and_rows(self, tmp_path, capsys, train_calls, target,
                                        text, exits, message):
        # validate and every experiment apply one rule to the same file: an
        # MP transcript may label no frame (the trial is all Idle), a
        # gesture transcript may not, and a row must hold a value in every cell
        manifest = small_corpus(tmp_path / "corpus", subjects=3)
        bad = tmp_path / "corpus" / target
        bad.write_text(text)
        capsys.readouterr()
        for run, code in exits.items():
            out = tmp_path / run
            argv = (["validate", "--catalog", str(manifest)] if run == "validate"
                    else experiment_argv(manifest, run, out))
            assert main(argv) == code, run
            err = capsys.readouterr().err
            if code == 0:
                assert err == ""
                if run != "validate":
                    assert load_report(out / "report.json")["aggregate"]["num_ok_folds"] == 3
            else:
                assert err == f"data error: {bad}{message}\n"
                assert not out.exists()
        trained = sum(code == 0 for run, code in exits.items() if run != "validate")
        assert len(train_calls) == 3 * trained

    def test_a_fold_without_a_kernel_width_exits_2_before_training(self, tmp_path, capsys,
                                                                   train_calls):
        # the mp files of U02 and U03 label no frame: fold louo-SYNTH-U01
        # trains on them alone, so no kernel width can be derived for it,
        # while louo-SYNTH-U02 trains on U01's segments too
        manifest = small_corpus(tmp_path / "corpus", subjects=3)
        for subject in ("U02", "U03"):
            (tmp_path / "corpus" / "transcripts" / "mp" / f"T01_{subject}_001.txt").write_text("")
        capsys.readouterr()
        assert main(experiment_argv(manifest, "mp", tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "data error: fold louo-SYNTH-U01: no labeled segments in any training transcript\n")
        assert train_calls == []
        assert not (tmp_path / "out").exists()
        train = ["train", "--catalog", str(manifest), "--granularity", "mp", "--cv", "louo",
                 "--tasks", "T01", "--epochs", "1", "--fold"]
        assert main(train + ["louo-SYNTH-U01"]) == 2
        assert "fold louo-SYNTH-U01: no labeled segments" in capsys.readouterr().err
        assert train_calls == []
        assert main(train + ["louo-SYNTH-U02"]) == 0
        assert train_calls == ["louo-SYNTH-U02"]

    @pytest.mark.parametrize("field,value", [
        ("filters", [4, 6]), ("epochs", "5"), ("tasks", "T01")])
    def test_mistyped_config_field_exits_1(self, synth_manifest, tmp_path, capsys,
                                           field, value):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "catalog": str(synth_manifest), "granularity": "mp",
            "cv": "louo", "tasks": ["T01"], field: value}))
        rc = main(["experiment", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestNonFiniteRates:
    """A NaN or infinite rate is refused before any file is read: the
    catalog does not exist, and reading it would exit 2."""

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ("--weight-decay", "nan"), ("--weight-decay", "-inf"),
    ])
    def test_flag(self, tmp_path, capsys, flag, value):
        rc = main(["experiment", "--catalog", str(tmp_path / "none.json"),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   f"{flag}={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + flag[2:].replace("-", "_")) and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_config_file(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.json"
        cfg.write_text('{"catalog": "none.json", "granularity": "mp", "cv": "louo", '
                       f'"tasks": ["T01"], "learning_rate": {value}}}')
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: learning_rate") and err.count("\n") == 1


class TestTrainCommand:
    def test_single_fold_writes_its_report(self, synth_manifest, tmp_path, capsys):
        out = tmp_path / "fold.json"
        rc = main(["train", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "1", "--fold", "louo-SYNTH-U03", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == f"fold report -> {out}\n"
        text = out.read_text()
        assert json.loads(text)["name"] == "louo-SYNTH-U03"
        assert text == json_text(json.loads(text))

    def test_diverged_fold_exits_3(self, synth_manifest, capsys):
        rc = main(["train", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "1", "--learning-rate", "1e308",
                   "--fold", "louo-SYNTH-U03"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("fold louo-SYNTH-U03 diverged: ") and err.count("\n") == 1

    def test_unknown_fold_name(self, synth_manifest, capsys):
        rc = main(["train", "--catalog", str(synth_manifest),
                   "--granularity", "mp", "--cv", "louo", "--tasks", "T01",
                   "--epochs", "0", "--fold", "louo-SYNTH-U09"])
        assert rc == 1
        assert "louo-SYNTH-U09" in capsys.readouterr().err


class TestReportCommand:
    def test_combines_to_stdout(self, cli_report_dir, capsys):
        rc = main(["report", "--inputs", str(cli_report_dir / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T01" in out and "mp" in out

    def test_out_flag(self, cli_report_dir, tmp_path, capsys):
        target = tmp_path / "summary.txt"
        rc = main(["report", "--inputs", str(cli_report_dir / "report.json"),
                   "--out", str(target)])
        assert rc == 0
        assert "louo" in target.read_text()

    def test_labels_each_row_by_its_task_names(self, cli_report_dir, tmp_path, capsys):
        # a report written when a combo had its own `task_combo` key keeps
        # that label; one that names a combo in `tasks` shows the combo
        payload = json.loads((cli_report_dir / "report.json").read_text())
        assert "task_combo" not in payload["experiment"]
        inputs = [str(cli_report_dir / "report.json")]
        for name, experiment in (("old", {"tasks": None, "task_combo": "ROSMA"}),
                                 ("new", {"tasks": ["JIGSAWS"]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {**payload, "experiment": {**payload["experiment"], **experiment}}))
            inputs.append(str(path))
        rc = main(["report", "--inputs", *inputs])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["T01", "ROSMA", "JIGSAWS"]

    def test_tampered_input_is_data_error(self, cli_report_dir, tmp_path, capsys):
        payload = json.loads((cli_report_dir / "report.json").read_text())
        payload["aggregate"]["edit_score_mean"] = 12.3
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        rc = main(["report", "--inputs", str(bad)])
        assert rc == 2
        assert "edit_score_mean" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_aggregate_is_data_error(self, cli_report_dir, tmp_path, capsys,
                                                value):
        payload = json.loads((cli_report_dir / "report.json").read_text())
        payload["aggregate"]["accuracy_mean"] = float(value)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(payload))  # written as NaN / Infinity
        rc = main(["report", "--inputs", str(bad)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: report aggregate 'accuracy_mean'")

    def test_report_holding_a_list_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text("[]")
        rc = main(["report", "--inputs", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1


class TestOutFlag:
    """--out into a missing directory fails with exit 3 and one line."""

    def run(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("failure: cannot write ") and err.count("\n") == 1

    def test_folds(self, synth_manifest, tmp_path, capsys):
        target = tmp_path / "missing" / "folds.json"
        self.run(["folds", "--catalog", str(synth_manifest), "--granularity", "mp",
                  "--cv", "louo", "--tasks", "T01", "--out", str(target)], capsys)
        assert not target.parent.exists()

    def test_train_refuses_before_training(self, synth_manifest, tmp_path, capsys,
                                           monkeypatch):
        import surgact.cli

        def trained(*args, **kwargs):
            raise AssertionError("the fold trained before --out was checked")

        monkeypatch.setattr(surgact.cli, "run_single_fold", trained)
        self.run(["train", "--catalog", str(synth_manifest), "--granularity", "mp",
                  "--cv", "louo", "--tasks", "T01", "--epochs", "0",
                  "--fold", "louo-SYNTH-U01",
                  "--out", str(tmp_path / "missing" / "fold.json")], capsys)

    def test_train_refuses_a_directory_before_training(self, synth_manifest, tmp_path,
                                                       capsys, monkeypatch):
        import surgact.cli

        def trained(*args, **kwargs):
            raise AssertionError("the fold trained before --out was checked")

        monkeypatch.setattr(surgact.cli, "run_single_fold", trained)
        target = tmp_path / "fold.json"
        target.mkdir()
        self.run(["train", "--catalog", str(synth_manifest), "--granularity", "mp",
                  "--cv", "louo", "--tasks", "T01", "--epochs", "0",
                  "--fold", "louo-SYNTH-U01", "--out", str(target)], capsys)
        assert list(target.iterdir()) == []

    def test_report(self, cli_report_dir, tmp_path, capsys):
        self.run(["report", "--inputs", str(cli_report_dir / "report.json"),
                  "--out", str(tmp_path / "missing" / "summary.txt")], capsys)

    def test_message_names_the_target_not_the_temp_file(self, synth_manifest, tmp_path,
                                                         capsys):
        target = tmp_path / "missing" / "folds.json"
        rc = main(["folds", "--catalog", str(synth_manifest), "--granularity", "mp",
                   "--cv", "louo", "--tasks", "T01", "--out", str(target)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"failure: cannot write {target}: No such file or directory\n"
        assert ".tmp" not in err

    def test_unwritable_target(self, cli_report_dir, tmp_path, capsys):
        # the directory exists, but the target is a directory itself
        target = tmp_path / "summary.txt"
        target.mkdir()
        self.run(["report", "--inputs", str(cli_report_dir / "report.json"),
                  "--out", str(target)], capsys)
        assert not list(tmp_path.glob(".summary.txt.*"))


def test_module_entry_point_reports_version():
    # the child imports the same package as this process, not another install
    src = str(Path(surgact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "surgact", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip()
