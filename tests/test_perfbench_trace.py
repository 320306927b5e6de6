"""The benchmark's tracer, perfbench/spans.py, against the package.

The tracer patches the package's entry points by name and counts the work
at each of them. A refactor that renames or re-signs one of them would
otherwise only show when the benchmark runs; here a tiny experiment runs
under the tracer, and the counts must equal what its inputs imply, as the
benchmark's own trace check (`OutputCheck.traces` in perfbench/run.py)
requires. The tracer's source is read, not imported, so nothing is written
under perfbench/.
"""

import json
import types
from pathlib import Path

import pytest

from surgact.dataset import build_catalog
from surgact.runner import ExperimentConfig, plan_folds, run_experiment
from surgact.synth import generate_synthetic_dataset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the spans every training and evaluation pass goes through
PASS_SPANS = {"tcn.train", "tcn.predict", "tcn.forward", "tcn.backward", "nn.loss",
              "nn.conv_forward", "nn.conv_backward", "nn.adam"}
# the spans every scored fold goes through
SCORE_SPANS = {"metrics.accuracy", "metrics.edit", "metrics.ap"}


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def kinematics_frames(catalog) -> dict:
    """Frames per trial, counted as the benchmark counts them: non-blank lines."""
    frames = {}
    for entry in catalog.entries:
        with open(entry.kinematics) as fh:
            frames[entry.key] = sum(1 for line in fh if line.strip())
    return frames


def test_every_traced_entry_point_exists():
    spans = load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.TARGETS if not hasattr(owner, attr)]
    assert missing == []


def combined_mp_only(manifest):
    """Keep only each entry's combined mp transcript, as the benchmark's
    ingest workload does, so a per-arm run derives its views from it."""
    doc = json.loads(manifest.read_text())
    for entry in doc["entries"]:
        entry["transcripts"] = {"mp": entry["transcripts"]["mp"]}
    manifest.write_text(json.dumps(doc))


# (granularity, cv settings, whether the per-arm view is derived)
CASES = {
    "mp-louo": ("mp", dict(cv="louo", tasks=("T01",)), False),
    "mp-left-loto-derived": (
        "mp-left", dict(cv="loto", test_task="T02", train_tasks=("T01",)), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_traced_experiment_counts_the_work_its_inputs_imply(tmp_path, case):
    granularity, cv, derived = CASES[case]
    spans = load_spans()
    manifest = generate_synthetic_dataset(
        tmp_path / "corpus", num_tasks=2, num_subjects=3, trials_per_subject=1,
        num_classes=3, frames_range=(40, 60), seed=7)
    if derived:
        combined_mp_only(manifest)
    config = ExperimentConfig(catalog=str(manifest), granularity=granularity,
                              epochs=2, kernel_size=3, **cv)
    plans = plan_folds(config, build_catalog(config.catalog))
    frames = kinematics_frames(build_catalog(config.catalog))
    loaded = {k for p in plans for k in p.train_trials + p.test_trials}
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]

    tracer = spans.Tracer()
    counts = tracer.start_trace(1)
    with spans.traced(tracer):
        report = run_experiment(config)

    assert [f["status"] for f in report.folds] == ["ok"] * len(plans)
    steps = sum(config.epochs * len(p.train_trials) for p in plans)
    evaluated = sum(len(p.test_trials) for p in plans)
    assert counts["tcn.train_frame_steps"] == sum(
        config.epochs * sum(frames[k] for k in p.train_trials) for p in plans)
    assert counts["eval_frames"] == sum(frames[k] for p in plans for k in p.test_trials)
    assert counts["nn.adam_steps"] == steps
    assert counts["tcn.predict_calls"] == evaluated
    # seven convs: forward and backward in a training step, forward in evaluation
    assert counts["nn.conv_calls"] == 14 * steps + 7 * evaluated
    # each loaded trial's arm view is split from its combined file once
    assert counts["dataset.split_by_arm_calls"] == (len(loaded) if derived else 0)
    assert counts["dataset.kinematics_calls"] == len(loaded)
    assert PASS_SPANS | SCORE_SPANS <= set(tracer.self_times(1))
    # the edit score is traced where the runner calls it, with its two
    # frame sequences
    assert counts["metrics.edit_cells"] > 0
    # the block restores every entry point
    assert [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS] == originals
