"""Synthetic activity-recognition datasets for tests and demos.

Generates a small catalog that exercises every validator: fixed-rate
38-column kinematics, fully tiled combined-MP transcripts, per-arm splits
with Idle fill, and parallel gesture transcripts. Class signals are made
strongly separable on purpose: each class adds a fixed random signature to
its own arm's modeling columns (position, linear velocity, gripper), so a
competent model can approach perfect accuracy and the learnability checks
have headroom.

Everything is a pure function of the seed; regenerating with the same
arguments yields byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .atomic import json_text, write_atomic
from .dataset import (
    COLUMNS_PER_ARM,
    MIN_FRAMES,
    MP_VERBS,
    LabelTranscript,
    Segment,
    arm_columns,
    split_by_arm,
)
from .errors import ConfigError, SurgactError

__all__ = ["generate_synthetic_dataset", "synthetic_class_labels"]

DATASET_NAME = "SYNTH"
NOISE_SCALE = 0.5  # standard deviation of every column's noise
SIGNATURE_SCALE = 3.0  # norm of each class's signature on its arm's columns


def synthetic_class_labels(num_classes: int) -> list[str]:
    """MP-style label strings, alternating tool sides: Grasp(L, Obj1),
    Release(R, Obj2), ..."""
    labels = []
    for i in range(num_classes):
        verb = MP_VERBS[i % len(MP_VERBS)]
        tool = "L" if i % 2 == 0 else "R"
        labels.append(f"{verb}({tool}, Obj{i + 1})")
    return labels


def _make_segments(rng: np.random.Generator, num_frames: int, num_classes: int,
                   min_len: int, max_len: int) -> list[tuple[int, int, int]]:
    """Random class runs covering [0, num_frames) exactly, no immediate
    repeats. Returns (start, end, class_id) triples."""
    segs = []
    pos = 0
    prev = -1
    while pos < num_frames:
        length = int(rng.integers(min_len, max_len + 1))
        cls = int(rng.integers(0, num_classes))
        if cls == prev:
            cls = (cls + 1) % num_classes
        end = min(pos + length - 1, num_frames - 1)
        segs.append((pos, end, cls))
        prev = cls
        pos = end + 1
    return segs


def generate_synthetic_dataset(
    out_dir,
    *,
    num_tasks: int = 2,
    num_subjects: int = 3,
    trials_per_subject: int = 2,
    num_classes: int = 4,
    frames_range: tuple[int, int] = (280, 320),
    segment_frames: tuple[int, int] = (20, 45),
    seed: int = 0,
) -> Path:
    """Write a synthetic catalog under `out_dir`; returns the manifest path.

    Subjects span all tasks (as in a multi-task study of the same people),
    so leave-one-user-out folds hold out a subject's trials everywhere.
    A failed write raises SurgactError("cannot write <path>: <reason>");
    the manifest is written last, atomically.
    """
    if num_tasks < 1 or num_subjects < 1 or trials_per_subject < 1:
        raise ConfigError("need at least one task, subject, and trial")
    if num_classes < 2:
        raise ConfigError("need at least two classes")
    if frames_range[0] < MIN_FRAMES or frames_range[0] > frames_range[1]:
        raise ConfigError(f"bad frames_range {frames_range}")
    if segment_frames[0] < 1 or segment_frames[0] > segment_frames[1]:
        raise ConfigError(f"bad segment_frames {segment_frames}")

    root = Path(out_dir)
    rng = np.random.default_rng(seed)
    mp_labels = synthetic_class_labels(num_classes)
    gesture_labels = [f"G{i + 1}" for i in range(num_classes)]
    num_columns = 2 * COLUMNS_PER_ARM

    # one signature per class on its own arm's modeling columns
    left_cols = np.array(arm_columns(0))
    right_cols = np.array(arm_columns(COLUMNS_PER_ARM))
    signatures = []
    for i in range(num_classes):
        direction = rng.normal(size=left_cols.size)
        direction *= SIGNATURE_SCALE / np.linalg.norm(direction)
        cols = left_cols if i % 2 == 0 else right_cols
        signatures.append((cols, direction))

    tasks = [f"T{i + 1:02d}" for i in range(num_tasks)]
    subjects = [f"U{i + 1:02d}" for i in range(num_subjects)]
    entries = []
    try:
        (root / "kinematics").mkdir(parents=True, exist_ok=True)
        for granularity in ("gesture", "mp", "mp-left", "mp-right"):
            (root / "transcripts" / granularity).mkdir(parents=True, exist_ok=True)
        for task in tasks:
            for subject in subjects:
                for t in range(trials_per_subject):
                    trial = f"{t + 1:03d}"
                    stem = f"{task}_{subject}_{trial}"
                    num_frames = int(rng.integers(frames_range[0], frames_range[1] + 1))
                    segs = _make_segments(rng, num_frames, num_classes,
                                          segment_frames[0], segment_frames[1])

                    data = rng.normal(0.0, NOISE_SCALE, size=(num_frames, num_columns))
                    for start, end, cls in segs:
                        cols, direction = signatures[cls]
                        data[start:end + 1, cols] += direction

                    kin_rel = f"kinematics/{stem}.txt"
                    np.savetxt(root / kin_rel, data, fmt="%.6f")

                    mp_transcript = LabelTranscript(
                        tuple(Segment(s, e, mp_labels[c]) for s, e, c in segs), num_frames)
                    left, right = split_by_arm(mp_transcript)

                    transcripts: dict[str, str] = {}
                    for granularity, trans in (
                        ("mp", mp_transcript),
                        ("mp-left", left),
                        ("mp-right", right),
                    ):
                        rel = f"transcripts/{granularity}/{stem}.txt"
                        _write_transcript(root / rel, trans.segments)
                        transcripts[granularity] = rel
                    gesture_rel = f"transcripts/gesture/{stem}.txt"
                    _write_transcript(
                        root / gesture_rel,
                        tuple(Segment(s, e, gesture_labels[c]) for s, e, c in segs))
                    transcripts["gesture"] = gesture_rel

                    entries.append({
                        "dataset": DATASET_NAME,
                        "task": task,
                        "subject": subject,
                        "trial": trial,
                        "kinematics": kin_rel,
                        "transcripts": transcripts,
                    })
    except OSError as exc:
        raise SurgactError(
            f"cannot write {exc.filename or root}: {exc.strerror or exc}") from None

    manifest_path = root / "manifest.json"
    write_atomic(manifest_path, json_text({"entries": entries}).encode())
    return manifest_path


def _write_transcript(path: Path, segments) -> None:
    lines = [f"{seg.start} {seg.end} {seg.label}" for seg in segments]
    path.write_text("\n".join(lines) + "\n")
