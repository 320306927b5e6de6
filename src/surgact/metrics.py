"""Frame- and segment-level evaluation for temporal label sequences.

Three families:

* frame accuracy: percent of frames whose predicted label matches.
* edit score: 100 * (1 - levenshtein(G, P) / max(|G|, |P|)) over run-length
  segment label sequences, so over-segmentation is punished even when frame
  accuracy is high.
* average precision: one-vs-rest AP per class group over pooled per-frame
  scores, summed over descending unique score thresholds (tied scores share
  a threshold); macro and support-weighted micro means on top, as the
  report's `map` block (`map_report`).

Every metric reads the frames that count and nothing else: the caller
selects them once (a gesture trial's labelled frames, every frame of an
MP trial) and passes the same frames to each. All scores are on a 0..100
percent scale.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    NoPositives,
    ShapeMismatch,
)

__all__ = [
    "frame_accuracy",
    "run_length_segments",
    "levenshtein",
    "edit_score",
    "average_precision",
    "pooled_class_average_precisions",
    "map_report",
]


def frame_accuracy(predicted: Sequence, reference: Sequence) -> float:
    """Percent of positions where the two sequences agree."""
    if len(predicted) != len(reference):
        raise LengthMismatch(
            f"predicted has {len(predicted)} frames, reference {len(reference)}")
    if len(reference) == 0:
        raise EmptyInput("cannot score empty sequences")
    hits = sum(1 for p, r in zip(predicted, reference) if p == r)
    return 100.0 * hits / len(reference)


def run_length_segments(frames: Sequence) -> list[tuple[int, int, Any]]:
    """Collapse a frame sequence into (start, end, label) runs, ends inclusive."""
    if len(frames) == 0:
        raise EmptyInput("cannot segment an empty sequence")
    out: list[tuple[int, int, Any]] = []
    start = 0
    for i in range(1, len(frames)):
        if frames[i] != frames[i - 1]:
            out.append((start, i - 1, frames[start]))
            start = i
    out.append((start, len(frames) - 1, frames[start]))
    return out


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum number of unit-cost insertions, deletions, substitutions."""
    # a shared prefix or suffix costs nothing and is left out of the table
    n, m = len(a), len(b)
    start = 0
    while start < n and start < m and a[start] == b[start]:
        start += 1
    while n > start and m > start and a[n - 1] == b[m - 1]:
        n -= 1
        m -= 1
    a, b = a[start:n], b[start:m]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ai in enumerate(a, 1):
        # left is cur[j], up is prev[j + 1], diag is prev[j]
        left, diag = i, i - 1
        cur = [i]
        for j, bj in enumerate(b):
            up = prev[j + 1]
            best = diag if ai == bj else diag + 1
            if up + 1 < best:
                best = up + 1
            if left + 1 < best:
                best = left + 1
            cur.append(best)
            left = best
            diag = up
        prev = cur
    return prev[-1]


def edit_score(predicted_frames: Sequence, reference_frames: Sequence) -> float:
    """Segmental edit score between two frame sequences.

    Both sequences are run-length collapsed first; the score is
    100 * (1 - d / max(|G|, |P|)) with d the Levenshtein distance between
    the collapsed label sequences. Repeating every frame k times therefore
    leaves the score unchanged.
    """
    if len(predicted_frames) == 0 or len(reference_frames) == 0:
        raise EmptyInput("cannot score empty sequences")
    pred = [label for _, _, label in run_length_segments(predicted_frames)]
    ref = [label for _, _, label in run_length_segments(reference_frames)]
    dist = levenshtein(pred, ref)
    return 100.0 * (1.0 - dist / max(len(pred), len(ref)))


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """One-vs-rest average precision over per-frame scores, in percent.

    AP = sum_n (R_n - R_{n-1}) * P_n with precision/recall evaluated once
    per unique score value, descending; frames with tied scores enter
    together. Undefined (raises) when there is no positive frame.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(positives).ravel().astype(bool)
    if s.shape != y.shape:
        raise LengthMismatch(f"scores {s.shape} vs positives {y.shape}")
    if s.size == 0:
        raise EmptyInput("no frames to score")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise NoPositives("average precision is undefined without positive frames")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted)
    ranks = np.arange(1, s.size + 1)
    # last index of each tied-score group marks one threshold
    is_group_end = np.ones(s.size, dtype=bool)
    is_group_end[:-1] = s_sorted[:-1] != s_sorted[1:]
    tp_g = tp[is_group_end].astype(np.float64)
    rank_g = ranks[is_group_end].astype(np.float64)
    precision = tp_g / rank_g
    recall = tp_g / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_recall) * precision))
    return 100.0 * ap


def pooled_class_average_precisions(
    trials: Sequence[tuple[np.ndarray, np.ndarray]],
    class_names: Sequence[str],
    group_of: Mapping[str, str],
) -> dict[str, Optional[float]]:
    """Per-group AP over frames pooled from several trials.

    Each trial is (scores, targets): scores (T, C) per-frame class scores,
    targets (T,) true class ids, over the frames that count only; the
    caller drops the others. `group_of` maps every class name to its group
    (the class itself, or an MP class's verb): the score of a group is the
    sum of its member classes' scores and a frame is positive when its true
    class maps to the group.

    Returns group -> AP percent, or None where the pooled frames contain no
    positives (the undefined 'N/A' case).
    """
    if not trials:
        raise EmptyInput("no trials to score")
    names = list(class_names)
    missing = [c for c in names if c not in group_of]
    if missing:
        raise LengthMismatch(f"group map lacks classes: {missing}")
    groups = list(dict.fromkeys(group_of[c] for c in names))
    group_ids = np.array([groups.index(group_of[c]) for c in names])

    for scores, targets in trials:
        if np.ndim(scores) != 2 or np.shape(scores)[1] != len(names):
            raise ShapeMismatch(
                f"scores shape {np.shape(scores)} != (T, {len(names)})")
        if np.shape(targets) != (np.shape(scores)[0],):
            raise LengthMismatch(
                f"targets shape {np.shape(targets)} vs {np.shape(scores)[0]} frames")
    pooled_scores = np.concatenate([s for s, _ in trials], axis=0, dtype=np.float64)
    pooled_targets = np.concatenate([t for _, t in trials])
    if pooled_targets.size == 0:
        raise EmptyInput("no frames to score")

    target_groups = group_ids[pooled_targets]
    out: dict[str, Optional[float]] = {}
    for g, name in enumerate(groups):
        positives = target_groups == g
        if not positives.any():
            out[name] = None
            continue
        out[name] = average_precision(
            pooled_scores[:, group_ids == g].sum(axis=1), positives)
    return out


def map_report(
    per_class_ap: Mapping[str, Optional[float]],
    support: Mapping[str, int],
) -> Optional[dict]:
    """A fold's `map` block: per-class APs, their supports, and the macro
    and micro means; None when no class has a defined AP.

    Classes with undefined AP (None) are excluded from both means, matching
    the 'N/A' convention for classes absent from the test data. Micro
    weights each defined class by its ground-truth instance count, so each
    needs a support of at least 1.
    """
    defined = {c: v for c, v in per_class_ap.items() if v is not None}
    if not defined:
        return None
    unsupported = [c for c in defined if support.get(c, 0) < 1]
    if unsupported:
        raise LengthMismatch(f"no support for classes with a defined AP: {unsupported}")
    return {
        "per_class": dict(per_class_ap),
        "support": {c: int(support.get(c, 0)) for c in per_class_ap},
        "macro": sum(defined.values()) / len(defined),
        "micro": sum(v * support[c] for c, v in defined.items())
        / sum(support[c] for c in defined),
    }
