"""Frame- and segment-level evaluation for temporal label sequences.

Three families:

* frame accuracy: percent of frames whose predicted label matches.
* edit score: 100 * (1 - levenshtein(G, P) / max(|G|, |P|)) over run-length
  segment label sequences, so over-segmentation is punished even when frame
  accuracy is high.
* average precision: one-vs-rest AP per class over pooled per-frame scores,
  summed over descending unique score thresholds (tied scores share a
  threshold); macro and support-weighted micro means on top.

All scores are on a 0..100 percent scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    NoDefinedClasses,
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
    "MapSummary",
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
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            sub = prev[j - 1] + (0 if ai == b[j - 1] else 1)
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, sub)
        prev = cur
    return prev[len(b)]


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
    trials: Sequence[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]],
    class_names: Sequence[str],
    collapse: Optional[Mapping[str, str]] = None,
) -> dict[str, Optional[float]]:
    """Per-class AP over frames pooled from several trials.

    Each trial is (scores, targets, mask): scores (T, C) per-frame class
    scores, targets (T,) true class ids, mask optional (T,) validity. With a
    `collapse` mapping (class name -> group name) the score of a group is
    the sum of its member classes' scores and a frame is positive when its
    true class maps to the group; without one every class is its own group.

    Returns group -> AP percent, or None where the pooled frames contain no
    positives (the undefined 'N/A' case).
    """
    if not trials:
        raise EmptyInput("no trials to score")
    names = list(class_names)
    if collapse is None:
        groups = list(dict.fromkeys(names))
        group_of = {c: c for c in names}
    else:
        group_of = dict(collapse)
        missing = [c for c in names if c not in group_of]
        if missing:
            raise LengthMismatch(f"collapse map lacks classes: {missing}")
        groups = list(dict.fromkeys(group_of[c] for c in names))
    member_ids: dict[str, list[int]] = {g: [] for g in groups}
    for i, c in enumerate(names):
        member_ids[group_of[c]].append(i)

    score_chunks: list[np.ndarray] = []
    target_chunks: list[np.ndarray] = []
    for scores, targets, mask in trials:
        scores = np.asarray(scores, dtype=np.float64)
        targets = np.asarray(targets)
        if scores.ndim != 2 or scores.shape[1] != len(names):
            raise ShapeMismatch(
                f"scores shape {scores.shape} != (T, {len(names)})")
        if targets.shape != (scores.shape[0],):
            raise LengthMismatch(
                f"targets shape {targets.shape} vs {scores.shape[0]} frames")
        if mask is not None:
            keep = np.asarray(mask, dtype=bool)
            if keep.shape != targets.shape:
                raise LengthMismatch("mask shape differs from targets")
            scores, targets = scores[keep], targets[keep]
        score_chunks.append(scores)
        target_chunks.append(targets)
    pooled_scores = np.concatenate(score_chunks, axis=0)
    pooled_targets = np.concatenate(target_chunks, axis=0)
    if pooled_targets.size == 0:
        raise EmptyInput("all frames are masked out")

    target_groups = np.array([group_of[names[t]] for t in pooled_targets])
    out: dict[str, Optional[float]] = {}
    for g in groups:
        positives = target_groups == g
        if not positives.any():
            out[g] = None
            continue
        g_scores = pooled_scores[:, member_ids[g]].sum(axis=1)
        out[g] = average_precision(g_scores, positives)
    return out


@dataclass(frozen=True)
class MapSummary:
    """Per-class APs with their supports plus macro/micro means (percent)."""

    per_class: tuple[tuple[str, Optional[float]], ...]
    support: tuple[tuple[str, int], ...]
    macro: float
    micro: float


def map_report(
    per_class_ap: Mapping[str, Optional[float]],
    support: Mapping[str, int],
) -> MapSummary:
    """Aggregate per-class APs into macro and micro means.

    Classes with undefined AP (None) are excluded from both means, matching
    the 'N/A' convention for classes absent from the test data. Micro
    weights each defined class by its ground-truth instance count.
    """
    defined = [(c, v) for c, v in per_class_ap.items() if v is not None]
    if not defined:
        raise NoDefinedClasses("no class has a defined average precision")
    for c, _ in defined:
        if c not in support:
            raise LengthMismatch(f"no support count for class {c!r}")
    macro = sum(v for _, v in defined) / len(defined)
    total = sum(support[c] for c, _ in defined)
    if total <= 0:
        raise NoDefinedClasses("defined classes have zero total support")
    micro = sum(v * support[c] for c, v in defined) / total
    return MapSummary(
        per_class=tuple(per_class_ap.items()),
        support=tuple((c, int(support.get(c, 0))) for c in per_class_ap),
        macro=macro,
        micro=micro,
    )
