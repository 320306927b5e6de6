"""Metric oracles: hand-worked examples plus independent reference routes.

The reference implementations here (memoized recursive edit distance,
threshold-loop average precision) share no code with the package versions,
so agreement on randomized inputs is meaningful evidence.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgact.errors import (
    EmptyInput,
    LengthMismatch,
    NoPositives,
    ShapeMismatch,
)
from surgact.metrics import (
    average_precision,
    edit_score,
    frame_accuracy,
    levenshtein,
    map_report,
    pooled_class_average_precisions,
    run_length_segments,
)


def lev_reference(a, b):
    """Memoized recursion straight off the distance definition."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j) + 1,
                   d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return d(len(a), len(b))


def ap_reference(scores, positives):
    """Average precision by looping over descending unique thresholds."""
    n_pos = sum(positives)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        kept = [p for s, p in zip(scores, positives) if s >= t]
        tp = sum(kept)
        precision = tp / len(kept)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return 100.0 * ap


label_seqs = st.lists(st.sampled_from("ABC"), min_size=0, max_size=8)
nonempty_seqs = st.lists(st.sampled_from("ABC"), min_size=1, max_size=8)


class TestFrameAccuracy:
    def test_two_of_three(self):
        assert frame_accuracy(["A", "B", "B"], ["A", "B", "C"]) == pytest.approx(200 / 3)

    def test_perfect_and_zero(self):
        assert frame_accuracy([1, 2], [1, 2]) == 100.0
        assert frame_accuracy([1, 2], [2, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            frame_accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            frame_accuracy([], [])


class TestRunLengthSegments:
    def test_collapses_runs(self):
        got = run_length_segments(["A", "A", "B", "B", "B", "C"])
        assert got == [(0, 1, "A"), (2, 4, "B"), (5, 5, "C")]

    def test_single_run(self):
        assert run_length_segments([7, 7, 7]) == [(0, 2, 7)]

    def test_empty(self):
        with pytest.raises(EmptyInput):
            run_length_segments([])

    @given(nonempty_seqs)
    def test_segments_tile_the_sequence(self, frames):
        segs = run_length_segments(frames)
        assert segs[0][0] == 0 and segs[-1][1] == len(frames) - 1
        for (_, e1, l1), (s2, _, l2) in zip(segs, segs[1:]):
            assert s2 == e1 + 1 and l1 != l2
        for s, e, label in segs:
            assert all(frames[i] == label for i in range(s, e + 1))


class TestLevenshtein:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_costs_length(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    @given(label_seqs, label_seqs)
    def test_matches_recursive_reference(self, a, b):
        assert levenshtein(a, b) == lev_reference(a, b)

    @given(label_seqs, label_seqs)
    def test_symmetric_and_bounded(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)


class TestEditScore:
    def test_missing_segment_oracle(self):
        # collapsed [A, B, C] vs [A, C]: distance 1 over max length 3
        assert edit_score(["A", "B", "C"], ["A", "C"]) == pytest.approx(200 / 3)

    def test_identical(self):
        assert edit_score([1, 1, 2], [1, 1, 2]) == 100.0

    def test_oversegmentation_is_punished(self):
        ref = ["A"] * 6
        choppy = ["A", "B", "A", "B", "A", "A"]
        assert frame_accuracy(choppy, ref) == pytest.approx(200 / 3)
        assert edit_score(choppy, ref) == pytest.approx(100 / 5)

    @given(nonempty_seqs, nonempty_seqs, st.integers(1, 4))
    def test_frame_repetition_invariance(self, pred, ref, k):
        stretched_pred = [x for x in pred for _ in range(k)]
        stretched_ref = [x for x in ref for _ in range(k)]
        assert edit_score(stretched_pred, stretched_ref) == pytest.approx(
            edit_score(pred, ref))

    @given(nonempty_seqs, nonempty_seqs)
    def test_range_and_symmetry(self, pred, ref):
        s = edit_score(pred, ref)
        assert 0.0 <= s <= 100.0
        assert s == pytest.approx(edit_score(ref, pred))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            edit_score([], [1])


class TestAveragePrecision:
    def test_worked_example(self):
        # ranked: 0.9 pos (P=1, R=.5), 0.8 neg, 0.7 pos (P=2/3, R=1)
        # AP = .5 * 1 + .5 * 2/3 = 5/6
        ap = average_precision(np.array([0.9, 0.8, 0.7]),
                               np.array([True, False, True]))
        assert ap == pytest.approx(500 / 6)

    def test_perfect_ranking(self):
        ap = average_precision(np.array([0.9, 0.8, 0.2, 0.1]),
                               np.array([True, True, False, False]))
        assert ap == 100.0

    def test_all_tied_scores(self):
        # single threshold keeps everything: AP = precision = n_pos / n
        ap = average_precision(np.ones(4), np.array([True, False, False, True]))
        assert ap == pytest.approx(50.0)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision(np.array([0.5]), np.array([False]))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            average_precision(np.array([]), np.array([], dtype=bool))

    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
                  st.booleans()),
        min_size=1, max_size=30))
    def test_matches_threshold_reference(self, items):
        scores = [s for s, _ in items]
        positives = [p for _, p in items]
        if not any(positives):
            positives[0] = True
        got = average_precision(np.array(scores), np.array(positives))
        assert got == pytest.approx(ap_reference(scores, positives), abs=1e-9)

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_matches_reference_on_continuous_scores(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(n)
        positives = rng.random(n) > 0.5
        if not positives.any():
            positives[int(rng.integers(n))] = True
        got = average_precision(scores, positives)
        assert got == pytest.approx(ap_reference(list(scores), list(positives)),
                                    abs=1e-9)


# every class its own group, as gestures are scored
SELF = {name: name for name in "abc"}


class TestPooledClassAP:
    def test_matches_manual_pooling(self):
        rng = np.random.default_rng(7)
        trials = []
        for t in (5, 8):
            scores = rng.random((t, 3))
            scores /= scores.sum(axis=1, keepdims=True)
            targets = rng.integers(0, 3, size=t)
            trials.append((scores, targets))
        got = pooled_class_average_precisions(trials, ["a", "b", "c"], SELF)
        all_scores = np.concatenate([s for s, _ in trials])
        all_targets = np.concatenate([t for _, t in trials])
        for i, name in enumerate(["a", "b", "c"]):
            expected = average_precision(all_scores[:, i], all_targets == i)
            assert got[name] == pytest.approx(expected)

    def test_collapse_sums_member_scores(self):
        scores = np.array([[0.6, 0.1, 0.3],
                           [0.2, 0.5, 0.3],
                           [0.1, 0.2, 0.7]])
        targets = np.array([0, 1, 2])
        group_of = {"a": "grab", "b": "grab", "c": "push"}
        got = pooled_class_average_precisions(
            [(scores, targets)], ["a", "b", "c"], group_of)
        assert list(got) == ["grab", "push"]
        expected_grab = average_precision(scores[:, 0] + scores[:, 1],
                                          np.array([True, True, False]))
        assert got["grab"] == pytest.approx(expected_grab)
        assert got["push"] == average_precision(scores[:, 2], targets == 2)

    def test_groups_of_interleaved_members(self):
        # members of one group need not be adjacent in the class list, and
        # groups come in the order their first member does
        rng = np.random.default_rng(3)
        scores = rng.random((12, 4))
        targets = np.array([0, 1, 2, 3] * 3)
        group_of = {"a": "y", "b": "x", "c": "y", "d": "x"}
        got = pooled_class_average_precisions(
            [(scores[:5], targets[:5]), (scores[5:], targets[5:])],
            ["a", "b", "c", "d"], group_of)
        assert list(got) == ["y", "x"]
        assert got["y"] == average_precision(scores[:, [0, 2]].sum(axis=1),
                                             np.isin(targets, [0, 2]))
        assert got["x"] == average_precision(scores[:, [1, 3]].sum(axis=1),
                                             np.isin(targets, [1, 3]))

    def test_absent_class_is_none(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        got = pooled_class_average_precisions(
            [(scores, np.array([0, 0]))], ["a", "b"], SELF)
        assert got["b"] is None
        assert got["a"] == pytest.approx(100.0)

    def test_incomplete_collapse_map(self):
        with pytest.raises(LengthMismatch):
            pooled_class_average_precisions(
                [(np.ones((2, 2)), np.zeros(2, dtype=int))],
                ["a", "b"], {"a": "g"})

    def test_no_trials(self):
        with pytest.raises(EmptyInput):
            pooled_class_average_precisions([], ["a"], {"a": "a"})

    def test_no_kept_frames(self):
        empty = (np.ones((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyInput):
            pooled_class_average_precisions([empty, empty], ["a", "b"], SELF)

    def test_shapes_are_checked(self):
        with pytest.raises(ShapeMismatch):
            pooled_class_average_precisions(
                [(np.ones((2, 3)), np.zeros(2, dtype=int))], ["a", "b"], SELF)
        with pytest.raises(LengthMismatch):
            pooled_class_average_precisions(
                [(np.ones((2, 2)), np.zeros(3, dtype=int))], ["a", "b"], SELF)


class TestMapReport:
    def test_macro_micro_oracle(self):
        # macro: (50 + 100) / 2 = 75; micro: (50*1 + 100*3) / 4 = 87.5
        block = map_report({"a": 50.0, "b": 100.0}, {"a": 1, "b": 3})
        assert block["macro"] == pytest.approx(75.0)
        assert block["micro"] == pytest.approx(87.5)

    def test_undefined_classes_excluded(self):
        block = map_report({"a": 80.0, "b": None}, {"a": 2, "b": 0})
        assert block["macro"] == pytest.approx(80.0)
        assert block["micro"] == pytest.approx(80.0)
        assert block["per_class"]["b"] is None

    def test_support_recorded(self):
        block = map_report({"a": 80.0, "b": None}, {"a": 2})
        assert block == {"per_class": {"a": 80.0, "b": None},
                         "support": {"a": 2, "b": 0}, "macro": 80.0, "micro": 80.0}

    def test_all_undefined(self):
        assert map_report({"a": None}, {"a": 0}) is None
        assert map_report({}, {}) is None

    def test_missing_support(self):
        with pytest.raises(LengthMismatch):
            map_report({"a": 50.0}, {})

    def test_defined_class_without_support(self):
        with pytest.raises(LengthMismatch, match=r"\['b'\]"):
            map_report({"a": 50.0, "b": 10.0}, {"a": 1, "b": 0})
