"""Spans and counts recorded around surgact's layer boundaries.

The benchmark traces the program from the outside: `traced(tracer)` swaps
the bindings each caller resolves at call time (the names `surgact.runner`
imported from `dataset`, `crossval`, `metrics` and `tcn`, the loss as
`surgact.tcn` sees it, and the methods of `TcnModel`, `Conv1d` and `Adam`)
for wrappers that record a span and restores them on exit. Nothing in the
package changes, and an untraced run pays nothing.

A span is [name, start, end, parent index, trace id]; one experiment call is
one trace. A layer's self time is its spans' durations minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

import surgact.runner
import surgact.tcn
from surgact.nn import Adam, Conv1d
from surgact.tcn import TcnModel

BYTES_PER_FLOAT64 = 8


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """`fn` recording a span per call, then `count(counts, args, result)`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.trace_id]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def start_trace(self, trace_id: int) -> Counter:
        """Begin a new trace; returns the counter its spans will fill."""
        self.trace_id = trace_id
        self.counts = Counter()
        return self.counts

    def self_times(self, trace_id) -> dict[str, float]:
        """Seconds per span name in one trace, children subtracted."""
        own = defaultdict(float)
        for name, start, end, parent, tid in self.spans:
            if tid != trace_id:
                continue
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def inclusive_times(self, trace_id) -> dict[str, float]:
        """Seconds per span name in one trace, children included (no target
        calls itself, so no span nests in one of its own name)."""
        total = defaultdict(float)
        for name, start, end, _, tid in self.spans:
            if tid == trace_id:
                total[name] += end - start
        return dict(total)


# -- counters, each measured where the work happens -----------------------

def _conv_forward(counts, args, _):
    conv, x = args[0], args[1]
    frames = np.shape(x)[1]
    cols = conv.in_channels * conv.kernel_size * frames
    counts["nn.conv_calls"] += 1
    counts["conv_flop"] += 2 * conv.out_channels * cols
    counts["im2col_bytes"] += cols * BYTES_PER_FLOAT64


def _conv_backward(counts, args, _):
    conv, grad_y = args[0], args[1]
    frames = np.shape(grad_y)[1]
    cols = conv.in_channels * conv.kernel_size * frames
    counts["nn.conv_calls"] += 1
    # weight gradient and column gradient: two GEMMs of the forward's size
    counts["conv_flop"] += 4 * conv.out_channels * cols
    counts["im2col_bytes"] += cols * BYTES_PER_FLOAT64


def _adam(counts, args, _):
    counts["nn.adam_steps"] += 1
    counts["nn.adam_params"] += sum(p.size for p in args[1])


def _loss(counts, args, _):
    counts["tcn.train_frame_steps"] += np.shape(args[0])[1]


def _kinematics(counts, args, _):
    counts["dataset.kinematics_calls"] += 1
    counts["kinematics_bytes"] += os.path.getsize(args[0])


def _split(counts, args, _):
    counts["dataset.split_by_arm_calls"] += 1


def _predict(counts, args, _):
    counts["tcn.predict_calls"] += 1
    counts["eval_frames"] += np.shape(args[1])[0]


def _plan(counts, _, result):
    counts["crossval.folds"] += len(result) if isinstance(result, list) else 1


def _segments(frames) -> int:
    arr = np.asarray(frames)
    return int(np.count_nonzero(arr[1:] != arr[:-1])) + 1


def _edit(counts, args, _):
    # levenshtein fills one cell per (predicted, reference) segment pair
    counts["metrics.edit_cells"] += _segments(args[0]) * _segments(args[1])


# (owner, attribute, span name, counter). The split is timed as part of
# transcript loading: the two together are how a derived arm view is read.
TARGETS = (
    (surgact.runner, "build_catalog", "dataset.catalog", None),
    (surgact.runner, "louo_folds", "crossval.plan", _plan),
    (surgact.runner, "loto_folds", "crossval.plan", _plan),
    (surgact.runner, "loto_suite", "crossval.plan", _plan),
    (surgact.runner, "experiment_vocabulary", "runner.vocabulary", None),
    (surgact.runner, "load_trial_kinematics", "dataset.kinematics", _kinematics),
    (surgact.runner, "load_transcript", "dataset.transcript", None),
    (surgact.runner, "split_by_arm", "dataset.transcript", _split),
    (surgact.runner, "train_fold", "tcn.train", None),
    (surgact.runner, "predict_labels", "tcn.predict", _predict),
    (surgact.runner, "frame_accuracy", "metrics.accuracy", None),
    (surgact.runner, "edit_score", "metrics.edit", _edit),
    (surgact.runner, "pooled_class_average_precisions", "metrics.ap", None),
    (surgact.runner, "map_report", "metrics.ap", None),
    (surgact.runner, "emit_report", "runner.emit", None),
    (surgact.tcn, "softmax_cross_entropy", "nn.loss", _loss),
    (TcnModel, "forward", "tcn.forward", None),
    (TcnModel, "backward", "tcn.backward", None),
    (Conv1d, "forward", "nn.conv_forward", _conv_forward),
    (Conv1d, "backward", "nn.conv_backward", _conv_backward),
    (Adam, "step", "nn.adam", _adam),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every target through `tracer` until the block exits."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
