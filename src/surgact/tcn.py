"""Encoder-decoder temporal convolutional model and its training loop.

Architecture, channels-first on (F, T) float64 signals:

    encoder:  3 x [conv(k) -> relu -> maxpool(2) -> channel-norm]
              with channel progression F -> f1 -> f2 -> f3
    decoder:  3 x [upsample(2) -> conv(k) -> relu -> channel-norm]
              with channel progression f3 -> f2 -> f1 -> f1
    head:     1x1 conv f1 -> num_classes, then pad to the input length

Default f: `DEFAULT_FILTERS`. Three pooling stages mean the input must be at
least 8 frames, and the head gives 8 * floor(T/8) <= T of them: the pad
repeats its last frame up to T, and backward sums the pad's gradients into
that frame. The decoder keeps the maths of the upsample-then-conv above
(to float rounding) but runs each stage as one `Conv1d(..., phases=2)` that
reads the un-upsampled signal: a constant 0/1 fold sums the k taps of the
conv's (Cout, Cin, k) weights into two half-rate phase kernels, one per
output frame parity, so no repeated frame is built or multiplied. The seven
convs run one at a time and share one `nn.ColumnBuffer` for their im2col
matrices and column gradients, which grows to the longest trial the model
has seen.

What follows each k-wide conv is one stage function: `nn.pool_relu_norm`
in the encoder, which pools before its relu and gives the results of the
order above bit for bit, and `nn.relu_norm` in the decoder. The model lists
its six (conv, stage, stage backward) layers once, and a pass is one loop
over them plus the head that keeps nothing on the model: `forward` returns
the logits and a tape of the convs' and stages' caches, which `backward`
takes back and only reads.

The kernel width is not fixed by hand: it is derived from the training
transcripts as the mean duration (in frames) of the activity class whose
mean duration is shortest, rounded half up to an integer, lowered by one if
that is even, never below 3: a mean of 12.2 frames gives 11.

Training is full-sequence: one trial is one batch, and one step,
`TcnModel.train_step`, is forward, a mean per-frame cross entropy over the
frames whose target is not `GAP`, backward without the input gradient, and
Adam with decoupled weight decay. A trial's targets
(`TrialTensors.targets`) hold GAP on the frames no segment covers: none for
motion primitives, whose gaps Idle fills, and a gesture transcript's gaps.
`train_fold` runs the steps with numpy's floating-point warnings off: a
diverging fold is reported by its non-finite loss or parameters. It returns
the fold report's training block, the per-epoch mean losses and frame
accuracies and the step count.

A model is `TcnModel(config, input_channels)`, and it owns every array its
convs use. It draws each conv's `w`, then its `b`, from `config.seed` into
one float64 vector, `TcnModel.theta`, ordered w0, b0, w1, b1, ... along the
forward pass, and hands each conv its views into `theta` and the gradient
vector `TcnModel.grad`, and the shared column buffer.

`check_model_settings` holds the rules for the training settings
(filters, learning rate, weight decay, epochs, kernel width). An experiment
config and a `ModelConfig` are both checked by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Mapping, Optional

import numpy as np

from .dataset import GAP, MIN_FRAMES, LabelTranscript, TrialKey
from .errors import ConfigError, DataError, NonFiniteLoss
from .nn import (
    Adam,
    ColumnBuffer,
    Conv1d,
    pool_relu_norm,
    pool_relu_norm_backward,
    relu_norm,
    relu_norm_backward,
    softmax_cross_entropy,
)

__all__ = [
    "ModelConfig",
    "TcnModel",
    "TrialTensors",
    "HYPERPARAM_DEFAULTS",
    "MIN_FRAMES",
    "check_model_settings",
    "is_a",
    "compute_kernel_size",
    "train_fold",
    "predict_labels",
]

# Optimizer settings that go with each cross-validation setup.
HYPERPARAM_DEFAULTS: dict[str, dict[str, float]] = {
    "louo": {"learning_rate": 5e-5, "weight_decay": 5e-4},
    "loto": {"learning_rate": 1e-4, "weight_decay": 1e-3},
}

DEFAULT_EPOCHS = 60
DEFAULT_FILTERS = (32, 64, 96)


def is_a(value, kind: type) -> bool:
    """`isinstance(value, kind)`, where a bool is neither a count nor a
    rate."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_model_settings(filters, learning_rate, weight_decay, epochs,
                         kernel_size) -> tuple[int, ...]:
    """Check the settings a model is built and trained with; returns
    `filters` as a tuple.

    Counts are integers, and a bool is none; rates are finite numbers, so a
    NaN or infinite rate is refused. A `kernel_size` of None is derived per
    fold from the training transcripts.
    """
    if (not isinstance(filters, (list, tuple)) or len(filters) != 3
            or not all(is_a(n, Integral) and n >= 1 for n in filters)):
        raise ConfigError(f"filters must be 3 positive counts, got {filters!r}")
    # chained comparisons refuse NaN and need no float() of a huge int
    if not (is_a(learning_rate, Real) and 0 < learning_rate < math.inf):
        raise ConfigError(f"learning_rate must be a finite number > 0, got {learning_rate!r}")
    if not (is_a(weight_decay, Real) and 0 <= weight_decay < math.inf):
        raise ConfigError(f"weight_decay must be a finite number >= 0, got {weight_decay!r}")
    if not (is_a(epochs, Integral) and epochs >= 0):
        raise ConfigError(f"epochs must be an integer >= 0, got {epochs!r}")
    if kernel_size is not None and not (
            is_a(kernel_size, Integral) and kernel_size >= 1 and kernel_size % 2 == 1):
        raise ConfigError(f"kernel_size must be an odd positive integer, got {kernel_size!r}")
    return tuple(filters)


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    kernel_size: int
    filters: tuple[int, int, int] = DEFAULT_FILTERS
    learning_rate: float = HYPERPARAM_DEFAULTS["louo"]["learning_rate"]
    weight_decay: float = HYPERPARAM_DEFAULTS["louo"]["weight_decay"]
    epochs: int = DEFAULT_EPOCHS
    seed: int = 0

    def __post_init__(self):
        if not (is_a(self.num_classes, Integral) and self.num_classes >= 2):
            raise ConfigError(f"need at least 2 classes, got {self.num_classes!r}")
        if self.kernel_size is None:  # a model has a kernel width; only a config derives it
            raise ConfigError("kernel_size must be an odd positive integer, got None")
        if not (is_a(self.seed, Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "filters", check_model_settings(
            self.filters, self.learning_rate, self.weight_decay, self.epochs,
            self.kernel_size))


def compute_kernel_size(transcripts: Iterable[LabelTranscript]) -> int:
    """Mean duration (frames) of the class with the shortest mean, rounded
    half up, lowered by one if even, and at least 3: 12.2 gives 11, 12.5
    gives 13. Uses training transcripts only."""
    durations: dict[str, list[int]] = {}
    for tr in transcripts:
        for seg in tr.segments:
            durations.setdefault(seg.label, []).append(seg.num_frames)
    if not durations:
        raise DataError("no labeled segments in any training transcript")
    shortest = min(sum(v) / len(v) for v in durations.values())
    k = int(np.floor(shortest + 0.5))
    if k % 2 == 0:
        k -= 1
    return max(k, 3)


class TcnModel:
    """The encoder-decoder network with hand-written backward passes."""

    def __init__(self, config: ModelConfig, input_channels: int):
        if input_channels < 1:
            raise ConfigError(f"input_channels must be >= 1, got {input_channels}")
        self.config = config
        self.input_channels = input_channels
        f1, f2, f3 = config.filters
        k = config.kernel_size
        # (Cin, Cout, width, phases) of the encoder, decoder (upsampling
        # inside) and classifier convs, in the order theta keeps their arrays
        shapes = ((input_channels, f1, k, 1), (f1, f2, k, 1), (f2, f3, k, 1),
                  (f3, f2, k, 2), (f2, f1, k, 2), (f1, f1, k, 2),
                  (f1, config.num_classes, 1, 1))
        size = sum(c_out * (c_in * width + 1) for c_in, c_out, width, _ in shapes)
        self.theta = np.empty(size)
        self.grad = np.zeros(size)
        # the convs run one at a time, so their column matrices share memory
        self.columns = ColumnBuffer()
        rng = np.random.default_rng(config.seed)
        self.convs = []
        offset = 0
        for c_in, c_out, width, phases in shapes:
            views = []
            for shape in ((c_out, c_in, width), (c_out,)):
                end = offset + math.prod(shape)
                views += [self.theta[offset:end].reshape(shape),
                          self.grad[offset:end].reshape(shape)]
                offset = end
            w, grad_w, b, grad_b = views
            # uniform +-sqrt(1/(C_in * k)), w drawn before b
            bound = float(np.sqrt(1.0 / (c_in * width)))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
            self.convs.append(Conv1d(w, b, grad_w, grad_b, self.columns, phases=phases))
        # each k-wide conv with the stage that follows it
        stages = (3 * [(pool_relu_norm, pool_relu_norm_backward)]
                  + 3 * [(relu_norm, relu_norm_backward)])
        self.layers = [(conv, *stage) for conv, stage in zip(self.convs, stages)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(F, T) signal to (num_classes, T) logits and the tape `backward`
        takes; T must be >= 8."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise DataError(f"expected (channels, frames), got shape {x.shape}")
        if x.shape[0] != self.input_channels:
            raise DataError(f"expected {self.input_channels} channels, got {x.shape[0]}")
        t = x.shape[1]
        if t < MIN_FRAMES:
            raise DataError(f"need at least {MIN_FRAMES} frames, got {t}")
        caches = []
        h = x
        for conv, stage, _ in self.layers:
            # each output is freed as soon as the next function has read it
            h, for_conv = conv.forward(h)
            h, for_stage = stage(h)
            caches.append((for_conv, for_stage))
        logits, for_head = self.convs[6].forward(h)
        # 8 * (t // 8) frames come out; the last one is repeated to t
        logits = np.concatenate(
            [logits, np.repeat(logits[:, -1:], t - logits.shape[1], axis=1)], axis=1)
        return logits, (t, caches, for_head)

    def backward(self, grad_logits: np.ndarray, tape: tuple, *,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Gradient of the forward pass that made `tape`; fills every conv's
        grad_w/grad_b and returns the gradient with respect to the input
        signal, or None when `input_grad` is false."""
        t, caches, for_head = tape
        grad_logits = np.asarray(grad_logits, dtype=np.float64)
        if grad_logits.shape != (self.config.num_classes, t):
            raise DataError(
                f"grad_logits shape {grad_logits.shape} != {(self.config.num_classes, t)}")
        n = 8 * (t // 8)
        g = grad_logits[:, :n]
        if n < t:  # the repeated frames' gradients sum into the frame they copy
            g = g.copy()
            g[:, -1] += grad_logits[:, n:].sum(axis=1)
        g = self.convs[6].backward(g, for_head)
        for i in reversed(range(len(self.layers))):
            (conv, _, stage_backward), (for_conv, for_stage) = self.layers[i], caches[i]
            g = stage_backward(g, for_stage)
            # the first conv's input gradient is the model's
            g = conv.backward(g, for_conv, input_grad=input_grad or i > 0)
        return g

    def train_step(self, x: np.ndarray, targets: np.ndarray,
                   optimizer: Adam) -> tuple[float, np.ndarray]:
        """One optimization step on one (F, T) signal; returns the loss and
        the logits, both from before the update.

        A non-finite loss raises NonFiniteLoss before anything is updated,
        so `theta` keeps its values. The gradient with respect to x is not
        computed.
        """
        logits, tape = self.forward(x)
        loss, grad_logits = softmax_cross_entropy(logits, targets)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss={loss}")
        self.backward(grad_logits, tape, input_grad=False)
        optimizer.step([self.theta], [self.grad])
        return loss, logits


@dataclass(frozen=True)
class TrialTensors:
    """Model-ready arrays for one trial."""

    features: np.ndarray  # (T, F)
    targets: np.ndarray  # (T,) int: class ids, GAP where no segment covers


def train_fold(model: TcnModel, fold, data: Mapping[TrialKey, TrialTensors]) -> dict:
    """Train `model` in place, with its own `model.config`, on the fold's
    training trials; returns `{"epoch_losses": [...], "epoch_accuracies":
    [...], "steps": n}`, the fold report's training block.

    One trial is one optimization step (full-sequence batch). Trial order is
    reshuffled each epoch from a generator seeded by `config.seed`, so a fold
    replays exactly given the same seed. Only training trials are touched;
    the mapping may contain them exclusively. An epoch's accuracy is
    measured on each step's pre-update logits over the frames whose target
    is not GAP, so it trails a fresh post-training evaluation slightly.

    The loss checks each trial's targets at its first step. A
    non-finite loss before a step, or non-finite parameters after the last
    one, raises NonFiniteLoss naming the fold.
    """
    keys = sorted(fold.train_trials)
    if not keys:
        raise DataError(f"fold {fold.name}: no training trials")
    for key in keys:
        if key not in data:
            raise DataError(f"fold {fold.name}: no tensors for training trial {key}")
    config = model.config
    optimizer = Adam([model.theta], config.learning_rate, config.weight_decay)
    # separate stream from the parameter-init draw on the same seed
    shuffle_rng = np.random.default_rng((config.seed, 1))
    losses: list[float] = []
    accs: list[float] = []
    # a diverging fold overflows on its way to a non-finite loss; the loss
    # and theta checks report it, so numpy's warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(keys))
            epoch_loss = 0.0
            correct = 0
            counted = 0
            for idx in order:
                key = keys[idx]
                tensors = data[key]
                try:
                    loss, logits = model.train_step(
                        tensors.features.T, tensors.targets, optimizer)
                except NonFiniteLoss as exc:
                    raise NonFiniteLoss(
                        f"fold {fold.name}: epoch {epoch}, trial {key}: {exc}") from None
                # a prediction is a class id, so it never matches a GAP frame
                correct += int((np.argmax(logits, axis=0) == tensors.targets).sum())
                counted += int(np.count_nonzero(tensors.targets != GAP))
                epoch_loss += loss
            losses.append(epoch_loss / len(keys))
            accs.append(100.0 * correct / counted)
    # each loss is checked before its step, so only the last step is unchecked
    if not np.isfinite(model.theta).all():
        raise NonFiniteLoss(f"fold {fold.name}: parameters are non-finite after training")
    return {"epoch_losses": losses, "epoch_accuracies": accs, "steps": config.epochs * len(keys)}


def predict_labels(model: TcnModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame-wise prediction for one trial.

    features: (T, F). Returns (labels, scores): labels (T,) int ids via
    argmax (ties to the lowest id), scores (T, C) softmax probabilities,
    each row summing to 1.
    """
    feats = np.asarray(features, dtype=np.float64)
    if not np.isfinite(feats).all():
        raise DataError("features contain non-finite values")
    # forward checks the shape and the channel count
    logits, _ = model.forward(feats.T)
    z = logits - logits.max(axis=0, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=0, keepdims=True)
    labels = np.argmax(logits, axis=0)
    return labels, probs.T
