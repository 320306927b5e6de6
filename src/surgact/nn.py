"""From-scratch building blocks for 1-D temporal conv networks.

Everything operates on float64 arrays in channels-first layout: a signal is
an array of shape (C, T), C channels by T frames. Every forward pass is
stateless: it returns `(output, cache)`, and its backward pass takes the
output gradient and that cache, which it only reads, so it may run again.
`Conv1d.backward` returns the gradient with respect to the layer input
(unless told not to compute it) and overwrites the parameter gradients
(`grad_w`, `grad_b`). A conv allocates none of its arrays: a `TcnModel`
hands each of its convs views into its flat vectors `theta` and `grad`, and
one `ColumnBuffer` for scratch memory that they share, as they run one at a
time. Models are not shared across threads.

The ED-TCN's maths between its convs is two pairs of stage functions:
`pool_relu_norm` for an encoder stage and `relu_norm` for a decoder stage.
They do not check their input: they take a conv's output, and
`TcnModel.forward` validates the signal once.

A training step (`TcnModel.train_step`) runs `softmax_cross_entropy` and
`Adam.step` around the model's forward and backward passes. The loss counts
a frame whose target is `dataset.GAP`, one no segment covers, for nothing.

No autograd framework is used anywhere: every backward pass below is the
hand-derived exact gradient of the forward map.
"""

from __future__ import annotations

import math
import mmap
from typing import Optional, Sequence

import numpy as np

from .dataset import GAP
from .errors import ConfigError, DataError

__all__ = [
    "ColumnBuffer",
    "Conv1d",
    "relu_norm",
    "relu_norm_backward",
    "pool_relu_norm",
    "pool_relu_norm_backward",
    "softmax_cross_entropy",
    "Adam",
]


# Adam updates the parameter vector in slices of this many elements, so the
# temporaries of one slice stay in cache; whole-vector expressions on the
# model's flat parameter vector were slower.
ADAM_BLOCK = 32768
# Adam's moment decay rates and the denominator's guard (b1, b2, eps below)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

BYTES_PER_VALUE = 8  # float64

# keeps the channel norm's denominator positive on an all-zero frame
NORM_EPS = 1e-5


def _as_signal(x, *, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D (channels, frames), got shape {arr.shape}")
    return arr


class ColumnBuffer:
    """Scratch memory for the column matrices of convs that run one at a
    time, such as the seven convs of one model.

    It is one anonymous memory map, not a heap array: a fresh multi-megabyte
    array per call, or one kept on the heap, left the process's peak
    resident memory to the allocator's history. A request larger than the
    map replaces it, so the buffer grows to the largest need it has seen.
    What it holds is valid only until the next conv call that uses it.
    """

    def __init__(self):
        self._map: Optional[mmap.mmap] = None
        self.capacity = 0  # float64 values

    def reserve(self, size: int) -> None:
        """Make room for `size` float64 values; growing drops the contents."""
        if size > self.capacity:
            self._map = mmap.mmap(-1, size * BYTES_PER_VALUE)
            self.capacity = size

    def view(self, shape: tuple, strides: tuple, offset: int = 0) -> np.ndarray:
        """An array over the buffer; strides and offset count float64 values."""
        return np.ndarray(shape, np.float64, self._map, offset * BYTES_PER_VALUE,
                          tuple(BYTES_PER_VALUE * s for s in strides))


class Conv1d:
    """1-D convolution with 'same' zero padding and stride 1, optionally of a
    signal first upsampled by repetition.

    y[co, t] = b[co] + sum_{ci, j} w[co, ci, j] * u[ci, t + j - k//2]

    with u[:, m] = x[:, m // phases] on [0, phases*T) and zero outside. With
    `phases=1` (the default) u is x; with `phases=2` the layer is the
    ED-TCN decoder's nearest-neighbour upsampling by 2 followed by the conv,
    and maps T frames to 2T. Odd kernel widths only.

    Output frame phases*s + r reads x only at s + (r + j - k//2) // phases,
    so a constant 0/1 fold (phases, k, q) sums the k taps of w into one
    q-slot kernel per phase r, and forward is one im2col of the padded,
    un-upsampled input and one GEMM whose rows, one per (output channel,
    phase), interleave into frames. With one phase the fold is the identity,
    q = k, and the kernel is a view of w. Backward sends the weight gradient
    back through the fold, per phase, and sums the column gradient over its
    q taps in one reduction.

    The conv is handed its arrays: w (Cout, Cin, k), whose shape gives its
    channel counts and width, b (Cout,), their gradients grad_w and grad_b,
    and `columns`, a `ColumnBuffer` that a model shares among its convs and
    where the im2col matrix and the column gradient live: the cache forward
    returns holds only the padded input and the kernels, and backward builds
    the im2col matrix again in the same memory.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, grad_w: np.ndarray,
                 grad_b: np.ndarray, columns: ColumnBuffer, *, phases: int = 1):
        if (w.ndim != 3 or b.shape != w.shape[:1]
                or grad_w.shape != w.shape or grad_b.shape != b.shape):
            raise ConfigError(
                f"a conv needs w (Cout, Cin, k), b (Cout,) and gradients of their shapes, got "
                f"w {w.shape}, b {b.shape}, grad_w {grad_w.shape}, grad_b {grad_b.shape}")
        out_channels, in_channels, kernel_size = w.shape
        if kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and >= 1, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if phases < 1:
            raise ConfigError(f"phases must be >= 1, got {phases}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.phases = phases
        self.w, self.b, self.grad_w, self.grad_b = w, b, grad_w, grad_b
        self.columns = columns
        # tap j of phase r reads input offset (r + j - k//2) // phases; slots
        # number those offsets from the smallest, lo
        taps = np.arange(kernel_size)
        offsets = (np.arange(phases)[:, None] + taps - kernel_size // 2) // phases
        self._lo = int(offsets.min())
        self._slots = int(offsets.max()) - self._lo + 1
        self._fold_by_phase = np.zeros((phases, kernel_size, self._slots))
        for r in range(phases):
            self._fold_by_phase[r, taps, offsets[r] - self._lo] = 1.0

    def _phase_kernels(self) -> np.ndarray:
        """(Cout*phases, Cin*q): row co*phases + r is phase r's kernel; a
        view of w for one phase."""
        co = self.out_channels
        if self.phases == 1:
            return self.w.reshape(co, -1)
        # (Cout, 1, Cin, k) @ (phases, k, q) is (Cout, phases, Cin, q)
        return np.matmul(self.w[:, None], self._fold_by_phase).reshape(co * self.phases, -1)

    def _im2col(self, xp: np.ndarray, t: int) -> np.ndarray:
        """cols[ci*q + j, s] = xp[ci, s + j], written into the column buffer."""
        c, q = self.in_channels, self._slots
        self.columns.reserve(c * q * (t + q + 1))
        cols = self.columns.view((c, q, t), (q * t, t, 1))
        row = xp.strides[0]
        np.copyto(cols, np.ndarray((c, q, t), np.float64, xp, 0,
                                   (row, BYTES_PER_VALUE, BYTES_PER_VALUE)))
        return cols.reshape(c * q, t)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The output and the cache `backward` takes."""
        x = _as_signal(x)
        c, t = x.shape
        if c != self.in_channels:
            raise DataError(f"expected {self.in_channels} input channels, got {c}")
        q, lo, n, co = self._slots, self._lo, self.phases, self.out_channels
        xp = np.zeros((c, t + q - 1))
        xp[:, -lo:t - lo] = x
        wp = self._phase_kernels()
        y = np.matmul(wp, self._im2col(xp, t)).reshape(co, n, t)
        # phase r's row block adds its bias into output frames r, r+n, ...
        out = np.empty((co, n * t))
        for r in range(n):
            np.add(y[:, r], self.b[:, None], out=out[:, r::n])
        return out, (xp, wp)

    def backward(self, grad_y: np.ndarray, cache: tuple, *,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Fill grad_w and grad_b from a forward pass's cache; return the
        input gradient, or None when `input_grad` is false."""
        xp, wp = cache
        grad_y = _as_signal(grad_y, name="grad_y")
        c, co = self.in_channels, self.out_channels
        q, lo, n = self._slots, self._lo, self.phases
        t = xp.shape[1] - q + 1
        if grad_y.shape != (co, t * n):
            raise DataError(f"grad_y shape {grad_y.shape} != output shape {(co, t * n)}")
        np.sum(grad_y, axis=1, out=self.grad_b)
        cols = self._im2col(xp, t)
        if n == 1:
            g = grad_y
            np.matmul(g, cols.T, out=self.grad_w.reshape(co, c * q))
        else:
            g = grad_y.reshape(co, t, n).transpose(0, 2, 1).reshape(co * n, t)
            gwp = np.matmul(g, cols.T).reshape(co, n, c, q)
            fold = self._fold_by_phase
            np.matmul(gwp[:, 0], fold[0].T, out=self.grad_w)
            for r in range(1, n):
                self.grad_w += np.matmul(gwp[:, r], fold[r].T)
        if not input_grad:
            return None
        # The (Cin*q, T) column gradient goes into the buffer with row
        # stride T+q+1. Read back with stride T+q per tap, a channel's block
        # holds tap j's gradient for output frame s at column s + j, the
        # padded input frame it belongs to, so the taps sum in one
        # reduction; the q+1 values after each row are the zeros between.
        rows = t + q + 1
        self.columns.view((c * q, q + 1), (rows, 1), t)[...] = 0.0
        np.matmul(wp.T, g, out=self.columns.view((c * q, t), (rows, 1)))
        taps = self.columns.view((c, q, t), (q * rows, rows - 1, 1), -lo)
        return taps.sum(axis=1)


def _keep(g: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.where(mask, g, 0.0) into `out`, bit for bit and branch-free: an AND
    with an all-ones or all-zero word, where a product leaves NaN * 0 = NaN."""
    words = np.negative(mask.view(np.int8))  # true is -1, every bit set
    np.bitwise_and(g.view(np.int64), words, out=out.view(np.int64))
    return out


def _norm(h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Per-frame normalization of h >= 0 by its largest channel:

        y[c, t] = h[c, t] / (max_c' h[c', t] + NORM_EPS)

    An all-zero frame maps to an all-zero frame. Returns y and what
    `_norm_backward` needs; h is kept, not copied.
    """
    scale = h.max(axis=0) + NORM_EPS
    return h / scale, (h, scale)


def _norm_backward(grad_y: np.ndarray, h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The max is piecewise smooth: the denominator's gradient goes to the
    first channel attaining it (ties broken by lowest channel index)."""
    gx = grad_y / scale
    # d(scale)/dh is 1 on the argmax channel a only, as h >= 0
    dot = np.einsum("ct,ct->t", grad_y, h)
    gx[np.argmax(h, axis=0), np.arange(h.shape[1])] -= dot / (scale * scale)
    return gx


def _relu(y: np.ndarray) -> np.ndarray:
    """max(y, 0) with NaN to +0.0, as np.where(y > 0, y, 0.0) gives it: fmax
    drops the NaN, and abs clears the sign fmax may leave on a -0.0 tie."""
    h = np.fmax(y, 0.0)
    return np.abs(h, out=h)


def relu_norm(y: np.ndarray) -> tuple[np.ndarray, tuple]:
    """A decoder stage after its conv: relu, then the channel norm.

    Returns the stage output and the cache `relu_norm_backward` takes, the
    norm's, whose input h = relu(y) gives the relu mask h > 0.
    """
    return _norm(_relu(y))


def relu_norm_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of `relu_norm` with respect to y; relu's subgradient at 0 is 0."""
    g = _norm_backward(grad_out, *cache)
    return _keep(g, cache[0] > 0, out=g)


def pool_relu_norm(y: np.ndarray) -> tuple[np.ndarray, tuple]:
    """An encoder stage after its conv: relu, max pooling of width 2, then
    the channel norm.

    The output has floor(T/2) frames, T >= 2; a trailing odd frame is
    dropped. The relu runs on the left frame of each pair only: the right
    frame wins iff right > relu(left), and then it is positive, so the
    pooled values are those of maxpool(relu(y)) bit for bit, NaN included.
    So is the gradient: it goes to the winning frame, to the earlier one on
    exact ties, and nowhere when the winner is <= 0: the left frame takes it
    where the pooled h > 0 and the right frame did not win.
    """
    t = y.shape[1]
    n = t // 2
    left = _relu(y[:, 0:2 * n:2])
    right = y[:, 1:2 * n:2]
    take_right = right > left
    # fmax never takes a NaN right frame; on a tie of zeros it may take the
    # right frame's -0.0, whose sign abs clears
    h = np.abs(np.fmax(right, left, out=left), out=left)
    out, norm = _norm(h)
    return out, (take_right, t, norm)


def pool_relu_norm_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of `pool_relu_norm` with respect to y."""
    take_right, t, norm = cache
    g = _norm_backward(grad_out, *norm)
    n = g.shape[1]
    gx = np.zeros((g.shape[0], t))
    _keep(g, (norm[0] > 0) & ~take_right, out=gx[:, 0:2 * n:2])
    _keep(g, take_right, out=gx[:, 1:2 * n:2])
    return gx


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-frame cross entropy under a column-wise softmax.

    logits: (C, T). targets: (T,) integer class ids in [0, C), or `GAP` on a
    frame no segment covers. A GAP frame counts for nothing: it adds neither
    loss nor gradient, and the mean is over the other frames. Ids outside
    [GAP, C), and targets that are GAP on every frame, are refused.

    Returns (loss, grad) where grad has the shape of logits and equals
    (softmax(logits) - onehot(targets)) / n_labelled on labelled columns and
    0 on GAP ones. Stabilized by subtracting each column's max before
    exponentiating.
    """
    logits = _as_signal(logits, name="logits")
    c, t = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (t,):
        raise DataError(f"targets shape {targets.shape} != ({t},)")
    if not np.issubdtype(targets.dtype, np.integer):
        raise DataError("targets must be integers")
    if targets.size and not (targets.min() >= GAP and targets.max() < c):
        raise DataError(
            f"targets must lie in [{GAP}, {c}), got range "
            f"[{targets.min()}, {targets.max()}]")
    keep = targets != GAP
    n = int(np.count_nonzero(keep))
    if n == 0:
        raise DataError("every target is GAP")

    z = logits - logits.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=0, keepdims=True))
    logp = z - lse
    cols = np.arange(t)
    # a GAP frame indexes the last class here; its entries are dropped
    loss = float(-logp[targets, cols][keep].sum() / n)

    grad = np.exp(logp)
    grad[targets, cols] -= 1.0
    grad /= n
    grad[:, ~keep] = 0.0
    return loss, grad


class Adam:
    """Adam with decoupled weight decay over one flat vector of `size` values.

    Each step first shrinks the parameters (p <- p - lr * wd * p), then
    applies the bias-corrected Adam delta computed from the raw gradients:

        m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The moment vectors hold m / (1-b1) and v / (1-b2), so they take g and
    g^2 unscaled, and the step folds both bias corrections into one step
    size and one eps, and the decay into one multiply: 11 passes over each
    slice, equal to the textbook update to float rounding.

    The moment vectors and step counter live on this object and are only
    ever mutated by `step`, which updates the parameter vector in place, one
    `ADAM_BLOCK`-element slice (a view) at a time.
    """

    def __init__(self, size: int, learning_rate: float, weight_decay: float = 0.0):
        if learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {learning_rate}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        scratch = min(ADAM_BLOCK, size)
        self._scratch = (np.empty(scratch), np.empty(scratch))

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        """Update the (size,) vector `params[0]` in place from `grads[0]`. The
        one-element lists are what `perfbench/spans.py` counts, summing sizes
        over `params`, which over a bare vector would walk every element; they
        go once it takes a bare vector (ROADMAP item 1)."""
        if len(params) != 1 or len(grads) != 1:
            raise DataError(f"expected one parameter/gradient vector, "
                            f"got {len(params)}/{len(grads)}")
        (p,), (g,), m, v = params, grads, self.m, self.v
        if p.shape != m.shape or g.shape != m.shape:
            raise DataError(
                f"parameter/gradient shape {p.shape}/{g.shape} != state shape {m.shape}")
        self.step_count += 1
        t = self.step_count
        lr, wd, b1, b2 = self.learning_rate, self.weight_decay, ADAM_BETA1, ADAM_BETA2
        # sqrt(v / (1-b2^t)) is sqrt(v / (1-b2)) / scale
        scale = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
        step = lr * (1.0 - b1) / (1.0 - b1 ** t) * scale
        eps = ADAM_EPS * scale
        decay = 1.0 - lr * wd
        s1, s2 = self._scratch
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            d, e = s1[:pb.size], s2[:pb.size]
            pb *= decay
            mb *= b1
            mb += gb
            vb *= b2
            vb += np.multiply(gb, gb, out=d)
            # p -= step * m / (sqrt(v) + eps)
            np.sqrt(vb, out=e)
            e += eps
            np.divide(mb, e, out=d)
            d *= step
            pb -= d
