"""Slow reference layers kept as oracles for the fast kernels in surgact.nn.

`UpsampleRepeat` followed by a one-phase `Conv1d` is the ED-TCN decoder stage
as first written; `im2col_conv` is the one-phase conv kernel before it gained
phases, and `fold_gemm_conv` the kernel for any phase count before the
column buffer: a fold GEMM and a transposed copy for the phase kernels, a
fold-transpose GEMM for the weight gradient and a q-tap scatter loop for the
input gradient. The fused decoder conv (`Conv1d(..., phases=2)`) and the
encoder convs are checked against these.

`Relu`, `MaxPool1d`, `ChannelNorm` and `RestoreLength` are the ED-TCN's
non-conv layers as first written, one class each. `TcnModel` runs them as
the stage functions `pool_relu_norm` and `relu_norm` and a two-line pad,
which are checked against these chains bit for bit.

`bare_conv` builds a `Conv1d` outside a model, over arrays it allocates.

`composed_train_step` is a training step as `train_fold` first composed
it from the model's entry points (`gradient_pass`, then the optimizer),
the oracle for `TcnModel.train_step`.
`finite_diff_check` compares analytic gradients with central differences.
"""

from typing import Callable

import numpy as np

from surgact.errors import ConfigError, DataError
from surgact.nn import ColumnBuffer, Conv1d, _as_signal, softmax_cross_entropy


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """cols[ci*k + j, t] = xp[ci, t + j] for a padded signal xp."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    return windows.transpose(0, 2, 1).reshape(xp.shape[0] * k, -1)


class _Layer:
    """What every layer shares: the one buffer its forward keeps."""

    _cache = None  # set by forward, dropped by the matching backward

    def _pop_cache(self):
        cache = self._cache
        if cache is None:
            raise DataError("backward called before forward")
        self._cache = None
        return cache


class UpsampleRepeat(_Layer):
    """Nearest-neighbor upsampling by 2: each frame is emitted twice.

    Backward sums the gradients of the two copies.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_signal(x)
        self._cache = x.shape
        return np.repeat(x, 2, axis=1)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        c, t = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        if grad_y.shape != (c, 2 * t):
            raise DataError(f"grad_y shape {grad_y.shape} != {(c, 2 * t)}")
        return grad_y.reshape(c, t, 2).sum(axis=2)


class Relu(_Layer):
    """Elementwise max(x, 0); subgradient 0 at the kink."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_signal(x)
        self._cache = mask = x > 0
        return np.where(mask, x, 0.0)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        mask = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        if grad_y.shape != mask.shape:
            raise DataError(f"grad_y shape {grad_y.shape} != {mask.shape}")
        return np.where(mask, grad_y, 0.0)


class MaxPool1d(_Layer):
    """Non-overlapping max pooling of width 2.

    Output length is floor(T/2); a trailing odd frame is dropped. The
    backward pass routes each output gradient to the frame that won the max,
    and to the earlier frame on exact ties.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_signal(x)
        c, t = x.shape
        if t < 2:
            raise DataError(f"max pooling needs at least 2 frames, got {t}")
        t_out = t // 2
        left = x[:, 0:2 * t_out:2]
        right = x[:, 1:2 * t_out:2]
        take_right = right > left  # tie -> left (lower index)
        self._cache = (take_right, t)
        return np.where(take_right, right, left)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        take_right, t = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        if grad_y.shape != take_right.shape:
            raise DataError(f"grad_y shape {grad_y.shape} != {take_right.shape}")
        t_out = t // 2
        gx = np.zeros((take_right.shape[0], t))
        gx[:, 0:2 * t_out:2] = np.where(take_right, 0.0, grad_y)
        gx[:, 1:2 * t_out:2] = np.where(take_right, grad_y, 0.0)
        return gx


class ChannelNorm(_Layer):
    """Per-frame normalization by the largest channel magnitude.

    y[c, t] = x[c, t] / (max_c' |x[c', t]| + eps)

    An all-zero frame maps to an all-zero frame. The max is piecewise smooth;
    the backward pass attributes the denominator's gradient to the first
    channel attaining the max (ties broken by lowest channel index).
    """

    def __init__(self, eps: float = 1e-5):
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.eps = eps

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_signal(x)
        mag = np.abs(x)
        scale = mag.max(axis=0) + self.eps
        self._cache = (x.copy(), scale, np.argmax(mag, axis=0))
        return x / scale

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        x, s, idx = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        if grad_y.shape != x.shape:
            raise DataError(f"grad_y shape {grad_y.shape} != {x.shape}")
        gx = grad_y / s
        # d(scale)/dx is sign(x[a, t]) on the argmax channel a only
        dot = np.einsum("ct,ct->t", grad_y, x)
        cols = np.arange(x.shape[1])
        gx[idx, cols] -= dot * np.sign(x[idx, cols]) / (s * s)
        return gx


class RestoreLength(_Layer):
    """Crop or right-pad a signal to a target length.

    Needed because three pool/upsample stages reproduce the input length only
    when it is a multiple of 8. Padding repeats the final frame, so its
    backward pass sums all the pad-frame gradients into that frame; cropping
    discards trailing frames, whose gradient is zero.
    """

    def forward(self, x: np.ndarray, target: int) -> np.ndarray:
        x = _as_signal(x)
        if target < 1:
            raise DataError(f"target length must be positive, got {target}")
        c, t = x.shape
        if t < 1:
            raise DataError("cannot restore an empty signal")
        self._cache = (c, t, target)
        if t == target:
            return x.copy()
        if t > target:
            return x[:, :target].copy()
        return np.concatenate([x, np.repeat(x[:, -1:], target - t, axis=1)], axis=1)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        c, t, target = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        if grad_y.shape != (c, target):
            raise DataError(f"grad_y shape {grad_y.shape} != {(c, target)}")
        if t == target:
            return grad_y.copy()
        if t > target:
            gx = np.zeros((c, t))
            gx[:, :target] = grad_y
            return gx
        gx = grad_y[:, :t].copy()
        gx[:, -1] += grad_y[:, t:].sum(axis=1)
        return gx


def im2col_conv(w, b, x, grad_y):
    """The 'same' conv as one im2col GEMM, and its k-tap col2im backward.

    Returns (y, grad_w, grad_b, grad_x) for weights w (Cout, Cin, k), bias b,
    input x (Cin, T) and output gradient grad_y (Cout, T).
    """
    c_out, c, k = w.shape
    t = x.shape[1]
    pad = k // 2
    xp = np.zeros((c, t + 2 * pad))
    xp[:, pad:pad + t] = x
    w2 = w.reshape(c_out, c * k)
    cols = _im2col(xp, k)
    y = w2 @ cols + b[:, None]
    grad_b = grad_y.sum(axis=1)
    grad_w = (grad_y @ cols.T).reshape(w.shape)
    gcols = (w2.T @ grad_y).reshape(c, k, t)
    gxp = np.zeros((c, t + 2 * pad))
    for j in range(k):
        gxp[:, j:j + t] += gcols[:, j, :]
    return y, grad_w, grad_b, gxp[:, pad:pad + t]


def fold_gemm_conv(w, b, x, grad_y, phases):
    """The conv of `surgact.nn.Conv1d` with `phases`, as one GEMM over a
    fresh im2col through a (k, phases*q) fold matrix.

    Returns (y, grad_w, grad_b, grad_x) like `im2col_conv`; y and grad_y
    have phases*T frames.
    """
    c_out, c, k = w.shape
    n = phases
    t = x.shape[1]
    taps = np.arange(k)
    offsets = (np.arange(n)[:, None] + taps - k // 2) // n
    lo = int(offsets.min())
    q = int(offsets.max()) - lo + 1
    fold = np.zeros((k, n * q))
    for r in range(n):
        fold[taps, r * q + offsets[r] - lo] = 1.0
    xp = np.zeros((c, t + q - 1))
    xp[:, -lo:t - lo] = x
    wp = (w.reshape(c_out * c, k) @ fold).reshape(c_out, c, n, q)
    wp = wp.transpose(0, 2, 1, 3).reshape(c_out * n, c * q)
    cols = _im2col(xp, q)
    y = (wp @ cols).reshape(c_out, n, t).transpose(0, 2, 1)
    y = np.add(y, b[:, None, None], order="C").reshape(c_out, t * n)
    grad_b = grad_y.sum(axis=1)
    g = grad_y.reshape(c_out, t, n).transpose(0, 2, 1).reshape(c_out * n, t)
    gwp = (g @ cols.T).reshape(c_out, n, c, q).transpose(0, 2, 1, 3)
    grad_w = (gwp.reshape(c_out * c, n * q) @ fold.T).reshape(w.shape)
    gcols = (wp.T @ g).reshape(c, q, t)
    gxp = np.zeros((c, t + q - 1))
    for j in range(q):
        gxp[:, j:j + t] += gcols[:, j, :]
    return y, grad_w, grad_b, gxp[:, -lo:t - lo]


def bare_conv(c_in, c_out, k, rng=None, *, phases=1, columns=None):
    """A `Conv1d` over arrays allocated here: zero weights and biases, or,
    given `rng`, w and then b drawn from it as a model draws them, uniform
    +-sqrt(1/(c_in * k)). It gets its own `ColumnBuffer` unless given one."""
    w, b = np.zeros((c_out, c_in, k)), np.zeros(c_out)
    if rng is not None:
        bound = float(np.sqrt(1.0 / (c_in * k)))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    if columns is None:
        columns = ColumnBuffer()
    return Conv1d(w, b, np.zeros_like(w), np.zeros_like(b), columns, phases=phases)


def gradient_pass(model, x, targets):
    """forward, the loss and backward, which fills model.grad; returns
    (loss, logits)."""
    logits, tape = model.forward(x)
    loss, grad_logits = softmax_cross_entropy(logits, targets)
    model.backward(grad_logits, tape)
    return loss, logits


def composed_train_step(model, x, targets, optimizer):
    """`gradient_pass`, then the optimizer's step; returns (loss, logits)
    from before the update."""
    loss, logits = gradient_pass(model, x, targets)
    optimizer.step([model.theta], [model.grad])
    return loss, logits


def finite_diff_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Compare an analytic gradient against central differences.

    `f(x)` must return `(value, grad)` with `grad` shaped like `x`, and must
    not hold on to `x` (it is perturbed in place between calls). Returns

        max_i |g_analytic[i] - g_fd[i]| / max(1, |g_fd[i]|)

    where g_fd[i] = (f(x + h e_i) - f(x - h e_i)) / (2h). The max(1, .)
    denominator makes the comparison absolute for small gradients and
    relative for large ones.
    """
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}")
    x = np.array(point, dtype=np.float64)
    _, g = f(x)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        raise DataError(f"analytic gradient shape {g.shape} != point shape {x.shape}")
    if x.size == 0:
        return 0.0
    g_fd = np.zeros_like(x)
    flat_x = x.ravel()
    flat_fd = g_fd.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up, _ = f(x)
        flat_x[i] = orig - h
        down, _ = f(x)
        flat_x[i] = orig
        flat_fd[i] = (up - down) / (2.0 * h)
    rel = np.abs(g - g_fd) / np.maximum(1.0, np.abs(g_fd))
    return float(rel.max())
