"""From-scratch building blocks for 1-D temporal conv networks.

Everything operates on float64 arrays in channels-first layout: a signal is
an array of shape (C, T), C channels by T frames. Each layer is a small class
with `forward(x)` and `backward(grad_y)`; `backward` returns the gradient
with respect to the layer input and, for parameterized layers, overwrites the
stored parameter gradients (`grad_w`, `grad_b`), which in a `TcnModel` are
views into the model's flat vectors `theta` and `grad`. A forward call keeps
what the matching backward call needs in `_cache` and that call drops it, so
a layer instance serves one signal at a time; models are not shared across
threads.

No autograd framework is used anywhere: every backward pass below is the
hand-derived exact gradient of the forward map, and `finite_diff_check`
is the harness used to verify them against central differences.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AllFramesMasked,
    ChannelMismatch,
    InvalidConfig,
    ShapeMismatch,
    TargetOutOfRange,
    TooShort,
)

__all__ = [
    "Conv1d",
    "Relu",
    "MaxPool1d",
    "ChannelNorm",
    "RestoreLength",
    "softmax_cross_entropy",
    "Adam",
    "finite_diff_check",
]


# Adam updates each parameter array in slices of this many elements, so the
# temporaries of one slice stay in cache; whole-vector expressions on the
# model's flat parameter vector were slower than the per-layer arrays.
ADAM_BLOCK = 32768


def _as_signal(x, *, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D (channels, frames), got shape {arr.shape}")
    return arr


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
            raise ShapeMismatch("backward called before forward")
        self._cache = None
        return cache


class Conv1d(_Layer):
    """1-D convolution with 'same' zero padding and stride 1, optionally of a
    signal first upsampled by repetition.

    y[co, t] = b[co] + sum_{ci, j} w[co, ci, j] * u[ci, t + j - k//2]

    with u[:, m] = x[:, m // phases] on [0, phases*T) and zero outside. With
    `phases=1` (the default) u is x; with `phases=2` the layer is the
    ED-TCN decoder's nearest-neighbour upsampling by 2 followed by the conv,
    and maps T frames to 2T. Odd kernel widths only.

    Output frame phases*s + r reads x only at s + (r + j - k//2) // phases,
    so a constant 0/1 fold matrix (k, phases*q) sums the k taps of w into one
    q-slot kernel per phase r, and forward is one im2col of the padded,
    un-upsampled input and one GEMM whose rows, one per (output channel,
    phase), interleave into frames; backward sends the weight gradient back
    through the fold's transpose and scatters the column gradient over q
    taps. For `phases=1` the fold is the identity and q = k. Forward keeps
    the padded input and the phase kernels, and backward builds the im2col
    matrix again: the matrix is q times larger, and allocating it afresh
    after a backward pass freed it cost more, in page faults, than the copy.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: Optional[np.random.Generator] = None, *, phases: int = 1):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise InvalidConfig(f"kernel_size must be odd and >= 1, got {kernel_size}")
        if in_channels < 1 or out_channels < 1:
            raise InvalidConfig("channel counts must be positive")
        if phases < 1:
            raise InvalidConfig(f"phases must be >= 1, got {phases}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.phases = phases
        # tap j of phase r reads input offset (r + j - k//2) // phases; slots
        # number those offsets from the smallest, lo
        taps = np.arange(kernel_size)
        offsets = (np.arange(phases)[:, None] + taps - kernel_size // 2) // phases
        self._lo = int(offsets.min())
        self._slots = int(offsets.max()) - self._lo + 1
        self._fold = np.zeros((kernel_size, phases * self._slots))
        for r in range(phases):
            self._fold[taps, r * self._slots + offsets[r] - self._lo] = 1.0
        # uniform +-sqrt(1/(C_in * k)), biases drawn from the same range
        bound = float(np.sqrt(1.0 / (in_channels * kernel_size)))
        if rng is None:
            self.w = np.zeros((out_channels, in_channels, kernel_size))
            self.b = np.zeros(out_channels)
        else:
            self.w = rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel_size))
            self.b = rng.uniform(-bound, bound, size=out_channels)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)

    def _phase_kernels(self) -> np.ndarray:
        """(Cout*phases, Cin*q): row co*phases + r is phase r's kernel."""
        co, ci, q, n = self.out_channels, self.in_channels, self._slots, self.phases
        wp = (self.w.reshape(co * ci, self.kernel_size) @ self._fold).reshape(co, ci, n, q)
        return wp.transpose(0, 2, 1, 3).reshape(co * n, ci * q)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_signal(x)
        c, t = x.shape
        if c != self.in_channels:
            raise ChannelMismatch(f"expected {self.in_channels} input channels, got {c}")
        q, lo, n = self._slots, self._lo, self.phases
        xp = np.zeros((c, t + q - 1))
        xp[:, -lo:t - lo] = x
        wp = self._phase_kernels()
        self._cache = (xp, wp)
        y = (wp @ _im2col(xp, q)).reshape(self.out_channels, n, t).transpose(0, 2, 1)
        # C order: by default the sum would keep y's transposed layout, and
        # the reshape into frames would copy it a second time
        return np.add(y, self.b[:, None, None], order="C").reshape(self.out_channels, t * n)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        xp, wp = self._pop_cache()
        grad_y = _as_signal(grad_y, name="grad_y")
        c, co = self.in_channels, self.out_channels
        q, lo, n = self._slots, self._lo, self.phases
        t = xp.shape[1] - q + 1
        if grad_y.shape != (co, t * n):
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != output shape {(co, t * n)}")
        self.grad_b[:] = grad_y.sum(axis=1)
        g = grad_y.reshape(co, t, n).transpose(0, 2, 1).reshape(co * n, t)
        gwp = (g @ _im2col(xp, q).T).reshape(co, n, c, q).transpose(0, 2, 1, 3)
        self.grad_w[:] = (gwp.reshape(co * c, n * q) @ self._fold.T).reshape(self.w.shape)
        gcols = (wp.T @ g).reshape(c, q, t)
        gxp = np.zeros((c, t + q - 1))
        for j in range(q):
            gxp[:, j:j + t] += gcols[:, j, :]
        return gxp[:, -lo:t - lo]


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
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != {mask.shape}")
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
            raise TooShort(f"max pooling needs at least 2 frames, got {t}")
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
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != {take_right.shape}")
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
            raise InvalidConfig(f"eps must be positive, got {eps}")
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
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != {x.shape}")
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
            raise ShapeMismatch(f"target length must be positive, got {target}")
        c, t = x.shape
        if t < 1:
            raise TooShort("cannot restore an empty signal")
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
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != {(c, target)}")
        if t == target:
            return grad_y.copy()
        if t > target:
            gx = np.zeros((c, t))
            gx[:, :target] = grad_y
            return gx
        gx = grad_y[:, :t].copy()
        gx[:, -1] += grad_y[:, t:].sum(axis=1)
        return gx


def softmax_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """Mean per-frame cross entropy under a column-wise softmax.

    logits: (C, T). targets: (T,) integer class ids. mask: optional (T,)
    booleans; masked-out frames contribute neither loss nor gradient and the
    mean is over unmasked frames only.

    Returns (loss, grad) where grad has the shape of logits and equals
    (softmax(logits) - onehot(targets)) / n_unmasked on unmasked columns.
    Stabilized by subtracting each column's max before exponentiating.
    """
    logits = _as_signal(logits, name="logits")
    c, t = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (t,):
        raise ShapeMismatch(f"targets shape {targets.shape} != ({t},)")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeMismatch("targets must be integers")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise TargetOutOfRange(
            f"targets must lie in [0, {c}), got range "
            f"[{targets.min()}, {targets.max()}]")
    if mask is None:
        keep = np.ones(t, dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (t,):
            raise ShapeMismatch(f"mask shape {keep.shape} != ({t},)")
    n = int(keep.sum())
    if n == 0:
        raise AllFramesMasked("every frame is masked out")

    z = logits - logits.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=0, keepdims=True))
    logp = z - lse
    cols = np.arange(t)
    loss = float(-logp[targets, cols][keep].sum() / n)

    grad = np.exp(logp)
    grad[targets, cols] -= 1.0
    grad /= n
    grad[:, ~keep] = 0.0
    return loss, grad


class Adam:
    """Adam with decoupled weight decay over a list of parameter arrays.

    Each step first shrinks the parameters (p <- p - lr * wd * p), then
    applies the bias-corrected Adam delta computed from the raw gradients:

        m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
        p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The moment buffers and step counter live on this object and are only
    ever mutated by `step`, which updates the parameter arrays in place, one
    `ADAM_BLOCK`-element slice at a time, in the order of operations above.
    """

    def __init__(self, params: Sequence[np.ndarray], learning_rate: float,
                 weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate < 0:
            raise InvalidConfig(f"learning_rate must be >= 0, got {learning_rate}")
        if weight_decay < 0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {weight_decay}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise InvalidConfig("betas must lie in [0, 1)")
        if eps <= 0:
            raise InvalidConfig("eps must be positive")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        scratch = min(ADAM_BLOCK, max((p.size for p in params), default=0))
        self._scratch = (np.empty(scratch), np.empty(scratch))

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ShapeMismatch(
                f"expected {len(self.m)} parameter/gradient arrays, "
                f"got {len(params)}/{len(grads)}")
        for p, g, m in zip(params, grads, self.m):
            if p.shape != m.shape or g.shape != m.shape:
                raise ShapeMismatch(
                    f"parameter/gradient shape {p.shape}/{g.shape} != state shape {m.shape}")
            if not p.flags.c_contiguous:
                raise ShapeMismatch("parameter arrays must be C-contiguous")
        self.step_count += 1
        t = self.step_count
        lr, wd, b1, b2 = self.learning_rate, self.weight_decay, self.beta1, self.beta2
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        s1, s2 = self._scratch
        for arrays in zip(params, grads, self.m, self.v):
            p, g, m, v = (a.reshape(-1) for a in arrays)
            for lo in range(0, p.size, ADAM_BLOCK):
                hi = lo + ADAM_BLOCK
                pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                d, e = s1[:pb.size], s2[:pb.size]
                if wd != 0.0:
                    pb -= np.multiply(pb, lr * wd, out=d)
                mb *= b1
                mb += np.multiply(gb, 1.0 - b1, out=d)
                vb *= b2
                vb += np.multiply(np.multiply(gb, gb, out=d), 1.0 - b2, out=d)
                # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
                np.add(np.sqrt(np.divide(vb, c2, out=e), out=e), self.eps, out=e)
                np.multiply(np.divide(mb, c1, out=d), lr, out=d)
                pb -= np.divide(d, e, out=d)


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
        raise InvalidConfig(f"h must be positive, got {h}")
    x = np.array(point, dtype=np.float64)
    _, g = f(x)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        raise ShapeMismatch(f"analytic gradient shape {g.shape} != point shape {x.shape}")
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
