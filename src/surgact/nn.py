"""From-scratch building blocks for 1-D temporal conv networks.

Everything operates on float64 arrays in channels-first layout: a signal is
an array of shape (C, T), C channels by T frames. `Conv1d` is a class with
`forward(x)` and `backward(grad_y)`; `backward` returns the gradient with
respect to the layer input and overwrites the stored parameter gradients
(`grad_w`, `grad_b`), which in a `TcnModel` are views into the model's flat
vectors `theta` and `grad`. A forward call keeps what the matching backward
call needs in `_cache` and that call drops it, so a conv serves one signal at
a time; models are not shared across threads.

The ED-TCN's maths between its convs is two pairs of stage functions:
`pool_relu_norm` for an encoder stage and `relu_norm` for a decoder stage.
Each forward returns `(output, cache)`, and its backward takes the output
gradient and that cache. They do not check their input: they take a conv's
output, and `TcnModel.forward` validates the signal once.

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
)

__all__ = [
    "Conv1d",
    "relu_norm",
    "relu_norm_backward",
    "pool_relu_norm",
    "pool_relu_norm_backward",
    "softmax_cross_entropy",
    "Adam",
    "finite_diff_check",
]


# Adam updates each parameter array in slices of this many elements, so the
# temporaries of one slice stay in cache; whole-vector expressions on the
# model's flat parameter vector were slower than the per-layer arrays.
ADAM_BLOCK = 32768
# Adam's moment decay rates and the denominator's guard (b1, b2, eps below)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# keeps the channel norm's denominator positive on an all-zero frame
NORM_EPS = 1e-5


def _as_signal(x, *, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D (channels, frames), got shape {arr.shape}")
    return arr


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """cols[ci*k + j, t] = xp[ci, t + j] for a padded signal xp."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    return windows.transpose(0, 2, 1).reshape(xp.shape[0] * k, -1)


class Conv1d:
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

    _cache = None  # set by forward, dropped by the matching backward

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
        if self._cache is None:
            raise ShapeMismatch("backward called before forward")
        (xp, wp), self._cache = self._cache, None
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


def _norm(h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Per-frame normalization of h >= 0 by its largest channel:

        y[c, t] = h[c, t] / (max_c' h[c', t] + NORM_EPS)

    An all-zero frame maps to an all-zero frame. Returns y and what
    `_norm_backward` needs; h is kept, not copied.
    """
    scale = h.max(axis=0) + NORM_EPS
    return h / scale, (h, scale, np.argmax(h, axis=0))


def _norm_backward(grad_y: np.ndarray, h: np.ndarray, scale: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """The max is piecewise smooth: the denominator's gradient goes to the
    first channel attaining it (ties broken by lowest channel index)."""
    gx = grad_y / scale
    # d(scale)/dh is sign(h[a, t]) on the argmax channel a only
    dot = np.einsum("ct,ct->t", grad_y, h)
    cols = np.arange(h.shape[1])
    gx[idx, cols] -= dot * np.sign(h[idx, cols]) / (scale * scale)
    return gx


def relu_norm(y: np.ndarray) -> tuple[np.ndarray, tuple]:
    """A decoder stage after its conv: relu, then the channel norm.

    Returns the stage output and the cache `relu_norm_backward` takes.
    """
    return _norm(np.where(y > 0, y, 0.0))


def relu_norm_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of `relu_norm` with respect to y; relu's subgradient at 0 is 0."""
    h = cache[0]
    return np.where(h > 0, _norm_backward(grad_out, *cache), 0.0)


def pool_relu_norm(y: np.ndarray) -> tuple[np.ndarray, tuple]:
    """An encoder stage after its conv: relu, max pooling of width 2, then
    the channel norm.

    The output has floor(T/2) frames, T >= 2; a trailing odd frame is
    dropped. The relu runs on the left frame of each pair only: the right
    frame wins iff right > relu(left), and then it is positive, so the
    pooled values are those of maxpool(relu(y)) bit for bit, NaN included.
    So is the gradient: it goes to the winning frame, to the earlier one on
    exact ties, and nowhere when the winner is <= 0. The norm's input is
    >= 0, so it needs no abs and keeps no copy.
    """
    t = y.shape[1]
    n = t // 2
    left = np.where(y[:, 0:2 * n:2] > 0, y[:, 0:2 * n:2], 0.0)
    right = y[:, 1:2 * n:2]
    take_right = right > left
    out, norm_cache = _norm(np.where(take_right, right, left))
    return out, (take_right, t, norm_cache)


def pool_relu_norm_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Gradient of `pool_relu_norm` with respect to y."""
    take_right, t, norm_cache = cache
    h = norm_cache[0]
    g = np.where(h > 0, _norm_backward(grad_out, *norm_cache), 0.0)
    n = h.shape[1]
    gx = np.zeros((h.shape[0], t))
    gx[:, 0:2 * n:2] = np.where(take_right, 0.0, g)
    gx[:, 1:2 * n:2] = np.where(take_right, g, 0.0)
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
                 weight_decay: float = 0.0):
        if learning_rate < 0:
            raise InvalidConfig(f"learning_rate must be >= 0, got {learning_rate}")
        if weight_decay < 0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
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
        lr, wd, b1, b2 = self.learning_rate, self.weight_decay, ADAM_BETA1, ADAM_BETA2
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
                np.add(np.sqrt(np.divide(vb, c2, out=e), out=e), ADAM_EPS, out=e)
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
