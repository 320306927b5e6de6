"""Slow reference layers kept as oracles for the fast kernels in surgact.nn.

`UpsampleRepeat` followed by a one-phase `Conv1d` is the ED-TCN decoder stage
as first written; `im2col_conv` is the one-phase conv kernel before it gained
phases. The fused decoder conv (`Conv1d(..., phases=2)`) and the encoder
convs are checked against these.
"""

import numpy as np

from surgact.errors import ShapeMismatch
from surgact.nn import _as_signal, _im2col, _Layer


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
            raise ShapeMismatch(f"grad_y shape {grad_y.shape} != {(c, 2 * t)}")
        return grad_y.reshape(c, t, 2).sum(axis=2)


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
