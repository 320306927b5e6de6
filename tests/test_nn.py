"""Layer-level oracles and finite-difference checks for the nn building blocks.

The layer classes `Relu`, `MaxPool1d`, `ChannelNorm`, `RestoreLength` and
`UpsampleRepeat` live in tests/reference_nn.py: the model no longer runs
them, and they are tested here as the oracles its fused code is held to.

Expected values fall into three groups:
* hand-worked examples (the conv [-2,-2,-2,3] oracle, the ln 2 loss, the
  Adam first step) whose derivations are spelled out inline,
* dual-route comparisons against naive reference implementations written
  here in plain loops,
* central-difference gradient checks through `finite_diff_check`, which
  tests/reference_nn.py keeps with the oracles.

Random inputs for gradient checks are drawn from fixed seeds chosen so no
coordinate sits within the finite-difference step of a ReLU kink or a
pooling tie; those would make central differences disagree with the exact
subgradient for reasons that are not bugs.
"""

import math
import mmap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgact.dataset import GAP
from surgact.errors import ConfigError, DataError
from surgact.nn import (
    ADAM_BLOCK,
    Adam,
    ColumnBuffer,
    Conv1d,
    pool_relu_norm,
    pool_relu_norm_backward,
    relu_norm,
    relu_norm_backward,
    softmax_cross_entropy,
)

from reference_nn import (
    ChannelNorm,
    MaxPool1d,
    Relu,
    RestoreLength,
    UpsampleRepeat,
    bare_conv,
    finite_diff_check,
    fold_gemm_conv,
    im2col_conv,
)


def naive_conv(x, w, b):
    """Reference convolution: direct sum over the definition, zero padded."""
    c_out, c_in, k = w.shape
    _, t = x.shape
    pad = k // 2
    y = np.zeros((c_out, t))
    for co in range(c_out):
        for out_t in range(t):
            acc = b[co]
            for ci in range(c_in):
                for j in range(k):
                    src = out_t + j - pad
                    if 0 <= src < t:
                        acc += w[co, ci, j] * x[ci, src]
            y[co, out_t] = acc
    return y


def make_conv(w, b):
    c_out, c_in, k = w.shape
    conv = bare_conv(c_in, c_out, k)
    conv.w[:] = w
    conv.b[:] = b
    return conv


class TestConv1d:
    def test_edge_detector_oracle(self):
        # y[t] = x[t-1] - x[t+1] with zeros outside:
        # t=0: 0-2=-2, t=1: 1-3=-2, t=2: 2-4=-2, t=3: 3-0=3
        conv = make_conv(np.array([[[1.0, 0.0, -1.0]]]), np.zeros(1))
        y, _ = conv.forward(np.array([[1.0, 2.0, 3.0, 4.0]]))
        np.testing.assert_allclose(y, [[-2.0, -2.0, -2.0, 3.0]])

    def test_identity_kernel(self):
        conv = make_conv(np.array([[[0.0, 1.0, 0.0]]]), np.zeros(1))
        x = np.array([[5.0, -1.0, 2.0, 0.5, 7.0]])
        np.testing.assert_allclose(conv.forward(x)[0], x)

    def test_bias_only(self):
        conv = make_conv(np.zeros((2, 1, 3)), np.array([1.5, -2.0]))
        y, _ = conv.forward(np.zeros((1, 4)))
        np.testing.assert_allclose(y, [[1.5] * 4, [-2.0] * 4])

    @given(st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([1, 3, 5]), st.integers(1, 12),
           st.integers(0, 2**31 - 1))
    def test_matches_naive_reference(self, c_in, c_out, k, t, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c_in, t))
        w = rng.normal(size=(c_out, c_in, k))
        b = rng.normal(size=c_out)
        got, _ = make_conv(w, b).forward(x)
        np.testing.assert_allclose(got, naive_conv(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("shapes, phases, message", [
        ([(4, 15), (4,), (4, 15), (4,)], 1,
         r"^a conv needs w \(Cout, Cin, k\), b \(Cout,\) and gradients of their shapes, "
         r"got w \(4, 15\), b \(4,\), grad_w \(4, 15\), grad_b \(4,\)$"),
        # a (1,) bias would broadcast in forward, so it is refused here
        ([(4, 3, 5), (1,), (4, 3, 5), (1,)], 1, r"got w \(4, 3, 5\), b \(1,\), "),
        ([(4, 3, 5), (4,), (4, 3, 3), (4,)], 1, r"grad_w \(4, 3, 3\), grad_b \(4,\)$"),
        ([(4, 3, 5), (4,), (4, 3, 5), (4, 1)], 1, r"grad_w \(4, 3, 5\), grad_b \(4, 1\)$"),
        ([(1, 1, 2), (1,), (1, 1, 2), (1,)], 1, "^kernel_size must be odd and >= 1, got 2$"),
        ([(0, 2, 3), (0,), (0, 2, 3), (0,)], 1, "^channel counts must be positive$"),
        ([(1, 1, 3), (1,), (1, 1, 3), (1,)], 0, "^phases must be >= 1, got 0$"),
    ], ids=["w-not-3d", "bias-not-cout", "grad-w-shape", "grad-b-shape", "even-kernel",
            "no-channels", "no-phases"])
    def test_rejects_arrays_or_phases_it_cannot_run(self, shapes, phases, message):
        w, b, grad_w, grad_b = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ConfigError, match=message):
            Conv1d(w, b, grad_w, grad_b, ColumnBuffer(), phases=phases)

    def test_rejects_wrong_channels(self):
        conv = bare_conv(2, 1, 3, np.random.default_rng(0))
        with pytest.raises(DataError, match="expected 2 input channels, got 3"):
            conv.forward(np.zeros((3, 5)))

    def test_grad_wrt_weights(self):
        rng = np.random.default_rng(101)
        x = rng.normal(size=(2, 9))
        r = rng.normal(size=(3, 9))
        conv = bare_conv(2, 3, 3, rng)

        def f(w):
            conv.w[:] = w
            y, cache = conv.forward(x)
            conv.backward(r, cache)
            return float((y * r).sum()), conv.grad_w.copy()

        assert finite_diff_check(f, conv.w.copy()) < 1e-8

    def test_grad_wrt_bias(self):
        rng = np.random.default_rng(102)
        x = rng.normal(size=(2, 7))
        r = rng.normal(size=(2, 7))
        conv = bare_conv(2, 2, 5, rng)

        def f(b):
            conv.b[:] = b
            y, cache = conv.forward(x)
            conv.backward(r, cache)
            return float((y * r).sum()), conv.grad_b.copy()

        assert finite_diff_check(f, conv.b.copy()) < 1e-8

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(103)
        r = rng.normal(size=(3, 8))
        conv = bare_conv(2, 3, 3, rng)

        def f(x):
            y, cache = conv.forward(x)
            gx = conv.backward(r, cache)
            return float((y * r).sum()), gx

        assert finite_diff_check(f, rng.normal(size=(2, 8))) < 1e-8


KERNEL_WIDTHS = [1, 3, 5, 9, 19, 21]


class TestUpsampledConv:
    """A two-phase conv against the unfused upsample-then-conv it replaces."""

    @pytest.mark.parametrize("k", KERNEL_WIDTHS)
    @pytest.mark.parametrize("t", [1, 6, 7])
    def test_matches_upsample_then_conv(self, k, t):
        rng = np.random.default_rng(1000 * k + t)
        c_in, c_out = 3, 4
        fused = bare_conv(c_in, c_out, k, rng, phases=2)
        plain = make_conv(fused.w.copy(), fused.b.copy())
        up = UpsampleRepeat()
        x = rng.normal(size=(c_in, t))
        grad_y = rng.normal(size=(c_out, 2 * t))
        y, cache = fused.forward(x)
        assert y.shape == (c_out, 2 * t)
        expected, plain_cache = plain.forward(up.forward(x))
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)
        grad_x = fused.backward(grad_y, cache)
        np.testing.assert_allclose(grad_x, up.backward(plain.backward(grad_y, plain_cache)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused.grad_w, plain.grad_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fused.grad_b, plain.grad_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", KERNEL_WIDTHS)
    @pytest.mark.parametrize("t", [1, 6, 7])
    def test_one_phase_is_the_im2col_kernel_bit_for_bit(self, k, t):
        rng = np.random.default_rng(2000 * k + t)
        conv = bare_conv(3, 4, k, rng)
        x = rng.normal(size=(3, t))
        grad_y = rng.normal(size=(4, t))
        y, grad_w, grad_b, grad_x = im2col_conv(conv.w, conv.b, x, grad_y)
        got, cache = conv.forward(x)
        assert np.array_equal(got, y)
        assert np.array_equal(conv.backward(grad_y, cache), grad_x)
        assert np.array_equal(conv.grad_w, grad_w)
        assert np.array_equal(conv.grad_b, grad_b)

    @pytest.mark.parametrize("phases", [1, 2, 3])
    @pytest.mark.parametrize("k", KERNEL_WIDTHS)
    @pytest.mark.parametrize("t", [1, 6, 7, 40])
    def test_matches_the_fold_gemm_kernel(self, phases, k, t):
        # with one or two phases a kernel slot sums at most two taps, so
        # the order of the sums cannot change the bits; with three it can
        rng = np.random.default_rng(3000 * k + 10 * t + phases)
        conv = bare_conv(4, 5, k, rng, phases=phases)
        x = rng.normal(size=(4, t))
        grad_y = rng.normal(size=(5, phases * t))
        expected = fold_gemm_conv(conv.w, conv.b, x, grad_y, phases)
        y, cache = conv.forward(x)
        got = (y, conv.backward(grad_y, cache), conv.grad_w, conv.grad_b)
        for a, b in zip(got, (expected[0], expected[3], expected[1], expected[2])):
            if phases <= 2:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phases", [1, 2])
    def test_no_input_gradient_leaves_the_parameter_gradients(self, phases):
        rng = np.random.default_rng(130 + phases)
        conv = bare_conv(3, 4, 5, rng, phases=phases)
        x = rng.normal(size=(3, 11))
        grad_y = rng.normal(size=(4, phases * 11))
        _, cache = conv.forward(x)
        assert conv.backward(grad_y, cache, input_grad=False) is None
        grads = conv.grad_w.copy(), conv.grad_b.copy()
        assert conv.backward(grad_y, cache).shape == x.shape
        assert np.array_equal(conv.grad_w, grads[0])
        assert np.array_equal(conv.grad_b, grads[1])

    def test_one_phase_kernel_is_a_view_of_the_weights(self):
        conv = bare_conv(3, 4, 5, np.random.default_rng(0))
        assert np.shares_memory(conv._phase_kernels(), conv.w)
        assert not np.shares_memory(bare_conv(3, 4, 5, phases=2)._phase_kernels(), conv.w)

    @pytest.mark.parametrize("phases", [1, 2])
    def test_a_shared_buffer_gives_the_bits_of_a_fresh_one(self, phases):
        # a long signal grows the buffer that two convs share; a short one
        # then runs over the stale values the long one left in it
        def run(x, buffer):
            # two convs with the same weights each time, over the buffer given
            rng = np.random.default_rng(140 + phases)
            convs = [bare_conv(3, 4, 7, rng, phases=phases, columns=buffer),
                     bare_conv(4, 3, 3, rng, columns=buffer)]
            h, first = convs[0].forward(x)
            y, second = convs[1].forward(h)
            g = convs[0].backward(convs[1].backward(np.cos(y), second), first)
            return [y, g] + [a.copy() for conv in convs for a in (conv.grad_w, conv.grad_b)]

        rng = np.random.default_rng(150 + phases)
        shared = ColumnBuffer()
        run(rng.normal(size=(3, 50)), shared)
        grown = shared.capacity
        x = rng.normal(size=(3, 9))
        for a, b in zip(run(x, shared), run(x, ColumnBuffer())):
            assert np.array_equal(a, b)
        assert shared.capacity == grown

    def test_column_buffer_is_mapped_memory_that_grows(self):
        buf = ColumnBuffer()
        assert buf.capacity == 0
        buf.reserve(100)
        first = buf._map
        assert isinstance(first, mmap.mmap) and len(first) == 800
        buf.reserve(50)
        assert buf._map is first and buf.capacity == 100
        buf.reserve(101)
        assert buf._map is not first and buf.capacity == 101
        view = buf.view((2, 3), (5, 1), 1)
        view[...] = 7.0
        assert np.frombuffer(buf._map)[[1, 3, 6, 8]].tolist() == [7.0] * 4

    @pytest.mark.parametrize("k", KERNEL_WIDTHS)
    def test_fold_sums_the_taps_into_half_rate_slots(self, k):
        p = k // 2
        lo = (-p) // 2
        q = (k - p) // 2 - lo + 1
        conv = bare_conv(1, 1, k, phases=2)
        assert conv._fold_by_phase.shape == (2, k, q)
        expected = np.zeros((2, k, q))
        for r in (0, 1):
            for j in range(k):
                expected[r, j, (r + j - p) // 2 - lo] = 1.0
        assert np.array_equal(conv._fold_by_phase, expected)
        assert np.array_equal(bare_conv(1, 1, k)._fold_by_phase, np.eye(k)[None])
        if k == 21:
            assert q == 11

    @staticmethod
    def _grad_case(seed):
        """Input x (2, 5), output weights r (3, 10) and a two-phase conv."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 5))
        r = rng.normal(size=(3, 10))
        return x, r, bare_conv(2, 3, 5, rng, phases=2)

    def test_grad_wrt_weights(self):
        x, r, conv = self._grad_case(111)

        def f(w):
            conv.w[:] = w
            y, cache = conv.forward(x)
            conv.backward(r, cache)
            return float((y * r).sum()), conv.grad_w.copy()

        assert finite_diff_check(f, conv.w.copy()) < 1e-8

    def test_grad_wrt_bias(self):
        x, r, conv = self._grad_case(112)

        def f(b):
            conv.b[:] = b
            y, cache = conv.forward(x)
            conv.backward(r, cache)
            return float((y * r).sum()), conv.grad_b.copy()

        assert finite_diff_check(f, conv.b.copy()) < 1e-8

    def test_grad_wrt_input(self):
        x, r, conv = self._grad_case(113)

        def f(x):
            y, cache = conv.forward(x)
            return float((y * r).sum()), conv.backward(r, cache)

        assert finite_diff_check(f, x) < 1e-8

    def test_rejects_a_gradient_of_the_input_length(self):
        conv = bare_conv(2, 3, 3, np.random.default_rng(0), phases=2)
        _, cache = conv.forward(np.zeros((2, 4)))
        with pytest.raises(DataError, match=r"grad_y shape \(3, 4\) != output shape \(3, 8\)"):
            conv.backward(np.zeros((3, 4)), cache)


def stage_cases():
    """(name, y) conv outputs: random draws of odd and even length, exact
    ties, pairs that are both <= 0, all-zero frames, and non-finite values."""
    rng = np.random.default_rng(120)
    ties = rng.normal(size=(3, 12))
    ties[:, 1::2] = ties[:, 0::2]  # every pair ties, half of them below 0
    nonpositive = -np.abs(rng.normal(size=(3, 10)))
    nonpositive[:, ::3] = 0.0
    zero_frames = rng.normal(size=(4, 9))
    zero_frames[:, [0, 1, 4, 8]] = 0.0
    mixed = rng.normal(size=(3, 16))
    mixed[0, 1:4] = mixed[1, 1:4] = mixed[2, 1:4] = 0.7  # channel ties
    mixed[:, 6] = -0.0
    special = rng.normal(size=(3, 14))
    special[0, [0, 3, 5]] = np.nan
    special[1, [2, 7]] = np.inf
    special[2, [8, 11]] = -np.inf
    return [
        ("random-even", rng.normal(size=(5, 20))),
        ("random-odd", rng.normal(size=(5, 21))),
        ("two-frames", rng.normal(size=(2, 2))),
        ("three-frames", rng.normal(size=(2, 3))),
        ("ties", ties),
        ("both-nonpositive", nonpositive),
        ("zero-frames", zero_frames),
        ("all-zero", np.zeros((3, 8))),
        ("channel-ties", mixed),
        ("non-finite", special),
    ]


STAGE_CASES = stage_cases()


class TestStages:
    """The fused stage functions against the layer chains they replace, bit
    for bit, forward and backward."""

    @pytest.mark.parametrize("name,y", STAGE_CASES, ids=[c[0] for c in STAGE_CASES])
    def test_pool_relu_norm_is_the_encoder_chain(self, name, y):
        relu, pool, norm = Relu(), MaxPool1d(), ChannelNorm()
        grad_out = np.random.default_rng(121).normal(size=(y.shape[0], y.shape[1] // 2))
        with np.errstate(invalid="ignore"):  # the non-finite case divides inf by inf
            expected = norm.forward(pool.forward(relu.forward(y)))
            expected_grad = relu.backward(pool.backward(norm.backward(grad_out)))
            got, cache = pool_relu_norm(y)
            grad = pool_relu_norm_backward(grad_out, cache)
        assert np.array_equal(got, expected, equal_nan=True)
        assert grad.shape == y.shape
        assert np.array_equal(grad, expected_grad, equal_nan=True)

    @pytest.mark.parametrize("name,y", STAGE_CASES, ids=[c[0] for c in STAGE_CASES])
    def test_relu_norm_is_the_decoder_chain(self, name, y):
        relu, norm = Relu(), ChannelNorm()
        grad_out = np.random.default_rng(122).normal(size=y.shape)
        with np.errstate(invalid="ignore"):
            expected = norm.forward(relu.forward(y))
            expected_grad = relu.backward(norm.backward(grad_out))
            got, cache = relu_norm(y)
            grad = relu_norm_backward(grad_out, cache)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(grad, expected_grad, equal_nan=True)

    def test_signs_of_zero_match(self):
        # the unfused relu writes +0.0 for every frame it zeroes, -0.0 included
        y = np.array([[-0.0, -0.0, -1.0, 0.0, 2.0, -0.0]])
        for fused, chain in ((pool_relu_norm(y)[0],
                              ChannelNorm().forward(MaxPool1d().forward(Relu().forward(y)))),
                             (relu_norm(y)[0], ChannelNorm().forward(Relu().forward(y)))):
            assert np.array_equal(np.signbit(fused), np.signbit(chain))
            assert not np.signbit(fused).any()

    def test_tie_goes_to_earlier_frame_and_nonpositive_pairs_get_nothing(self):
        y = np.array([[2.0, 2.0, -1.0, -3.0, 0.0, 5.0]])
        out, cache = pool_relu_norm(y)
        np.testing.assert_allclose(out, [[2.0, 0.0, 5.0]] / (np.array([2.0, 0.0, 5.0]) + 1e-5))
        grad = pool_relu_norm_backward(np.ones((1, 3)), cache)
        assert grad[0, 1] == grad[0, 2] == grad[0, 3] == grad[0, 4] == 0.0
        assert grad[0, 0] != 0.0 and grad[0, 5] != 0.0

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(123)
        y0 = rng.normal(size=(3, 11))
        y0 = np.where(np.abs(y0) < 0.05, 0.5, y0)  # away from the relu kink
        r_pool = rng.normal(size=(3, 5))
        r_dec = rng.normal(size=(3, 11))

        def pooled(y):
            out, cache = pool_relu_norm(y)
            return float((out * r_pool).sum()), pool_relu_norm_backward(r_pool, cache)

        def decoded(y):
            out, cache = relu_norm(y)
            return float((out * r_dec).sum()), relu_norm_backward(r_dec, cache)

        assert finite_diff_check(pooled, y0) < 1e-6
        assert finite_diff_check(decoded, y0) < 1e-6


def edge_cases():
    """(name, y) hand-built conv outputs at the stages' edges:
    signed zeros, NaN and infinities, exact ties within a pool pair and at
    the channel max, odd lengths and T=2."""
    nan, inf = np.nan, np.inf
    return [
        ("signed-zeros", np.array([[-0.0, 0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0],
                                   [-0.0, -1.0, 0.0, 2.0, -3.0, -0.0, 1.5, -0.0]])),
        ("nan", np.array([[nan, 1.0, 2.0, nan, nan, nan, -1.0, nan],
                          [0.5, nan, nan, 3.0, 1.0, -2.0, nan, -0.0],
                          [nan, nan, 0.7, 0.7, nan, 2.0, 0.0, nan]])),
        ("infinities", np.array([[inf, 1.0, -inf, inf, inf, inf, -inf, -inf],
                                 [2.0, inf, 1.0, -inf, inf, 3.0, -inf, 0.0],
                                 [-1.0, -inf, inf, nan, -0.0, inf, 1.0, -inf]])),
        ("pair-ties", np.array([[1.5, 1.5, 0.0, 0.0, -2.0, -2.0, -0.0, 0.0, 3.0],
                                [0.0, -0.0, 4.0, 4.0, -0.0, -0.0, 1.0, 1.0, -1.0]])),
        ("channel-max-ties", np.array([[2.0, 1.0, 2.0, 0.5, 0.0, 3.0, inf],
                                       [2.0, 2.0, 1.0, 2.0, 0.0, 3.0, inf],
                                       [1.0, 2.0, 2.0, 2.0, -0.0, 3.0, 1.0]])),
        ("odd-five", np.array([[0.3, -0.2, 1.1, 1.1, -0.0],
                               [-0.5, 0.9, 0.0, 2.0, 7.0]])),
        ("two-frames", np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, 1.0], [-1.0, 2.0]])),
        # a zero tie in every pair, over lengths that fill vector lanes and
        # leave a remainder: the pooled zero is +0.0 wherever it falls
        ("zero-pairs", np.tile([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]], 17)),
        ("zero-pairs-odd", np.tile([[0.0, -0.0, -0.0], [-0.0, 0.0, 0.0]], 5)),
        ("two-frames-left-wins", np.array([[3.0, -inf], [nan, -1.0]])),
    ]


EDGE_CASES = edge_cases()


def bits(a):
    """The float64 bit patterns of an array, so -0.0 != 0.0 and NaN payloads count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def signed_grad(shape, seed):
    """An output gradient of mixed signs with exact zeros of both signs."""
    g = np.random.default_rng(seed).normal(size=shape)
    g.flat[::3] = -0.0
    g.flat[1::5] = 0.0
    return g


class TestStageEdgeCases:
    """The stage functions against the unfused layers of
    tests/reference_nn.py at the edges, bit for bit: values, signs of zero
    and NaN, forward and backward."""

    @pytest.mark.parametrize("name,y", EDGE_CASES + STAGE_CASES,
                             ids=[c[0] for c in EDGE_CASES + STAGE_CASES])
    def test_encoder_stage(self, name, y):
        relu, pool, norm = Relu(), MaxPool1d(), ChannelNorm()
        grad_out = signed_grad((y.shape[0], y.shape[1] // 2), 131)
        with np.errstate(invalid="ignore"):
            expected = norm.forward(pool.forward(relu.forward(y)))
            expected_grad = relu.backward(pool.backward(norm.backward(grad_out)))
            got, cache = pool_relu_norm(y)
            grad = pool_relu_norm_backward(grad_out, cache)
        assert np.array_equal(bits(got), bits(expected))
        assert np.array_equal(bits(grad), bits(expected_grad))

    @pytest.mark.parametrize("name,y", EDGE_CASES + STAGE_CASES,
                             ids=[c[0] for c in EDGE_CASES + STAGE_CASES])
    def test_decoder_stage(self, name, y):
        relu, norm = Relu(), ChannelNorm()
        grad_out = signed_grad(y.shape, 132)
        with np.errstate(invalid="ignore"):
            expected = norm.forward(relu.forward(y))
            expected_grad = relu.backward(norm.backward(grad_out))
            got, cache = relu_norm(y)
            grad = relu_norm_backward(grad_out, cache)
        assert np.array_equal(bits(got), bits(expected))
        assert np.array_equal(bits(grad), bits(expected_grad))

    @pytest.mark.parametrize("name,y", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_a_cache_serves_any_number_of_backward_passes(self, name, y):
        for stage, backward, frames in ((pool_relu_norm, pool_relu_norm_backward, 2),
                                        (relu_norm, relu_norm_backward, 1)):
            grad_out = signed_grad((y.shape[0], y.shape[1] // frames), 133)
            with np.errstate(invalid="ignore"):
                _, cache = stage(y)
                grad = backward(grad_out, cache)
                assert np.array_equal(bits(backward(grad_out, cache)), bits(grad))

    def test_channel_max_tie_sends_the_peak_gradient_to_the_first_channel(self):
        # frame 0: channels 0 and 1 tie at the max, so only channel 0 takes
        # the denominator's gradient; channel 1's gradient is g / scale alone
        y = np.array([[2.0], [2.0], [1.0]])
        grad_out = np.array([[1.0], [1.0], [1.0]])
        _, cache = relu_norm(y)
        grad = relu_norm_backward(grad_out, cache)
        scale = 2.0 + 1e-5
        dot = 2.0 + 2.0 + 1.0
        assert grad[1, 0] == grad[2, 0] == 1.0 / scale
        assert grad[0, 0] == 1.0 / scale - dot / (scale * scale)


class TestRelu:
    def test_forward(self):
        y = Relu().forward(np.array([[-1.0, 0.0, 2.5]]))
        np.testing.assert_allclose(y, [[0.0, 0.0, 2.5]])

    def test_backward_masks(self):
        relu = Relu()
        relu.forward(np.array([[-1.0, 0.0, 2.5]]))
        gx = relu.backward(np.array([[10.0, 10.0, 10.0]]))
        # subgradient at exactly zero is zero
        np.testing.assert_allclose(gx, [[0.0, 0.0, 10.0]])

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(104)
        r = rng.normal(size=(2, 6))
        relu = Relu()
        # keep every coordinate away from the kink at 0
        x0 = rng.normal(size=(2, 6))
        x0 = np.where(np.abs(x0) < 0.05, 0.5, x0)

        def f(x):
            y = relu.forward(x)
            return float((y * r).sum()), relu.backward(r)

        assert finite_diff_check(f, x0) < 1e-8


class TestMaxPool1d:
    def test_forward_even(self):
        y = MaxPool1d().forward(np.array([[1.0, 3.0, 2.0, 5.0]]))
        np.testing.assert_allclose(y, [[3.0, 5.0]])

    def test_forward_drops_odd_tail(self):
        y = MaxPool1d().forward(np.array([[1.0, 3.0, 9.0]]))
        np.testing.assert_allclose(y, [[3.0]])

    def test_too_short(self):
        with pytest.raises(DataError, match="max pooling needs at least 2 frames, got 1"):
            MaxPool1d().forward(np.array([[1.0]]))

    def test_backward_routes_to_winner(self):
        pool = MaxPool1d()
        pool.forward(np.array([[1.0, 3.0, 2.0, 5.0, 9.0]]))
        gx = pool.backward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(gx, [[0.0, 1.0, 0.0, 2.0, 0.0]])

    def test_tie_goes_to_earlier_frame(self):
        pool = MaxPool1d()
        pool.forward(np.array([[2.0, 2.0]]))
        gx = pool.backward(np.array([[1.0]]))
        np.testing.assert_allclose(gx, [[1.0, 0.0]])

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(105)
        r = rng.normal(size=(2, 4))
        pool = MaxPool1d()
        # continuous draws: pairs tie with probability zero
        x0 = rng.normal(size=(2, 8))

        def f(x):
            y = pool.forward(x)
            return float((y * r).sum()), pool.backward(r)

        assert finite_diff_check(f, x0) < 1e-8


class TestChannelNorm:
    def test_forward_divides_by_peak(self):
        x = np.array([[3.0], [-4.0]])
        y = ChannelNorm().forward(x)
        np.testing.assert_allclose(y, x / (4.0 + 1e-5))

    def test_zero_frame_stays_zero(self):
        y = ChannelNorm().forward(np.zeros((3, 2)))
        np.testing.assert_allclose(y, np.zeros((3, 2)))

    @given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_output_bounded_below_one(self, c, t, seed):
        x = np.random.default_rng(seed).normal(size=(c, t)) * 10
        y = ChannelNorm().forward(x)
        assert np.abs(y).max() < 1.0

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(106)
        r = rng.normal(size=(3, 5))
        norm = ChannelNorm()
        x0 = rng.normal(size=(3, 5))

        def f(x):
            y = norm.forward(x)
            return float((y * r).sum()), norm.backward(r)

        assert finite_diff_check(f, x0) < 1e-6


class TestUpsampleRepeat:
    def test_forward(self):
        y = UpsampleRepeat().forward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(y, [[1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 4.0, 4.0]])

    def test_backward_sums_copies(self):
        up = UpsampleRepeat()
        up.forward(np.array([[1.0, 2.0]]))
        gx = up.backward(np.array([[1.0, 10.0, 100.0, 1000.0]]))
        np.testing.assert_allclose(gx, [[11.0, 1100.0]])

    def test_grad_wrt_input(self):
        rng = np.random.default_rng(107)
        r = rng.normal(size=(2, 8))
        up = UpsampleRepeat()

        def f(x):
            y = up.forward(x)
            return float((y * r).sum()), up.backward(r)

        assert finite_diff_check(f, rng.normal(size=(2, 4))) < 1e-8


class TestRestoreLength:
    def test_pad_repeats_last_frame(self):
        y = RestoreLength().forward(np.array([[1.0, 2.0], [3.0, 4.0]]), 4)
        np.testing.assert_allclose(y, [[1.0, 2.0, 2.0, 2.0], [3.0, 4.0, 4.0, 4.0]])

    def test_crop(self):
        y = RestoreLength().forward(np.array([[1.0, 2.0, 3.0]]), 2)
        np.testing.assert_allclose(y, [[1.0, 2.0]])

    def test_backward_pad_accumulates(self):
        restore = RestoreLength()
        restore.forward(np.array([[1.0, 2.0]]), 5)
        gx = restore.backward(np.array([[1.0, 2.0, 4.0, 8.0, 16.0]]))
        np.testing.assert_allclose(gx, [[1.0, 30.0]])

    def test_backward_crop_zero_fills(self):
        restore = RestoreLength()
        restore.forward(np.array([[1.0, 2.0, 3.0]]), 2)
        gx = restore.backward(np.array([[5.0, 6.0]]))
        np.testing.assert_allclose(gx, [[5.0, 6.0, 0.0]])

    @pytest.mark.parametrize("t,target", [(3, 7), (7, 3), (4, 4)])
    def test_grad_wrt_input(self, t, target):
        rng = np.random.default_rng(108 + t)
        r = rng.normal(size=(2, target))
        restore = RestoreLength()

        def f(x):
            y = restore.forward(x, target)
            return float((y * r).sum()), restore.backward(r)

        assert finite_diff_check(f, rng.normal(size=(2, t))) < 1e-8


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class_oracle(self):
        # equal logits over 2 classes: loss is ln 2, softmax is (.5, .5)
        loss, grad = softmax_cross_entropy(np.zeros((2, 1)), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.5], [0.5]])

    def test_large_logits_do_not_overflow(self):
        logits = np.array([[1000.0], [0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss, _ = softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(1000.0, rel=1e-12)

    def test_gap_mean_matches_submatrix(self):
        rng = np.random.default_rng(109)
        logits = rng.normal(size=(4, 10))
        targets = rng.integers(0, 4, size=10)
        labelled = np.array([True, False] * 5)
        gapped_loss, _ = softmax_cross_entropy(logits, np.where(labelled, targets, GAP))
        sub_loss, _ = softmax_cross_entropy(logits[:, labelled], targets[labelled])
        assert gapped_loss == pytest.approx(sub_loss, rel=1e-12)

    def test_grad_columns(self):
        rng = np.random.default_rng(110)
        logits = rng.normal(size=(3, 6))
        targets = rng.integers(0, 3, size=6)
        gap = np.array([False, False, True, False, True, False])
        targets[gap] = GAP
        _, grad = softmax_cross_entropy(logits, targets)
        # softmax minus one-hot sums to zero per frame; GAP frames are zero
        np.testing.assert_allclose(grad.sum(axis=0), np.zeros(6), atol=1e-12)
        assert not grad[:, gap].any()

    def test_grad_wrt_logits(self):
        rng = np.random.default_rng(111)
        targets = np.where(rng.random(7) > 0.3, rng.integers(0, 3, size=7), GAP)

        def f(logits):
            return softmax_cross_entropy(logits, targets)

        assert finite_diff_check(f, rng.normal(size=(3, 7))) < 1e-8

    @pytest.mark.parametrize("t", [1, 7, 300])
    def test_logits_at_gap_frames_change_no_bit(self, t):
        # a GAP frame counts for nothing: whatever the model says there,
        # the loss and the gradient are the same bits
        rng = np.random.default_rng(112)
        targets = rng.integers(0, 4, size=t)
        gap = rng.random(t) < 0.4
        gap[0] = False  # one labelled frame at least
        targets[gap] = GAP
        logits = rng.normal(size=(4, t))
        other = logits.copy()
        other[:, gap] = rng.normal(scale=50.0, size=(4, int(gap.sum())))
        loss, grad = softmax_cross_entropy(logits, targets)
        other_loss, other_grad = softmax_cross_entropy(other, targets)
        assert loss == other_loss
        assert np.array_equal(grad, other_grad)
        assert not grad[:, gap].any()

    def test_target_out_of_range(self):
        with pytest.raises(DataError, match=r"targets must lie in \[-1, 2\), got range \[0, 2\]"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 2, 1]))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.int8,
                                       np.uint64, np.uint32, np.uint16, np.uint8])
    def test_target_range_for_every_integer_type(self, dtype):
        logits = np.zeros((2, 3))
        if np.issubdtype(dtype, np.signedinteger):
            with pytest.raises(DataError,
                               match=r"targets must lie in \[-1, 2\), got range \[-2, 1\]"):
                softmax_cross_entropy(logits, np.array([0, -2, 1], dtype=dtype))
            lowest = np.iinfo(dtype).min
            with pytest.raises(DataError, match=rf"got range \[{lowest}, 1\]"):
                softmax_cross_entropy(logits, np.array([0, lowest, 1], dtype=dtype))
            loss, _ = softmax_cross_entropy(logits, np.array([GAP, 1, 1], dtype=dtype))
            assert loss == pytest.approx(np.log(2.0))
        with pytest.raises(DataError, match=r"targets must lie in \[-1, 2\), got range \[0, 2\]"):
            softmax_cross_entropy(logits, np.array([0, 2, 1], dtype=dtype))
        highest = np.iinfo(dtype).max
        with pytest.raises(DataError, match=rf"got range \[0, {highest}\]"):
            softmax_cross_entropy(logits, np.array([0, highest, 1], dtype=dtype))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1, 1], dtype=dtype))
        assert loss == pytest.approx(np.log(2.0))

    def test_all_gap_targets_are_refused(self):
        for t in (1, 3):
            with pytest.raises(DataError, match="every target is GAP"):
                softmax_cross_entropy(np.zeros((2, t)), np.full(t, GAP))

    def test_float_targets_rejected(self):
        with pytest.raises(DataError, match="targets must be integers"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0, 0.0]))


class TestAdam:
    def test_first_step_oracle(self):
        # bias correction makes the first step lr * g / (|g| + eps) exactly
        p = np.array([1.0])
        opt = Adam([p], learning_rate=1e-3)
        opt.step([p], [np.array([1.0])])
        assert p[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_decay_is_decoupled(self):
        # zero gradient: both moments stay zero, so only decay moves p
        p = np.array([2.0])
        opt = Adam([p], learning_rate=0.01, weight_decay=0.1)
        opt.step([p], [np.array([0.0])])
        assert p[0] == pytest.approx(2.0 * (1.0 - 0.01 * 0.1), abs=1e-15)

    def test_zero_lr_is_identity(self):
        p = np.array([3.0, -1.0])
        opt = Adam([p], learning_rate=0.0, weight_decay=0.5)
        opt.step([p], [np.array([1.0, -2.0])])
        np.testing.assert_allclose(p, [3.0, -1.0])

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(112)
        p = rng.normal(size=(3, 2))
        q = p.copy()
        lr, wd, b1, b2, eps = 1e-2, 1e-3, 0.9, 0.999, 1e-8
        opt = Adam([p], learning_rate=lr, weight_decay=wd)
        m = np.zeros_like(q)
        v = np.zeros_like(q)
        for t in range(1, 6):
            g = rng.normal(size=q.shape)
            opt.step([p], [g])
            q = q - lr * wd * q
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            q = q - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(p, q, atol=1e-12)

    def test_stays_on_the_reference_recurrence_for_300_steps(self):
        # the folded step size and eps are not the textbook's bits; over a
        # long run on gradients of varied scale the two may drift apart by
        # float rounding only
        rng = np.random.default_rng(114)
        p = rng.normal(size=1000)
        q = p.copy()
        lr, wd, b1, b2, eps = 1e-3, 1e-3, 0.9, 0.999, 1e-8
        opt = Adam([p], learning_rate=lr, weight_decay=wd)
        m = np.zeros_like(q)
        v = np.zeros_like(q)
        for t in range(1, 301):
            g = rng.normal(size=q.shape) * rng.uniform(1e-6, 10.0)
            opt.step([p], [g])
            q = q - lr * wd * q
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            q = q - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p, q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("wd", [0.0, 1e-3])
    def test_blockwise_step_matches_per_array_expression(self, wd):
        # the whole-array form of the update, with the moments kept divided
        # by (1-b1) and (1-b2): the block-wise step must give the same bits
        def reference_step(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
            scale = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
            step = lr * (1.0 - b1) / (1.0 - b1 ** t) * scale
            if wd != 0.0:
                p *= 1.0 - lr * wd
            m *= b1
            m += g
            v *= b2
            v += g * g
            p -= m / (np.sqrt(v) + eps * scale) * step

        rng = np.random.default_rng(113)
        sizes = (2 * ADAM_BLOCK + 1237, 5, ADAM_BLOCK)
        params = [rng.normal(size=n) for n in sizes]
        params[1] = params[1].reshape(5, 1)
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr = 1e-3
        opt = Adam(params, learning_rate=lr, weight_decay=wd)
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape) for p in params]
            opt.step(params, grads)
            for q, g, mq, vq in zip(expected, grads, m, v):
                reference_step(q, g, mq, vq, t, lr, wd)
            for p, q in zip(params, expected):
                assert np.array_equal(p, q)

    def test_rejects_non_contiguous_parameters(self):
        p = np.zeros((4, 4))
        opt = Adam([p[:, :2]], learning_rate=1e-3)
        with pytest.raises(DataError, match="parameter arrays must be C-contiguous"):
            opt.step([p[:, :2]], [np.ones((4, 2))])

    def test_updates_in_place(self):
        p = np.array([1.0])
        opt = Adam([p], learning_rate=1e-3)
        alias = p
        opt.step([p], [np.array([1.0])])
        assert alias is p and alias[0] != 1.0

    def test_rejects_mismatched_state(self):
        p = np.array([1.0])
        opt = Adam([p], learning_rate=1e-3)
        with pytest.raises(DataError, match="expected 1 parameter/gradient arrays, got 2/2"):
            opt.step([p, p], [np.array([1.0]), np.array([1.0])])
        with pytest.raises(DataError, match=r"shape \(2,\)/\(2,\) != state shape \(1,\)"):
            opt.step([np.zeros(2)], [np.zeros(2)])

    def test_rejects_negative_settings(self):
        with pytest.raises(ConfigError, match="learning_rate must be >= 0, got -1.0"):
            Adam([np.zeros(1)], learning_rate=-1.0)
        with pytest.raises(ConfigError, match="weight_decay must be >= 0, got -0.1"):
            Adam([np.zeros(1)], learning_rate=1e-3, weight_decay=-0.1)


class TestFiniteDiffCheck:
    def test_accepts_correct_gradient(self):
        def f(x):
            return float((x**2).sum()), 2.0 * x

        err = finite_diff_check(f, np.array([1.0, -2.0, 0.5]))
        assert err < 1e-9

    def test_flags_wrong_gradient(self):
        def f(x):
            return float((x**2).sum()), 3.0 * x  # wrong by 50 percent

        err = finite_diff_check(f, np.array([1.0, -2.0, 0.5]))
        assert err > 0.4

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError, match="h must be positive, got 0.0"):
            finite_diff_check(lambda x: (0.0, x), np.zeros(1), h=0.0)
