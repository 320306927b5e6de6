"""Model assembly, kernel derivation, parameter store and training loop tests."""

import math
import sys
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest

import surgact.tcn as tcn_mod

from surgact.crossval import FoldPlan
from surgact.dataset import GAP, LabelTranscript, Segment
from surgact.errors import ConfigError, DataError, NonFiniteLoss
from surgact.nn import (
    Adam,
    Conv1d,
    pool_relu_norm,
    pool_relu_norm_backward,
    relu_norm,
    relu_norm_backward,
    softmax_cross_entropy,
)
from surgact.tcn import (
    DEFAULT_EPOCHS,
    HYPERPARAM_DEFAULTS,
    MIN_FRAMES,
    ModelConfig,
    TcnModel,
    TrialTensors,
    compute_kernel_size,
    predict_labels,
    train_fold,
)

from reference_nn import (
    ChannelNorm,
    MaxPool1d,
    Relu,
    RestoreLength,
    UpsampleRepeat,
    bare_conv,
    composed_train_step,
    finite_diff_check,
    gradient_pass,
)


def transcript(durations_by_label):
    """One transcript holding, per label, segments of the given durations."""
    segments = []
    pos = 0
    for label, durations in durations_by_label.items():
        for n in durations:
            segments.append(Segment(pos, pos + n - 1, label))
            pos += n
    return LabelTranscript(tuple(segments), pos)


class TestComputeKernelSize:
    def test_shortest_class_mean_rounded_odd(self):
        # class means 10 and 30; 10 rounds down to the odd 9
        tr = transcript({"A": [10], "B": [30]})
        assert compute_kernel_size([tr]) == 9

    def test_odd_mean_kept(self):
        tr = transcript({"A": [3, 3, 3], "B": [20]})
        assert compute_kernel_size([tr]) == 3
        tr = transcript({"A": [4, 6], "B": [20]})  # mean 5
        assert compute_kernel_size([tr]) == 5

    def test_floor_of_half_up_rounding(self):
        tr = transcript({"A": [4, 5], "B": [20]})  # mean 4.5 -> 5
        assert compute_kernel_size([tr]) == 5
        tr = transcript({"A": [4, 4], "B": [20]})  # mean 4 -> even -> 3
        assert compute_kernel_size([tr]) == 3

    def test_clamped_at_three(self):
        tr = transcript({"A": [2], "B": [20]})
        assert compute_kernel_size([tr]) == 3
        tr = transcript({"A": [1], "B": [20]})
        assert compute_kernel_size([tr]) == 3

    def test_pools_durations_across_transcripts(self):
        t1 = transcript({"A": [10]})
        t2 = transcript({"A": [20], "B": [40]})
        # A pools to mean 15 -> k 15; B stays 40
        assert compute_kernel_size([t1, t2]) == 15

    def test_no_segments(self):
        with pytest.raises(DataError, match="no labeled segments in any training transcript"):
            compute_kernel_size([])


class TestModelConfig:
    def test_defaults_follow_subject_holdout_table(self):
        cfg = ModelConfig(num_classes=4, kernel_size=9)
        assert cfg.learning_rate == HYPERPARAM_DEFAULTS["louo"]["learning_rate"]
        assert cfg.weight_decay == HYPERPARAM_DEFAULTS["louo"]["weight_decay"]
        assert cfg.epochs == DEFAULT_EPOCHS
        assert cfg.filters == (32, 64, 96)

    def test_epoch_and_seed_defaults(self):
        # 60 epochs and seed 0 are what an experiment runs without a setting
        assert DEFAULT_EPOCHS == 60
        cfg = ModelConfig(num_classes=4, kernel_size=9)
        assert (cfg.epochs, cfg.seed) == (60, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_classes": 1, "kernel_size": 3}, "need at least 2 classes, got 1"),
        ({"num_classes": 4, "kernel_size": 4},
         "kernel_size must be an odd positive integer, got 4"),
        ({"num_classes": 4, "kernel_size": 0},
         "kernel_size must be an odd positive integer, got 0"),
        ({"num_classes": 4, "kernel_size": 3, "filters": (4, 6)},
         r"filters must be 3 positive counts, got \(4, 6\)"),
        ({"num_classes": 4, "kernel_size": 3, "filters": (4, 0, 6)},
         r"filters must be 3 positive counts, got \(4, 0, 6\)"),
        ({"num_classes": 4, "kernel_size": 3, "learning_rate": 0.0},
         "learning_rate must be a finite number > 0, got 0.0"),
        ({"num_classes": 4, "kernel_size": 3, "learning_rate": float("nan")},
         "learning_rate must be a finite number > 0, got nan"),
        ({"num_classes": 4, "kernel_size": 3, "learning_rate": float("inf")},
         "learning_rate must be a finite number > 0, got inf"),
        ({"num_classes": 4, "kernel_size": 3, "learning_rate": float("-inf")},
         "learning_rate must be a finite number > 0, got -inf"),
        ({"num_classes": 4, "kernel_size": 3, "weight_decay": -1e-3},
         "weight_decay must be a finite number >= 0, got -0.001"),
        ({"num_classes": 4, "kernel_size": 3, "weight_decay": float("nan")},
         "weight_decay must be a finite number >= 0, got nan"),
        ({"num_classes": 4, "kernel_size": 3, "weight_decay": float("inf")},
         "weight_decay must be a finite number >= 0, got inf"),
        ({"num_classes": 4, "kernel_size": 3, "weight_decay": float("-inf")},
         "weight_decay must be a finite number >= 0, got -inf"),
        ({"num_classes": 4, "kernel_size": 3, "epochs": -1},
         "epochs must be an integer >= 0, got -1"),
        ({"num_classes": 4, "kernel_size": True},
         "kernel_size must be an odd positive integer, got True"),
        ({"num_classes": 4, "kernel_size": None},
         "kernel_size must be an odd positive integer, got None"),
        ({"num_classes": 4, "kernel_size": 3, "seed": -1},
         "seed must be an integer >= 0, got -1"),
        ({"num_classes": 4, "kernel_size": 3, "seed": 1.5},
         "seed must be an integer >= 0, got 1.5"),
        ({"num_classes": 4, "kernel_size": 3, "seed": True},
         "seed must be an integer >= 0, got True"),
    ], ids=[f"kwargs{i}" for i in range(19)])
    def test_rejects_bad_settings(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ModelConfig(**kwargs)

    def test_filters_become_a_tuple(self):
        assert ModelConfig(num_classes=4, kernel_size=3, filters=[4, 6, 8]).filters == (4, 6, 8)

    def test_filters_become_python_ints(self):
        filters = ModelConfig(num_classes=4, kernel_size=3,
                              filters=(np.int64(4), 6, np.int32(8))).filters
        assert filters == (4, 6, 8) and all(type(n) is int for n in filters)

    @pytest.mark.parametrize("name, bound", [("learning_rate", "> 0"),
                                             ("weight_decay", ">= 0")])
    def test_a_rate_is_bounded_by_the_largest_float(self, name, bound):
        # the largest float passes; the next integer past it, finite as an
        # int, is no float and is refused
        top = sys.float_info.max
        assert getattr(ModelConfig(num_classes=4, kernel_size=3, **{name: top}), name) == top
        past = int(top) + 1
        with pytest.raises(ConfigError) as caught:
            ModelConfig(num_classes=4, kernel_size=3, **{name: past})
        assert str(caught.value) == f"{name} must be a finite number {bound}, got {past}"

    def test_one_filter_per_stage_and_a_width_1_kernel_are_allowed(self):
        cfg = ModelConfig(num_classes=2, kernel_size=1, filters=(1, 1, 1))
        assert (cfg.kernel_size, cfg.filters) == (1, (1, 1, 1))


SMALL = ModelConfig(num_classes=4, kernel_size=3, filters=(4, 6, 8),
                    learning_rate=1e-2, weight_decay=0.0, epochs=40, seed=1)


class TestBuildModel:
    def test_same_seed_same_parameters(self):
        a = TcnModel(SMALL, 7)
        b = TcnModel(SMALL, 7)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_different_seed_differs(self):
        a = TcnModel(SMALL, 7)
        b = TcnModel(ModelConfig(num_classes=4, kernel_size=3,
                                    filters=(4, 6, 8), learning_rate=1e-2,
                                    weight_decay=0.0, epochs=40, seed=2), 7)
        assert not np.array_equal(a.theta, b.theta)

    def test_parameter_count(self):
        # six k-wide convs along 7->4->6->8->6->4->4 plus the 1x1 head to 4:
        # weights c_out*c_in*k and one bias per output channel
        model = TcnModel(SMALL, 7)
        expected = 0
        for c_in, c_out in ((7, 4), (4, 6), (6, 8), (8, 6), (6, 4), (4, 4)):
            expected += c_out * c_in * 3 + c_out
        expected += 4 * 4 * 1 + 4
        assert model.theta.size == expected

    def test_output_shape_tracks_input_length(self):
        model = TcnModel(SMALL, 3)
        for t in (8, 9, 13, 16, 24, 40):
            x = np.random.default_rng(t).normal(size=(3, t))
            assert model.forward(x)[0].shape == (4, t)

    def test_too_short(self):
        model = TcnModel(SMALL, 3)
        with pytest.raises(DataError, match="need at least 8 frames, got 7"):
            model.forward(np.zeros((3, MIN_FRAMES - 1)))

    def test_a_one_channel_model_with_width_1_layers(self):
        model = TcnModel(ModelConfig(num_classes=2, kernel_size=1, filters=(1, 1, 1)), 1)
        assert [conv.kernel_size for conv in model.convs] == [1] * 7
        x = np.random.default_rng(3).normal(size=(1, 20))
        logits, tape = model.forward(x)
        assert logits.shape == (2, 20)
        assert model.backward(np.ones((2, 20)), tape) is None
        assert np.isfinite(model.grad).all() and model.grad.any()

    def test_no_input_channel(self):
        with pytest.raises(ConfigError, match="input_channels must be >= 1, got 0"):
            TcnModel(SMALL, 0)

    def test_channel_mismatch(self):
        model = TcnModel(SMALL, 3)
        with pytest.raises(DataError, match="expected 3 channels, got 5"):
            model.forward(np.zeros((5, 16)))

    def test_init_bound_and_determinism(self):
        model = TcnModel(SMALL, 7)
        for conv in model.convs:
            bound = np.sqrt(1.0 / (conv.in_channels * conv.kernel_size))
            assert np.abs(conv.w).max() <= bound
            assert np.abs(conv.b).max() <= bound
        assert model.theta.tobytes() == TcnModel(SMALL, 7).theta.tobytes()

    def test_composite_gradient_check(self):
        cfg = ModelConfig(num_classes=3, kernel_size=3, filters=(2, 3, 4),
                          learning_rate=1e-3, epochs=1, seed=5)
        model = TcnModel(cfg, 2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 12))
        targets = rng.integers(0, 3, size=12)

        def f(flat):
            model.theta[:] = flat
            loss, _ = gradient_pass(model, x, targets)
            return loss, model.grad.copy()

        assert finite_diff_check(f, model.theta.copy()) < 1e-6


def conv_chain(config, input_channels):
    """(in, out, width) of every conv, in the order the model builds them."""
    f1, f2, f3 = config.filters
    k = config.kernel_size
    return ((input_channels, f1, k), (f1, f2, k), (f2, f3, k),
            (f3, f2, k), (f2, f1, k), (f1, f1, k), (f1, config.num_classes, 1))


def per_array_parameters(config, input_channels):
    """Each conv's w and then b, drawn one array at a time from the model
    seed, uniform +-sqrt(1/(in * width)), in the order the model builds its
    convs: the draws and the layout the flat store must keep."""
    rng = np.random.default_rng(config.seed)
    out = []
    for c_in, c_out, width in conv_chain(config, input_channels):
        bound = float(np.sqrt(1.0 / (c_in * width)))
        out += [rng.uniform(-bound, bound, size=(c_out, c_in, width)),
                rng.uniform(-bound, bound, size=c_out)]
    return out


def unfused_logits(theta, config, input_channels, x):
    """The ED-TCN as first written, decoder stages upsample -> one-phase conv,
    with its convs read from `theta` in the order the model keeps them."""
    convs = []
    offset = 0
    for c_in, c_out, width in conv_chain(config, input_channels):
        conv = bare_conv(c_in, c_out, width)
        for name in ("w", "b"):
            arr = getattr(conv, name)
            arr[...] = theta[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size
        convs.append(conv)
    assert offset == theta.size
    h = x
    for conv in convs[:3]:
        h = ChannelNorm().forward(MaxPool1d().forward(Relu().forward(conv.forward(h)[0])))
    for conv in convs[3:6]:
        h = ChannelNorm().forward(Relu().forward(conv.forward(UpsampleRepeat().forward(h))[0]))
    return RestoreLength().forward(convs[6].forward(h)[0], x.shape[1])


class TestParameterStore:
    def test_conv_arrays_are_views_into_the_two_vectors(self):
        model = TcnModel(SMALL, 7)
        assert model.theta.shape == model.grad.shape == (model.theta.size,)
        for conv in model.convs:
            for arr in (conv.w, conv.b):
                assert np.shares_memory(arr, model.theta)
                assert not np.shares_memory(arr, model.grad)
            for arr in (conv.grad_w, conv.grad_b):
                assert np.shares_memory(arr, model.grad)
                assert not np.shares_memory(arr, model.theta)

    def test_theta_keeps_the_per_array_order_and_draws(self):
        model = TcnModel(SMALL, 7)
        expected = np.concatenate([a.ravel() for a in per_array_parameters(SMALL, 7)])
        assert np.array_equal(model.theta, expected)
        # the same layout, read back through the views
        views = np.concatenate([a.ravel() for conv in model.convs for a in (conv.w, conv.b)])
        assert np.array_equal(views, model.theta)

    @pytest.mark.parametrize("t", [8, 21, 64])
    def test_fused_model_reads_the_unfused_layout(self, t):
        # one theta means the same network whether the decoder upsamples
        # before its convs or inside them
        cfg = ModelConfig(num_classes=4, kernel_size=5, filters=(4, 6, 8), seed=9)
        model = TcnModel(cfg, 3)
        x = np.random.default_rng(t).normal(size=(3, t))
        np.testing.assert_allclose(model.forward(x)[0], unfused_logits(model.theta, cfg, 3, x),
                                   rtol=0, atol=1e-12)

    def test_backward_fills_the_gradient_vector(self):
        model = TcnModel(SMALL, 3)
        x = np.random.default_rng(3).normal(size=(3, 16))
        gradient_pass(model, x, np.zeros(16, dtype=np.int64))
        fills = np.concatenate(
            [g.ravel() for conv in model.convs for g in (conv.grad_w, conv.grad_b)])
        assert np.array_equal(fills, model.grad) and model.grad.any()

    def test_a_training_step_moves_the_views(self):
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8),
                          learning_rate=1e-2, epochs=1, seed=1)
        data = {("T", "U", "001"): toy_tensors(0)}
        model = TcnModel(cfg, 3)
        before = model.theta.copy()
        record = train_fold(model, toy_fold(data), data)
        assert record["steps"] == 1
        assert not np.array_equal(model.theta, before)
        offset = 0
        for conv in model.convs:
            for arr in (conv.w, conv.b):
                assert np.shares_memory(arr, model.theta)
                np.testing.assert_array_equal(
                    arr.ravel(), model.theta[offset:offset + arr.size])
                offset += arr.size
        assert offset == model.theta.size


# what a model and a conv hold: parameters, gradients, fold data, the
# column buffer and the layer structure, never a pass's activations
MODEL_ATTRIBUTES = {"config", "input_channels", "convs", "layers", "theta", "grad", "columns"}
CONV_ATTRIBUTES = {"in_channels", "out_channels", "kernel_size", "phases", "columns",
                   "_lo", "_slots", "_fold_by_phase", "w", "b", "grad_w", "grad_b"}


def holds_activations(model):
    """Whether the model or one of its convs holds anything else."""
    return (set(vars(model)) != MODEL_ATTRIBUTES
            or any(set(vars(conv)) != CONV_ATTRIBUTES for conv in model.convs))


def reference_pass(model, x, grad_logits):
    """The model's own convs with the unfused layer classes between them, the
    ED-TCN as first written. Returns (logits, parameter gradient)."""
    convs = model.convs
    encoder = [(Relu(), MaxPool1d(), ChannelNorm()) for _ in range(3)]
    decoder = [(Relu(), ChannelNorm()) for _ in range(3)]
    restore = RestoreLength()
    caches = []

    def conv_forward(conv, h):
        y, cache = conv.forward(h)
        caches.append(cache)
        return y

    h = x
    for conv, (relu, pool, norm) in zip(convs[:3], encoder):
        h = norm.forward(pool.forward(relu.forward(conv_forward(conv, h))))
    for conv, (relu, norm) in zip(convs[3:6], decoder):
        h = norm.forward(relu.forward(conv_forward(conv, h)))
    logits = restore.forward(conv_forward(convs[6], h), x.shape[1])
    g = convs[6].backward(restore.backward(grad_logits), caches.pop())
    for conv, (relu, norm) in zip(reversed(convs[3:6]), reversed(decoder)):
        g = conv.backward(relu.backward(norm.backward(g)), caches.pop())
    for conv, (relu, pool, norm) in zip(reversed(convs[:3]), reversed(encoder)):
        g = conv.backward(relu.backward(pool.backward(norm.backward(g))), caches.pop())
    return logits, model.grad.copy()


class TestTrainingPass:
    def test_train_step_leaves_the_gradient_of_backward(self):
        model = TcnModel(SMALL, 3)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 37))
        targets = rng.integers(0, 4, size=37)
        loss, logits = model.train_step(x, targets, Adam(model.theta.size, 1e-2))
        grad = model.grad.copy()
        fresh = TcnModel(SMALL, 3)
        expected_logits, tape = fresh.forward(x)
        expected_loss, grad_logits = softmax_cross_entropy(expected_logits, targets)
        fresh.backward(grad_logits, tape)
        assert loss == expected_loss
        assert np.array_equal(logits, expected_logits)
        assert np.array_equal(grad, fresh.grad) and grad.any()

    def test_the_first_conv_skips_its_input_gradient(self, monkeypatch):
        # the model's input gradient is never read, so conv0 is asked for
        # none; computing it would change no result
        model = TcnModel(SMALL, 3)
        conv = model.convs[0]
        real_backward = conv.backward
        flags = []

        def spy(grad_y, cache, **kwargs):
            flags.append(kwargs.get("input_grad", True))
            return real_backward(grad_y, cache, **kwargs)

        monkeypatch.setattr(conv, "backward", spy)
        rng = np.random.default_rng(10)
        model.train_step(rng.normal(size=(3, 29)), rng.integers(0, 4, size=29),
                         Adam(model.theta.size, 1e-2))
        assert flags == [False]

    def test_a_shared_buffer_gives_the_bits_of_a_fresh_model(self):
        # a long trial grows the model's column buffer; a short trial then
        # runs in it as it runs in a model that never saw the long one
        used = TcnModel(SMALL, 3)
        rng = np.random.default_rng(9)
        long_x = rng.normal(size=(3, 203))
        gradient_pass(used, long_x, rng.integers(0, 4, size=203))
        grown = used.columns.capacity
        x = rng.normal(size=(3, 29))
        targets = rng.integers(0, 4, size=29)
        fresh = TcnModel(SMALL, 3)
        got = gradient_pass(used, x, targets)
        expected = gradient_pass(fresh, x, targets)
        assert used.columns.capacity == grown > fresh.columns.capacity
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(used.grad, fresh.grad)


class TestTrainStep:
    """`TcnModel.train_step` against the step as first composed from the
    model's entry points (`reference_nn.composed_train_step`)."""

    CONFIG = ModelConfig(num_classes=4, kernel_size=3, filters=(4, 6, 8),
                         learning_rate=1e-2, weight_decay=1e-3, seed=1)

    @staticmethod
    def trials():
        rng = np.random.default_rng(12)
        out = [(rng.normal(size=(3, t)), rng.integers(0, 4, size=t))
               for t in (37, 64, 29)]
        # a gesture trial: frames no segment labels are GAP
        targets = rng.integers(0, 4, size=50)
        targets[10:20] = GAP
        targets[45:] = GAP
        out.append((rng.normal(size=(3, 50)), targets))
        return out

    def test_is_the_composed_step_bit_for_bit(self):
        cfg = self.CONFIG
        model, oracle = TcnModel(cfg, 3), TcnModel(cfg, 3)
        start = model.theta.copy()
        opt = Adam(model.theta.size, cfg.learning_rate, cfg.weight_decay)
        oracle_opt = Adam(oracle.theta.size, cfg.learning_rate, cfg.weight_decay)
        for x, targets in self.trials() * 2:
            loss, logits = model.train_step(x, targets, opt)
            expected_loss, expected_logits = composed_train_step(
                oracle, x, targets, oracle_opt)
            assert loss == expected_loss
            assert np.array_equal(logits, expected_logits)
            assert np.array_equal(model.theta, oracle.theta)
            assert np.array_equal(opt.m, oracle_opt.m)
            assert np.array_equal(opt.v, oracle_opt.v)
        assert opt.step_count == 8
        assert not np.array_equal(model.theta, start)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_loss_raises_before_the_update(self, monkeypatch, bad):
        model = TcnModel(self.CONFIG, 3)
        opt = Adam(model.theta.size, 1e-2)
        x, targets = self.trials()[0]
        model.train_step(x, targets, opt)  # the moments are now nonzero
        before = [a.copy() for a in (model.theta, opt.m, opt.v)]
        # the real loss and gradient, with the loss made non-finite
        monkeypatch.setattr(tcn_mod, "softmax_cross_entropy",
                            lambda *args: (bad, softmax_cross_entropy(*args)[1]))
        with pytest.raises(NonFiniteLoss, match=f"^loss={bad}$"):
            model.train_step(x, targets, opt)
        for got, expected in zip((model.theta, opt.m, opt.v), before):
            assert np.array_equal(got, expected)
        assert opt.step_count == 1
        assert not holds_activations(model)


class TestFusedStages:
    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("t", [8, 9, 13, 16, 64, 301])
    def test_model_is_the_layer_chain_bit_for_bit(self, k, t):
        cfg = ModelConfig(num_classes=4, kernel_size=k, filters=(4, 6, 8), seed=t)
        model = TcnModel(cfg, 3)
        rng = np.random.default_rng(1000 + t)
        x = rng.normal(size=(3, t))
        grad_logits = rng.normal(size=(4, t))
        logits, grad = reference_pass(model, x, grad_logits)
        got, tape = model.forward(x)
        assert np.array_equal(got, logits)
        model.backward(grad_logits, tape)
        assert np.array_equal(model.grad, grad) and grad.any()

    @pytest.mark.parametrize("t", [8, 13])
    def test_pad_repeats_the_last_frame(self, t):
        model = TcnModel(SMALL, 3)
        logits, _ = model.forward(np.random.default_rng(t).normal(size=(3, t)))
        n = 8 * (t // 8)
        assert np.array_equal(logits[:, n:], np.repeat(logits[:, n - 1:n], t - n, axis=1))


class TestActivationBuffers:
    def test_every_layer_type_is_covered(self):
        # `holds_activations` checks the model's and the convs' attributes;
        # the model holds no other layer, and its column buffer holds
        # scratch valid only within one conv call
        model = TcnModel(SMALL, 3)
        assert not holds_activations(model)
        assert [type(conv) for conv in model.convs] == [Conv1d] * 7
        assert all(conv.columns is model.columns for conv in model.convs)
        # the decoder's upsampling lives inside its convs
        assert [conv.phases for conv in model.convs] == [1, 1, 1, 2, 2, 2, 1]
        assert [conv for conv, _, _ in model.layers] == model.convs[:6]
        assert [stage for _, stage, _ in model.layers] == [pool_relu_norm] * 3 + [relu_norm] * 3
        assert [back for _, _, back in model.layers] == (
            [pool_relu_norm_backward] * 3 + [relu_norm_backward] * 3)

    def test_forward_keeps_nothing_on_the_model(self):
        model = TcnModel(SMALL, 3)
        x = np.random.default_rng(4).normal(size=(3, 21))
        logits, tape = model.forward(x)
        t, caches, _ = tape
        assert t == 21 and len(caches) == 6
        assert not holds_activations(model)
        model.backward(logits, tape)
        assert not holds_activations(model)

    def test_a_second_backward_over_one_tape_gives_the_same_gradients(self):
        model = TcnModel(SMALL, 3)
        x = np.random.default_rng(5).normal(size=(3, 21))
        logits, tape = model.forward(x)
        model.backward(logits, tape)
        grad = model.grad.copy()
        model.grad[:] = 0.0
        model.backward(logits, tape)
        assert np.array_equal(model.grad, grad) and grad.any()

    @pytest.mark.parametrize("shape", [(4, 20), (3, 21), (4,), (4, 21, 1)])
    def test_gradient_of_another_shape_is_refused(self, shape):
        model = TcnModel(SMALL, 3)
        _, tape = model.forward(np.random.default_rng(6).normal(size=(3, 21)))
        with pytest.raises(DataError, match="grad_logits shape"):
            model.backward(np.zeros(shape), tape)

    def test_nothing_is_held_after_training_or_prediction(self):
        data = {("T", "U", "001"): toy_tensors(0)}
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8),
                          learning_rate=1e-2, epochs=2, seed=1)
        model = TcnModel(cfg, 3)
        train_fold(model, toy_fold(data), data)
        assert not holds_activations(model)
        predict_labels(model, toy_tensors(1).features)
        assert not holds_activations(model)


def toy_tensors(seed, t=64):
    """Two-class signal where channel 0 carries the label, plus noise."""
    rng = np.random.default_rng(seed)
    targets = ((np.arange(t) // 16) % 2).astype(np.int64)
    feats = np.zeros((t, 3))
    feats[:, 0] = np.where(targets == 0, 1.0, -1.0)
    feats[:, 1] = np.where(targets == 0, -0.5, 0.8)
    feats += rng.normal(scale=0.1, size=feats.shape)
    return TrialTensors(features=feats, targets=targets)


TOY = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8),
                  learning_rate=1e-2, weight_decay=0.0, epochs=40, seed=1)


def toy_fold(data):
    return FoldPlan(name="toy", held_out="U",
                    train_trials=tuple(sorted(data)), test_trials=())


class TestTrainFold:
    def test_learns_the_toy_problem(self):
        data = {("T", "U", f"{i:03d}"): toy_tensors(i) for i in range(3)}
        model = TcnModel(TOY, 3)
        record = train_fold(model, toy_fold(data), data)
        assert record["steps"] == 3 * TOY.epochs
        assert record["epoch_losses"][-1] < 0.5 * record["epoch_losses"][0]
        assert record["epoch_accuracies"][-1] > 90.0
        labels, _ = predict_labels(model, toy_tensors(99).features)
        heldout = 100.0 * (labels == toy_tensors(99).targets).mean()
        assert heldout > 85.0

    def test_replays_exactly_from_the_seed(self):
        data = {("T", "U", f"{i:03d}"): toy_tensors(i) for i in range(2)}
        records = []
        finals = []
        for _ in range(2):
            model = TcnModel(TOY, 3)
            records.append(train_fold(model, toy_fold(data), data))
            finals.append(model.theta.copy())
        assert records[0] == records[1]
        np.testing.assert_array_equal(*finals)

    def test_each_epoch_visits_the_trials_in_the_seeded_order(self, monkeypatch):
        # the order comes from stream (seed, 1), not the parameter-init draw
        data = {("T", "U", f"{i:03d}"): toy_tensors(i, t=16) for i in range(5)}
        keys = sorted(data)
        visited = []
        real_step = TcnModel.train_step

        def spy(model, x, targets, optimizer):
            visited.append(next(k for k in keys if data[k].targets is targets))
            return real_step(model, x, targets, optimizer)

        monkeypatch.setattr(TcnModel, "train_step", spy)
        cfg = replace(TOY, epochs=3)
        train_fold(TcnModel(cfg, 3), toy_fold(data), data)
        rng = np.random.default_rng((cfg.seed, 1))
        assert visited == [keys[i] for _ in range(3) for i in rng.permutation(len(keys))]
        assert visited[:5] != keys

    def test_reads_the_folds_training_trials_alone(self):
        # the runner passes every planned trial; a trial outside the fold,
        # even one whose targets do not fit its features, changes no bit
        data = {("T", "U", f"{i:03d}"): toy_tensors(i, t=32) for i in range(3)}
        data[("T", "U", "001")].targets[:8] = GAP
        shared = dict(data)
        shared[("T", "A", "001")] = toy_tensors(3, t=32)
        shared[("T", "V", "001")] = TrialTensors(toy_tensors(4, t=32).features,
                                                 np.full(5, 7, dtype=np.int64))
        cfg = replace(TOY, epochs=3)
        exact, wider = TcnModel(cfg, 3), TcnModel(cfg, 3)
        record = train_fold(exact, toy_fold(data), data)
        assert train_fold(wider, toy_fold(data), MappingProxyType(shared)) == record
        np.testing.assert_array_equal(wider.theta, exact.theta)

    def test_zero_epochs_changes_nothing(self):
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8),
                          learning_rate=1e-2, epochs=0, seed=1)
        data = {("T", "U", "001"): toy_tensors(0)}
        model = TcnModel(cfg, 3)
        before = model.theta.copy()
        record = train_fold(model, toy_fold(data), data)
        assert record == {"epoch_losses": [], "epoch_accuracies": [], "steps": 0}
        np.testing.assert_array_equal(model.theta, before)

    def test_gap_frames_are_ignored(self):
        t = toy_tensors(0)
        gapped = t.targets.copy()
        gapped[::4] = GAP
        data_clean = {("T", "U", "001"): t}
        data_gapped = {("T", "U", "001"): TrialTensors(features=t.features, targets=gapped)}
        rec_clean = train_fold(TcnModel(TOY, 3), toy_fold(data_clean), data_clean)
        rec_gapped = train_fold(TcnModel(TOY, 3), toy_fold(data_gapped), data_gapped)
        # the gapped run averages over fewer frames, so its losses differ,
        # but both runs must converge on the toy problem
        assert rec_clean["epoch_losses"] != rec_gapped["epoch_losses"]
        assert rec_clean["epoch_accuracies"][-1] > 90.0
        assert rec_gapped["epoch_accuracies"][-1] > 90.0

    def test_epoch_accuracy_counts_the_labelled_frames_alone(self, monkeypatch):
        # the model predicts class 0 everywhere; the GAP frames count as
        # neither right nor wrong
        targets = np.array([0] * 8 + [GAP] * 8 + [1] * 8 + [0] * 8)
        data = {("T", "U", "001"): TrialTensors(np.zeros((32, 3)), targets)}
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8), epochs=1)
        model = TcnModel(cfg, 3)
        monkeypatch.setattr(tcn_mod.TcnModel, "train_step",
                            lambda self, x, targets, optimizer: (0.5, np.eye(2)[[0] * 32].T))
        record = train_fold(model, toy_fold(data), data)
        assert record["epoch_accuracies"] == [pytest.approx(100.0 * 16 / 24)]

    def test_epoch_figures_are_the_means_of_their_steps(self, monkeypatch):
        # an epoch's loss is the mean of its steps' losses, and its accuracy
        # the share of its steps' labelled frames their pre-update logits got
        # right; one trial has GAP frames, so a mean of per-step accuracies
        # would differ
        data = {("T", "U", f"{i:03d}"): toy_tensors(i) for i in range(3)}
        gapped = data[("T", "U", "001")].targets.copy()
        gapped[:40] = GAP
        data[("T", "U", "001")] = TrialTensors(data[("T", "U", "001")].features, gapped)
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8),
                          learning_rate=1e-2, epochs=3, seed=1)
        steps = []
        real_step = TcnModel.train_step

        def spy(self, x, targets, optimizer):
            loss, logits = real_step(self, x, targets, optimizer)
            steps.append((loss, int((np.argmax(logits, axis=0) == targets).sum()),
                          int((targets != GAP).sum())))
            return loss, logits

        monkeypatch.setattr(TcnModel, "train_step", spy)
        record = train_fold(TcnModel(cfg, 3), toy_fold(data), data)
        assert len(steps) == record["steps"] == 3 * len(data)
        expected_losses, expected_accuracies = [], []
        for epoch in range(cfg.epochs):
            losses, correct, counted = zip(*steps[epoch * len(data):(epoch + 1) * len(data)])
            expected_losses.append(sum(losses) / len(losses))
            expected_accuracies.append(100.0 * sum(correct) / sum(counted))
        assert record["epoch_losses"] == pytest.approx(expected_losses, rel=1e-12)
        assert record["epoch_accuracies"] == pytest.approx(expected_accuracies, rel=1e-12)

    def test_targets_outside_vocabulary(self):
        # the loss checks the range at the trial's first step, before any
        # parameter changes
        good = toy_tensors(0)
        bad = TrialTensors(features=good.features, targets=np.full(64, 7, dtype=np.int64))
        data = {("T", "U", "001"): bad}
        model = TcnModel(TOY, 3)
        before = model.theta.copy()
        with pytest.raises(DataError, match=r"targets must lie in \[-1, 2\)"):
            train_fold(model, toy_fold(data), data)
        np.testing.assert_array_equal(model.theta, before)

    def test_non_finite_loss_aborts_with_context(self, monkeypatch):
        data = {("T", "U", "001"): toy_tensors(0)}
        model = TcnModel(TOY, 3)
        monkeypatch.setattr(tcn_mod, "softmax_cross_entropy",
                            lambda logits, *a: (float("nan"), np.zeros_like(logits)))
        with pytest.raises(NonFiniteLoss) as caught:
            train_fold(model, toy_fold(data), data)
        assert str(caught.value) == "fold toy: epoch 0, trial ('T', 'U', '001'): loss=nan"

    def test_non_finite_parameters_after_the_last_step(self, monkeypatch):
        # the loss before each step is finite; the last step poisons theta
        data = {("T", "U", "001"): toy_tensors(0)}
        cfg = ModelConfig(num_classes=2, kernel_size=3, filters=(4, 6, 8), epochs=1)
        real_step = Adam.step

        def poisoning_step(self, params, grads):
            real_step(self, params, grads)
            params[0][-1] = np.inf

        monkeypatch.setattr(Adam, "step", poisoning_step)
        with pytest.raises(NonFiniteLoss, match="fold toy: parameters are non-finite"):
            train_fold(TcnModel(cfg, 3), toy_fold(data), data)


class TestPredictLabels:
    def test_scores_are_distributions(self):
        model = TcnModel(SMALL, 3)
        _, scores = predict_labels(model, np.random.default_rng(0).normal(size=(20, 3)))
        assert scores.shape == (20, 4)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(20), atol=1e-12)
        assert (scores >= 0).all()

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_scores_are_each_frames_softmax(self, scale):
        # a stand-in model hands over fixed (classes, frames) logits; at
        # about 1e3 an exp shifted by anything but the frame's own maximum
        # overflows or leaves a frame of zeros
        logits = scale * np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 12))

        class FixedLogits:
            def forward(self, x):
                return logits, None

        labels, scores = predict_labels(FixedLogits(), np.zeros((12, 3)))
        reference = []
        for frame in logits.T:
            shifted = [math.exp(v - max(frame)) for v in frame]
            reference.append([e / math.fsum(shifted) for e in shifted])
        np.testing.assert_allclose(scores, reference, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(labels, np.argmax(logits, axis=0))

    def test_tied_logits_take_lowest_id(self):
        model = TcnModel(SMALL, 3)
        model.convs[-1].w[:] = 0.0
        model.convs[-1].b[:] = 0.0
        labels, scores = predict_labels(model, np.zeros((10, 3)))
        np.testing.assert_array_equal(labels, np.zeros(10, dtype=np.int64))
        np.testing.assert_allclose(scores, 0.25)

    def test_rejects_bad_features(self):
        model = TcnModel(SMALL, 3)
        with pytest.raises(DataError, match=r"expected \(channels, frames\), got shape"):
            predict_labels(model, np.zeros(10))
        with pytest.raises(DataError, match="expected 3 channels, got 5"):
            predict_labels(model, np.zeros((10, 5)))
        bad = np.zeros((10, 3))
        bad[3, 1] = np.inf
        with pytest.raises(DataError, match="features contain non-finite values"):
            predict_labels(model, bad)
