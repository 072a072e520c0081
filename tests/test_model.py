"""Classifier forward pass, softmax, losses, init, and checkpoints.

Loss values and gradients go through the fused batch loss,
``natsel.trainer.weighted_batch_loss``, the only loss path training runs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import natsel.model
from natsel.errors import ConfigError, FormatError, NumericError, ShapeError
from natsel.model import (
    _BLOCK_BYTES,
    Classifier,
    ClassifierConfig,
    ConvSpec,
    LossConfig,
    _columns,
    load_checkpoint,
    sample_losses,
    save_checkpoint,
    softmax_rows,
)
from natsel.tensor import GradTape, backward
from natsel.trainer import weighted_batch_loss

from conftest import (
    INPUT_FORMS,
    add_row,
    conv_relu,
    finite_difference,
    forward_one,
    loss_oracle,
    matmul,
    max_relative_error,
    relu,
    reshape,
    softmax_vector,
    taped_gradients,
    taped_parameter_gradients,
)


def small_config(**overrides):
    base = dict(input_shape=(2, 2, 1), hidden=(), class_count=2, init_seed=0)
    base.update(overrides)
    return ClassifierConfig(**base)


# CIFAR-shaped conv model: 900 windows per image, so a batch of more
# than 3 images spans several conv blocks.
CIFAR_CONV = ClassifierConfig(
    input_shape=(32, 32, 3), hidden=(32,), class_count=10, init_seed=11,
    conv=ConvSpec(kernel=3, channels=8))


def patch_rows(xs: np.ndarray, kernel: int) -> np.ndarray:
    """Reference patch rows [N*P, k*k*C] of an [N, H, W, C] stack.

    Valid padding, stride 1: P = (H-k+1)*(W-k+1) windows per image in
    row-major (y0, x0) order, each flattened in (dy, dx, c) order.
    """
    windows = np.lib.stride_tricks.sliding_window_view(
        xs, (kernel, kernel), axis=(1, 2))
    # [N, H', W', C, k, k] -> [N, H', W', k, k, C], copied row-major
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        -1, kernel * kernel * xs.shape[3])


def loss_of(p, y: int, cfg: LossConfig) -> float:
    """One sample's loss through the fused op, from a probability vector.

    The logits are log p; a zero probability becomes a logit of -690,
    whose softmax value is far below the 1e-12 floor.
    """
    logits = np.log(np.maximum(np.asarray(p, dtype=np.float64), 1e-300))
    return weighted_batch_loss(logits[np.newaxis], [y], [1.0],
                               cfg, tape=GradTape()).item()


def manual_forward(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Straight-line numpy re-evaluation using only the parameter list."""
    cfg = model.config
    values = model.parameters
    cursor = 0
    if cfg.conv is not None:
        conv_w, conv_b = values[0][:-1], values[0][-1:]
        cursor = 1
        k = cfg.conv.kernel
        h, w, _ = cfg.input_shape
        rows = []
        for y0 in range(h - k + 1):
            for x0 in range(w - k + 1):
                rows.append(x[y0:y0 + k, x0:x0 + k, :].reshape(-1))
        act = np.maximum(np.stack(rows) @ conv_w + conv_b, 0.0)
        out = act.reshape(1, -1)
    else:
        out = x.reshape(1, -1)
    layers = [(values[i], values[i + 1]) for i in range(cursor, len(values), 2)]
    for i, (weight, bias) in enumerate(layers):
        out = out @ weight + bias
        if i != len(layers) - 1:
            out = np.maximum(out, 0.0)
    return out[0]


class TestForward:
    def test_zero_final_layer_gives_zero_logits(self):
        model = Classifier(small_config(hidden=(3,), init_seed=9))
        model.parameters[-2][...] = 0.0
        model.parameters[-1][...] = 0.0
        logits = forward_one(model, np.random.default_rng(1).random((2, 2, 1)))
        assert logits.tolist() == [0.0, 0.0]

    def test_identity_selector_weights(self):
        # Linear model whose weight rows pick out the two payload pixels,
        # so an input carrying [a, b] maps straight to logits [a, b].
        model = Classifier(small_config())
        model.parameters[0][...] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        model.parameters[1][...] = 0.0
        x = np.array([0.3, -1.2, 9.0, 9.0]).reshape(2, 2, 1)
        assert forward_one(model, x).tolist() == [0.3, -1.2]

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=3, channels=4)])
    def test_matches_straight_line_oracle(self, conv):
        cfg = ClassifierConfig(input_shape=(6, 5, 2), hidden=(7, 5),
                               class_count=3, init_seed=42, conv=conv)
        model = Classifier(cfg)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.random((6, 5, 2))
            got = forward_one(model, x)
            assert np.max(np.abs(got - manual_forward(model, x))) <= 1e-12

    def test_batch_rows_match_single_forward(self):
        model = Classifier(small_config(hidden=(4,), init_seed=2))
        rng = np.random.default_rng(8)
        xs = rng.random((5, 2, 2, 1))
        batch = model.forward_batch(xs)
        for i in range(5):
            single = forward_one(model, xs[i])
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)])
    def test_taped_and_untaped_paths_agree(self, conv):
        cfg = ClassifierConfig(input_shape=(4, 3, 2), hidden=(5,),
                               class_count=3, init_seed=8, conv=conv)
        model = Classifier(cfg)
        xs = np.random.default_rng(12).random((6, 4, 3, 2))
        tape = GradTape()
        tape.register(model.vector)
        taped = model.forward_batch(xs, tape=tape)
        assert np.array_equal(taped, model.forward_batch(xs))
        assert np.array_equal(taped, model.logits(xs))

    def test_shape_mismatch_rejected(self):
        model = Classifier(small_config())
        with pytest.raises(ShapeError):
            model.forward_batch(np.zeros((1, 3, 2, 1)))
        with pytest.raises(ShapeError):
            model.forward_batch(np.zeros((2, 2, 1)))

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_input_is_converted(self, form):
        model = Classifier(small_config(input_shape=(3, 4, 1), hidden=(5,),
                                        init_seed=6))
        xs = np.arange(24.0).reshape(2, 3, 4, 1)
        got = model.forward_batch(INPUT_FORMS[form](xs))
        assert got.dtype == np.float64
        assert np.array_equal(got, model.forward_batch(xs))

    def test_logits_finite_on_random_input(self):
        model = Classifier(small_config(hidden=(8, 8), init_seed=5))
        xs = np.random.default_rng(4).random((10, 2, 2, 1))
        assert np.all(np.isfinite(model.forward_batch(xs)))


def taped_step(model: Classifier, xs: np.ndarray) -> GradTape:
    """The tape of one taped forward and cross-entropy loss of ``xs``."""
    tape = GradTape()
    tape.register(model.vector)
    logits = model.forward_batch(xs, tape=tape)
    weighted_batch_loss(logits, np.arange(len(xs)) % logits.shape[1],
                        np.ones(len(xs)), LossConfig(), tape=tape)
    return tape


def primitive_chain_gradients(model: Classifier, xs: np.ndarray):
    """Gradients of ``taped_step``'s loss with the classifier taped as
    reshape or conv_relu, then matmul/add_row per layer and a ReLU
    between: one per parameter, each reached through its own view."""
    tape = GradTape()
    tape.register(*model.parameters)
    n = len(xs)
    if model.config.conv is not None:
        out = conv_relu(model, xs, tape=tape)
    else:
        out = reshape(xs, (n, -1), tape=tape)
    for i, (weight, bias) in enumerate(model._dense):
        if i:
            out = relu(out, tape=tape)
        out = add_row(matmul(out, weight, tape=tape), bias, tape=tape)
    weighted_batch_loss(out, np.arange(n) % out.shape[1], np.ones(n),
                        LossConfig(), tape=tape)
    return backward(tape)


class TestDenseStage:
    def test_taped_mlp_step_is_two_records(self):
        # One classifier record for every layer, one loss record; the
        # classifier pullback reaches the parameter vector, with one
        # gradient laid out like it, never the input images.
        model = Classifier(small_config(hidden=(5, 4), class_count=3,
                                        init_seed=3))
        tape = taped_step(model, np.random.default_rng(2).random((6, 2, 2, 1)))
        assert len(tape._entries) == 2
        out, pull = tape._entries[0]
        ((reached, grad),) = pull(np.ones(out.shape))
        assert reached is model.vector
        assert grad.shape == model.vector.shape and grad.flags.c_contiguous

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)])
    def test_gradients_equal_the_primitive_chain(self, conv):
        # One record per stack gives the bits of one record per operation.
        model = Classifier(ClassifierConfig(
            input_shape=(5, 4, 2), hidden=(6, 5), class_count=3,
            init_seed=12, conv=conv))
        xs = np.random.default_rng(13).normal(size=(7, 5, 4, 2))
        tape = taped_step(model, xs)
        (grad,) = backward(tape)
        for g, want in zip(model.views(grad),
                           primitive_chain_gradients(model, xs), strict=True):
            assert np.array_equal(g, want)

    @pytest.mark.parametrize("layer,value", [
        (1, -np.inf), (3, np.nan), (3, np.inf), (3, -np.inf)])
    def test_non_finite_pre_activation_raises(self, layer, value):
        # A hidden -inf bias would leave the ReLU as finite zeros, so only
        # the classifier record's check on the biased pre-activation sees it.
        model = Classifier(small_config(hidden=(4,), class_count=3))
        model.parameters[layer][0, 1] = value
        tape = GradTape()
        tape.register(model.vector)
        with pytest.raises(NumericError):
            model.forward_batch(np.ones((2, 2, 2, 1)), tape=tape)

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)],
                             ids=["mlp", "conv"])
    def test_non_finite_run_of_a_stack_is_named(self, conv):
        # Three runs of one shape; the middle one holds an infinite
        # weight, and the error names its index on the run axis.
        cfg = ClassifierConfig(input_shape=(3, 3, 1), hidden=(4,),
                               class_count=3, init_seed=0, conv=conv)
        models = [Classifier(replace(cfg, init_seed=s)) for s in range(3)]
        models[1].parameters[0][0, 0] = np.inf
        stack = Classifier.stack(models)
        tape = GradTape()
        tape.register(stack.vector)
        with pytest.raises(NumericError) as info:
            stack.forward_batch(np.ones((3, 2, 3, 3, 1)), tape=tape)
        assert info.value.run == 1
        with pytest.raises(ShapeError):
            stack.forward_batch(np.ones((2, 2, 3, 3, 1)), tape=tape)
        with pytest.raises(ShapeError, match="taped only"):
            stack.forward_batch(np.ones((3, 2, 3, 3, 1)))


class TestConvStage:
    @pytest.mark.parametrize("shape,kernel", [
        ((3, 4, 2), 2),
        ((5, 3, 3), 1),
        ((4, 6, 2), 4),
        ((6, 5, 1), 5),
    ], ids=["nonsquare_c2_k2", "kernel_1", "kernel_min_h", "kernel_min_w"])
    def test_patch_rows_enumerate_valid_windows(self, shape, kernel):
        h, w, c = shape
        xs = np.random.default_rng(h * w + kernel).random((3,) + shape)
        rows = [xs[i, y0:y0 + kernel, x0:x0 + kernel, :].reshape(-1)
                for i in range(3)
                for y0 in range(h - kernel + 1)
                for x0 in range(w - kernel + 1)]
        got = patch_rows(xs, kernel)
        assert got.shape == (len(rows), kernel * kernel * c)
        assert np.array_equal(got, np.stack(rows))

    @pytest.mark.parametrize("count,shape,kernel", [
        (3, (3, 4, 2), 2),
        (3, (5, 3, 3), 1),
        (3, (4, 6, 2), 4),
        (3, (6, 5, 1), 5),
        (7, (32, 32, 3), 3),
    ], ids=["nonsquare_c2_k2", "kernel_1", "kernel_min_h", "kernel_min_w",
            "cifar_multi_block"])
    def test_columns_hold_patch_rows(self, count, shape, kernel):
        # Every valid window's column equals its patch row exactly on
        # rows [:k*k*C]; the wrapped windows (x0 >= W') read on into the
        # next image row or the zero tail of the image's flat channel
        # plane.  The last row is exact ones, the bias's input.
        h, w, c = shape
        xs = np.random.default_rng(h * w + kernel).random((count,) + shape)
        out = _columns(xs, kernel)
        out_h, out_w = h - kernel + 1, w - kernel + 1
        span = out_h * w
        rows = kernel * kernel * c
        assert out.shape == (rows + 1, count * span)
        assert np.array_equal(out[-1], np.ones(count * span))
        cols = out[:rows]
        valid = cols.reshape(rows, count, out_h, w)[:, :, :, :out_w]
        assert np.array_equal(valid.reshape(rows, -1).T,
                              patch_rows(xs, kernel))
        planes = np.concatenate(
            [xs.transpose(0, 3, 1, 2).reshape(count, c, h * w),
             np.zeros((count, c, kernel - 1))], axis=2)
        by_offset = cols.reshape(kernel, kernel, c, count, span)
        for dy in range(kernel):
            for dx in range(kernel):
                start = dy * w + dx
                assert np.array_equal(
                    by_offset[dy, dx],
                    planes[:, :, start:start + span].transpose(1, 0, 2))

    def test_taped_step_is_two_records(self):
        # One classifier record, conv stage included, and one loss
        # record.  The classifier pullback reaches the parameter vector,
        # whose first view is the conv stage's [W; b]; never the input,
        # and no activation adjoint leaves it.
        model = Classifier(ClassifierConfig(
            input_shape=(5, 4, 2), hidden=(3,), class_count=3, init_seed=4,
            conv=ConvSpec(kernel=2, channels=3)))
        tape = taped_step(model, np.random.default_rng(6).random((4, 5, 4, 2)))
        assert len(tape._entries) == 2
        out, pull = tape._entries[0]
        ((reached, grad),) = pull(np.ones(out.shape))
        assert reached is model.vector
        assert grad.shape == model.vector.shape

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)],
                             ids=["mlp", "conv"])
    def test_records_keep_no_masks(self, conv):
        # The pullbacks derive each ReLU mask from the kept activations,
        # so no record holds a boolean array between forward and backward.
        model = Classifier(ClassifierConfig(
            input_shape=(5, 4, 2), hidden=(3, 4), class_count=3, init_seed=4,
            conv=conv))
        tape = taped_step(model, np.random.default_rng(6).random((4, 5, 4, 2)))
        held = [cell.cell_contents for _, pull in tape._entries
                for cell in pull.__closure__ or ()]
        held += [a for value in held if isinstance(value, list)
                 for a in value]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert arrays and all(a.dtype != bool for a in arrays)

    def test_non_finite_pre_activation_raises(self):
        # -inf pre-activations would leave the ReLU as finite zeros, so
        # only the conv stage's own check can see them.
        model = Classifier(ClassifierConfig(
            input_shape=(3, 4, 2), hidden=(), class_count=2, init_seed=0,
            conv=ConvSpec(kernel=2, channels=2)))
        model.parameters[0][:-1] = -1e308
        tape = GradTape()
        tape.register(model.vector)
        with pytest.raises(NumericError):
            model.forward_batch(np.ones((2, 3, 4, 2)), tape=tape)
        # The same with only the last image of a multi-block batch
        # non-finite: zero images give finite (bias-only) pre-activations.
        model = Classifier(CIFAR_CONV)
        model.parameters[0][:-1] = -1e308
        xs = np.zeros((2 * model._block + 1, 32, 32, 3))
        xs[-1] = 1.0
        tape = GradTape()
        tape.register(model.vector)
        with pytest.raises(NumericError):
            model.forward_batch(xs, tape=tape)

    def test_non_finite_bias_raises(self):
        # The bias rides in the patch product, so the taped path's
        # finiteness check on the product sees a non-finite bias entry;
        # -inf included, which the ReLU alone would turn into zeros.
        model = Classifier(CIFAR_CONV)
        xs = np.random.default_rng(8).random(
            (2 * model._block + 1, 32, 32, 3))
        for value in (np.nan, np.inf, -np.inf):
            model.parameters[0][-1, -1] = value
            tape = GradTape()
            tape.register(model.vector)
            with pytest.raises(NumericError):
                model.forward_batch(xs, tape=tape)

    def test_kernel_must_fit(self):
        with pytest.raises(ConfigError):
            ClassifierConfig(input_shape=(2, 2, 1), hidden=(), class_count=2,
                             init_seed=0, conv=ConvSpec(kernel=3, channels=1))

    def test_channels_must_be_positive(self):
        with pytest.raises(ConfigError, match="conv_channels"):
            ConvSpec(3, 0)


def unblocked_conv(model: Classifier, xs: np.ndarray):
    """Unblocked reference of the conv stage: the full patch matrix
    [N*P, k*k*C] and the pre-activations ``cols @ W + b`` [N*P, F]."""
    cols = patch_rows(xs, model.config.conv.kernel)
    wb = model.parameters[0]
    return cols, cols @ wb[:-1] + wb[-1:]


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| over max |ref|."""
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestConvBlocks:
    """The conv stage walks a batch in blocks of ``_block`` images; at
    32x32x3 with a 3x3 kernel and 8 channels a block is B = 3 images.
    Batches of 1, B, B+1 and 3B-1 images are checked against the
    unblocked reference."""

    # batch size a*B + c
    COUNTS = pytest.mark.parametrize("a,c", [(0, 1), (1, 0), (1, 1), (3, -1)],
                                     ids=["1", "B", "B+1", "3B-1"])

    def setup_method(self):
        self.model = Classifier(CIFAR_CONV)
        self.step = self.model._block
        self.rng = np.random.default_rng(29)

    def batch(self, a: int, c: int) -> np.ndarray:
        return self.rng.random((a * self.step + c, 32, 32, 3)) - 0.3

    def taped_logits(self, xs: np.ndarray) -> np.ndarray:
        tape = GradTape()
        tape.register(self.model.vector)
        return self.model.forward_batch(xs, tape=tape)

    def test_block_is_three_images_within_budget(self):
        # float64 per image: channel planes 3 x (32*32 + 2), patch columns
        # (27 + 1 ones row) x (30*32) and pre-activations (30*32) x 8
        per_image = 8 * (3 * 1026 + 28 * 960 + 960 * 8)
        assert self.step == 3
        assert per_image * self.step <= _BLOCK_BYTES < per_image * 4

    @COUNTS
    def test_forward_matches_unblocked(self, a, c):
        xs = self.batch(a, c)
        _, pre = unblocked_conv(self.model, xs)
        act = np.maximum(pre, 0.0).reshape(xs.shape[0], -1)
        conv_out = self.model._conv_act(xs, checked=True)
        taped = self.taped_logits(xs)
        assert relative_error(conv_out, act) <= 1e-12
        (w1, b1), (w2, b2) = self.model._dense
        ref_logits = np.maximum(act @ w1 + b1, 0.0) @ w2 + b2
        assert relative_error(self.model.logits(xs), ref_logits) <= 1e-12
        assert np.array_equal(taped, self.model.logits(xs))

    @COUNTS
    def test_gradients_match_unblocked(self, a, c):
        # The conv primitive's pullback: the ReLU mask of the kept
        # activations, then the blocked ``_conv_grad``.
        xs = self.batch(a, c)
        tape = GradTape()
        conv_out = conv_relu(self.model, xs, tape=tape)
        ((_, pull),) = tape._entries
        g = self.rng.standard_normal(conv_out.shape)
        cols, pre = unblocked_conv(self.model, xs)
        gm = g.reshape(pre.shape) * (pre > 0.0)
        ((wb, gwb),) = pull(g)
        assert [wb] == self.model.parameters[:1]
        assert relative_error(gwb[:-1], cols.T @ gm) <= 1e-12
        assert relative_error(gwb[-1:], gm.sum(axis=0, keepdims=True)) \
            <= 1e-12


class TestConvStreaming:
    """The untaped forward walks its input in chunks of ``_chunk``
    whole images and runs each chunk's conv activations through the
    whole dense stack; at 32x32x3 with a 3x3 kernel and 8 channels a
    chunk is S = 32 images.  Inputs of 1, S-1, S, S+1 and 3S+5 images
    are checked against the unstreamed forward, and inputs that chunk
    into multiples of 8 images keep its bits in every dense layer."""

    def setup_method(self):
        self.model = Classifier(CIFAR_CONV)
        self.chunk = self.model._chunk
        self.rng = np.random.default_rng(31)

    def unstreamed(self, xs: np.ndarray) -> np.ndarray:
        (w1, b1), (w2, b2) = self.model._dense
        hidden = self.model._conv_act(xs) @ w1 + b1
        return np.maximum(hidden, 0.0) @ w2 + b2

    def test_chunk_is_32_images_within_two_block_budgets(self):
        # float64 conv activations per image: 30 x 30 x 8
        per_image = 8 * 30 * 30 * 8
        assert self.chunk == 32
        assert self.chunk * per_image <= 2 * _BLOCK_BYTES
        assert 2 * _BLOCK_BYTES < (self.chunk + 8) * per_image

    @pytest.mark.parametrize("budget,chunk", [(1, 8), (1 << 18, 8),
                                              (1 << 19, 16), (1 << 22, 144)])
    def test_chunk_is_a_multiple_of_eight_and_at_least_eight(
            self, monkeypatch, budget, chunk):
        # the geometry is fixed when the model is built
        monkeypatch.setattr(natsel.model, "_BLOCK_BYTES", budget)
        assert self.model._chunk == 32
        assert Classifier(CIFAR_CONV)._chunk == chunk

    # input size a*S + c
    @pytest.mark.parametrize("a,c", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "S-1", "S", "S+1", "3S+5"])
    def test_streamed_logits_match_unstreamed(self, a, c):
        xs = self.rng.random((a * self.chunk + c, 32, 32, 3)) - 0.3
        assert relative_error(self.model.logits(xs),
                              self.unstreamed(xs)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 32, 72, 200])
    def test_chunks_of_multiples_of_eight_are_exact(self, n):
        # 200 test images stream as six 32-image chunks and one of 8
        xs = self.rng.random((n, 32, 32, 3)) - 0.3
        assert np.array_equal(self.model.logits(xs), self.unstreamed(xs))

    def test_conv_model_without_hidden_layers(self):
        model = Classifier(ClassifierConfig(
            input_shape=(8, 8, 3), hidden=(), class_count=3, init_seed=2,
            conv=ConvSpec(kernel=3, channels=4)))
        xs = self.rng.random((2 * model._chunk + 3, 8, 8, 3))
        weight, bias = model._dense[0]
        ref = model._conv_act(xs) @ weight + bias
        assert relative_error(model.logits(xs), ref) <= 1e-12


class TestSoftmax:
    def test_uniform_logits(self):
        p = softmax_rows(np.zeros((1, 4)))
        assert np.max(np.abs(p - 0.25)) <= 1e-12

    def test_log_counts(self):
        z = np.log([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        p = softmax_rows(z)
        assert np.max(np.abs(p[0] - [0.1, 0.2, 0.3, 0.4])) <= 1e-12
        assert np.max(np.abs(p[1] - [0.4, 0.3, 0.2, 0.1])) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            z = rng.normal(size=(3, 6))
            c = rng.normal(size=(3, 1)) * 10
            diff = softmax_rows(z + c) - softmax_rows(z)
            assert np.max(np.abs(diff)) <= 1e-12

    def test_valid_distribution_even_with_extreme_logits(self):
        # Gaps stay under ~745 so exp(z - max) is representable in float64.
        for z in ([350.0, 0.0, -350.0], [-700.0, -701.0], [50.0] * 3):
            p = softmax_rows(np.array([z]))
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[1.0, float("nan")]]))
        with pytest.raises(NumericError):
            softmax_rows(np.array([[1.0, float("inf")]]))
        with pytest.raises(ShapeError):
            softmax_rows(np.array([1.0, 2.0]))

    def test_softmax_rows_matches_vector_path(self):
        logits = np.random.default_rng(23).normal(size=(4, 5)) * 3
        rows = softmax_rows(logits)
        for i in range(4):
            single = softmax_vector(logits[i])
            assert np.max(np.abs(rows[i] - single)) <= 1e-15


class TestPerSampleLoss:
    def test_cross_entropy_certain_prediction(self):
        assert loss_of([1.0, 0.0], 0, LossConfig()) == 0.0

    def test_cross_entropy_uniform_ten_classes(self):
        got = loss_of(np.full(10, 0.1), 7, LossConfig())
        assert abs(got - math.log(10)) <= 1e-12

    def test_focal_half_confidence(self):
        got = loss_of([0.5, 0.5], 0, LossConfig(kind="focal", focal_gamma=2.0))
        assert abs(got - 0.25 * math.log(2)) <= 1e-12

    def test_focal_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(6)
        ce = LossConfig()
        focal0 = LossConfig(kind="focal", focal_gamma=0.0)
        for _ in range(20):
            raw = rng.random(5) + 1e-3
            p = raw / raw.sum()
            y = int(rng.integers(5))
            diff = loss_of(p, y, focal0) - loss_of(p, y, ce)
            assert abs(diff) <= 1e-12

    def test_smoothing_zero_is_cross_entropy(self):
        rng = np.random.default_rng(19)
        ce = LossConfig()
        ls0 = LossConfig(kind="label_smoothing", smoothing_epsilon=0.0)
        for _ in range(20):
            raw = rng.random(4) + 1e-3
            p = raw / raw.sum()
            y = int(rng.integers(4))
            diff = loss_of(p, y, ls0) - loss_of(p, y, ce)
            assert abs(diff) <= 1e-12

    def test_smoothing_closed_form(self):
        p = np.array([0.2, 0.5, 0.3])
        eps = 0.2
        expected = (1 - eps) * -math.log(0.5) + (eps / 3) * float(
            np.sum(-np.log(p)))
        got = loss_of(p, 1, LossConfig(kind="label_smoothing",
                                       smoothing_epsilon=eps))
        assert abs(got - expected) <= 1e-12

    def test_probability_floor_keeps_loss_finite(self):
        got = loss_of([0.0, 1.0], 0, LossConfig())
        assert got == -math.log(1e-12)

    def test_label_out_of_range(self):
        logits = np.array([[0.0, 0.0]])
        with pytest.raises(ConfigError):
            weighted_batch_loss(logits, [2], [1.0], LossConfig(),
                                tape=GradTape())
        with pytest.raises(ConfigError):
            weighted_batch_loss(logits, [-1], [1.0], LossConfig(),
                                tape=GradTape())

    def test_requires_vector(self):
        # One logit vector per row: the batch is [B, K], never flat; and
        # one label per row: [N], not [N, 1].
        with pytest.raises(ShapeError):
            weighted_batch_loss(np.array([0.5, 0.5]), [0], [1.0], LossConfig(),
                                tape=GradTape())
        with pytest.raises(ShapeError, match=r"\(2, 1\) labels for 2 rows"):
            sample_losses(np.zeros((2, 3)), np.zeros((2, 1), dtype=np.int64),
                          LossConfig())

    def test_loss_config_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(kind="hinge")
        with pytest.raises(ConfigError):
            LossConfig(kind="focal", focal_gamma=-1.0)
        with pytest.raises(ConfigError):
            LossConfig(kind="label_smoothing", smoothing_epsilon=1.0)


class TestLossGradients:
    def test_cross_entropy_logit_gradient_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = rng.normal(size=(1, 6))
            y = int(rng.integers(6))
            tape = GradTape()
            tape.register(z)
            weighted_batch_loss(z, [y], [1.0], LossConfig(), tape=tape)
            grad = backward(tape)[0][0]
            one_hot = np.zeros(6)
            one_hot[y] = 1.0
            expected = softmax_vector(z[0]) - one_hot
            assert np.max(np.abs(grad - expected)) <= 1e-10

    @pytest.mark.parametrize("cfg", [
        LossConfig(kind="focal", focal_gamma=2.0),
        LossConfig(kind="label_smoothing", smoothing_epsilon=0.1),
    ])
    def test_loss_gradients_against_finite_differences(self, cfg):
        rng = np.random.default_rng(29)
        z = rng.normal(size=(1, 5))
        y = 2

        def taped(params, tape):
            return weighted_batch_loss(params[0], [y], [1.0], cfg, tape=tape)

        def plain(params):
            return loss_oracle(softmax_vector(params[0][0]), y, cfg)

        analytic = taped_gradients(taped, [z])
        numeric = finite_difference(plain, [z])
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_end_to_end_model_gradcheck(self):
        cfg = ClassifierConfig(input_shape=(2, 3, 1), hidden=(4,),
                               class_count=3, init_seed=77)
        model = Classifier(cfg)
        x = np.random.default_rng(2).random((2, 3, 1))
        y = 1

        def taped(params, tape):
            logits = model.forward_batch(x[np.newaxis], tape=tape)
            return weighted_batch_loss(logits, [y], [1.0], LossConfig(),
                                       tape=tape)

        def plain(params):
            p = softmax_vector(manual_forward(model, x))
            return loss_oracle(p, y, LossConfig())

        analytic = taped_parameter_gradients(taped, model)
        numeric = finite_difference(plain, model.parameters)
        assert max_relative_error(analytic, numeric) <= 1e-5

    @pytest.mark.parametrize("cfg", [
        LossConfig(),
        LossConfig(kind="focal", focal_gamma=2.0),
        LossConfig(kind="label_smoothing", smoothing_epsilon=0.1),
    ], ids=lambda c: c.kind)
    def test_conv_model_gradcheck(self, cfg):
        # The conv stage is one tape record with a hand-written pullback;
        # the oracle is the per-window loop of manual_forward.
        rng = np.random.default_rng(41)
        worst = 0.0
        for case in range(20):
            kernel = 2 + case % 2
            model = Classifier(ClassifierConfig(
                input_shape=(5, 4, 2), hidden=(3,), class_count=3,
                init_seed=500 + case, conv=ConvSpec(kernel, 2)))
            xs = rng.random((3, 5, 4, 2))
            labels = rng.integers(0, 3, size=3)
            weights = rng.uniform(0.5, 2.0, size=3)

            def taped(params, tape):
                logits = model.forward_batch(xs, tape=tape)
                return weighted_batch_loss(logits, labels, weights, cfg,
                                           tape=tape)

            def plain(params):
                return sum(
                    w * loss_oracle(softmax_vector(manual_forward(model, x)),
                                    int(y), cfg)
                    for x, y, w in zip(xs, labels, weights)) / 3

            analytic = taped_parameter_gradients(taped, model)
            numeric = finite_difference(plain, model.parameters)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst <= 1e-5


class TestInitialization:
    def test_bounds_follow_fan_in(self):
        cfg = ClassifierConfig(input_shape=(4, 4, 1), hidden=(9,),
                               class_count=2, init_seed=1)
        model = Classifier(cfg)
        first_w, first_b, second_w, second_b = model.parameters
        assert np.max(np.abs(first_w)) <= 1.0 / 4.0  # fan_in 16
        assert np.max(np.abs(first_b)) <= 1.0 / 4.0
        assert np.max(np.abs(second_w)) <= 1.0 / 3.0  # fan_in 9
        assert np.max(np.abs(second_b)) <= 1.0 / 3.0

    def test_same_seed_same_parameters(self):
        cfg = small_config(hidden=(5,), init_seed=321)
        a, b = Classifier(cfg), Classifier(cfg)
        for pa, pb in zip(a.parameters, b.parameters):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = Classifier(small_config(init_seed=1))
        b = Classifier(small_config(init_seed=2))
        assert not np.array_equal(a.parameters[0], b.parameters[0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(class_count=1)
        with pytest.raises(ConfigError):
            small_config(input_shape=(1, 2, 1))
        with pytest.raises(ConfigError):
            small_config(hidden=(0,))

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)],
                             ids=["mlp", "conv"])
    def test_parameters_are_views_of_the_vector(self, conv):
        model = Classifier(ClassifierConfig(
            input_shape=(4, 4, 2), hidden=(6,), class_count=3, init_seed=5,
            conv=conv))
        assert np.array_equal(model.vector, np.concatenate(
            [p.ravel() for p in model.parameters]))
        assert all(np.shares_memory(p, model.vector)
                   for p in model.parameters)
        model.parameters[-1][0, 1] = 7.0  # the last bias [1, 3]
        assert model.vector[-2] == 7.0
        model.vector[0] = -3.0
        assert model.parameters[0][0, 0] == -3.0

    def test_each_run_keeps_its_row_of_a_stack(self):
        models = [Classifier(small_config(hidden=(3,), init_seed=seed))
                  for seed in range(3)]
        before = [model.vector.copy() for model in models]
        stack = Classifier.stack(models)
        assert stack.vector.shape == (3, before[0].size)
        assert stack.parameters[0].shape == (3, 4, 3)
        for run, (model, start) in enumerate(zip(models, before)):
            assert model.vector.base is stack.vector
            assert np.shares_memory(model.vector, stack.vector[run])
            assert np.array_equal(model.vector, start)
        for p in stack.parameters:  # in place, as the update is
            p -= 0.5
        for model, start in zip(models, before):
            assert np.array_equal(np.concatenate(
                [p.ravel() for p in model.parameters]), start - 0.5)

    def test_config_json_round_trip(self):
        cfg = ClassifierConfig(input_shape=(6, 6, 3), hidden=(16, 8),
                               class_count=10, init_seed=99,
                               conv=ConvSpec(kernel=3, channels=4))
        assert ClassifierConfig.from_json(cfg.to_json()) == cfg


class TestCheckpoint:
    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)])
    def test_round_trip_bitwise(self, tmp_path, conv):
        cfg = ClassifierConfig(input_shape=(4, 4, 2), hidden=(6,),
                               class_count=3, init_seed=55, conv=conv)
        model = Classifier(cfg)
        # Perturb away from the seeded init so loading cannot cheat.
        model.parameters[0] += 0.125
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        for ours, theirs in zip(model.parameters, loaded.parameters):
            assert np.array_equal(ours, theirs)
            assert np.shares_memory(theirs, loaded.vector)
        # The documented block: each array little-endian, row-major, in
        # construction order.
        assert path.read_bytes().split(b"\n", 3)[3] == b"".join(
            np.ascontiguousarray(p, "<f8").tobytes()
            for p in model.parameters)

    def test_a_stack_has_no_checkpoint(self, tmp_path):
        # Its header would name one run's config and its block hold every
        # run's values, which no load could read back.
        models = [Classifier(small_config(init_seed=seed))
                  for seed in (0, 1)]
        path = tmp_path / "stack.bin"
        with pytest.raises(ShapeError, match="each run's own model"):
            save_checkpoint(Classifier.stack(models), path)
        assert not path.exists()
        save_checkpoint(models[1], path)
        assert np.array_equal(load_checkpoint(path).vector, models[1].vector)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTCKPT\nconfig {}\nparams 0\n")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"NSCKPT 1\n")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("config_line,count_line", [
        (b"config {}", b"params 10"),
        (b"config {bad", b"params 10"),
        (b'config {"input_shape":[2,2,1]\xff}', b"params 10"),
        (b'config {"input_shape":[2,2,1],"hidden":[],"class_count":1,'
         b'"init_seed":0,"conv":null}', b"params 10"),
        (b'config {"input_shape":[2,2,1],"hidden":[1.5],"class_count":2,'
         b'"init_seed":0,"conv":null}', b"params 10"),
        (b'config {"input_shape":[2,2,1],"hidden":[],"class_count":2,'
         b'"init_seed":0.5,"conv":null}', b"params 10"),
        (b'config {"input_shape":[2,2,1],"hidden":[],"class_count":2.0,'
         b'"init_seed":0,"conv":null}', b"params 10"),
        (None, b"params x"),
        (None, b"count 10"),
    ], ids=["config_missing_keys", "config_not_json", "non_ascii_byte",
            "config_invalid_value", "width_not_integer", "seed_not_integer",
            "class_count_not_integer", "count_not_integer",
            "no_params_prefix"])
    def test_corrupt_header_names_the_file(self, tmp_path, config_line,
                                          count_line):
        # A damaged header line raises FormatError naming the file, not
        # the KeyError, JSONDecodeError, UnicodeDecodeError, ConfigError,
        # TypeError or ValueError of the parse or build that meets it.
        path = tmp_path / "corrupt.bin"
        if config_line is None:
            config_line = b"config " + small_config().to_json().encode()
        path.write_bytes(b"NSCKPT 1\n" + config_line + b"\n" + count_line
                         + b"\n" + b"\x00" * 80)
        with pytest.raises(FormatError, match="corrupt.bin"):
            load_checkpoint(path)

    def test_truncated_parameter_block(self, tmp_path):
        model = Classifier(small_config())
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_count_config_mismatch(self, tmp_path):
        model = Classifier(small_config())
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        text = path.read_bytes()
        wrong = text.replace(b"params 10\n", b"params 2\n")
        assert wrong != text  # 4*2 weight + 2 bias = 10 values
        path.write_bytes(wrong[:wrong.index(b"params 2\n") + len(b"params 2\n")]
                         + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)
