"""Training loop, optimizer, evaluation, duality, and metrics I/O."""

import math
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import natsel.model
import natsel.trainer
from natsel.data import Dataset, DataSettings, build_splits
from natsel.errors import ConfigError, ShapeError, TrainingDiverged
from natsel.imageops import GridLayout
from natsel.model import (
    Classifier,
    ClassifierConfig,
    ConvSpec,
    LossConfig,
    save_checkpoint,
)
from natsel.nscore import NSResult, params_hash
from natsel.tensor import GradTape, backward
from natsel.trainer import (
    MetricsRecord,
    TrainConfig,
    _Step,
    _taped_step,
    _train_record,
    deterministic_csv_bytes,
    duality_check,
    evaluate,
    read_metrics_csv,
    sgd_momentum_step,
    train,
    weighted_batch_loss,
    write_metrics_csv,
)
from natsel.weighting import WeightingConfig

from conftest import (
    centroid_model,
    finite_difference,
    loss_oracle,
    max_relative_error,
    softmax_vector,
    train_erm,
)


def toy_sets(per_class=(10, 10), noise=0.05, seed=3, test_per_class=4,
             shape=(4, 4, 1)):
    h, w, c = shape
    settings = DataSettings(classes=len(per_class), height=h, width=w,
                            channels=c, class_counts=tuple(per_class),
                            noise_std=noise, test_per_class=test_per_class)
    return build_splits(settings, seed)


def fresh_model(train_set, hidden=(6,), init_seed=1):
    return Classifier(ClassifierConfig(
        input_shape=train_set.image_shape, hidden=hidden,
        class_count=train_set.class_count, init_seed=init_seed))


def base_config(**overrides):
    base = dict(batch_size=8, epochs=2, learning_rate=0.5, momentum=0.9,
                layout=GridLayout(2, 2),
                weighting=WeightingConfig(1.0, 0.0), seed=11)
    base.update(overrides)
    return TrainConfig(**base)


LOSS_CONFIGS = [
    LossConfig(),
    LossConfig(kind="focal", focal_gamma=2.0),
    LossConfig(kind="label_smoothing", smoothing_epsilon=0.1),
]


class TestWeightedBatchLoss:
    def logits(self, rows, seed=4):
        return np.random.default_rng(seed).normal(size=(rows, 5))

    def single(self, logits, row, label):
        """One sample's loss: the op on a one-row batch with weight 1."""
        return weighted_batch_loss(logits[row:row + 1],
                                   [label], [1.0]).item()

    def test_unit_weights_give_plain_mean(self):
        z = self.logits(3)
        labels = [1, 4, 0]
        got = weighted_batch_loss(z, labels, np.ones(3)).item()
        values = [self.single(z, i, y) for i, y in enumerate(labels)]
        oracle = [loss_oracle(softmax_vector(z[i]), y, LossConfig())
                  for i, y in enumerate(labels)]
        assert got == float(np.sum(values)) / 3
        assert abs(got - np.mean(oracle)) <= 1e-12

    def test_constant_sigma_factorizes(self):
        # Power-of-two sigma: multiplication commutes with rounding, so the
        # factorization sigma * mean is bitwise exact.
        z = self.logits(4)
        labels = [0, 1, 2, 3]
        uniform = weighted_batch_loss(z, labels, np.ones(4)).item()
        scaled = weighted_batch_loss(z, labels, np.full(4, 2.0)).item()
        assert scaled == 2.0 * uniform

    def test_zero_weight_drops_sample(self):
        z = self.logits(2)
        got = weighted_batch_loss(z, [3, 1], np.array([2.0, 0.0])).item()
        assert got == self.single(z, 0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_batch_loss(self.logits(1), [0], np.ones(2))
        with pytest.raises(ShapeError):
            weighted_batch_loss(self.logits(2), [0], np.ones(2))
        with pytest.raises(ShapeError):
            weighted_batch_loss(np.zeros((0, 5)), [], np.ones(0))

    def test_gradient_is_weighted_mean_of_per_sample_gradients(self):
        # d/dz of (1/B) sum w_i * l_i(z_i) against finite differences.
        z = self.logits(3, seed=8)
        labels = [1, 0, 3]
        weights = np.array([0.5, 2.0, 1.0])
        cfg = LossConfig()

        def taped(params, tape):
            return weighted_batch_loss(params[0], labels, weights, cfg,
                                       tape=tape)

        def plain(params):
            total = 0.0
            for i, y in enumerate(labels):
                p = softmax_vector(params[0][i])
                total += weights[i] * loss_oracle(p, y, cfg)
            return total / 3.0

        tape = GradTape()
        tape.register(z)
        analytic = backward(tape, taped([z], tape))
        numeric = finite_difference(plain, [z])
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_one_tape_record_per_batch(self):
        z = self.logits(32)
        tape = GradTape()
        tape.register(z)
        weighted_batch_loss(z, np.arange(32) % 5, np.ones(32), tape=tape)
        assert len(tape._entries) == 1

    @pytest.mark.parametrize("cfg", LOSS_CONFIGS, ids=lambda c: c.kind)
    def test_untaped_loss_equals_taped_value_exactly(self, cfg):
        # evaluate and duality_check use the untaped losses; with unit
        # weights over one chunk they must reproduce the taped op's value.
        train_set, _ = toy_sets(noise=0.3)
        model = fresh_model(train_set)
        tape = GradTape()
        model.register_on(tape)
        logits = model.forward_batch(train_set.images, tape=tape)
        taped = weighted_batch_loss(logits, train_set.labels,
                                    np.ones(len(train_set)), cfg,
                                    tape=tape).item()
        untaped = weighted_batch_loss(
            logits, train_set.labels,
            np.ones(len(train_set)), cfg).item()
        assert untaped == taped
        assert evaluate(model, train_set, cfg).mean_loss == taped
        report = duality_check([model], train_set, fitness_ceiling=100.0,
                               loss_cfg=cfg)
        assert report.mean_risks[0] == taped


class TestSgdMomentumStep:
    def test_zero_momentum_is_plain_descent(self):
        p = np.array([1.0, -2.0])
        v = [np.zeros(2)]
        sgd_momentum_step([p], [np.array([0.5, 0.5])], v, 0.1, 0.0)
        assert np.max(np.abs(p - [0.95, -2.05])) <= 1e-15

    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        sgd_momentum_step([p], [np.array([0.0, 0.0])], [np.zeros(2)], 0.1, 0.9)
        assert p.tolist() == [1.0, 2.0]

    def test_two_step_hand_recurrence(self):
        # f(t) = t^2/2 so g = t; eta=0.1, mu=0.9 from t0=1.0:
        #   v1 = 1.0        t1 = 1.0 - 0.1*1.0   = 0.9
        #   v2 = 0.9 + 0.9  t2 = 0.9 - 0.1*1.8   = 0.72
        p = np.array(1.0)
        v = [np.zeros(())]
        sgd_momentum_step([p], [p.copy()], v, 0.1, 0.9)
        assert abs(p.item() - 0.9) <= 1e-15
        sgd_momentum_step([p], [p.copy()], v, 0.1, 0.9)
        assert abs(p.item() - 0.72) <= 1e-15

    def test_velocity_updated_in_place(self):
        p = np.array([0.0])
        v = [np.array([1.0])]
        sgd_momentum_step([p], [np.array([1.0])], v, 1.0, 0.5)
        assert v[0].tolist() == [1.5]
        assert p.tolist() == [-1.5]

    def test_shape_validation(self):
        p = np.array([1.0, 2.0])
        with pytest.raises(ShapeError):
            sgd_momentum_step([p], [np.array([1.0])], [np.zeros(2)], 0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_momentum_step([p], [np.array([1.0, 1.0])], [np.zeros(3)], 0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_momentum_step([p], [], [np.zeros(2)], 0.1, 0.0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            base_config(learning_rate=0.0)
        with pytest.raises(ConfigError):
            base_config(momentum=1.0)
        with pytest.raises(ConfigError):
            base_config(momentum=-0.1)
        with pytest.raises(ConfigError):
            base_config(epochs=0)
        with pytest.raises(ConfigError):
            base_config(batch_size=3)  # below 2x2 group size
        with pytest.raises(ConfigError):
            base_config(decay_milestones=((2, 0.0),))
        with pytest.raises(ConfigError, match="magic"):
            base_config(sampler="magic")

    def test_lr_schedule(self):
        cfg = base_config(learning_rate=0.5,
                          decay_milestones=((2, 0.1), (4, 0.1)))
        assert cfg.lr_at(0) == 0.5
        assert cfg.lr_at(1) == 0.5
        assert abs(cfg.lr_at(2) - 0.05) <= 1e-15
        assert abs(cfg.lr_at(3) - 0.05) <= 1e-15
        assert abs(cfg.lr_at(5) - 0.005) <= 1e-15


class TestTrainLoop:
    def test_uniform_weights_match_erm_bitwise(self):
        train_set, test_set = toy_sets()
        cfg = base_config(epochs=3)
        model_a = fresh_model(train_set)
        model_b = fresh_model(train_set)
        assert params_hash(model_a) == params_hash(model_b)

        _, records_a = train(cfg, train_set, test_set, model_a)
        _, records_b = train_erm(cfg, train_set, test_set, model_b)

        assert params_hash(model_a) == params_hash(model_b)
        keys_a = [r.deterministic_key() for r in records_a]
        keys_b = [r.deterministic_key() for r in records_b]
        assert keys_a == keys_b

    def test_single_step_reduces_loss_from_constant_head(self):
        train_set, test_set = toy_sets(per_class=(8, 8), noise=0.0)
        model = fresh_model(train_set, hidden=())
        for p in model.parameters:
            p[...] = 0.0
        before = evaluate(model, train_set).mean_loss
        assert abs(before - math.log(2)) <= 1e-12
        cfg = base_config(batch_size=16, epochs=1, learning_rate=0.5,
                          momentum=0.0)
        train(cfg, train_set, test_set, model)
        after = evaluate(model, train_set).mean_loss
        assert after < before

    def test_forward_pass_accounting(self):
        # 20 samples, batch 8, groups of 4: batches of 8, 8, 4 hold
        # 2 + 2 + 1 composites; train forwards count every image.
        train_set, test_set = toy_sets(per_class=(10, 10))
        cfg = base_config(
            weighting=WeightingConfig(1.0, 0.5))
        _, records = train(cfg, train_set, test_set, fresh_model(train_set))
        train_rows = [r for r in records if r.split == "train"]
        for row in train_rows:
            assert row.train_forward_passes == 20
            assert row.ns_forward_passes == 5
            assert row.per_class_ns is not None
            assert row.ns_seconds > 0.0

    def test_no_scoring_when_rho_zero(self):
        train_set, test_set = toy_sets()
        _, records = train(base_config(), train_set, test_set,
                           fresh_model(train_set))
        for row in records:
            assert row.ns_forward_passes == 0
            assert row.per_class_ns is None
            assert row.ns_seconds == 0.0

    def test_competition_weights_change_the_trajectory(self):
        train_set, test_set = toy_sets()
        uniform = fresh_model(train_set)
        weighted = fresh_model(train_set)
        train(base_config(epochs=1), train_set, test_set, uniform)
        train(base_config(
            epochs=1, weighting=WeightingConfig(1.0, 1.0)),
            train_set, test_set, weighted)
        assert params_hash(uniform) != params_hash(weighted)

    def test_deterministic_rerun(self):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(0.7, 1.0),
            sampler="cbs")
        model_a = fresh_model(train_set)
        model_b = fresh_model(train_set)
        _, records_a = train(cfg, train_set, test_set, model_a)
        _, records_b = train(cfg, train_set, test_set, model_b)
        assert params_hash(model_a) == params_hash(model_b)
        assert [r.deterministic_key() for r in records_a] == \
            [r.deterministic_key() for r in records_b]

    def test_pbs_runs_every_epoch_of_a_code_built_config(self):
        # pbs slides towards uniform over TrainConfig.epochs, the one
        # home of the run's length.
        train_set, test_set = toy_sets(per_class=(12, 4))
        cfg = base_config(epochs=4, sampler="pbs")
        _, records = train(cfg, train_set, test_set, fresh_model(train_set))
        assert [r.epoch for r in records if r.split == "train"] == \
            [0, 1, 2, 3]

    def test_divergence_reports_epoch_and_step(self):
        # One enormous step sends the hidden-layer weights to ~1e250;
        # the next forward multiplies two such matrices into overflow.
        train_set, test_set = toy_sets(per_class=(8, 8))
        model = fresh_model(train_set, hidden=(8,))
        cfg = base_config(batch_size=4, epochs=1, learning_rate=1e250,
                          momentum=0.0, layout=GridLayout(1, 2))
        with pytest.raises(TrainingDiverged) as info:
            train(cfg, train_set, test_set, model)
        assert info.value.epoch == 0
        assert info.value.step >= 1
        assert info.value.quantity

    def test_score_sink_sees_batches_but_cannot_perturb(self):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(1.0, -1.0))
        plain = fresh_model(train_set)
        observed = fresh_model(train_set)
        _, plain_records = train(cfg, train_set, test_set, plain)

        steps = []

        def sink(record):
            steps.append(record)
            record.weights[:] = 0.0  # must not leak back into training

        _, records = train(cfg, train_set, test_set, observed,
                           score_sink=sink)
        assert params_hash(observed) == params_hash(plain)
        assert [r.deterministic_key() for r in records] == \
            [r.deterministic_key() for r in plain_records]
        # 20 samples in batches of 8: three scored steps per epoch
        assert [(s.epoch, s.step) for s in steps] == \
            [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (1, 5)]
        for s in steps:
            assert s.weights.shape == s.ns.score.shape == s.indices.shape
            assert np.array_equal(s.labels, train_set.labels[s.indices])
            assert s.ns_seconds > 0.0

    def test_step_tape_is_released_before_scoring_and_evaluation(
            self, monkeypatch):
        # A step's tape holds its batch's activations: it must be gone
        # when the next batch is scored and when each evaluation starts.
        tapes, live_at = [], []
        real_backward = natsel.trainer.backward

        def recording_backward(tape, root):
            tapes.append(weakref.ref(tape))
            return real_backward(tape, root)

        def checking(phase, original):
            def wrapper(*args, **kwargs):
                live_at.append((phase, sum(t() is not None for t in tapes)))
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(natsel.trainer, "backward", recording_backward)
        for name in ("batch_ns_scores", "evaluate"):
            monkeypatch.setattr(natsel.trainer, name, checking(
                name, getattr(natsel.trainer, name)))
        train_set, test_set = toy_sets()
        cfg = base_config(weighting=WeightingConfig(1.0, 0.5))
        train(cfg, train_set, test_set, fresh_model(train_set))
        # 20 samples in batches of 8: three steps and scorings per epoch
        assert len(tapes) == 6
        assert [phase for phase, _ in live_at].count("batch_ns_scores") == 6
        assert [phase for phase, _ in live_at].count("evaluate") == 2
        assert all(live == 0 for _, live in live_at)

    def test_input_validation(self):
        train_set, test_set = toy_sets()
        wrong = Classifier(ClassifierConfig(
            input_shape=(5, 5, 1), hidden=(), class_count=2, init_seed=0))
        with pytest.raises(ConfigError):
            train(base_config(), train_set, test_set, wrong)
        empty = train_set.subset([])
        with pytest.raises(ConfigError):
            train(base_config(), empty, test_set, fresh_model(train_set))


class TestConvTraining:
    """A tiny conv model through the real loops: 8x8x3 input, one 3x3
    stage with 4 channels, paired groups, two epochs."""

    def setup_method(self):
        self.train_set, self.test_set = toy_sets(
            per_class=(6, 6, 6), noise=0.3, shape=(8, 8, 3))

    def conv_model(self):
        return Classifier(ClassifierConfig(
            input_shape=(8, 8, 3), hidden=(5,), class_count=3, init_seed=7,
            conv=ConvSpec(kernel=3, channels=4)))

    def conv_config(self, sigma, rho):
        return base_config(learning_rate=0.05, layout=GridLayout(1, 2),
                           weighting=WeightingConfig(sigma, rho))

    def test_rho_zero_matches_erm_bitwise(self):
        cfg = self.conv_config(1.0, 0.0)
        model_a, model_b = self.conv_model(), self.conv_model()
        _, records_a = train(cfg, self.train_set, self.test_set, model_a)
        _, records_b = train_erm(cfg, self.train_set, self.test_set, model_b)
        assert params_hash(model_a) == params_hash(model_b)
        assert params_hash(model_a) != params_hash(self.conv_model())
        assert [r.deterministic_key() for r in records_a] == \
            [r.deterministic_key() for r in records_b]

    def test_weighted_rerun_gives_identical_checkpoint(self, tmp_path):
        cfg = self.conv_config(2.5, -1.0)
        blobs = []
        for name in ("a.bin", "b.bin"):
            model = self.conv_model()
            _, records = train(cfg, self.train_set, self.test_set, model)
            assert records[0].ns_forward_passes > 0
            save_checkpoint(model, tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


class TestConvTrainingMultiBlock(TestConvTraining):
    """The same checks with a conv budget that gives 2-image blocks, so
    every training batch, composite stack and test split spans several
    blocks, and the untaped forward streams the 12-image test split as
    chunks of 8 and 4 images."""

    @pytest.fixture(autouse=True)
    def two_image_blocks(self, monkeypatch):
        model = self.conv_model()
        monkeypatch.setattr(natsel.model, "_BLOCK_BYTES",
                            2 * model._conv_bytes_per_image())
        assert model._conv_step() == 2


def traced_peak_mb(fn) -> float:
    """Peak traced allocation while ``fn()`` runs, above what was live
    before, in MB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


class TestConvMemory:
    """Allocation peaks of a CIFAR-shaped conv model (32x32x3, 3x3 kernel,
    8 channels, hidden 32).  A full patch matrix is 194 kB per image,
    39 MB for 200 images and 6.2 MB for 32, so building one for a whole
    batch, or keeping one until the pullback, breaks these bounds."""

    def setup_method(self):
        self.model = Classifier(ClassifierConfig(
            input_shape=(32, 32, 3), hidden=(32,), class_count=10,
            init_seed=3, conv=ConvSpec(kernel=3, channels=8)))
        self.rng = np.random.default_rng(17)

    def test_evaluate_200_images(self):
        # about 55 MB with a full patch matrix, 12.5 MB with blocks
        dataset = Dataset(images=self.rng.random((200, 32, 32, 3)),
                          labels=self.rng.integers(0, 10, 200),
                          clean_labels=self.rng.integers(0, 10, 200),
                          class_count=10)
        assert traced_peak_mb(lambda: evaluate(self.model, dataset)) < 24.0

    def test_taped_step_32_images(self):
        # forward and loss: about 10.9 MB with full-batch patch rows and
        # 3.1 MB with blocks; with backward, 13.9 MB and 7.3 MB
        images = self.rng.random((32, 32, 32, 3))
        labels = self.rng.integers(0, 10, 32)

        def taped():
            return _taped_step(self.model, images, labels, np.ones(32),
                               LossConfig())

        def with_backward():
            tape, loss, _ = taped()
            backward(tape, loss)

        assert traced_peak_mb(taped) < 7.0
        assert traced_peak_mb(with_backward) < 11.0

    def cifar_set(self, n: int) -> Dataset:
        return Dataset(images=self.rng.random((n, 32, 32, 3)),
                       labels=self.rng.integers(0, 10, n),
                       clean_labels=self.rng.integers(0, 10, n),
                       class_count=10)

    def test_evaluate_200_images_streams_conv_activations(self):
        # about 12.5 MB with the activations of the whole split, 2.9 MB
        # with one 32-image chunk of them at a time
        dataset = self.cifar_set(200)
        assert traced_peak_mb(lambda: evaluate(self.model, dataset)) < 4.0

    def test_duality_check_1000_images(self):
        # about 58.7 MB with the activations of the whole dataset, 3.2 MB
        # streamed
        dataset = self.cifar_set(1000)
        other = Classifier(replace(self.model.config, init_seed=4))
        assert traced_peak_mb(lambda: duality_check(
            [self.model, other], dataset, fitness_ceiling=1e6)) < 5.0


class TestEvaluate:
    def test_perfect_model_scores_one(self):
        train_set, _ = toy_sets(noise=0.0)
        model = centroid_model(train_set)
        result = evaluate(model, train_set)
        assert result.accuracy == 1.0
        assert result.per_class_accuracy == (1.0, 1.0)

    def test_constant_logits_follow_tie_rule(self):
        train_set, _ = toy_sets(per_class=(3, 7), noise=0.0)
        model = fresh_model(train_set, hidden=())
        for p in model.parameters:
            p[...] = 0.0
        result = evaluate(model, train_set)
        assert result.accuracy == 0.3  # everything predicted class 0
        assert result.per_class_accuracy == (1.0, 0.0)

    def test_per_class_accuracies_recombine(self):
        train_set, test_set = toy_sets(per_class=(12, 5), noise=0.1)
        model = fresh_model(train_set)
        result = evaluate(model, train_set)
        counts = train_set.label_counts()
        recombined = float(np.dot(result.per_class_accuracy, counts) /
                           counts.sum())
        assert abs(recombined - result.accuracy) <= 1e-12

    def test_loss_matches_configured_kind(self):
        train_set, _ = toy_sets(noise=0.0)
        model = fresh_model(train_set, hidden=())
        for p in model.parameters:
            p[...] = 0.0
        focal = evaluate(model, train_set,
                         LossConfig(kind="focal", focal_gamma=2.0))
        assert abs(focal.mean_loss - 0.25 * math.log(2)) <= 1e-12

    def test_empty_dataset_rejected(self):
        train_set, _ = toy_sets()
        with pytest.raises(ConfigError):
            evaluate(fresh_model(train_set), train_set.subset([]))


class TestDuality:
    def dataset(self):
        settings = DataSettings(classes=2, height=4, width=4,
                                class_counts=(6, 6), noise_std=0.0,
                                test_per_class=1)
        return build_splits(settings, 5)[0]

    def test_two_settings_order_reversal(self):
        ds = self.dataset()
        sharp = centroid_model(ds, scale=4.0)
        soft = centroid_model(ds, scale=1.0)
        report = duality_check([soft, sharp], ds, fitness_ceiling=10.0)
        assert report.mean_risks[1] < report.mean_risks[0]
        assert report.mean_fitnesses[1] > report.mean_fitnesses[0]
        assert report.risk_order == (1, 0)
        assert report.fitness_order == (1, 0)
        assert report.spearman == -1.0

    def test_fully_tied_candidates_preserve_the_tie(self):
        ds = self.dataset()
        a = centroid_model(ds, scale=2.0)
        b = centroid_model(ds, scale=2.0)
        report = duality_check([a, b], ds, fitness_ceiling=10.0)
        assert report.mean_risks[0] == report.mean_risks[1]
        assert report.mean_fitnesses[0] == report.mean_fitnesses[1]
        assert report.risk_order == (0, 1)  # stable
        assert report.spearman is None

    def test_partial_tie_still_anticorrelates(self):
        ds = self.dataset()
        candidates = [centroid_model(ds, scale=2.0),
                      centroid_model(ds, scale=2.0),
                      centroid_model(ds, scale=8.0)]
        report = duality_check(candidates, ds, fitness_ceiling=10.0)
        assert report.spearman == -1.0

    def test_ceiling_independence(self):
        ds = self.dataset()
        candidates = [centroid_model(ds, scale=s) for s in (1.0, 2.0, 4.0)]
        orders = set()
        for ceiling in (1.0, 10.0, 100.0):
            report = duality_check(candidates, ds, fitness_ceiling=ceiling)
            orders.add((report.risk_order, report.fitness_order))
            assert report.spearman == -1.0
        assert len(orders) == 1

    def test_many_random_settings_hit_exact_minus_one(self):
        ds = self.dataset()
        candidates = [centroid_model(ds, scale=0.5 * (k + 1))
                      for k in range(10)]
        report = duality_check(candidates, ds, fitness_ceiling=5.0)
        assert report.spearman == -1.0
        assert report.risk_order == report.fitness_order

    def test_ceiling_must_clear_max_loss(self):
        ds = self.dataset()
        model = centroid_model(ds, scale=1.0)
        with pytest.raises(ConfigError):
            duality_check([model], ds, fitness_ceiling=1e-6)

    def test_needs_candidates(self):
        with pytest.raises(ConfigError):
            duality_check([], self.dataset(), fitness_ceiling=10.0)


class TestTrainRecord:
    def steps(self, scored):
        """Two steps over three classes; class 2 is never seen."""
        ns = [None, None]
        if scored:
            ns = [NSResult(np.full(3, 0.5), np.array([0.25, 0.75, 0.5]),
                           np.array([0, 0, -1]), 1),
                  NSResult(np.full(2, 0.5), np.array([0.4, 0.6]),
                           np.array([0, 0]), 1)]
        return [
            _Step(4, 10, np.array([3, 1, 7]), np.array([0, 1, 0]),
                  np.array([0, 0, 0]), 0.5, ns[0], None, 0.125 * scored),
            _Step(4, 11, np.array([2, 5]), np.array([1, 0]),
                  np.array([1, 0]), 1.0, ns[1], None, 0.25 * scored),
        ]

    @pytest.mark.parametrize("scored", [True, False])
    def test_matches_hand_computed_values(self, scored):
        record = _train_record(self.steps(scored), 3, time.perf_counter())
        assert record.epoch == 4 and record.split == "train"
        assert record.mean_loss == (0.5 * 3 + 1.0 * 2) / 5
        assert record.accuracy == 4 / 5
        assert record.per_class_accuracy == (1.0, 0.5, 0.0)
        assert record.train_forward_passes == 5
        assert record.seconds >= 0.0
        if scored:
            assert record.per_class_ns == ((0.25 + 0.5 + 0.6) / 3,
                                           (0.75 + 0.4) / 2, 0.0)
            assert record.ns_forward_passes == 2
            assert record.ns_seconds == 0.375
        else:
            assert record.per_class_ns is None
            assert record.ns_forward_passes == 0
            assert record.ns_seconds == 0.0


class TestMetricsIO:
    def records(self):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(1.0, 1.0))
        _, records = train(cfg, train_set, test_set, fresh_model(train_set))
        return records

    def test_round_trip(self, tmp_path):
        records = self.records()
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        assert read_metrics_csv(path) == records

    # An empty per-class vector, a missing one and float wall-clock
    # columns.
    PINNED = [
        MetricsRecord(0, "train", 0.6931471805599453, 0.5, (0.25, 0.75),
                      (0.1, 0.9), 1.5, 8, 4, 0.25),
        MetricsRecord(0, "test", 1.0000000000000002, 0.0, (), None,
                      0.125, 0, 0, 0.0),
    ]

    def test_writes_the_pinned_text(self, tmp_path):
        # Each record in the text the metrics format has always had.
        records = self.PINNED
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        assert path.read_bytes() == (
            b"epoch,split,mean_loss,accuracy,per_class_accuracy,"
            b"per_class_ns,seconds,train_forward_passes,ns_forward_passes,"
            b"ns_seconds\r\n"
            b"0,train,0.6931471805599453,0.5,0.25;0.75,0.1;0.9,1.5,8,4,0.25"
            b"\r\n"
            b"0,test,1.0000000000000002,0.0,,,0.125,0,0,0.0\r\n")
        assert read_metrics_csv(path) == records

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_metrics_csv(path)

    @pytest.mark.parametrize("row,problem", [
        ("0,train,0.5", "3 cells, expected 10"),
        ("1,test,x,0.5,0.5;0.5,,1.0,0,0,0.0", "could not convert"),
    ], ids=["short_row", "non_numeric_cell"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.PINNED)
        with open(path, "a", newline="") as fh:
            fh.write(row + "\r\n")
        with pytest.raises(ConfigError) as info:
            read_metrics_csv(path)
        assert str(info.value).startswith(f"{path}, line 4: {problem}")

    def test_deterministic_bytes_ignore_wall_clock(self, tmp_path):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(0.7, 1.0))
        paths = []
        for run in range(2):
            _, records = train(cfg, train_set, test_set,
                               fresh_model(train_set))
            path = tmp_path / f"metrics_{run}.csv"
            write_metrics_csv(path, records)
            paths.append(path)
        stripped = [deterministic_csv_bytes(p) for p in paths]
        assert stripped[0] == stripped[1]
        header = stripped[0].decode().splitlines()[0]
        assert "seconds" not in header
        assert "mean_loss" in header

    def test_deterministic_key_excludes_timing(self):
        base = dict(epoch=0, split="train", mean_loss=1.0, accuracy=0.5,
                    per_class_accuracy=(0.5, 0.5), per_class_ns=None,
                    train_forward_passes=10, ns_forward_passes=2)
        a = MetricsRecord(seconds=1.0, ns_seconds=0.1, **base)
        b = MetricsRecord(seconds=9.9, ns_seconds=2.2, **base)
        assert a.deterministic_key() == b.deterministic_key()
        assert a != b
