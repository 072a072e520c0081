"""Training loop, optimizer, evaluation, duality, and metrics I/O."""

import math
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import natsel.model
import natsel.trainer
from natsel.config import classifier_for, datasets_for, parse_config, set_keys
from natsel.data import Dataset, DataSettings, build_splits
from natsel.errors import (
    ConfigError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from natsel.imageops import GridLayout
from natsel.model import (
    Classifier,
    ClassifierConfig,
    ConvSpec,
    LossConfig,
    sample_losses,
    save_checkpoint,
)
from natsel.nscore import NSResult
from natsel.tensor import GradTape, backward
from natsel.trainer import (
    MetricsRecord,
    Run,
    TrainConfig,
    _class_means,
    _ranks,
    _spearman,
    _Step,
    _train_record,
    deterministic_csv_bytes,
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
    deterministic_key,
    duality_check,
    finite_difference,
    loop_ranks,
    loss_oracle,
    max_relative_error,
    params_hash,
    softmax_vector,
    subset,
    taped_gradients,
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


SEED = 11
REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"


def base_config(**overrides):
    base = dict(batch_size=8, epochs=2, learning_rate=0.5, momentum=0.9,
                layout=GridLayout(2, 2),
                weighting=WeightingConfig(1.0, 0.0))
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
                                   [label], [1.0], tape=GradTape()).item()

    def test_unit_weights_give_plain_mean(self):
        z = self.logits(3)
        labels = [1, 4, 0]
        got = weighted_batch_loss(z, labels, np.ones(3),
                                  tape=GradTape()).item()
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
        uniform = weighted_batch_loss(z, labels, np.ones(4),
                                      tape=GradTape()).item()
        scaled = weighted_batch_loss(z, labels, np.full(4, 2.0),
                                     tape=GradTape()).item()
        assert scaled == 2.0 * uniform

    def test_zero_weight_drops_sample(self):
        z = self.logits(2)
        got = weighted_batch_loss(z, [3, 1], np.array([2.0, 0.0]),
                                  tape=GradTape()).item()
        assert got == self.single(z, 0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_batch_loss(self.logits(1), [0], np.ones(2),
                                tape=GradTape())
        with pytest.raises(ShapeError):
            weighted_batch_loss(self.logits(2), [0], np.ones(2),
                                tape=GradTape())
        with pytest.raises(ShapeError):
            weighted_batch_loss(np.zeros((0, 5)), [], np.ones(0),
                                tape=GradTape())

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

        analytic = taped_gradients(taped, [z])
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
        tape.register(model.vector)
        logits = model.forward_batch(train_set.images, tape=tape)
        taped = weighted_batch_loss(logits, train_set.labels,
                                    np.ones(len(train_set)), cfg,
                                    tape=tape).item()
        untaped = float(np.sum(np.ones(len(train_set)) * sample_losses(
            logits, train_set.labels, cfg))) / len(train_set)
        assert untaped == taped
        assert evaluate(model, train_set, cfg).mean_loss == taped
        report = duality_check([model], train_set, fitness_ceiling=100.0,
                               loss_cfg=cfg)
        assert report.mean_risks[0] == taped


class TestSgdMomentumStep:
    def test_zero_momentum_is_plain_descent(self):
        p = np.array([1.0, -2.0])
        sgd_momentum_step(p, np.array([0.5, 0.5]), np.zeros(2), 0.1, 0.0)
        assert np.max(np.abs(p - [0.95, -2.05])) <= 1e-15

    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        sgd_momentum_step(p, np.array([0.0, 0.0]), np.zeros(2), 0.1, 0.9)
        assert p.tolist() == [1.0, 2.0]

    def test_two_step_hand_recurrence(self):
        # f(t) = t^2/2 so g = t; eta=0.1, mu=0.9 from t0=1.0:
        #   v1 = 1.0        t1 = 1.0 - 0.1*1.0   = 0.9
        #   v2 = 0.9 + 0.9  t2 = 0.9 - 0.1*1.8   = 0.72
        p = np.array(1.0)
        v = np.zeros(())
        sgd_momentum_step(p, p.copy(), v, 0.1, 0.9)
        assert abs(p.item() - 0.9) <= 1e-15
        sgd_momentum_step(p, p.copy(), v, 0.1, 0.9)
        assert abs(p.item() - 0.72) <= 1e-15

    def test_velocity_updated_in_place(self):
        # The gradient is spent: it ends holding eta*v.
        p = np.array([0.0])
        v = np.array([1.0])
        g = np.array([1.0])
        sgd_momentum_step(p, g, v, 1.0, 0.5)
        assert v.tolist() == [1.5]
        assert p.tolist() == [-1.5]
        assert g.tolist() == [1.5]

    def test_shape_validation(self):
        p = np.array([1.0, 2.0])
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, np.array([1.0]), np.zeros(2), 0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, np.array([1.0, 1.0]), np.zeros(3), 0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, np.array([]), np.zeros(2), 0.1, 0.0)
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, np.ones((1, 2)), np.zeros((1, 2)), 0.1, 0.0)
        assert p.tolist() == [1.0, 2.0]

    def test_stacked_update_is_each_run_alone(self):
        # One [S, P] update of three runs gives each run the bits of its
        # own [P] update.
        rng = np.random.default_rng(31)
        vector, grad, velocity = (rng.normal(size=(3, 50)) for _ in range(3))
        alone = [(vector[r].copy(), grad[r].copy(), velocity[r].copy())
                 for r in range(3)]
        sgd_momentum_step(vector, grad, velocity, 0.05, 0.9)
        for r, (p, g, v) in enumerate(alone):
            sgd_momentum_step(p, g, v, 0.05, 0.9)
            assert np.array_equal(vector[r], p)
            assert np.array_equal(velocity[r], v)

    def test_update_allocates_no_parameter_sized_temporary(self):
        # The conv_longtail classifier (32x32x3, 3x3 kernel, 8 channels,
        # hidden 32) has 230,986 parameters, 1.8 MB; eta*v goes into the
        # spent gradient instead of a temporary that size.
        model = Classifier(ClassifierConfig(
            input_shape=(32, 32, 3), hidden=(32,), class_count=10,
            init_seed=3, conv=ConvSpec(kernel=3, channels=8)))
        grad = np.random.default_rng(5).normal(size=model.vector.shape)
        velocity = np.zeros_like(model.vector)
        parameter_mb = model.vector.nbytes / 1e6
        assert parameter_mb > 1.8
        assert traced_peak_mb(lambda: sgd_momentum_step(
            model.vector, grad, velocity, 0.01, 0.9)) < 0.1 * parameter_mb


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

        (records_a,) = train(cfg, [Run(SEED, train_set, test_set, model_a)])
        _, records_b = train_erm(cfg, SEED, train_set, test_set, model_b)

        assert params_hash(model_a) == params_hash(model_b)
        keys_a = [deterministic_key(r) for r in records_a]
        keys_b = [deterministic_key(r) for r in records_b]
        assert keys_a == keys_b

    def test_int32_labels_train_as_int64_labels_do(self):
        train_set, test_set = toy_sets()
        narrow = [replace(split, labels=split.labels.astype(np.int32),
                          clean_labels=split.clean_labels.astype(np.int32))
                  for split in (train_set, test_set)]
        cfg = base_config(weighting=WeightingConfig(1.0, 0.5))
        model_a, model_b = fresh_model(train_set), fresh_model(train_set)
        (records_a,) = train(cfg, [Run(SEED, train_set, test_set, model_a)])
        (records_b,) = train(cfg, [Run(SEED, *narrow, model_b)])
        assert params_hash(model_a) == params_hash(model_b)
        assert ([deterministic_key(r) for r in records_a]
                == [deterministic_key(r) for r in records_b])

    def test_single_step_reduces_loss_from_constant_head(self):
        train_set, test_set = toy_sets(per_class=(8, 8), noise=0.0)
        model = fresh_model(train_set, hidden=())
        for p in model.parameters:
            p[...] = 0.0
        before = evaluate(model, train_set).mean_loss
        assert abs(before - math.log(2)) <= 1e-12
        cfg = base_config(batch_size=16, epochs=1, learning_rate=0.5,
                          momentum=0.0)
        train(cfg, [Run(SEED, train_set, test_set, model)])
        after = evaluate(model, train_set).mean_loss
        assert after < before

    def test_forward_pass_accounting(self):
        # 20 samples, batch 8, groups of 4: batches of 8, 8, 4 hold
        # 2 + 2 + 1 composites; train forwards count every image.
        train_set, test_set = toy_sets(per_class=(10, 10))
        cfg = base_config(
            weighting=WeightingConfig(1.0, 0.5))
        (records,) = train(cfg, [Run(SEED, train_set, test_set,
                                     fresh_model(train_set))])
        train_rows = [r for r in records if r.split == "train"]
        for row in train_rows:
            assert row.train_forward_passes == 20
            assert row.ns_forward_passes == 5
            assert row.per_class_ns is not None
            assert row.ns_seconds > 0.0

    def test_no_scoring_when_rho_zero(self):
        train_set, test_set = toy_sets()
        (records,) = train(base_config(), [Run(SEED, train_set, test_set,
                                               fresh_model(train_set))])
        for row in records:
            assert row.ns_forward_passes == 0
            assert row.per_class_ns is None
            assert row.ns_seconds == 0.0

    def test_competition_weights_change_the_trajectory(self):
        train_set, test_set = toy_sets()
        uniform = fresh_model(train_set)
        weighted = fresh_model(train_set)
        train(base_config(epochs=1), [Run(SEED, train_set, test_set, uniform)])
        train(base_config(epochs=1, weighting=WeightingConfig(1.0, 1.0)),
              [Run(SEED, train_set, test_set, weighted)])
        assert params_hash(uniform) != params_hash(weighted)

    def test_deterministic_rerun(self):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(0.7, 1.0),
            sampler="cbs")
        model_a = fresh_model(train_set)
        model_b = fresh_model(train_set)
        (records_a,) = train(cfg, [Run(SEED, train_set, test_set, model_a)])
        (records_b,) = train(cfg, [Run(SEED, train_set, test_set, model_b)])
        assert params_hash(model_a) == params_hash(model_b)
        assert [deterministic_key(r) for r in records_a] == \
            [deterministic_key(r) for r in records_b]

    def test_pbs_runs_every_epoch_of_a_code_built_config(self):
        # pbs slides towards uniform over TrainConfig.epochs, the one
        # home of the run's length.
        train_set, test_set = toy_sets(per_class=(12, 4))
        cfg = base_config(epochs=4, sampler="pbs")
        (records,) = train(cfg, [Run(SEED, train_set, test_set,
                                     fresh_model(train_set))])
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
            train(cfg, [Run(SEED, train_set, test_set, model)])
        assert info.value.epoch == 0
        assert info.value.step >= 1
        assert info.value.quantity

    def test_score_sink_sees_batches_but_cannot_perturb(self):
        train_set, test_set = toy_sets()
        cfg = base_config(
            weighting=WeightingConfig(1.0, -1.0))
        plain = fresh_model(train_set)
        observed = fresh_model(train_set)
        (plain_records,) = train(cfg, [Run(SEED, train_set, test_set, plain)])

        steps = []

        def sink(record):
            steps.append(record)
            record.weights[:] = 0.0  # must not leak back into training

        (records,) = train(cfg, [Run(SEED, train_set, test_set, observed,
                                     sink)])
        assert params_hash(observed) == params_hash(plain)
        assert [deterministic_key(r) for r in records] == \
            [deterministic_key(r) for r in plain_records]
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

        def recording_backward(tape):
            tapes.append(weakref.ref(tape))
            return real_backward(tape)

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
        train(cfg, [Run(SEED, train_set, test_set, fresh_model(train_set))])
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
            train(base_config(), [Run(SEED, train_set, test_set, wrong)])
        empty = subset(train_set, [])
        with pytest.raises(ConfigError):
            train(base_config(), [Run(SEED, empty, test_set,
                                      fresh_model(train_set))])

    @pytest.mark.parametrize("split,fault", [
        ("test", "9x9 images"), ("test", "K+1 classes"),
        ("train", "K+1 classes"), ("test", "label K"), ("train", "label K"),
        ("test", "empty")])
    def test_bad_split_fails_before_the_first_step(self, split, fault,
                                                   monkeypatch):
        # Without the up-front check, a bad test split would raise only at
        # the first evaluation, and a train label K at its batch.  A label
        # out of a split's own range never gets here: Dataset rejects it
        # (test_data, TestDatasetType); "label K" is a split of K+1 classes
        # that holds label K, one past the model's last class.  evaluate
        # makes the same check of a test split before its forward pass:
        # it once returned K+1 per-class accuracies for such a split.
        sets = dict(zip(("train", "test"), toy_sets()))
        model = fresh_model(sets["train"])
        bad = sets[split]
        if fault == "9x9 images":
            sets[split] = replace(bad, images=np.zeros((len(bad), 9, 9, 1)))
        elif fault == "K+1 classes":
            sets[split] = replace(bad, class_count=bad.class_count + 1)
        elif fault == "empty":
            sets[split] = subset(bad, [])
        else:
            labels = bad.labels.copy()
            labels[-1] = bad.class_count
            sets[split] = replace(bad, labels=labels, clean_labels=labels,
                                  class_count=bad.class_count + 1)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass before the split check")

        monkeypatch.setattr(Classifier, "forward_batch", no_forward)
        seen = []
        with pytest.raises(ConfigError, match=split) as trained:
            train(base_config(weighting=WeightingConfig(1.0, 0.5)), [Run(
                SEED, sets["train"], sets["test"], model, seen.append)])
        assert seen == []
        if split == "test":
            with pytest.raises(ConfigError) as evaluated:
                evaluate(model, sets["test"])
            assert str(evaluated.value) == str(trained.value)

    @pytest.mark.parametrize("keys,quantity", [
        ({"weighting.sigma": "1e307", "weighting.rho": "0"}, "batch loss"),
        ({"train.batch_size": "1000", "train.learning_rate": "1e200"},
         "softmax of non-finite logits")], ids=["batch loss", "evaluated"])
    def test_reference_overflow_names_its_seed(self, keys, quantity):
        # sigma = 1e307 weights the first batch's finite losses past the
        # float range.  A rate of 1e200 on an epoch of one batch (the
        # split's 1,000 samples) overflows the parameters at that step,
        # which the epoch's evaluation meets first.  The library's
        # finiteness checks report each overflow, and numpy warns of none:
        # the suite raises every RuntimeWarning.
        config = set_keys(parse_config(REFERENCE.read_text()), keys)
        seed = config.seeds[0]
        train_set, test_set = datasets_for(config, seed)
        model = Classifier(classifier_for(
            config, seed, image_shape=train_set.image_shape,
            class_count=train_set.class_count))
        with pytest.raises(TrainingDiverged) as info:
            train(config.train, [Run(seed, train_set, test_set, model)])
        assert (info.value.seed, info.value.epoch, info.value.step,
                info.value.quantity) == (seed, 0, 0, quantity)


class TestLockstep:
    """Three runs trained as one stack against each run trained alone.
    The runs differ in seed only: their own data, init and epoch order."""

    SEEDS = (11, 12, 13)

    def runs(self, sinks=(None, None, None), hidden=(6,)):
        runs = []
        for seed, sink in zip(self.SEEDS, sinks):
            train_set, test_set = toy_sets(seed=seed)
            runs.append(Run(seed, train_set, test_set,
                            fresh_model(train_set, hidden, init_seed=seed),
                            sink))
        return runs

    @pytest.mark.parametrize("weighting,sampler", [
        (WeightingConfig(1.0, 0.0), "instance_uniform"),
        (WeightingConfig(0.7, 1.0), "instance_uniform"),
        (WeightingConfig(2.5, -1.0), "cbs"),
    ], ids=["plain", "ns_ws", "ns_lf_cbs"])
    def test_each_run_of_a_stack_has_the_bits_of_the_run_alone(
            self, weighting, sampler):
        cfg = base_config(epochs=3, weighting=weighting, sampler=sampler)
        logs = [[], [], []]
        stacked = self.runs([log.append for log in logs])
        stacked_records = train(cfg, stacked)
        for run, records, log in zip(stacked, stacked_records, logs):
            alone_log = []
            alone = self.runs([alone_log.append] * 3)[
                self.SEEDS.index(run.seed)]
            (alone_records,) = train(cfg, [alone])
            assert params_hash(run.model) == params_hash(alone.model)
            assert [deterministic_key(r) for r in records] == \
                [deterministic_key(r) for r in alone_records]
            assert len(log) == len(alone_log)
            for got, want in zip(log, alone_log):
                assert (got.epoch, got.step, got.loss) == \
                    (want.epoch, want.step, want.loss)
                for name in ("indices", "labels", "predictions", "weights"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name))
                assert np.array_equal(got.ns.score, want.ns.score)

    def test_rho_zero_stack_matches_erm_bitwise(self):
        cfg = base_config(epochs=3)
        stacked = self.runs()
        for run, records in zip(stacked, train(cfg, stacked)):
            reference = fresh_model(run.train_set, init_seed=run.seed)
            _, erm_records = train_erm(cfg, run.seed, run.train_set,
                                       run.test_set, reference)
            assert params_hash(run.model) == params_hash(reference)
            assert [deterministic_key(r) for r in records] == \
                [deterministic_key(r) for r in erm_records]

    def test_models_end_as_views_of_one_trained_stack(self):
        stacked = self.runs()
        before = [params_hash(run.model) for run in stacked]
        per_run = train(base_config(epochs=1), stacked)
        for run, records, start in zip(stacked, per_run, before):
            assert params_hash(run.model) != start
            assert all(p.base is not None for p in run.model.parameters)
            assert evaluate(run.model, run.test_set).accuracy == \
                records[-1].accuracy
        first, second = (run.model.parameters[0] for run in stacked[:2])
        assert first.base is second.base

    def test_train_rows_time_equal_shares_of_the_epoch(self):
        # Each run's share of the stack's epoch, so the rows of all runs
        # add up to no more than the wall time of the call.
        cfg = base_config(epochs=2, weighting=WeightingConfig(1.0, 0.5))
        runs = self.runs()
        started = time.perf_counter()
        per_run = train(cfg, runs)
        wall = time.perf_counter() - started
        for epoch in (0, 2):
            rows = [records[epoch] for records in per_run]
            assert {row.split for row in rows} == {"train"}
            assert len({row.seconds for row in rows}) == 1
            assert all(row.ns_seconds < row.seconds for row in rows)
        assert sum(r.seconds for records in per_run for r in records) < wall

    def test_the_score_sink_runs_inside_the_epoch_timer(self):
        # Work that train does outside its epoch timer and outside
        # evaluate would show in a traced span of the epoch loop but not
        # in the row's seconds, which the benchmark's traced check
        # compares.  So a sink's time must land in the row.
        pause, seen = 0.01, []

        def sink(step):
            seen.append(step.epoch)
            time.sleep(pause)

        (run,) = self.runs([sink])
        cfg = base_config(weighting=WeightingConfig(1.0, 0.5))
        rows = [row for row in train(cfg, [run])[0] if row.split == "train"]
        assert [row.epoch for row in rows] == [0, 1]
        for row in rows:
            assert seen.count(row.epoch) == 3
            assert row.seconds >= pause * seen.count(row.epoch)

    @pytest.mark.parametrize("rho,split,where", [
        (0.0, "train_set", (0, 0)), (1.0, "train_set", (0, 0)),
        (0.0, "test_set", (0, 2))], ids=["taped", "scored", "evaluated"])
    def test_divergence_names_the_seed_of_its_run(self, rho, split, where):
        # A NaN pixel in the second run's data: the taped forward meets
        # it at rho = 0, the composite scoring first otherwise, and the
        # evaluation after the epoch's last step (20 samples, batches of
        # 8: steps 0-2) if it is in the test split.  A Dataset rejects
        # NaN images, so the NaN goes into the built split in place.
        stacked = self.runs()
        getattr(stacked[1], split).images[:] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            train(base_config(weighting=WeightingConfig(1.0, rho)), stacked)
        assert info.value.seed == 12
        assert "seed 12" in str(info.value)
        assert (info.value.epoch, info.value.step) == where

    def test_runs_must_share_all_but_their_seeds(self):
        cfg = base_config()
        with pytest.raises(ConfigError, match="at least one run"):
            train(cfg, [])
        runs = self.runs()
        runs[1] = runs[1]._replace(
            train_set=subset(runs[1].train_set, range(12)))
        with pytest.raises(ConfigError, match="one length"):
            train(cfg, runs)
        runs = self.runs()
        runs[0] = runs[0]._replace(model=fresh_model(runs[0].train_set,
                                                     hidden=(5,)))
        with pytest.raises(ConfigError, match="init_seed"):
            train(cfg, runs)
        runs = self.runs()
        runs[2] = runs[2]._replace(model=runs[0].model)
        with pytest.raises(ConfigError, match="twice"):
            train(cfg, runs)


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
        (records_a,) = train(cfg, [Run(SEED, self.train_set, self.test_set,
                                       model_a)])
        _, records_b = train_erm(cfg, SEED, self.train_set, self.test_set,
                                 model_b)
        assert params_hash(model_a) == params_hash(model_b)
        assert params_hash(model_a) != params_hash(self.conv_model())
        assert [deterministic_key(r) for r in records_a] == \
            [deterministic_key(r) for r in records_b]

    def test_weighted_rerun_gives_identical_checkpoint(self, tmp_path):
        cfg = self.conv_config(2.5, -1.0)
        blobs = []
        for name in ("a.bin", "b.bin"):
            model = self.conv_model()
            (records,) = train(cfg, [Run(SEED, self.train_set, self.test_set,
                                         model)])
            assert records[0].ns_forward_passes > 0
            save_checkpoint(model, tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]


class TestConvTrainingMultiBlock(TestConvTraining):
    """The same checks with a conv budget that gives 2-image blocks, so
    every training batch, composite stack and test split spans several
    blocks.  The budget is set before any model is built, since a model
    fixes its blocking at construction."""

    @pytest.fixture(autouse=True)
    def two_image_blocks(self, monkeypatch):
        # float64 per 8x8x3 image: channel planes 3 x (8*8 + 2), patch
        # columns (27 + 1 ones row) x (6*8) and pre-activations (6*8) x 4
        per_image = 8 * (3 * 66 + 28 * 48 + 48 * 4)
        monkeypatch.setattr(natsel.model, "_BLOCK_BYTES", 2 * per_image)
        assert self.conv_model()._block == 2


class TestRanks:
    @pytest.mark.parametrize("n,levels", [(0, None), (1, None), (7, None),
                                          (1000, None), (50, 3), (1000, 40)])
    def test_matches_the_per_value_loop(self, n, levels):
        # distinct values without levels, else n draws from that many
        rng = np.random.default_rng(n)
        values = (rng.standard_normal(n) if levels is None
                  else rng.integers(0, levels, n) * 0.1)
        assert np.array_equal(_ranks(values), loop_ranks(values))

    def test_ties_share_their_mean_rank(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0])
        assert _ranks(values).tolist() == [5.0, 1.5, 5.0, 3.0, 5.0, 1.5]

    @pytest.mark.parametrize("constant", ["xs", "ys"])
    def test_spearman_of_constant_ranks_is_undefined(self, constant):
        # Every rank tied on one side: the correlation has no
        # denominator, and a number would hide that.
        values = {"xs": np.arange(4.0), "ys": np.arange(4.0)[::-1]}
        values[constant] = np.full(4, 0.5)
        with pytest.raises(ConfigError, match="constant ranks"):
            _spearman(values["xs"], values["ys"])


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

    def taped_step(self, images, labels):
        """The tape of one unweighted step, as ``train`` records it."""
        tape = GradTape()
        tape.register(self.model.vector)
        logits = self.model.forward_batch(images, tape=tape)
        weighted_batch_loss(logits, labels, np.ones(len(labels)), tape=tape)
        return tape

    def test_taped_step_32_images(self):
        # forward and loss: about 10.9 MB with full-batch patch rows and
        # 3.1 MB with blocks; with backward, 13.9 MB and 7.3 MB
        images = self.rng.random((32, 32, 32, 3))
        labels = self.rng.integers(0, 10, 32)

        def taped():
            return self.taped_step(images, labels)

        def with_backward():
            backward(taped())

        assert traced_peak_mb(taped) < 7.0
        assert traced_peak_mb(with_backward) < 11.0

    def test_backward_holds_fewer_than_two_activation_adjoints(self):
        # The conv activations' adjoint [N, H'W'F] is masked in place and
        # spent before the model's gradient, which holds the first dense
        # weight's (as large at N = 32), is allocated: about 2.8 MB.
        images = self.rng.random((32, 32, 32, 3))
        tape = self.taped_step(images, self.rng.integers(0, 10, 32))
        activation_mb = 32 * 30 * 30 * 8 * 8 / 1e6
        assert traced_peak_mb(lambda: backward(tape)) < 2 * activation_mb

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

    def test_evaluate_600_images_streams_conv_activations(self):
        # one pass over a split larger than the old 256-image evaluation
        # pieces: about 3.0 MB, and 35.6 MB with the whole split's
        # activations
        dataset = self.cifar_set(600)
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
            evaluate(fresh_model(train_set), subset(train_set, []))

    def test_overflowing_weights_raise_without_a_numpy_warning(self):
        # The logits overflow; softmax_rows reports it, and numpy warns
        # of nothing on the way (the suite raises every RuntimeWarning).
        train_set, _ = toy_sets()
        model = fresh_model(train_set)
        model.vector *= 1e300
        with pytest.raises(NumericError, match="non-finite logits"):
            evaluate(model, train_set)

    def test_600_images_in_one_pass_match_256_image_pieces(self):
        # Only the loss's summation order may differ from summing
        # 256-image pieces, so the accuracies keep their bits and the
        # mean loss moves by rounding at most.
        train_set, _ = toy_sets(per_class=(200, 250, 150), noise=0.3)
        model = fresh_model(train_set)
        loss_sum, predictions = 0.0, []
        for lo in range(0, len(train_set), 256):
            logits = model.forward_batch(train_set.images[lo:lo + 256])
            loss_sum += float(sample_losses(
                logits, train_set.labels[lo:lo + 256], LossConfig()).sum())
            predictions.append(np.argmax(logits, axis=1))
        correct = np.concatenate(predictions) == train_set.labels
        row = evaluate(model, train_set)
        assert row.accuracy == float(correct.mean())
        assert row.per_class_accuracy == _class_means(train_set.labels,
                                                      correct, 3)
        assert abs(row.mean_loss - loss_sum / 600) <= \
            1e-12 * abs(loss_sum / 600)

    def test_returns_the_last_test_row_of_train(self):
        train_set, test_set = toy_sets(per_class=(12, 5))
        loss = LossConfig(kind="focal", focal_gamma=2.0)
        cfg = base_config(epochs=3, loss=loss)
        model = fresh_model(train_set)
        (records,) = train(cfg, [Run(SEED, train_set, test_set, model)])
        row = evaluate(model, test_set, loss, epoch=2)
        assert row.split == "test" and row.seconds > 0.0
        assert deterministic_key(row) == deterministic_key(records[-1])


class TestClassMeans:
    def test_hand_computed(self):
        # class 0 holds three samples, class 1 none, class 2 one
        labels = np.array([0, 2, 0, 0])
        assert _class_means(labels, np.array([0.5, 3.0, 0.25, 2.0]), 3) == \
            ((0.5 + 0.25 + 2.0) / 3, 0.0, 3.0)

    def test_accuracy_is_the_unweighted_count_over_the_class_size(self):
        labels = np.array([1, 0, 1, 1, 0, 1, 1])
        correct = np.array([True, False, True, False, False, True, True])
        means = _class_means(labels, correct, 3)
        assert means == (0 / 2, 4 / 5, 0.0)
        assert all(type(m) is float for m in means)


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
        record = _train_record(self.steps(scored), 3)
        assert record.epoch == 4 and record.split == "train"
        assert record.mean_loss == (0.5 * 3 + 1.0 * 2) / 5
        assert record.accuracy == 4 / 5
        assert record.per_class_accuracy == (1.0, 0.5, 0.0)
        assert record.train_forward_passes == 5
        assert record.seconds == 0.0  # the caller times the epoch
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
        (records,) = train(cfg, [Run(SEED, train_set, test_set,
                                     fresh_model(train_set))])
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
            (records,) = train(cfg, [Run(SEED, train_set, test_set,
                                         fresh_model(train_set))])
            path = tmp_path / f"metrics_{run}.csv"
            write_metrics_csv(path, records)
            paths.append(path)
        stripped = [deterministic_csv_bytes(p) for p in paths]
        assert stripped[0] == stripped[1]
        header = stripped[0].decode().splitlines()[0]
        assert "seconds" not in header
        assert "mean_loss" in header

    def test_deterministic_bytes_of_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert deterministic_csv_bytes(path) == b""

    def test_deterministic_key_excludes_timing(self):
        base = dict(epoch=0, split="train", mean_loss=1.0, accuracy=0.5,
                    per_class_accuracy=(0.5, 0.5), per_class_ns=None,
                    train_forward_passes=10, ns_forward_passes=2)
        a = MetricsRecord(seconds=1.0, ns_seconds=0.1, **base)
        b = MetricsRecord(seconds=9.9, ns_seconds=2.2, **base)
        assert deterministic_key(a) == deterministic_key(b)
        assert a != b
