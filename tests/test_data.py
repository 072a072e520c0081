"""Synthetic data generation, file formats, and sampling baselines."""

import struct

import numpy as np
import pytest

from natsel.config import ExperimentConfig, datasets_for
from natsel.data import (
    Dataset,
    DataSettings,
    build_splits,
    class_sampling_probs,
    dataset_from_idx,
    epoch_indices,
    inject_label_noise,
    load_cifar_binary,
    load_idx,
    longtail_counts,
)
from natsel.errors import ConfigError, FormatError
from natsel.seeds import derive_seed

from conftest import reference_splits, save_idx, subset


def settings(**overrides):
    base = dict(classes=2, height=4, width=4, channels=1,
                class_counts=(5, 5), noise_std=0.05, test_per_class=1)
    base.update(overrides)
    return DataSettings(**base)


def synthetic(seed=7, **overrides):
    """The train split that ``build_splits`` generates."""
    return build_splits(settings(**overrides), seed)[0]


FILE_BACKED = {
    "idx_files": dict(train_images="a", train_labels="b", test_images="c",
                      test_labels="d"),
    "cifar_binary": dict(train_path="a", test_path="b"),
}


class TestGenSynthetic:
    def test_counting(self):
        ds = synthetic()
        assert len(ds) == 10
        assert ds.label_counts().tolist() == [5, 5]
        assert ds.image_shape == (4, 4, 1)

    def test_zero_noise_copies_templates(self):
        ds = synthetic(noise_std=0.0)
        for k in (0, 1):
            block = ds.images[ds.labels == k]
            assert np.all(block == block[0])

    def test_same_seed_bitwise_identical(self):
        a = synthetic()
        b = synthetic()
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synthetic(seed=1)
        b = synthetic(seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_values_clamped_to_unit_interval(self):
        ds = synthetic(noise_std=2.0)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_templates_differ_between_classes(self):
        ds = synthetic(noise_std=0.0)
        assert not np.array_equal(ds.images[0], ds.images[5])

    def test_recipe_validation(self):
        for bad in (dict(kind="imagenet"),
                    dict(classes=1, class_counts=(5,)),
                    dict(class_counts=(5, 5, 5)),
                    dict(class_counts=(5, 0)),
                    dict(class_counts=None, balanced_count=0),
                    dict(height=0),
                    dict(noise_std=-0.1),
                    dict(noise_std=float("nan")),
                    dict(label_noise_rate=1.0),
                    dict(variant="cifar1000"),
                    dict(variant="cifar100")):
            with pytest.raises(ConfigError):
                settings(**bad)

    def test_wrong_kind_rejected_by_generator(self):
        for kind, paths in FILE_BACKED.items():
            with pytest.raises(ConfigError, match="cannot synthesize"):
                build_splits(settings(kind=kind, **paths), 7)


class TestBuildSplits:
    def test_counts_and_disjointness(self):
        train, test = build_splits(
            settings(class_counts=(6, 3), test_per_class=2), 7)
        assert train.label_counts().tolist() == [6, 3]
        assert test.label_counts().tolist() == [2, 2]
        # No train image may reappear in test.
        flat_train = train.images.reshape(len(train), -1)
        flat_test = test.images.reshape(len(test), -1)
        for row in flat_test:
            assert not np.any(np.all(flat_train == row, axis=1))

    def test_label_noise_hits_train_only(self):
        config = ExperimentConfig(data=settings(
            class_counts=(50, 50), label_noise_rate=0.2, test_per_class=10))
        train, test = datasets_for(config, 7)
        assert np.sum(train.labels != train.clean_labels) == 20
        assert np.array_equal(test.labels, test.clean_labels)

    def test_deterministic(self):
        config = ExperimentConfig(data=settings(
            label_noise_rate=0.1, class_counts=(20, 20), test_per_class=5))
        a_train, a_test = datasets_for(config, 7)
        b_train, b_test = datasets_for(config, 7)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.images, b_test.images)

    def test_needs_test_samples(self):
        with pytest.raises(ConfigError, match="test_per_class"):
            settings(test_per_class=0)


def same_bytes(a: Dataset, b: Dataset) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in ((a.images, b.images), (a.labels, b.labels),
                            (a.clean_labels, b.clean_labels)))


IN_PLACE_SETTINGS = {
    "long_tail": settings(classes=5, height=6, width=5, channels=3,
                          class_counts=None, n_max=40,
                          imbalance_factor=10.0, noise_std=0.3,
                          test_per_class=7),
    "label_noise": settings(classes=3, height=4, width=4, channels=2,
                            class_counts=(20, 20, 20), noise_std=0.8,
                            label_noise_rate=0.3, test_per_class=7),
}


class TestInPlaceGeneration:
    """Writing each class's rows straight into the output arrays gives
    the bytes of the combine-then-subset route, draw for draw, and label
    noise lands on the train split from the same seed stream."""

    @pytest.mark.parametrize("name", list(IN_PLACE_SETTINGS))
    def test_build_splits_matches_reference(self, name):
        s = IN_PLACE_SETTINGS[name]
        seed = derive_seed(11, "dataset")
        got = datasets_for(ExperimentConfig(data=s), 11)
        ref_train, ref_test = reference_splits(s, seed)
        if s.label_noise_rate > 0.0:
            ref_train = inject_label_noise(ref_train, s.label_noise_rate,
                                           seed)
            assert (got[0].labels != got[0].clean_labels).any()
        assert same_bytes(got[0], ref_train) and same_bytes(got[1], ref_test)

    def test_build_splits_rejects_other_kinds(self):
        with pytest.raises(ConfigError):
            build_splits(settings(kind="idx_files",
                                  **FILE_BACKED["idx_files"]), 2)


class TestLongtailCounts:
    def test_two_class_endpoints(self):
        assert longtail_counts(100, 2, 100.0) == (100, 1)

    def test_three_class_geometric(self):
        assert longtail_counts(100, 3, 100.0) == (100, 10, 1)

    def test_balanced_limit(self):
        assert longtail_counts(100, 5, 1.0) == (100,) * 5

    def test_endpoints_and_monotonicity(self):
        for n_max, k, factor in ((100, 10, 100.0), (500, 10, 50.0),
                                 (64, 4, 10.0)):
            counts = longtail_counts(n_max, k, factor)
            assert counts[0] == n_max
            assert counts[-1] == max(1, int(np.floor(n_max / factor + 0.5)))
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert min(counts) >= 1

    def test_half_up_rounding(self):
        # K=10, IF=100: class 3 sits at 100 * 100^(-3/9) = 21.544... -> 22
        counts = longtail_counts(100, 10, 100.0)
        assert counts == (100, 60, 36, 22, 13, 8, 5, 3, 2, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            longtail_counts(100, 1, 10.0)
        with pytest.raises(ConfigError):
            longtail_counts(100, 5, 0.5)
        with pytest.raises(ConfigError):
            longtail_counts(0, 5, 10.0)


class TestLabelNoise:
    def big_dataset(self, n=1000, k=4):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, size=n)
        return Dataset(images=np.zeros((n, 2, 2, 1)), labels=labels,
                       clean_labels=labels.copy(), class_count=k)

    def test_exact_flip_count(self):
        ds = self.big_dataset()
        noisy = inject_label_noise(ds, 0.2, seed=3)
        assert np.sum(noisy.labels != ds.labels) == 200

    def test_floor_convention(self):
        ds = self.big_dataset(n=7)
        noisy = inject_label_noise(ds, 0.5, seed=3)
        assert np.sum(noisy.labels != ds.labels) == 3  # floor(3.5)

    def test_never_flips_to_itself(self):
        ds = self.big_dataset()
        noisy = inject_label_noise(ds, 0.5, seed=9)
        flipped = noisy.labels != ds.labels
        assert np.sum(flipped) == 500
        assert np.all(noisy.labels[flipped] != ds.labels[flipped])
        assert np.all(noisy.labels < ds.class_count)
        assert np.all(noisy.labels >= 0)

    def test_rate_zero_is_identity(self):
        ds = self.big_dataset()
        assert inject_label_noise(ds, 0.0, seed=1) is ds

    def test_clean_labels_preserved(self):
        ds = self.big_dataset()
        noisy = inject_label_noise(ds, 0.3, seed=5)
        assert np.array_equal(noisy.clean_labels, ds.labels)

    def test_deterministic(self):
        ds = self.big_dataset()
        a = inject_label_noise(ds, 0.2, seed=11)
        b = inject_label_noise(ds, 0.2, seed=11)
        assert np.array_equal(a.labels, b.labels)

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            inject_label_noise(self.big_dataset(), 1.0, seed=0)


class TestSamplingProbs:
    def test_cbs_uniform(self):
        probs = class_sampling_probs((7, 1, 99, 3), "cbs", 0, 1)
        assert probs.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_srs_square_root(self):
        probs = class_sampling_probs((100, 1), "srs", 0, 1)
        assert np.max(np.abs(probs - [10 / 11, 1 / 11])) <= 1e-12

    def test_instance_uniform_frequency(self):
        probs = class_sampling_probs((30, 10), "instance_uniform", 0, 1)
        assert np.max(np.abs(probs - [0.75, 0.25])) <= 1e-12

    def test_pbs_interpolation_endpoints(self):
        counts = (80, 15, 5)
        start = class_sampling_probs(counts, "pbs", 0, 10)
        freq = class_sampling_probs(counts, "instance_uniform", 0, 10)
        assert np.max(np.abs(start - freq)) <= 1e-15
        end = class_sampling_probs(counts, "pbs", 10, 10)
        assert np.max(np.abs(end - 1.0 / 3.0)) <= 1e-15

    def test_pbs_midpoint(self):
        mid = class_sampling_probs((90, 10), "pbs", 5, 10)
        expected = 0.5 * np.array([0.9, 0.1]) + 0.5 * np.array([0.5, 0.5])
        assert np.max(np.abs(mid - expected)) <= 1e-15

    def test_pbs_epoch_range(self):
        with pytest.raises(ConfigError):
            class_sampling_probs((10, 10), "pbs", 6, 5)

    @pytest.mark.parametrize("kind", ["instance_uniform", "cbs", "srs", "pbs"])
    def test_probabilities_sum_to_one(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            counts = rng.integers(1, 500, size=6)
            probs = class_sampling_probs(counts, kind, 4, 8)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert probs.min() >= 0.0

    def test_counts_validation(self):
        with pytest.raises(ConfigError):
            class_sampling_probs((10, 0), "cbs", 0, 1)

    def test_sampler_config_validation(self):
        with pytest.raises(ConfigError, match="magic"):
            class_sampling_probs((10, 10), "magic", 0, 1)
        with pytest.raises(ConfigError):
            class_sampling_probs((10, 10), "pbs", 0, 0)


class TestEpochIndices:
    def labels(self):
        return np.repeat([0, 1, 2], [60, 30, 10])

    def test_instance_uniform_is_permutation(self):
        labels = self.labels()
        order = epoch_indices(labels, 3, "instance_uniform", epoch=0, epochs=1,
                              seed=5)
        assert sorted(order.tolist()) == list(range(100))

    def test_deterministic_per_epoch(self):
        labels = self.labels()
        a = epoch_indices(labels, 3, "cbs", epoch=2, epochs=4, seed=5)
        b = epoch_indices(labels, 3, "cbs", epoch=2, epochs=4, seed=5)
        c = epoch_indices(labels, 3, "cbs", epoch=3, epochs=4, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_indices_in_range_and_correct_length(self):
        labels = self.labels()
        for kind in ("cbs", "srs", "pbs"):
            order = epoch_indices(labels, 3, kind, epoch=1, epochs=4, seed=9)
            assert order.shape == (100,)
            assert order.min() >= 0
            assert order.max() < 100

    def test_cbs_rebalances_class_shares(self):
        # 6:3:1 imbalance; class-balanced draws should put each class near
        # one third. Seeded, so the check is deterministic.
        labels = np.repeat([0, 1, 2], [600, 300, 100])
        order = epoch_indices(labels, 3, "cbs", epoch=0, epochs=1,
                              seed=13)
        shares = np.bincount(labels[order], minlength=3) / 1000.0
        assert np.max(np.abs(shares - 1 / 3)) < 0.08

    def test_cbs_draws_respect_class_identity(self):
        labels = self.labels()
        order = epoch_indices(labels, 3, "cbs", epoch=0, epochs=1,
                              seed=7)
        # Every drawn index must carry the label of the class it was drawn
        # for; the mapping below reconstructs membership directly.
        assert np.all(labels[order] == np.where(order < 60, 0,
                                                np.where(order < 90, 1, 2)))

    def test_balanced_samplers_need_full_support(self):
        labels = np.zeros(10, dtype=np.int64)
        with pytest.raises(ConfigError):
            epoch_indices(labels, 2, "cbs", epoch=0, epochs=1, seed=1)


class TestIdxFormat:
    def test_label_file_example(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">ii", 0x00000801, 2) + bytes([3, 7]))
        assert load_idx(path).tolist() == [3, 7]

    def test_label_round_trip(self, tmp_path):
        path = tmp_path / "labels.idx"
        labels = np.array([0, 1, 9, 255], dtype=np.int64)
        save_idx(path, labels)
        assert np.array_equal(load_idx(path), labels)

    def test_image_round_trip_is_quantized_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.random((6, 5, 4))
        path = tmp_path / "imgs.idx"
        save_idx(path, images)
        loaded = load_idx(path)
        assert loaded.shape == (6, 5, 4)
        assert np.array_equal(loaded, np.floor(images * 255 + 0.5) / 255.0)
        # A second round trip through the 8-bit format is lossless.
        save_idx(path, loaded)
        assert np.array_equal(load_idx(path), loaded)

    def test_multichannel_uses_four_dim_variant(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.random((3, 4, 4, 2))
        path = tmp_path / "imgs4.idx"
        save_idx(path, images)
        blob = path.read_bytes()
        assert struct.unpack(">i", blob[:4])[0] == 0x00000804
        assert load_idx(path).shape == (3, 4, 4, 2)

    def test_dataset_from_idx(self, tmp_path):
        ds = synthetic(noise_std=0.02)
        img_path, lab_path = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(img_path, ds.images)
        save_idx(lab_path, ds.labels)
        loaded = dataset_from_idx(img_path, lab_path, class_count=2)
        assert len(loaded) == len(ds)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">ii", 0x12345678, 1) + b"\x00")
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">ii", 0x00000801, 10) + bytes(4))
        with pytest.raises(FormatError):
            load_idx(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(path)

    @pytest.mark.parametrize("blob,problem", [
        (struct.pack(">ii", 0x00000803, 2), "truncated IDX dimension block"),
        (struct.pack(">ii", 0x00000801, -1), "negative IDX dimension")],
        ids=["short dimension block", "negative dimension"])
    def test_bad_dimension_block(self, tmp_path, blob, problem):
        path = tmp_path / "dims.idx"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=problem):
            load_idx(path)

    @pytest.mark.parametrize("images,labels,problem", [
        (np.zeros((2, 3, 3)), np.zeros((2, 3, 3)),
         "l.idx does not hold labels"),
        (np.array([0, 1]), np.array([0, 1]), "i.idx does not hold images"),
        (np.zeros((3, 3, 3)), np.array([0, 1]), "3 images but 2 labels")],
        ids=["images as labels", "labels as images", "count mismatch"])
    def test_dataset_from_mismatched_files(self, tmp_path, images, labels,
                                           problem):
        img_path, lab_path = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(img_path, images)
        save_idx(lab_path, labels)
        with pytest.raises(FormatError, match=problem):
            dataset_from_idx(img_path, lab_path, class_count=2)

    def test_save_rejects_out_of_range(self, tmp_path):
        with pytest.raises(FormatError):
            save_idx(tmp_path / "x.idx", np.array([[[1.5]]]))
        with pytest.raises(FormatError):
            save_idx(tmp_path / "y.idx", np.array([256], dtype=np.int64))
        with pytest.raises(FormatError):
            save_idx(tmp_path / "z.idx", np.zeros((2, 2)))

    def test_label_range_checked_against_class_count(self, tmp_path):
        img_path, lab_path = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(img_path, np.zeros((2, 3, 3)))
        save_idx(lab_path, np.array([0, 9], dtype=np.int64))
        with pytest.raises(FormatError):
            dataset_from_idx(img_path, lab_path, class_count=4)


class TestCifarBinary:
    def make_batch(self, path, labels, variant="cifar10"):
        rng = np.random.default_rng(1)
        records = []
        for label in labels:
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            if variant == "cifar10":
                head = bytes([label])
            else:
                head = bytes([label // 100, label % 100])
            records.append(head + pixels.tobytes())
        path.write_bytes(b"".join(records))

    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        pixels = np.arange(3072, dtype=np.int64) % 256
        path.write_bytes(bytes([5]) + pixels.astype(np.uint8).tobytes())
        ds = load_cifar_binary(path)
        assert len(ds) == 1
        assert ds.labels.tolist() == [5]
        assert ds.images.shape == (1, 32, 32, 3)
        # channel-planar: first body byte is pixel (0,0) of channel 0
        assert ds.images[0, 0, 0, 0] == 0.0
        assert ds.images[0, 0, 1, 0] == 1.0 / 255.0

    def test_multiple_records(self, tmp_path):
        path = tmp_path / "batch.bin"
        self.make_batch(path, [0, 3, 9])
        ds = load_cifar_binary(path)
        assert ds.labels.tolist() == [0, 3, 9]
        assert ds.class_count == 10
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_cifar100_uses_fine_label(self, tmp_path):
        path = tmp_path / "batch100.bin"
        self.make_batch(path, [42, 99], variant="cifar100")
        ds = load_cifar_binary(path, variant="cifar100")
        assert ds.labels.tolist() == [42, 99]
        assert ds.class_count == 100

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))  # one byte short of a record
        with pytest.raises(FormatError):
            load_cifar_binary(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes([11]) + bytes(3072))
        with pytest.raises(FormatError):
            load_cifar_binary(path)

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(ConfigError):
            load_cifar_binary(tmp_path / "x.bin", variant="cifar20")


class TestDatasetType:
    def test_subset(self):
        ds = synthetic()
        sub = subset(ds, [0, 5, 9])
        assert len(sub) == 3
        assert sub.labels.tolist() == [ds.labels[0], ds.labels[5], ds.labels[9]]

    def test_label_shape_validated(self):
        with pytest.raises(ConfigError):
            Dataset(images=np.zeros((3, 2, 2, 1)),
                    labels=np.zeros(2, dtype=np.int64),
                    clean_labels=np.zeros(3, dtype=np.int64), class_count=2)

    @pytest.mark.parametrize("field,value", [
        ("labels", 2), ("labels", -1), ("clean_labels", 2),
        ("clean_labels", -1)],
        ids=["label K", "label -1", "clean label K", "clean label -1"])
    def test_label_outside_the_class_range_is_rejected(self, field, value):
        # With the range checked where a split is built, no loop or
        # metric ever sees a label that is not a class of the split.
        arrays = dict(labels=np.array([0, 1, 1]),
                      clean_labels=np.array([0, 1, 1]))
        arrays[field][-1] = value
        with pytest.raises(ConfigError, match=rf"{field} must lie in "
                                              rf"\[0, 2\), got \[{min(0, value)}"):
            Dataset(images=np.zeros((3, 2, 2, 1)), class_count=2, **arrays)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    @pytest.mark.parametrize("field", ["labels", "clean_labels"])
    def test_non_integer_labels_are_rejected(self, field, dtype):
        # Float labels once trained a whole epoch before a bare TypeError
        # at its end, and bool labels reached evaluate's bare IndexError.
        arrays = dict(labels=np.array([0, 1, 1]),
                      clean_labels=np.array([0, 1, 1]))
        arrays[field] = arrays[field].astype(dtype)
        with pytest.raises(ConfigError, match=rf"^{field} must be integers, "
                                              rf"got dtype {np.dtype(dtype)}"):
            Dataset(images=np.zeros((3, 2, 2, 1)), class_count=2, **arrays)

    def test_labels_past_the_class_count_are_rejected(self):
        # Such a split once reached evaluate, whose per-class accuracies
        # then counted a class the split does not have.
        labels = np.array([0, 1, 2, 2])
        with pytest.raises(ConfigError, match=r"\[0, 2\), got \[0, 2\]"):
            Dataset(images=np.zeros((4, 2, 2, 1)), labels=labels,
                    clean_labels=labels, class_count=2)
