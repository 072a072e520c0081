"""Group partitioning and composite-inference competition scores."""

import math

import numpy as np
import pytest

from natsel.errors import ConfigError, NumericError, ShapeError
from natsel.imageops import GridLayout
from natsel.model import Classifier, ClassifierConfig, ConvSpec
from natsel.nscore import (
    LEFTOVER_GROUP_ID,
    batch_ns_scores,
    params_hash,
)
from natsel.weighting import WeightingConfig, compute_weights

from conftest import GroupSpec, group_members, group_ns_scores


def make_model(seed=0, class_count=2, hidden=(), conv=None, shape=(2, 2, 1)):
    return Classifier(ClassifierConfig(
        input_shape=shape, hidden=hidden, class_count=class_count,
        init_seed=seed, conv=conv))


def constant_model(class_count=2):
    """All-zero parameters: logits 0 for any input, posterior uniform."""
    model = make_model(class_count=class_count)
    for p in model.parameters:
        p[...] = 0.0
    return model


def partition_groups(batch_size, layout):
    """Group members and leftovers as batch_ns_scores assigns them."""
    result = batch_ns_scores(np.zeros((batch_size, 2, 2, 1)),
                             np.zeros(batch_size, dtype=np.int64),
                             make_model(), layout)
    groups = [tuple(group_members(result, g).tolist())
              for g in range(result.group_count)]
    leftover = np.flatnonzero(result.group_ids == LEFTOVER_GROUP_ID)
    return groups, tuple(leftover.tolist())


class TestPartitionGroups:
    def test_exact_division(self):
        groups, leftover = partition_groups(8, GridLayout(2, 2))
        assert groups == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert leftover == ()

    def test_pairs(self):
        groups, leftover = partition_groups(4, GridLayout(1, 2))
        assert groups == [(0, 1), (2, 3)]
        assert leftover == ()

    def test_remainder_becomes_leftover(self):
        groups, leftover = partition_groups(6, GridLayout(2, 2))
        assert groups == [(0, 1, 2, 3)]
        assert leftover == (4, 5)

    def test_batch_smaller_than_group(self):
        groups, leftover = partition_groups(3, GridLayout(2, 2))
        assert groups == []
        assert leftover == (0, 1, 2)

    def test_group_size_one_rejected(self):
        with pytest.raises(ConfigError):
            partition_groups(4, GridLayout(1, 1))

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            partition_groups(0, GridLayout(1, 2))


class TestGroupSpec:
    """The per-group oracle accepts only well-formed groups."""

    def test_member_count_must_fill_grid(self):
        with pytest.raises(ConfigError):
            GroupSpec(GridLayout(2, 2), (0, 1, 2))

    def test_members_distinct(self):
        with pytest.raises(ConfigError):
            GroupSpec(GridLayout(1, 2), (3, 3))

    def test_members_non_negative(self):
        with pytest.raises(ConfigError):
            GroupSpec(GridLayout(1, 2), (-1, 0))


class TestScores:
    def test_uniform_posterior_gives_neutral_scores(self):
        model = constant_model(class_count=2)
        images = np.random.default_rng(1).random((4, 2, 2, 1))
        labels = np.array([0, 1, 1, 0])
        result = batch_ns_scores(images, labels, model, GridLayout(1, 2))
        assert np.all(result.raw == 0.5)
        assert np.all(result.score == 0.5)

    @pytest.mark.parametrize("layout", [GridLayout(1, 2), GridLayout(2, 2)])
    def test_equal_labels_tie_exactly(self, layout):
        # Same true class for every member: identical q, so s = 1/m exactly.
        m = layout.group_size
        model = make_model(seed=5, class_count=3, hidden=(4,))
        images = np.random.default_rng(2).random((m, 2, 2, 1))
        labels = np.full(m, 2)
        result = batch_ns_scores(images, labels, model, layout)
        assert np.all(result.score == 1.0 / m)

    def test_two_class_distinct_labels_scores_equal_raw(self):
        # With K=2 and labels (0, 1) the two raw scores are p0 and p1 of the
        # same posterior, so the normalizer is already 1.
        model = make_model(seed=9)
        images = np.random.default_rng(3).random((2, 2, 2, 1))
        result = batch_ns_scores(images, np.array([0, 1]), model,
                                 GridLayout(1, 2))
        assert np.max(np.abs(result.score - result.raw)) <= 1e-12
        assert abs(result.raw.sum() - 1.0) <= 1e-12

    def test_hand_computed_pipeline(self):
        # Members constant 0.2 and 0.8 in a 1x2 grid; resizing the 2x4
        # composite back to 2x2 blends within each member, leaving columns
        # [0.2, 0.8]. Selector weights 2.5 per class turn the row-major
        # flat [0.2, 0.8, 0.2, 0.8] into logits [1, 4], so the posterior is
        # (1, e^3) / (1 + e^3).
        model = make_model()
        model.parameters[0][...] = np.array(
            [[2.5, 0.0], [0.0, 2.5], [2.5, 0.0], [0.0, 2.5]])
        model.parameters[1][...] = 0.0
        images = np.stack([np.full((2, 2, 1), 0.2), np.full((2, 2, 1), 0.8)])
        result = batch_ns_scores(images, np.array([0, 1]), model,
                                 GridLayout(1, 2))
        e3 = math.exp(3.0)
        assert abs(result.raw[0] - 1.0 / (1.0 + e3)) <= 1e-12
        assert abs(result.raw[1] - e3 / (1.0 + e3)) <= 1e-12
        assert np.max(np.abs(result.score - result.raw)) <= 1e-12

    def test_dominated_group_stays_strictly_interior(self):
        # Weights of 50 on two pixels give the one-composite a logit gap of
        # 100; the loser's posterior underflows past the point where
        # q / sum(q) would round to exactly 1.0.  The probability floor
        # keeps both scores inside (0, 1) so weighting never rejects them.
        model = make_model()
        model.parameters[0][...] = np.array(
            [[0.0, 50.0], [0.0, 0.0], [0.0, 50.0], [0.0, 0.0]])
        model.parameters[1][...] = 0.0
        images = np.stack([np.ones((2, 2, 1)), np.zeros((2, 2, 1))])
        labels = np.array([1, 0])
        result = batch_ns_scores(images, labels, model, GridLayout(1, 2))
        assert np.all(result.score > 0.0)
        assert np.all(result.score < 1.0)
        assert abs(result.score.sum() - 1.0) <= 1e-9
        weights = compute_weights(result.score,
                                  WeightingConfig(2.5, -1.0))
        assert np.all(weights >= 1.5) and np.all(weights <= 2.5)

        group = GroupSpec(GridLayout(1, 2), group_members(result, 0))
        q, s = group_ns_scores(group, images, labels, model)
        assert np.array_equal(s[0], result.score)

    @pytest.mark.parametrize("conv", [None, ConvSpec(kernel=2, channels=3)])
    def test_batch_route_matches_per_group_route(self, conv):
        model = make_model(seed=11, class_count=4, hidden=(6,),
                           conv=conv, shape=(3, 4, 2))
        rng = np.random.default_rng(7)
        images = rng.random((9, 3, 4, 2))
        labels = rng.integers(0, 4, size=9)
        layout = GridLayout(2, 2)
        result = batch_ns_scores(images, labels, model, layout)

        assert result.group_count == 2
        for gid in range(result.group_count):
            idx = list(range(4 * gid, 4 * gid + 4))
            group = GroupSpec(layout, idx)
            q, s = group_ns_scores(group, images, labels, model)
            assert np.max(np.abs(result.raw[idx] - q[0])) <= 1e-12
            assert np.max(np.abs(result.score[idx] - s[0])) <= 1e-12
            assert np.all(result.group_ids[idx] == gid)

    def test_scores_form_distribution_per_group(self):
        model = make_model(seed=13, class_count=5, hidden=(8,))
        rng = np.random.default_rng(17)
        for layout in (GridLayout(1, 2), GridLayout(2, 2), GridLayout(2, 4)):
            images = rng.random((layout.group_size * 6, 2, 2, 1))
            labels = rng.integers(0, 5, size=images.shape[0])
            result = batch_ns_scores(images, labels, model, layout)
            assert np.all(result.score > 0.0)
            assert np.all(result.score < 1.0)
            for group in range(result.group_count):
                total = result.score[group_members(result, group)].sum()
                assert abs(total - 1.0) <= 1e-9

    def test_leftover_samples_get_neutral_scores(self):
        model = make_model(seed=3)
        images = np.random.default_rng(5).random((6, 2, 2, 1))
        labels = np.zeros(6, dtype=np.int64)
        result = batch_ns_scores(images, labels, model, GridLayout(2, 2))
        assert result.group_count == 1
        leftover = np.flatnonzero(result.group_ids == LEFTOVER_GROUP_ID)
        assert leftover.tolist() == [4, 5]
        assert np.all(result.raw[4:] == 0.25)
        assert np.all(result.score[4:] == 0.25)
        assert np.all(result.group_ids[4:] == LEFTOVER_GROUP_ID)
        assert result.group_ids[:4].tolist() == [0, 0, 0, 0]

    def test_non_finite_composite_logits_raise(self):
        model = make_model(hidden=(3,))
        model.parameters[0][0, 0] = np.nan
        with pytest.raises(NumericError):
            batch_ns_scores(np.ones((2, 2, 2, 1)), np.array([0, 1]), model,
                            GridLayout(1, 2))

    def test_label_out_of_range(self):
        model = make_model()
        images = np.zeros((2, 2, 2, 1))
        with pytest.raises(ConfigError):
            batch_ns_scores(images, np.array([0, 2]), model, GridLayout(1, 2))

    @pytest.mark.parametrize("count", [6, 10])
    def test_labels_must_match_the_batch(self, count):
        # Too few labels cannot fill the groups; too many would be cut.
        with pytest.raises(ShapeError):
            batch_ns_scores(np.zeros((8, 2, 2, 1)),
                            np.zeros(count, dtype=np.int64), make_model(),
                            GridLayout(2, 2))

    def test_images_must_be_batched(self):
        model = make_model()
        with pytest.raises(ShapeError):
            batch_ns_scores(np.zeros((2, 2, 1)), np.array([0]), model,
                            GridLayout(1, 2))

    def test_deterministic(self):
        model = make_model(seed=21, hidden=(5,))
        rng = np.random.default_rng(9)
        images = rng.random((8, 2, 2, 1))
        labels = rng.integers(0, 2, size=8)
        a = batch_ns_scores(images, labels, model, GridLayout(2, 2))
        b = batch_ns_scores(images, labels, model, GridLayout(2, 2))
        assert np.array_equal(a.raw, b.raw)
        assert np.array_equal(a.score, b.score)


class TestNormalizationStep:
    def test_score_normalization_is_scale_invariant(self):
        # Adding log(factor) to every logit scales each exp(z_k), and so
        # each composite's unnormalized posterior, by factor.
        model = make_model(seed=41, class_count=6, hidden=(5,))
        rng = np.random.default_rng(41)
        images = rng.random((12, 2, 2, 1))
        labels = rng.integers(0, 6, size=12)
        base = batch_ns_scores(images, labels, model, GridLayout(2, 2))
        bias = model.parameters[-1]
        for factor in (1e-6, 3.7, 1e6):
            bias += np.log(factor)
            scaled = batch_ns_scores(images, labels, model, GridLayout(2, 2))
            bias -= np.log(factor)
            assert np.max(np.abs(scaled.score - base.score)) <= 1e-12


class TestDetachment:
    def test_scoring_never_touches_parameters(self):
        model = make_model(seed=31, class_count=3, hidden=(4,))
        before = params_hash(model)
        rng = np.random.default_rng(19)
        images = rng.random((10, 2, 2, 1))
        labels = rng.integers(0, 3, size=10)
        result = batch_ns_scores(images, labels, model, GridLayout(2, 2))
        group_ns_scores(GroupSpec(GridLayout(2, 2), group_members(result, 0)),
                        images, labels, model)
        assert params_hash(model) == before

    def test_hash_tracks_parameter_changes(self):
        model = make_model(seed=1)
        before = params_hash(model)
        assert params_hash(model) == before  # stable across calls
        model.parameters[0][0, 0] += 1e-9
        assert params_hash(model) != before
