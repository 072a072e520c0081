"""Property tests over generated inputs: the config text round trip, the
group-score invariants and the weight bounds.

The example budget is fixed and derandomized, so every run checks the
same examples and a failure replays.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from natsel.config import (  # noqa: E402
    DataSettings,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from natsel.data import CIFAR_VARIANTS, SAMPLER_KINDS  # noqa: E402
from natsel.imageops import GridLayout  # noqa: E402
from natsel.model import (  # noqa: E402
    LOSS_KINDS,
    Classifier,
    ClassifierConfig,
    ConvSpec,
    LossConfig,
)
from natsel.nscore import LEFTOVER_GROUP_ID, batch_ns_scores  # noqa: E402
from natsel.trainer import TrainConfig  # noqa: E402
from natsel.weighting import WeightingConfig, compute_weights  # noqa: E402

FIXED = settings(max_examples=100, derandomize=True, database=None,
                 deadline=None)

NAMES = st.text("abcxyz019_./-", min_size=1, max_size=10)


def floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def weightings(draw, scoring=True):
    sigma = draw(floats(0.0, 10.0))
    rho = draw(floats(-sigma, 10.0)) if scoring else 0.0
    return WeightingConfig(sigma, rho)


@st.composite
def data_settings(draw):
    kind = draw(st.sampled_from(("synthetic_blobs", "idx_files",
                                 "cifar_binary")))
    classes = draw(st.integers(2, 6))
    counts = draw(st.sampled_from(("default", "balanced", "longtail",
                                   "explicit")))
    paths = {}
    if kind == "idx_files":
        paths = {name: draw(NAMES) for name in (
            "train_images", "train_labels", "test_images", "test_labels")}
    elif kind == "cifar_binary":
        paths = {"train_path": draw(NAMES), "test_path": draw(NAMES),
                 "variant": draw(st.sampled_from(CIFAR_VARIANTS))}
    if counts == "balanced":
        paths["balanced_count"] = draw(st.integers(1, 50))
    elif counts == "longtail":
        paths["n_max"] = draw(st.integers(1, 200))
        paths["imbalance_factor"] = draw(floats(1.0, 100.0))
    elif counts == "explicit":
        paths["class_counts"] = tuple(draw(st.lists(
            st.integers(1, 50), min_size=classes, max_size=classes)))
    return DataSettings(
        kind=kind, classes=classes, height=draw(st.integers(2, 9)),
        width=draw(st.integers(2, 9)), channels=draw(st.integers(1, 3)),
        noise_std=draw(floats(0.0, 2.0)),
        label_noise_rate=draw(floats(0.0, 1.0, exclude_max=True)),
        test_per_class=draw(st.integers(1, 30)), **paths)


@st.composite
def experiment_configs(draw):
    data = draw(data_settings())
    layout = GridLayout(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    # a file-backed image has no shape yet, so any kernel is accepted
    kernel_cap = (min(data.height, data.width)
                  if data.kind == "synthetic_blobs" else 40)
    train = TrainConfig(
        batch_size=draw(st.integers(layout.group_size, 64)),
        epochs=draw(st.integers(1, 20)),
        learning_rate=draw(floats(1e-6, 10.0)),
        momentum=draw(floats(0.0, 1.0, exclude_max=True)),
        decay_milestones=tuple(draw(st.lists(st.tuples(
            st.integers(0, 20), floats(1e-6, 10.0)), max_size=3))),
        layout=layout,
        weighting=draw(weightings(scoring=layout.group_size > 1)),
        sampler=draw(st.sampled_from(SAMPLER_KINDS)),
        loss=LossConfig(kind=draw(st.sampled_from(LOSS_KINDS)),
                        focal_gamma=draw(floats(0.0, 5.0)),
                        smoothing_epsilon=draw(
                            floats(0.0, 1.0, exclude_max=True))))
    return ExperimentConfig(
        label=draw(NAMES), output_dir=draw(NAMES),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31), min_size=1,
                                  max_size=4, unique=True))),
        data=data,
        hidden=tuple(draw(st.lists(st.integers(1, 64), max_size=3))),
        conv_kernel=draw(st.integers(0, kernel_cap)),
        conv_channels=draw(st.integers(1, 16)),
        train=train)


@FIXED
@given(experiment_configs())
def test_config_text_round_trip(config):
    assert parse_config(serialize_config(config)) == config


@FIXED
@given(rows=st.integers(1, 3), cols=st.integers(1, 3),
       batch=st.integers(1, 20), classes=st.integers(2, 5),
       side=st.integers(2, 6), conv=st.booleans(),
       gain=st.sampled_from((1.0, 30.0, 300.0)), seed=st.integers(0, 2**16))
def test_group_scores_are_a_distribution_per_group(
        rows, cols, batch, classes, side, conv, gain, seed):
    layout = GridLayout(rows, cols)
    m = layout.group_size
    hypothesis.assume(m > 1)
    model = Classifier(ClassifierConfig(
        input_shape=(side, side, 2), hidden=(4,), class_count=classes,
        init_seed=seed, conv=ConvSpec(2, 3) if conv else None))
    for p in model.parameters:
        p *= gain  # large gains drive posteriors to the floors
    rng = np.random.default_rng(seed)
    result = batch_ns_scores(rng.random((batch, side, side, 2)),
                             rng.integers(0, classes, batch), model, layout)
    s = result.score
    assert s.shape == (batch,)
    assert np.all((s > 0.0) & (s < 1.0))
    full = result.group_count * m
    sums = s[:full].reshape(-1, m).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    assert np.all(result.group_ids[full:] == LEFTOVER_GROUP_ID)
    assert np.all(s[full:] == 1.0 / m)
    assert np.all(result.raw[full:] == 1.0 / m)


@FIXED
@given(weightings(), st.lists(floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True), max_size=40))
def test_weights_stay_within_bounds(cfg, scores):
    lo, hi = cfg.bounds
    w = compute_weights(np.array(scores), cfg)
    assert w.shape == (len(scores),)
    assert np.all((lo <= w) & (w <= hi))
