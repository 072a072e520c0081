"""Property tests over generated inputs: the config text round trip and
its key-naming errors, the group-score invariants, the weight bounds, and
the CSV artifacts' round trip and complete-or-absent writes.

The example budget is fixed and derandomized, so every run checks the
same examples and a failure replays.
"""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from natsel.analysis import (  # noqa: E402
    ClassScoreStats,
    FitLine,
    write_box_stats,
    write_fits,
    write_scatter,
)
from natsel.cli import _write_aggregate  # noqa: E402
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
from natsel.errors import ConfigError  # noqa: E402
from natsel.nscore import (  # noqa: E402
    LEFTOVER_GROUP_ID,
    NSResult,
    batch_ns_scores,
)
from natsel.trainer import (  # noqa: E402
    MetricsRecord,
    TrainConfig,
    _read_scores,
    _Step,
    _write_scores,
    _write_table,
    read_metrics_csv,
    write_metrics_csv,
)
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


def _ints_below(bound):
    """Integer texts below ``bound``, near it."""
    return st.integers(min(bound, 0) - 4, bound - 1).map(str)


def _floats_outside(lo, hi, hi_open=False):
    """Float texts outside [lo, hi] (or [lo, hi)), NaN among them; -0.0
    is not below 0.0."""
    below = st.floats(max_value=lo).filter(lambda x: x < lo)
    above = st.floats(min_value=hi, exclude_min=not hi_open)
    return st.one_of(below, above, st.just(math.nan)).map(repr)


def _not_positive_finite():
    return st.one_of(st.floats(max_value=0.0), st.just(math.inf),
                     st.just(math.nan))


def _words_except(*valid):
    return st.text("abcdefimnorstuwxyz_019", max_size=12).filter(
        lambda word: word not in valid)


def _int_lists(size, element):
    return st.lists(element, min_size=size, max_size=size).map(
        lambda values: ",".join(map(str, values)))


# section.key -> (texts that read but are invalid there, the other keys
# the case sets).  The defaults are an 8x8x1 image, 10 classes, a 2x2
# layout (groups of 4), batch 32, sigma 1 and rho 0.
_INVALID = {
    "experiment.seeds": (st.one_of(st.just(""), st.lists(
        st.integers(0, 99), min_size=1, max_size=4).map(
        lambda seeds: ",".join(map(str, seeds + seeds[:1])))), {}),
    "experiment.label": (st.just(""), {}),
    "dataset.kind": (_words_except(*("synthetic_blobs", "idx_files",
                                     "cifar_binary")), {}),
    "dataset.variant": (_words_except("cifar10"), {}),
    "dataset.classes": (_ints_below(2), {}),
    "dataset.height": (_ints_below(2), {}),
    "dataset.width": (_ints_below(2), {}),
    "dataset.channels": (_ints_below(1), {}),
    "dataset.balanced_count": (_ints_below(1), {}),
    "dataset.n_max": (_ints_below(1), {"dataset.imbalance_factor": "2"}),
    "dataset.imbalance_factor": (_floats_outside(1.0, math.inf, True),
                                 {"dataset.n_max": "100"}),
    "dataset.class_counts": (st.one_of(
        _int_lists(3, st.integers(-5, 5)).filter(
            lambda text: min(map(int, text.split(","))) < 1),
        st.integers(0, 6).filter(lambda n: n != 3).flatmap(
            lambda n: _int_lists(n, st.integers(1, 9)))),
        {"dataset.classes": "3"}),
    "dataset.noise_std": (_floats_outside(0.0, math.inf, True), {}),
    "dataset.label_noise_rate": (_floats_outside(0.0, 1.0, True), {}),
    "dataset.test_per_class": (_ints_below(1), {}),
    "model.hidden": (st.lists(st.integers(-5, 64), min_size=1, max_size=3)
                     .filter(lambda widths: min(widths) < 1)
                     .map(lambda widths: ",".join(map(str, widths))), {}),
    "model.conv_kernel": (st.one_of(_ints_below(0),
                                    st.integers(9, 99).map(str)), {}),
    "model.conv_channels": (_ints_below(1), {}),
    "train.batch_size": (_ints_below(4), {}),
    "train.epochs": (_ints_below(1), {}),
    "train.learning_rate": (_not_positive_finite().map(repr), {}),
    "train.momentum": (_floats_outside(0.0, 1.0, True), {}),
    "train.decay": (st.one_of(
        st.tuples(st.integers(-99, -1), floats(0.1, 10.0)),
        st.tuples(st.integers(0, 99), _not_positive_finite())
    ).map(lambda pair: f"{pair[0]}:{pair[1]!r}"), {}),
    "train.loss": (_words_except(*LOSS_KINDS), {}),
    "train.focal_gamma": (_floats_outside(0.0, math.inf, True), {}),
    "train.smoothing_epsilon": (_floats_outside(0.0, 1.0, True), {}),
    "grouping.layout": (st.one_of(
        st.tuples(st.integers(-3, 0), st.integers(1, 3)),
        st.tuples(st.integers(1, 3), st.integers(-3, 0))).map(
        lambda rc: f"{rc[0]}x{rc[1]}"), {}),
    "grouping.group_size": (st.integers(-9, 99).filter(lambda m: m != 4)
                            .map(str), {}),
    "weighting.sigma": (_floats_outside(0.0, math.inf, True), {}),
    "weighting.rho": (st.one_of(st.floats(max_value=-1.0, exclude_max=True),
                                st.just(math.inf), st.just(math.nan))
                      .map(repr), {}),
    "weighting.strategy": (_words_except("uniform"), {}),
    "sampler.kind": (_words_except(*SAMPLER_KINDS), {}),
}


def _config_text(values: dict) -> str:
    sections: dict[str, list[str]] = {}
    for key, text in values.items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {text}")
    return "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                   for section, lines in sections.items())


@st.composite
def invalid_settings(draw):
    key = draw(st.sampled_from(sorted(_INVALID)))
    texts, context = _INVALID[key]
    return key, {**context, key: draw(texts)}


@settings(FIXED, max_examples=400)
@given(invalid_settings())
def test_every_invalid_value_fails_with_its_key(case):
    # A derived key (group_size, strategy) is echoed as "key = value".
    key, values = case
    with pytest.raises(ConfigError) as err:
        parse_config(_config_text(values))
    assert re.match(rf"{re.escape(key)}(: | = )", str(err.value)), \
        (values, str(err.value))


# Every finite and infinite float: signed zeros and subnormals included.
ANY_FLOAT = st.floats(allow_nan=False)


@st.composite
def metrics_records(draw):
    vector = st.lists(ANY_FLOAT, max_size=4).map(tuple)
    count = st.integers(0, 2**40)
    return MetricsRecord(
        epoch=draw(st.integers(-2**40, 2**40)),
        split=draw(st.text("traintest ,;\"\r\n", max_size=8)),
        mean_loss=draw(ANY_FLOAT), accuracy=draw(ANY_FLOAT),
        per_class_accuracy=draw(vector),
        # an empty per-class score vector would read back as None
        per_class_ns=draw(st.none() | vector.filter(bool)),
        seconds=draw(ANY_FLOAT), train_forward_passes=draw(count),
        ns_forward_passes=draw(count), ns_seconds=draw(ANY_FLOAT))


@FIXED
@given(st.lists(metrics_records(), max_size=5))
def test_metrics_csv_reads_back_the_records_that_wrote_it(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        write_metrics_csv(path, records)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(read_metrics_csv(path)) == repr(records)


@st.composite
def scored_steps(draw):
    n = draw(st.integers(0, 6))
    column = st.lists(ANY_FLOAT, min_size=n, max_size=n).map(np.array)
    ints = st.lists(st.integers(-1, 2**31), min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=np.int64))
    ns = NSResult(draw(column), draw(column), draw(ints), n // 2)
    return _Step(draw(st.integers(0, 99)), draw(st.integers(0, 10**6)),
                 draw(ints), draw(ints), np.zeros(n, dtype=np.int64), 0.0,
                 ns, draw(column))


@FIXED
@given(st.lists(scored_steps(), max_size=4))
def test_score_log_reads_back_the_steps_that_wrote_it(steps):
    expected = [(st_.epoch, st_.step, *row) for st_ in steps for row in zip(
        st_.ns.group_ids.tolist(), st_.indices.tolist(),
        st_.labels.tolist(), st_.ns.raw.tolist(), st_.ns.score.tolist(),
        st_.weights.tolist())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.csv"
        _write_scores(path, steps)
        assert repr([tuple(row) for row in _read_scores(path)]) == \
            repr(expected)


class _Unreadable:
    """A row whose every attribute and whose iteration raise."""

    def __getattr__(self, name):
        raise OSError("disk full")

    def __iter__(self):
        raise OSError("disk full")


_RECORD = MetricsRecord(0, "train", 1.0, 0.5, (0.5,), None, 0.1, 4, 1, 0.0)
_STEP = _Step(0, 0, np.array([3]), np.array([1]), np.array([1]), 1.0,
              NSResult(np.array([0.5]), np.array([0.5]), np.array([-1]), 0),
              np.array([1.0]))

# writer name -> (write(path, rows), one good row)
_WRITERS = {
    "table": (lambda path, rows: _write_table(path, ("a", "b"), rows),
              ("x", 1.0)),
    "metrics": (write_metrics_csv, _RECORD),
    "scores": (_write_scores, _STEP),
    "aggregate": (lambda path, rows: _write_aggregate(path, (7,),
                                                      {7: rows}), _RECORD),
    "box_stats": (write_box_stats, ClassScoreStats.empty(0)),
    "scatter": (write_scatter, (0, 3, 0.5)),
    "fits": (write_fits, FitLine("count_vs_score", 1.0, 0.0, 1.0)),
}


@FIXED
@given(st.sampled_from(sorted(_WRITERS)), st.integers(0, 5), st.booleans())
def test_writer_that_raises_partway_leaves_no_partial_file(name, good,
                                                           earlier):
    # The rows raise after ``good`` rows: an earlier complete file is
    # kept as it was, and neither a partial file nor its .tmp is left.
    write, row = _WRITERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.csv"
        if earlier:
            path.write_bytes(b"complete\r\n")
        with pytest.raises(OSError, match="disk full"):
            write(path, [row] * good + [_Unreadable()])
        assert sorted(p.name for p in Path(tmp).iterdir()) == \
            ([path.name] if earlier else [])
        if earlier:
            assert path.read_bytes() == b"complete\r\n"
