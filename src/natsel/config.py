"""Experiment configuration: INI-style text with strict key checking.

A config has seven sections (experiment, dataset, model, train, grouping,
weighting, sampler), every key optional except that file-backed datasets
need their paths.  ``_SCHEMA`` is the one table of keys.  It maps each
``section.key`` to the ``ExperimentConfig`` attribute it sets, as a dotted
path such as ``train.loss.kind``, and to a text type ``(read, write,
what)``.  ``parse_config``, ``serialize_config`` and ``apply_overrides``
all walk it, so a command-line flag or sweep value is read exactly like
the INI key it sets.

A missing key takes its value from ``ExperimentConfig()``.  Unknown
sections or keys are errors, not warnings: a typo must never silently
fall back to a default.  A key whose path is a derived property
(``grouping.group_size``, ``weighting.strategy``) sets nothing; it must
equal the value the other settings derive.  ``serialize_config`` writes
every effective value back out in table order, so parse -> serialize ->
parse is a fixed point.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, NamedTuple

from .data import (
    Dataset,
    DataSettings,
    build_splits,
    dataset_from_idx,
    inject_label_noise,
    load_cifar_binary,
)
from .errors import ConfigError
from .imageops import GridLayout
from .model import ClassifierConfig, ConvSpec
from .seeds import derive_seed
from .trainer import TrainConfig

__all__ = [
    "DEFAULT_SEEDS",
    "DataSettings",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "set_keys",
    "apply_overrides",
    "classifier_for",
    "datasets_for",
]

DEFAULT_SEEDS = (2024, 2025, 2026)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, model shape, training plan, seed list."""

    label: str = "experiment"
    output_dir: str = "runs"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    data: DataSettings = field(default_factory=DataSettings)
    hidden: tuple[int, ...] = (32,)
    conv_kernel: int = 0
    conv_channels: int = 8
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        batch_size=32, epochs=8, learning_rate=0.5, momentum=0.9))

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("experiment.seeds: must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(
                f"experiment.seeds: {self.seeds} repeats a seed, whose "
                "runs would overwrite each other's artifacts"
            )
        if not self.label:
            raise ConfigError("experiment.label: must be non-empty")
        # ConvSpec checks the channels with or without a conv stage, so
        # a bad value is never accepted and written back out.  Its kernel
        # is a stand-in here; classifier_for below checks the real one.
        ConvSpec(kernel=max(1, self.conv_kernel),
                 channels=self.conv_channels)
        # The model checks run here, before a run writes anything.  A
        # file-backed image has no shape until its file is read, so it
        # gets a stand-in that the kernel fits, and the kernel-vs-image
        # check waits for the model build.
        stand_in = None
        if self.data.kind != "synthetic_blobs":
            side = max(2, self.conv_kernel)
            stand_in = (side, side, 1)
        classifier_for(self, 0, image_shape=stand_in)


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _decay(text: str) -> tuple[tuple[int, float], ...]:
    # "milestone:factor,milestone:factor"
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        epoch_text, _, factor_text = tok.partition(":")
        pairs.append((int(epoch_text), float(factor_text)))
    return tuple(pairs)


# Text types: (read, write, what it reads).  A float's str is its repr.
_STR = (str, str, "text")
_INT = (int, str, "an integer")
_FLOAT = (float, str, "a number")
_INTS = (_int_list, _join, "a comma list of integers")
_DECAY = (_decay, lambda pairs: _join(f"{e}:{f}" for e, f in pairs),
          "milestone:factor pairs")
_LAYOUT = (GridLayout.parse, str, "a grid layout")


class _Key(NamedTuple):
    path: str    # dotted ExperimentConfig attribute the key sets
    text: tuple  # (read, write, what)
    written: Callable[[ExperimentConfig], bool] = lambda config: True


def _named(section: str, owner: str, **texts) -> dict[str, _Key]:
    """Keys named after the fields of ``owner`` that they set."""
    return {f"{section}.{name}": _Key(owner + name, text)
            for name, text in texts.items()}


# Every key parse_config accepts, in the order serialize_config writes
# them.  A None value is left out of the text.
_SCHEMA = {
    **_named("experiment", "", label=_STR, output_dir=_STR, seeds=_INTS),
    **_named("dataset", "data.", kind=_STR, classes=_INT, height=_INT,
             width=_INT, channels=_INT, class_counts=_INTS, n_max=_INT,
             imbalance_factor=_FLOAT, balanced_count=_INT, noise_std=_FLOAT,
             label_noise_rate=_FLOAT, test_per_class=_INT,
             train_images=_STR, train_labels=_STR, test_images=_STR,
             test_labels=_STR, train_path=_STR, test_path=_STR),
    "dataset.variant": _Key("data.variant", _STR,
                            lambda c: c.data.kind == "cifar_binary"),
    **_named("model", "", hidden=_INTS, conv_kernel=_INT, conv_channels=_INT),
    **_named("train", "train.", batch_size=_INT, epochs=_INT,
             learning_rate=_FLOAT, momentum=_FLOAT),
    "train.decay": _Key("train.decay_milestones", _DECAY),
    "train.loss": _Key("train.loss.kind", _STR),
    **_named("train", "train.loss.", focal_gamma=_FLOAT,
             smoothing_epsilon=_FLOAT),
    "grouping.layout": _Key("train.layout", _LAYOUT),
    "grouping.group_size": _Key("train.layout.group_size", _INT),
    **_named("weighting", "train.weighting.", sigma=_FLOAT, rho=_FLOAT,
             strategy=_STR),
    "sampler.kind": _Key("train.sampler", _STR),
}

# apply_overrides keyword -> the key it sets.
_OVERRIDES = {"sigma": "weighting.sigma", "rho": "weighting.rho",
              "layout": "grouping.layout", "seeds": "experiment.seeds",
              "label": "experiment.label",
              "output_dir": "experiment.output_dir"}


def _get(obj, path: str):
    return reduce(getattr, path.split("."), obj)


def _read(key: str, value):
    """A key's value from its text; any other value is written as that
    key's text first, so it takes the same type and checks."""
    read, write, what = _SCHEMA[key].text
    raw = value if isinstance(value, str) else write(value)
    try:
        return read(raw)
    except (ValueError, ConfigError) as err:
        raise ConfigError(
            f"{key}: cannot read {raw!r} as {what} ({err})"
        ) from err


def _rebuilt(obj, tree: dict):
    """``obj`` with the fields in ``tree`` replaced; a nested dict
    rebuilds that field's dataclass once, with all of its new fields."""
    return replace(obj, **{
        name: _rebuilt(getattr(obj, name), value)
        if isinstance(value, dict) else value
        for name, value in tree.items()})


def set_keys(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """``config`` with each ``section.key`` in ``values`` set, read as by
    ``parse_config``.  A key whose path is a derived property sets
    nothing and must equal the derived value."""
    tree, echoes = {}, {}
    for key, value in values.items():
        value = _read(key, value)
        *parents, name = _SCHEMA[key].path.split(".")
        owner = type(reduce(getattr, parents, config))
        if isinstance(getattr(owner, name, None), property):
            echoes[key] = value
            continue
        node = tree
        for parent in parents:
            node = node.setdefault(parent, {})
        node[name] = value
    config = _rebuilt(config, tree)
    for key, value in echoes.items():
        derived = _get(config, _SCHEMA[key].path)
        if value != derived:
            raise ConfigError(
                f"{key} = {value}, but the other settings make it {derived}"
            )
    return config


def _read_keys(text: str) -> dict[str, str]:
    """``section.key`` -> raw text, for the keys the text sets."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax error: {err}") from err
    sections = {key.partition(".")[0] for key in _SCHEMA}
    values = {}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(
                f"unknown section [{name}]; expected {sorted(sections)}"
            )
        for key, raw in parser[name].items():
            if f"{name}.{key}" not in _SCHEMA:
                known = [k.partition(".")[2] for k in _SCHEMA
                         if k.startswith(f"{name}.")]
                raise ConfigError(
                    f"unknown key {name}.{key}; known keys: {sorted(known)}"
                )
            values[f"{name}.{key}"] = raw
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Validated config; a key the text leaves out keeps its
    ``ExperimentConfig()`` value.  Unknown keys are errors."""
    return set_keys(ExperimentConfig(), _read_keys(text))


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text for a config; parse(serialize(c)) == c."""
    lines, section = [], None
    for key, (path, (_, write, _), written) in _SCHEMA.items():
        value = _get(config, path)
        if value is None or not written(config):
            continue
        name, _, short = key.partition(".")
        if name != section:
            lines += ["", f"[{name}]"]
            section = name
        lines.append(f"{short} = {write(value)}")
    return "\n".join(lines[1:] + [""])


def apply_overrides(config: ExperimentConfig, **values) -> ExperimentConfig:
    """Overrides on top of a parsed config, by keyword: sigma, rho,
    layout, seeds, label, output_dir.  Each sets its INI key and is read
    like it; None leaves the key as it is."""
    unknown = sorted(values.keys() - _OVERRIDES.keys())
    if unknown:
        raise TypeError(f"apply_overrides() got unknown keywords {unknown}")
    return set_keys(config, {_OVERRIDES[name]: value
                             for name, value in values.items()
                             if value is not None})


def classifier_for(config: ExperimentConfig, run_seed: int,
                   image_shape=None, class_count=None) -> ClassifierConfig:
    d = config.data
    conv = None
    if config.conv_kernel != 0:
        conv = ConvSpec(kernel=config.conv_kernel,
                        channels=config.conv_channels)
    return ClassifierConfig(
        input_shape=image_shape or d.image_shape,
        hidden=config.hidden,
        class_count=class_count or d.classes,
        init_seed=derive_seed(run_seed, "init"),
        conv=conv,
    )


def datasets_for(config: ExperimentConfig, run_seed: int
                 ) -> tuple[Dataset, Dataset]:
    """Materialize the train/test pair for one run seed.

    Generation and label noise both draw from the run seed's "dataset"
    stream; label noise lands on the train split only.
    """
    d = config.data
    seed = derive_seed(run_seed, "dataset")
    if d.kind == "synthetic_blobs":
        train, test = build_splits(d, seed)
    elif d.kind == "idx_files":
        train = dataset_from_idx(d.train_images, d.train_labels, d.classes)
        test = dataset_from_idx(d.test_images, d.test_labels, d.classes)
    else:
        train = load_cifar_binary(d.train_path, d.variant)
        test = load_cifar_binary(d.test_path, d.variant)
    if d.label_noise_rate > 0.0:
        train = inject_label_noise(train, d.label_noise_rate, seed)
    return train, test
