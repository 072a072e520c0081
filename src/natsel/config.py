"""Experiment configuration: INI-style text with strict key checking.

A config has seven sections (experiment, dataset, model, train, grouping,
weighting, sampler), every key optional except that file-backed datasets
need their paths.  A missing key takes its value from
``ExperimentConfig()``.  Unknown sections or keys are errors, not
warnings: a typo must never silently fall back to a default.
``serialize_config`` writes every effective value back out, so
parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

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
from .model import LOSS_KINDS, ClassifierConfig, ConvSpec
from .seeds import derive_seed
from .trainer import TrainConfig
from .weighting import WeightingConfig

__all__ = [
    "DEFAULT_SEEDS",
    "DataSettings",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "apply_overrides",
    "classifier_for",
    "train_for",
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
            raise ConfigError("experiment.seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(
                f"experiment.seeds: {self.seeds} repeats a seed, whose "
                "runs would overwrite each other's artifacts"
            )
        if not self.label:
            raise ConfigError("experiment.label must be non-empty")
        # The model checks run here, before a run writes anything.  A
        # file-backed image has no shape until its file is read, so it
        # gets a stand-in that the kernel fits, and the kernel-vs-image
        # check waits for the model build.
        stand_in = None
        if self.data.kind != "synthetic_blobs":
            side = max(2, self.conv_kernel)
            stand_in = (side, side, 1)
        classifier_for(self, 0, image_shape=stand_in)


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


_STR = (str, "text")
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_INTS = (_int_list, "a comma list of integers")

# Section -> known key -> (converter, what it reads).  parse_config
# rejects anything else.  Every dataset key, and every experiment and
# model key, is the name of the field it sets.
_SCHEMA = {
    "experiment": {"label": _STR, "output_dir": _STR, "seeds": _INTS},
    "dataset": {"kind": _STR, "classes": _INT, "height": _INT,
                "width": _INT, "channels": _INT, "balanced_count": _INT,
                "n_max": _INT, "imbalance_factor": _FLOAT,
                "class_counts": _INTS, "noise_std": _FLOAT,
                "label_noise_rate": _FLOAT, "test_per_class": _INT,
                "train_images": _STR, "train_labels": _STR,
                "test_images": _STR, "test_labels": _STR,
                "train_path": _STR, "test_path": _STR, "variant": _STR},
    "model": {"hidden": _INTS, "conv_kernel": _INT, "conv_channels": _INT},
    "train": {"batch_size": _INT, "epochs": _INT, "learning_rate": _FLOAT,
              "momentum": _FLOAT,
              "decay": (_decay, "milestone:factor pairs"),
              "loss": _STR, "focal_gamma": _FLOAT,
              "smoothing_epsilon": _FLOAT},
    "grouping": {"layout": (GridLayout.parse, "a grid layout"),
                 "group_size": _INT},
    "weighting": {"sigma": _FLOAT, "rho": _FLOAT, "strategy": _STR},
    "sampler": {"kind": _STR},
}


def _read_sections(text: str) -> dict[str, dict]:
    """Section -> key -> converted value, for the keys the text sets."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"config syntax error: {err}") from err
    sections = {name: {} for name in _SCHEMA}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{name}]; expected {sorted(_SCHEMA)}"
            )
        for key, raw in parser[name].items():
            if key not in _SCHEMA[name]:
                raise ConfigError(
                    f"unknown key {name}.{key}; "
                    f"known keys: {sorted(_SCHEMA[name])}"
                )
            converter, what = _SCHEMA[name][key]
            try:
                sections[name][key] = converter(raw)
            except (ValueError, ConfigError) as err:
                raise ConfigError(
                    f"{name}.{key}: cannot read {raw!r} as {what} ({err})"
                ) from err
    return sections


def _renamed(values: dict, **fields: str) -> dict:
    """The given keys present in ``values``, under their field names."""
    return {name: values[key] for key, name in fields.items()
            if key in values}


def parse_config(text: str) -> ExperimentConfig:
    """Validated config; a key the text leaves out keeps its
    ``ExperimentConfig()`` value.  Unknown keys are errors."""
    sec = _read_sections(text)
    base = ExperimentConfig()
    train_sec, grouping, wsec = sec["train"], sec["grouping"], sec["weighting"]

    loss_kind = train_sec.get("loss", base.train.loss.kind)
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"train.loss: {loss_kind!r} not in {LOSS_KINDS}")
    loss = replace(base.train.loss, kind=loss_kind, **_renamed(
        train_sec, focal_gamma="focal_gamma",
        smoothing_epsilon="smoothing_epsilon"))

    layout = grouping.get("layout", base.train.layout)
    group_size = grouping.get("group_size", layout.group_size)
    if group_size != layout.group_size:
        raise ConfigError(
            f"grouping.group_size={group_size} but layout {layout} "
            f"stitches {layout.group_size} samples"
        )

    weighting = replace(base.train.weighting,
                        **_renamed(wsec, sigma="sigma", rho="rho"))
    strategy = wsec.get("strategy", weighting.strategy)
    if strategy != weighting.strategy:
        raise ConfigError(
            f"weighting.strategy={strategy} but rho={weighting.rho} "
            f"makes it {weighting.strategy}"
        )

    train = replace(
        base.train, layout=layout, weighting=weighting, loss=loss,
        **_renamed(train_sec, batch_size="batch_size", epochs="epochs",
                   learning_rate="learning_rate", momentum="momentum",
                   decay="decay_milestones"),
        **_renamed(sec["sampler"], kind="sampler"))
    return replace(base, data=replace(base.data, **sec["dataset"]),
                   train=train, **sec["experiment"], **sec["model"])


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text for a config; parse(serialize(c)) == c."""
    d = config.data
    t = config.train
    lines = [
        "[experiment]",
        f"label = {config.label}",
        f"output_dir = {config.output_dir}",
        "seeds = " + ",".join(str(s) for s in config.seeds),
        "",
        "[dataset]",
        f"kind = {d.kind}",
        f"classes = {d.classes}",
        f"height = {d.height}",
        f"width = {d.width}",
        f"channels = {d.channels}",
    ]
    if d.class_counts is not None:
        lines.append("class_counts = " + ",".join(str(n)
                                                  for n in d.class_counts))
    if d.n_max is not None:
        lines.append(f"n_max = {d.n_max}")
        lines.append(f"imbalance_factor = {_fmt(d.imbalance_factor)}")
    if d.balanced_count is not None:
        lines.append(f"balanced_count = {d.balanced_count}")
    lines += [
        f"noise_std = {_fmt(d.noise_std)}",
        f"label_noise_rate = {_fmt(d.label_noise_rate)}",
        f"test_per_class = {d.test_per_class}",
    ]
    for key in ("train_images", "train_labels", "test_images", "test_labels",
                "train_path", "test_path"):
        value = getattr(d, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    if d.kind == "cifar_binary":
        lines.append(f"variant = {d.variant}")
    lines += [
        "",
        "[model]",
        "hidden = " + ",".join(str(h) for h in config.hidden),
        f"conv_kernel = {config.conv_kernel}",
        f"conv_channels = {config.conv_channels}",
        "",
        "[train]",
        f"batch_size = {t.batch_size}",
        f"epochs = {t.epochs}",
        f"learning_rate = {_fmt(t.learning_rate)}",
        f"momentum = {_fmt(t.momentum)}",
        "decay = " + ",".join(f"{e}:{_fmt(f)}"
                              for e, f in t.decay_milestones),
        f"loss = {t.loss.kind}",
        f"focal_gamma = {_fmt(t.loss.focal_gamma)}",
        f"smoothing_epsilon = {_fmt(t.loss.smoothing_epsilon)}",
        "",
        "[grouping]",
        f"layout = {t.layout}",
        f"group_size = {t.layout.group_size}",
        "",
        "[weighting]",
        f"sigma = {_fmt(t.weighting.sigma)}",
        f"rho = {_fmt(t.weighting.rho)}",
        f"strategy = {t.weighting.strategy}",
        "",
        "[sampler]",
        f"kind = {t.sampler}",
        "",
    ]
    return "\n".join(lines)


def apply_overrides(config: ExperimentConfig, *, sigma=None, rho=None,
                    layout=None, seeds=None, label=None,
                    output_dir=None) -> ExperimentConfig:
    """Command-line overrides on top of a parsed config."""
    train = config.train
    if sigma is not None or rho is not None:
        new_sigma = train.weighting.sigma if sigma is None else float(sigma)
        new_rho = train.weighting.rho if rho is None else float(rho)
        train = replace(train, weighting=WeightingConfig(new_sigma, new_rho))
    if layout is not None:
        parsed = layout if isinstance(layout, GridLayout) \
            else GridLayout.parse(layout)
        train = replace(train, layout=parsed)
    config = replace(config, train=train)
    if seeds is not None:
        config = replace(config, seeds=tuple(int(s) for s in seeds))
    if label is not None:
        config = replace(config, label=label)
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    return config


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


def train_for(config: ExperimentConfig, run_seed: int) -> TrainConfig:
    return replace(config.train, seed=run_seed)


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
