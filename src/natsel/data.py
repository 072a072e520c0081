"""Synthetic datasets, IDX/CIFAR-binary loaders, and sampling baselines.

Synthetic classes are deterministic low-frequency patterns: smooth enough
that a downscaled stitched composite still carries class information, yet
distinct enough for a tiny classifier to separate.  Every random draw
comes from a stream derived from the data seed plus a purpose label, so
generation is bitwise reproducible and per-class parallelizable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .seeds import derive_seed

__all__ = [
    "DATASET_KINDS",
    "SAMPLER_KINDS",
    "CIFAR_VARIANTS",
    "DataSettings",
    "Dataset",
    "build_splits",
    "longtail_counts",
    "inject_label_noise",
    "class_sampling_probs",
    "epoch_indices",
    "load_idx",
    "dataset_from_idx",
    "load_cifar_binary",
]

DATASET_KINDS = ("synthetic_blobs", "idx_files", "cifar_binary")
SAMPLER_KINDS = ("instance_uniform", "cbs", "srs", "pbs")
CIFAR_VARIANTS = ("cifar10", "cifar100")

_IDX_LABEL_MAGIC = 0x00000801
_IDX_IMAGE_MAGIC = 0x00000803
_IDX_IMAGE4_MAGIC = 0x00000804


@dataclass(frozen=True)
class DataSettings:
    """Dataset identity: generator knobs or file paths, plus the split.

    Every value is checked here, so a bad one fails when the config is
    built, before a run writes anything.
    """

    kind: str = "synthetic_blobs"
    classes: int = 10
    height: int = 8
    width: int = 8
    channels: int = 1
    balanced_count: int | None = None
    n_max: int | None = None
    imbalance_factor: float | None = None
    class_counts: tuple[int, ...] | None = None
    noise_std: float = 0.05
    label_noise_rate: float = 0.0
    test_per_class: int = 20
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    train_path: str | None = None
    test_path: str | None = None
    variant: str = "cifar10"

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(
                f"dataset.kind: {self.kind!r} not in {DATASET_KINDS}"
            )
        if (self.n_max is None) != (self.imbalance_factor is None):
            lone = "n_max" if self.imbalance_factor is None \
                else "imbalance_factor"
            raise ConfigError(
                f"dataset.{lone}: n_max and imbalance_factor go together"
            )
        modes = [name for name in ("class_counts", "n_max", "balanced_count")
                 if getattr(self, name) is not None]
        if len(modes) > 1:
            raise ConfigError(
                f"dataset.{modes[1]}: choose one of class_counts, "
                f"n_max/imbalance_factor, balanced_count; {modes[0]} is "
                "set too"
            )
        needed = {"idx_files": ("train_images", "train_labels",
                                "test_images", "test_labels"),
                  "cifar_binary": ("train_path", "test_path")}
        missing = [k for k in needed.get(self.kind, ())
                   if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                f"dataset.{missing[0]}: {self.kind} needs {missing}")
        if self.variant not in CIFAR_VARIANTS:
            raise ConfigError(
                f"dataset.variant: {self.variant!r} not in {CIFAR_VARIANTS}"
            )
        if self.variant != "cifar10" and self.kind != "cifar_binary":
            raise ConfigError(
                f"dataset.variant: {self.variant!r} needs kind = cifar_binary"
            )
        if self.classes < 2:
            raise ConfigError(
                f"dataset.classes: need at least two, got {self.classes}"
            )
        for name, least in (("height", 2), ("width", 2), ("channels", 1),
                            ("balanced_count", 1), ("n_max", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(
                    f"dataset.{name}: need at least {least}, got {value}")
        if (self.imbalance_factor is not None
                and not 1.0 <= self.imbalance_factor < math.inf):
            raise ConfigError(
                f"dataset.imbalance_factor: must be finite and at least 1, "
                f"got {self.imbalance_factor}"
            )
        if self.class_counts is not None and (
                len(self.class_counts) != self.classes
                or min(self.class_counts) < 1):
            raise ConfigError(
                f"dataset.class_counts: need {self.classes} positive "
                f"counts, one per class, got {self.class_counts}"
            )
        if not 0.0 <= self.noise_std < math.inf:
            raise ConfigError(
                f"dataset.noise_std: must be finite and non-negative, "
                f"got {self.noise_std}"
            )
        if not 0.0 <= self.label_noise_rate < 1.0:
            raise ConfigError(
                f"dataset.label_noise_rate: must lie in [0, 1), "
                f"got {self.label_noise_rate}"
            )
        if self.test_per_class < 1:
            raise ConfigError(
                f"dataset.test_per_class: need at least one, "
                f"got {self.test_per_class}"
            )

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.height, self.width, self.channels

    def train_counts(self) -> tuple[int, ...]:
        """Per-class train-split sizes for the synthetic generator."""
        if self.class_counts is not None:
            return self.class_counts
        if self.n_max is not None:
            return longtail_counts(self.n_max, self.classes,
                                   self.imbalance_factor)
        per_class = self.balanced_count if self.balanced_count is not None \
            else 100
        return (per_class,) * self.classes


@dataclass(frozen=True)
class Dataset:
    """Labeled image stack; ``clean_labels`` keeps pre-noise labels.
    The images are a float64 [N, H, W, C] array of finite values in
    [0, 1], and both label arrays are integers in [0, class_count)."""

    images: np.ndarray       # [N, H, W, C] float64 in [0, 1]
    labels: np.ndarray       # [N] integer training labels (possibly noised)
    clean_labels: np.ndarray  # [N] integer original labels
    class_count: int

    def __post_init__(self):
        images = self.images
        if images.dtype != np.float64 or images.ndim != 4:
            raise ConfigError(f"images must be a float64 [N, H, W, C] "
                              f"array, got {images.dtype} of shape "
                              f"{images.shape}")
        # NaN fails both comparisons, so one min and one max suffice.
        if images.size and not (images.min() >= 0.0
                                and images.max() <= 1.0):
            raise ConfigError(f"images must be finite and lie in [0, 1], "
                              f"got [{images.min()}, {images.max()}]")
        n = images.shape[0]
        if self.labels.shape != (n,) or self.clean_labels.shape != (n,):
            raise ConfigError("label arrays must match the image count")
        for name in ("labels", "clean_labels"):
            values = getattr(self, name)
            if values.dtype.kind not in "iu":
                raise ConfigError(f"{name} must be integers, got dtype "
                                  f"{values.dtype}")
            if n and (values.min() < 0 or values.max() >= self.class_count):
                raise ConfigError(
                    f"{name} must lie in [0, {self.class_count}), got "
                    f"[{values.min()}, {values.max()}]")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


def _class_template(shape: tuple[int, int, int], rng: np.random.Generator
                    ) -> np.ndarray:
    """One smooth pattern: random low-frequency cosine mix per channel.

    Values are affinely squeezed into [0.2, 0.8] so additive pixel noise
    has headroom before the [0, 1] clamp saturates.
    """
    h, w, c = shape
    ys = (np.arange(h, dtype=np.float64) + 0.5) / h
    xs = (np.arange(w, dtype=np.float64) + 0.5) / w
    canvas = np.zeros((h, w, c))
    for ch in range(c):
        acc = np.zeros((h, w))
        for fy in range(3):
            for fx in range(3):
                if fy == 0 and fx == 0:
                    continue
                amp = rng.normal()
                phase = rng.uniform(0.0, 2.0 * np.pi)
                acc += amp * np.cos(
                    2.0 * np.pi * (fy * ys[:, None] + fx * xs[None, :]) + phase
                )
        canvas[..., ch] = acc
    lo, hi = canvas.min(), canvas.max()
    if hi - lo < 1e-9:
        return np.full((h, w, c), 0.5)
    return 0.2 + 0.6 * (canvas - lo) / (hi - lo)


def _fill_class(settings: DataSettings, seed: int, k: int,
                *parts: np.ndarray) -> None:
    """Class k's samples, written in place into each of ``parts`` in turn.

    One noise stream per class: the parts continue it, so splitting a
    class's rows across arrays draws exactly what one array would.
    """
    template = _class_template(
        settings.image_shape,
        np.random.default_rng(derive_seed(seed, "template", k)),
    )
    noise_rng = np.random.default_rng(derive_seed(seed, "samples", k))
    for rows in parts:
        noise_rng.standard_normal(out=rows)
        rows *= settings.noise_std
        rows += template
        np.clip(rows, 0.0, 1.0, out=rows)


def build_splits(settings: DataSettings, seed: int
                 ) -> tuple[Dataset, Dataset]:
    """Synthetic train/test pair sharing class templates, disjoint samples.

    Class templates plus per-sample Gaussian pixel noise, clamped to
    [0, 1].  Each split is class-ordered (all of class 0, then class 1,
    ...), and each class draws from its own stream derived from ``seed``,
    so output is independent of generation order.  Class k's stream
    writes its ``train_counts()[k]`` train samples, then continues into
    ``test_per_class`` test samples.  Labels are clean.
    """
    if settings.kind != "synthetic_blobs":
        raise ConfigError(f"cannot synthesize dataset kind {settings.kind!r}")
    split_counts = (settings.train_counts(),
                    (settings.test_per_class,) * settings.classes)
    images = [np.empty((sum(counts),) + settings.image_shape)
              for counts in split_counts]
    ends = [np.cumsum(counts) for counts in split_counts]
    for k in range(settings.classes):
        _fill_class(settings, seed, k, *(
            split[end[k] - counts[k]:end[k]]
            for split, counts, end in zip(images, split_counts, ends)))
    splits = []
    for counts, split in zip(split_counts, images):
        labels = np.repeat(np.arange(settings.classes, dtype=np.int64),
                           counts)
        splits.append(Dataset(images=split, labels=labels,
                              clean_labels=labels.copy(),
                              class_count=settings.classes))
    train, test = splits
    return train, test


def longtail_counts(n_max: int, class_count: int, imbalance_factor: float
                    ) -> tuple[int, ...]:
    """Exponentially decaying per-class counts n_k = n_max * IF^(-k/(K-1)).

    Rounding is half-up and every count is clamped to at least 1.
    """
    if class_count < 2:
        raise ConfigError("need at least two classes for a long-tail profile")
    if not 1.0 <= imbalance_factor < math.inf:
        raise ConfigError("imbalance factor must be finite and at least 1")
    if n_max < 1:
        raise ConfigError("largest class count must be positive")
    ks = np.arange(class_count, dtype=np.float64)
    raw = n_max * imbalance_factor ** (-ks / (class_count - 1))
    counts = np.floor(raw + 0.5).astype(np.int64)
    return tuple(int(max(1, n)) for n in counts)


def inject_label_noise(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Flip labels of exactly floor(rate * N) samples, never to themselves.

    Flip targets are drawn uniformly from the other K-1 classes.  The
    returned dataset keeps the incoming clean labels for diagnostics.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError("label noise rate must lie in [0, 1)")
    n = len(dataset)
    n_flip = int(rate * n)
    if n_flip == 0:
        return dataset
    rng = np.random.default_rng(derive_seed(seed, "label-noise"))
    victims = rng.permutation(n)[:n_flip]
    draws = rng.integers(0, dataset.class_count - 1, size=n_flip)
    labels = dataset.labels.copy()
    # shift draws at or past the true label up by one to exclude it
    labels[victims] = draws + (draws >= labels[victims])
    return Dataset(images=dataset.images, labels=labels,
                   clean_labels=dataset.clean_labels,
                   class_count=dataset.class_count)


def class_sampling_probs(counts, sampler: str, epoch: int, epochs: int
                         ) -> np.ndarray:
    """Per-class draw probabilities for the configured baseline.

    instance_uniform weights by frequency, cbs is uniform, srs weights by
    square-root frequency, and pbs linearly slides from frequency-based
    to uniform as epoch runs from 0 to the run's ``epochs``.
    """
    if sampler not in SAMPLER_KINDS:
        raise ConfigError(
            f"unknown sampler {sampler!r}, expected one of {SAMPLER_KINDS}"
        )
    n = np.asarray(counts, dtype=np.float64)
    if n.ndim != 1 or n.size < 1 or n.min() <= 0:
        raise ConfigError("class counts must be a vector of positive numbers")
    if sampler == "cbs":
        return np.full(n.size, 1.0 / n.size)
    if sampler == "srs":
        root = np.sqrt(n)
        return root / root.sum()
    freq = n / n.sum()
    if sampler == "instance_uniform":
        return freq
    # pbs
    if epochs < 1 or not 0 <= epoch <= epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {epochs}] for pbs")
    t = epoch / epochs
    return (1.0 - t) * freq + t * np.full(n.size, 1.0 / n.size)


def epoch_indices(labels: np.ndarray, class_count: int, sampler: str,
                  epoch: int, epochs: int, seed: int) -> np.ndarray:
    """Sample order for one epoch of ``epochs``, deterministic in
    (seed, epoch).

    instance_uniform is a plain permutation (every sample exactly once).
    The class-balancing samplers draw N samples with replacement: class
    from class_sampling_probs, then a uniform member of that class.
    """
    rng = np.random.default_rng(derive_seed(seed, "epoch-shuffle", epoch))
    n = labels.shape[0]
    if sampler == "instance_uniform":
        return rng.permutation(n)
    counts = np.bincount(labels, minlength=class_count)
    if counts.min() <= 0:
        raise ConfigError("balanced samplers need every class represented")
    probs = class_sampling_probs(counts, sampler, epoch, epochs)
    classes = rng.choice(class_count, size=n, p=probs)
    by_class = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    member = (rng.random(n) * counts[classes]).astype(np.int64)
    return by_class[starts[classes] + member]


def load_idx(path) -> np.ndarray:
    """Read an IDX file: labels come back int64, images float64 in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">i", blob[:4])[0]
    if magic == _IDX_LABEL_MAGIC:
        ndim = 1
    elif magic == _IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == _IDX_IMAGE4_MAGIC:
        ndim = 4
    else:
        raise FormatError(f"{path}: bad IDX magic 0x{magic & 0xffffffff:08x}")
    header = 4 + 4 * ndim
    if len(blob) < header:
        raise FormatError(f"{path}: truncated IDX dimension block")
    shape = struct.unpack(f">{ndim}i", blob[4:header])
    if any(d < 0 for d in shape):
        raise FormatError(f"{path}: negative IDX dimension {shape}")
    count = int(np.prod(shape, dtype=np.int64))
    body = blob[header:]
    if len(body) != count:
        raise FormatError(
            f"{path}: expected {count} data bytes, found {len(body)}"
        )
    flat = np.frombuffer(body, dtype=np.uint8)
    if ndim == 1:
        return flat.astype(np.int64)
    return flat.reshape(shape).astype(np.float64) / 255.0


def dataset_from_idx(images_path, labels_path, class_count: int) -> Dataset:
    """Assemble a Dataset from an IDX image file and an IDX label file."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim == 3:
        images = images[..., np.newaxis]
    if labels.ndim != 1:
        raise FormatError(f"{labels_path} does not hold labels")
    if images.ndim != 4:
        raise FormatError(f"{images_path} does not hold images")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    if labels.size and int(labels.max()) >= class_count:
        raise FormatError(
            f"label {int(labels.max())} out of range for {class_count} classes"
        )
    return Dataset(images=images, labels=labels, clean_labels=labels.copy(),
                   class_count=class_count)


def load_cifar_binary(path, variant: str = "cifar10") -> Dataset:
    """Read a CIFAR binary batch: label byte(s) + 3072 channel-planar pixels.

    ``variant`` selects the record layout: cifar10 has one label byte,
    cifar100 has a coarse byte then a fine byte (the fine label is used).
    """
    if variant not in CIFAR_VARIANTS:
        raise ConfigError(f"unknown CIFAR variant {variant!r}")
    label_bytes, class_count = (1, 10) if variant == "cifar10" else (2, 100)
    record = label_bytes + 3072
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob or len(blob) % record:
        raise FormatError(
            f"{path}: size {len(blob)} is not a multiple of {record}-byte records"
        )
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
    labels = raw[:, label_bytes - 1].astype(np.int64)
    if labels.max() >= class_count:
        raise FormatError(
            f"{path}: label {int(labels.max())} out of range for {variant}"
        )
    pixels = raw[:, label_bytes:].reshape(-1, 3, 32, 32)
    images = pixels.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    return Dataset(images=images, labels=labels, clean_labels=labels.copy(),
                   class_count=class_count)
