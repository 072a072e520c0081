"""Synthetic datasets, IDX/CIFAR-binary loaders, and sampling baselines.

Synthetic classes are deterministic low-frequency patterns: smooth enough
that a downscaled stitched composite still carries class information, yet
distinct enough for a tiny classifier to separate.  Every random draw
comes from a stream derived from the recipe seed plus a purpose label, so
generation is bitwise reproducible and per-class parallelizable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .seeds import derive_seed

__all__ = [
    "DATASET_KINDS",
    "SAMPLER_KINDS",
    "DatasetRecipe",
    "Dataset",
    "SamplerConfig",
    "gen_synthetic",
    "build_splits",
    "longtail_counts",
    "inject_label_noise",
    "class_sampling_probs",
    "epoch_indices",
    "load_idx",
    "save_idx",
    "dataset_from_idx",
    "load_cifar_binary",
]

DATASET_KINDS = ("synthetic_blobs", "idx_files", "cifar_binary")
SAMPLER_KINDS = ("instance_uniform", "cbs", "srs", "pbs")

_IDX_LABEL_MAGIC = 0x00000801
_IDX_IMAGE_MAGIC = 0x00000803
_IDX_IMAGE4_MAGIC = 0x00000804


@dataclass(frozen=True)
class DatasetRecipe:
    """Everything needed to regenerate a dataset bitwise."""

    kind: str
    class_count: int
    image_shape: tuple[int, int, int]
    per_class_counts: tuple[int, ...]
    noise_std: float = 0.0
    label_noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(
                f"unknown dataset kind {self.kind!r}, expected one of {DATASET_KINDS}"
            )
        if self.class_count < 2:
            raise ConfigError("need at least two classes")
        if len(self.image_shape) != 3 or any(d < 1 for d in self.image_shape):
            raise ConfigError(f"bad image shape {self.image_shape}")
        if len(self.per_class_counts) != self.class_count:
            raise ConfigError(
                f"{len(self.per_class_counts)} per-class counts for "
                f"{self.class_count} classes"
            )
        if any(n < 1 for n in self.per_class_counts):
            raise ConfigError("per-class counts must be positive")
        if self.noise_std < 0:
            raise ConfigError("pixel noise std must be non-negative")
        if not 0.0 <= self.label_noise_rate < 1.0:
            raise ConfigError("label noise rate must lie in [0, 1)")


@dataclass(frozen=True)
class Dataset:
    """Labeled image stack; ``clean_labels`` keeps pre-noise labels."""

    images: np.ndarray       # [N, H, W, C] float64 in [0, 1]
    labels: np.ndarray       # [N] int64 training labels (possibly noised)
    clean_labels: np.ndarray  # [N] int64 original labels
    class_count: int

    def __post_init__(self):
        n = self.images.shape[0]
        if self.labels.shape != (n,) or self.clean_labels.shape != (n,):
            raise ConfigError("label arrays must match the image count")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(images=self.images[idx], labels=self.labels[idx],
                       clean_labels=self.clean_labels[idx],
                       class_count=self.class_count)


@dataclass(frozen=True)
class SamplerConfig:
    """Which class-sampling baseline to use when ordering an epoch."""

    kind: str = "instance_uniform"
    total_epochs: int = 1

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(
                f"unknown sampler {self.kind!r}, expected one of {SAMPLER_KINDS}"
            )
        if self.total_epochs < 1:
            raise ConfigError("sampler total_epochs must be positive")


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


def _fill_class(recipe: DatasetRecipe, k: int, *parts: np.ndarray) -> None:
    """Class k's samples, written in place into each of ``parts`` in turn.

    One noise stream per class: the parts continue it, so splitting a
    class's rows across arrays draws exactly what one array would.
    """
    template = _class_template(
        recipe.image_shape,
        np.random.default_rng(derive_seed(recipe.seed, "template", k)),
    )
    noise_rng = np.random.default_rng(derive_seed(recipe.seed, "samples", k))
    for rows in parts:
        noise_rng.standard_normal(out=rows)
        rows *= recipe.noise_std
        rows += template
        np.clip(rows, 0.0, 1.0, out=rows)


def _synthesize(recipe: DatasetRecipe, *split_counts) -> list[Dataset]:
    """Class-ordered synthetic splits, split j holding split_counts[j][k]
    samples of class k.  Class k's noise stream runs through the splits
    in order, each sample written straight into its split's array."""
    if recipe.kind != "synthetic_blobs":
        raise ConfigError(f"cannot synthesize dataset kind {recipe.kind!r}")
    splits = []
    for counts in split_counts:
        labels = np.repeat(np.arange(recipe.class_count, dtype=np.int64),
                           counts)
        images = np.empty((labels.shape[0],) + recipe.image_shape)
        splits.append(Dataset(images=images, labels=labels,
                              clean_labels=labels.copy(),
                              class_count=recipe.class_count))
    ends = [np.cumsum(counts) for counts in split_counts]
    for k in range(recipe.class_count):
        _fill_class(recipe, k, *(
            ds.images[end[k] - counts[k]:end[k]]
            for ds, counts, end in zip(splits, split_counts, ends)))
    return splits


def gen_synthetic(recipe: DatasetRecipe) -> Dataset:
    """Class templates plus per-sample Gaussian pixel noise, clamped to [0,1].

    Samples are emitted class-ordered (all of class 0, then class 1, ...).
    Each class draws from its own derived stream, so output is independent
    of generation order.
    """
    ds, = _synthesize(recipe, recipe.per_class_counts)
    if recipe.label_noise_rate > 0.0:
        ds = inject_label_noise(ds, recipe.label_noise_rate, recipe.seed)
    return ds


def build_splits(recipe: DatasetRecipe, test_per_class: int
                 ) -> tuple[Dataset, Dataset]:
    """Train/test pair sharing class templates but with disjoint samples.

    The recipe's per-class counts are the train counts; each class's
    stream then continues into ``test_per_class`` test samples.  Label
    noise from the recipe lands on the train split only.
    """
    if test_per_class < 1:
        raise ConfigError("need at least one test sample per class")
    train, test = _synthesize(recipe, recipe.per_class_counts,
                              (test_per_class,) * recipe.class_count)
    if recipe.label_noise_rate > 0.0:
        train = inject_label_noise(train, recipe.label_noise_rate, recipe.seed)
    return train, test


def longtail_counts(n_max: int, class_count: int, imbalance_factor: float
                    ) -> tuple[int, ...]:
    """Exponentially decaying per-class counts n_k = n_max * IF^(-k/(K-1)).

    Rounding is half-up and every count is clamped to at least 1.
    """
    if class_count < 2:
        raise ConfigError("need at least two classes for a long-tail profile")
    if imbalance_factor < 1.0:
        raise ConfigError("imbalance factor must be at least 1")
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


def class_sampling_probs(counts, sampler: SamplerConfig, epoch: int
                         ) -> np.ndarray:
    """Per-class draw probabilities for the configured baseline.

    instance_uniform weights by frequency, cbs is uniform, srs weights by
    square-root frequency, and pbs linearly slides from frequency-based
    to uniform as epoch runs from 0 to total_epochs.
    """
    n = np.asarray(counts, dtype=np.float64)
    if n.ndim != 1 or n.size < 1 or n.min() <= 0:
        raise ConfigError("class counts must be a vector of positive numbers")
    if sampler.kind == "cbs":
        return np.full(n.size, 1.0 / n.size)
    if sampler.kind == "srs":
        root = np.sqrt(n)
        return root / root.sum()
    freq = n / n.sum()
    if sampler.kind == "instance_uniform":
        return freq
    # pbs
    if not 0 <= epoch <= sampler.total_epochs:
        raise ConfigError(
            f"epoch {epoch} outside [0, {sampler.total_epochs}] for pbs"
        )
    t = epoch / sampler.total_epochs
    return (1.0 - t) * freq + t * np.full(n.size, 1.0 / n.size)


def epoch_indices(labels: np.ndarray, class_count: int, sampler: SamplerConfig,
                  epoch: int, seed: int) -> np.ndarray:
    """Sample order for one epoch, deterministic in (seed, epoch).

    instance_uniform is a plain permutation (every sample exactly once).
    The class-balancing samplers draw N samples with replacement: class
    from class_sampling_probs, then a uniform member of that class.
    """
    rng = np.random.default_rng(derive_seed(seed, "epoch-shuffle", epoch))
    n = labels.shape[0]
    if sampler.kind == "instance_uniform":
        return rng.permutation(n)
    counts = np.bincount(labels, minlength=class_count)
    if counts.min() <= 0:
        raise ConfigError("balanced samplers need every class represented")
    probs = class_sampling_probs(counts, sampler, epoch)
    classes = rng.choice(class_count, size=n, p=probs)
    by_class = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    member = (rng.random(n) * counts[classes]).astype(np.int64)
    return by_class[starts[classes] + member]


def save_idx(path, array: np.ndarray) -> None:
    """Write labels (1-D ints) or images (3-D/4-D floats) as an IDX file.

    Image values are quantized to bytes as round(v * 255); labels must
    already fit a byte.  Multi-channel images use the 4-D variant of the
    format (dimension-count byte 4 in the magic).
    """
    arr = np.asarray(array)
    with open(path, "wb") as fh:
        if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise FormatError("labels must fit in one byte")
            fh.write(struct.pack(">ii", _IDX_LABEL_MAGIC, arr.size))
            fh.write(arr.astype(np.uint8).tobytes())
        elif arr.ndim in (3, 4) and np.issubdtype(arr.dtype, np.floating):
            magic = _IDX_IMAGE_MAGIC if arr.ndim == 3 else _IDX_IMAGE4_MAGIC
            fh.write(struct.pack(">i", magic))
            fh.write(struct.pack(f">{arr.ndim}i", *arr.shape))
            quantized = np.floor(arr * 255.0 + 0.5)
            if quantized.min() < 0 or quantized.max() > 255:
                raise FormatError("image values must lie in [0, 1]")
            fh.write(quantized.astype(np.uint8).tobytes())
        else:
            raise FormatError(
                f"cannot encode dtype {arr.dtype} with {arr.ndim} dimensions"
            )


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


def dataset_from_idx(images_path, labels_path,
                     class_count: int | None = None) -> Dataset:
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
    k = int(labels.max()) + 1 if labels.size else 2
    if class_count is None:
        class_count = max(k, 2)
    elif k > class_count:
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
    if variant == "cifar10":
        label_bytes, class_count = 1, 10
    elif variant == "cifar100":
        label_bytes, class_count = 2, 100
    else:
        raise ConfigError(f"unknown CIFAR variant {variant!r}")
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
