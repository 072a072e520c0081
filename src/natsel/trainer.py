"""Training loop with group-competition loss weighting.

Each step: shuffle-derived batch, detached composite scoring, affine
score-to-weight map, weighted mean loss on the tape, backprop, SGD with
momentum.  With rho == 0 the scoring stage is skipped outright, so the
loop degenerates to exactly the plain weighted-ERM loop.

Metrics are written as CSV with one row per (epoch, split).  Wall-clock
columns (``seconds``, ``ns_seconds``) are physically nondeterministic;
``deterministic_csv_bytes`` strips them so reruns can be compared
byte-for-byte on everything else.  Every CSV the package writes goes
through ``_write_table`` (or, for the per-sample score log,
``_write_scores``): one cell format, and a file that is either complete
or absent.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import SAMPLER_KINDS, Dataset, epoch_indices
from .errors import ConfigError, NumericError, ShapeError, TrainingDiverged
from .imageops import GridLayout
from .model import Classifier, LossConfig, sample_losses
from .nscore import NSResult, batch_ns_scores
from .tensor import GradTape, backward
from .weighting import WeightingConfig, compute_weights

__all__ = [
    "TrainConfig",
    "MetricsRecord",
    "EvalResult",
    "weighted_batch_loss",
    "sgd_momentum_step",
    "train",
    "evaluate",
    "write_metrics_csv",
    "read_metrics_csv",
    "deterministic_csv_bytes",
]

_TIMING_COLUMNS = ("seconds", "ns_seconds")

_EVAL_CHUNK = 256


@dataclass(frozen=True)
class TrainConfig:
    """Everything the loop needs besides the dataset and the model."""

    batch_size: int
    epochs: int
    learning_rate: float
    momentum: float = 0.0
    decay_milestones: tuple[tuple[int, float], ...] = ()
    layout: GridLayout = GridLayout(2, 2)
    weighting: WeightingConfig = WeightingConfig(1.0, 0.0)
    sampler: str = "instance_uniform"
    loss: LossConfig = LossConfig()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"train.learning_rate: must be finite and "
                              f"positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"train.momentum: must lie in [0, 1), got "
                              f"{self.momentum}")
        if self.epochs < 1:
            raise ConfigError(f"train.epochs: need at least one, got "
                              f"{self.epochs}")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(
                f"sampler.kind: unknown sampler {self.sampler!r}, "
                f"expected one of {SAMPLER_KINDS}"
            )
        if self.weighting.rho != 0.0 and self.layout.group_size < 2:
            raise ConfigError(
                f"grouping.layout: rho={self.weighting.rho} needs groups "
                f"of at least 2 samples to compete, but layout "
                f"{self.layout} stitches 1"
            )
        if self.batch_size < self.layout.group_size:
            raise ConfigError(
                f"train.batch_size: {self.batch_size} is smaller than "
                f"the group size {self.layout.group_size}"
            )
        for milestone, factor in self.decay_milestones:
            if milestone < 0 or not 0.0 < factor < math.inf:
                raise ConfigError(
                    f"train.decay: bad milestone ({milestone}, {factor}); "
                    "need a non-negative epoch and a finite positive factor"
                )

    def lr_at(self, epoch: int) -> float:
        """Base rate times every decay factor whose milestone has passed."""
        lr = self.learning_rate
        for milestone, factor in self.decay_milestones:
            if epoch >= milestone:
                lr *= factor
        return lr


@dataclass(frozen=True)
class MetricsRecord:
    """One (epoch, split) measurement row.

    The fields, in order, are the metrics CSV columns.  Forward-pass
    counters are in per-image units and populated on train rows only;
    ``per_class_ns`` is None when no scoring ran (test rows, or rho == 0).
    ``seconds``/``ns_seconds`` are wall-clock and therefore excluded from
    determinism comparisons.
    """

    epoch: int
    split: str
    mean_loss: float
    accuracy: float
    per_class_accuracy: tuple[float, ...]
    per_class_ns: tuple[float, ...] | None
    seconds: float
    train_forward_passes: int
    ns_forward_passes: int
    ns_seconds: float


@dataclass(frozen=True)
class EvalResult:
    mean_loss: float
    accuracy: float
    per_class_accuracy: tuple[float, ...]


def weighted_batch_loss(logits: np.ndarray, labels, weights,
                        loss_cfg: LossConfig = LossConfig(), *,
                        tape: GradTape) -> np.ndarray:
    """(1/B) * sum_i w_i * loss_i of [B, K] logits, as a 0-d array.

    The whole batch is one tape record whose pullback is the closed-form
    logit gradient of :func:`natsel.model.sample_losses`, scaled by
    w_i / B.  Weights enter as constants (no gradient flows into them),
    which is what keeps the scoring stage outside the optimization.
    """
    w = np.asarray(weights, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [B, K], got shape {logits.shape}")
    b = logits.shape[0]
    if b == 0:
        raise ShapeError("empty batch")
    if w.shape != (b,) or labels.shape != (b,):
        raise ShapeError(
            f"{b} rows of logits but {labels.shape} labels and "
            f"{w.shape} weights"
        )
    losses, dlogits = sample_losses(logits, labels, loss_cfg, grad=True)
    out = np.array(float(np.sum(w * losses)) / b)
    row_scale = (w / b)[:, np.newaxis]

    def pull(g: np.ndarray):
        return ((logits, dlogits * (row_scale * g)),)

    tape.record(out, pull)
    return out


def sgd_momentum_step(params, grads, velocity, learning_rate: float,
                      momentum: float) -> None:
    """v <- mu*v + g; theta <- theta - eta*v, in place on the parameters."""
    if not len(params) == len(grads) == len(velocity):
        raise ShapeError("params, grads, and velocity lengths differ")
    for p, g, v in zip(params, grads, velocity):
        if g.shape != p.shape or v.shape != p.shape:
            raise ShapeError(
                f"shape mismatch in update: param {p.shape}, "
                f"grad {g.shape}, velocity {v.shape}"
            )
        v *= momentum
        v += g
        p -= learning_rate * v


def _accuracy_stats(predictions: np.ndarray, labels: np.ndarray,
                    class_count: int) -> tuple[float, tuple[float, ...]]:
    correct = predictions == labels
    overall = float(correct.mean())
    per_class = []
    for k in range(class_count):
        mask = labels == k
        per_class.append(float(correct[mask].mean()) if mask.any() else 0.0)
    return overall, tuple(per_class)


def evaluate(model: Classifier, dataset: Dataset,
             loss_cfg: LossConfig = LossConfig()) -> EvalResult:
    """Mean loss and accuracies; argmax prediction, no weighting.

    np.argmax resolves ties toward the smallest class index, which is the
    documented tie rule.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    loss_sum = 0.0
    predictions = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, len(dataset))
        images = dataset.images[start:stop]
        logits = model.forward_batch(images)
        labels = dataset.labels[start:stop]
        loss_sum += float(sample_losses(logits, labels, loss_cfg).sum())
        predictions[start:stop] = np.argmax(logits, axis=1)
    overall, per_class = _accuracy_stats(predictions, dataset.labels,
                                         dataset.class_count)
    return EvalResult(mean_loss=loss_sum / len(dataset), accuracy=overall,
                      per_class_accuracy=per_class)


class _Step(NamedTuple):
    """One training step, as the loop took it.

    ``ns``, ``weights`` and ``ns_seconds`` are set on scored steps only;
    ``ns_seconds`` times the scoring and the weight map together.
    """

    epoch: int
    step: int
    indices: np.ndarray      # the batch's positions in the train split
    labels: np.ndarray
    predictions: np.ndarray  # argmax of the taped logits, before the update
    loss: float              # the batch's weighted mean loss
    ns: NSResult | None = None
    weights: np.ndarray | None = None
    ns_seconds: float = 0.0


_SCORE_COLUMNS = ("epoch", "step", "group_id", "sample_index", "label", "q",
                  "s", "w")
_ScoreRow = namedtuple("_ScoreRow", _SCORE_COLUMNS)


def _write_scores(path, steps) -> None:
    """One CSV row per sample of each scored ``_Step``, written complete
    or not at all.  Every field is an integer or a float repr, which the
    csv module would never quote, so rows are formatted directly, in its
    default dialect (comma, CRLF)."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(",".join(_SCORE_COLUMNS) + "\r\n")
        for st in steps:
            head = f"{st.epoch},{st.step},"
            fh.write("".join(
                f"{head}{gid},{sample},{label},{qi!r},{si!r},{wi!r}\r\n"
                for gid, sample, label, qi, si, wi in zip(
                    st.ns.group_ids.tolist(), st.indices.tolist(),
                    st.labels.tolist(), st.ns.raw.tolist(),
                    st.ns.score.tolist(), st.weights.tolist())))


def _read_scores(path) -> list[_ScoreRow]:
    """Rows named by ``_SCORE_COLUMNS``: five integers, then q, s, w."""
    return [_ScoreRow(*row) for row in _read_table(
        path, _SCORE_COLUMNS, (int,) * 5 + (float,) * 3, "score log")]


def _train_record(steps: list[_Step], class_count: int,
                  epoch_start: float) -> MetricsRecord:
    """The epoch's train row; ``seconds`` runs from ``epoch_start`` until
    the aggregates are computed, so their cost counts as training time.

    Losses and scoring times are summed step by step, and the per-class
    score sums in step order, which is the order the metrics have always
    been accumulated in, so every float keeps its bits.
    """
    labels = np.concatenate([s.labels for s in steps])
    predictions = np.concatenate([s.predictions for s in steps])
    accuracy, per_class = _accuracy_stats(predictions, labels, class_count)
    loss_sum = ns_seconds = 0.0
    for s in steps:
        loss_sum += s.loss * s.labels.shape[0]
        ns_seconds += s.ns_seconds
    per_class_ns, composites = None, 0
    if steps[0].ns is not None:
        scores = np.concatenate([s.ns.score for s in steps])
        sums = np.bincount(labels, weights=scores, minlength=class_count)
        counts = np.bincount(labels, minlength=class_count)
        per_class_ns = tuple(float(t) / n if n else 0.0
                             for t, n in zip(sums, counts))
        composites = sum(s.ns.group_count for s in steps)
    seconds = time.perf_counter() - epoch_start
    return MetricsRecord(
        epoch=steps[0].epoch, split="train",
        mean_loss=loss_sum / labels.shape[0], accuracy=accuracy,
        per_class_accuracy=per_class, per_class_ns=per_class_ns,
        seconds=seconds, train_forward_passes=labels.shape[0],
        ns_forward_passes=composites, ns_seconds=ns_seconds,
    )


def _taped_step(model, images, labels, weights, loss_cfg):
    """Tape one batch: forward, weighted loss, and the predictions."""
    tape = GradTape()
    tape.register(*model.parameters)
    logits = model.forward_batch(images, tape=tape)
    batch_loss = weighted_batch_loss(logits, labels, weights, loss_cfg,
                                     tape=tape)
    return tape, batch_loss, np.argmax(logits, axis=1)


def _check_splits(model: Classifier, train_set: Dataset,
                  test_set: Dataset) -> None:
    """Both splits fit the model: non-empty, its input shape, and labels
    in [0, class_count).  Checked once, so a bad split fails before the
    first step rather than at its first batch or evaluation."""
    k = model.config.class_count
    for name, split in (("train", train_set), ("test", test_set)):
        if len(split) == 0:
            raise ConfigError(f"cannot use an empty {name} split")
        if split.image_shape != tuple(model.config.input_shape):
            raise ConfigError(
                f"{name} images {split.image_shape} do not match model "
                f"input {model.config.input_shape}"
            )
        if split.labels.min() < 0 or split.labels.max() >= k:
            raise ConfigError(
                f"{name} labels must lie in [0, {k}), got "
                f"[{split.labels.min()}, {split.labels.max()}]"
            )


def _check_finite(value: float, epoch: int, step: int, quantity: str):
    if not np.isfinite(value):
        raise TrainingDiverged(epoch, step, quantity, value)


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset,
          model: Classifier, score_sink=None
          ) -> tuple[Classifier, list[MetricsRecord]]:
    """Run the full loop; returns the trained model and per-epoch records.

    Competition scoring runs only when rho != 0; with rho == 0 every
    sample's weight is the sigma constant and no composite is ever built,
    so the rho == 0 loop is the NS-disabled loop.

    ``score_sink``, if given, is called with the ``_Step`` record of each
    scored step once the step's update is done and its tape released, so
    nothing the sink does can perturb training.  The record's labels,
    predictions and scores also make the epoch's train row; a sink that
    writes to them changes that row.
    """
    _check_splits(model, train_set, test_set)
    scoring = config.weighting.rho != 0.0
    velocity = [np.zeros_like(p) for p in model.parameters]
    records: list[MetricsRecord] = []
    step = 0

    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        lr = config.lr_at(epoch)
        order = epoch_indices(train_set.labels, train_set.class_count,
                              config.sampler, epoch, config.epochs,
                              config.seed)
        steps: list[_Step] = []

        for lo in range(0, order.shape[0], config.batch_size):
            batch_idx = order[lo:lo + config.batch_size]
            images = train_set.images[batch_idx]
            labels = train_set.labels[batch_idx]

            scored = ()
            if scoring:
                ns_start = time.perf_counter()
                result = batch_ns_scores(images, labels, model, config.layout)
                weights = compute_weights(result.score, config.weighting)
                scored = (result, weights, time.perf_counter() - ns_start)
            else:
                weights = np.full(labels.shape[0], config.weighting.sigma)

            try:
                tape, batch_loss, predictions = _taped_step(
                    model, images, labels, weights, config.loss)
            except NumericError as err:
                raise TrainingDiverged(epoch, step, str(err),
                                       float("nan")) from err
            loss_value = batch_loss.item()
            _check_finite(loss_value, epoch, step, "batch loss")

            grads = backward(tape, batch_loss)
            sgd_momentum_step(model.parameters, grads, velocity, lr,
                              config.momentum)
            # The tape holds the batch's activations; drop it before the
            # next batch is scored and before each evaluation.
            del tape, batch_loss, grads
            steps.append(_Step(epoch, step, batch_idx, labels, predictions,
                               loss_value, *scored))
            if scored and score_sink is not None:
                score_sink(steps[-1])
            step += 1

        records.append(_train_record(steps, train_set.class_count,
                                     epoch_start))

        eval_start = time.perf_counter()
        result = evaluate(model, test_set, config.loss)
        records.append(MetricsRecord(
            epoch=epoch, split="test", mean_loss=result.mean_loss,
            accuracy=result.accuracy,
            per_class_accuracy=result.per_class_accuracy,
            per_class_ns=None, seconds=time.perf_counter() - eval_start,
            train_forward_passes=0, ns_forward_passes=0, ns_seconds=0.0,
        ))
    return model, records


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); ties share their mean rank.

    A run of c equal values ending at sorted position e holds ranks
    e-c+1 .. e, whose mean e - (c-1)/2 is exact in float64.
    """
    order = np.argsort(values, kind="stable")
    _, run, counts = np.unique(values[order], return_inverse=True,
                               return_counts=True)
    ranks = np.empty(values.shape[0])
    ranks[order] = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    return ranks


def _spearman(xs: np.ndarray, ys: np.ndarray) -> float:
    rx, ry = _ranks(xs), _ranks(ys)
    n = xs.shape[0]
    if np.unique(rx).size == n and np.unique(ry).size == n:
        # distinct ranks: the integer formula is exact
        d = rx - ry
        return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
    rxc, ryc = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((rxc @ rxc) * (ryc @ ryc))
    if denom == 0.0:
        raise ConfigError("spearman undefined: constant ranks")
    return float((rxc @ ryc) / denom)


def _parse_vector(text: str):
    if text == "":
        return None
    return tuple(float(tok) for tok in text.split(";"))


# MetricsRecord field type -> the reader of its CSV cell.
_CELL_READERS = {
    "int": int,
    "str": str,
    "float": float,
    "tuple[float, ...]": lambda t: _parse_vector(t) or (),
    "tuple[float, ...] | None": _parse_vector,
}
_METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))
_METRICS_READERS = tuple(_CELL_READERS[f.type] for f in fields(MetricsRecord))


@contextmanager
def _replacing(path):
    """Yield a temporary path beside ``path`` to write, then rename it onto
    ``path``: an artifact is either complete or absent, and a write that
    raises leaves no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cell(value) -> str:
    """A CSV cell: None is empty, a tuple its floats' reprs joined by
    ``;``, a float its repr, anything else its str."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_table(path, columns, rows) -> None:
    """A CSV headed by ``columns``, one line per row of ``rows``, every
    cell formatted by ``_cell``; written complete or not at all."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(value) for value in row] for row in rows)


def write_metrics_csv(path, records) -> None:
    """One row per record, columns exactly the record fields."""
    _write_table(path, _METRICS_COLUMNS,
                 ([getattr(r, name) for name in _METRICS_COLUMNS]
                  for r in records))


def _read_table(path, columns, readers, what) -> list[tuple]:
    """The rows of a CSV headed by ``columns``, each cell read by its
    reader.  A short row or an unreadable cell raises ConfigError naming
    the file and the line."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != columns:
            raise ConfigError(f"{path} is not a {what}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(columns):
                    raise ValueError(f"{len(row)} cells, expected "
                                     f"{len(columns)}")
                rows.append(tuple(read(cell)
                                  for read, cell in zip(readers, row)))
            except ValueError as err:
                raise ConfigError(
                    f"{path}, line {reader.line_num}: {err}") from None
    return rows


def read_metrics_csv(path) -> list[MetricsRecord]:
    return [MetricsRecord(*row) for row in _read_table(
        path, _METRICS_COLUMNS, _METRICS_READERS, "metrics CSV")]


def deterministic_csv_bytes(path) -> bytes:
    """Metrics CSV bytes with the wall-clock columns removed.

    Wall-clock time differs between reruns of an otherwise deterministic
    job; everything else must be byte-identical.
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return b""
    drop = [i for i, name in enumerate(rows[0]) if name in _TIMING_COLUMNS]
    keep = [i for i in range(len(rows[0])) if i not in drop]
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return out.getvalue().encode("utf-8")
