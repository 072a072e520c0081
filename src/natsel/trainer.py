"""Training loop with group-competition loss weighting.

Each step: shuffle-derived batch, detached composite scoring, affine
score-to-weight map, weighted mean loss on the tape, backprop, SGD with
momentum.  With rho == 0 the scoring stage is skipped outright, so the
loop degenerates to exactly the plain weighted-ERM loop.

Metrics are written as CSV with one row per (epoch, split).  Wall-clock
columns (``seconds``, ``ns_seconds``) are physically nondeterministic;
``deterministic_csv_bytes`` strips them so reruns can be compared
byte-for-byte on everything else.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
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
    "DualityReport",
    "weighted_batch_loss",
    "sgd_momentum_step",
    "train",
    "evaluate",
    "duality_check",
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
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.epochs < 1:
            raise ConfigError("need at least one epoch")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(
                f"unknown sampler {self.sampler!r}, "
                f"expected one of {SAMPLER_KINDS}"
            )
        if self.weighting.rho != 0.0 and self.layout.group_size < 2:
            raise ConfigError(
                f"rho={self.weighting.rho} needs groups of at least 2 "
                f"samples to compete, but layout {self.layout} stitches 1"
            )
        if self.batch_size < self.layout.group_size:
            raise ConfigError(
                f"batch size {self.batch_size} smaller than group size "
                f"{self.layout.group_size}"
            )
        for milestone, factor in self.decay_milestones:
            if milestone < 0 or factor <= 0:
                raise ConfigError(
                    f"bad decay milestone ({milestone}, {factor})"
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

    def deterministic_key(self) -> tuple:
        """Every field except the wall-clock ones."""
        return tuple(getattr(self, name) for name in _METRICS_COLUMNS
                     if name not in _TIMING_COLUMNS)


@dataclass(frozen=True)
class EvalResult:
    mean_loss: float
    accuracy: float
    per_class_accuracy: tuple[float, ...]


def weighted_batch_loss(logits: np.ndarray, labels, weights,
                        loss_cfg: LossConfig = LossConfig(),
                        tape: GradTape | None = None) -> np.ndarray:
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
    if tape is None:
        losses = sample_losses(logits, labels, loss_cfg)
    else:
        losses, dlogits = sample_losses(logits, labels, loss_cfg, grad=True)
    out = np.array(float(np.sum(w * losses)) / b)
    if tape is not None:
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
    model.register_on(tape)
    logits = model.forward_batch(images, tape=tape)
    batch_loss = weighted_batch_loss(logits, labels, weights, loss_cfg,
                                     tape=tape)
    return tape, batch_loss, np.argmax(logits, axis=1)


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
    if len(train_set) == 0:
        raise ConfigError("cannot train on an empty dataset")
    if train_set.image_shape != tuple(model.config.input_shape):
        raise ConfigError(
            f"dataset images {train_set.image_shape} do not match model "
            f"input {model.config.input_shape}"
        )
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


@dataclass(frozen=True)
class DualityReport:
    """Mean-risk vs mean-fitness comparison over candidate parameters.

    ``spearman`` is None when every candidate ties: correlation over
    constant ranks is undefined, though the orderings still agree.
    """

    mean_risks: tuple[float, ...]
    mean_fitnesses: tuple[float, ...]
    risk_order: tuple[int, ...]     # indices sorted by ascending risk
    fitness_order: tuple[int, ...]  # indices sorted by descending fitness
    spearman: float | None


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); ties share their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    ranks[order] = np.arange(1, values.shape[0] + 1, dtype=np.float64)
    for v in np.unique(values):
        mask = values == v
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
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


def duality_check(candidates, dataset: Dataset, fitness_ceiling: float,
                  loss_cfg: LossConfig = LossConfig()) -> DualityReport:
    """Compare ranking by mean risk with ranking by mean fitness.

    Fitness of a sample is fitness_ceiling - loss; the ceiling must
    exceed every observed loss so fitness stays positive.  Because the
    map is a fixed affine flip, ordering candidates by descending mean
    fitness must reproduce ordering by ascending mean risk, whatever the
    ceiling: maximizing fitness is minimizing risk.
    """
    if not candidates:
        raise ConfigError("need at least one candidate parameter setting")
    risks = []
    for candidate in candidates:
        logits = candidate.forward_batch(dataset.images)
        losses = sample_losses(logits, dataset.labels, loss_cfg)
        if losses.max() >= fitness_ceiling:
            raise ConfigError(
                f"fitness ceiling {fitness_ceiling} not above max loss "
                f"{losses.max()}; fitness would go non-positive"
            )
        risks.append(float(losses.mean()))
    risks_arr = np.array(risks)
    fitness_arr = fitness_ceiling - risks_arr
    risk_order = tuple(int(i) for i in np.argsort(risks_arr, kind="stable"))
    fitness_order = tuple(int(i) for i in
                          np.argsort(-fitness_arr, kind="stable"))
    all_tied = np.unique(risks_arr).size == 1
    return DualityReport(
        mean_risks=tuple(risks),
        mean_fitnesses=tuple(float(f) for f in fitness_arr),
        risk_order=risk_order,
        fitness_order=fitness_order,
        spearman=None if all_tied else _spearman(risks_arr, fitness_arr),
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_vector(values) -> str:
    if values is None:
        return ""
    return ";".join(_format_float(v) for v in values)


def _parse_vector(text: str):
    if text == "":
        return None
    return tuple(float(tok) for tok in text.split(";"))


# MetricsRecord field type -> (write, read) of its CSV cell.
_CELL_TEXT = {
    "int": (str, int),
    "str": (str, str),
    "float": (_format_float, float),
    "tuple[float, ...]": (_format_vector, lambda t: _parse_vector(t) or ()),
    "tuple[float, ...] | None": (_format_vector, _parse_vector),
}
_METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))
_METRICS_CELLS = tuple(_CELL_TEXT[f.type] for f in fields(MetricsRecord))


def write_metrics_csv(path, records) -> None:
    """One row per record, columns exactly the record fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRICS_COLUMNS)
        for r in records:
            writer.writerow([write(getattr(r, name)) for name, (write, _)
                             in zip(_METRICS_COLUMNS, _METRICS_CELLS)])


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
    readers = tuple(read for _, read in _METRICS_CELLS)
    return [MetricsRecord(*row) for row in
            _read_table(path, _METRICS_COLUMNS, readers, "metrics CSV")]


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
