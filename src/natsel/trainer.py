"""Training loop with group-competition loss weighting.

Each step: shuffle-derived batch, detached composite scoring, affine
score-to-weight map, weighted mean loss on the tape, backprop, SGD with
momentum.  With rho == 0 the scoring stage is skipped outright, so the
loop degenerates to exactly the plain weighted-ERM loop.

``train`` takes a list of runs that differ only in their seed and
trains them in lockstep: parameters, velocity, batch images, labels and
weights carry a leading run axis [S, ...], so every step is one
classifier record, one loss record, one ``backward`` and one
``sgd_momentum_step`` for all of them.  Scoring and evaluation run per
run, on each run's own ``Classifier``, whose parameters are views of the
stacked arrays.  A single run is a stack of one.  Every run's bytes are
those of the run trained alone.

Metrics are written as CSV with one row per (epoch, split), built by
``_train_record`` (train rows) and ``evaluate`` (test rows), whose
per-class means all come from ``_class_means``.  Wall-clock
columns (``seconds``, ``ns_seconds``) are physically nondeterministic;
``deterministic_csv_bytes`` strips them so reruns can be compared
byte-for-byte on everything else.  Every CSV the package writes goes
through ``_write_table`` (or, for the per-sample score log,
``_score_log``): one cell format, and a file that is either complete
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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
    "Run",
    "MetricsRecord",
    "weighted_batch_loss",
    "sgd_momentum_step",
    "train",
    "evaluate",
    "write_metrics_csv",
    "read_metrics_csv",
    "deterministic_csv_bytes",
]

_TIMING_COLUMNS = ("seconds", "ns_seconds")


@dataclass(frozen=True)
class TrainConfig:
    """Everything the loop needs besides the seed, the splits and the
    model."""

    batch_size: int
    epochs: int
    learning_rate: float
    momentum: float = 0.0
    decay_milestones: tuple[tuple[int, float], ...] = ()
    layout: GridLayout = GridLayout(2, 2)
    weighting: WeightingConfig = WeightingConfig(1.0, 0.0)
    sampler: str = "instance_uniform"
    loss: LossConfig = LossConfig()

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
    counters are in per-image units and populated on train rows only,
    so they and ``ns_seconds`` default to a test row's 0;
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
    train_forward_passes: int = 0
    ns_forward_passes: int = 0
    ns_seconds: float = 0.0


def weighted_batch_loss(logits: np.ndarray, labels, weights,
                        loss_cfg: LossConfig = LossConfig(), *,
                        tape: GradTape) -> np.ndarray:
    """(1/B) * sum_i w_i * loss_i of each run's [B, K] logits.

    ``logits`` are one run's [B, K] or a stack's [S, B, K], with labels
    and weights of shape [B] or [S, B]; the result has the leading
    shape: a 0-d array for one run, [S] for a stack.  The whole stack is
    one tape record whose pullback is the closed-form logit gradient of
    :func:`natsel.model.sample_losses`, scaled by w_i / B.  Its output,
    the root ``backward`` starts from, is the returned loss for one run
    and the 0-d sum of the runs' losses for a stack: runs share no
    parameter, so each run's gradient is that of its own loss.  Weights
    enter as constants (no gradient flows into them), which is what
    keeps the scoring stage outside the optimization.
    """
    w = np.asarray(weights, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"logits must be [B, K] or [S, B, K], got shape "
                         f"{logits.shape}")
    b = logits.shape[-2]
    if b == 0:
        raise ShapeError("empty batch")
    if w.shape != logits.shape[:-1] or labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"{b} rows of logits but {labels.shape} labels and "
            f"{w.shape} weights"
        )
    losses, dlogits = sample_losses(logits.reshape(-1, logits.shape[-1]),
                                    labels.reshape(-1), loss_cfg, grad=True)
    out = np.array(np.sum(w * losses.reshape(w.shape), axis=-1) / b)
    root = out if out.ndim == 0 else np.array(out.sum())
    dlogits = dlogits.reshape(logits.shape)
    row_scale = (w / b)[..., np.newaxis]

    def pull(g: np.ndarray):
        return ((logits, dlogits * (row_scale * g)),)

    tape.record(root, pull)
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


def _class_means(labels: np.ndarray, values: np.ndarray,
                 class_count: int) -> tuple[float, ...]:
    """The mean of ``values`` over each class's samples, 0.0 for a class
    with none.  The sum of 0/1 values is exact, so an accuracy is the
    correctly rounded fraction."""
    sums = np.bincount(labels, weights=values, minlength=class_count)
    counts = np.bincount(labels, minlength=class_count)
    return tuple(float(t / n) if n else 0.0 for t, n in zip(sums, counts))


@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: Classifier, dataset: Dataset,
             loss_cfg: LossConfig = LossConfig(),
             epoch: int = 0) -> MetricsRecord:
    """The test row of ``epoch``: mean loss and accuracies of ``model``
    on ``dataset`` in one forward pass, argmax prediction, no weighting.
    A conv model streams its activations in ``Classifier.logits``'s
    chunks of whole images.  Its ``seconds`` is this call's wall time.
    ``dataset`` must pass the check ``train`` makes of a test split
    (``_check_split``), before any forward pass.

    np.argmax resolves ties toward the smallest class index, which is the
    documented tie rule.
    """
    started = time.perf_counter()
    _check_split(model, "test", dataset)
    logits = model.forward_batch(dataset.images)
    loss_sum = float(sample_losses(logits, dataset.labels, loss_cfg).sum())
    correct = np.argmax(logits, axis=1) == dataset.labels
    return MetricsRecord(
        epoch=epoch, split="test", mean_loss=loss_sum / len(dataset),
        accuracy=float(correct.mean()),
        per_class_accuracy=_class_means(dataset.labels, correct,
                                        dataset.class_count),
        per_class_ns=None, seconds=time.perf_counter() - started,
    )


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


class Run(NamedTuple):
    """One training run: its settings, its seed, its splits and its model.

    The seed orders the run's epochs and names the run when it diverges.
    ``score_sink``, if given, is called with the ``_Step`` record of each
    of the run's scored steps (see ``train``).
    """

    config: TrainConfig
    seed: int
    train_set: Dataset
    test_set: Dataset
    model: Classifier
    score_sink: Callable[[_Step], object] | None = None


_SCORE_COLUMNS = ("epoch", "step", "group_id", "sample_index", "label", "q",
                  "s", "w")
_ScoreRow = namedtuple("_ScoreRow", _SCORE_COLUMNS)


@contextmanager
def _score_log(path):
    """Yield a sink that appends one CSV row per sample of a scored
    ``_Step`` to the score log at ``path``; the log is renamed into place
    when the block ends and removed if it raises.  Every field is an
    integer or a float repr, which the csv module would never quote, so
    rows are formatted directly, in its default dialect (comma, CRLF)."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(",".join(_SCORE_COLUMNS) + "\r\n")

        def write(st: _Step) -> None:
            head = f"{st.epoch},{st.step},"
            fh.write("".join(
                f"{head}{gid},{sample},{label},{qi!r},{si!r},{wi!r}\r\n"
                for gid, sample, label, qi, si, wi in zip(
                    st.ns.group_ids.tolist(), st.indices.tolist(),
                    st.labels.tolist(), st.ns.raw.tolist(),
                    st.ns.score.tolist(), st.weights.tolist())))

        yield write


def _read_scores(path) -> list[_ScoreRow]:
    """Rows named by ``_SCORE_COLUMNS``: five integers, then q, s, w."""
    return [_ScoreRow(*row) for row in _read_table(
        path, _SCORE_COLUMNS, (int,) * 5 + (float,) * 3, "score log")]


def _train_record(steps: list[_Step], class_count: int) -> MetricsRecord:
    """The epoch's train row of one run's ``steps``.  Its ``seconds`` is
    0.0: the caller times the epoch and sets it.

    Losses and scoring times are summed step by step, and the per-class
    score sums in step order, which is the order the metrics have always
    been accumulated in, so every float keeps its bits.
    """
    labels = np.concatenate([s.labels for s in steps])
    correct = np.concatenate([s.predictions for s in steps]) == labels
    loss_sum = ns_seconds = 0.0
    for s in steps:
        loss_sum += s.loss * s.labels.shape[0]
        ns_seconds += s.ns_seconds
    per_class_ns, composites = None, 0
    if steps[0].ns is not None:
        per_class_ns = _class_means(
            labels, np.concatenate([s.ns.score for s in steps]), class_count)
        composites = sum(s.ns.group_count for s in steps)
    return MetricsRecord(
        epoch=steps[0].epoch, split="train",
        mean_loss=loss_sum / labels.shape[0], accuracy=float(correct.mean()),
        per_class_accuracy=_class_means(labels, correct, class_count),
        per_class_ns=per_class_ns, seconds=0.0,
        train_forward_passes=labels.shape[0],
        ns_forward_passes=composites, ns_seconds=ns_seconds,
    )


def _check_split(model: Classifier, name: str, split: Dataset) -> None:
    """The ``name`` split fits the model: non-empty, its input shape, and
    no more classes than it has (``Dataset`` keeps labels in its range).
    ``train`` checks both splits once, so a bad split fails before the
    first step rather than at its first batch or evaluation."""
    if len(split) == 0:
        raise ConfigError(f"cannot use an empty {name} split")
    if split.image_shape != tuple(model.config.input_shape):
        raise ConfigError(
            f"{name} images {split.image_shape} do not match model "
            f"input {model.config.input_shape}"
        )
    if split.class_count > model.config.class_count:
        raise ConfigError(
            f"{name} split has {split.class_count} classes, more than "
            f"the model's {model.config.class_count}"
        )


def _gather(splits, indices: np.ndarray) -> np.ndarray:
    """``splits[s][indices[s]]`` for every run s, on a leading run axis.

    Each run's rows are taken straight into the stacked batch.  The
    indices come from ``epoch_indices`` and always lie in range, so
    ``mode="clip"`` changes none of them; it only spares the copy that
    ``np.take`` makes into ``out`` under its default mode.
    """
    out = np.empty(indices.shape + splits[0].shape[1:], splits[0].dtype)
    for split, idx, rows in zip(splits, indices, out):
        np.take(split, idx, axis=0, out=rows, mode="clip")
    return out


@np.errstate(over="ignore", invalid="ignore")
def train(runs: Sequence[Run]) -> list[list[MetricsRecord]]:
    """Train ``runs`` in lockstep; returns each run's per-epoch records.

    The runs must share their ``TrainConfig``, every model setting but
    the init seed, and the length of their train splits.  Their models
    are stacked (``Classifier.stack``): each run's model then holds
    views of the stacked parameters, so it ends trained, as a single
    run's model always has.  Each step scores and weights every run on
    its own model and takes one taped step for all of them.  A single
    run is a stack of one.

    Competition scoring runs only when rho != 0; with rho == 0 every
    sample's weight is the sigma constant and no composite is ever built,
    so the rho == 0 loop is the NS-disabled loop.

    A run's ``score_sink``, if given, is called with the ``_Step`` record
    of each scored step once the step's update is done and its tape
    released, so nothing the sink does can perturb training.  It runs
    inside the epoch's timer.  The record's labels, predictions and
    scores also make the epoch's train row; a sink that writes to them
    changes that row.

    Each run's train row times its share of the stack's epoch: the wall
    time from the epoch's start until every run's aggregates are
    computed, divided by the number of runs.  A non-finite value, in a
    step or in an epoch's evaluation, raises ``TrainingDiverged`` naming
    the seed of the run it belongs to; evaluation reports the epoch's
    last step.
    """
    if not runs:
        raise ConfigError("train needs at least one run")
    config = runs[0].config
    for run in runs:
        if run.config != config:
            raise ConfigError("runs trained together must share every "
                              "train setting")
        _check_split(run.model, "train", run.train_set)
        _check_split(run.model, "test", run.test_set)
        if len(run.train_set) != len(runs[0].train_set):
            raise ConfigError("runs trained together need train splits of "
                              "one length")
    model = Classifier.stack([run.model for run in runs])
    scoring = config.weighting.rho != 0.0
    velocity = [np.zeros_like(p) for p in model.parameters]
    records: list[list[MetricsRecord]] = [[] for _ in runs]
    step = 0

    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        lr = config.lr_at(epoch)
        orders = np.stack([
            epoch_indices(run.train_set.labels, run.train_set.class_count,
                          config.sampler, epoch, config.epochs,
                          run.seed) for run in runs])
        steps: list[list[_Step]] = [[] for _ in runs]

        for lo in range(0, orders.shape[1], config.batch_size):
            batch_idx = orders[:, lo:lo + config.batch_size]
            images = _gather([run.train_set.images for run in runs],
                             batch_idx)
            labels = _gather([run.train_set.labels for run in runs],
                             batch_idx)

            scored = [()] * len(runs)
            if scoring:
                for r, run in enumerate(runs):
                    ns_start = time.perf_counter()
                    try:
                        result = batch_ns_scores(images[r], labels[r],
                                                 run.model, config.layout)
                    except NumericError as err:
                        raise TrainingDiverged(
                            epoch, step, str(err), float("nan"),
                            run.seed) from err
                    scored[r] = (result,
                                 compute_weights(result.score,
                                                 config.weighting),
                                 time.perf_counter() - ns_start)
                weights = np.stack([w for _, w, _ in scored])
            else:
                weights = np.full(labels.shape, config.weighting.sigma)

            tape = GradTape()
            tape.register(*model.parameters)
            try:
                logits = model.forward_batch(images, tape=tape)
                batch_loss = weighted_batch_loss(logits, labels, weights,
                                                 config.loss, tape=tape)
            except NumericError as err:
                raise TrainingDiverged(epoch, step, str(err), float("nan"),
                                       runs[err.run].seed) from err
            predictions = np.argmax(logits, axis=-1)
            losses = batch_loss.tolist()
            for run, value in zip(runs, losses):
                if not np.isfinite(value):
                    raise TrainingDiverged(epoch, step, "batch loss", value,
                                           run.seed)

            grads = backward(tape)
            # The tape holds the batch's activations; drop it, with the
            # logits and the loss, before the update, the next batch's
            # scoring and each evaluation.
            del tape, logits, batch_loss
            sgd_momentum_step(model.parameters, grads, velocity, lr,
                              config.momentum)
            del grads
            for r, run in enumerate(runs):
                steps[r].append(_Step(epoch, step, batch_idx[r], labels[r],
                                      predictions[r], losses[r], *scored[r]))
                if scored[r] and run.score_sink is not None:
                    run.score_sink(steps[r][-1])
            step += 1

        rows = [_train_record(run_steps, run.train_set.class_count)
                for run_steps, run in zip(steps, runs)]
        share = (time.perf_counter() - epoch_start) / len(runs)
        for run_records, row in zip(records, rows):
            run_records.append(replace(row, seconds=share))

        for run, run_records in zip(runs, records):
            try:
                row = evaluate(run.model, run.test_set, config.loss, epoch)
            except NumericError as err:
                raise TrainingDiverged(epoch, step - 1, str(err),
                                       float("nan"), run.seed) from err
            run_records.append(row)
    return records


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
