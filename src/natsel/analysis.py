"""Post-hoc diagnostics over logged scores and metrics.

Everything here is a pure function of already-logged data: per-class
score distributions, least-squares fits between class statistics, and
CSV exports shaped for external plotting, each written complete or not
at all.  Nothing touches models or datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .trainer import MetricsRecord, _write_table

__all__ = [
    "ClassScoreStats",
    "FitLine",
    "CorrelationReport",
    "ns_distribution",
    "linear_correlation",
    "correlation_report",
    "write_box_stats",
    "write_scatter",
    "write_fits",
]

# Classes with fewer samples than this are listed but excluded from fits.
MIN_FIT_CLASS_COUNT = 2


@dataclass(frozen=True)
class ClassScoreStats:
    """Order statistics of one class's scores; all None when empty."""

    class_id: int
    count: int
    mean: float | None
    median: float | None
    q1: float | None
    q3: float | None
    minimum: float | None
    maximum: float | None

    @classmethod
    def empty(cls, class_id: int) -> "ClassScoreStats":
        return cls(class_id, 0, None, None, None, None, None, None)


@dataclass(frozen=True)
class FitLine:
    """One least-squares fit; slope/intercept/r are None when undefined."""

    axis: str
    slope: float | None
    intercept: float | None
    r: float | None
    note: str = ""


@dataclass(frozen=True)
class CorrelationReport:
    """Per-class (count, mean score, accuracy) rows plus two fitted lines."""

    class_ids: tuple[int, ...]
    counts: tuple[int, ...]
    mean_scores: tuple[float, ...]
    accuracies: tuple[float, ...]
    fits: tuple[FitLine, ...]


def ns_distribution(scores, labels, class_count: int
                    ) -> list[ClassScoreStats]:
    """Per-class order statistics of competition scores.

    Quartiles interpolate linearly between the two closest ranks.  A class
    with no samples yields the explicit empty marker, never invented
    numbers.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise AnalysisError(
            f"scores {s.shape} and labels {y.shape} must be aligned vectors"
        )
    if y.size and (y.min() < 0 or y.max() >= class_count):
        raise AnalysisError(
            f"label {int(y.max() if y.max() >= class_count else y.min())} "
            f"out of range for {class_count} classes"
        )
    stats = []
    for k in range(class_count):
        values = s[y == k]
        if values.size == 0:
            stats.append(ClassScoreStats.empty(k))
            continue
        q1, med, q3 = np.quantile(values, (0.25, 0.5, 0.75), method="linear")
        stats.append(ClassScoreStats(
            class_id=k, count=int(values.size), mean=float(values.mean()),
            median=float(med), q1=float(q1), q3=float(q3),
            minimum=float(values.min()), maximum=float(values.max()),
        ))
    return stats


def linear_correlation(xs, ys) -> tuple[float, float, float]:
    """Pearson r plus least-squares (slope, intercept) of ys on xs.

    Zero variance on either axis makes the correlation undefined; that is
    reported as an error, never silently as 0.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("inputs must be equal-length vectors")
    if x.size < 2:
        raise AnalysisError("need at least two points to fit a line")
    xc = x - x.mean()
    yc = y - y.mean()
    var_x = float(xc @ xc)
    var_y = float(yc @ yc)
    if var_x == 0.0:
        raise AnalysisError("zero variance in x: correlation undefined")
    if var_y == 0.0:
        raise AnalysisError("zero variance in y: correlation undefined")
    cov = float(xc @ yc)
    slope = cov / var_x
    intercept = float(y.mean()) - slope * float(x.mean())
    r = cov / np.sqrt(var_x * var_y)
    return float(r), float(slope), float(intercept)


def _guarded_fit(axis: str, xs, ys) -> FitLine:
    try:
        r, slope, intercept = linear_correlation(xs, ys)
    except AnalysisError as err:
        return FitLine(axis=axis, slope=None, intercept=None, r=None,
                       note=str(err))
    return FitLine(axis=axis, slope=slope, intercept=intercept, r=r)


def correlation_report(records: list[MetricsRecord], class_counts
                       ) -> CorrelationReport:
    """Class size and class accuracy against mean competition score.

    Uses the last train record carrying per-class scores and the test
    record of the same epoch.  Classes below the minimum-count guard are
    listed but left out of the fits.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    scored = [r for r in records
              if r.split == "train" and r.per_class_ns is not None]
    if not scored:
        raise AnalysisError("no train record carries per-class scores")
    train_rec = scored[-1]
    tests = [r for r in records
             if r.split == "test" and r.epoch == train_rec.epoch]
    if not tests:
        raise AnalysisError(f"no test record for epoch {train_rec.epoch}")
    test_rec = tests[-1]
    k = counts.size
    if len(train_rec.per_class_ns) != k or \
            len(test_rec.per_class_accuracy) != k:
        raise AnalysisError("class count disagrees between metrics and data")

    mean_scores = np.asarray(train_rec.per_class_ns)
    accuracies = np.asarray(test_rec.per_class_accuracy)
    fit_mask = counts >= MIN_FIT_CLASS_COUNT
    fits = (
        _guarded_fit("count_vs_score", counts[fit_mask],
                     mean_scores[fit_mask]),
        _guarded_fit("accuracy_vs_score", accuracies[fit_mask],
                     mean_scores[fit_mask]),
    )
    return CorrelationReport(
        class_ids=tuple(range(k)),
        counts=tuple(int(c) for c in counts),
        mean_scores=tuple(float(v) for v in mean_scores),
        accuracies=tuple(float(a) for a in accuracies),
        fits=fits,
    )


def write_box_stats(path, stats: list[ClassScoreStats]) -> None:
    """Box-plot file: class, min, q1, median, q3, max (blank when empty)."""
    _write_table(path, ("class", "min", "q1", "median", "q3", "max"),
                 ((s.class_id, s.minimum, s.q1, s.median, s.q3, s.maximum)
                  for s in stats))


def write_scatter(path, points) -> None:
    """Scatter file: class, x, y rows, x and y written as floats."""
    _write_table(path, ("class", "x", "y"),
                 ((class_id, float(x), float(y)) for class_id, x, y in points))


def write_fits(path, fits) -> None:
    """Fit file: axis, slope, intercept, r, note rows."""
    _write_table(path, ("axis", "slope", "intercept", "r", "note"),
                 ((f.axis, f.slope, f.intercept, f.r, f.note) for f in fits))
