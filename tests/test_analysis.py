"""Score-distribution statistics and correlation fits."""

import csv
import math

import numpy as np
import pytest

from natsel.analysis import (
    MIN_FIT_CLASS_COUNT,
    ClassScoreStats,
    correlation_report,
    linear_correlation,
    ns_distribution,
    write_box_stats,
    write_fits,
    write_scatter,
)
from natsel.errors import AnalysisError
from natsel.trainer import MetricsRecord


def quantile_oracle(values, q):
    """Sorted-rank linear interpolation, written independently."""
    v = sorted(float(x) for x in values)
    if len(v) == 1:
        return v[0]
    h = q * (len(v) - 1)
    lo = int(math.floor(h))
    hi = min(lo + 1, len(v) - 1)
    frac = h - lo
    return v[lo] + frac * (v[hi] - v[lo])


def record(epoch, split, per_class_ns=None, per_class_accuracy=(),
           accuracy=0.5):
    return MetricsRecord(
        epoch=epoch, split=split, mean_loss=1.0, accuracy=accuracy,
        per_class_accuracy=per_class_accuracy, per_class_ns=per_class_ns,
        seconds=0.0, train_forward_passes=0, ns_forward_passes=0,
        ns_seconds=0.0)


class TestNsDistribution:
    def test_constant_scores_collapse_all_statistics(self):
        stats = ns_distribution([0.25] * 8, [0] * 8, class_count=1)
        (s,) = stats
        assert s.count == 8
        for value in (s.mean, s.median, s.q1, s.q3, s.minimum, s.maximum):
            assert value == 0.25

    def test_three_point_median(self):
        (s,) = ns_distribution([0.1, 0.3, 0.2], [0, 0, 0], class_count=1)
        assert s.median == 0.2
        assert s.minimum == 0.1
        assert s.maximum == 0.3

    def test_quartiles_match_sort_based_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 9, 20):
            values = rng.random(n)
            (s,) = ns_distribution(values, np.zeros(n, dtype=int), 1)
            assert abs(s.q1 - quantile_oracle(values, 0.25)) <= 1e-12
            assert abs(s.median - quantile_oracle(values, 0.5)) <= 1e-12
            assert abs(s.q3 - quantile_oracle(values, 0.75)) <= 1e-12

    def test_classes_are_separated(self):
        scores = [0.1, 0.9, 0.2, 0.8]
        labels = [0, 1, 0, 1]
        lo, hi = ns_distribution(scores, labels, class_count=2)
        assert (lo.minimum, lo.maximum) == (0.1, 0.2)
        assert (hi.minimum, hi.maximum) == (0.8, 0.9)

    def test_empty_class_gets_marker(self):
        stats = ns_distribution([0.5], [0], class_count=3)
        assert stats[0].count == 1
        assert stats[1] == ClassScoreStats.empty(1)
        assert stats[2] == ClassScoreStats.empty(2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        labels = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        base = ns_distribution(scores, labels, 3)
        shuffled = ns_distribution(scores[perm], labels[perm], 3)
        for a, b in zip(base, shuffled):
            assert a.count == b.count
            assert abs(a.mean - b.mean) <= 1e-12
            assert a.median == b.median
            assert (a.minimum, a.maximum) == (b.minimum, b.maximum)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            ns_distribution([0.5, 0.5], [0], class_count=1)
        with pytest.raises(AnalysisError):
            ns_distribution([0.5], [1], class_count=1)
        with pytest.raises(AnalysisError):
            ns_distribution([0.5], [-1], class_count=1)


class TestLinearCorrelation:
    def test_exact_positive_line(self):
        r, slope, intercept = linear_correlation([0.0, 1.0, 2.0, 3.0],
                                                 [1.0, 3.0, 5.0, 7.0])
        assert (r, slope, intercept) == (1.0, 2.0, 1.0)

    def test_exact_negative_line(self):
        r, slope, intercept = linear_correlation([0.0, 1.0, 2.0, 3.0],
                                                 [2.0, -1.0, -4.0, -7.0])
        assert (r, slope, intercept) == (-1.0, -3.0, 2.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            xs = rng.normal(size=5)
            ys = rng.normal(size=5)
            r, slope, intercept = linear_correlation(xs, ys)
            n = 5
            sx, sy = float(xs.sum()), float(ys.sum())
            sxx, syy = float((xs * xs).sum()), float((ys * ys).sum())
            sxy = float((xs * ys).sum())
            want_slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            want_intercept = (sy - want_slope * sx) / n
            want_r = (n * sxy - sx * sy) / math.sqrt(
                (n * sxx - sx * sx) * (n * syy - sy * sy))
            assert abs(slope - want_slope) <= 1e-12
            assert abs(intercept - want_intercept) <= 1e-12
            assert abs(r - want_r) <= 1e-12

    def test_constructed_r_of_nine_tenths(self):
        # ys = xs + c*e with e orthogonal to xs and mean-free:
        # r = sqrt(var_x / (var_x + c^2 e.e)) = sqrt(10 / (10 + 4c^2)),
        # which equals 0.9 at c^2 = 95/162.
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        e = np.array([1.0, -1.0, 0.0, -1.0, 1.0])
        c = math.sqrt(95.0 / 162.0)
        r, slope, _ = linear_correlation(xs, xs + c * e)
        assert abs(r - 0.9) <= 1e-9
        assert abs(slope - 1.0) <= 1e-12

    def test_affine_invariance_of_r(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=8)
        ys = rng.normal(size=8)
        r0, _, _ = linear_correlation(xs, ys)
        r_scaled, _, _ = linear_correlation(3.0 * xs + 7.0, ys)
        r_flipped, _, _ = linear_correlation(-2.0 * xs + 1.0, ys)
        assert abs(r_scaled - r0) <= 1e-12
        assert abs(r_flipped + r0) <= 1e-12

    def test_needs_two_points(self):
        with pytest.raises(AnalysisError):
            linear_correlation([1.0], [2.0])

    def test_zero_variance_is_an_error(self):
        with pytest.raises(AnalysisError, match="zero variance in x"):
            linear_correlation([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError, match="zero variance in y"):
            linear_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_shape_validation(self):
        with pytest.raises(AnalysisError):
            linear_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCorrelationReport:
    def longtail_records(self):
        return [
            record(0, "train", per_class_ns=(0.5, 0.4, 0.3)),
            record(0, "test", per_class_accuracy=(0.9, 0.8, 0.7)),
            record(1, "train", per_class_ns=(0.45, 0.35, 0.2)),
            record(1, "test", per_class_accuracy=(0.95, 0.75, 0.55)),
        ]

    def test_uses_last_scored_train_epoch(self):
        report = correlation_report(self.longtail_records(), (100, 10, 1))
        assert report.mean_scores == (0.45, 0.35, 0.2)
        assert report.accuracies == (0.95, 0.75, 0.55)
        assert report.counts == (100, 10, 1)

    def test_fits_match_direct_computation(self):
        counts = (100, 10, 2)
        report = correlation_report(self.longtail_records(), counts)
        count_fit, acc_fit = report.fits
        assert count_fit.axis == "count_vs_score"
        assert acc_fit.axis == "accuracy_vs_score"
        r, slope, intercept = linear_correlation(counts, (0.45, 0.35, 0.2))
        assert count_fit.r == r
        assert count_fit.slope == slope
        assert count_fit.intercept == intercept
        r2, _, _ = linear_correlation((0.95, 0.75, 0.55), (0.45, 0.35, 0.2))
        assert acc_fit.r == r2
        assert acc_fit.note == ""

    def test_balanced_counts_yield_undefined_count_fit(self):
        report = correlation_report(self.longtail_records(), (10, 10, 10))
        count_fit = report.fits[0]
        assert count_fit.slope is None
        assert "zero variance in x" in count_fit.note
        # The accuracy fit is unaffected.
        assert report.fits[1].slope is not None

    def test_small_classes_excluded_from_fits(self):
        # Class 2 has a single sample: listed in the table, dropped from
        # the fit, which then runs over classes 0 and 1 only.
        counts = (100, 10, 1)
        assert MIN_FIT_CLASS_COUNT == 2
        report = correlation_report(self.longtail_records(), counts)
        assert report.counts == counts
        r, slope, intercept = linear_correlation((100, 10), (0.45, 0.35))
        assert report.fits[0].r == r
        assert report.fits[0].slope == slope

    def test_requires_scored_train_record(self):
        records = [record(0, "train"), record(0, "test",
                                              per_class_accuracy=(1.0, 1.0))]
        with pytest.raises(AnalysisError):
            correlation_report(records, (5, 5))

    def test_requires_matching_test_epoch(self):
        records = [record(1, "train", per_class_ns=(0.5, 0.5)),
                   record(0, "test", per_class_accuracy=(1.0, 1.0))]
        with pytest.raises(AnalysisError):
            correlation_report(records, (5, 5))

    def test_class_count_mismatch(self):
        with pytest.raises(AnalysisError):
            correlation_report(self.longtail_records(), (5, 5))


class TestCsvExports:
    def stats(self):
        return ns_distribution([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1], 3)

    def test_box_stats_blank_for_empty_class(self, tmp_path):
        path = tmp_path / "box.csv"
        write_box_stats(path, self.stats())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "min", "q1", "median", "q3", "max"]
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == 0.1
        assert rows[3] == ["2", "", "", "", "", ""]

    def test_scatter(self, tmp_path):
        path = tmp_path / "scatter.csv"
        write_scatter(path, [(0, 100, 0.5), (1, 10, 0.3)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "x", "y"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert float(rows[1][1]) == 100.0

    def test_fits_round_trip_including_notes(self, tmp_path):
        records = [record(0, "train", per_class_ns=(0.5, 0.4)),
                   record(0, "test", per_class_accuracy=(0.9, 0.8))]
        report = correlation_report(records, (10, 10))
        path = tmp_path / "fits.csv"
        write_fits(path, report.fits)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "slope", "intercept", "r", "note"]
        assert rows[1][0] == "count_vs_score"
        assert rows[1][1] == ""  # undefined fit stays blank
        assert "zero variance" in rows[1][4]
        assert float(rows[2][3]) == report.fits[1].r
