"""Metrics tests: confusion counting, derived scores, published-row oracles."""

import numpy as np
import pytest

from osegnet.metrics import (CSV_HEADER, ConfusionCounts, confusion_table,
                             detect_sample, fbeta, format_percent, metrics_csv,
                             metrics_from_confusion, pixel_confusion,
                             sample_confusion)

# Detection-quality rows published for two reference models, as
# (counts, expected percentages: sensitivity, specificity, precision, f1, f2,
# accuracy).
REFERENCE_ROWS = [
    (dict(tp=2057, fp=40, tn=25556, fn=56),
     ("97.35", "99.84", "98.09", "97.72", "97.50", "99.65")),
    (dict(tp=2082, fp=113, tn=25483, fn=31),
     ("98.53", "99.56", "94.85", "96.66", "97.77", "99.48")),
]


class TestFbeta:
    def test_f1_is_harmonic_mean(self):
        assert abs(fbeta(0.5, 1.0, 1.0) - 2 / 3) < 1e-12

    def test_f1_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(0, 1, 2)
            assert abs(fbeta(a, b, 1.0) - fbeta(b, a, 1.0)) < 1e-12

    def test_beta_zero_returns_precision(self):
        assert fbeta(0.7, 0.2, 0.0) == pytest.approx(0.7)

    def test_large_beta_approaches_sensitivity(self):
        assert abs(fbeta(0.7, 0.2, 1000.0) - 0.2) < 1e-3

    def test_f2_weights_sensitivity(self):
        # sensitivity below precision drags f2 under f1
        assert fbeta(0.9, 0.6, 2.0) < fbeta(0.9, 0.6, 1.0)
        assert fbeta(0.6, 0.9, 2.0) > fbeta(0.6, 0.9, 1.0)

    def test_monotone_in_each_argument(self):
        grid = np.linspace(0.05, 1.0, 12)
        for s in grid:
            vals = [fbeta(p, s, 2.0) for p in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for p in grid:
            vals = [fbeta(p, s, 2.0) for s in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_zero(self):
        assert fbeta(0.0, 0.0, 1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fbeta(1.2, 0.5, 1.0)
        with pytest.raises(ValueError):
            fbeta(0.5, -0.1, 2.0)
        with pytest.raises(ValueError):
            fbeta(0.5, 0.5, -1.0)


class TestConfusionCounts:
    def test_addition_pools_counts(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        c = a + b
        assert (c.tp, c.fp, c.tn, c.fn) == (11, 22, 33, 44)

    def test_granularity_mix_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(granularity="pixel") + ConfusionCounts(granularity="sample")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(granularity="image")


class TestPixelConfusion:
    def test_hand_example_with_threshold_tie(self):
        pred = np.array([[0.5, 0.4], [0.6, 0.2]], np.float32)
        gt = np.array([[1, 0], [0, 0]], np.float32)
        c = pixel_confusion(pred, gt, 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 2, 0)  # 0.5 ties count positive

    def test_all_correct(self):
        gt = np.array([1, 0, 1], np.float32)
        c = pixel_confusion(np.array([0.9, 0.1, 0.8]), gt, 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 0, 0) or (c.tp, c.fn) == (2, 0)

    def test_counts_partition_the_grid(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 1, (8, 8))
        gt = (rng.uniform(0, 1, (8, 8)) > 0.5).astype(np.float32)
        c = pixel_confusion(pred, gt, 0.3)
        assert c.total == 64

    def test_non_binary_gt_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            pixel_confusion(np.zeros((2, 2)), np.full((2, 2), 0.5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            pixel_confusion(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            pixel_confusion(np.zeros((2, 2)), np.zeros((2, 2)), threshold=0.0)
        with pytest.raises(ValueError):
            pixel_confusion(np.zeros((2, 2)), np.zeros((2, 2)), threshold=1.0)


class TestDetection:
    def test_all_zero_mask_is_negative(self):
        assert detect_sample(np.zeros((4, 4)), 0.5) is False

    def test_single_hot_pixel_is_positive(self):
        pred = np.zeros((4, 4))
        pred[2, 3] = 0.51
        assert detect_sample(pred, 0.5) is True

    def test_equivalence_with_pixel_counts(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = rng.uniform(0, 1, (5, 5))
            gt = (rng.uniform(0, 1, (5, 5)) > 0.5).astype(np.float32)
            c = pixel_confusion(pred, gt, 0.5)
            assert detect_sample(pred, 0.5) == (c.tp + c.fp > 0)

    def test_sample_confusion_four_quadrants(self):
        hot = np.full((2, 2), 0.9)
        cold = np.zeros((2, 2))
        mask = np.ones((2, 2), np.float32)
        empty = np.zeros((2, 2), np.float32)
        c = sample_confusion([hot, hot, cold, cold], [mask, empty, mask, empty], 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.granularity == "sample"

    def test_sample_confusion_length_mismatch(self):
        with pytest.raises(ValueError):
            sample_confusion([np.zeros((2, 2))], [], 0.5)


class TestDerivedMetrics:
    @pytest.mark.parametrize("counts,expected", REFERENCE_ROWS)
    def test_published_rows_reproduced(self, counts, expected):
        report = metrics_from_confusion(ConfusionCounts(granularity="sample", **counts))
        got = tuple(format_percent(v) for v in (
            report.sensitivity, report.specificity, report.precision,
            report.f1, report.f2, report.accuracy))
        assert got == expected

    @pytest.mark.parametrize("counts,expected", REFERENCE_ROWS)
    def test_published_rows_within_half_unit(self, counts, expected):
        report = metrics_from_confusion(ConfusionCounts(granularity="sample", **counts))
        values = (report.sensitivity, report.specificity, report.precision,
                  report.f1, report.f2, report.accuracy)
        for v, e in zip(values, expected):
            assert abs(v * 100 - float(e)) <= 0.005 + 1e-12

    def test_perfect_classifier(self):
        r = metrics_from_confusion(ConfusionCounts(tp=5, tn=7))
        assert (r.sensitivity, r.specificity, r.precision, r.accuracy) == (1, 1, 1, 1)
        assert r.f1 == 1.0 and r.f2 == 1.0 and r.undefined == ()

    def test_no_positives_flags_undefined(self):
        r = metrics_from_confusion(ConfusionCounts(tn=10))
        assert r.sensitivity == 0.0 and r.precision == 0.0
        assert "sensitivity" in r.undefined and "precision" in r.undefined
        assert r.specificity == 1.0 and r.accuracy == 1.0

    def test_no_negatives_flags_specificity(self):
        r = metrics_from_confusion(ConfusionCounts(tp=10))
        assert r.specificity == 0.0 and "specificity" in r.undefined

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            metrics_from_confusion(ConfusionCounts())

    def test_f1_between_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tp, fp, tn, fn = (int(v) for v in rng.integers(1, 50, 4))
            r = metrics_from_confusion(ConfusionCounts(tp, fp, tn, fn))
            lo, hi = sorted((r.precision, r.sensitivity))
            assert lo - 1e-12 <= r.f1 <= hi + 1e-12

    def test_brute_force_small_grids(self):
        rng = np.random.default_rng(4)
        for gt_bits in range(256):
            gt = np.array([(gt_bits >> i) & 1 for i in range(8)], np.float32).reshape(2, 4)
            pred = rng.uniform(0, 1, (2, 4))
            c = pixel_confusion(pred, gt, 0.5)
            hot = pred >= 0.5
            assert c.tp == int(np.sum(hot & (gt == 1)))
            assert c.fp == int(np.sum(hot & (gt == 0)))
            assert c.tn == int(np.sum(~hot & (gt == 0)))
            assert c.fn == int(np.sum(~hot & (gt == 1)))


class TestFormatting:
    def test_percent_rounds_half_away(self):
        assert format_percent(0.98765) == "98.77"
        assert format_percent(0.5) == "50.00"
        assert format_percent(1.0) == "100.00"
        assert format_percent(0.974999) == "97.50"

    def test_percent_two_decimals_always(self):
        assert format_percent(0.9) == "90.00"
        assert format_percent(0.0) == "0.00"

    def test_csv_shape(self):
        c = ConfusionCounts(tp=2, fp=1, tn=3, fn=0)
        doc = metrics_csv(c, metrics_from_confusion(c))
        lines = doc.strip().split("\n")
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "pixel"
        assert [int(v) for v in cells[1:5]] == [2, 1, 3, 0]
        assert all(len(v.split(".")[1]) == 6 for v in cells[5:11])
        assert cells[11] == ""

    def test_csv_flags_undefined_metrics(self):
        c = ConfusionCounts(tp=0, fp=0, tn=5, fn=0)
        header, row = metrics_csv(c, metrics_from_confusion(c)).strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["undefined"] == "sensitivity;precision"
        assert cells["precision"] == "0.000000"

    def test_csv_fraction_roundtrip(self):
        c = ConfusionCounts(tp=2057, fp=40, tn=25556, fn=56, granularity="sample")
        r = metrics_from_confusion(c)
        cells = metrics_csv(c, r).strip().split("\n")[1].split(",")
        assert abs(float(cells[5]) - r.sensitivity) < 5e-7

    def test_confusion_table_layout(self):
        c = ConfusionCounts(tp=4, fp=3, tn=2, fn=1)
        table = confusion_table(c)
        assert "pred neg" in table and "pred pos" in table
        assert "actual negative" in table and "actual positive" in table
        neg_row = [ln for ln in table.splitlines() if ln.startswith("actual negative")][0]
        pos_row = [ln for ln in table.splitlines() if ln.startswith("actual positive")][0]
        assert neg_row.split()[-2:] == ["2", "3"]
        assert pos_row.split()[-2:] == ["1", "4"]
