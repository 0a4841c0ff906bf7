"""Evaluation: confusion counts, derived metrics, F-beta, detection rule.

Segmentation quality is scored at pixel granularity by pooling confusion
counts over the whole evaluation set (micro-averaging). Detection reuses the
segmentation output: a sample is predicted positive iff any pixel clears the
threshold. Thresholds compare with >= so ties count as positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

CSV_HEADER = "granularity,tp,fp,tn,fn,sensitivity,specificity,precision,accuracy,f1,f2,undefined"


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    granularity: str = "pixel"

    def __post_init__(self):
        if self.granularity not in ("pixel", "sample"):
            raise ValueError(f"granularity must be 'pixel' or 'sample', got {self.granularity!r}")
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            setattr(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        if self.granularity != other.granularity:
            raise ValueError(f"cannot merge {self.granularity} counts with {other.granularity}")
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.tn + other.tn, self.fn + other.fn, self.granularity)


@dataclass
class MetricsReport:
    sensitivity: float
    specificity: float
    precision: float
    accuracy: float
    f1: float
    f2: float
    undefined: tuple = field(default_factory=tuple)


def fbeta(precision: float, sensitivity: float, beta: float) -> float:
    """Weighted harmonic mean of precision and sensitivity; 0 when both are 0."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    for name, v in (("precision", precision), ("sensitivity", sensitivity)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    denom = beta * beta * precision + sensitivity
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * sensitivity / denom


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {threshold}")


def _check_binary_mask(gt: np.ndarray) -> None:
    if not np.all((gt == 0) | (gt == 1)):
        raise ValueError("ground-truth mask must be binary (0/1)")


def pixel_confusion(pred: np.ndarray, gt: np.ndarray, threshold: float = 0.5) -> ConfusionCounts:
    """Pixelwise confusion counts of thresholded predictions against a mask."""
    _check_threshold(threshold)
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"prediction shape {pred.shape} != mask shape {gt.shape}")
    _check_binary_mask(gt)
    hot = pred >= threshold
    pos = gt == 1
    return ConfusionCounts(
        tp=int(np.count_nonzero(hot & pos)),
        fp=int(np.count_nonzero(hot & ~pos)),
        tn=int(np.count_nonzero(~hot & ~pos)),
        fn=int(np.count_nonzero(~hot & pos)),
        granularity="pixel",
    )


def detect_sample(pred: np.ndarray, threshold: float = 0.5) -> bool:
    """True iff at least one pixel of the predicted mask clears the threshold."""
    _check_threshold(threshold)
    return bool(np.any(np.asarray(pred) >= threshold))


def sample_confusion(preds, gts, threshold: float = 0.5) -> ConfusionCounts:
    """Sample-level detection counts: positive iff any pixel is positive."""
    counts = ConfusionCounts(granularity="sample")
    for pred, gt in zip(preds, gts, strict=True):
        gt = np.asarray(gt)
        _check_binary_mask(gt)
        predicted = detect_sample(pred, threshold)
        actual = bool(np.any(gt == 1))
        if predicted and actual:
            counts.tp += 1
        elif predicted and not actual:
            counts.fp += 1
        elif not predicted and actual:
            counts.fn += 1
        else:
            counts.tn += 1
    return counts


def metrics_from_confusion(c: ConfusionCounts) -> MetricsReport:
    """Derive the six standard metrics; zero-denominator metrics become 0."""
    if c.total == 0:
        raise ValueError("cannot compute metrics from all-zero confusion counts")
    undefined = []

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    sensitivity = ratio(c.tp, c.tp + c.fn, "sensitivity")
    specificity = ratio(c.tn, c.tn + c.fp, "specificity")
    precision = ratio(c.tp, c.tp + c.fp, "precision")
    accuracy = (c.tp + c.tn) / c.total
    return MetricsReport(
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        accuracy=accuracy,
        f1=fbeta(precision, sensitivity, 1.0),
        f2=fbeta(precision, sensitivity, 2.0),
        undefined=tuple(undefined),
    )


def format_percent(fraction: float) -> str:
    """Two-decimal percentage with half-values rounded away from zero."""
    return str((Decimal(repr(fraction)) * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def metrics_csv(counts: ConfusionCounts, report: MetricsReport) -> str:
    """One-row CSV document of counts, fractional metrics (6 decimals) and the
    ``;``-joined names of the metrics whose denominator was zero."""
    row = [counts.granularity, str(counts.tp), str(counts.fp), str(counts.tn), str(counts.fn)]
    row += [f"{v:.6f}" for v in (report.sensitivity, report.specificity, report.precision,
                                 report.accuracy, report.f1, report.f2)]
    row.append(";".join(report.undefined))
    return CSV_HEADER + "\n" + ",".join(row) + "\n"


def confusion_table(c: ConfusionCounts) -> str:
    """Plain-text 2x2 confusion matrix, actual class by row."""
    rows = [
        ("actual negative", c.tn, c.fp),
        ("actual positive", c.fn, c.tp),
    ]
    width = max(len("actual negative"), len(c.granularity))
    num = max(len(str(v)) for _, a, b in rows for v in (a, b))
    num = max(num, len("pred neg"), len("pred pos"))
    lines = [f"{c.granularity:<{width}}  {'pred neg':>{num}}  {'pred pos':>{num}}"]
    for label, a, b in rows:
        lines.append(f"{label:<{width}}  {a:>{num}}  {b:>{num}}")
    return "\n".join(lines) + "\n"
