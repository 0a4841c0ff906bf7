"""Training objective: dice loss, focal loss, and their sum.

Dice is computed per image and averaged over the batch; focal is a plain
mean over pixels. Both are O(1) regardless of resolution, so their sum is a
balanced objective at any image size. ``DICE_SMOOTH`` smooths dice's ratio
and ``PROB_CLIP`` keeps focal's logarithms finite; both are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

DICE_SMOOTH = 1e-6
PROB_CLIP = 1e-7


def _check_gamma(gamma: float) -> None:
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")


@dataclass
class LossConfig:
    gamma: float = 2.0
    alpha: float = 0.25

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


def _check_pair(p: Tensor, q: Tensor, op: str) -> None:
    if p.shape != q.shape:
        raise ShapeError(f"{op}: mask shape {p.shape} != prediction shape {q.shape}")


def _check_binary(p: Tensor, op: str) -> None:
    if not np.all((p.data == 0.0) | (p.data == 1.0)):
        bad = p.data[(p.data != 0.0) & (p.data != 1.0)].flat[0]
        raise ValueError(f"{op}: ground-truth mask must be binary, found value {bad}")


def dice_loss(p: Tensor, q: Tensor) -> Tensor:
    """1 - dice overlap, averaged over the batch.

    p is the binary ground truth, q the predicted probabilities. 4-D input
    is treated as a batch with per-image reduction over C, H, W; anything
    else is treated as a single image. DICE_SMOOTH decides empty-vs-empty
    agreement as loss 0.
    """
    _check_pair(p, q, "dice_loss")
    _check_binary(p, "dice_loss")
    axes = (1, 2, 3) if p.data.ndim == 4 else None
    inter = (p * q).sum(axis=axes)
    total = p.sum(axis=axes) + q.sum(axis=axes)
    per_image = 1.0 - (2.0 * inter + DICE_SMOOTH) / (total + DICE_SMOOTH)
    return per_image.mean() if axes is not None else per_image


def focal_loss(p: Tensor, q: Tensor, gamma: float = LossConfig.gamma,
               alpha: float = LossConfig.alpha) -> Tensor:
    """Class-balanced focusing loss, mean over all pixels.

    -alpha (1-q)^gamma p log q - (1-alpha) q^gamma (1-p) log(1-q), with q
    clipped into [PROB_CLIP, 1 - PROB_CLIP] before the logarithms.
    """
    _check_gamma(gamma)
    _check_pair(p, q, "focal_loss")
    qc = q.clip(PROB_CLIP, 1.0 - PROB_CLIP)
    pos = p * qc.log() * (1.0 - qc).pow_scalar(gamma) * (-alpha)
    neg = (1.0 - p) * (1.0 - qc).log() * qc.pow_scalar(gamma) * (-(1.0 - alpha))
    return (pos + neg).mean()


def hybrid_loss(p: Tensor, q: Tensor, config: LossConfig | None = None) -> Tensor:
    """dice_loss + focal_loss, exactly the sum."""
    cfg = config or LossConfig()
    return dice_loss(p, q) + focal_loss(p, q, cfg.gamma, cfg.alpha)
