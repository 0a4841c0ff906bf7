"""Training objective: dice loss, focal loss, and their sum.

Dice is computed per image and averaged over the batch; focal is a plain
mean over pixels. Both are O(1) regardless of resolution, so their sum is a
balanced objective at any image size. ``DICE_SMOOTH`` smooths dice's ratio
and ``PROB_CLIP`` keeps focal's logarithms finite; both are fixed.

Each loss is one graph node whose only parent is the prediction q, so the
mask gets no gradient. The forward is the float32 expression of the
formula, each sum taken in float64 and rounded to float32. The backward
forms dL/dq in closed form, g being the upstream gradient times 1/N (dice,
N images) or 1/size (focal):

- dice, per image, with n = 2 sum(p q) + DICE_SMOOTH and d = sum(p) +
  sum(q) + DICE_SMOOTH: ``(-g / d * 2) * p + g * n / (d * d)``, the
  intersection term, then the total term;
- focal, with c the clipped q, r = 1 - c, G = gamma and k = g * (-alpha),
  m = g * (-(1 - alpha)): ``k r^G p / c - k (p log c) (G r^(G-1))
  - m c^G (1 - p) / r + m ((1 - p) log r) (G c^(G-1))``, the terms through
  log c, r^G, log r and c^G, times the clip mask (0 where q is outside
  (PROB_CLIP, 1 - PROB_CLIP)).

These are the bits of reverse mode through the formula taken one
elementwise float32 operation at a time: each term multiplies its factors
in the order such a walk multiplies them (left to right above), and the
terms are added in the order it reaches them. With a binary mask at most two
of focal's terms are non-zero at a pixel; all four are formed, so a zero
keeps its sign too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _accumulate, _sum32

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
    y = p.data
    axes, image = ((1, 2, 3), (-1, 1, 1, 1)) if y.ndim == 4 else (None, ())
    num = _sum32(y * q.data, axes) * np.float32(2.0) + np.float32(DICE_SMOOTH)
    den = _sum32(y, axes) + _sum32(q.data, axes) + np.float32(DICE_SMOOTH)
    per_image = 1.0 - num / den
    scale = np.float32(1.0 / per_image.size)

    def bwd(g):
        g = g * scale
        g_inter = -g / den * np.float32(2.0)
        g_total = g * num / (den * den)
        dq = g_inter.reshape(image) * y
        dq += g_total.reshape(image)
        _accumulate(q, dq, owned=True)

    return Tensor(_sum32(per_image) * scale, (q,), "dice", bwd)


def focal_loss(p: Tensor, q: Tensor, gamma: float = LossConfig.gamma,
               alpha: float = LossConfig.alpha) -> Tensor:
    """Class-balanced focusing loss, mean over all pixels.

    -alpha (1-q)^gamma p log q - (1-alpha) q^gamma (1-p) log(1-q), with q
    clipped into [PROB_CLIP, 1 - PROB_CLIP] before the logarithms.
    """
    _check_gamma(gamma)
    _check_pair(p, q, "focal_loss")
    y = p.data
    qc = np.clip(q.data, PROB_CLIP, 1.0 - PROB_CLIP)
    rest = 1.0 - qc
    power = np.float32(gamma)
    pos_pow, neg_pow = rest ** power, qc ** power
    pos_log, neg_log = y * np.log(qc), (1.0 - y) * np.log(rest)
    pos_w, neg_w = np.float32(-alpha), np.float32(-(1.0 - alpha))
    scale = np.float32(1.0 / y.size)
    value = _sum32(pos_log * pos_pow * pos_w + neg_log * neg_pow * neg_w) * scale

    def bwd(g):
        g = g * scale
        pos_g, neg_g = g * pos_w, g * neg_w
        slope = np.float32(gamma - 1.0)
        # The terms through log c, r^G, log r and c^G, in that order.
        dq = pos_g * pos_pow * y / qc
        dq -= pos_g * pos_log * (power * rest ** slope)
        dq -= neg_g * neg_pow * (1.0 - y) / rest
        dq += neg_g * neg_log * (power * qc ** slope)
        dq *= ((q.data > PROB_CLIP) & (q.data < 1.0 - PROB_CLIP)).astype(np.float32)
        _accumulate(q, dq, owned=True)

    return Tensor(value, (q,), "focal", bwd)


def hybrid_loss(p: Tensor, q: Tensor, config: LossConfig | None = None) -> Tensor:
    """dice_loss + focal_loss, exactly the sum."""
    cfg = config or LossConfig()
    return dice_loss(p, q) + focal_loss(p, q, cfg.gamma, cfg.alpha)
