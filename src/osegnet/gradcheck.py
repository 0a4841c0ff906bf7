"""Finite-difference verification of every backward rule.

Isolated checks drive each differentiable building block (conv, operational
layers across all polynomial orders, batchnorm, both losses) against central
differences; the end-to-end check differentiates the hybrid loss of a tiny
full model with respect to every parameter. Both take their numeric
gradients from ``tensor.finite_diff_grad``.

Error metric: max|analytic - numeric| / max(max|numeric|, 0.01), i.e.
error relative to the largest gradient magnitude, with an absolute floor for
near-zero gradient tensors. At 32-bit precision the per-evaluation rounding
noise is about ulp(loss)/(2 eps), which fixes the step sizes used here:
linear ops (conv families) tolerate a large eps because central differences
are truncation-free for them, while curved ops need a smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import BN_EPS, BN_MOMENTUM
from .losses import dice_loss, focal_loss, hybrid_loss
from .model import Q_ORDERS, ModelConfig, build_model
from .tensor import Tensor, batchnorm, conv2d, conv2d_transpose, finite_diff_grad, power_expand

ISOLATED_THRESHOLD = 1e-3
END_TO_END_THRESHOLD = 1e-2
SCALE_FLOOR = 1e-2

ISOLATED_KINDS = ("conv", "oper", "oper-transpose", "batchnorm", "dice", "focal")

# The tiny end-to-end model; its order and input size are the callers' defaults.
TINY_Q_ORDER, TINY_SIZE = 2, 16
TINY_CONFIG = dict(encoder_channels=(2, 3), decoder_filters=(3, 2))

# Step sizes per argument curvature: linear arguments take the large step.
EPS_LINEAR = 1e-2
EPS_POLY = 3e-3
EPS_LOSS = 1e-3


@dataclass
class KindResult:
    kind: str
    max_rel: float
    threshold: float
    worst: str

    @property
    def passed(self) -> bool:
        return self.max_rel < self.threshold

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{self.kind:<15} max rel err {self.max_rel:.3e} "
                f"(threshold {self.threshold:.0e}, worst at {self.worst}) {status}")


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(numeric).max()), SCALE_FLOOR)
    return float(np.abs(analytic - numeric).max()) / scale


def _corrupted(grad: np.ndarray, kind: str, corrupt_kind: str | None) -> np.ndarray:
    # Negative-control hook: skew the analytic gradient so the comparison
    # must fail, proving the checker actually detects broken backward rules.
    if corrupt_kind == kind:
        return grad * 1.05 + 0.01
    return grad


def _check_components(kind: str, threshold: float, components: list,
                      corrupt_kind: str | None = None) -> KindResult:
    """components: (label, analytic grad, numeric grad) triples."""
    worst_rel, worst_label = -1.0, "?"
    for label, analytic, numeric in components:
        r = rel_error(_corrupted(analytic, kind, corrupt_kind), numeric)
        if r > worst_rel:
            worst_rel, worst_label = r, label
    return KindResult(kind, worst_rel, threshold, worst_label)


def _grad_components(build_loss, tensors: dict, eps: dict) -> list:
    """Backward grads plus FD estimates for each named input tensor."""
    loss = build_loss(tensors)
    loss.backward()
    out = []
    for name, t in tensors.items():
        def f(candidate, name=name):
            trial = dict(tensors)
            trial[name] = candidate
            return build_loss(trial).item()
        numeric = finite_diff_grad(f, t, eps[name]).data
        out.append((name, t.grad.copy(), numeric))
    return out


def check_conv(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    rng = np.random.default_rng([seed, 1])
    tensors = {
        "x": Tensor(rng.uniform(-1, 1, (2, 2, 6, 6)).astype(np.float32)),
        "kernel": Tensor(rng.uniform(-0.5, 0.5, (3, 2, 3, 3)).astype(np.float32)),
        "bias": Tensor(rng.uniform(-0.2, 0.2, 3).astype(np.float32)),
    }
    g = rng.uniform(0.5, 1.5, (2, 3, 3, 3)).astype(np.float32)

    def build_loss(ts):
        return (conv2d(ts["x"], ts["kernel"], ts["bias"], stride=2) * Tensor(g)).sum()

    eps = {"x": EPS_LINEAR, "kernel": EPS_LINEAR, "bias": EPS_LINEAR}
    return _check_components("conv", ISOLATED_THRESHOLD,
                             _grad_components(build_loss, tensors, eps), corrupt_kind)


def _check_oper_family(kind: str, seed: int, corrupt_kind: str | None) -> KindResult:
    """An operational op at each order: 2 input channels at 4x4 to 3 outputs,
    same-padded conv2d at stride 1 or conv2d_transpose at stride 2 (8x8)."""
    transpose = kind == "oper-transpose"
    op, stride, side = (conv2d_transpose, 2, 8) if transpose else (conv2d, 1, 4)
    components = []
    for q in Q_ORDERS:
        rng = np.random.default_rng([seed, 2, q])
        x = Tensor(rng.uniform(-0.9, 0.9, (1, 2, 4, 4)).astype(np.float32))
        bias = Tensor(rng.uniform(-0.2, 0.2, 3).astype(np.float32))
        layout = (2 * q, 3) if transpose else (3, 2 * q)
        kernel = Tensor(rng.uniform(-0.4, 0.4, (*layout, 3, 3)).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (1, 3, side, side)).astype(np.float32)

        def build_loss(ts, q=q, g=g):
            return (op(power_expand(ts["x"], q), ts["kernel"], ts["bias"], stride=stride) * Tensor(g)).sum()

        tensors = {"x": x, "kernel": kernel, "bias": bias}
        eps = {"x": EPS_POLY, "kernel": EPS_LINEAR, "bias": EPS_LINEAR}
        for label, analytic, numeric in _grad_components(build_loss, tensors, eps):
            components.append((f"Q{q}.{label}", analytic, numeric))
    return _check_components(kind, ISOLATED_THRESHOLD, components, corrupt_kind)


def check_oper(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    return _check_oper_family("oper", seed, corrupt_kind)


def check_oper_transpose(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    return _check_oper_family("oper-transpose", seed, corrupt_kind)


def check_batchnorm(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    rng = np.random.default_rng([seed, 3])
    tensors = {
        "x": Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)),
        "gamma": Tensor(rng.uniform(0.5, 1.5, 3).astype(np.float32)),
        "beta": Tensor(rng.uniform(-0.3, 0.3, 3).astype(np.float32)),
    }
    g = rng.uniform(0.5, 1.5, (2, 3, 4, 4)).astype(np.float32)
    rm = np.zeros(3, dtype=np.float32)
    rv = np.ones(3, dtype=np.float32)

    def build_loss(ts):
        # Fresh stat buffers per evaluation: training-mode output does not
        # read them, but keeping them fixed makes every call identical.
        out = batchnorm(ts["x"], ts["gamma"], ts["beta"], rm.copy(), rv.copy(),
                        BN_MOMENTUM, BN_EPS, True)
        return (out * Tensor(g)).sum()

    eps = {"x": EPS_POLY, "gamma": EPS_POLY, "beta": EPS_LINEAR}
    return _check_components("batchnorm", ISOLATED_THRESHOLD,
                             _grad_components(build_loss, tensors, eps), corrupt_kind)


def _check_loss(kind: str, seed: int, corrupt_kind: str | None) -> KindResult:
    rng = np.random.default_rng([seed, 4])
    p = Tensor((rng.random((2, 1, 6, 6)) > 0.5).astype(np.float32))
    tensors = {"q": Tensor(rng.uniform(0.1, 0.9, (2, 1, 6, 6)).astype(np.float32))}

    if kind == "dice":
        # Rational in q with O(1) denominators: the larger step clears the
        # float32 rounding noise without meaningful truncation error.
        eps = EPS_POLY

        def build_loss(ts):
            return dice_loss(p, ts["q"])
    else:
        eps = EPS_LOSS

        def build_loss(ts):
            return focal_loss(p, ts["q"])

    return _check_components(kind, ISOLATED_THRESHOLD,
                             _grad_components(build_loss, tensors, {"q": eps}), corrupt_kind)


def check_dice(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    return _check_loss("dice", seed, corrupt_kind)


def check_focal(seed: int = 0, corrupt_kind: str | None = None) -> KindResult:
    return _check_loss("focal", seed, corrupt_kind)


def _param_kind(name: str) -> str:
    if ".bn." in name:
        return "batchnorm"
    if name.startswith("encoder."):
        return "conv"
    if name.startswith("decoder.final"):
        return "oper"
    return "oper-transpose"


def check_end_to_end(seed: int = 0, q_order: int = TINY_Q_ORDER, size: int = TINY_SIZE,
                     corrupt_kind: str | None = None, max_params: int | None = None) -> list:
    """FD-check the hybrid loss of a tiny model against every parameter.

    Returns one KindResult per layer kind present in the model, each judged
    at the end-to-end threshold. max_params caps the number of checked
    elements per tensor (None checks all of them).
    """
    config = ModelConfig(q_order=q_order, input_size=size, **TINY_CONFIG)
    rng = np.random.default_rng([seed, 5])
    model = build_model(config, rng)
    x = Tensor(rng.random((2, 1, size, size), dtype=np.float32))
    target = Tensor((rng.random((2, 1, size, size)) > 0.7).astype(np.float32))

    def loss_value() -> Tensor:
        return hybrid_loss(target, model.forward(x, training=True))

    model.zero_grad()
    loss_value().backward()

    by_kind: dict[str, list] = {}
    for name, t in model.named_parameters():
        analytic = _corrupted(t.grad.copy(), _param_kind(name), corrupt_kind)
        original = t.data.copy()
        flat_idx = np.arange(t.size)
        if max_params is not None and t.size > max_params:
            flat_idx = np.random.default_rng([seed, 6]).choice(t.size, max_params, replace=False)

        def f(candidate, t=t):
            t.data[...] = candidate.data
            return loss_value().item()

        numeric = finite_diff_grad(f, t, EPS_LINEAR, flat_idx).data.reshape(-1)[flat_idx]
        t.data[...] = original
        err = rel_error(analytic.reshape(-1)[flat_idx], numeric)
        by_kind.setdefault(_param_kind(name), []).append((name, err))

    results = []
    for kind in ("conv", "batchnorm", "oper-transpose", "oper"):
        if kind not in by_kind:
            continue
        worst_name, worst_err = max(by_kind[kind], key=lambda kv: kv[1])
        results.append(KindResult(f"e2e.{kind}", worst_err, END_TO_END_THRESHOLD, worst_name))
    return results


def run_all(seed: int = 0, q_order: int = TINY_Q_ORDER, size: int = TINY_SIZE,
            corrupt_kind: str | None = None) -> tuple[list, bool]:
    """The full report: six isolated kinds plus the end-to-end breakdown."""
    results = [check(seed, corrupt_kind) for check in (
        check_conv, check_oper, check_oper_transpose, check_batchnorm, check_dice, check_focal)]
    results.extend(check_end_to_end(seed, q_order, size, corrupt_kind))
    return results, all(r.passed for r in results)
