"""Adam with bias correction.

Moments are stored per parameter in registration order; updates are purely
elementwise, so two optimizers fed identical gradient streams produce
bit-identical trajectories.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    def __init__(self, named_params: list, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-7):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.names = [name for name, _ in named_params]
        self.params: list[Tensor] = [t for _, t in named_params]
        self.m = [np.zeros_like(t.data) for t in self.params]
        self.v = [np.zeros_like(t.data) for t in self.params]

    def step(self) -> None:
        """Apply one update from the gradients currently held by the parameters."""
        for name, t in zip(self.names, self.params):
            g = t.grad
            if g is None or not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        t_ = self.step_count
        bc1 = 1.0 - self.beta1 ** t_
        bc2 = 1.0 - self.beta2 ** t_
        for t, m, v in zip(self.params, self.m, self.v):
            g = t.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            t.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(np.float32)
