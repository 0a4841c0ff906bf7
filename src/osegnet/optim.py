"""Adam with bias correction.

Moments are stored per parameter in registration order; updates are purely
elementwise, so two optimizers fed identical gradient streams produce
bit-identical trajectories.

The update runs in place, ``BLOCK`` elements at a time, through two float32
scratch vectors allocated once: a block's moments and temporaries stay in
cache, and a step allocates no parameter-sized arrays. Each element sees the
same float32 operations in the same order as the textbook expression
``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the bits do not depend on
the block size. The non-finite check before the update runs through the
same scratch, a block at a time.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# Elements per pass of the update loop: 256 KiB per float32 block.
BLOCK = 1 << 16

# Moment decay rates and the denominator floor; only the learning rate is set per run.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-7


def _check_lr(lr: float) -> None:
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")


class Adam:
    def __init__(self, named_params: list, lr: float):
        _check_lr(lr)
        self.lr = lr
        self.step_count = 0
        self.names = [name for name, _ in named_params]
        self.params: list[Tensor] = [t for _, t in named_params]
        self.m = [np.zeros_like(t.data) for t in self.params]
        self.v = [np.zeros_like(t.data) for t in self.params]
        width = min(BLOCK, max((t.size for t in self.params), default=1))
        self._a = np.empty(width, dtype=np.float32)
        self._b = np.empty(width, dtype=np.float32)

    def _finite(self, g: np.ndarray) -> bool:
        """True if every element of the flat g is finite.

        Checked a block at a time into the float32 scratch viewed as bools,
        so the check allocates no gradient-sized mask.
        """
        mask = self._a.view(np.bool_)
        for lo in range(0, g.size, BLOCK):
            m = mask[:min(BLOCK, g.size - lo)]
            np.isfinite(g[lo:lo + m.size], out=m)
            if not m.all():
                return False
        return True

    def step(self) -> None:
        """Apply one update from the gradients currently held by the parameters."""
        for name, t in zip(self.names, self.params):
            if t.grad is None:
                raise FloatingPointError(
                    f"parameter {name} has no gradient yet: run backward() before step()")
            if not self._finite(t.grad.reshape(-1)):
                raise FloatingPointError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        t_ = self.step_count
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        c1, c2 = 1.0 - b1, 1.0 - b2
        bc1 = 1.0 - b1 ** t_
        bc2 = 1.0 - b2 ** t_
        for t, m, v in zip(self.params, self.m, self.v):
            # Parameter, gradient and moment arrays are C-contiguous, so
            # these flat reshapes are views.
            p, g, m, v = t.data.reshape(-1), t.grad.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, p.size, BLOCK):
                hi = min(lo + BLOCK, p.size)
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                a, b = self._a[:hi - lo], self._b[:hi - lo]
                mb *= b1
                np.multiply(gb, c1, out=a)
                mb += a
                vb *= b2
                np.multiply(gb, gb, out=a)
                a *= c2
                vb += a
                np.divide(mb, bc1, out=a)
                a *= lr
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += eps
                a /= b
                p[lo:hi] -= a
