"""Adam with bias correction.

Moments are stored per parameter in registration order; updates are purely
elementwise, so two optimizers fed identical gradient streams produce
bit-identical trajectories.

The update runs in place, at most ``BLOCK`` elements at a time, through a
pair of float32 scratch vectors: a block's moments and temporaries stay in
cache, and a step allocates no parameter-sized arrays. The parameters, laid
end to end, are cut into BLOCK-element blocks, and ranges of these blocks run
side by side (``tensor._split``, above its bytes floor), each range through
a scratch pair of its own, kept under the range's first block for the same
range of the next step. Each element sees the same float32 operations in the
same order as the textbook expression
``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the bits do not depend on
the block size or the number of ranges. The non-finite check before the
update runs through the same ranges and scratch, and no element is updated
unless every gradient is finite.
"""

from __future__ import annotations

import numpy as np

from . import tensor
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
        # Where each parameter starts in the parameters laid end to end, whose
        # BLOCK-element blocks a step's ranges index.
        self._starts = np.cumsum([0] + [t.size for t in self.params]).tolist()
        self._scratch_size = min(BLOCK, max((t.size for t in self.params), default=1))
        # Scratch pairs keyed by the first block of the range that uses them:
        # a step's ranges are the same on every step, so each range reuses its
        # own pair, however the ranges of an earlier step overlapped in time.
        self._scratch = {}

    def _pieces(self, first: int, last: int):
        """(i, lo, hi) for each run of parameter i's elements, at most BLOCK
        long, that blocks [first, last) of the parameters laid end to end cover."""
        for i, start in enumerate(self._starts[:-1]):
            lo = max(first * BLOCK - start, 0)
            hi = min(last * BLOCK - start, self.params[i].size)
            for s in range(lo, hi, BLOCK):
                yield i, s, min(s + BLOCK, hi)

    def _split(self, fn) -> None:
        """Run fn(scratch, first, last) for ranges [first, last) of the blocks,
        each range with a (2, _scratch_size) float32 scratch of its own."""
        def run(first, last):
            scratch = self._scratch.get(first)
            if scratch is None:
                scratch = self._scratch[first] = np.empty((2, self._scratch_size), dtype=np.float32)
            fn(scratch, first, last)

        total = self._starts[-1]
        tensor._split(-(-total // BLOCK), 4 * total, tensor._SPLIT_MIN_BYTES, run)

    def step(self) -> None:
        """Apply one update from the gradients currently held by the parameters."""
        for name, t in zip(self.names, self.params):
            if t.grad is None:
                raise FloatingPointError(
                    f"parameter {name} has no gradient yet: run backward() before step()")
        finite = np.ones(len(self.params), dtype=np.bool_)

        def check(scratch, first, last):
            # Into the scratch viewed as bools, so no gradient-sized mask is made.
            mask = scratch[0].view(np.bool_)
            for i, lo, hi in self._pieces(first, last):
                m = np.isfinite(self.params[i].grad.reshape(-1)[lo:hi], out=mask[:hi - lo])
                if not m.all():
                    finite[i] = False

        self._split(check)
        if not finite.all():
            name = self.names[finite.tolist().index(False)]
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        t_ = self.step_count
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        c1, c2 = 1.0 - b1, 1.0 - b2
        bc1 = 1.0 - b1 ** t_
        bc2 = 1.0 - b2 ** t_

        def update(scratch, first, last):
            for i, lo, hi in self._pieces(first, last):
                # Parameter, gradient and moment arrays are C-contiguous, so
                # these flat reshapes are views.
                t, m, v = self.params[i], self.m[i], self.v[i]
                gb, mb, vb = t.grad.reshape(-1)[lo:hi], m.reshape(-1)[lo:hi], v.reshape(-1)[lo:hi]
                a, b = scratch[0, :hi - lo], scratch[1, :hi - lo]
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
                t.data.reshape(-1)[lo:hi] -= a

        self._split(update)
