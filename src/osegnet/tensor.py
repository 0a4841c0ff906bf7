"""Dense float32 tensors with reverse-mode automatic differentiation.

Every value is a numpy float32 array wrapped in a :class:`Tensor`. Operations
build a computation graph on the fly; calling ``backward()`` on a scalar loss
walks that graph once in reverse topological order and accumulates gradients
into ``.grad``. The heavy kernels (conv2d and its transpose) are written in
im2col/col2im form, or on the padded grid for one channel, so the inner
loops run as BLAS matmuls with a fixed summation order. Both are
same-padded and always add a per-channel bias, the one form the network
uses. Reductions accumulate in float64 and round the result back to float32.

Both convolutions run on one lowering and its adjoint, and the two kernels
own the same-padding geometry: ``_lower`` pads its input and computes
``w2 @ im2col(padded)``, and its backward gives the weight gradient and,
when asked, the cropped input gradient; ``_adjoint`` adds
``col2im(w2.T @ g)`` into a zeroed padded buffer and returns the crop.
conv2d is the lowering, whose backward runs the adjoint for the input
gradient; conv2d_transpose is the adjoint forward and the lowering
backward. The two ops only check their operands (one check for both), add
the bias and wire the graph. Each kernel builds the columns of its whole
batch at once, and the lowering keeps them, not the padded input, for the
weight gradient, which adds the per-sample float32 products in batch order
in float64. Every sample goes through the same BLAS call as it would in a
batch of its own, so a sample's output and input gradient do not depend on
the batch it is in.

That is also why a batch may be split across CPUs without moving a bit. The
lowering (im2col and its GEMM, or the one-row loop), the one-row weight and
input gradient loop, and the adjoint (its GEMM and col2im) each run over
contiguous sample ranges (``_split_samples``), one range per CPU the process
may run on and never more ranges than samples: the calling thread takes the
first, a thread pool made at the first split the others. A batch of one,
or of samples whose GEMMs take fewer than ``_SPLIT_MIN_MACS`` multiply-adds
each, runs inline. Each range writes only its own samples' rows of buffers allocated
for the whole batch. The column path's weight gradient stays serial, adding
its per-sample products in batch order, because running them side by side
would need a product buffer per sample or per thread; the one-row path keeps
its small per-sample products and adds them afterwards in batch order.
glibc gets one malloc arena (below), so the pool's threads reuse the main
heap, and a forked child makes a fresh pool at its first split, since the
parent's threads do not exist there.

A lowering whose ``w2`` has one row (conv2d with one output channel, as the
final layer's, or conv2d_transpose with one input channel) builds no
columns. It works on the padded grid through the k*k tap offsets, one sample
at a time, so each product is a GEMM whose inner dimension is C or k*k, not
C*k*k: the forward sums the tap rows of ``W_taps.T @ padded[n]`` at their
strided offsets in (ky, kx) order, and the weight gradient and the adjoint
multiply by the shifted gradient ``G[n]`` (``_shift_taps``), whose row per
tap holds the gradient at that tap's offset; the lowering's backward builds
each G once for both and writes the adjoint over an empty padded buffer,
whose crop ``+ 0.0`` turns any -0.0 into the +0.0 that adding into zeros
gives. Each of
these loops holds one sample's k*k grid rows (and, in the adjoint, C rows
of ``W_taps @ G[n]``) at a time. The sums run in another order than the
column form's, so results differ from it by float32 rounding.

Batchnorm keeps float64 statistics per channel block: the variance and the
backward run over blocks of channels (about ``_BN_BLOCK_BYTES`` of float64
each, two channels at least) through one reused buffer, so the op makes no
full-size temporary besides its outputs and ``xhat``. Each channel is still
reduced over the whole tensor's (N, H*W) layout, so the bits are those of
whole-tensor expressions.

Inside ``no_graph()`` (what ``OSegNetModel.forward(training=False)`` runs
under) ops compute the same values but record no graph: each output keeps no
parents, no backward closure and no gradient buffer, so the columns and other
buffers a closure would capture are freed as soon as the op returns.

Importing this module sets the malloc policy of the whole process once. On
glibc it calls ``mallopt`` to fix the mmap threshold at 32 MiB (glibc's own
ceiling for its dynamic threshold on 64-bit) and the trim threshold at
1 GiB, so the arrays a step frees stay in the heap and the next step reuses
them instead of page-faulting fresh memory in, and it caps the arenas at
one, so arrays the pool's threads allocate come from and return to that
same heap. Allocation changes no arithmetic. On other C libraries nothing
is set.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

import numpy as np

# Bytes of float64 one batchnorm channel block spans (a block takes two channels
# at least): the variance and backward of a block stay in cache.
_BN_BLOCK_BYTES = 1 << 20

# False inside no_graph(): ops then build graph-free (inference) nodes.
_recording = True

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory(libc) -> None:
    """Keep freed arrays in the heap for reuse; a no-op unless libc is glibc.

    Setting either threshold turns off glibc's dynamic mmap threshold, so
    both are set, the mmap threshold first; the trim threshold alone would
    leave every array above 128 KiB mmapped afresh. One arena makes the
    pool's threads allocate from the main heap, whose freed arrays these
    thresholds keep, instead of each growing an arena of its own.
    """
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_ARENA_MAX, 1)


if os.name == "posix":
    _keep_freed_memory(ctypes.CDLL(None))

# Sample ranges a convolution splits its batch into at most: the CPUs this
# process may run on. The pool runs all but the first range; it is made at
# the first split, so a process that never splits imports no thread pool.
_width = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
_pool = None


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # A forked child holds the parent's pool but none of its threads, so work
    # submitted to it would never run: the child's first split makes its own.
    os.register_at_fork(after_in_child=_forget_pool)


# Multiply-adds a sample's GEMMs must take for its batch to be split: below
# this, handing samples to the pool costs more than it saves. On a 2-CPU
# x86-64 host, splitting the canonical layers at batch 4 made their summed
# forward and backward 7% slower at 64 px, where a sample takes at most
# 3.5 M, and 23% faster at 224 px, where all but the first take 10.8 M or more.
_SPLIT_MIN_MACS = 1 << 23


def _split_samples(n: int, macs: int, fn) -> None:
    """Call fn(a, b) once for each of contiguous sample ranges [a, b) that cover [0, n).

    ``macs`` is the multiply-adds of one sample's GEMMs. There are
    min(_width, n) ranges, or one when ``macs`` is below _SPLIT_MIN_MACS: the
    calling thread runs the first and the pool the others, and the call
    returns once all are done, raising the first error a range raised. A
    batch of one runs inline.
    """
    global _pool
    width = min(_width, n) if macs >= _SPLIT_MIN_MACS else 1
    if width == 1:
        fn(0, n)
        return
    # Imported here, not with the engine: it also imports logging, which a
    # process that never splits a batch need not load.
    from concurrent.futures import ThreadPoolExecutor, wait

    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=max(_width - 1, 1), thread_name_prefix="osegnet-conv")
    bounds = [i * n // width for i in range(width + 1)]
    futures = [_pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        wait(futures)  # the ranges write into the caller's buffers
    for future in futures:
        future.result()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def _as_f32(data) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if any(d == 0 for d in arr.shape):
        raise ShapeError(f"zero-sized dimension in shape {arr.shape}")
    return arr


def _accumulate(node: "Tensor", grad: np.ndarray, owned: bool = False) -> None:
    """Add grad into node.grad; an ``owned`` grad (a fresh float32 array of the node's
    shape that nothing else holds) becomes the first gradient without a copy."""
    if node.grad is None:
        node.grad = grad if owned else np.array(grad, dtype=np.float32, copy=True)
    else:
        node.grad += grad


@contextlib.contextmanager
def no_graph():
    """Run ops without recording a graph; the previous state returns on exit, raised or not."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """A float32 array plus the bookkeeping needed for backpropagation.

    Leaf tensors (inputs and parameters, op ``"leaf"``) start with a zero
    gradient buffer; intermediate nodes get theirs lazily during
    ``backward()``. Inside ``no_graph()`` a leaf gets no gradient buffer,
    and an op makes an inference node: it keeps its op name but no parents,
    no backward closure and no gradient buffer, and ``backward()`` refuses
    to walk through it. Data buffers are treated as immutable once an op
    has consumed them, with two sanctioned exceptions: the optimizer updates
    parameter ``.data`` between steps, and ``.grad`` is written during
    backward.
    """

    __slots__ = ("data", "grad", "_parents", "_op", "_backward_fn")

    def __init__(self, data, parents=(), op="leaf", backward_fn=None):
        self.data = _as_f32(data)
        self._op = op
        if _recording:
            self._parents = tuple(parents)
            self._backward_fn = backward_fn
            # Leaves get a zero grad up front so an unused parameter reads as
            # gradient zero without a reachability check.
            self.grad = np.zeros_like(self.data) if not self._parents else None
        else:
            self._parents = ()
            self._backward_fn = None
            self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    # -- graph walk ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar through the whole graph.

        Deterministic: the topological order and every accumulation order are
        fixed by graph construction order, so repeated runs on the same graph
        produce bit-identical gradients.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if not node._parents and node._op != "leaf":
                raise RuntimeError(
                    f"backward() reached a {node._op!r} node built in inference mode, which "
                    f"records no graph; run forward(training=True) to backpropagate")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- elementwise algebra -------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=np.float32))

    @staticmethod
    def _check_elementwise(a: "Tensor", b: "Tensor", op: str) -> None:
        # No implicit broadcasting: shapes must match exactly unless one side
        # is a single element.
        if a.shape != b.shape and a.size != 1 and b.size != 1:
            raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")

    @staticmethod
    def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
        if grad.shape == shape:
            return grad
        # The operand was a single element broadcast across the other shape.
        return np.asarray(grad.sum(dtype=np.float64), dtype=np.float32).reshape(shape)

    def __add__(self, other):
        other = Tensor._lift(other)
        Tensor._check_elementwise(self, other, "add")

        def bwd(g):
            _accumulate(self, Tensor._reduce_to(g, self.shape))
            _accumulate(other, Tensor._reduce_to(g, other.shape))

        return Tensor(self.data + other.data, (self, other), "add", bwd)

    def __sub__(self, other):
        other = Tensor._lift(other)
        Tensor._check_elementwise(self, other, "sub")

        def bwd(g):
            _accumulate(self, Tensor._reduce_to(g, self.shape))
            _accumulate(other, Tensor._reduce_to(-g, other.shape))

        return Tensor(self.data - other.data, (self, other), "sub", bwd)

    def __rsub__(self, other):
        return Tensor._lift(other) - self

    def __mul__(self, other):
        other = Tensor._lift(other)
        Tensor._check_elementwise(self, other, "mul")

        def bwd(g):
            _accumulate(self, Tensor._reduce_to(g * other.data, self.shape))
            _accumulate(other, Tensor._reduce_to(g * self.data, other.shape))

        return Tensor(self.data * other.data, (self, other), "mul", bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        Tensor._check_elementwise(self, other, "div")

        def bwd(g):
            _accumulate(self, Tensor._reduce_to(g / other.data, self.shape))
            _accumulate(other, Tensor._reduce_to(-g * self.data / (other.data * other.data), other.shape))

        return Tensor(self.data / other.data, (self, other), "div", bwd)

    def pow_scalar(self, p: float) -> "Tensor":
        """Elementwise real power for strictly positive inputs."""
        def bwd(g):
            _accumulate(self, g * (np.float32(p) * self.data ** np.float32(p - 1.0)))

        return Tensor(self.data ** np.float32(p), (self,), f"pow{p}", bwd)

    def log(self) -> "Tensor":
        def bwd(g):
            _accumulate(self, g / self.data)

        return Tensor(np.log(self.data), (self,), "log", bwd)

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values into [lo, hi]; gradient flows only strictly inside."""
        mask = ((self.data > lo) & (self.data < hi)).astype(np.float32)

        def bwd(g):
            _accumulate(self, g * mask)

        return Tensor(np.clip(self.data, lo, hi), (self,), "clip", bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        value = self.data.sum(axis=axis, dtype=np.float64)

        def bwd(g):
            if axis is None:
                _accumulate(self, np.broadcast_to(g.reshape(()), self.shape))
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                expanded = np.expand_dims(g, axes)
                _accumulate(self, np.broadcast_to(expanded, self.shape))

        return Tensor(np.asarray(value, dtype=np.float32), (self,), "sum", bwd)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    # -- activations ---------------------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)

        def bwd(g):
            _accumulate(self, g * (1.0 - y * y))

        return Tensor(y, (self,), "tanh", bwd)

    def sigmoid(self) -> "Tensor":
        x = self.data
        # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1,
        # so exp never overflows.
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0, e) / (1.0 + e)

        def bwd(g):
            _accumulate(self, g * (y * (1.0 - y)))

        return Tensor(y, (self,), "sigmoid", bwd)


# -- convolution kernels ------------------------------------------------------


def _same_pads(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for same padding; extra pad trails."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    before = total // 2
    return out, before, total - before


def _im2col(padded: np.ndarray, k: int, stride: int, h_out: int, w_out: int,
            cols: np.ndarray) -> np.ndarray:
    """(N, C, Hp, Wp) -> columns (N, C, k, k, h_out, w_out), written into cols."""
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = padded[:, :, ky:ky + (h_out - 1) * stride + 1:stride,
                                        kx:kx + (w_out - 1) * stride + 1:stride]
    return cols


def _col2im_add(buf: np.ndarray, cols: np.ndarray, k: int, stride: int,
                h_out: int, w_out: int) -> None:
    """Scatter-add columns (N, C, k, k, h_out, w_out) into buf (N, C, Hp, Wp) in place."""
    for ky in range(k):
        for kx in range(k):
            buf[:, :, ky:ky + (h_out - 1) * stride + 1:stride,
                kx:kx + (w_out - 1) * stride + 1:stride] += cols[:, :, ky, kx]


def _sum_taps(y: np.ndarray, z: np.ndarray, k: int, stride: int, h_out: int, w_out: int) -> None:
    """y = sum over taps of z's tap row at that tap's strided offset, in (ky, kx) order.

    One sample: y (h_out, w_out); z (k*k, Hp, Wp). The first tap is copied in.
    """
    for t in range(k * k):
        ky, kx = divmod(t, k)
        tap = z[t, ky:ky + (h_out - 1) * stride + 1:stride, kx:kx + (w_out - 1) * stride + 1:stride]
        if t:
            y += tap
        else:
            y[...] = tap


def _shift_taps(shifted: np.ndarray, g: np.ndarray, k: int, stride: int, h_out: int,
                w_out: int) -> np.ndarray:
    """Fill one sample's shifted (k*k, Hp, Wp) with G: row t holds g (1,
    h_out*w_out) at tap t's strided offset and zeros elsewhere, so that
    z @ G.T and W @ G are _sum_taps' weight and input adjoints."""
    shifted.fill(0.0)
    g = g.reshape(h_out, w_out)
    for t in range(k * k):
        ky, kx = divmod(t, k)
        shifted[t, ky:ky + (h_out - 1) * stride + 1:stride, kx:kx + (w_out - 1) * stride + 1:stride] = g
    return shifted


def _lower(x, w2, k, stride):
    """y = w2 @ im2col(x, same-padded) and back(g, want_dx) for its gradients.

    x: (N, C, H, W); w2: (Cout, C*k*k). Returns y as (N, Cout, h_out, w_out)
    and back, which takes g shaped like y and returns the float64 (Cout,
    C*k*k) weight gradient, the sum over samples of g3[n] @ cols[n].T adding
    the float32 products in batch order onto float64 zeros, and, if
    want_dx, the input gradient (N, C, H, W) as a new array (else None). The
    whole batch's columns are built once, a sample range per thread
    (_split_samples), and back keeps them, not the padded input; it forms
    the weight gradient's products one at a time on the calling thread and
    takes the input gradient from _adjoint.

    With one row in w2 no columns are built and each sample goes through its
    own BLAS calls: Z = W_taps.T @ padded[n] (k*k x Hp*Wp) gives y as the
    sum of Z's tap rows at their offsets, and back forms padded[n] @ G[n].T
    for the weight gradient, with G from _shift_taps, and from the same G
    writes the input gradient's W_taps @ G[n] over the whole of an empty
    padded buffer. Both loops run per sample range, and the weight gradient
    adds its products after them.
    """
    n, c, h, w = x.shape
    h_out, pt, pb = _same_pads(h, k, stride)
    w_out, pl, pr = _same_pads(w, k, stride)
    padded = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cout, rows = w2.shape
    hw = h_out * w_out
    y = np.empty((n, cout, hw), dtype=np.float32)
    if cout > 1:
        cols = np.empty((n, c, k, k, h_out, w_out), dtype=np.float32)

        def lower(a, b):
            _im2col(padded[a:b], k, stride, h_out, w_out, cols[a:b])
            np.matmul(w2, cols[a:b].reshape(b - a, rows, hw), out=y[a:b])

        _split_samples(n, w2.size * hw, lower)
        cols = cols.reshape(n, rows, hw)

        def back(g, want_dx):
            g3 = g.reshape(n, cout, hw)
            dw = np.zeros((cout, rows))
            part = np.empty((cout, rows), dtype=np.float32)
            for a, b in zip(g3, cols):
                dw += np.matmul(a, b.T, out=part)
            # + 0.0 copies the crop out of the adjoint's padded buffer.
            return dw, _adjoint(g3, w2, k, stride, h, w) + 0.0 if want_dx else None
    else:
        grid = padded.shape[2] * padded.shape[3]
        w_taps = w2.reshape(c, k * k)

        def lower_grid(a, b):
            z = np.empty((k * k, *padded.shape[2:]), dtype=np.float32)
            for i in range(a, b):
                np.matmul(w_taps.T, padded[i].reshape(c, grid), out=z.reshape(k * k, grid))
                _sum_taps(y[i].reshape(h_out, w_out), z, k, stride, h_out, w_out)

        _split_samples(n, w2.size * grid, lower_grid)

        def back(g, want_dx):
            g3 = g.reshape(n, 1, hw)
            dpad = np.empty(padded.shape, dtype=np.float32) if want_dx else None
            parts = np.empty((n, c, k * k), dtype=np.float32)

            def grads(a, b):
                shifted = np.empty((k * k, *padded.shape[2:]), dtype=np.float32)
                for i in range(a, b):
                    gi = _shift_taps(shifted, g3[i], k, stride, h_out, w_out).reshape(k * k, grid)
                    if want_dx:
                        np.matmul(w_taps, gi, out=dpad[i].reshape(c, grid))
                    np.matmul(padded[i].reshape(c, grid), gi.T, out=parts[i])

            _split_samples(n, w2.size * grid, grads)
            dw = np.zeros((c, k * k))
            for part in parts:
                dw += part
            # + 0.0 copies the crop and turns a -0.0 written over dpad into
            # +0.0, as adding into zeros does.
            return dw.reshape(1, rows), dpad[:, :, pt:pt + h, pl:pl + w] + 0.0 if want_dx else None

    return y.reshape(n, cout, h_out, w_out), back


def _adjoint(g3, w2, k, stride, h, w):
    """col2im(w2.T @ g3) added into zeros and cropped: the adjoint of _lower.

    g3: (N, Cout, h_out*w_out); w2: (Cout, C*k*k); (h, w): the extent of
    the lowering's input, whose same padding gives (h_out, w_out). Returns
    the (N, C, h, w) crop, a view of the zeroed padded buffer the whole
    batch's columns were added into. Each sample range (_split_samples)
    forms its columns' GEMM and adds them into its own samples. With one
    row in w2 no columns are built: dpad[n] += W_taps (C x k*k) @ G[n], one
    sample at a time, with G from _shift_taps.
    """
    n = len(g3)
    c = w2.shape[1] // (k * k)
    h_out, pt, pb = _same_pads(h, k, stride)
    w_out, pl, pr = _same_pads(w, k, stride)
    dpad = np.zeros((n, c, h + pt + pb, w + pl + pr), dtype=np.float32)
    if w2.shape[0] > 1:
        cols = np.empty((n, c * k * k, h_out * w_out), dtype=np.float32)
        macs = w2.size * h_out * w_out

        def add(a, b):
            np.matmul(w2.T, g3[a:b], out=cols[a:b])
            _col2im_add(dpad[a:b], cols[a:b].reshape(b - a, c, k, k, h_out, w_out),
                        k, stride, h_out, w_out)
    else:
        grid = dpad.shape[2] * dpad.shape[3]
        macs = w2.size * grid

        def add(a, b):
            shifted = np.empty((k * k, *dpad.shape[2:]), dtype=np.float32)
            prod = np.empty(dpad.shape[1:], dtype=np.float32)
            for i in range(a, b):
                g = _shift_taps(shifted, g3[i], k, stride, h_out, w_out).reshape(k * k, grid)
                np.matmul(w2.reshape(c, k * k), g, out=prod.reshape(c, grid))
                dpad[i] += prod

    _split_samples(n, macs, add)
    return dpad[:, :, pt:pt + h, pl:pl + w]


def _conv_operands(op: str, x: Tensor, kernels: Tensor, bias: Tensor, stride: int):
    """Check a convolution's operands; return k and the kernels as the lowering's w2.

    conv2d's kernels are (Cout, Cin, k, k), conv2d_transpose's (Cin, Cout,
    k, k); either way w2 is their (first axis, rest) matrix.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"{op} expects 4-D input and kernels, got {x.shape} and {kernels.shape}")
    first, second, kh, kw = kernels.shape
    cin_k, cout = (second, first) if op == "conv2d" else (first, second)
    if kh != kw:
        raise ShapeError(f"{op} supports square kernels only, got {kh}x{kw}")
    if x.shape[1] != cin_k:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels but kernels expect {cin_k} "
                         f"(input {x.shape}, kernels {kernels.shape})")
    if bias.shape != (cout,):
        raise ShapeError(f"{op}: bias shape {bias.shape} does not match {cout} output channels")
    return kh, kernels.data.reshape(first, second * kh * kw)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Batched, same-padded 2-D cross-correlation plus a per-channel bias.

    x: (N, Cin, H, W); kernels: (Cout, Cin, k, k); bias: (Cout,). The output
    keeps H/stride (ceil), with the extra pad on the bottom/right.
    """
    k, w2 = _conv_operands("conv2d", x, kernels, bias, stride)
    y, back = _lower(x.data, w2, k, stride)

    def bwd(g):
        # A leaf made under no_graph() (a batch input) has no gradient buffer:
        # nothing reads its gradient, so none is computed.
        dw, dx = back(g, bool(x._parents) or x.grad is not None)
        _accumulate(kernels, dw.astype(np.float32).reshape(kernels.shape))
        _accumulate(bias, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))
        if dx is not None:
            _accumulate(x, dx, owned=True)

    return Tensor(y + bias.data.reshape(1, -1, 1, 1), (x, kernels, bias), "conv2d", bwd)


def conv2d_transpose(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: the exact adjoint of a same-padded strided conv2d, plus bias.

    x: (N, Cin, H, W); kernels: (Cin, Cout, k, k); bias: (Cout,); output is
    (N, Cout, stride*H, stride*W). Each input element scatters value * kernel
    into its output window; overlaps sum.
    """
    k, w2 = _conv_operands("conv2d_transpose", x, kernels, bias, stride)
    n, cin, h, w = x.shape
    y = _adjoint(x.data.reshape(n, cin, h * w), w2, k, stride, stride * h, stride * w)

    def bwd(g):
        dx, back = _lower(g, w2, k, stride)
        dw, _ = back(x.data, False)
        del back  # frees the columns before the input gradient is accumulated
        _accumulate(kernels, dw.astype(np.float32).reshape(kernels.shape))
        _accumulate(x, dx, owned=True)
        _accumulate(bias, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))

    return Tensor(y + bias.data.reshape(1, -1, 1, 1), (x, kernels, bias), "conv2d_transpose", bwd)


def power_expand(x: Tensor, q_order: int) -> Tensor:
    """Stack elementwise powers y, y^2, ..., y^Q along channels.

    Input (N, C, H, W) becomes (N, C*Q, H, W) with the Q powers of source
    channel c occupying output channels [c*Q, c*Q + Q).  Q=1 returns the
    input node unchanged.
    """
    if not isinstance(q_order, (int, np.integer)) or q_order < 1:
        raise ValueError(f"power order must be an integer >= 1, got {q_order!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"power_expand expects a 4-D tensor, got {x.shape}")
    q_order = int(q_order)
    if q_order == 1:
        return x
    n, c, h, w = x.shape
    pows = np.empty((n, c, q_order, h, w), dtype=np.float32)
    pows[:, :, 0] = x.data
    for q in range(1, q_order):
        np.multiply(pows[:, :, q - 1], x.data, out=pows[:, :, q])

    def bwd(g):
        g5 = g.reshape(n, c, q_order, h, w)
        dx = g5[:, :, 0].copy()
        term = np.empty_like(dx)
        for q in range(1, q_order):
            np.multiply(q + 1, pows[:, :, q - 1], out=term)
            dx += np.multiply(term, g5[:, :, q], out=term)
        _accumulate(x, dx, owned=True)

    return Tensor(pows.reshape(n, c * q_order, h, w), (x,), "power_expand", bwd)


def _channel_blocks(shape: tuple) -> list:
    """Batchnorm's channel ranges [c0, c1): about ``_BN_BLOCK_BYTES`` of float64, two channels or more.

    A lone channel of a tensor with several is one contiguous run, which
    numpy may reduce as one flat run instead of the whole tensor's (N, H*W)
    rows, in another order; so a last block of one channel joins the one
    before.
    """
    n, c, h, w = shape
    width = min(c, max(2, _BN_BLOCK_BYTES // (8 * n * h * w)))
    starts = list(range(0, c, width))
    if len(starts) > 1 and c - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [c]))


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              momentum: float, eps: float, training: bool) -> Tensor:
    """Per-channel batch normalization over the (N, H, W) axes.

    Training mode normalizes with batch statistics (biased variance) and
    updates the running buffers in place; inference mode uses the running
    statistics only and returns a graph-free node, as inside ``no_graph()``.
    Zero-variance batches are handled by the eps floor. Training with one
    value per channel (N*H*W = 1) raises ShapeError: it would output beta
    with a zero input gradient.

    Float64 statistics per channel block: the variance and the backward run
    over blocks of channels (``_channel_blocks``) through one reused buffer,
    so no full-size temporary is made beyond ``xhat``, ``y`` and the input
    gradient. Each channel is reduced in the order a whole-tensor reduction
    uses, so blocking changes no bits.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm expects a 4-D tensor, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta shape must be ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3)

    if training:
        if x.size == c:
            raise ShapeError(f"batchnorm: training needs more than one value per channel, got "
                             f"input shape {x.shape}: one sample at 1x1 has nothing to normalize over")
        blocks = _channel_blocks(x.shape)
        block_size = n * max(c1 - c0 for c0, c1 in blocks) * h * w

        def block(buf, c0, c1):
            return buf[:n * (c1 - c0) * h * w].reshape(n, c1 - c0, h, w)

        mu = x.data.mean(axis=axes, dtype=np.float64)
        var = np.empty(c, dtype=np.float64)
        buf = np.empty(block_size, dtype=np.float64)
        for c0, c1 in blocks:
            dev = block(buf, c0, c1)
            np.subtract(x.data[:, c0:c1], mu[c0:c1].reshape(1, -1, 1, 1), out=dev)
            var[c0:c1] = np.square(dev, out=dev).mean(axis=axes)
        del buf, dev  # free the block buffer before xhat and y are made
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu.astype(np.float32)
        running_var *= momentum
        running_var += (1.0 - momentum) * var.astype(np.float32)
    else:
        mu = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32).reshape(1, c, 1, 1)
    xhat = np.subtract(x.data, mu.astype(np.float32).reshape(1, c, 1, 1))
    np.multiply(xhat, inv, out=xhat)
    # Inference needs no xhat afterwards, so y overwrites it.
    y = np.multiply(gamma.data.reshape(1, c, 1, 1), xhat, out=None if training else xhat)
    y += beta.data.reshape(1, c, 1, 1)
    if not training:
        with no_graph():
            return Tensor(y, (x, gamma, beta), "batchnorm")

    def bwd(g):
        dgamma = np.empty(c, dtype=np.float64)
        dbeta = np.empty(c, dtype=np.float64)
        dx = np.empty_like(g)
        buf = np.empty(block_size, dtype=np.float32)
        for c0, c1 in blocks:
            gb, xb, t = g[:, c0:c1], xhat[:, c0:c1], block(buf, c0, c1)
            dgamma[c0:c1] = np.multiply(gb, xb, out=t).sum(axis=axes, dtype=np.float64)
            dbeta[c0:c1] = gb.sum(axis=axes, dtype=np.float64)
            gs = np.multiply(gb, gamma.data[c0:c1].reshape(1, -1, 1, 1), out=dx[:, c0:c1])
            mean_gs = gs.mean(axis=axes, dtype=np.float64).astype(np.float32).reshape(1, -1, 1, 1)
            mean_gs_xhat = np.multiply(gs, xb, out=t).mean(axis=axes, dtype=np.float64)
            np.multiply(xb, mean_gs_xhat.astype(np.float32).reshape(1, -1, 1, 1), out=t)
            # dx = inv * ((gs - mean_gs) - xhat * mean_gs_xhat), written over gs.
            np.subtract(gs, mean_gs, out=gs)
            np.subtract(gs, t, out=gs)
            np.multiply(inv[:, c0:c1], gs, out=gs)
        _accumulate(gamma, dgamma.astype(np.float32))
        _accumulate(beta, dbeta.astype(np.float32))
        _accumulate(x, dx, owned=True)

    return Tensor(y, (x, gamma, beta), "batchnorm", bwd)


def finite_diff_grad(f, x: Tensor, eps: float, indices=None) -> Tensor:
    """Central-difference gradient estimate of a scalar-valued f at x.

    Independent oracle for ``backward()``: perturbs one element at a time and
    never touches the autodiff machinery of the function under test.
    ``indices`` names the flat indices to perturb, in order (None perturbs
    every element); the estimate is 0 at the elements left out.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = x.data.copy()
    grad = np.zeros(base.shape, dtype=np.float64)
    flat = grad.reshape(-1)
    for i in range(base.size) if indices is None else indices:
        plus = base.reshape(-1).copy()
        minus = base.reshape(-1).copy()
        plus[i] += np.float32(eps)
        minus[i] -= np.float32(eps)
        # The realized step differs from eps by float32 rounding; divide by it.
        h = float(plus[i]) - float(minus[i])
        f_plus = float(f(Tensor(plus.reshape(base.shape))))
        f_minus = float(f(Tensor(minus.reshape(base.shape))))
        flat[i] = (f_plus - f_minus) / h
    return Tensor(grad.astype(np.float32))
