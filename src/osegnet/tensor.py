"""Dense float32 tensors with reverse-mode automatic differentiation.

Every value is a numpy float32 array wrapped in a :class:`Tensor`. Operations
build a computation graph on the fly; calling ``backward()`` on a scalar loss
walks that graph once in reverse topological order and accumulates gradients
into ``.grad``. Besides the network's ops, ``Tensor`` has only add and
multiply, each of two Tensors of one shape, and a full sum: the hybrid loss
adds its two terms, and the gradient checks project an op's output onto a
scalar. Each loss is one node of its own, with a closed-form backward
(``losses``). The heavy kernels (conv2d and its transpose) are written in
im2col/col2im form, or on the padded grid for one channel, so the inner
loops run as BLAS matmuls with a fixed summation order. Both are
same-padded and always add a per-channel bias, the one form the network
uses. Reductions (the full sum, the bias gradients, batchnorm's statistics)
accumulate in float64 and round the result back to float32 (``_sum32``);
the convolutions' weight gradients add float32 products in float32 (below).

Both convolutions run on one lowering and its adjoint, and the two kernels
own the same-padding geometry: ``_lower`` computes ``w2 @ im2col(x)``, the
weight-gradient products, or both, each sample range building its samples'
columns once from the unpadded input, each tap clipped to its grid;
``_adjoint`` adds ``col2im(w2.T @ g)`` into a zeroed buffer of the unpadded
extent, each tap clipped to that grid, and is the lowering's one input
gradient. conv2d is the lowering forward, whose backward lowers its input
again for the weight gradient and takes the input gradient from the
adjoint; conv2d_transpose is the adjoint forward, whose backward takes its
input gradient and its weight gradient from one lowering. The two ops only
check their operands (one check for both), add the bias and wire the graph.
No columns outlive the call that built them: the graph holds the
convolution's input, which the backward lowers again. The column path's
weight gradient takes one of two rules, chosen by the shape alone: below
``_SPLIT_MIN_MACS`` multiply-adds a sample (a batch that never splits) it
is one float32 GEMM over the whole batch's columns, laid side by side;
at or above it, and on the one-row path, the per-sample float32 products
are added in batch order in float32 (each product's own K-term rounding
bound dwarfs those N - 1 additions, so a float64 total would buy no
accuracy). A sample's output and input gradient go through the same BLAS
routine as they would in a batch of its own, so they do not depend on the
batch it is in.

That is also why work may be split across CPUs without moving a bit. One
helper, ``_split``, cuts a leading range into contiguous ranges, one per CPU
the process may run on and never more ranges than units: the calling thread
takes the first, a thread pool made at the first split the others, and each
range writes only its own part of buffers allocated for the whole. A range
is one of:
- samples, for the convolutions' lowering (im2col and the GEMMs on its
  columns, or the one-row loop) and the adjoint (its GEMM and col2im, or
  the one-row loop), when a sample's GEMMs take ``_SPLIT_MIN_MACS``
  multiply-adds or more;
- samples (rows along the first axis), for power_expand, sigmoid and their
  backwards, and channel blocks, for training batchnorm's statistics,
  normalization (with its tanh) and backward, when the input spans
  ``_SPLIT_MIN_BYTES`` or more;
- blocks of Adam's parameters (``optim``), above the same bytes floor.
Anything else, and a batch of one, runs inline. Every sample, channel and
element goes through the numpy calls it would go through alone, so the bits
do not depend on the number of ranges. A weight gradient below the floor is
one GEMM on the calling thread at any pool width. At or above it the
per-sample products run side by side exactly when the batch splits: they go
into one buffer of the batch's and are then added in batch order in
float32, as an unsplit batch adds each one as it is formed. glibc gets one
malloc arena (below), so the pool's threads reuse the main heap, and a
forked child makes a fresh pool at its first split, since the parent's
threads do not exist there.

A lowering whose ``w2`` has one row (conv2d with one output channel, as the
final layer's, or conv2d_transpose with one input channel) builds no
columns. It works on the padded grid through the k*k tap offsets, one sample
at a time, copying each sample into a padded buffer per range whose border
it zeroes once, so each product is a GEMM whose inner dimension is C or
k*k, not C*k*k: the forward sums the tap rows of ``W_taps.T @ padded[n]``
at their strided offsets in (ky, kx) order, and the weight gradient and the
adjoint multiply by the shifted gradient ``G[n]`` (``_shift_taps``), whose
row per tap holds the gradient at that tap's offset. Each of the two builds
its own G, so conv2d's backward builds each sample's G twice, in a buffer
each range zeroes once, since every sample writes the same tap windows; the
adjoint adds the crop of ``W_taps @ G[n]`` into zeros, as the column form
adds its taps. Each of these loops holds one sample's k*k grid rows (and
its padded input or, in the adjoint, C rows of ``W_taps @ G[n]``) at a
time. The sums run in another order than the column form's, so results
differ from it by float32 rounding.

Batchnorm ends in tanh, as every batchnorm of the model does: the op
returns tanh(gamma * xhat + beta) as one node, whose backward reads only
that output and the op's input, so no graph holds the batchnorm output
under the tanh. It keeps float64 statistics per channel block: the mean,
the variance, the normalization with its tanh and the backward run over
blocks of channels (about ``_BN_BLOCK_BYTES`` of float64 each, two channels
at least), each range through a block buffer of its own. The normalized
input ``xhat`` is formed a block at a time, in the forward and again, from
the input the graph holds, for each product of the backward, so the op
holds no ``xhat`` and makes no full-size temporary besides its output and
the input gradient. Each channel is still reduced over the whole tensor's
(N, H*W) layout, and tanh and its gradient are elementwise, so the bits are
those of whole-tensor expressions.

Inside ``no_graph()`` (what ``OSegNetModel.forward(training=False)`` runs
under) ops compute the same values but record no graph: each output keeps no
parents, no backward closure and no gradient buffer, so the buffers a
closure would capture (a power stack, an activation's output) are freed as
soon as the op returns.

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

# Ranges a split makes at most: the CPUs this process may run on. The pool
# runs all but the first range; it is made at the first split, so a process
# that never splits imports no thread pool.
_width = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
_pool = None


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # A forked child holds the parent's pool but none of its threads, so work
    # submitted to it would never run: the child's first split makes its own.
    os.register_at_fork(after_in_child=_forget_pool)


# Multiply-adds a sample's GEMMs must take for a convolution's batch to be
# split: below this, handing samples to the pool costs more than it saves. On
# a 2-CPU x86-64 host, splitting the canonical layers at batch 4 made their
# summed forward and backward 7% slower at 64 px, where a sample takes at most
# 3.5 M, and 23% faster at 224 px, where all but the first take 10.8 M or more.
_SPLIT_MIN_MACS = 1 << 23

# Bytes the input of a training batchnorm, power_expand or sigmoid (or Adam's
# parameters) must span for the op to be split. On the same host, at the
# canonical batch-4 shapes, splitting made an op's forward plus backward
# 27-49% faster from 1.5 MiB up. At 0.77 MiB sigmoid and power_expand gained
# 19-34%, and batchnorm with its tanh 18-23% in two runs of three but lost
# 13% in the third; at 0.38 MiB or less batchnorm has one channel block, and
# no other op gained over 2%. Every 64 px input is 0.5 MiB or less. Adam's
# 6 MiB of parameters gained 17%.
_SPLIT_MIN_BYTES = 1 << 20


def _ranges(n: int, work: int, floor: int) -> int:
    """How many ranges _split cuts [0, n) into for this work and floor."""
    return min(_width, n) if work >= floor else 1


def _split(n: int, work: int, floor: int, fn) -> None:
    """Call fn(a, b) once for each of contiguous ranges [a, b) that cover [0, n).

    The ranges index what the caller splits: samples, batchnorm channel
    blocks or Adam's parameter blocks. ``work`` is measured in the unit of
    ``floor``: a sample's multiply-adds for the convolutions, an op's bytes
    for the rest. There are min(_width, n) ranges, or one when ``work`` is
    below ``floor``: the calling thread runs the first and the pool the
    others, and the call returns once all are done, raising the first error
    a range raised. One range runs inline.
    """
    global _pool
    width = _ranges(n, work, floor)
    if width == 1:
        fn(0, n)
        return
    # Imported here, not with the engine: it also imports logging, which a
    # process that never splits need not load.
    from concurrent.futures import ThreadPoolExecutor, wait

    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=max(_width - 1, 1), thread_name_prefix="osegnet")
    bounds = [i * n // width for i in range(width + 1)]
    futures = [_pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        wait(futures)  # the ranges write into the caller's buffers
    for future in futures:
        future.result()


def _rowwise(fn, *arrays) -> np.ndarray:
    """fn(*arrays, out=out) into a new array ``out`` shaped like arrays[0].

    The arrays share a shape; each range of rows along their first axis
    (_split) gets its own call, so fn must work element by element.
    """
    out = np.empty_like(arrays[0])
    rows = [a.reshape(a.shape[0] if a.ndim else 1, -1) for a in (*arrays, out)]

    def run(a, b):
        fn(*(r[a:b] for r in rows[:-1]), out=rows[-1][a:b])

    _split(len(rows[-1]), out.nbytes, _SPLIT_MIN_BYTES, run)
    return out


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def _as_f32(data) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if any(d == 0 for d in arr.shape):
        raise ShapeError(f"zero-sized dimension in shape {arr.shape}")
    return arr


def _sum32(x: np.ndarray, axis=None) -> np.ndarray:
    """x summed over axis in float64, rounded to float32."""
    return np.asarray(x.sum(axis=axis, dtype=np.float64), dtype=np.float32)


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
        """Backpropagate from this scalar through the whole graph, releasing it.

        Deterministic: the topological order and every accumulation order are
        fixed by graph construction order, so repeated runs on the same inputs
        produce bit-identical gradients. Each interior node drops its backward
        closure (and the buffers it captured) and its gradient once it has been
        walked; leaves keep their gradients, and every node its parents. A
        second ``backward()`` through a released node raises RuntimeError.
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
            if node._parents and node._backward_fn is None:
                raise RuntimeError(
                    f"backward() reached a {node._op!r} node that an earlier backward() "
                    f"released; run the forward again to backpropagate again")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._parents:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node._backward_fn = node.grad = None

    # -- elementwise algebra -------------------------------------------------

    def _check_operand(self, other, op: str) -> None:
        # No broadcasting: the other operand is a Tensor of this one's shape.
        if not isinstance(other, Tensor) or other.shape != self.shape:
            raise ShapeError(f"{op}: needs a Tensor of shape {self.shape}, got {other!r}")

    def __add__(self, other):
        self._check_operand(other, "add")

        def bwd(g):
            _accumulate(self, g)
            _accumulate(other, g)

        return Tensor(self.data + other.data, (self, other), "add", bwd)

    def __mul__(self, other):
        self._check_operand(other, "mul")

        def bwd(g):
            _accumulate(self, g * other.data)
            _accumulate(other, g * self.data)

        return Tensor(self.data * other.data, (self, other), "mul", bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self) -> "Tensor":
        def bwd(g):
            _accumulate(self, np.broadcast_to(g.reshape(()), self.shape))

        return Tensor(_sum32(self.data), (self,), "sum", bwd)

    # -- activations ---------------------------------------------------------

    def sigmoid(self) -> "Tensor":
        y = _rowwise(_sigmoid, self.data)

        def bwd(g):
            _accumulate(self, _rowwise(_sigmoid_grad, g, y), owned=True)

        return Tensor(y, (self,), "sigmoid", bwd)


def _tanh_grad(g, y, out):
    """out = g * (1 - y * y): tanh's gradient, from its output y."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(g, out, out=out)


def _sigmoid(x, out):
    """out = 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|).

    e <= 1, so exp never overflows, and the numerator is max(e, x >= 0):
    np.where with a scalar took over twice as long for the same bytes.
    """
    e = np.exp(-np.abs(x))
    np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)


def _sigmoid_grad(g, y, out):
    """out = g * (y * (1 - y))."""
    np.subtract(1.0, y, out=out)
    np.multiply(y, out, out=out)
    np.multiply(g, out, out=out)


# -- convolution kernels ------------------------------------------------------


def _same_pads(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for same padding; extra pad trails."""
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    before = total // 2
    return out, before, total - before


def _clip_taps(offset: int, stride: int, n_out: int, extent: int) -> tuple[int, int, slice]:
    """Output positions [i0, i1) whose tap at this offset lands on the unpadded
    grid (0 <= i*stride + offset < extent), and the grid positions they land
    on; i1 = i0 when there are none."""
    i0 = max(0, -(offset // stride))
    i1 = max(i0, min(n_out, -((offset - extent) // stride)))
    start = i0 * stride + offset
    return i0, i1, slice(start, start + (i1 - i0) * stride, stride)


def _im2col(x: np.ndarray, k: int, stride: int, pt: int, pl: int, cols: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> columns (N, C, k, k, h_out, w_out) of x same-padded by
    (pt, pl) before, written into cols.

    No padded copy is made: each tap's window is clipped to the unpadded
    grid (_clip_taps), as _col2im_add clips, and +0.0 goes only into the
    strips of the tap row that the clip leaves out, the padding's values.
    """
    h_out, w_out = cols.shape[4:]
    for ky in range(k):
        i0, i1, ys = _clip_taps(ky - pt, stride, h_out, x.shape[2])
        for kx in range(k):
            j0, j1, xs = _clip_taps(kx - pl, stride, w_out, x.shape[3])
            tap = cols[:, :, ky, kx]
            tap[:, :, :i0] = 0.0
            tap[:, :, i1:] = 0.0
            tap[:, :, i0:i1, :j0] = 0.0
            tap[:, :, i0:i1, j1:] = 0.0
            tap[:, :, i0:i1, j0:j1] = x[:, :, ys, xs]
    return cols


def _col2im_add(buf: np.ndarray, cols: np.ndarray, k: int, stride: int, pt: int, pl: int) -> None:
    """Scatter-add columns (N, C, k, k, h_out, w_out) into buf (N, C, h, w) in place.

    Tap (ky, kx) of output pixel (i, j) lands on pixel (i*stride + ky - pt,
    j*stride + kx - pl); a tap that lands in the padding is dropped, so each
    pixel gets the terms, in the (ky, kx) order, that a padded buffer's crop
    would get.
    """
    h_out, w_out = cols.shape[4:]
    for ky in range(k):
        i0, i1, ys = _clip_taps(ky - pt, stride, h_out, buf.shape[2])
        for kx in range(k):
            j0, j1, xs = _clip_taps(kx - pl, stride, w_out, buf.shape[3])
            buf[:, :, ys, xs] += cols[:, :, ky, kx, i0:i1, j0:j1]


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
    """Write one sample's G into shifted (k*k, Hp, Wp): row t takes g (1,
    h_out*w_out) at tap t's strided offset, so that z @ G.T and W @ G are
    _sum_taps' weight and input adjoints. Only those windows are written:
    shifted must start as zeros, and every sample writes the same windows,
    so one zeroed buffer serves all the samples of a range."""
    g = g.reshape(h_out, w_out)
    for t in range(k * k):
        ky, kx = divmod(t, k)
        shifted[t, ky:ky + (h_out - 1) * stride + 1:stride, kx:kx + (w_out - 1) * stride + 1:stride] = g
    return shifted


def _lower(x, k, stride, w2=None, outer=None):
    """y = w2 @ im2col(x, same-padded), the weight-gradient products of outer, or both.

    x: (N, C, H, W); w2: (Cout, C*k*k); outer: (N, Cout, h_out*w_out).
    Returns (y, dw), each None unless asked for: y as (N, Cout, h_out,
    w_out), and dw, the float32 (Cout, C*k*k) weight gradient, the sum over
    samples of outer[n] @ cols[n].T. The input gradient is _adjoint's. Each
    sample range (_split) builds its samples' columns into a buffer of its
    own, once, forms from it whatever was asked, and frees it: nothing
    outlives the call but y and dw.

    With more than one row in w2 (in outer), y is one GEMM per sample, and
    dw follows one of two rules, chosen by the shape alone (never the pool
    width), so its bits do not depend on the width. Below
    ``_SPLIT_MIN_MACS`` multiply-adds a sample the batch never splits: its
    columns are laid side by side, (C, k, k, N, h_out, w_out), and dw is
    one float32 GEMM of N*hw terms, outer (Cout, N*hw) @ cols (C*k*k,
    N*hw).T, with only outer copied into that layout; y's GEMMs read each
    sample's columns through strides (Chellapilla, Puri and Simard, *High
    Performance Convolutional Neural Networks for Document Processing*,
    IWFHR 2006). At or above the floor, and on the one-row path, the
    float32 products are added in batch order onto float32 zeros: when the
    batch splits they go side by side into one buffer of the batch's and
    are added after; else they are formed and added one at a time on the
    calling thread. A float64 total would buy no accuracy: each product is
    already a float32 GEMM of K terms (K = h_out*w_out, or the padded grid
    below), whose error bound gamma_K dwarfs the N - 1 roundings of the
    batch sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
    3.1); and numpy's mixed float32 to float64 add costs about four times a
    float32 add.

    With one row in w2 (one in outer) no columns are built and each sample
    goes through its own BLAS calls on its padded grid, copied into a buffer
    per range whose border is zeroed once: Z = W_taps.T @ padded[n] (k*k x
    Hp*Wp) gives y as the sum of Z's tap rows at their offsets, and the
    product is padded[n] @ G[n].T, with G from _shift_taps.
    """
    n, c, h, w = x.shape
    h_out, pt, pb = _same_pads(h, k, stride)
    w_out, pl, pr = _same_pads(w, k, stride)
    cout = len(w2) if w2 is not None else outer.shape[1]
    rows, hw = c * k * k, h_out * w_out
    hp, wp = h + pt + pb, w + pl + pr
    work = cout * rows * (hw if cout > 1 else hp * wp)
    width = _ranges(n, work, _SPLIT_MIN_MACS)
    # Below the floor (never split) the columns' weight gradient is one GEMM
    # over the batch; the choice reads only the shape, never the pool width.
    stacked = cout > 1 and outer is not None and work < _SPLIT_MIN_MACS
    y = None if w2 is None else np.empty((n, cout, hw), dtype=np.float32)
    dw = None if outer is None else (np.empty if stacked else np.zeros)((cout, rows), dtype=np.float32)
    # Above it the products go side by side exactly when the batch splits.
    parts = None if outer is None or stacked else np.empty((n if width > 1 else 1, cout, rows),
                                                           dtype=np.float32)

    def product(i, a, b_t):
        """Sample i's float32 product a @ b_t; added at once unless the batch splits."""
        part = parts[i if width > 1 else 0]
        np.matmul(a, b_t, out=part.reshape(len(a), -1))
        if width == 1:
            np.add(dw, part, out=dw)

    if stacked:
        def lower(a, b):
            # The whole batch (a, b = 0, n), its samples' columns side by
            # side: (C, k, k, N, h_out, w_out), read as (C*k*k, N*hw) by the
            # weight gradient's GEMM and per sample, through strides, by y's.
            side = np.empty((c, k, k, n, h_out, w_out), dtype=np.float32)
            _im2col(x, k, stride, pt, pl, side.transpose(3, 0, 1, 2, 4, 5))
            if y is not None:
                np.matmul(w2, side.reshape(rows, n, hw).transpose(1, 0, 2), out=y)
            outer2 = outer.transpose(1, 0, 2).reshape(cout, n * hw)  # a copy, unless n = 1
            np.matmul(outer2, side.reshape(rows, n * hw).T, out=dw)
    elif cout > 1:
        def lower(a, b):
            cols = np.empty((b - a, c, k, k, h_out, w_out), dtype=np.float32)
            cols = _im2col(x[a:b], k, stride, pt, pl, cols).reshape(b - a, rows, hw)
            if y is not None:
                np.matmul(w2, cols, out=y[a:b])
            if outer is not None:
                for i in range(a, b):
                    product(i, outer[i], cols[i - a].T)
    else:
        grid = hp * wp

        def lower(a, b):
            padded = np.zeros((c, hp, wp), dtype=np.float32)
            if y is not None:
                z = np.empty((k * k, hp, wp), dtype=np.float32)
            if outer is not None:
                shifted = np.zeros((k * k, hp, wp), dtype=np.float32)
            for i in range(a, b):
                padded[:, pt:pt + h, pl:pl + w] = x[i]
                if y is not None:
                    np.matmul(w2.reshape(c, k * k).T, padded.reshape(c, grid), out=z.reshape(k * k, grid))
                    _sum_taps(y[i].reshape(h_out, w_out), z, k, stride, h_out, w_out)
                if outer is not None:
                    g = _shift_taps(shifted, outer[i], k, stride, h_out, w_out).reshape(k * k, grid)
                    product(i, padded.reshape(c, grid), g.T)

    _split(n, work, _SPLIT_MIN_MACS, lower)
    if parts is not None and width > 1:
        for part in parts:
            dw += part
    return None if y is None else y.reshape(n, cout, h_out, w_out), dw


def _adjoint(g3, w2, k, stride, h, w):
    """col2im(w2.T @ g3) added into zeros: the adjoint of _lower.

    g3: (N, Cout, h_out*w_out); w2: (Cout, C*k*k); (h, w): the extent of
    the lowering's input, whose same padding gives (h_out, w_out). Returns
    the (N, C, h, w) result as a new array: the lowering's input gradient,
    for every conv2d, and conv2d_transpose's forward. Each sample range
    (_split) forms its columns' GEMM and adds each tap, clipped to the
    unpadded grid (_col2im_add), into its own samples. With one row in w2
    no columns are built: W_taps (C x k*k) @ G[n] is formed on the padded
    grid, one sample at a time, with G from _shift_taps, and its crop added
    into zeros, which turns any -0.0 of the product into +0.0.
    """
    n = len(g3)
    c = w2.shape[1] // (k * k)
    h_out, pt, pb = _same_pads(h, k, stride)
    w_out, pl, pr = _same_pads(w, k, stride)
    dx = np.zeros((n, c, h, w), dtype=np.float32)
    if w2.shape[0] > 1:
        cols = np.empty((n, c * k * k, h_out * w_out), dtype=np.float32)
        macs = w2.size * h_out * w_out

        def add(a, b):
            np.matmul(w2.T, g3[a:b], out=cols[a:b])
            _col2im_add(dx[a:b], cols[a:b].reshape(b - a, c, k, k, h_out, w_out), k, stride, pt, pl)
    else:
        hp, wp = h + pt + pb, w + pl + pr
        macs = w2.size * hp * wp

        def add(a, b):
            shifted = np.zeros((k * k, hp, wp), dtype=np.float32)
            prod = np.empty((c, hp, wp), dtype=np.float32)
            for i in range(a, b):
                g = _shift_taps(shifted, g3[i], k, stride, h_out, w_out).reshape(k * k, hp * wp)
                np.matmul(w2.reshape(c, k * k), g, out=prod.reshape(c, hp * wp))
                dx[i] += prod[:, pt:pt + h, pl:pl + w]

    _split(n, macs, _SPLIT_MIN_MACS, add)
    return dx


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
    y, _ = _lower(x.data, k, stride, w2=w2)
    y += bias.data.reshape(1, -1, 1, 1)

    def bwd(g):
        g3 = g.reshape(*g.shape[:2], -1)
        _, dw = _lower(x.data, k, stride, outer=g3)
        _accumulate(kernels, dw.reshape(kernels.shape), owned=True)
        _accumulate(bias, _sum32(g, (0, 2, 3)))
        # A leaf made under no_graph() (a batch input) has no gradient buffer:
        # nothing reads its gradient, so none is computed.
        if x._parents or x.grad is not None:
            _accumulate(x, _adjoint(g3, w2, k, stride, *x.shape[2:]), owned=True)

    return Tensor(y, (x, kernels, bias), "conv2d", bwd)


def conv2d_transpose(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: the exact adjoint of a same-padded strided conv2d, plus bias.

    x: (N, Cin, H, W); kernels: (Cin, Cout, k, k); bias: (Cout,); output is
    (N, Cout, stride*H, stride*W). Each input element scatters value * kernel
    into its output window; overlaps sum.
    """
    k, w2 = _conv_operands("conv2d_transpose", x, kernels, bias, stride)
    n, cin, h, w = x.shape
    y = _adjoint(x.data.reshape(n, cin, h * w), w2, k, stride, stride * h, stride * w)
    y += bias.data.reshape(1, -1, 1, 1)

    def bwd(g):
        dx, dw = _lower(g, k, stride, w2=w2, outer=x.data.reshape(n, cin, h * w))
        _accumulate(kernels, dw.reshape(kernels.shape), owned=True)
        _accumulate(x, dx, owned=True)
        _accumulate(bias, _sum32(g, (0, 2, 3)))

    return Tensor(y, (x, kernels, bias), "conv2d_transpose", bwd)


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

    def expand(a, b):
        xs, ps = x.data[a:b], pows[a:b]
        ps[:, :, 0] = xs
        for q in range(1, q_order):
            np.multiply(ps[:, :, q - 1], xs, out=ps[:, :, q])

    _split(n, x.data.nbytes, _SPLIT_MIN_BYTES, expand)

    def bwd(g):
        g5 = g.reshape(n, c, q_order, h, w)
        dx = np.empty_like(x.data)

        def grad(a, b):
            ds, gs, ps = dx[a:b], g5[a:b], pows[a:b]
            ds[...] = gs[:, :, 0]
            term = np.empty_like(ds)
            for q in range(1, q_order):
                np.multiply(q + 1, ps[:, :, q - 1], out=term)
                ds += np.multiply(term, gs[:, :, q], out=term)

        _split(n, x.data.nbytes, _SPLIT_MIN_BYTES, grad)
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
    """tanh of a per-channel batch normalization over the (N, H, W) axes.

    y = tanh(gamma * xhat + beta), one node: every batchnorm of the model
    feeds a tanh, and the backward reads only y and x, so no graph holds
    the batchnorm output under the tanh. Training mode normalizes with batch
    statistics (biased variance) and updates the running buffers in place;
    inference mode uses the running statistics only and returns a
    graph-free node, as inside ``no_graph()``. Zero-variance batches are
    handled by the eps floor. Training with one value per channel
    (N*H*W = 1) raises ShapeError: it would output tanh(beta) with a zero
    input gradient.

    Float64 statistics per channel block: in training, the mean and
    variance, then y, then the backward run over ranges of channel blocks
    (``_channel_blocks``, _split). The statistics take a float64 block
    buffer per range. The forward writes gamma * xhat + beta into y's block
    and takes its tanh there. The backward forms tanh's gradient
    g * (1 - y*y) in the input gradient's block, then batchnorm's backward
    of it over that block. xhat is formed in a float32 block buffer per
    range, in the forward and again, from x, for each of the backward's
    products with it, which is formed over it; so the op holds no xhat,
    and no full-size temporary is made beyond ``y`` and the input gradient.
    Inference's one block is the whole tensor, and y takes xhat. Each
    channel is reduced in the order a whole-tensor reduction uses, so
    blocking changes no bits.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm expects a 4-D tensor, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta shape must be ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3)

    if training and x.size == c:
        raise ShapeError(f"batchnorm: training needs more than one value per channel, got "
                         f"input shape {x.shape}: one sample at 1x1 has nothing to normalize over")
    blocks = _channel_blocks(x.shape) if training else [(0, c)]
    block_size = n * max(c1 - c0 for c0, c1 in blocks) * h * w

    def block(buf, c0, c1):
        return buf[:n * (c1 - c0) * h * w].reshape(n, c1 - c0, h, w)

    if training:
        mu = np.empty(c, dtype=np.float64)
        var = np.empty(c, dtype=np.float64)

        def stats(i, j):
            buf = np.empty(block_size, dtype=np.float64)
            for c0, c1 in blocks[i:j]:
                xb, dev = x.data[:, c0:c1], block(buf, c0, c1)
                mu[c0:c1] = xb.mean(axis=axes, dtype=np.float64)
                np.subtract(xb, mu[c0:c1].reshape(1, -1, 1, 1), out=dev)
                var[c0:c1] = np.square(dev, out=dev).mean(axis=axes)

        # The block buffers are freed before y is made.
        _split(len(blocks), x.data.nbytes, _SPLIT_MIN_BYTES, stats)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu.astype(np.float32)
        running_var *= momentum
        running_var += (1.0 - momentum) * var.astype(np.float32)
    else:
        mu = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32).reshape(1, c, 1, 1)
    mu4 = mu.astype(np.float32).reshape(1, c, 1, 1)
    g4, b4 = gamma.data.reshape(1, c, 1, 1), beta.data.reshape(1, c, 1, 1)
    y = np.empty_like(x.data)

    def normalize(buf, c0, c1):
        """xhat of channels [c0, c1), formed in buf's block."""
        xb = np.subtract(x.data[:, c0:c1], mu4[:, c0:c1], out=block(buf, c0, c1))
        return np.multiply(xb, inv[:, c0:c1], out=xb)

    def forward(i, j):
        # Inference's one block is the whole tensor, so y takes xhat.
        buf = np.empty(block_size, dtype=np.float32) if training else y.reshape(-1)
        for c0, c1 in blocks[i:j]:
            yb = np.multiply(g4[:, c0:c1], normalize(buf, c0, c1), out=y[:, c0:c1])
            yb += b4[:, c0:c1]
            np.tanh(yb, out=yb)

    _split(len(blocks), x.data.nbytes, _SPLIT_MIN_BYTES, forward)
    if not training:
        with no_graph():
            return Tensor(y, (x, gamma, beta), "batchnorm")

    def bwd(g):
        dgamma = np.empty(c, dtype=np.float64)
        dbeta = np.empty(c, dtype=np.float64)
        dx = np.empty_like(g)

        def backward(i, j):
            # The block's own dx takes the batchnorm's upstream gradient
            # g * (1 - y*y), then gs = that * gamma, then the input gradient.
            # xhat is formed again from x for each product with it, which is
            # written over it.
            buf = np.empty(block_size, dtype=np.float32)
            for c0, c1 in blocks[i:j]:
                d, gam = dx[:, c0:c1], g4[:, c0:c1]
                _tanh_grad(g[:, c0:c1], y[:, c0:c1], d)
                dbeta[c0:c1] = d.sum(axis=axes, dtype=np.float64)
                xb = normalize(buf, c0, c1)
                dgamma[c0:c1] = np.multiply(d, xb, out=xb).sum(axis=axes, dtype=np.float64)
                gs = np.multiply(d, gam, out=d)
                mean_gs = gs.mean(axis=axes, dtype=np.float64).astype(np.float32).reshape(1, -1, 1, 1)
                xb = normalize(buf, c0, c1)
                mean_gs_xhat = np.multiply(gs, xb, out=xb).mean(axis=axes, dtype=np.float64)
                mean_gs_xhat = mean_gs_xhat.astype(np.float32).reshape(1, -1, 1, 1)
                # dx = inv * ((gs - mean_gs) - xhat * mean_gs_xhat), written over
                # gs, with xhat * mean_gs_xhat written over xhat.
                xb = normalize(buf, c0, c1)
                np.subtract(gs, mean_gs, out=gs)
                np.subtract(gs, np.multiply(xb, mean_gs_xhat, out=xb), out=gs)
                np.multiply(inv[:, c0:c1], gs, out=gs)

        _split(len(blocks), g.nbytes, _SPLIT_MIN_BYTES, backward)
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
