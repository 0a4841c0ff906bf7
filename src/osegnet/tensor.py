"""Dense float32 tensors with reverse-mode automatic differentiation.

Every value is a numpy float32 array wrapped in a :class:`Tensor`. Operations
build a computation graph on the fly; calling ``backward()`` on a scalar loss
walks that graph once in reverse topological order and accumulates gradients
into ``.grad``. The heavy kernels (conv2d and its transpose) are written in
im2col/col2im form, or on the padded grid for one channel, so the inner
loops run as BLAS matmuls with a fixed summation order. Both are
same-padded and always add a per-channel bias, the one form the network
uses. Reductions accumulate in float64 and round the result back to float32.

Both convolutions run on one lowering and its adjoint. ``_lower`` computes
``w2 @ im2col(padded)`` and its weight gradient; ``_adjoint_add`` adds
``col2im(w2.T @ g)`` into a padded buffer. conv2d is the lowering forward
and the adjoint backward; conv2d_transpose is the adjoint forward and the
lowering backward. Each builds the columns of its whole batch at once, and
the lowering keeps them, not the padded input, for the weight gradient,
which adds the per-sample float32 products in batch order in float64. Every
sample goes through the same BLAS call as it would in a batch of its own,
so a sample's output and input gradient do not depend on the batch it is in.

A lowering whose ``w2`` has one row (conv2d with one output channel, as the
final layer's, or conv2d_transpose with one input channel) builds no
columns. It works on the padded grid through the k*k tap offsets, one sample
at a time, so each product is a GEMM whose inner dimension is C or k*k, not
C*k*k: the forward sums the tap rows of ``W_taps.T @ padded[n]`` at their
strided offsets in (ky, kx) order, and the weight gradient and the adjoint
multiply by the shifted gradient ``G[n]`` (``_shift_taps``), whose row per
tap holds the gradient at that tap's offset; conv2d's backward builds each
G once for both and writes the adjoint over its padded buffer. Each of
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
them instead of page-faulting fresh memory in. Allocation changes no
arithmetic. On other C libraries nothing is set.
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


def _keep_freed_memory(libc) -> None:
    """Keep freed arrays in the heap for reuse; a no-op unless libc is glibc.

    Setting either threshold turns off glibc's dynamic mmap threshold, so
    both are set, the mmap threshold first; the trim threshold alone would
    leave every array above 128 KiB mmapped afresh.
    """
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


if os.name == "posix":
    _keep_freed_memory(ctypes.CDLL(None))


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

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / count)

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


def _lower(padded, w2, k, stride, h_out, w_out):
    """y = w2 @ im2col(padded) and a function dW(g3) for its weight gradient.

    padded: (N, C, Hp, Wp); w2: (Cout, C*k*k). Returns y as (N, Cout,
    h_out*w_out) and dW, which gives the float64 (Cout, C*k*k) sum over
    samples of g3[n] @ cols[n].T, adding the float32 products in batch order
    onto float64 zeros. The whole batch's columns are built once and dW
    keeps them, not padded.

    With one row in w2 no columns are built and each sample goes through its
    own BLAS calls: Z = W_taps.T @ padded[n] (k*k x Hp*Wp) gives y as the
    sum of Z's tap rows at their offsets, and dW = padded[n] @ G[n].T with G
    from _shift_taps. A one-row dW(g3, dpad) also writes the adjoint W_taps
    @ G[n] over the whole of dpad[n] (N, C, Hp, Wp) from the same G.
    """
    n, c = padded.shape[:2]
    cout, rows = w2.shape
    hw = h_out * w_out
    if cout > 1:
        cols = _im2col(padded, k, stride, h_out, w_out,
                       np.empty((n, c, k, k, h_out, w_out), dtype=np.float32)).reshape(n, rows, hw)
        y = np.matmul(w2, cols)

        def dW(g3, dpad=None):  # dpad is for the one-row form only
            dw = np.zeros((cout, rows))
            part = np.empty((cout, rows), dtype=np.float32)
            for a, b in zip(g3, cols):
                dw += np.matmul(a, b.T, out=part)
            return dw

        return y, dW

    grid = padded.shape[2] * padded.shape[3]
    w_taps = w2.reshape(c, k * k)
    z = np.empty((k * k, *padded.shape[2:]), dtype=np.float32)
    y = np.empty((n, 1, hw), dtype=np.float32)
    for i in range(n):
        np.matmul(w_taps.T, padded[i].reshape(c, grid), out=z.reshape(k * k, grid))
        _sum_taps(y[i].reshape(h_out, w_out), z, k, stride, h_out, w_out)

    def dW(g3, dpad=None):
        dw = np.zeros((c, k * k))
        part = np.empty((c, k * k), dtype=np.float32)
        shifted = np.empty((k * k, *padded.shape[2:]), dtype=np.float32)
        for i in range(n):
            g = _shift_taps(shifted, g3[i], k, stride, h_out, w_out).reshape(k * k, grid)
            if dpad is not None:
                np.matmul(w_taps, g, out=dpad[i].reshape(c, grid))
            dw += np.matmul(padded[i].reshape(c, grid), g.T, out=part)
        return dw.reshape(1, rows)

    return y, dW


def _adjoint_add(dpad, w2, g3, k, stride, h_out, w_out):
    """dpad += col2im(w2.T @ g3), the whole batch's columns at once.

    dpad: (N, C, Hp, Wp); w2: (Cout, C*k*k); g3: (N, Cout, h_out*w_out).
    With one row in w2 no columns are built: dpad[n] += W_taps (C x k*k)
    @ G[n], one sample at a time, with G from _shift_taps.
    """
    n, c = dpad.shape[:2]
    if w2.shape[0] > 1:
        cols = np.matmul(w2.T, g3).reshape(n, c, k, k, h_out, w_out)
        _col2im_add(dpad, cols, k, stride, h_out, w_out)
        return
    grid = dpad.shape[2] * dpad.shape[3]
    shifted = np.empty((k * k, *dpad.shape[2:]), dtype=np.float32)
    prod = np.empty(dpad.shape[1:], dtype=np.float32)
    for i in range(n):
        g = _shift_taps(shifted, g3[i], k, stride, h_out, w_out).reshape(k * k, grid)
        np.matmul(w2.reshape(c, k * k), g, out=prod.reshape(c, grid))
        dpad[i] += prod


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Batched, same-padded 2-D cross-correlation plus a per-channel bias.

    x: (N, Cin, H, W); kernels: (Cout, Cin, k, k); bias: (Cout,). The output
    keeps H/stride (ceil), with the extra pad on the bottom/right.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernels, got {x.shape} and {kernels.shape}")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernels.shape
    if kh != kw:
        raise ShapeError(f"conv2d supports square kernels only, got {kh}x{kw}")
    if cin != cin_k:
        raise ShapeError(f"conv2d: input has {cin} channels but kernels expect {cin_k} "
                         f"(input {x.shape}, kernels {kernels.shape})")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {cout} output channels")
    k = kh
    h_out, pt, pb = _same_pads(h, k, stride)
    w_out, pl, pr = _same_pads(w, k, stride)

    padded = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    pad_shape = padded.shape  # not padded: the lowering keeps it only if dW needs it
    w2 = kernels.data.reshape(cout, cin * k * k)
    y, dW = _lower(padded, w2, k, stride, h_out, w_out)
    y = y.reshape(n, cout, h_out, w_out) + bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        g3 = g.reshape(n, cout, h_out * w_out)
        # A leaf made under no_graph() (a batch input) has no gradient buffer:
        # nothing reads its gradient, so none is computed.
        wants_dx = bool(x._parents) or x.grad is not None
        # One output channel: dW's shifted gradient also gives dx, written over dpad.
        dpad = np.empty(pad_shape, dtype=np.float32) if wants_dx and cout == 1 else None
        _accumulate(kernels, dW(g3, dpad).astype(np.float32).reshape(kernels.shape))
        _accumulate(bias, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))
        if not wants_dx:
            return
        if dpad is None:
            dpad = np.zeros(pad_shape, dtype=np.float32)
            _adjoint_add(dpad, w2, g3, k, stride, h_out, w_out)
        # + 0.0 copies the slice and turns a -0.0 written over dpad into +0.0,
        # as adding into zeros does.
        _accumulate(x, dpad[:, :, pt:pt + h, pl:pl + w] + 0.0, owned=True)

    return Tensor(y, (x, kernels, bias), "conv2d", bwd)


def conv2d_transpose(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: the exact adjoint of a same-padded strided conv2d, plus bias.

    x: (N, Cin, H, W); kernels: (Cin, Cout, k, k); bias: (Cout,); output is
    (N, Cout, stride*H, stride*W). Each input element scatters value * kernel
    into its output window; overlaps sum.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects 4-D input and kernels, got {x.shape} and {kernels.shape}")
    n, cin, h, w = x.shape
    cin_k, cout, kh, kw = kernels.shape
    if kh != kw:
        raise ShapeError(f"conv2d_transpose supports square kernels only, got {kh}x{kw}")
    if cin != cin_k:
        raise ShapeError(f"conv2d_transpose: input has {cin} channels but kernels expect {cin_k} "
                         f"(input {x.shape}, kernels {kernels.shape})")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d_transpose: bias shape {bias.shape} does not match {cout} output channels")
    k = kh
    h_up, w_up = stride * h, stride * w
    # Geometry of the forward conv this op is the adjoint of: (h_up -> h).
    h_chk, pt, pb = _same_pads(h_up, k, stride)
    w_chk, pl, pr = _same_pads(w_up, k, stride)
    assert (h_chk, w_chk) == (h, w)

    w2 = kernels.data.reshape(cin, cout * k * k)
    x3 = x.data.reshape(n, cin, h * w)
    buf = np.zeros((n, cout, h_up + pt + pb, w_up + pl + pr), dtype=np.float32)
    _adjoint_add(buf, w2, x3, k, stride, h, w)
    y = buf[:, :, pt:pt + h_up, pl:pl + w_up] + bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        dx, dW = _lower(np.pad(g, ((0, 0), (0, 0), (pt, pb), (pl, pr))), w2, k, stride, h, w)
        dw = dW(x3)
        del dW  # frees the columns before the input gradient is accumulated
        _accumulate(kernels, dw.astype(np.float32).reshape(kernels.shape))
        _accumulate(x, dx.reshape(n, cin, h, w))
        _accumulate(bias, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32))

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
