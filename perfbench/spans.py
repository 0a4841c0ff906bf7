"""Span tracer for the benchmark's traced runs.

The tracer times osegnet from the outside. While installed it replaces the
attributes that callers resolve at call time (module functions such as
``osegnet.tensor.conv2d`` *and* every other osegnet module that imported the
same object, e.g. ``osegnet.layers.conv2d``; methods on ``Tensor``,
``OSegNetModel`` and ``Adam``; the layer objects held by one model instance)
with wrappers that record a span per call. Each graph node returned by a
wrapped op gets its ``_backward_fn`` wrapped as well, so backward time is
attributed to the op kind and to the layer that created the node. Removing
the tracer puts every original attribute back.

A span is ``[name, start_ns, end_ns, parent_index, step]``. Spans live in
memory and are written out once, by :meth:`Tracer.dump`, when the run ends.
An attribute the program no longer has is skipped, so its metrics read 0
instead of breaking the run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Operation spans: (module, attribute, span prefix). The wrapped function must
# return the graph node it created.
OPS = (
    ("osegnet.tensor", "conv2d", "tensor.conv2d"),
    ("osegnet.tensor", "conv2d_transpose", "tensor.conv2d_transpose"),
    ("osegnet.tensor", "power_expand", "tensor.power_expand"),
    ("osegnet.tensor", "batchnorm", "tensor.batchnorm"),
)

# Plain call spans around module functions.
FUNCTIONS = (
    ("osegnet.cli", "_ingest_batch", "data.ingest"),
    ("osegnet.data", "load_index", "data.load_index"),
    ("osegnet.data", "load_pgm", "data.load_pgm"),
    ("osegnet.data", "resize", "data.resize"),
    ("osegnet.data", "augment", "data.augment"),
    ("osegnet.model", "save_checkpoint", "model.save_checkpoint"),
    ("osegnet.model", "load_checkpoint", "model.load_checkpoint"),
    ("osegnet.losses", "hybrid_loss", "losses.hybrid_loss"),
    ("osegnet.metrics", "pixel_confusion", "metrics.pixel_confusion"),
)

# Plain call spans around methods: (module, class, method, span name).
METHODS = (
    ("osegnet.tensor", "Tensor", "backward", "tensor.backward"),
    ("osegnet.model", "OSegNetModel", "forward", "model.forward"),
    ("osegnet.model", "OSegNetModel", "zero_grad", "model.zero_grad"),
    ("osegnet.optim", "Adam", "step", "optim.adam_step"),
)

# Tensor methods that create graph nodes, by span prefix.
TENSOR_NODE_METHODS = {
    "tensor.activation": ("tanh", "sigmoid"),
    "tensor.elementwise": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                           "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                           "__pow__", "pow_int", "pow_scalar", "log", "clip", "sum", "mean"),
}

# Model attributes holding layers, by span prefix. Entries of a list may be
# single layers or tuples of layers (a conv and its batchnorm).
LAYER_ATTRS = (("encoder", "layers.encoder"), ("decoder", "layers.decoder"),
               ("final", "layers.final"))

MIB = float(1 << 20)


def _shape(value) -> tuple:
    return tuple(getattr(value, "shape", ()))


def _prod(dims) -> int:
    out = 1
    for d in dims:
        out *= int(d)
    return out


def conv2d_cols_bytes(args, kwargs, out) -> int:
    """im2col buffer of a conv2d call: N * Cin * k * k * Hout * Wout float32s."""
    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
    n, _, h_out, w_out = _shape(out)
    _, cin, kh, kw = _shape(kernels)
    return 4 * n * cin * kh * kw * h_out * w_out


def conv2d_transpose_cols_bytes(args, kwargs, out) -> int:
    """Column buffer of a conv2d_transpose call: N * Cout * k * k * H * W float32s."""
    x = args[0] if args else kwargs["x"]
    kernels = args[1] if len(args) > 1 else kwargs["kernels"]
    n, _, h, w = _shape(x)
    _, cout, kh, kw = _shape(kernels)
    return 4 * n * cout * kh * kw * h * w


def output_bytes(args, kwargs, out) -> int:
    return 4 * _prod(_shape(out))


BUFFER_BYTES = {
    "tensor.conv2d": conv2d_cols_bytes,
    "tensor.conv2d_transpose": conv2d_transpose_cols_bytes,
    "tensor.power_expand": output_bytes,
}


class _LayerProxy:
    """Stands in for one layer object: a span per call, attribute access passes through."""

    def __init__(self, tracer: "Tracer", name: str, layer):
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        span = tracer.open(self._name + ".fwd")
        tracer.layers.append(self._name)
        try:
            return self._layer(*args, **kwargs)
        finally:
            tracer.layers.pop()
            tracer.close(span)

    def __getattr__(self, attr):
        return getattr(self._layer, attr)


class Tracer:
    """Records spans and computed buffer sizes while installed.

    ``step`` is stamped on every span and buffer record; the runner sets it
    to the iteration number (or a negative marker for set-up and epoch
    boundaries) before each traced region.
    """

    SETUP = -1
    EPOCH_BOUNDARY = -2

    def __init__(self):
        self.spans: list = []
        self.buffers: list = []  # [step, op prefix, layer or None, bytes]
        self.layers: list = []   # open layer spans, innermost last
        self.step = self.SETUP
        self._stack: list = []
        self._saved: list = []   # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.step])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    # -- wrappers ---------------------------------------------------------------

    def _call_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _node_wrapper(self, prefix: str, fn, buffer_bytes=None):
        tracer = self
        fwd_name = prefix + ".fwd"

        def traced(*args, **kwargs):
            index = tracer.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if buffer_bytes is not None:
                tracer.buffers.append([tracer.step, prefix, tracer._layer(),
                                       buffer_bytes(args, kwargs, out)])
            tracer._wrap_backward(prefix, out, args)
            return out

        return traced

    def _layer(self):
        return self.layers[-1] if self.layers else None

    def _wrap_backward(self, prefix: str, node, inputs) -> None:
        bwd = getattr(node, "_backward_fn", None)
        # An op may hand back one of its inputs (power_expand at Q=1); that
        # node belongs to whoever created it.
        if bwd is None or getattr(bwd, "_traced", False) or any(node is a for a in inputs):
            return
        tracer = self
        op_name = prefix + ".bwd"
        layer = self._layer()
        layer_name = None if layer is None else layer + ".bwd"

        def traced_bwd(grad):
            outer = tracer.open(layer_name) if layer_name is not None else None
            inner = tracer.open(op_name)
            try:
                bwd(grad)
            finally:
                tracer.close(inner)
                if outer is not None:
                    tracer.close(outer)

        traced_bwd._traced = True
        node._backward_fn = traced_bwd

    # -- install / restore -----------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def _replace_everywhere(self, module_name: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if (name == module_name or name == "osegnet" or name.startswith("osegnet.")) \
                    and getattr(mod, attr, None) is original:
                self._replace(mod, attr, wrapper)

    def install(self, model=None) -> None:
        """Patch osegnet (and, if given, one model's layers) to record spans."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, prefix in OPS:
            self._replace_everywhere(
                module_name, attr,
                lambda fn, p=prefix: self._node_wrapper(p, fn, BUFFER_BYTES.get(p)))
        for module_name, attr, name in FUNCTIONS:
            self._replace_everywhere(module_name, attr,
                                     lambda fn, n=name: self._call_wrapper(n, fn))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is not None and attr in cls.__dict__:
                self._replace(cls, attr, self._call_wrapper(name, cls.__dict__[attr]))
        tensor_cls = getattr(sys.modules.get("osegnet.tensor"), "Tensor", None)
        for prefix, attrs in TENSOR_NODE_METHODS.items():
            for attr in attrs:
                if tensor_cls is not None and attr in tensor_cls.__dict__:
                    self._replace(tensor_cls, attr,
                                  self._node_wrapper(prefix, tensor_cls.__dict__[attr]))
        if model is not None:
            self._install_layers(model)

    def _install_layers(self, model) -> None:
        for attr, name in LAYER_ATTRS:
            value = model.__dict__.get(attr)
            if value is None:
                continue
            if isinstance(value, list):
                proxied = [tuple(_LayerProxy(self, name, part) for part in item)
                           if isinstance(item, tuple) else _LayerProxy(self, name, item)
                           for item in value]
            else:
                proxied = _LayerProxy(self, name, value)
            self._replace(model, attr, proxied)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.layers.clear()

    @contextmanager
    def installed(self, step: int, model=None):
        self.step = step
        self.install(model)
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "step": step}) + "\n")


def graph_nodes(node) -> int:
    """Number of graph nodes reachable from ``node`` through ``_parents``."""
    seen = {id(node)}
    stack = [node]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def self_times(spans) -> list:
    """Self time (ns) of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, step in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def step_totals(spans) -> dict:
    """Per step and span name: total duration, call count and self time.

    Returns ``{step: {"ns": {...}, "calls": {...}, "self_ns": {...}}}``. A
    span's duration counts toward ``ns`` only if no ancestor has its name, so
    a nested call of the same kind is not counted twice.
    """
    own = self_times(spans)
    out: dict = {}
    for index, (name, start, end, parent, step) in enumerate(spans):
        totals = out.setdefault(step, {"ns": {}, "calls": {}, "self_ns": {}})
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
        totals["self_ns"][name] = totals["self_ns"].get(name, 0) + own[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            totals["ns"][name] = totals["ns"].get(name, 0) + end - start
    return out
