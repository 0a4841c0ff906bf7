"""Model assembly: strided-conv encoder, operational decoder, checkpoints.

The network is an autoencoder-shaped segmenter built from one layer class,
``layers.OperLayer``, at 3x3 (``KERNEL_SIZE``). The encoder halves the
spatial extent at every stage (an operational layer at Q=1 and stride 2,
which is a plain strided convolution, then a batchnorm that ends in tanh,
one op), so the decoder always sees features in [-1, 1] — the domain where
polynomial nodal operators are well behaved. The decoder mirrors the
encoder with x2 operational transpose blocks (``transpose=True``), each
under the same batchnorm and tanh, and finishes with a single-channel
operational layer at stride 1 under sigmoid. No skip connections: the
decoder consumes only the bottleneck features.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .layers import KERNEL_SIZE, BatchNormLayer, OperLayer  # KERNEL_SIZE is re-exported
from .tensor import ShapeError, Tensor, no_graph

CANONICAL_ENCODER = (16, 32, 64, 128, 256)
CANONICAL_DECODER = (128, 64, 32, 16, 8)
Q_ORDERS = (1, 2, 3, 4, 5)  # the polynomial orders a model accepts

CHECKPOINT_MAGIC = b"OSGN"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file is malformed or incompatible."""


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    The canonical network has five encoder stages and decoder filters
    (128, 64, 32, 16, 8) ending in one final filter. Shallower variants
    (used by the tiny gradient-check model) must supply decoder_filters
    explicitly; depth always equals len(encoder_channels) and input_size
    must be divisible by 2**depth.
    """

    q_order: int = 3
    input_size: int = 224
    encoder_channels: tuple = CANONICAL_ENCODER
    decoder_filters: tuple | None = None

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        if self.decoder_filters is None:
            if len(self.encoder_channels) == len(CANONICAL_DECODER):
                self.decoder_filters = CANONICAL_DECODER
            else:
                raise ValueError(
                    f"decoder_filters must be given explicitly for a "
                    f"{len(self.encoder_channels)}-stage encoder (default covers 5 stages)")
        self.decoder_filters = tuple(int(f) for f in self.decoder_filters)
        if not isinstance(self.q_order, (int, np.integer)) or self.q_order not in Q_ORDERS:
            raise ValueError(f"q_order must be an integer in {Q_ORDERS}, got {self.q_order!r}")
        self.q_order = int(self.q_order)
        if not self.encoder_channels or any(c < 1 for c in self.encoder_channels):
            raise ValueError(f"encoder_channels must be positive ints, got {self.encoder_channels!r}")
        if len(self.decoder_filters) != self.depth:
            raise ValueError(
                f"decoder_filters length {len(self.decoder_filters)} must match "
                f"encoder depth {self.depth}")
        if any(f < 1 for f in self.decoder_filters):
            raise ValueError(f"decoder_filters must be positive ints, got {self.decoder_filters!r}")
        divisor = 2 ** self.depth
        if self.input_size < divisor or self.input_size % divisor != 0:
            raise ValueError(
                f"input_size must be divisible by {divisor} ({self.depth} stride-2 "
                f"stages), got {self.input_size}")

    @property
    def depth(self) -> int:
        return len(self.encoder_channels)


class OSegNetModel:
    """Encoder-decoder segmenter with an operational decoder."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config

        self.encoder = []
        prev = 1
        for ch in config.encoder_channels:
            self.encoder.append((OperLayer(rng, prev, ch, q_order=1, stride=2), BatchNormLayer(ch)))
            prev = ch

        self.decoder = []
        for f in config.decoder_filters:
            self.decoder.append((OperLayer(rng, prev, f, config.q_order, stride=2, transpose=True),
                                 BatchNormLayer(f)))
            prev = f

        self.final = OperLayer(rng, prev, 1, config.q_order, stride=1)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Run the network; inference (``training=False``) records no graph.

        Training normalizes with batch statistics and builds the autodiff
        graph. Inference uses the running statistics under ``no_graph()``:
        the output has no parents, so ``backward()`` through it raises.
        """
        size = self.config.input_size
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected a N x 1 x H x W batch, got shape {x.shape}")
        if x.shape[2] != size or x.shape[3] != size:
            raise ShapeError(
                f"expected {size}x{size} input (configured input_size), got "
                f"{x.shape[2]}x{x.shape[3]}")
        with contextlib.nullcontext() if training else no_graph():
            h = x
            for conv, bn in self.encoder:
                h = bn(conv(h), training)
            for up, bn in self.decoder:
                h = bn(up(h), training)
            return self.final(h).sigmoid()

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return self.forward(x, training)

    # -- parameter accounting -------------------------------------------------

    def _layer_table(self):
        rows = []
        for i, (conv, bn) in enumerate(self.encoder, start=1):
            rows.append((f"encoder.stage{i}", conv, bn))
        for j, (up, bn) in enumerate(self.decoder, start=1):
            rows.append((f"decoder.block{j}", up, bn))
        rows.append(("decoder.final", self.final, None))
        return rows

    def named_parameters(self) -> list:
        """Trainable tensors as (dot-path name, Tensor), in checkpoint order."""
        out = []
        for prefix, layer, bn in self._layer_table():
            for name, t in layer.params():
                out.append((f"{prefix}.{name}", t))
            if bn is not None:
                for name, t in bn.params():
                    out.append((f"{prefix}.{name}", t))
        return out

    def named_buffers(self) -> list:
        """Non-trainable state (running statistics) as (name, ndarray)."""
        out = []
        for prefix, layer, bn in self._layer_table():
            if bn is not None:
                for name, arr in bn.buffers():
                    out.append((f"{prefix}.{name}", arr))
        return out

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()


def build_model(config: ModelConfig, rng: np.random.Generator) -> OSegNetModel:
    return OSegNetModel(config, rng)


def count_params(model: OSegNetModel) -> tuple[int, int]:
    trainable = sum(t.size for _, t in model.named_parameters())
    non_trainable = sum(arr.size for _, arr in model.named_buffers())
    return trainable, non_trainable


# -- checkpoint format ----------------------------------------------------------
#
# magic "OSGN" | u32 version | u32 q_order | u32 tensor count
# per tensor: u16 name length | ASCII name | u8 ndim | u32 dims... | <f4 data
# Little-endian throughout, no padding, no compression.


def _checkpoint_entries(model: OSegNetModel) -> list:
    entries = [(name, t.data) for name, t in model.named_parameters()]
    entries += [(name, arr) for name, arr in model.named_buffers()]
    return entries


def save_checkpoint(model: OSegNetModel, path) -> None:
    """Write the model to path, replacing any previous checkpoint atomically.

    The bytes go to ``<path>.tmp`` in the same directory, which then replaces
    path; a write that fails partway removes the temporary file and leaves
    the previous checkpoint untouched.
    """
    entries = _checkpoint_entries(model)
    # Header 16 bytes; per tensor 3 bytes, the name, 4 per dim and 4 per value.
    size = 16 + sum(3 + len(name) + 4 * (arr.ndim + arr.size) for name, arr in entries)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if hasattr(os, "posix_fallocate"):
                # With the blocks allocated up front, the rename need not
                # flush delayed allocations first, as ext4 does when a file
                # replaces another; that flush took longer than the write.
                os.posix_fallocate(fh.fileno(), 0, size)
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<III", CHECKPOINT_VERSION, model.config.q_order, len(entries)))
            for name, arr in entries:
                encoded = name.encode("ascii")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} more bytes for {what}")
    return buf


class _NoDraw:
    """Stands in for the rng of a model whose parameters are all about to be overwritten.

    glorot_uniform keeps a float32 draw as it is, so each kernel stays an
    untouched np.empty buffer until the checkpoint's values are copied in.
    """

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size, dtype=np.float32)


def load_checkpoint(path, config: ModelConfig) -> OSegNetModel:
    """Rebuild a model from a checkpoint, validating against the given config.

    The header is checked before the model is built, so a corrupt file is
    rejected without allocating parameters. The model is built without
    drawing initial weights, since every tensor is then read from the file,
    and without gradient buffers: its parameters get them from
    ``zero_grad()`` or ``backward()``, as training needs. Shape conflicts
    (including a q_order disagreement, which changes operational kernel
    widths) are reported against the first offending tensor in model order;
    a header q_order that differs from the config's while every shape
    matches is reported as such.
    """
    stored = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, "magic bytes")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic bytes {magic!r}, not a checkpoint file")
        version, q_order, count = struct.unpack("<III", _read_exact(fh, 12, "header"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            try:
                name = _read_exact(fh, name_len, "tensor name").decode("ascii")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"non-ASCII tensor name in checkpoint: {exc}") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, f"rank of {name}"))
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"dims of {name}"))
            n_bytes = 4 * math.prod(dims)
            if n_bytes > size - fh.tell():
                # A corrupt size must not reach read() as a length or an allocation.
                raise CheckpointError(f"truncated checkpoint: {name} declares {n_bytes} data "
                                      f"bytes, {size - fh.tell()} left in the file")
            data = np.frombuffer(_read_exact(fh, n_bytes, f"data of {name}"), dtype="<f4")
            if name in stored:
                raise CheckpointError(f"duplicate tensor {name} in checkpoint")
            stored[name] = data.reshape(dims)
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last declared tensor")

    with no_graph():
        model = OSegNetModel(config, _NoDraw())
    expected = _checkpoint_entries(model)
    for name, arr in expected:
        if name not in stored:
            raise CheckpointError(f"checkpoint is missing tensor {name}")
        if stored[name].shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint has {stored[name].shape}, "
                f"config expects {arr.shape}")
    extra = [n for n in stored if n not in dict(expected)]
    if extra:
        raise CheckpointError(f"checkpoint contains unexpected tensor {extra[0]}")
    # After the shape checks, so a real Q mismatch names its first kernel.
    if q_order != config.q_order:
        raise CheckpointError(f"checkpoint header has q_order {q_order}, config has {config.q_order}")

    for name, arr in expected:  # the model's own arrays, so these copies load it
        arr[...] = stored[name]
    return model
