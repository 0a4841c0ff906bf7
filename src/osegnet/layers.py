"""Network layers: operational convolutions and batch normalization under tanh.

An operational layer generalizes a convolution by feeding it the first Q
elementwise powers of each input channel, so every kernel tap learns the
coefficients of a degree-Q polynomial in its input. Q=1 is exactly a plain
convolution, so the encoder's strided convolutions are operational layers
at Q=1. One class, ``OperLayer``, builds both the forward and the
transposed form; every layer is 3x3, same-padded and has a bias.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, batchnorm, conv2d, conv2d_transpose, power_expand

KERNEL_SIZE = 3  # every encoder, decoder and final layer kernel is 3x3
BN_MOMENTUM = 0.99  # running statistics keep this share of their value per training step
BN_EPS = 1e-5


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32, copy=False)


class OperLayer:
    """Operational convolution: power expansion to Cin*Q channels, then one
    same-padded KERNEL_SIZE convolution with bias.

    ``transpose`` picks the convolution: kernels (Cout, Cin*Q, k, k) under
    ``conv2d``, or (Cin*Q, Cout, k, k) under ``conv2d_transpose``, which
    upsamples by the stride. The kernel slice for source channel c, power q
    sits at channel c*Q + q - 1 of the Cin*Q axis, so the Q=1 kernel is laid
    out exactly like a plain convolution's. Either layout is drawn with the
    same Glorot fans.
    """

    def __init__(self, rng: np.random.Generator, in_channels: int, out_channels: int,
                 q_order: int, stride: int, transpose: bool = False):
        if q_order < 1:
            raise ValueError(f"q_order must be >= 1, got {q_order}")
        k = KERNEL_SIZE
        self.q_order = q_order
        self.stride = stride
        self.transpose = transpose
        wide = in_channels * q_order
        shape = (wide, out_channels, k, k) if transpose else (out_channels, wide, k, k)
        self.kernel = Tensor(glorot_uniform(rng, shape, fan_in=k * k * wide, fan_out=k * k * out_channels))
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        # The ops are looked up when called, so a module attribute replaced
        # after the layer was built (a tracer's wrapper) still takes effect.
        op = conv2d_transpose if self.transpose else conv2d
        return op(power_expand(x, self.q_order), self.kernel, self.bias, stride=self.stride)

    def params(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class BatchNormLayer:
    """Per-channel batch normalization with running statistics, then tanh.

    Returns tanh(gamma * xhat + beta) as one node (``tensor.batchnorm``):
    every batchnorm of the model feeds a tanh. gamma/beta are trainable;
    running_mean/running_var are plain arrays updated in place during
    training-mode forward passes and consumed in inference mode, with the
    fixed ``BN_MOMENTUM`` and ``BN_EPS``.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32))
        self.beta = Tensor(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        return batchnorm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                         BN_MOMENTUM, BN_EPS, training)

    def params(self):
        return [("bn.gamma", self.gamma), ("bn.beta", self.beta)]

    def buffers(self):
        return [("bn.running_mean", self.running_mean), ("bn.running_var", self.running_var)]
