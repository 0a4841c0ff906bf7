"""Network layers: operational convolutions and batch normalization under tanh.

An operational layer generalizes a convolution by feeding it the first Q
elementwise powers of each input channel, so every kernel tap learns the
coefficients of a degree-Q polynomial in its input. Q=1 is exactly a plain
convolution, so the encoder's strided convolutions are operational layers
at Q=1. Every layer is same-padded and has a bias.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, batchnorm, conv2d, conv2d_transpose, power_expand

BN_MOMENTUM = 0.99  # running statistics keep this share of their value per training step
BN_EPS = 1e-5


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32, copy=False)


class Oper2DLayer:
    """Operational convolution: power expansion to Cin*Q channels, then a
    same-padded conv with bias.

    The kernel slice for source channel c, power q sits at input channel
    c*Q + q - 1, so the Q=1 kernel is laid out exactly like a plain conv's.
    """

    def __init__(self, rng: np.random.Generator, in_channels: int, out_channels: int,
                 kernel_size: int, q_order: int, stride: int = 1):
        if q_order < 1:
            raise ValueError(f"q_order must be >= 1, got {q_order}")
        k = kernel_size
        self.q_order = q_order
        self.stride = stride
        self.kernel = Tensor(glorot_uniform(rng, (out_channels, in_channels * q_order, k, k),
                                            fan_in=k * k * in_channels * q_order,
                                            fan_out=k * k * out_channels))
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(power_expand(x, self.q_order), self.kernel, self.bias, stride=self.stride)

    def params(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


class Oper2DTransposeLayer:
    """Operational transposed convolution; kernels (Cin*Q, Cout, k, k)."""

    def __init__(self, rng: np.random.Generator, in_channels: int, out_channels: int,
                 kernel_size: int, q_order: int, stride: int = 1):
        if q_order < 1:
            raise ValueError(f"q_order must be >= 1, got {q_order}")
        k = kernel_size
        self.q_order = q_order
        self.stride = stride
        self.kernel = Tensor(glorot_uniform(rng, (in_channels * q_order, out_channels, k, k),
                                            fan_in=k * k * in_channels * q_order,
                                            fan_out=k * k * out_channels))
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(power_expand(x, self.q_order), self.kernel, self.bias,
                                stride=self.stride)

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
