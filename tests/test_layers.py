"""Layer tests: operational layers, batchnorm wrapper, initialization."""

import numpy as np
import pytest

from osegnet import layers as layers_mod
from osegnet.layers import BN_EPS, BN_MOMENTUM, KERNEL_SIZE, BatchNormLayer, OperLayer, glorot_uniform
from osegnet.tensor import Tensor, conv2d, conv2d_transpose


def rand_input(rng, shape):
    return Tensor(rng.uniform(-1, 1, shape).astype(np.float32))


class TestInit:
    def test_glorot_bound_holds_over_many_draws(self):
        rng = np.random.default_rng(0)
        limit = np.sqrt(6.0 / (20 + 30))
        w = glorot_uniform(rng, (10000,), fan_in=20, fan_out=30)
        assert w.dtype == np.float32
        assert np.abs(w).max() <= limit
        assert abs(w.mean()) < limit * 0.05  # roughly centered

    def test_same_rng_seed_gives_identical_layers(self):
        a = OperLayer(np.random.default_rng(7), 3, 4, 2, 1)
        b = OperLayer(np.random.default_rng(7), 3, 4, 2, 1)
        assert np.array_equal(a.kernel.data, b.kernel.data)
        assert np.array_equal(a.bias.data, b.bias.data)

    def test_bias_starts_at_zero(self):
        layer = OperLayer(np.random.default_rng(1), 2, 5, 1, 1)
        assert np.array_equal(layer.bias.data, np.zeros(5, np.float32))

    def test_both_layouts_draw_the_same_values(self):
        # One Glorot draw with the same fans, in the same order, whichever
        # axis holds the Cin*Q channels: only the shape differs.
        for q in (1, 3):
            plain = OperLayer(np.random.default_rng(11), 4, 6, q, 2)
            up = OperLayer(np.random.default_rng(11), 4, 6, q, 2, transpose=True)
            assert plain.kernel.shape == (6, 4 * q, 3, 3) and up.kernel.shape == (4 * q, 6, 3, 3)
            assert plain.kernel.data.tobytes() == up.kernel.data.tobytes()


class TestOper2D:
    def test_kernel_shape_scales_with_order(self):
        for q in (1, 2, 3, 5):
            layer = OperLayer(np.random.default_rng(0), 3, 8, q, 1)
            assert layer.kernel.shape == (8, 3 * q, KERNEL_SIZE, KERNEL_SIZE)
            assert layer.bias.shape == (8,)

    def test_hand_example_polynomial_of_input(self):
        # One channel, order 2, on a 1x1 input: only the centre tap lands on
        # it, weights (1, 2), bias 0.1: y = 1*0.5 + 2*0.25 + 0.1 = 1.1
        layer = OperLayer(np.random.default_rng(0), 1, 1, 2, 1)
        layer.kernel.data[:] = 0.0
        layer.kernel.data[0, :, 1, 1] = [1.0, 2.0]
        layer.bias.data[:] = 0.1
        x = Tensor(np.full((1, 1, 1, 1), 0.5, dtype=np.float32))
        out = layer(x)
        assert np.isclose(out.data.item(), 1.1, atol=1e-6)

    def test_zero_input_yields_bias(self):
        layer = OperLayer(np.random.default_rng(2), 2, 3, 4, 1)
        layer.bias.data[:] = np.array([0.5, -0.25, 2.0], np.float32)
        out = layer(Tensor(np.zeros((1, 2, 4, 4), np.float32)))
        for c, b in enumerate([0.5, -0.25, 2.0]):
            assert np.allclose(out.data[0, c], b)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        layer = OperLayer(rng, 2, 3, 3, 1)
        x = rand_input(rng, (2, 2, 6, 6))
        base = layer(x).data.copy()
        layer.kernel.data *= 2.0
        layer.bias.data[:] = 0.0
        doubled = layer(x).data
        assert np.abs(doubled - 2.0 * base).max() < 1e-5

    def test_order_one_matches_plain_conv(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 5))
            stride = int(rng.choice([1, 2]))
            oper = OperLayer(np.random.default_rng(trial), cin, cout, 1, stride)
            x = rand_input(rng, (2, cin, 6, 6))
            plain = conv2d(x, oper.kernel, oper.bias, stride=stride)
            assert np.array_equal(oper(x).data, plain.data)

    def test_stride_supported(self):
        layer = OperLayer(np.random.default_rng(5), 1, 2, 2, 2)
        out = layer(Tensor(np.zeros((1, 1, 8, 8), np.float32)))
        assert out.shape == (1, 2, 4, 4)

    def test_param_count_closed_form(self):
        k2 = KERNEL_SIZE ** 2
        for cin, cout, q in ((3, 8, 2), (1, 1, 1), (4, 6, 5)):
            for transpose in (False, True):
                layer = OperLayer(np.random.default_rng(0), cin, cout, q, 1, transpose=transpose)
                total = sum(t.data.size for _, t in layer.params())
                assert total == cout * (k2 * cin * q + 1)

    def test_rejects_bad_order(self):
        for transpose in (False, True):
            with pytest.raises(ValueError):
                OperLayer(np.random.default_rng(0), 1, 1, 0, 1, transpose=transpose)

    def test_ops_are_looked_up_when_called(self, monkeypatch):
        # A module attribute replaced after the layer was built (a tracer's
        # wrapper, here a spy) is the one each call runs.
        calls = []

        def spy(name):
            op = getattr(layers_mod, name)

            def call(*args, **kwargs):
                calls.append(name)
                return op(*args, **kwargs)
            return call

        for name in ("conv2d", "conv2d_transpose"):
            monkeypatch.setattr(layers_mod, name, spy(name))
        x =Tensor(np.zeros((1, 2, 4, 4), np.float32))
        OperLayer(np.random.default_rng(0), 2, 3, 2, 1)(x)
        OperLayer(np.random.default_rng(0), 2, 3, 2, 2, transpose=True)(x)
        assert calls == ["conv2d", "conv2d_transpose"]


class TestOper2DTranspose:
    def test_kernel_shape(self):
        layer = OperLayer(np.random.default_rng(0), 4, 6, 3, 2, transpose=True)
        assert layer.kernel.shape == (4 * 3, 6, KERNEL_SIZE, KERNEL_SIZE)

    def test_upsamples_by_stride(self):
        layer = OperLayer(np.random.default_rng(1), 2, 3, 2, 2, transpose=True)
        out = layer(Tensor(np.zeros((2, 2, 5, 5), np.float32)))
        assert out.shape == (2, 3, 10, 10)

    def test_order_one_matches_plain_transpose(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 5))
            layer = OperLayer(np.random.default_rng(trial), cin, cout, 1, 2, transpose=True)
            x = rand_input(rng, (1, cin, 4, 4))
            a = layer(x).data
            b = conv2d_transpose(x, layer.kernel, layer.bias, stride=2).data
            assert np.abs(a - b).max() < 1e-6

    def test_zero_input_yields_bias(self):
        layer = OperLayer(np.random.default_rng(7), 2, 2, 3, 2, transpose=True)
        layer.bias.data[:] = np.array([1.0, -1.0], np.float32)
        out = layer(Tensor(np.zeros((1, 2, 3, 3), np.float32)))
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -1.0)


class TestBatchNormLayer:
    def test_normalizes_then_scales(self):
        rng = np.random.default_rng(8)
        layer = BatchNormLayer(3)
        x = Tensor((rng.uniform(-1, 1, (4, 3, 6, 6)) * 2 + 0.5).astype(np.float32))
        normalized = np.arctanh(layer(x, training=True).data.astype(np.float64))  # ends in tanh
        assert np.abs(normalized.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(normalized.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3

    def test_zero_gamma_collapses_to_beta(self):
        layer = BatchNormLayer(2)
        layer.gamma.data[:] = 0.0
        layer.beta.data[:] = np.array([0.3, -0.7], np.float32)
        x = rand_input(np.random.default_rng(9), (2, 2, 4, 4))
        out = layer(x, training=True)
        assert np.allclose(out.data[:, 0], np.tanh(0.3))
        assert np.allclose(out.data[:, 1], np.tanh(-0.7))

    def test_momentum_schedule_matches_by_hand(self):
        assert BN_MOMENTUM == 0.99
        layer = BatchNormLayer(1)
        x = Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32))
        layer(x, training=True)
        assert np.isclose(layer.running_mean[0], 0.02)  # 0.01 * 2
        layer(x, training=True)
        assert np.isclose(layer.running_mean[0], 0.0398)  # 0.99 * 0.02 + 0.01 * 2

    def test_inference_mode_is_deterministic_affine(self):
        layer = BatchNormLayer(1)
        layer.running_mean[:] = 1.0
        layer.running_var[:] = 4.0
        x = Tensor(np.full((1, 1, 1, 1), 5.0, dtype=np.float32))
        out = layer(x, training=False)
        assert np.isclose(out.data.item(), np.tanh((5.0 - 1.0) / np.sqrt(4.0 + BN_EPS)), atol=1e-6)

    def test_params_and_buffers_split(self):
        layer = BatchNormLayer(4)
        names = [n for n, _ in layer.params()]
        buffer_names = [n for n, _ in layer.buffers()]
        assert names == ["bn.gamma", "bn.beta"]
        assert buffer_names == ["bn.running_mean", "bn.running_var"]
