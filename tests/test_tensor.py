"""Engine tests: autodiff correctness against analytic and FD oracles."""

import contextlib
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from osegnet import optim as optim_mod
from osegnet import tensor as tensor_mod
from osegnet.losses import dice_loss, focal_loss
from osegnet.optim import Adam
from osegnet.tensor import (ShapeError, Tensor, batchnorm, conv2d, conv2d_transpose,
                            finite_diff_grad, no_graph, power_expand)


def rel_err(analytic, numeric, floor=1e-2):
    scale = max(float(np.abs(numeric).max()), floor)
    return float(np.abs(analytic - numeric).max()) / scale


def zero_bias(channels):
    """A zero bias for a convolution with this many output channels."""
    return Tensor(np.zeros(channels, np.float32))


def same_padded(stride):
    """Id for a conv test's stride, naming the padding too: every conv is same-padded."""
    return f"{stride}-same"


class NegativeZeroMatmul:
    """numpy, except that matmul writes each zero of its result as -0.0."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b, out=None):
        out = np.matmul(a, b, out=out)
        out[out == 0] = -0.0
        return out


class TestElementwise:
    def test_add_mul_examples(self):
        a = Tensor([2.0, 3.0])
        b = Tensor([4.0, 5.0])
        assert np.allclose((a * b).data, [8.0, 15.0])
        assert np.allclose((a + b).data, [6.0, 8.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2))) * Tensor(np.ones((4,)))

    def test_scalar_broadcast_rejected(self):
        # Negative control: no operand broadcasts, not a float and not a
        # one-element Tensor, so neither records a node.
        a = Tensor([1.0, 2.0])
        for other in (3.0, Tensor([3.0])):
            with pytest.raises(ShapeError, match=r"add: needs a Tensor of shape \(2,\)"):
                a + other
            with pytest.raises(ShapeError, match=r"mul: needs a Tensor of shape \(2,\)"):
                a * other

    def test_activation_symmetry_points(self):
        # batchnorm ends in tanh: at the running mean with beta 0 it gives tanh(0).
        one, zero = np.ones(1, np.float32), np.zeros(1, np.float32)
        x = Tensor(np.zeros((1, 1, 1, 1), np.float32))
        assert batchnorm(x, Tensor(one), Tensor(zero), zero, one, 0.99, 1e-5, False).data.item() == 0.0
        assert Tensor([0.0]).sigmoid().data[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        y = Tensor([-200.0, 200.0]).sigmoid()
        assert np.all(np.isfinite(y.data))
        assert 0.0 <= y.data[0] < 1e-30
        assert y.data[1] == 1.0  # saturates in float32

    def test_sigmoid_keeps_the_bytes_of_the_three_exp_form(self):
        # The sigmoid takes exp(-|x|) once; it gives the bytes of the form
        # that took it three times, on a 224 px batch-4 array of logits.
        special = np.array([0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0, 88.0, -88.0, 200.0, -200.0,
                            np.inf, -np.inf], np.float32)
        rng = np.random.default_rng(40)
        x = np.concatenate([special, 20 * rng.standard_normal(4 * 224 * 224 - special.size)])
        x = x.astype(np.float32)
        three_exp = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                             np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))).astype(np.float32)
        y = Tensor(x).sigmoid().data
        assert y.dtype == np.float32 and y.tobytes() == three_exp.tobytes()


class TestReductions:
    def test_sum_example(self):
        assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_sum_of_parts_matches_whole(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 1000).astype(np.float32)
        b = rng.uniform(-1, 1, 1000).astype(np.float32)
        whole = Tensor(np.concatenate([a, b])).sum().item()
        parts = Tensor(a).sum().item() + Tensor(b).sum().item()
        assert abs(whole - parts) < 1e-5


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0])
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_linear_gradient_all_ones(self):
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, 7).astype(np.float32))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones(7, dtype=np.float32))

    def test_unused_parameter_gets_zero_grad(self):
        x = Tensor([1.0])
        unused = Tensor([5.0])
        (x * Tensor([2.0])).sum().backward()
        assert np.array_equal(unused.grad, np.zeros(1, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).backward()

    def test_backward_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(3)
            x = Tensor(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
            w = Tensor(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
            ((x * w).sigmoid() + x).sum().backward()
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_diamond_graph_accumulates(self):
        x = Tensor([2.0])
        y = x * x + x * Tensor([3.0])  # reuses x twice
        y.sum().backward()
        assert np.allclose(x.grad, [2 * 2.0 + 3.0])

    def test_a_second_backward_through_a_released_graph_raises(self):
        # Negative control: backward() drops each interior node's closure and
        # gradient once walked, so a second walk would have nothing to run.
        x = Tensor([1.0, 2.0])
        h = x * x
        loss = (h.sigmoid() * Tensor([3.0, 3.0])).sum()
        loss.backward()
        grad = x.grad.copy()
        assert (h._backward_fn, h.grad, loss._backward_fn, loss.grad) == (None, None, None, None)
        assert h._parents == (x, x) and grad.any()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            (h * Tensor([2.0, 2.0])).sum().backward()  # a new loss over a released node
        assert x.grad.tobytes() == grad.tobytes()  # neither walk reached a gradient


class TestNoGraph:
    """Ops inside no_graph() give the same values but record nothing."""

    def test_nodes_keep_no_parents_closure_or_grad(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 6, 6)).astype(np.float32))
        k = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
        two = Tensor(np.full((2, 4, 6, 6), 2.0, np.float32))
        recorded = (conv2d(x, k, zero_bias(4)).sigmoid() * two).sum()
        with no_graph():
            free = (conv2d(x, k, zero_bias(4)).sigmoid() * two).sum()
            leaf = Tensor([1.0])
        assert free.data.tobytes() == recorded.data.tobytes()
        assert recorded._parents and recorded._backward_fn is not None
        assert (free._parents, free._backward_fn, free.grad) == ((), None, None)
        assert leaf.grad is None

    def test_backward_through_an_inference_node_raises_before_any_gradient(self):
        x = Tensor([1.0, 2.0])
        with no_graph():
            h = x.sigmoid()
        loss = (h * Tensor([3.0, 3.0])).sum()  # recorded on top of an inference node
        with pytest.raises(RuntimeError, match="inference mode"):
            loss.backward()
        assert loss.grad is None
        assert np.array_equal(x.grad, np.zeros(2, np.float32))

    def test_recording_resumes_after_an_exception(self):
        with pytest.raises(ZeroDivisionError):
            with no_graph():
                Tensor([1.0]).sigmoid()
                1 / 0
        x = Tensor([0.5])
        x.sigmoid().sum().backward()
        s = 1.0 / (1.0 + np.exp(-0.5))
        assert np.isclose(x.grad[0], s * (1.0 - s))

    @pytest.mark.parametrize("cout", [1, 3])
    def test_conv_input_made_under_no_graph_gets_no_gradient(self, monkeypatch, cout):
        # A batch input is a leaf made under no_graph(): conv2d's backward
        # computes no input gradient for it, and the kernel and bias keep the
        # bytes a recording input gives them.
        rng = np.random.default_rng(37)
        x0 = rng.uniform(0, 1, (2, 1, 12, 12)).astype(np.float32)
        k0 = rng.standard_normal((cout, 1, 3, 3)).astype(np.float32)

        def grads(x):
            kernel, bias = Tensor(k0), Tensor(np.zeros(cout, np.float32))
            conv2d(x, kernel, bias, stride=2).sigmoid().sum().backward()
            return kernel.grad.tobytes(), bias.grad.tobytes()

        recording = Tensor(x0)
        want = grads(recording)
        adjoints = []
        monkeypatch.setattr(tensor_mod, "_adjoint", lambda *args: adjoints.append(args))
        with no_graph():
            batch = Tensor(x0)
        assert grads(batch) == want
        assert batch.grad is None and adjoints == []
        assert recording.grad.any()

    def test_backward_through_an_inference_conv_still_raises(self):
        rng = np.random.default_rng(38)
        x = Tensor(rng.uniform(0, 1, (1, 1, 6, 6)).astype(np.float32))
        k = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
        with no_graph():
            h = conv2d(x, k, zero_bias(1))
        with pytest.raises(RuntimeError, match="inference mode"):
            conv2d(h, k, zero_bias(1)).sum().backward()
        assert h.grad is None

    def test_nesting_restores_the_outer_state(self):
        with no_graph():
            with no_graph():
                pass
            assert Tensor([1.0]).sigmoid()._parents == ()
        assert Tensor([1.0]).sigmoid()._parents != ()


class TestFiniteDiff:
    def test_square_oracle(self):
        n = finite_diff_grad(lambda t: (t * t).sum().item(), Tensor([1.0]), 1e-3)
        assert abs(n.data[0] - 2.0) < 1e-3

    def test_constant_function(self):
        n = finite_diff_grad(lambda t: 7.0, Tensor([0.3, -0.2]), 1e-3)
        assert np.all(np.abs(n.data) < 1e-6)

    def test_tanh_at_zero(self):
        # Inference batchnorm at mean 0, variance 1, eps 0, gamma 1 and beta 0 is tanh.
        one, zero = np.ones(1, np.float32), np.zeros(1, np.float32)

        def tanh(t):
            return batchnorm(t, Tensor(one), Tensor(zero), zero, one, 0.99, 0.0, False).sum().item()

        n = finite_diff_grad(tanh, Tensor(np.zeros((1, 1, 1, 1), np.float32)), 1e-3)
        assert abs(n.data.item() - 1.0) < 1e-4

    def test_indices_perturb_only_those_elements_in_order(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3) / 10)
        seen = []

        def f(t):
            seen.append(int(np.flatnonzero(t.data != x.data)[0]))
            return float((t.data.astype(np.float64) ** 2).sum())

        full = finite_diff_grad(f, x, 1e-3).data
        seen.clear()
        part = finite_diff_grad(f, x, 1e-3, indices=np.array([4, 1])).data
        assert seen == [4, 4, 1, 1]
        assert part.shape == x.shape
        assert np.array_equal(part.reshape(-1)[[4, 1]], full.reshape(-1)[[4, 1]])
        assert not np.delete(part.reshape(-1), [4, 1]).any()

    @pytest.mark.parametrize("op", ["add", "mul", "batchnorm", "sigmoid", "sum", "dice",
                                    "dice_batch", "focal", "focal_weighted"])
    def test_registered_ops_match_fd(self, op):
        eps = 1e-3
        # A stable seed per op: str hashes change from process to process.
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        # batchnorm (with its tanh) takes a 4-D input: three channels of four values;
        # dice_batch a batch of two one-channel 2x3 images, reduced per image.
        shape = {"batchnorm": (1, 3, 2, 2), "dice_batch": (2, 1, 2, 3)}.get(op, (3, 4))
        if op.startswith(("dice", "focal")):
            # Probabilities against a binary mask; dice takes a 2-D input as one image.
            data = rng.uniform(0.1, 0.9, shape)
        else:
            data = rng.uniform(-1, 1, shape)
        x = Tensor(data.astype(np.float32))
        other = Tensor(rng.uniform(0.5, 1.5, shape).astype(np.float32))
        mask = Tensor((rng.random(shape) > 0.5).astype(np.float32))
        gamma, beta = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))
        fns = {
            "add": lambda t: (t + other).sum(),
            "mul": lambda t: (t * other).sum(),
            "batchnorm": lambda t: (batchnorm(t, gamma, beta, np.zeros(3, np.float32),
                                              np.ones(3, np.float32), 0.99, 1e-5, True) * other).sum(),
            "sigmoid": lambda t: t.sigmoid().sum(),
            "sum": lambda t: t.sum(),
            "dice": lambda t: dice_loss(mask, t),
            "dice_batch": lambda t: dice_loss(mask, t),
            "focal": lambda t: focal_loss(mask, t),
            # A non-integer gamma and an alpha above one half take the general powers.
            "focal_weighted": lambda t: focal_loss(mask, t, gamma=1.5, alpha=0.6),
        }
        fn = fns[op]
        loss = fn(x)
        loss.backward()
        numeric = finite_diff_grad(lambda t: fn(t).item(), x, eps)
        assert rel_err(x.grad, numeric.data) < 1e-3


class TestConv2d:
    def test_identity_kernel_is_identity(self):
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32))
        k = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), zero_bias(3), stride=1)
        assert np.array_equal(out.data, x.data)

    def test_same_padding_output_size(self):
        x = Tensor(np.zeros((1, 1, 7, 7), dtype=np.float32))
        k = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert conv2d(x, k, zero_bias(1), stride=2).shape == (1, 1, 4, 4)
        assert conv2d(x, k, zero_bias(1), stride=1).shape == (1, 1, 7, 7)

    def test_extra_pad_goes_bottom_right(self):
        # 2x2 input, 2x2 kernel, stride 2: one output, pad 0 needed; use 3x3
        # input with stride 2 -> out 2, total pad 1, so pad (0 top, 1 bottom).
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        x[0, 0] = np.arange(9, dtype=np.float32).reshape(3, 3)
        k = np.zeros((1, 1, 2, 2), dtype=np.float32)
        k[0, 0, 0, 0] = 1.0  # picks the top-left of each window
        out = conv2d(Tensor(x), Tensor(k), zero_bias(1), stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data[0, 0], [[0.0, 2.0], [6.0, 8.0]])

    def test_channel_mismatch_diagnostic(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        k = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, k, zero_bias(1))

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        k = Tensor(np.zeros((2, 1, 1, 1), dtype=np.float32))
        out = conv2d(x, k, Tensor([1.5, -2.0]))
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 6, 6)).astype(np.float32))
        w = Tensor(rng.uniform(-0.5, 0.5, (3, 2, 3, 3)).astype(np.float32))
        b = Tensor(rng.uniform(-0.2, 0.2, 3).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (2, 3, 3, 3)).astype(np.float32)

        def loss_of(xs):
            return (conv2d(xs["x"], xs["w"], xs["b"], stride=2) * Tensor(g)).sum()

        tensors = {"x": x, "w": w, "b": b}
        loss_of(tensors).backward()
        for name, t in tensors.items():
            def f(c, name=name):
                trial = dict(tensors)
                trial[name] = c
                return loss_of(trial).item()
            numeric = finite_diff_grad(f, t, 1e-2)
            assert rel_err(t.grad, numeric.data) < 1e-3, name


def batch_sum(terms, dtype):
    """The terms added onto zeros of dtype in their order, rounded to float32."""
    total = np.zeros(terms[0].shape, dtype)
    for term in terms:
        total += term
    return total.astype(np.float32)


# Scale of the big sample in the cancelling batches: a power of two, so the
# scaling itself rounds nothing, and small enough that in float32 the small
# samples round against the big ones without vanishing. At 1e12 they vanish,
# and a batch of three (big, small, -big) sums to all zeros.
BIG = np.float32(2.0 ** 12)


def run_in_slices(run, x0, k0, b0, g0, stride, size):
    """run() on the batch ``size`` samples per call: y and the input gradient
    concatenated, and the kernel gradient as the float32 sum of each sample's
    own gradient in batch order, onto float32 zeros. A one-sample kernel
    gradient is that sample's float32 product, so the sum is the whole
    batch's arithmetic."""
    n = len(x0)
    one = [run(x0[i:i + 1], k0, b0, g0[i:i + 1], stride) for i in range(n)]
    parts = one if size == 1 else [run(x0[i:i + size], k0, b0, g0[i:i + size], stride)
                                   for i in range(0, n, size)]
    return {"y": np.concatenate([p["y"] for p in parts]),
            "x": np.concatenate([p["x"] for p in parts]),
            "kernel": batch_sum([part["kernel"] for part in one], np.float32)}


class TestConv2dBatchSlices:
    """conv2d lowers its whole batch at once and keeps its columns for the
    weight gradient; the batch must give the bits of its samples lowered in
    slices, as a caller that splits a batch lowers them."""

    @staticmethod
    def run(x0, k0, b0, g0, stride):
        x, kernel, bias = Tensor(x0), Tensor(k0), Tensor(b0)
        y = conv2d(x, kernel, bias, stride=stride)
        (y * Tensor(g0[:, :, :y.shape[2], :y.shape[3]])).sum().backward()
        return {"y": y.data, "x": x.grad, "kernel": kernel.grad, "bias": bias.grad}

    def check_slices(self, cout, stride, size):
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((3, 4, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((cout, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(cout).astype(np.float32)
        g0 = rng.standard_normal((3, cout, 11, 9)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        whole = self.run(x0, k0, b0, g0, stride)
        sliced = run_in_slices(self.run, x0, k0, b0, g0, stride, size)  # 1+1+1 or 2+1
        for name, arr in sliced.items():
            assert np.array_equal(whole[name], arr), name
            assert whole[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_slicing_changes_no_bits(self, stride, size):
        self.check_slices(2, stride, size)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_one_output_channel_slicing_changes_no_bits(self, stride, size):
        self.check_slices(1, stride, size)

    def test_weight_gradient_adds_samples_in_batch_order(self):
        # A sum of like-sized products hides the order of its additions in
        # most bits, so here the terms span a wide range: sample 2 cancels
        # sample 0, and the small samples round against them.
        rng = np.random.default_rng(23)
        big = rng.standard_normal((1, 4, 8, 8)).astype(np.float32) * BIG
        small = rng.standard_normal((3, 4, 8, 8)).astype(np.float32)
        x0 = np.concatenate([big, small[:1], -big, small[1:]])
        k0 = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(2).astype(np.float32)
        g0 = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        g0[2] = g0[0]
        whole = self.run(x0, k0, b0, g0, 1)
        products = [self.run(x0[i:i + 1], k0, b0, g0[i:i + 1], 1)["kernel"] for i in range(5)]
        assert whole["kernel"].tobytes() == batch_sum(products, np.float32).tobytes()
        # Negative controls: the same products added in reverse order, or in
        # batch order onto float64 zeros, round otherwise.
        assert whole["kernel"].tobytes() != batch_sum(products[::-1], np.float32).tobytes()
        assert whole["kernel"].tobytes() != batch_sum(products, np.float64).tobytes()

    @staticmethod
    def held_bytes(x, kernel):
        """Bytes allocated by a conv2d forward that are still live after it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = conv2d(x, kernel, zero_bias(kernel.shape[0]), stride=1)
            return tracemalloc.get_traced_memory()[0] - base, y
        finally:
            tracemalloc.stop()

    def test_column_forward_holds_only_its_output(self):
        # The columns (27 648 B here) are freed when the forward returns:
        # the backward builds them again from x, which the graph holds.
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((3, 4, 16, 16)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        held, y = self.held_bytes(x, kernel)
        out_bytes = y.data.nbytes
        assert held <= out_bytes + (16 << 10), (held, out_bytes)
        y.sum().backward()
        assert x.grad.any() and kernel.grad.any()

    def test_one_row_forward_holds_only_its_output(self):
        # The final layer's shape at 64 px, Q=3: the one-row path pads each
        # sample as it uses it, so nothing the size of the input outlives
        # the forward; a padded batch kept for the weight gradient would.
        rng = np.random.default_rng(24)
        x = power_expand(Tensor(rng.standard_normal((4, 8, 64, 64)).astype(np.float32)), 3)
        kernel = Tensor(rng.standard_normal((1, 24, 3, 3)).astype(np.float32))
        held, y = self.held_bytes(x, kernel)
        out_bytes = y.data.nbytes
        assert held <= out_bytes + (16 << 10), (held, out_bytes)
        y.sum().backward()
        assert kernel.grad.any()


def padded_columns(x, k, stride):
    """im2col by its definition: x same-padded with np.pad, then each tap's
    strided window sliced out, as (N, C, k, k, h_out, w_out)."""
    n, c, h, w = x.shape
    h_out, pt, pb = tensor_mod._same_pads(h, k, stride)
    w_out, pl, pr = tensor_mod._same_pads(w, k, stride)
    padded = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    return np.stack([np.stack([padded[:, :, ky:ky + (h_out - 1) * stride + 1:stride,
                                      kx:kx + (w_out - 1) * stride + 1:stride]
                               for kx in range(k)], axis=2) for ky in range(k)], axis=2)


class TestIm2col:
    """_im2col reads the unpadded input through clipped tap windows and
    writes +0.0 into the strips the clip leaves out: its columns are those
    of np.pad plus slicing."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    @pytest.mark.parametrize("h,w", [(7, 6), (6, 9), (1, 1), (2, 1), (1, 3)],
                             ids=["odd-even", "even-odd", "1x1", "2x1", "1x3"])
    def test_same_columns_as_padding_then_slicing(self, h, w, stride, k):
        rng = np.random.default_rng([53, h, w, stride, k])
        x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
        x[0, 0] = -0.0  # the input's own -0.0 stays; the padding is +0.0
        h_out, pt, _ = tensor_mod._same_pads(h, k, stride)
        w_out, pl, _ = tensor_mod._same_pads(w, k, stride)
        cols = np.full((2, 3, k, k, h_out, w_out), np.nan, dtype=np.float32)  # every byte is written
        got = tensor_mod._im2col(x, k, stride, pt, pl, cols)
        want = padded_columns(x, k, stride)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def column_form(x0, k0, b0, g0, stride, dtype=np.float32):
    """Reference for the one-output-channel conv2d: the column form it
    replaces. y = w2 @ im2col(x), dW = sum over samples of g @ cols.T, and
    dx = col2im(w2.T @ g), an outer product whose taps col2im adds in order.
    With dtype float64 and |operands| it gives each element's sum of |terms|."""
    n, c, h, w = x0.shape
    k = k0.shape[2]
    h_out, pt, pb = tensor_mod._same_pads(h, k, stride)
    w_out, pl, pr = tensor_mod._same_pads(w, k, stride)
    padded = np.pad(x0.astype(dtype), ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cols = padded_columns(x0.astype(dtype), k, stride).reshape(n, c * k * k, -1)
    w2 = k0.reshape(1, c * k * k).astype(dtype)
    g3 = g0[:, :, :h_out, :w_out].reshape(n, 1, h_out * w_out).astype(dtype)
    y = np.matmul(w2, cols).reshape(n, 1, h_out, w_out) + b0.astype(dtype)
    dw = np.zeros((1, c * k * k))
    for a, b in zip(g3, cols):
        dw += np.matmul(a, b.T)
    dpad = np.zeros(padded.shape, dtype)
    dcols = np.matmul(w2.T, g3).reshape(n, c, k, k, h_out, w_out)
    for ky in range(k):
        for kx in range(k):
            dpad[:, :, ky:ky + (h_out - 1) * stride + 1:stride,
                 kx:kx + (w_out - 1) * stride + 1:stride] += dcols[:, :, ky, kx]
    return {"y": y, "x": dpad[:, :, pt:pt + h, pl:pl + w],
            "kernel": dw.astype(dtype).reshape(k0.shape),
            "bias": g3.sum(axis=(0, 2), dtype=np.float64).astype(dtype)}


def assert_within_fp32_bound(new, x0, k0, b0, g0, stride, names):
    """The grid path against the column form, per element, within twice the
    standard float32 forward-error bound gamma_n * sum|terms| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.1): each form is
    within that of the exact sum, whatever order it adds its n terms in.
    n counts the terms of the longest sum: C*k*k products and the bias for
    y; k*k taps for dx; the padded grid (which holds every output pixel)
    for each sample's dW product, plus n for the batch sum: its n - 1
    float32 additions, or the column form's one rounding of its float64
    total."""
    ref = column_form(x0, k0, b0, g0, stride)
    terms = column_form(np.abs(x0), np.abs(k0), np.abs(b0), np.abs(g0), stride, np.float64)
    n, c, h, w = x0.shape
    k = k0.shape[2]
    _, pt, pb = tensor_mod._same_pads(h, k, stride)
    _, pl, pr = tensor_mod._same_pads(w, k, stride)
    u = np.finfo(np.float32).eps / 2
    count = {"y": c * k * k + 1, "x": k * k, "kernel": (h + pt + pb) * (w + pl + pr) + n}
    for name in names:
        gamma = count[name] * u / (1 - count[name] * u)
        err = np.abs(new[name].astype(np.float64) - ref[name])
        assert np.all(err <= 2 * gamma * terms[name]), (name, float(err.max()))


class TestOneOutputChannelBackward:
    """With one output channel conv2d builds no im2col columns: it works on
    the padded grid through the k*k tap offsets, one sample at a time, on a
    batch or (sliced) on one sample per call. Its sums run in another order
    than the column form's, so they are held to the column form within the
    float32 forward-error bound."""

    @staticmethod
    def grads(monkeypatch, x0, k0, b0, g0, stride, sliced):
        """The batch's results, and the samples of each shifted gradient built."""
        calls = []
        shift_taps = tensor_mod._shift_taps

        def spy(shifted, g, *args):
            calls.append(len(g))
            return shift_taps(shifted, g, *args)

        monkeypatch.setattr(tensor_mod, "_shift_taps", spy)
        run = TestConv2dBatchSlices.run
        if sliced:
            return run_in_slices(run, x0, k0, b0, g0, stride, 1), calls
        return run(x0, k0, b0, g0, stride), calls

    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_same_bits_as_the_column_form(self, monkeypatch, stride, sliced):
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal((3, 5, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(1).astype(np.float32)
        g0 = rng.standard_normal((3, 1, 11, 9)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        new, calls = self.grads(monkeypatch, x0, k0, b0, g0, stride, sliced)
        # The column-free path ran: each sample's shifted gradient is built
        # twice, once for the weight gradient and once for the adjoint.
        assert calls == [1] * 6
        assert_within_fp32_bound(new, x0, k0, b0, g0, stride, ("y", "x", "kernel"))
        if not sliced:
            assert new["bias"].tobytes() == column_form(x0, k0, b0, g0, stride)["bias"].tobytes()

    @pytest.mark.parametrize("sliced", [False, True])
    def test_taps_add_in_column_order(self, monkeypatch, sliced):
        # The first two taps are +-1e12 and the gradient is constant along
        # rows, so off the edges they cancel exactly in the column form and
        # leave the small taps' sum. The grid path adds the taps in another
        # order; the bound, which scales with sum|w*g|, judges it.
        rng = np.random.default_rng(32)
        x0 = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        k0 = rng.standard_normal((1, 3, 3, 3)).astype(np.float32)
        k0[0, :, 0, 0] = np.float32(1e12)
        k0[0, :, 0, 1] = np.float32(-1e12)
        b0 = np.zeros(1, np.float32)
        g0 = np.repeat(rng.standard_normal((2, 1, 8, 1)).astype(np.float32), 8, axis=3)
        new, calls = self.grads(monkeypatch, x0, k0, b0, g0, 1, sliced)
        assert calls == [1] * 4
        ref = column_form(x0, k0, b0, g0, 1)
        assert np.median(np.abs(ref["x"])) < 1e3  # the big taps cancelled off the edges
        assert_within_fp32_bound(new, x0, k0, b0, g0, 1, ("x",))

    @staticmethod
    def grads_and_references(stride):
        """conv2d's input and weight gradients with one output channel, and
        their references: the adjoint added into zeros and the lowering's own
        weight gradient."""
        # The input gradient must be that of adding the adjoint into zeros,
        # which turns -0.0 into +0.0. x is a leaf whose gradient buffer holds
        # -0.0, which adding conv2d's dx into leaves with dx's bytes.
        rng = np.random.default_rng(36)
        x0 = rng.standard_normal((3, 5, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
        k0[0, 0] = -np.abs(k0[0, 0])  # w * +0.0 is -0.0 on this channel
        g0 = rng.standard_normal((3, 1, 11, 9)).astype(np.float32)
        g0[g0 > 0.3] = 0.0
        g0[g0 < -1.0] = -0.0
        x = Tensor(x0)
        x.grad[...] = -0.0
        kernel = Tensor(k0)
        y = conv2d(x, kernel, zero_bias(1), stride=stride)
        g = np.ascontiguousarray(g0[:, :, :y.shape[2], :y.shape[3]])
        (y * Tensor(g)).sum().backward()

        n, c, hh, ww = x0.shape
        w2 = k0.reshape(1, c * 9)
        _, dw = tensor_mod._lower(x0, 3, stride, outer=g.reshape(n, 1, -1))
        want_dx = tensor_mod._adjoint(g.reshape(n, 1, -1), w2, 3, stride, hh, ww)
        return x.grad, kernel.grad, want_dx, dw.reshape(k0.shape)

    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_dx_keeps_the_bytes_of_the_adjoint_added_into_zeros(self, stride):
        dx, dw, want_dx, want_dw = self.grads_and_references(stride)
        assert dx.tobytes() == want_dx.tobytes()
        assert dw.tobytes() == want_dw.tobytes()

    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_dx_turns_the_negative_zeros_of_a_matmul_positive(self, monkeypatch, stride):
        # Negative control for the test above: OpenBLAS writes these zeros
        # as +0.0, so there a copy of W_taps @ G, not added into zeros, would
        # pass. Here every zero that matmul writes is -0.0, and adding into
        # zeros still gives +0.0.
        monkeypatch.setattr(tensor_mod, "np", NegativeZeroMatmul())
        dx, _, want_dx, _ = self.grads_and_references(stride)
        zeros = want_dx == 0
        assert zeros.any() and not np.signbit(want_dx[zeros]).any()
        assert dx.tobytes() == want_dx.tobytes()

    def test_more_output_channels_keep_the_columns(self, monkeypatch):
        rng = np.random.default_rng(33)
        calls = []
        monkeypatch.setattr(tensor_mod, "_shift_taps", lambda *args: calls.append(args))
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((2, 3, 3, 3)).astype(np.float32))
        conv2d(x, kernel, zero_bias(2)).sum().backward()
        assert calls == [] and x.grad.any()

    def test_builds_no_columns(self, monkeypatch):
        # Peak allocation of a forward and of a backward, each below one
        # sample's C*k*k*H*W columns; a column-form forward builds them.
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((2, 24, 32, 32)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((1, 24, 3, 3)).astype(np.float32))
        cols_bytes = 24 * 3 * 3 * 32 * 32 * 4
        g = np.ones((2, 1, 32, 32), dtype=np.float32)
        peaks = []
        for step in ("forward", "backward"):
            tracemalloc.start()
            try:
                if step == "forward":
                    y = conv2d(x, kernel, zero_bias(1), stride=1)
                else:
                    y._backward_fn(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < cols_bytes, (peaks, cols_bytes)
        assert x.grad.any() and kernel.grad.any()

    def test_backward_peak_holds_one_input_gradient(self, monkeypatch):
        # The final layer's shape at 32 px, on an interior input, one range:
        # the adjoint adds each sample's crop into the input gradient, so the
        # backward holds that gradient and one sample's scratch. A padded
        # buffer of the whole batch plus its crop would hold about 2.2x.
        monkeypatch.setattr(tensor_mod, "_width", 1)
        rng = np.random.default_rng(39)
        x = Tensor(rng.standard_normal((4, 24, 32, 32)).astype(np.float32))
        h = x * Tensor(np.ones(x.shape, np.float32))
        kernel = Tensor(rng.standard_normal((1, 24, 3, 3)).astype(np.float32))
        y = conv2d(h, kernel, zero_bias(1), stride=1)
        g = rng.standard_normal(y.shape).astype(np.float32)
        tracemalloc.start()
        try:
            y._backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * h.grad.nbytes, (peak, h.grad.nbytes)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_operational_grads_match_fd(self, stride, q):
        # The final layer's op in isolation, at the oper kind's step sizes
        # (3e-3 for the power-expanded input, 1e-2 for the linear ones) and
        # threshold (1e-3).
        rng = np.random.default_rng([35, stride, q])
        x = Tensor(rng.uniform(-0.9, 0.9, (2, 2, 6, 5)).astype(np.float32))
        kernel = Tensor(rng.uniform(-0.4, 0.4, (1, 2 * q, 3, 3)).astype(np.float32))
        bias = Tensor(rng.uniform(-0.2, 0.2, 1).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (2, 1, 6, 5)).astype(np.float32)

        def loss_of(ts):
            y = conv2d(power_expand(ts["x"], q), ts["kernel"], ts["bias"], stride=stride)
            return (y * Tensor(g[:, :, :y.shape[2], :y.shape[3]])).sum()

        tensors = {"x": x, "kernel": kernel, "bias": bias}
        loss_of(tensors).backward()
        for name, t in tensors.items():
            def f(c, name=name):
                trial = dict(tensors)
                trial[name] = c
                return loss_of(trial).item()
            numeric = finite_diff_grad(f, t, 3e-3 if name == "x" else 1e-2)
            assert rel_err(t.grad, numeric.data) < 1e-3, name


class TestConvTranspose:
    def test_single_pixel_scatter(self):
        x = Tensor(np.full((1, 1, 1, 1), 5.0, dtype=np.float32))
        k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = conv2d_transpose(x, k, zero_bias(1), stride=2)
        assert np.array_equal(out.data[0, 0], [[5.0, 5.0], [5.0, 5.0]])

    def test_output_size_is_stride_times_input(self):
        x = Tensor(np.zeros((1, 3, 7, 7), dtype=np.float32))
        k = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
        assert conv2d_transpose(x, k, zero_bias(2), stride=2).shape == (1, 2, 14, 14)
        assert conv2d_transpose(x, k, zero_bias(2), stride=1).shape == (1, 2, 7, 7)

    def test_1x1_kernel_stride1_equals_conv_with_swapped_axes(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32))
        w = rng.uniform(-1, 1, (3, 2, 1, 1)).astype(np.float32)
        a = conv2d_transpose(x, Tensor(w), zero_bias(2), stride=1)
        b = conv2d(x, Tensor(np.transpose(w, (1, 0, 2, 3)).copy()), zero_bias(2), stride=1)
        assert np.abs(a.data - b.data).max() < 1e-6

    def test_is_adjoint_of_strided_conv(self, monkeypatch):
        # Both ops run the same adjoint on the same operands, so the bits
        # match; with one conv output channel it runs on the padded grid, and
        # each sample's shifted gradient is built once for conv2d's weight
        # gradient, once for its adjoint and once for conv2d_transpose's.
        taps = []
        shift_taps = tensor_mod._shift_taps

        def spy(shifted, *args):
            taps.append(shifted.shape)
            return shift_taps(shifted, *args)

        monkeypatch.setattr(tensor_mod, "_shift_taps", spy)
        rng = np.random.default_rng(7)
        for cout in (5, 1):
            for stride, k in ((1, 3), (2, 3), (2, 2)):
                x = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32))
                w = rng.uniform(-1, 1, (cout, 3, k, k)).astype(np.float32)
                out = conv2d(x, Tensor(w), zero_bias(cout), stride=stride)
                g = rng.uniform(-1, 1, out.shape).astype(np.float32)
                (out * Tensor(g)).sum().backward()
                pulled_back = conv2d_transpose(Tensor(g), Tensor(w), zero_bias(3), stride=stride)
                assert pulled_back.data.tobytes() == x.grad.tobytes(), (cout, stride, k)
                assert len(taps) == (0 if cout > 1 else 3 * len(g)) and len(set(taps)) <= 1
                taps.clear()

    @pytest.mark.parametrize("cin", [3, 1])
    def test_input_gradient_is_taken_without_a_copy(self, monkeypatch, cin):
        # The lowering's output is a fresh array nothing else holds, so it
        # becomes the input's first gradient as it is. h = x * ones takes it
        # unmixed with a leaf's zeros.
        owned_flags = {}
        accumulate = tensor_mod._accumulate

        def spy(node, grad, owned=False):
            owned_flags[id(node)] = owned
            accumulate(node, grad, owned)

        monkeypatch.setattr(tensor_mod, "_accumulate", spy)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, cin, 5, 6)).astype(np.float32))
        h = x * Tensor(np.ones(x.shape, np.float32))
        kernel = Tensor(rng.standard_normal((cin, 4, 3, 3)).astype(np.float32))
        y = conv2d_transpose(h, kernel, zero_bias(4), stride=2)
        y._backward_fn(np.ones(y.shape, dtype=np.float32))
        assert owned_flags[id(h)] is True
        assert h.grad.any()

    def test_grads_match_fd(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.uniform(-0.5, 0.5, (2, 3, 3, 3)).astype(np.float32))
        b = Tensor(rng.uniform(-0.2, 0.2, 3).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (1, 3, 8, 8)).astype(np.float32)

        def loss_of(xs):
            return (conv2d_transpose(xs["x"], xs["w"], xs["b"], stride=2) * Tensor(g)).sum()

        tensors = {"x": x, "w": w, "b": b}
        loss_of(tensors).backward()
        for name, t in tensors.items():
            def f(c, name=name):
                trial = dict(tensors)
                trial[name] = c
                return loss_of(trial).item()
            numeric = finite_diff_grad(f, t, 1e-2)
            assert rel_err(t.grad, numeric.data) < 1e-3, name


class TestConvTransposeBatchSlices:
    """conv2d_transpose runs its forward on the adjoint and its backward on
    the lowering, each over the whole batch at once; the batch must give the
    bits of its samples run in slices."""

    @staticmethod
    def run(x0, k0, b0, g0, stride):
        x, kernel, bias = Tensor(x0), Tensor(k0), Tensor(b0)
        y = conv2d_transpose(x, kernel, bias, stride=stride)
        (y * Tensor(g0)).sum().backward()
        return {"y": y.data, "x": x.grad, "kernel": kernel.grad, "bias": bias.grad}

    @pytest.mark.parametrize("cin", [3, 1])
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_slicing_changes_no_bits(self, stride, size, cin):
        rng = np.random.default_rng(41)
        x0 = rng.standard_normal((3, cin, 5, 6)).astype(np.float32)
        k0 = rng.standard_normal((cin, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(4).astype(np.float32)
        g0 = rng.standard_normal((3, 4, 5 * stride, 6 * stride)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        whole = self.run(x0, k0, b0, g0, stride)
        sliced = run_in_slices(self.run, x0, k0, b0, g0, stride, size)
        for name, arr in sliced.items():
            assert whole[name].tobytes() == arr.tobytes(), name

    def test_backward_lowers_each_sample_once(self, monkeypatch):
        # Decoder block 5 at 224 px, Q=3: 16*3 channels at 112 px up to 8 at
        # 224 px. The backward lowers the batch of 8 once, in three sample
        # ranges, and forms the input gradient and the weight-gradient
        # products from each range's one build: the ranges cover samples 0-7
        # exactly once.
        monkeypatch.setattr(tensor_mod, "_width", 3)
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((8, 48, 112, 112)).astype(np.float32))
        kernel = Tensor(rng.uniform(-0.1, 0.1, (48, 8, 3, 3)).astype(np.float32))
        y = conv2d_transpose(x, kernel, zero_bias(8), stride=2)
        ranges = []
        im2col = tensor_mod._im2col

        def spy(xs, k, stride, pt, pl, cols):
            whole = xs  # a range's view of the batch's input
            while whole.base is not None:
                whole = whole.base
            start = (xs.ctypes.data - whole.ctypes.data) // xs.strides[0]
            ranges.append(range(start, start + len(xs)))
            return im2col(xs, k, stride, pt, pl, cols)

        monkeypatch.setattr(tensor_mod, "_im2col", spy)
        y._backward_fn(np.ones(y.shape, dtype=np.float32))
        assert len(ranges) == 3
        assert sorted(i for r in ranges for i in r) == list(range(8))
        assert x.grad.any() and kernel.grad.any()

    def test_weight_gradient_peak_holds_one_float32_product(self, monkeypatch):
        # Decoder block 1's transpose backward at 64 px, Q=3: 768 input
        # channels on a 2x2 grid up to 128 on 4x4, so the (768, 1152) weight
        # gradient outweighs the columns 48 times. The lowering holds its
        # columns, one sample's float32 product, the float32 dw it adds the
        # products onto and its output; a float64 dw holds 3.4 MiB more.
        monkeypatch.setattr(tensor_mod, "_width", 1)
        rng = np.random.default_rng(46)
        g = rng.standard_normal((4, 128, 4, 4)).astype(np.float32)
        w2 = rng.standard_normal((768, 128 * 9)).astype(np.float32)
        outer = rng.standard_normal((4, 768, 4)).astype(np.float32)
        tracemalloc.start()
        try:
            y, dw = tensor_mod._lower(g, 3, 2, w2=w2, outer=outer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cols_bytes = len(g) * w2.shape[1] * outer.shape[2] * 4
        product_bytes = w2.size * 4
        bound = cols_bytes + 2 * product_bytes + y.nbytes + (1 << 20)
        assert peak <= bound, (peak, bound)
        assert dw.dtype == np.float32 and dw.shape == w2.shape and dw.any()

    def test_peak_holds_the_whole_column_buffer(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 2, 16, 16)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((2, 8, 3, 3)).astype(np.float32))
        cols_bytes = 4 * 8 * 3 * 3 * 16 * 16 * 4
        g = np.ones((4, 8, 16, 16), dtype=np.float32)
        peaks = []
        for step in ("forward", "backward"):
            tracemalloc.start()
            try:
                if step == "forward":
                    y = conv2d_transpose(x, kernel, zero_bias(8), stride=1)
                else:
                    y._backward_fn(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert min(peaks) >= cols_bytes  # the whole batch is lowered at once
        assert x.grad.any() and kernel.grad.any()


@contextlib.contextmanager
def pool_width(monkeypatch, width):
    """Every routed op splits its range, however small, into at most
    ``width`` ranges, on a pool of width - 1 threads, with the interpreter
    switching threads often."""
    pool = ThreadPoolExecutor(max_workers=max(width - 1, 1))
    monkeypatch.setattr(tensor_mod, "_width", width)
    monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(tensor_mod, "_pool", pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


class TestSampleRanges:
    """Each convolution splits its batch into contiguous sample ranges, one
    per usable CPU, run side by side; a sample's arithmetic is that of a
    batch of its own, so no bit depends on the number of ranges."""

    @staticmethod
    def run(op, x0, k0, b0, g0, stride):
        x, kernel, bias = Tensor(x0), Tensor(k0), Tensor(b0)
        y = op(x, kernel, bias, stride=stride)
        (y * Tensor(g0[:, :, :y.shape[2], :y.shape[3]])).sum().backward()
        return {"y": y.data, "x": x.grad, "kernel": kernel.grad, "bias": bias.grad}

    # (op, cin, cout): the column path, and the one-row path (one output
    # channel for conv2d, one input channel for conv2d_transpose).
    CASES = [(conv2d, 4, 3), (conv2d, 4, 1), (conv2d_transpose, 3, 4), (conv2d_transpose, 1, 4)]

    @pytest.mark.parametrize("batch", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    @pytest.mark.parametrize("op,cin,cout", CASES,
                             ids=["conv2d-cols", "conv2d-one-row", "transpose-cols", "transpose-one-row"])
    def test_bits_do_not_depend_on_the_pool_width(self, monkeypatch, op, cin, cout, stride, batch):
        rng = np.random.default_rng([44, stride, batch, cin, cout])
        x0 = rng.standard_normal((batch, cin, 7, 6)).astype(np.float32)
        kshape = (cout, cin, 3, 3) if op is conv2d else (cin, cout, 3, 3)
        k0 = rng.standard_normal(kshape).astype(np.float32)
        b0 = rng.standard_normal(cout).astype(np.float32)
        up = 1 if op is conv2d else stride
        g0 = rng.standard_normal((batch, cout, 7 * up, 6 * up)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        if batch > 2:
            # As in the batch-order test: sample 2 cancels sample 0, so a
            # weight gradient added up range by range rounds otherwise.
            x0[0] *= BIG
            x0[2], g0[2] = -x0[0], g0[0]
        results = []
        for width in (1, 2, 3):
            with pool_width(monkeypatch, width):
                results.append(self.run(op, x0, k0, b0, g0, stride))
        for name in results[0]:
            assert results[0][name].any(), name
            for width, result in zip((2, 3), results[1:]):
                assert result[name].tobytes() == results[0][name].tobytes(), (name, width)

    @staticmethod
    def assert_same_bytes_at_every_width(monkeypatch, run):
        """run() returns named arrays; at pool widths 1, 2 and 3 each must
        have the same bytes, and none may be all zeros."""
        results = []
        for width in (1, 2, 3):
            with pool_width(monkeypatch, width):
                results.append({name: a.copy() for name, a in run().items()})
        for name in results[0]:
            assert results[0][name].any(), name
            for width, result in zip((2, 3), results[1:]):
                assert result[name].tobytes() == results[0][name].tobytes(), (name, width)

    @pytest.mark.parametrize("shape", [(3, 7, 5, 6), (2, 11, 4, 4)], ids=["3-blocks", "5-blocks"])
    def test_batchnorm_bits_do_not_depend_on_the_pool_width(self, monkeypatch, shape):
        n, c, h, w = shape
        monkeypatch.setattr(tensor_mod, "_BN_BLOCK_BYTES", 8 * n * 2 * h * w)  # two channels a block
        assert len(tensor_mod._channel_blocks(shape)) in (3, 5)
        rng = np.random.default_rng([47, c])
        x0 = (rng.standard_normal(shape) * 1.7 + 0.4).astype(np.float32)
        x0[:, 1] = 0.3  # a zero-variance channel
        gamma0 = rng.uniform(0.5, 1.5, c).astype(np.float32)
        gamma0[-1] = 20.0  # the tanh saturates: y = +-1 and 1 - y*y = 0
        beta0 = rng.uniform(-0.3, 0.3, c).astype(np.float32)
        g0 = rng.standard_normal(shape).astype(np.float32)
        stats0 = rng.uniform(0.5, 2.0, (2, c)).astype(np.float32)

        def run():
            x, gamma, beta = Tensor(x0), Tensor(gamma0), Tensor(beta0)
            running_mean, running_var = stats0.copy()
            y = batchnorm(x, gamma, beta, running_mean, running_var, 0.9, 1e-5, True)
            (y * Tensor(g0)).sum().backward()
            return {"y": y.data, "x": x.grad, "gamma": gamma.grad, "beta": beta.grad,
                    "running_mean": running_mean, "running_var": running_var}

        self.assert_same_bytes_at_every_width(monkeypatch, run)

    @pytest.mark.parametrize("batch", [3, 5])
    def test_elementwise_bits_do_not_depend_on_the_pool_width(self, monkeypatch, batch):
        rng = np.random.default_rng([48, batch])
        x0 = rng.uniform(-3.0, 3.0, (batch, 3, 7, 5)).astype(np.float32)
        x0[..., 0] = 0.0
        ops = {"power_expand": lambda t: power_expand(t, 3), "sigmoid": Tensor.sigmoid}
        g0 = {name: rng.standard_normal((batch, 9 if name == "power_expand" else 3, 7, 5))
              .astype(np.float32) for name in ops}

        def run():
            out = {}
            for name, op in ops.items():
                x = Tensor(x0)
                y = op(x)
                (y * Tensor(g0[name])).sum().backward()
                out[name], out[f"{name} dx"] = y.data, x.grad
            return out

        self.assert_same_bytes_at_every_width(monkeypatch, run)

    def test_adam_bits_do_not_depend_on_the_pool_width(self):
        block = optim_mod.BLOCK
        shapes = [(block + 17,), (1,), (2 * block + 3,), (16, 24, 3, 3)]  # four blocks end to end
        rng = np.random.default_rng(49)
        start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(3)]

        def run():
            params = [Tensor(a.copy()) for a in start]  # the steps update .data in place
            opt = Adam([(f"p{i}", t) for i, t in enumerate(params)], lr=3e-3)
            for step in grads:
                for t, g in zip(params, step):
                    t.grad[...] = g
                opt.step()
            return {f"{kind}{i}": a for kind, arrays in (("p", [t.data for t in params]),
                                                          ("m", opt.m), ("v", opt.v))
                    for i, a in enumerate(arrays)}

        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_same_bytes_at_every_width(monkeypatch, run)

    @pytest.mark.parametrize("op", [conv2d, conv2d_transpose], ids=["conv2d", "transpose"])
    def test_weight_gradient_products_split_exactly_when_the_batch_does(self, monkeypatch, op):
        # At width 1 the column path forms the products one at a time, on
        # the calling thread into one buffer; at widths 2 and 3 side by side,
        # in the lowering's ranges, each into its own slot of a batch buffer.
        ranges = {}
        split = tensor_mod._split
        products = []  # (on the calling thread, address written)

        def record(n, work, floor, fn):
            ranges[fn.__name__] = tensor_mod._ranges(n, work, floor)
            split(n, work, floor, fn)

        class ProductSpy:
            """numpy, recording each matmul with a 2-D output: the column
            path's weight-gradient products."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out=None):
                if out is not None and out.ndim == 2:
                    products.append((threading.current_thread() is threading.main_thread(),
                                     out.ctypes.data))
                return np.matmul(a, b, out=out)

        monkeypatch.setattr(tensor_mod, "_split", record)
        monkeypatch.setattr(tensor_mod, "np", ProductSpy())
        rng = np.random.default_rng([50, 1 << 20])
        x0 = rng.standard_normal((5, 4, 7, 6)).astype(np.float32)
        k0 = rng.standard_normal((3, 4, 3, 3) if op is conv2d else (4, 3, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(3).astype(np.float32)
        g0 = rng.standard_normal((5, 3, 14, 12)).astype(np.float32)
        x0[0] *= BIG  # sample 2 cancels sample 0, as above
        x0[2], g0[2] = -x0[0], g0[0]
        seen = []

        def run():
            ranges.clear()
            products.clear()
            result = self.run(op, x0, k0, b0, g0, 2)
            seen.append((dict(ranges), list(products)))
            return result

        self.assert_same_bytes_at_every_width(monkeypatch, run)
        names, formed = seen[0]
        assert names["lower"] == 1 and len(formed) == 5
        assert all(on_caller for on_caller, _ in formed) and len({a for _, a in formed}) == 1
        for width, (names, formed) in zip((2, 3), seen[1:]):
            assert names["lower"] == width, names
            assert len(formed) == len({a for _, a in formed}) == 5
            assert sum(on_caller for on_caller, _ in formed) == 5 // width  # the first range's

    def test_per_range_partial_sums_of_the_weight_gradient_round_otherwise(self, monkeypatch):
        # Negative control for the tests above: adding each range's products
        # into a partial of its own, and then the partials, rounds otherwise
        # on the cancelling samples.
        rng = np.random.default_rng(51)
        x0 = rng.standard_normal((5, 4, 7, 6)).astype(np.float32)
        k0 = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(3).astype(np.float32)
        g0 = rng.standard_normal((5, 3, 7, 6)).astype(np.float32)
        x0[0] *= BIG
        x0[4], g0[4] = -x0[0], g0[0]  # the last sample cancels the first
        # Each one-sample kernel gradient is that sample's float32 product.
        products = [self.run(conv2d, x0[i:i + 1], k0, b0, g0[i:i + 1], 1)["kernel"] for i in range(5)]
        want = batch_sum(products, np.float32)
        for width in (1, 2, 3):
            with pool_width(monkeypatch, width):
                assert self.run(conv2d, x0, k0, b0, g0, 1)["kernel"].tobytes() == want.tobytes()
            bounds = [i * 5 // width for i in range(width + 1)]
            partials = batch_sum([batch_sum(products[a:b], np.float32)
                                  for a, b in zip(bounds, bounds[1:])], np.float32)
            assert (partials.tobytes() == want.tobytes()) == (width == 1)

    def test_each_routed_op_runs_inline_below_its_floor(self, monkeypatch):
        # At width 3 each op splits when its work reaches its floor and runs
        # as one range when the floor is one more.
        rng = np.random.default_rng(52)
        x0 = rng.standard_normal((3, 6, 5, 4)).astype(np.float32)
        monkeypatch.setattr(tensor_mod, "_BN_BLOCK_BYTES", 8 * 3 * 2 * 5 * 4)  # three blocks
        ones, zeros = Tensor(np.ones(6, np.float32)), Tensor(np.zeros(6, np.float32))
        params = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in [(optim_mod.BLOCK,)] * 3]
        opt = Adam([(f"p{i}", t) for i, t in enumerate(params)], lr=1e-3)
        kernel = Tensor(rng.standard_normal((2, 6, 3, 3)).astype(np.float32))

        def loss_of(op):
            return lambda: op(Tensor(x0)).sum().backward()

        cases = [
            ("batchnorm", "_SPLIT_MIN_BYTES", x0.nbytes, loss_of(
                lambda x: batchnorm(x, ones, zeros, np.zeros(6, np.float32), np.ones(6, np.float32),
                                    0.9, 1e-5, True))),
            ("power_expand", "_SPLIT_MIN_BYTES", x0.nbytes, loss_of(lambda x: power_expand(x, 3))),
            ("sigmoid", "_SPLIT_MIN_BYTES", x0.nbytes, loss_of(Tensor.sigmoid)),
            ("adam", "_SPLIT_MIN_BYTES", 3 * 4 * optim_mod.BLOCK, opt.step),
            ("conv2d", "_SPLIT_MIN_MACS", kernel.size * 3 * 2, loss_of(
                lambda x: conv2d(x, kernel, zero_bias(2), stride=2))),
        ]
        ranges = []
        split = tensor_mod._split

        def record(n, work, floor, fn):
            ranges.append(tensor_mod._ranges(n, work, floor))
            split(n, work, floor, fn)

        with pool_width(monkeypatch, 3):
            monkeypatch.setattr(tensor_mod, "_split", record)
            for name, floor, work, run in cases:
                for value, want in ((work + 1, {1}), (work, {3})):
                    monkeypatch.setattr(tensor_mod, floor, value)
                    ranges.clear()
                    run()
                    assert set(ranges) == want, (name, value)
                monkeypatch.setattr(tensor_mod, floor, 0)

    def test_ranges_cover_the_batch_once_and_the_caller_runs_the_first(self, monkeypatch):
        calls = []

        def record(a, b):
            calls.append((a, b, threading.current_thread() is threading.main_thread()))

        with pool_width(monkeypatch, 3):
            for n in (1, 2, 5):
                tensor_mod._split(n, 0, 0, record)
                spans = sorted(calls)
                assert [i for a, b, _ in spans for i in range(a, b)] == list(range(n))
                assert len(spans) == min(3, n)
                assert [on_caller for a, _, on_caller in spans] == [a == 0 for a, _, _ in spans]
                calls.clear()
            # Samples below the work floor run inline as one range.
            tensor_mod._split(5, 99, 100, record)
            assert calls == [(0, 5, True)]
            calls.clear()
            tensor_mod._split(5, 100, 100, record)
            assert sorted(calls) == [(0, 1, True), (1, 3, False), (3, 5, False)]

    def test_a_failing_range_raises_after_every_range_is_done(self, monkeypatch):
        done = []

        def work(a, b):
            if a == 0:
                raise MemoryError("range 0")
            time.sleep(0.05)
            done.append(a)

        with pool_width(monkeypatch, 3):
            with pytest.raises(MemoryError, match="range 0"):
                tensor_mod._split(6, 0, 0, work)
            assert sorted(done) == [2, 4]

    def test_the_first_split_imports_the_pool(self):
        # In a fresh interpreter: importing the package brings in no thread
        # pool module (it imports logging too); the first split does.
        script = "\n".join([
            "import sys",
            "import osegnet",
            "from osegnet import tensor",
            "assert 'concurrent.futures' not in sys.modules and tensor._pool is None",
            "tensor._width = 2",
            "tensor._split(2, 0, 0, lambda a, b: None)",
            "assert 'concurrent.futures' in sys.modules and tensor._pool is not None",
        ])
        src = Path(tensor_mod.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_pool_that_runs(self, monkeypatch):
        # The parent's pool has a worker thread when it forks; the child has
        # none, so without a fresh pool its split ops wait forever.
        monkeypatch.setattr(tensor_mod, "_width", 2)
        monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_MACS", 0)
        monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(tensor_mod, "_BN_BLOCK_BYTES", 8 * 4 * 2 * 8 * 8)  # two channel blocks
        rng = np.random.default_rng(45)
        x0 = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        k0 = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        w0, g0 = rng.standard_normal((2, 2 * optim_mod.BLOCK + 5)).astype(np.float32)

        def ops():
            x = conv2d(Tensor(x0), Tensor(k0), zero_bias(4))
            y = batchnorm(x, Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32)),
                          np.zeros(4, np.float32), np.ones(4, np.float32), 0.9, 1e-5, True)
            w = Tensor(w0.copy())
            w.grad[...] = g0
            Adam([("w", w)], lr=1e-3).step()  # three blocks in two ranges
            return x.data.tobytes() + y.data.tobytes() + w.data.tobytes()

        expected = ops()  # starts the pool's thread
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if ops() == expected else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish a split conv, batchnorm and Adam step in 30 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0


class TestPowerExpand:
    def test_single_pixel_q3(self):
        x = Tensor(np.full((1, 1, 1, 1), 0.5, dtype=np.float32))
        out = power_expand(x, 3)
        assert np.allclose(out.data.reshape(3), [0.5, 0.25, 0.125])

    def test_q1_returns_input_node(self):
        x = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32))
        assert power_expand(x, 1) is x

    def test_negative_value_sign(self):
        x = Tensor(np.full((1, 1, 1, 1), -0.5, dtype=np.float32))
        out = power_expand(x, 2)
        assert np.allclose(out.data.reshape(2), [-0.5, 0.25])

    def test_powers_contiguous_per_source_channel(self):
        x = Tensor(np.array([2.0, 3.0], dtype=np.float32).reshape(1, 2, 1, 1))
        out = power_expand(x, 3)
        assert np.allclose(out.data.reshape(6), [2.0, 4.0, 8.0, 3.0, 9.0, 27.0])

    def test_first_power_slice_recovers_input(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32))
        for q in (2, 3, 5):
            out = power_expand(x, q)
            assert np.array_equal(out.data[:, 0::q], x.data)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            power_expand(Tensor(np.ones((1, 1, 1, 1))), 0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            power_expand(Tensor(np.ones((1, 1, 1, 1))), -2)

    @staticmethod
    def assert_grad_matches_fd(q):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-0.9, 0.9, (1, 2, 3, 3)).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (1, 2 * q, 3, 3)).astype(np.float32)

        def f(t):
            return (power_expand(t, q) * Tensor(g)).sum()

        f(x).backward()
        numeric = finite_diff_grad(lambda t: f(t).item(), x, 3e-3)
        assert rel_err(x.grad, numeric.data) < 1e-3

    def test_grad_matches_fd(self):
        self.assert_grad_matches_fd(5)

    def test_grad_matches_fd_q2(self):
        self.assert_grad_matches_fd(2)


class TestBatchnormOp:
    def test_normalizes_batch(self):
        rng = np.random.default_rng(11)
        x = Tensor((rng.uniform(-1, 1, (4, 2, 5, 5)) * 3 + 1).astype(np.float32))
        out = batchnorm(x, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
                        np.zeros(2, np.float32), np.ones(2, np.float32), 0.99, 1e-5, True)
        normalized = np.arctanh(out.data.astype(np.float64))  # the op ends in tanh
        mean = normalized.mean(axis=(0, 2, 3))
        var = normalized.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1.0).max() < 1e-3

    def test_training_updates_running_stats(self):
        x = Tensor(np.full((1, 1, 2, 2), 4.0, dtype=np.float32))
        rm = np.zeros(1, np.float32)
        rv = np.ones(1, np.float32)
        batchnorm(x, Tensor(np.ones(1, np.float32)), Tensor(np.zeros(1, np.float32)),
                  rm, rv, 0.9, 1e-5, True)
        assert np.isclose(rm[0], 0.1 * 4.0)
        assert np.isclose(rv[0], 0.9 * 1.0)

    def test_inference_uses_running_stats_only(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0, dtype=np.float32))
        rm = np.array([1.0], np.float32)
        rv = np.array([4.0], np.float32)
        out = batchnorm(x, Tensor(np.ones(1, np.float32)), Tensor(np.zeros(1, np.float32)),
                        rm, rv, 0.99, 0.0, False)
        assert np.allclose(out.data, np.tanh((3.0 - 1.0) / 2.0))
        assert rm[0] == 1.0 and rv[0] == 4.0  # untouched

    def test_inference_node_is_graph_free_and_refuses_backward(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0, dtype=np.float32))
        gamma = Tensor(np.ones(1, np.float32))
        out = batchnorm(x, gamma, Tensor(np.zeros(1, np.float32)),
                        np.array([1.0], np.float32), np.array([4.0], np.float32), 0.99, 0.0, False)
        assert (out._parents, out._backward_fn, out.grad) == ((), None, None)
        with pytest.raises(RuntimeError, match="inference mode"):
            out.sum().backward()
        assert not x.grad.any() and not gamma.grad.any()
        # Graph recording is on again for the next op.
        assert (x * Tensor(np.full(x.shape, 2.0, np.float32)))._parents[0] is x

    def test_training_rejects_one_value_per_channel(self):
        # N*H*W = 1 would normalize every value to beta with a zero input
        # gradient; two values per channel, or inference mode, still run.
        gamma, beta = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        x = Tensor(np.arange(3, dtype=np.float32).reshape(1, 3, 1, 1))
        with pytest.raises(ShapeError, match=r"one value per channel.*\(1, 3, 1, 1\)"):
            batchnorm(x, gamma, beta, rm, rv, 0.99, 1e-5, True)
        assert not rm.any() and (rv == 1.0).all()  # running statistics untouched
        batchnorm(x, gamma, beta, rm, rv, 0.99, 1e-5, False)
        pair = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3, 1, 1))
        batchnorm(pair, gamma, beta, rm, rv, 0.99, 1e-5, True).sum().backward()
        assert np.isfinite(pair.grad).all()

    def test_constant_channel_collapses_to_beta(self):
        x = Tensor(np.full((2, 1, 3, 3), 0.7, dtype=np.float32))
        beta = Tensor(np.array([0.25], np.float32))
        out = batchnorm(x, Tensor(np.ones(1, np.float32)), beta,
                        np.zeros(1, np.float32), np.ones(1, np.float32), 0.99, 1e-5, True)
        assert np.allclose(out.data, np.tanh(0.25), atol=1e-6)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(rng.uniform(0.5, 1.5, 3).astype(np.float32))
        beta = Tensor(rng.uniform(-0.3, 0.3, 3).astype(np.float32))
        g = rng.uniform(0.5, 1.5, (2, 3, 4, 4)).astype(np.float32)
        rm = np.zeros(3, np.float32)
        rv = np.ones(3, np.float32)

        def loss_of(xs):
            out = batchnorm(xs["x"], xs["gamma"], xs["beta"], rm.copy(), rv.copy(),
                            0.99, 1e-5, True)
            return (out * Tensor(g)).sum()

        tensors = {"x": x, "gamma": gamma, "beta": beta}
        loss_of(tensors).backward()
        for name, t in tensors.items():
            def f(c, name=name):
                trial = dict(tensors)
                trial[name] = c
                return loss_of(trial).item()
            numeric = finite_diff_grad(f, t, 3e-3)
            assert rel_err(t.grad, numeric.data) < 1e-3, name


def batchnorm_reference(x, gamma, beta, running_mean, running_var, momentum, eps, training, g):
    """tanh of batchnorm as whole-tensor expressions, with its hand-derived backward.

    The channel-blocked op must give these bytes. Updates the running
    statistics in place as the op does and returns h = tanh(y), plus the
    gamma, beta and input gradients for upstream gradient g in training
    mode: batchnorm's backward of g * (1 - h*h), tanh's gradient.
    """
    c = x.shape[1]
    axes = (0, 2, 3)
    if training:
        mu = x.mean(axis=axes, dtype=np.float64)
        var = ((x.astype(np.float64) - mu.reshape(1, c, 1, 1)) ** 2).mean(axis=axes)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu.astype(np.float32)
        running_var *= momentum
        running_var += (1.0 - momentum) * var.astype(np.float32)
    else:
        mu = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(np.float32).reshape(1, c, 1, 1)
    xhat = (x - mu.astype(np.float32).reshape(1, c, 1, 1)) * inv
    y = gamma.reshape(1, c, 1, 1) * xhat + beta.reshape(1, c, 1, 1)
    h = np.tanh(y)
    if not training:
        return (h,)
    dy = g * (1 - h * h)
    dgamma = (dy * xhat).sum(axis=axes, dtype=np.float64).astype(np.float32)
    dbeta = dy.sum(axis=axes, dtype=np.float64).astype(np.float32)
    gs = dy * gamma.reshape(1, c, 1, 1)
    mean_gs = gs.mean(axis=axes, dtype=np.float64).astype(np.float32).reshape(1, c, 1, 1)
    mean_gs_xhat = (gs * xhat).mean(axis=axes, dtype=np.float64)
    mean_gs_xhat = mean_gs_xhat.astype(np.float32).reshape(1, c, 1, 1)
    return h, dgamma, dbeta, inv * (gs - mean_gs - xhat * mean_gs_xhat)


class TestBatchnormChannelBlocks:
    CASES = [
        ((4, 8, 224, 224), False),  # the 224 px model's first encoder batchnorm
        ((3, 1, 17, 19), False),    # C = 1: the one block is one channel
        ((2, 50, 64, 64), False),   # 16-channel blocks; 50 is not a multiple of 16
        ((2, 49, 64, 64), False),   # a lone last channel joins the block before it
        ((2, 5, 300, 300), False),  # a channel exceeds the budget: blocks of two and three
        ((2, 4, 9, 9), True),       # one zero-variance channel
    ]

    @pytest.mark.parametrize("shape", [case[0] for case in CASES])
    def test_blocks_cover_channels_in_twos_or_more(self, shape):
        n, c, h, w = shape
        blocks = tensor_mod._channel_blocks(shape)
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]] and blocks[-1][1] == c
        widths = [c1 - c0 for c0, c1 in blocks]
        assert min(widths) >= min(c, 2)
        assert max(widths) <= max(2, tensor_mod._BN_BLOCK_BYTES // (8 * n * h * w)) + 1

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,constant_channel", CASES)
    def test_same_bytes_as_whole_tensor_formula(self, shape, constant_channel, training):
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = (rng.standard_normal(shape) * 1.7 + 0.4).astype(np.float32)
        if constant_channel:
            x[:, c // 2] = 0.3
        gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
        beta = rng.uniform(-0.3, 0.3, c).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        rm0 = rng.uniform(-0.1, 0.1, c).astype(np.float32)
        rv0 = rng.uniform(0.5, 2.0, c).astype(np.float32)
        rm_ref, rv_ref = rm0.copy(), rv0.copy()
        want = batchnorm_reference(x, gamma, beta, rm_ref, rv_ref, 0.9, 1e-5, training, g)
        ts = [Tensor(x), Tensor(gamma), Tensor(beta)]
        rm, rv = rm0.copy(), rv0.copy()
        out = batchnorm(*ts, rm, rv, 0.9, 1e-5, training)
        got = [out.data]
        if training:
            ts[0].grad = None  # as an intermediate node's: the first gradient is stored, not added
            out._backward_fn(g)
            got += [ts[1].grad, ts[2].grad, ts[0].grad]
        assert (rm.tobytes(), rv.tobytes()) == (rm_ref.tobytes(), rv_ref.tobytes())
        for name, a, b in zip(("y", "dgamma", "dbeta", "dx"), got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_training_makes_no_full_size_temporaries(self):
        rng = np.random.default_rng(31)
        shape = (4, 8, 224, 224)
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        gamma, beta = Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32))
        g = rng.standard_normal(shape).astype(np.float32)
        x.grad = None
        peaks = []
        tracemalloc.start()
        try:
            for step in ("forward", "backward"):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if step == "forward":
                    out = batchnorm(x, gamma, beta, np.zeros(8, np.float32), np.ones(8, np.float32),
                                    0.99, 1e-5, True)
                else:
                    out._backward_fn(g)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / x.data.nbytes)
        finally:
            tracemalloc.stop()
        # Forward keeps its output, tanh's; backward makes the input gradient
        # and forms tanh's gradient in it. The rest is one channel block's
        # buffer: xhat is formed a block at a time, and again in the backward.
        assert peaks[0] < 2.0 and peaks[1] < 2.0, peaks


# Six training steps of the canonical 64 px model (Q=3, batch 4), each on a
# fresh batch ingested as the CLI does; prints each step's minor page faults.
# With "glibc-defaults", glibc's own 128 KiB thresholds are set back after
# the import, which turns its dynamic mmap threshold off.
FAULT_SCRIPT = """
import ctypes, json, resource, sys
import numpy as np
from osegnet import tensor
from osegnet.losses import hybrid_loss
from osegnet.model import ModelConfig, OSegNetModel
from osegnet.optim import Adam

if sys.argv[1] == "glibc-defaults":
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(tensor._M_MMAP_THRESHOLD, 128 << 10)
    mallopt(tensor._M_TRIM_THRESHOLD, 128 << 10)
rng = np.random.default_rng(0)
model = OSegNetModel(ModelConfig(q_order=3, input_size=64), rng)
opt = Adam(model.named_parameters(), lr=1e-3)

def step():
    images = rng.uniform(0, 1, (4, 1, 64, 64)).astype(np.float32)
    with tensor.no_graph():
        x, y = tensor.Tensor(images), tensor.Tensor((images > 0.5).astype(np.float32))
    loss = hybrid_loss(y, model.forward(x, training=True))
    model.zero_grad()
    loss.backward()
    opt.step()

faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def fake_libc(glibc=True, mmap_result=1):
    """A stand-in libc whose mallopt records its calls."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return mmap_result if param == tensor_mod._M_MMAP_THRESHOLD else 1

    libc = types.SimpleNamespace(mallopt=mallopt)
    if glibc:
        libc.gnu_get_libc_version = lambda: b"2.36"
    return libc, calls


class TestMallocPolicy:
    """Importing the engine keeps freed arrays in glibc's heap, so steady-state
    training steps take almost no page faults."""

    @staticmethod
    def step_faults(mode):
        src = Path(tensor_mod.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, mode], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @staticmethod
    def steady(faults):
        """Steps 3-6 take at most a tenth of step 1's faults (median)."""
        return statistics.median(faults[2:]) <= faults[0] / 10

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None) if os.name == "posix" else None,
                                    "gnu_get_libc_version"), reason="needs glibc")
    def test_steady_state_steps_take_almost_no_page_faults(self):
        faults = self.step_faults("engine")
        assert self.steady(faults), faults
        # Negative control: with glibc's default thresholds every step pages
        # its arrays in afresh.
        defaults = self.step_faults("glibc-defaults")
        assert not self.steady(defaults), defaults

    def test_sets_the_mmap_threshold_then_the_trim_threshold(self):
        libc, calls = fake_libc()
        tensor_mod._keep_freed_memory(libc)
        assert calls == [(tensor_mod._M_MMAP_THRESHOLD, 32 << 20),
                         (tensor_mod._M_TRIM_THRESHOLD, 1 << 30),
                         (tensor_mod._M_ARENA_MAX, 1)]

    def test_other_c_libraries_are_left_alone(self):
        libc, calls = fake_libc(glibc=False)
        tensor_mod._keep_freed_memory(libc)
        assert calls == []

    def test_no_trim_threshold_when_the_mmap_threshold_is_refused(self):
        # The trim threshold alone would fix the mmap threshold at 128 KiB.
        libc, calls = fake_libc(mmap_result=0)
        tensor_mod._keep_freed_memory(libc)
        assert calls == [(tensor_mod._M_MMAP_THRESHOLD, 32 << 20)]
