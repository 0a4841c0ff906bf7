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

from osegnet import tensor as tensor_mod
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


class TestElementwise:
    def test_add_mul_examples(self):
        a = Tensor([2.0, 3.0])
        b = Tensor([4.0, 5.0])
        assert np.allclose((a * b).data, [8.0, 15.0])
        assert np.allclose((a + b).data, [6.0, 8.0])
        assert np.allclose((a - b).data, [-2.0, -2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2))) * Tensor(np.ones((4,)))

    def test_scalar_broadcast_allowed(self):
        a = Tensor([1.0, 2.0])
        out = a * 3.0 + 1.0
        assert np.allclose(out.data, [4.0, 7.0])
        out.sum().backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_activation_symmetry_points(self):
        assert Tensor([0.0]).tanh().data[0] == 0.0
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

    def test_clip_gradient_mask(self):
        x = Tensor([-1.0, 0.3, 2.0])
        y = x.clip(0.0, 1.0)
        assert np.allclose(y.data, [0.0, 0.3, 1.0])
        y.sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_example(self):
        assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_mean(self):
        assert Tensor([1.0, 2.0, 3.0, 6.0]).mean().item() == 3.0

    def test_axis_sum_backward(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        x.sum(axis=1).sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

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
        (x * 2.0).sum().backward()
        assert np.array_equal(unused.grad, np.zeros(1, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).backward()

    def test_backward_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(3)
            x = Tensor(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
            w = Tensor(rng.uniform(-1, 1, (2, 3)).astype(np.float32))
            ((x * w).tanh() + x).sum().backward()
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_diamond_graph_accumulates(self):
        x = Tensor([2.0])
        y = x * x + x * 3.0  # reuses x twice
        y.sum().backward()
        assert np.allclose(x.grad, [2 * 2.0 + 3.0])


class TestNoGraph:
    """Ops inside no_graph() give the same values but record nothing."""

    def test_nodes_keep_no_parents_closure_or_grad(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 6, 6)).astype(np.float32))
        k = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
        recorded = (conv2d(x, k, zero_bias(4)).tanh() * 2.0).sum()
        with no_graph():
            free = (conv2d(x, k, zero_bias(4)).tanh() * 2.0).sum()
            leaf = Tensor([1.0])
        assert free.data.tobytes() == recorded.data.tobytes()
        assert recorded._parents and recorded._backward_fn is not None
        assert (free._parents, free._backward_fn, free.grad) == ((), None, None)
        assert leaf.grad is None

    def test_backward_through_an_inference_node_raises_before_any_gradient(self):
        x = Tensor([1.0, 2.0])
        with no_graph():
            h = x.tanh()
        loss = (h * 3.0).sum()  # recorded on top of an inference node
        with pytest.raises(RuntimeError, match="inference mode"):
            loss.backward()
        assert loss.grad is None
        assert np.array_equal(x.grad, np.zeros(2, np.float32))

    def test_recording_resumes_after_an_exception(self):
        with pytest.raises(ZeroDivisionError):
            with no_graph():
                Tensor([1.0]).tanh()
                1 / 0
        x = Tensor([0.5])
        x.tanh().sum().backward()
        assert np.isclose(x.grad[0], 1.0 - np.tanh(0.5) ** 2)

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
            conv2d(x, kernel, bias, stride=2).tanh().sum().backward()
            return kernel.grad.tobytes(), bias.grad.tobytes()

        recording = Tensor(x0)
        want = grads(recording)
        adjoints = []
        monkeypatch.setattr(tensor_mod, "_adjoint_add", lambda *args: adjoints.append(args))
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
            assert Tensor([1.0]).tanh()._parents == ()
        assert Tensor([1.0]).tanh()._parents != ()


class TestFiniteDiff:
    def test_square_oracle(self):
        n = finite_diff_grad(lambda t: (t * t).sum().item(), Tensor([1.0]), 1e-3)
        assert abs(n.data[0] - 2.0) < 1e-3

    def test_constant_function(self):
        n = finite_diff_grad(lambda t: 7.0, Tensor([0.3, -0.2]), 1e-3)
        assert np.all(np.abs(n.data) < 1e-6)

    def test_tanh_at_zero(self):
        n = finite_diff_grad(lambda t: t.tanh().sum().item(), Tensor([0.0]), 1e-3)
        assert abs(n.data[0] - 1.0) < 1e-4

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

    def test_clip_gradient_is_zero_at_the_bounds(self):
        x = Tensor([-0.5, 0.5, -0.7, 0.7, 0.0, 0.49])
        x.clip(-0.5, 0.5).sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "tanh", "sigmoid",
                                    "log", "clip", "pow_scalar",
                                    "sum", "mean"])
    def test_registered_ops_match_fd(self, op):
        eps = 1e-3
        # A stable seed per op: str hashes change from process to process.
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        data = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        if op == "clip":
            # A central difference within eps of a kink at +-0.5 straddles it;
            # move such elements 3*eps to the side of the kink they are on.
            inside = np.abs(data) < 0.5
            near = np.abs(np.abs(data) - 0.5) < 2 * eps
            data = np.where(near, np.sign(data) * np.where(inside, 0.5 - 3 * eps, 0.5 + 3 * eps),
                            data).astype(np.float32)
            assert np.abs(np.abs(data) - 0.5).min() >= 2 * eps
        x = Tensor(data)
        other = Tensor(rng.uniform(0.5, 1.5, (3, 4)).astype(np.float32))
        fns = {
            "add": lambda t: (t + other).sum(),
            "sub": lambda t: (t - other).sum(),
            "mul": lambda t: (t * other).sum(),
            "div": lambda t: (t / other).sum(),
            "tanh": lambda t: t.tanh().sum(),
            "sigmoid": lambda t: t.sigmoid().sum(),
            "log": lambda t: (t + 2.0).log().sum(),
            "clip": lambda t: t.clip(-0.5, 0.5).sum(),
            "pow_scalar": lambda t: (t + 2.0).pow_scalar(1.7).sum(),
            "sum": lambda t: t.sum(),
            "mean": lambda t: t.mean(),
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


def run_in_slices(run, x0, k0, b0, g0, stride, size):
    """run() on the batch ``size`` samples per call: y and the input gradient
    concatenated, and the kernel gradient as the float64 sum of each sample's
    own gradient in batch order. A one-sample kernel gradient is that
    sample's float32 product, so the sum is the whole batch's arithmetic."""
    n = len(x0)
    one = [run(x0[i:i + 1], k0, b0, g0[i:i + 1], stride) for i in range(n)]
    parts = one if size == 1 else [run(x0[i:i + size], k0, b0, g0[i:i + size], stride)
                                   for i in range(0, n, size)]
    kernel = np.zeros(k0.shape)
    for part in one:
        kernel += part["kernel"]
    return {"y": np.concatenate([p["y"] for p in parts]),
            "x": np.concatenate([p["x"] for p in parts]),
            "kernel": kernel.astype(np.float32)}


class TestConv2dColumnBudget:
    """conv2d lowers its whole batch at once and keeps its columns for the
    weight gradient; the batch must give the bits of its samples lowered in
    slices, as a caller that splits a batch lowers them."""

    @staticmethod
    def run(x0, k0, b0, g0, stride):
        x, kernel, bias = Tensor(x0), Tensor(k0), Tensor(b0)
        y = conv2d(x, kernel, bias, stride=stride)
        (y * Tensor(g0[:, :, :y.shape[2], :y.shape[3]])).sum().backward()
        return {"y": y.data, "x": x.grad, "kernel": kernel.grad, "bias": bias.grad}

    def check_chunking(self, cout, stride, chunk):
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((3, 4, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((cout, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(cout).astype(np.float32)
        g0 = rng.standard_normal((3, cout, 11, 9)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        whole = self.run(x0, k0, b0, g0, stride)
        sliced = run_in_slices(self.run, x0, k0, b0, g0, stride, chunk)  # 1+1+1 or 2+1
        for name, arr in sliced.items():
            assert np.array_equal(whole[name], arr), name
            assert whole[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_chunking_changes_no_bits(self, stride, chunk):
        self.check_chunking(2, stride, chunk)

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_one_output_channel_chunking_changes_no_bits(self, stride, chunk):
        self.check_chunking(1, stride, chunk)

    def test_weight_gradient_adds_samples_in_batch_order(self):
        # A float64 sum of a few float32 products is exact, so it hides the
        # order of the additions unless the terms span a wide range: here
        # sample 2 cancels sample 0 and the small samples round against them.
        rng = np.random.default_rng(23)
        big = rng.standard_normal((1, 4, 8, 8)).astype(np.float32) * np.float32(1e12)
        small = rng.standard_normal((3, 4, 8, 8)).astype(np.float32)
        x0 = np.concatenate([big, small[:1], -big, small[1:]])
        k0 = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(2).astype(np.float32)
        g0 = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        g0[2] = g0[0]
        whole = self.run(x0, k0, b0, g0, 1)
        products = [self.run(x0[i:i + 1], k0, b0, g0[i:i + 1], 1)["kernel"] for i in range(5)]

        def float64_sum(terms):
            total = np.zeros(k0.shape)
            for term in terms:
                total += term
            return total.astype(np.float32).tobytes()

        assert whole["kernel"].tobytes() == float64_sum(products)
        # Negative control: the same products added in reverse order round otherwise.
        assert whole["kernel"].tobytes() != float64_sum(products[::-1])

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

    def test_whole_batch_columns_are_held_until_backward(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((3, 4, 16, 16)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        cols_bytes = 3 * 4 * 3 * 3 * 16 * 16 * 4
        held, y = self.held_bytes(x, kernel)
        assert held >= cols_bytes
        y.sum().backward()
        assert x.grad.any() and kernel.grad.any()


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
    cols = tensor_mod._im2col(padded, k, stride, h_out, w_out,
                              np.empty((n, c, k, k, h_out, w_out), dtype)).reshape(n, c * k * k, -1)
    w2 = k0.reshape(1, c * k * k).astype(dtype)
    g3 = g0[:, :, :h_out, :w_out].reshape(n, 1, h_out * w_out).astype(dtype)
    y = np.matmul(w2, cols).reshape(n, 1, h_out, w_out) + b0.astype(dtype)
    dw = np.zeros((1, c * k * k))
    for a, b in zip(g3, cols):
        dw += np.matmul(a, b.T)
    dpad = np.zeros(padded.shape, dtype)
    dcols = np.matmul(w2.T, g3).reshape(n, c, k, k, h_out, w_out)
    tensor_mod._col2im_add(dpad, dcols, k, stride, h_out, w_out)
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
    for each sample's dW product, plus one rounding of the float64 total."""
    ref = column_form(x0, k0, b0, g0, stride)
    terms = column_form(np.abs(x0), np.abs(k0), np.abs(b0), np.abs(g0), stride, np.float64)
    n, c, h, w = x0.shape
    k = k0.shape[2]
    _, pt, pb = tensor_mod._same_pads(h, k, stride)
    _, pl, pr = tensor_mod._same_pads(w, k, stride)
    u = np.finfo(np.float32).eps / 2
    count = {"y": c * k * k + 1, "x": k * k, "kernel": (h + pt + pb) * (w + pl + pr) + 1}
    for name in names:
        gamma = count[name] * u / (1 - count[name] * u)
        err = np.abs(new[name].astype(np.float64) - ref[name])
        assert np.all(err <= 2 * gamma * terms[name]), (name, float(err.max()))


class TestOneOutputChannelBackward:
    """With one output channel conv2d builds no im2col columns: it works on
    the padded grid through the k*k tap offsets, one sample at a time, on a
    batch or (chunked) on one sample per call. Its sums run in another order
    than the column form's, so they are held to the column form within the
    float32 forward-error bound."""

    @staticmethod
    def grads(monkeypatch, x0, k0, b0, g0, stride, chunked):
        """The batch's results, and the samples of each shifted gradient built."""
        calls = []
        shift_taps = tensor_mod._shift_taps

        def spy(shifted, g, *args):
            calls.append(len(g))
            return shift_taps(shifted, g, *args)

        monkeypatch.setattr(tensor_mod, "_shift_taps", spy)
        run = TestConv2dColumnBudget.run
        if chunked:
            return run_in_slices(run, x0, k0, b0, g0, stride, 1), calls
        return run(x0, k0, b0, g0, stride), calls

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_same_bits_as_the_column_form(self, monkeypatch, stride, chunked):
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal((3, 5, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(1).astype(np.float32)
        g0 = rng.standard_normal((3, 1, 11, 9)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        new, calls = self.grads(monkeypatch, x0, k0, b0, g0, stride, chunked)
        # The column-free path ran: one shifted gradient per sample gives the
        # weight gradient and the adjoint.
        assert calls == [1] * 3
        assert_within_fp32_bound(new, x0, k0, b0, g0, stride, ("y", "x", "kernel"))
        if not chunked:
            assert new["bias"].tobytes() == column_form(x0, k0, b0, g0, stride)["bias"].tobytes()

    @pytest.mark.parametrize("chunked", [False, True])
    def test_taps_add_in_column_order(self, monkeypatch, chunked):
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
        new, calls = self.grads(monkeypatch, x0, k0, b0, g0, 1, chunked)
        assert calls == [1] * 2
        ref = column_form(x0, k0, b0, g0, 1)
        assert np.median(np.abs(ref["x"])) < 1e3  # the big taps cancelled off the edges
        assert_within_fp32_bound(new, x0, k0, b0, g0, 1, ("x",))

    @pytest.mark.parametrize("stride", [1, 2], ids=same_padded)
    def test_dx_keeps_the_bytes_of_the_adjoint_added_into_zeros(self, stride):
        # The backward writes W_taps @ G straight over an empty dpad; the input
        # gradient must be that of adding the adjoint into zeros, which turns
        # -0.0 into +0.0, and dW that of the lowering's own dW(g3). h = x * 1
        # takes conv2d's dx as its first gradient, unmixed with a leaf's zeros.
        rng = np.random.default_rng(36)
        x0 = rng.standard_normal((3, 5, 11, 9)).astype(np.float32)
        k0 = rng.standard_normal((1, 5, 3, 3)).astype(np.float32)
        k0[0, 0] = -np.abs(k0[0, 0])  # w * +0.0 is -0.0 on this channel
        g0 = rng.standard_normal((3, 1, 11, 9)).astype(np.float32)
        g0[g0 > 0.3] = 0.0
        g0[g0 < -1.0] = -0.0
        x = Tensor(x0)
        h = x * 1.0
        kernel = Tensor(k0)
        y = conv2d(h, kernel, zero_bias(1), stride=stride)
        g = np.ascontiguousarray(g0[:, :, :y.shape[2], :y.shape[3]])
        (y * Tensor(g)).sum().backward()

        n, c, hh, ww = x0.shape
        h_out, pt, pb = tensor_mod._same_pads(hh, 3, stride)
        w_out, pl, pr = tensor_mod._same_pads(ww, 3, stride)
        padded = np.pad(x0, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
        w2 = k0.reshape(1, c * 9)
        g3 = g.reshape(n, 1, h_out * w_out)
        _, dW = tensor_mod._lower(padded, w2, 3, stride, h_out, w_out)
        dpad = np.zeros(padded.shape, np.float32)
        tensor_mod._adjoint_add(dpad, w2, g3, 3, stride, h_out, w_out)
        assert h.grad.tobytes() == dpad[:, :, pt:pt + hh, pl:pl + ww].tobytes()
        assert kernel.grad.tobytes() == dW(g3).astype(np.float32).reshape(k0.shape).tobytes()

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
        # gradient and its adjoint, and once for conv2d_transpose's adjoint.
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
                assert len(taps) == (0 if cout > 1 else 2 * len(g)) and len(set(taps)) <= 1
                taps.clear()

    @pytest.mark.parametrize("cin", [3, 1])
    def test_input_gradient_is_taken_without_a_copy(self, monkeypatch, cin):
        # The lowering's output is a fresh array nothing else holds, so it
        # becomes the input's first gradient as it is. h = x * 1 takes it
        # unmixed with a leaf's zeros.
        owned_flags = {}
        accumulate = tensor_mod._accumulate

        def spy(node, grad, owned=False):
            owned_flags[id(node)] = owned
            accumulate(node, grad, owned)

        monkeypatch.setattr(tensor_mod, "_accumulate", spy)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, cin, 5, 6)).astype(np.float32))
        h = x * 1.0
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


class TestConvTransposeColumnBudget:
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
    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_chunking_changes_no_bits(self, stride, chunk, cin):
        rng = np.random.default_rng(41)
        x0 = rng.standard_normal((3, cin, 5, 6)).astype(np.float32)
        k0 = rng.standard_normal((cin, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(4).astype(np.float32)
        g0 = rng.standard_normal((3, 4, 5 * stride, 6 * stride)).astype(np.float32)
        g0[..., ::3] = 0.0  # exact zeros in the upstream gradient
        whole = self.run(x0, k0, b0, g0, stride)
        sliced = run_in_slices(self.run, x0, k0, b0, g0, stride, chunk)
        for name, arr in sliced.items():
            assert whole[name].tobytes() == arr.tobytes(), name

    def test_backward_builds_each_chunk_once(self, monkeypatch):
        # Decoder block 5 at 224 px, Q=3: 16*3 channels at 112 px up to 8 at
        # 224 px. The backward lowers the batch of 8 once, in three sample
        # ranges, and the weight gradient reuses those columns instead of
        # building its own: the ranges cover samples 0-7 exactly once.
        monkeypatch.setattr(tensor_mod, "_width", 3)
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((8, 48, 112, 112)).astype(np.float32))
        kernel = Tensor(rng.uniform(-0.1, 0.1, (48, 8, 3, 3)).astype(np.float32))
        y = conv2d_transpose(x, kernel, zero_bias(8), stride=2)
        ranges = []
        im2col = tensor_mod._im2col

        def spy(padded, *args):
            whole = padded
            while whole.base is not None:
                whole = whole.base
            start = (padded.ctypes.data - whole.ctypes.data) // padded.strides[0]
            ranges.append(range(start, start + len(padded)))
            return im2col(padded, *args)

        monkeypatch.setattr(tensor_mod, "_im2col", spy)
        y._backward_fn(np.ones(y.shape, dtype=np.float32))
        assert len(ranges) == 3
        assert sorted(i for r in ranges for i in r) == list(range(8))
        assert x.grad.any() and kernel.grad.any()

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
    """Convolutions split each batch, however small, into at most ``width``
    sample ranges, on a pool of width - 1 threads, with the interpreter
    switching threads often."""
    pool = ThreadPoolExecutor(max_workers=max(width - 1, 1))
    monkeypatch.setattr(tensor_mod, "_width", width)
    monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_MACS", 0)
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
            x0[0] *= np.float32(1e12)
            x0[2], g0[2] = -x0[0], g0[0]
        results = []
        for width in (1, 2, 3):
            with pool_width(monkeypatch, width):
                results.append(self.run(op, x0, k0, b0, g0, stride))
        for name in results[0]:
            assert results[0][name].any(), name
            for width, result in zip((2, 3), results[1:]):
                assert result[name].tobytes() == results[0][name].tobytes(), (name, width)

    def test_ranges_cover_the_batch_once_and_the_caller_runs_the_first(self, monkeypatch):
        calls = []

        def record(a, b):
            calls.append((a, b, threading.current_thread() is threading.main_thread()))

        with pool_width(monkeypatch, 3):
            for n in (1, 2, 5):
                tensor_mod._split_samples(n, 0, record)
                spans = sorted(calls)
                assert [i for a, b, _ in spans for i in range(a, b)] == list(range(n))
                assert len(spans) == min(3, n)
                assert [on_caller for a, _, on_caller in spans] == [a == 0 for a, _, _ in spans]
                calls.clear()
            # Samples below the work floor run inline as one range.
            monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_MACS", 100)
            tensor_mod._split_samples(5, 99, record)
            assert calls == [(0, 5, True)]
            calls.clear()
            tensor_mod._split_samples(5, 100, record)
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
                tensor_mod._split_samples(6, 0, work)
            assert sorted(done) == [2, 4]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_pool_that_runs(self, monkeypatch):
        # The parent's pool has a worker thread when it forks; the child has
        # none, so without a fresh pool its conv waits forever.
        monkeypatch.setattr(tensor_mod, "_width", 2)
        monkeypatch.setattr(tensor_mod, "_SPLIT_MIN_MACS", 0)
        rng = np.random.default_rng(45)
        x0 = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        k0 = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)

        def conv():
            return conv2d(Tensor(x0), Tensor(k0), zero_bias(2)).data.tobytes()

        expected = conv()  # starts the pool's thread
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if conv() == expected else 2
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
                pytest.fail("the forked child did not finish a batch-4 conv in 30 s")
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
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
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
        assert np.allclose(out.data, (3.0 - 1.0) / 2.0)
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
        assert (x * 2.0)._parents[0] is x

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
        assert np.allclose(out.data, 0.25, atol=1e-6)

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
    """Batchnorm as whole-tensor expressions, with its hand-derived backward.

    The channel-blocked op must give these bytes. Updates the running
    statistics in place as the op does and returns y, plus the gamma, beta
    and input gradients for upstream gradient g in training mode.
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
    if not training:
        return (y,)
    dgamma = (g * xhat).sum(axis=axes, dtype=np.float64).astype(np.float32)
    dbeta = g.sum(axis=axes, dtype=np.float64).astype(np.float32)
    gs = g * gamma.reshape(1, c, 1, 1)
    mean_gs = gs.mean(axis=axes, dtype=np.float64).astype(np.float32).reshape(1, c, 1, 1)
    mean_gs_xhat = (gs * xhat).mean(axis=axes, dtype=np.float64)
    mean_gs_xhat = mean_gs_xhat.astype(np.float32).reshape(1, c, 1, 1)
    return y, dgamma, dbeta, inv * (gs - mean_gs - xhat * mean_gs_xhat)


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
        # Forward keeps xhat and y; backward makes the input gradient. The rest
        # is one channel block's buffer.
        assert peaks[0] < 3.0 and peaks[1] < 2.0, peaks


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
