"""Optimizer tests: Adam update rule against a hand-stepped recurrence."""

import threading
import tracemalloc

import numpy as np
import pytest

from osegnet import optim as optim_mod
from osegnet import tensor as tensor_mod
from osegnet.cli import RunConfig
from osegnet.optim import BETA1, BETA2, EPS, Adam
from osegnet.tensor import Tensor


def quadratic_grad(x):
    return 2.0 * x


class TestAdam:
    def test_first_step_magnitude_is_about_lr(self):
        # With bias correction the very first update is lr * g/(|g| + eps'),
        # i.e. lr to within the eps fudge, regardless of gradient scale.
        for g0 in (1e-3, 1.0, 1e3):
            x = Tensor([5.0])
            opt = Adam([("x", x)], lr=0.01)
            x.grad[:] = g0
            opt.step()
            step = 5.0 - x.data[0]
            assert 0.0 < step <= 0.01 * (1 + 1e-3)
            assert step > 0.009

    def test_quadratic_converges_to_minimum(self):
        x = Tensor([3.0])
        opt = Adam([("x", x)], lr=0.1)
        for _ in range(200):
            x.grad[:] = quadratic_grad(x.data)
            opt.step()
        assert abs(x.data[0]) < 1e-4

    def test_quadratic_trajectory_matches_reference_recurrence(self):
        # Independent implementation of the same update rule in float64,
        # applied to the float32 iterates; agreement stays tight over 50 steps.
        x = Tensor([1.5])
        opt = Adam([("x", x)], lr=0.05)
        ref = np.float64(1.5)
        m = v = 0.0
        for t in range(1, 51):
            g = float(quadratic_grad(np.array([ref]))[0])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-7)
            x.grad[:] = quadratic_grad(x.data)
            opt.step()
            assert abs(float(x.data[0]) - ref) < 1e-4, t

    def test_zero_gradient_is_noop_at_start(self):
        x = Tensor([2.0])
        opt = Adam([("x", x)], lr=0.1)
        x.grad[:] = 0.0
        opt.step()
        assert x.data[0] == 2.0

    def test_sign_symmetry(self):
        a = Tensor([1.0])
        b = Tensor([1.0])
        oa = Adam([("a", a)], lr=0.02)
        ob = Adam([("b", b)], lr=0.02)
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = float(rng.uniform(0.1, 1.0))
            a.grad[:] = g
            b.grad[:] = -g
            oa.step()
            ob.step()
        # mirrored gradients walk mirrored distances from the start point,
        # up to float32 grid spacing along each trajectory
        assert abs((1.0 - a.data[0]) - (b.data[0] - 1.0)) < 1e-6

    def test_bitwise_identical_trajectories(self):
        def run():
            x = Tensor(np.array([0.7, -0.3], np.float32))
            opt = Adam([("x", x)], lr=0.03)
            rng = np.random.default_rng(1)
            for _ in range(30):
                x.grad[:] = rng.normal(size=2).astype(np.float32)
                opt.step()
            return x.data.copy()

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_names_parameter(self):
        x = Tensor([1.0])
        y = Tensor([1.0])
        opt = Adam([("enc.w", x), ("dec.w", y)], lr=0.1)
        x.grad[:] = 1.0
        y.grad[:] = np.nan
        with pytest.raises(FloatingPointError, match="dec.w"):
            opt.step()
        assert x.data[0] == 1.0  # aborted before touching anything
        y.grad = None  # as on a freshly loaded checkpoint
        with pytest.raises(FloatingPointError,
                           match=r"parameter dec\.w has no gradient yet: run backward\(\) before"):
            opt.step()
        assert x.data[0] == 1.0

    def test_inf_gradient_rejected(self):
        x = Tensor([1.0])
        opt = Adam([("x", x)], lr=0.1)
        x.grad[:] = np.inf
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([("x", Tensor([1.0]))], lr=0.0)

    def test_zero_grad_clears_parameters(self):
        x = Tensor([1.0])
        x.grad[:] = 5.0
        x.zero_grad()
        assert x.grad[0] == 0.0

    def test_default_hyperparameters(self):
        # The run config owns the learning rate's default; Adam takes it as given.
        with pytest.raises(TypeError):
            Adam([("x", Tensor([1.0]))])
        assert (RunConfig().lr, BETA1, BETA2, EPS) == (1e-4, 0.9, 0.999, 1e-7)


def out_of_place_adam_step(params, ms, vs, step, lr, b1=0.9, b2=0.999, eps=1e-7):
    """Reference: the textbook update with a fresh array per subexpression."""
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for t, m, v in zip(params, ms, vs):
        g = t.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        t.data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(np.float32)


class TestBlockedAdam:
    """Adam updates in place, BLOCK elements at a time; it must give the bits
    of the out-of-place update and allocate no parameter-sized arrays."""

    def test_same_bits_as_out_of_place_update(self):
        block = optim_mod.BLOCK
        shapes = [(block + 17,), (3 * block,), (1,), (16, 24, 3, 3)]
        rng = np.random.default_rng(41)
        start = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        params = [Tensor(a) for a in start]
        ref = [Tensor(a) for a in start]
        opt = Adam([(f"p{i}", t) for i, t in enumerate(params)], lr=3e-3)
        ms = [np.zeros_like(a) for a in start]
        vs = [np.zeros_like(a) for a in start]
        for step in range(1, 31):
            for t, r in zip(params, ref):
                g = rng.standard_normal(t.shape).astype(np.float32)
                g *= np.float32(10.0) ** rng.integers(-6, 4, t.shape).astype(np.float32)
                g[rng.random(t.shape) < 0.1] = 0.0  # exact zeros
                t.grad[...] = g
                r.grad[...] = g
            opt.step()
            out_of_place_adam_step(ref, ms, vs, step, lr=3e-3)
        for i, (t, r) in enumerate(zip(params, ref)):
            assert t.data.tobytes() == r.data.tobytes(), i
            assert opt.m[i].tobytes() == ms[i].tobytes(), i
            assert opt.v[i].tobytes() == vs[i].tobytes(), i

    def test_step_allocates_less_than_the_parameter(self):
        x = Tensor(np.random.default_rng(42).standard_normal(1 << 20).astype(np.float32))
        opt = Adam([("x", x)], lr=1e-3)
        x.grad[...] = 0.5
        opt.step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes

    def test_step_peak_is_below_one_block(self):
        # The non-finite check runs through the scratch too, so no
        # gradient-sized mask is allocated.
        x = Tensor(np.random.default_rng(43).standard_normal(1 << 20).astype(np.float32))
        opt = Adam([("x", x)], lr=1e-3)
        x.grad[...] = 0.5
        opt.step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * optim_mod.BLOCK, peak

    def test_each_range_keeps_its_scratch_however_the_first_step_ran(self, monkeypatch):
        # The first step's two ranges run one after the other, as when the
        # host delays the pool thread until the caller's range is done; the
        # second step's hold their scratch at once. Each range must still
        # find a pair of its own, so the second step allocates none.
        monkeypatch.setattr(tensor_mod, "_width", 2)
        split = tensor_mod._split
        split(2, 1, 0, lambda a, b: None)  # make the pool outside the measurement

        def one_after_another(n, work, floor, fn):
            width = tensor_mod._ranges(n, work, floor)
            bounds = [i * n // width for i in range(width + 1)]
            for a, b in zip(bounds, bounds[1:]):
                fn(a, b)

        x = Tensor(np.random.default_rng(45).standard_normal(1 << 20).astype(np.float32))
        opt = Adam([("x", x)], lr=1e-3)
        x.grad[...] = 0.5
        monkeypatch.setattr(tensor_mod, "_split", one_after_another)
        opt.step()
        monkeypatch.setattr(tensor_mod, "_split", split)
        # Each range reaches its pieces only once it holds its scratch, and
        # waits there for the other.
        barrier = threading.Barrier(2, timeout=30)
        pieces = opt._pieces

        def meet(first, last):
            barrier.wait()
            return pieces(first, last)

        opt._pieces = meet
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * optim_mod.BLOCK, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_element_aborts_before_any_update(self, bad):
        block = optim_mod.BLOCK
        rng = np.random.default_rng(44)
        params = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in (block + 5, 3 * block + 7)]
        opt = Adam([("enc.w", params[0]), ("dec.w", params[1])], lr=1e-3)
        for t in params:
            t.grad[...] = rng.standard_normal(t.shape).astype(np.float32)
        opt.step()
        for t in params:
            t.grad[...] = rng.standard_normal(t.shape).astype(np.float32)
        params[1].grad[-1] = bad
        before = [t.data.tobytes() for t in params] + [a.tobytes() for a in opt.m + opt.v]
        with pytest.raises(FloatingPointError, match="dec.w"):
            opt.step()
        assert [t.data.tobytes() for t in params] + [a.tobytes() for a in opt.m + opt.v] == before
        assert opt.step_count == 1
