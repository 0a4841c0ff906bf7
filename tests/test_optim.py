"""Optimizer tests: Adam update rule against a hand-stepped recurrence."""

import numpy as np
import pytest

from osegnet.optim import Adam
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
        opt = Adam([("x", Tensor([1.0]))])
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps) == (1e-4, 0.9, 0.999, 1e-7)
