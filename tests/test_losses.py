"""Loss tests: dice, focal, and hybrid against hand-derived values."""

import numpy as np
import pytest

from osegnet.losses import DICE_SMOOTH, PROB_CLIP, LossConfig, dice_loss, focal_loss, hybrid_loss
from osegnet.tensor import ShapeError, Tensor, no_graph


def t(values, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        arr = arr.reshape(shape)
    return Tensor(arr)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.gamma == 2.0 and cfg.alpha == 0.25
        assert (DICE_SMOOTH, PROB_CLIP) == (1e-6, 1e-7)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LossConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            LossConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LossConfig(alpha=1.0)


class TestDice:
    def test_half_overlap_hand_value(self):
        # intersection 1, masses 2 + 1: loss = 1 - 2*1/3 = 1/3
        loss = dice_loss(t([1, 1, 0, 0]), t([1, 0, 0, 0]))
        assert abs(loss.item() - 1.0 / 3.0) < 1e-6

    def test_perfect_agreement_is_zero(self):
        p = t([1, 0, 1, 1, 0])
        assert dice_loss(p, t([1, 0, 1, 1, 0])).item() == 0.0

    def test_empty_vs_empty_is_zero(self):
        assert dice_loss(t([0, 0, 0]), t([0, 0, 0])).item() == 0.0

    def test_empty_gt_full_prediction_near_one(self):
        loss = dice_loss(t([0, 0, 0, 0]), t([1, 1, 1, 1]))
        assert loss.item() > 0.999

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            p = (rng.uniform(0, 1, n) > 0.5).astype(np.float32)
            q = rng.uniform(0, 1, n).astype(np.float32)
            v = dice_loss(Tensor(p), Tensor(q)).item()
            assert 0.0 <= v <= 1.0

    def test_batch_is_mean_of_per_image_losses(self):
        p0 = np.array([[1, 1], [0, 0]], np.float32).reshape(1, 2, 2)
        q0 = np.array([[1, 0], [0, 0]], np.float32).reshape(1, 2, 2)
        p1 = np.array([[0, 1], [1, 0]], np.float32).reshape(1, 2, 2)
        q1 = np.array([[0.5, 0.5], [0.5, 0.5]], np.float32).reshape(1, 2, 2)
        batch = dice_loss(Tensor(np.stack([p0, p1])), Tensor(np.stack([q0, q1]))).item()
        singles = (dice_loss(Tensor(p0), Tensor(q0)).item()
                   + dice_loss(Tensor(p1), Tensor(q1)).item()) / 2.0
        assert abs(batch - singles) < 1e-6

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        p = (rng.uniform(0, 1, 30) > 0.5).astype(np.float32)
        q = rng.uniform(0, 1, 30).astype(np.float32)
        perm = rng.permutation(30)
        a = dice_loss(Tensor(p), Tensor(q)).item()
        b = dice_loss(Tensor(p[perm]), Tensor(q[perm])).item()
        assert abs(a - b) < 1e-6

    def test_non_binary_gt_rejected_with_value(self):
        with pytest.raises(ValueError, match="0.5"):
            dice_loss(t([0.5, 1.0]), t([0.5, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dice_loss(t([1, 0]), t([1, 0, 0]))

    def test_gradient_hand_value(self):
        # n = 2*1, d = 2 + 1: dL/dq = -2 p / d + n / d^2 = -2/3 p + 2/9
        q = t([1, 0, 0, 0])
        dice_loss(t([1, 1, 0, 0]), q).backward()
        assert np.allclose(q.grad, [-4 / 9, -4 / 9, 2 / 9, 2 / 9], rtol=0, atol=1e-6)

    def test_gradient_pushes_toward_mask(self):
        p = t([1, 0, 1, 0])
        q = Tensor(np.full(4, 0.5, dtype=np.float32))
        dice_loss(p, q).backward()
        assert np.all(q.grad[[0, 2]] < 0)  # raise q where mask is 1
        assert np.all(q.grad[[1, 3]] > 0)  # lower q elsewhere


class TestFocal:
    def test_positive_pixel_hand_value(self):
        # -0.25 * (1-0.9)^2 * ln(0.9) = 2.634e-4
        loss = focal_loss(t([1.0]), t([0.9]))
        assert abs(loss.item() - 2.634e-4) < 1e-4
        assert abs(loss.item() - 2.634e-4) < 3e-7  # tight check, same formula

    def test_negative_pixel_hand_value(self):
        # -0.75 * 0.9^2 * ln(0.1) = 1.3988
        loss = focal_loss(t([0.0]), t([0.9]))
        assert abs(loss.item() - 1.3988) < 1e-4

    def test_mean_of_mixed_pixels(self):
        lone = focal_loss(t([1.0]), t([0.9])).item()
        other = focal_loss(t([0.0]), t([0.9])).item()
        both = focal_loss(t([1.0, 0.0]), t([0.9, 0.9])).item()
        assert abs(both - (lone + other) / 2.0) < 1e-6

    def test_perfect_confident_prediction_is_tiny(self):
        p = t([1, 0, 1])
        assert focal_loss(p, t([1.0, 0.0, 1.0])).item() < 1e-3

    def test_alpha_scales_positive_term_linearly(self):
        a = focal_loss(t([1.0]), t([0.9]), alpha=0.25).item()
        b = focal_loss(t([1.0]), t([0.9]), alpha=0.5).item()
        assert abs(b - 2.0 * a) < 1e-9

    def test_gamma_zero_is_weighted_cross_entropy(self):
        loss = focal_loss(t([1.0]), t([0.5]), gamma=0.0, alpha=0.25).item()
        assert abs(loss - 0.25 * np.log(2.0)) < 1e-6

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            focal_loss(t([1.0]), t([0.5]), gamma=-0.5)

    def test_wrong_confidence_costs_more_than_right(self):
        confident_wrong = focal_loss(t([1.0]), t([0.1])).item()
        confident_right = focal_loss(t([1.0]), t([0.9])).item()
        assert confident_wrong > 100 * confident_right

    def test_extreme_probabilities_stay_finite(self):
        q = t([0.0, 1.0, 1.0, 0.0])
        loss = focal_loss(t([1.0, 0.0, 1.0, 0.0]), q)
        assert np.isfinite(loss.item())
        loss.backward()
        # The clip pins q at 0 and 1, so no gradient flows to those pixels.
        assert np.all(q.grad == 0.0)

    def test_gradient_direction(self):
        q = Tensor(np.array([0.3], np.float32))
        focal_loss(t([1.0]), q).backward()
        assert q.grad[0] < 0  # increase q toward the positive label

    def test_gradient_hand_value(self):
        # d/dq of -a (1-q)^2 log q and of -(1-a) q^2 log(1-q), each halved by the mean.
        a, v = 0.25, 0.9
        pos = -a * ((1 - v) ** 2 / v - 2 * (1 - v) * np.log(v)) / 2
        neg = -(1 - a) * (2 * v * np.log(1 - v) - v ** 2 / (1 - v)) / 2
        q = t([v, v])
        focal_loss(t([1.0, 0.0]), q, gamma=2.0, alpha=a).backward()
        assert np.allclose(q.grad, [pos, neg], rtol=1e-5, atol=0)


class TestHybrid:
    def test_exact_sum_of_parts(self):
        rng = np.random.default_rng(2)
        p = (rng.uniform(0, 1, (2, 1, 4, 4)) > 0.5).astype(np.float32)
        q = rng.uniform(0.05, 0.95, (2, 1, 4, 4)).astype(np.float32)
        cfg = LossConfig()
        total = hybrid_loss(Tensor(p), Tensor(q), cfg).item()
        parts = (dice_loss(Tensor(p), Tensor(q)).item()
                 + focal_loss(Tensor(p), Tensor(q), cfg.gamma, cfg.alpha).item())
        assert total == np.float32(parts) or abs(total - parts) < 1e-9

    def test_default_config_used_when_omitted(self):
        p = t([1.0, 0.0])
        q = t([0.9, 0.1])
        assert hybrid_loss(p, q).item() == hybrid_loss(p, q, LossConfig()).item()

    def test_gradient_flows_from_both_terms(self):
        p = t([1, 0, 1, 0])
        q = Tensor(np.full(4, 0.4, dtype=np.float32))
        hybrid_loss(p, q).backward()
        assert np.all(q.grad != 0.0)

    def test_mask_gets_no_gradient(self):
        # The CLI makes its mask under no_graph(), a leaf with no gradient
        # buffer: the losses' one parent is the prediction, so it keeps none.
        rng = np.random.default_rng(3)
        with no_graph():
            y = Tensor((rng.random((2, 1, 4, 4)) > 0.5).astype(np.float32))
        x = Tensor(rng.normal(size=(2, 1, 4, 4)).astype(np.float32))
        hybrid_loss(y, x.sigmoid()).backward()
        assert y.grad is None and x.grad.any()

    @pytest.mark.parametrize("loss", [dice_loss, focal_loss])
    def test_each_loss_is_one_node_on_the_prediction(self, loss):
        p, q = t([1, 0, 1, 0]), t([0.6, 0.3, 0.8, 0.1])
        node = loss(p, q)
        assert len(node._parents) == 1 and node._parents[0] is q
        node.backward()
        # The walk releases the node, as it does any interior node.
        with pytest.raises(RuntimeError, match="released"):
            node.backward()

    def test_gradient_is_the_sum_of_the_parts_bitwise(self):
        rng = np.random.default_rng(4)
        p = (rng.random((2, 1, 4, 4)) > 0.5).astype(np.float32)
        q = rng.uniform(0.05, 0.95, (2, 1, 4, 4)).astype(np.float32)
        grads = []
        for loss in (dice_loss, focal_loss, hybrid_loss):
            x = Tensor(q)
            loss(Tensor(p), x).backward()
            grads.append(x.grad)
        assert (grads[0] + grads[1]).tobytes() == grads[2].tobytes()

    def test_no_graph_keeps_the_value_and_records_nothing(self):
        rng = np.random.default_rng(5)
        p = (rng.random((2, 1, 4, 4)) > 0.5).astype(np.float32)
        q = rng.uniform(0.05, 0.95, (2, 1, 4, 4)).astype(np.float32)
        recorded = hybrid_loss(Tensor(p), Tensor(q))
        with no_graph():
            x = Tensor(q)
            loss = hybrid_loss(Tensor(p), x)
        assert loss.data.tobytes() == recorded.data.tobytes()
        assert loss._parents == () and x.grad is None
        with pytest.raises(RuntimeError, match="inference mode"):
            loss.backward()
