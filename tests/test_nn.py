"""Numpy network: forward pass, backprop, optimizer, target blending."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale.nn import (Adam, Mlp, _smooth_l1, clip_gradient_norm,
                          soft_update)


def finite_difference_grads(net, x, actions, targets, eps=1e-6):
    """Central differences over every parameter entry."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi, _ = net.loss_and_gradients(x, actions, targets)
            p[idx] = orig - eps
            lo, _ = net.loss_and_gradients(x, actions, targets)
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


class TestForward:
    def test_single_and_batch_agree(self):
        net = Mlp((4, 8, 3), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 4))
        batch = net.forward(x)
        assert batch.shape == (5, 3)
        for i in range(5):
            np.testing.assert_allclose(net.forward(x[i]), batch[i])

    def test_rejects_non_finite_input(self):
        net = Mlp((4, 8, 3), np.random.default_rng(0))
        with pytest.raises(FloatingPointError):
            net.forward(np.array([1.0, np.nan, 0.0, 0.0]))

    def test_copy_is_independent(self):
        net = Mlp((4, 8, 3), np.random.default_rng(0))
        clone = net.copy()
        clone.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != clone.weights[0][0, 0]


class TestGradients:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_backprop_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = Mlp((3, 6, 4, 2), rng)
        for b in net.biases:
            # keep pre-activations off the exact ReLU kink, where the
            # one-sided derivative makes finite differences meaningless
            b += rng.normal(0.0, 0.1, size=b.shape)
        x = rng.normal(size=(4, 3))
        actions = rng.integers(0, 2, size=4)
        targets = rng.normal(size=4)
        _, grads = net.loss_and_gradients(x, actions, targets)
        analytic = [g.copy() for g in grads]  # the next call overwrites grads
        numeric = finite_difference_grads(net, x, actions, targets)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)

    def test_loss_zero_at_exact_targets(self):
        net = Mlp((3, 5, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3))
        q = net.forward(x)
        loss, grads = net.loss_and_gradients(x, [0, 1], q[[0, 1], [0, 1]])
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert all(np.allclose(g, 0.0) for g in grads)


class TestSmoothL1:
    def test_quadratic_region(self):
        loss, grad = _smooth_l1(np.array([0.5]))
        assert loss[0] == pytest.approx(0.125)
        assert grad[0] == pytest.approx(0.5)

    def test_linear_region(self):
        loss, grad = _smooth_l1(np.array([-3.0]))
        assert loss[0] == pytest.approx(2.5)
        assert grad[0] == pytest.approx(-1.0)

    def test_continuous_at_beta(self):
        lo, _ = _smooth_l1(np.array([1.0 - 1e-9]))
        hi, _ = _smooth_l1(np.array([1.0 + 1e-9]))
        assert lo[0] == pytest.approx(hi[0], abs=1e-8)


class TestFlatLayout:
    def test_parameters_and_gradients_are_views_of_flat_arrays(self):
        net = Mlp((4, 8, 3), np.random.default_rng(0))
        assert net.flat.size == net.grad.size == 4 * 8 + 8 * 3 + 8 + 3
        assert [p.shape for p in net.parameters()] == [
            (4, 8), (8, 3), (8,), (3,)]
        assert [g.shape for g in net.grads] == [
            p.shape for p in net.parameters()]
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for p in net.parameters()]), net.flat)
        net.flat[:] = 7.0
        assert all((p == 7.0).all() for p in net.parameters())
        x = np.random.default_rng(1).normal(size=(5, 4))
        _, grads = net.loss_and_gradients(x, [0, 1, 2, 0, 1], np.zeros(5))
        assert grads is net.grads
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads]), net.grad)

    def test_he_init_draws_like_per_layer_arrays(self):
        net = Mlp((4, 8, 3), np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for w in net.weights:
            expected = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
            assert w.tobytes() == expected.tobytes()
        assert not net.flat[-11:].any()  # biases start at zero

    def test_without_rng_every_parameter_is_zero(self):
        net = Mlp((4, 8, 3))
        assert not net.flat.any() and not net.grad.any()


class TestClipNorm:
    @staticmethod
    def net_with_grads(grads):
        net = Mlp((2, 2, 1))  # 2x2 and 2x1 weights, then 2 and 1 biases
        net.grad[:] = grads
        return net

    def test_large_gradients_scaled_to_max(self):
        net = self.net_with_grads(np.full(9, 10.0))
        clip_gradient_norm(net, 1.0)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in net.grads))
        assert norm == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(net.grad, 1 / 3, rtol=1e-15)

    def test_small_gradients_untouched(self):
        grads = np.arange(9) * 0.01
        net = self.net_with_grads(grads)
        clip_gradient_norm(net, 10.0)
        np.testing.assert_array_equal(net.grad, grads)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction the first update is lr * sign(g) (eps aside)
        p = np.array([1.0])
        opt = Adam(p, lr=0.01)
        opt.step(np.array([5.0]))
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_matches_reference_sequence(self):
        # independent re-implementation of the textbook update rule
        p = np.array([0.5, -0.3])
        opt = Adam(p, lr=0.1)
        ref_p = np.array([0.5, -0.3])
        m = np.zeros(2)
        v = np.zeros(2)
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            g = rng.normal(size=2)
            opt.step(g.copy())
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref_p -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(p, ref_p, rtol=1e-12)

    def test_descends_a_quadratic(self):
        p = np.array([5.0])
        opt = Adam(p, lr=0.05)
        for _ in range(2000):
            opt.step(2.0 * p)  # d/dp of p^2
        assert abs(p[0]) < 1e-2


class TestSoftUpdate:
    @given(tau=st.floats(min_value=0.001, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_convex_blend(self, tau):
        target = Mlp((3, 4, 2), np.random.default_rng(0))
        policy = Mlp((3, 4, 2), np.random.default_rng(1))
        before = [p.copy() for p in target.parameters()]
        soft_update(target, policy, tau)
        for b, t, p in zip(before, target.parameters(), policy.parameters()):
            np.testing.assert_allclose(t, (1 - tau) * b + tau * p, rtol=1e-12,
                                       atol=1e-15)

    def test_tau_one_copies_policy(self):
        target = Mlp((3, 4, 2), np.random.default_rng(0))
        policy = Mlp((3, 4, 2), np.random.default_rng(1))
        soft_update(target, policy, 1.0)
        for t, p in zip(target.parameters(), policy.parameters()):
            np.testing.assert_allclose(t, p, atol=1e-15)
