"""Numpy network: forward pass, backprop, optimizer, target blending."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
        # the jitter alone does not keep every pre-activation off the kink
        # (seeds 3759, 7931 and 9547 put one within 1e-6 of it, which the
        # differences straddle); a draw with one near the kink is skipped
        h = x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            h = h @ w + b
            assume(np.abs(h).min() > 1e-4)
            h = np.maximum(h, 0.0)
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


# The allocating formulas the in-place forward and backward passes, the
# scratch-backed clip and the scratch-backed blend replaced.  Each kernel
# must give their bits.

def reference_forward(net, x):
    activations = [x]
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < len(net.weights) - 1:
            h = np.maximum(h, 0.0)
        activations.append(h)
    return h, activations


def reference_smooth_l1(diff):
    absd = np.abs(diff)
    quad = absd < 1.0
    loss = np.where(quad, 0.5 * diff * diff / 1.0, absd - 0.5 * 1.0)
    grad = np.where(quad, diff / 1.0, np.sign(diff))
    return loss, grad


def reference_loss_and_gradients(net, x, actions, targets):
    n = x.shape[0]
    q, acts = reference_forward(net, x)
    diff = q[np.arange(n), actions] - targets
    loss, dloss = reference_smooth_l1(diff)
    dq = np.zeros_like(q)
    dq[np.arange(n), actions] = dloss / n
    layers = len(net.weights)
    grads = [None] * (2 * layers)
    delta = dq
    for i in range(layers - 1, -1, -1):
        grads[i] = acts[i].T @ delta
        grads[layers + i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (acts[i] > 0)
    return float(np.mean(loss)), grads


def reference_clip_gradient_norm(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        grads = [g * (max_norm / total) for g in grads]
    return grads


def reference_soft_update(target, policy, tau):
    return [t * (1.0 - tau) + tau * p
            for t, p in zip(target.parameters(), policy.parameters())]


def flat_bytes(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


def random_case(seed, sizes=(9, 128, 64, 3), n=64):
    """A net, a batch and actions.  The first hidden layer's biases are
    negative, so the zero rows of the batch come out of the first ReLU as
    all-zero rows and other rows lose some units."""
    rng = np.random.default_rng(seed)
    net = Mlp(sizes, rng)
    net.biases[0][...] = -np.abs(rng.normal(0.0, 0.5, size=sizes[1]))
    for b in net.biases[1:]:
        b[...] = rng.normal(0.0, 0.1, size=b.shape)
    x = rng.uniform(-1.0, 1.0, size=(n, sizes[0]))
    x[::7] = 0.0
    actions = rng.integers(0, sizes[-1], size=n)
    return net, x, actions, rng


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("sizes", [(9, 128, 64, 3), (3, 6, 4, 2), (4, 5)])
def test_forward_matches_reference(seed, sizes):
    net, x, _, _ = random_case(seed, sizes)
    out, acts = net._forward_cached(x)
    ref_out, ref_acts = reference_forward(net, x)
    assert out.tobytes() == ref_out.tobytes()
    assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref_acts]
    assert net.forward(x).tobytes() == ref_out.tobytes()
    # a single vector takes BLAS's matrix-vector path, with its own bits
    assert (net.forward(x[3]).tobytes()
            == reference_forward(net, x[3:4])[0][0].tobytes())
    if len(sizes) > 2:
        assert not acts[1][::7].any()  # the rows ReLU zeroes


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("sizes", [(9, 128, 64, 3), (3, 6, 4, 2), (4, 5)])
def test_loss_and_gradients_match_reference(seed, sizes):
    net, x, actions, rng = random_case(seed, sizes)
    picked = reference_forward(net, x)[0][np.arange(len(x)), actions]
    # targets a beta off the picked value hit |diff| == beta where the
    # subtraction is exact; the rest spread over both Smooth-L1 regions
    offsets = rng.choice([-1.0, 1.0, 0.0, 0.3, -2.5, 40.0], size=len(x))
    targets = picked + offsets
    diff = picked - targets
    assert (np.abs(diff) == 1.0).any() and (diff == 0.0).any()
    ref_loss, ref_grads = reference_loss_and_gradients(net, x, actions,
                                                       targets)
    loss, grads = net.loss_and_gradients(x, actions, targets)
    assert loss == ref_loss
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]


def test_smooth_l1_matches_reference():
    tiny = np.nextafter(0.0, 1.0)
    diff = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0),
                     np.nextafter(1.0, 2.0), -np.nextafter(1.0, 0.0), tiny,
                     -tiny, 0.5, -3.0, 1e300, -1e300, np.inf, -np.inf, np.nan])
    diff = np.concatenate(
        [diff, np.random.default_rng(0).normal(0.0, 2.0, size=200)])
    with np.errstate(over="ignore"):  # 0.5 * 1e300 * 1e300, unused
        loss, grad = _smooth_l1(diff.copy())
        ref_loss, ref_grad = reference_smooth_l1(diff)
    assert loss.tobytes() == ref_loss.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def clip_cases():
    """Backprop gradients, then random ones of mixed magnitudes, for which
    one sum over the whole flat array would differ from the per-parameter
    sums in about half the cases."""
    for seed in range(4):
        net, x, actions, rng = random_case(seed)
        net.loss_and_gradients(x, actions, rng.normal(size=len(x)))
        yield net
    rng = np.random.default_rng(3)
    for _ in range(40):
        net.grad[...] = (rng.normal(size=net.grad.size)
                         * rng.uniform(1e-3, 10.0, size=net.grad.size))
        yield net


@pytest.mark.parametrize("clipped", [False, True])
def test_clip_gradient_norm_matches_reference(clipped):
    for net in clip_cases():
        grads = [g.copy() for g in net.grads]
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        max_norm = 0.5 * norm if clipped else norm
        ref = reference_clip_gradient_norm(grads, max_norm)
        before = net.grad.copy()
        clip_gradient_norm(net, max_norm)
        assert (net.grad.tobytes() != before.tobytes()) == clipped
        assert net.grad.tobytes() == flat_bytes(ref)


@pytest.mark.parametrize("tau", [0.01, 0.3, 1.0, 1e-7])
def test_soft_update_matches_reference(tau):
    target = Mlp((9, 128, 64, 3), np.random.default_rng(0))
    policy = Mlp((9, 128, 64, 3), np.random.default_rng(1))
    policy_bytes = policy.flat.tobytes()
    for _ in range(3):
        ref = reference_soft_update(target, policy, tau)
        soft_update(target, policy, tau)
        assert target.flat.tobytes() == flat_bytes(ref)
    assert policy.flat.tobytes() == policy_bytes


def test_results_do_not_alias_later_calls():
    net, x, actions, rng = random_case(0)
    x_bytes = x.tobytes()
    batch = net.forward(x)
    single = net.forward(x[1])
    kept = batch.tobytes(), single.tobytes()
    targets = rng.normal(size=len(x))
    targets_bytes = targets.tobytes()
    net.forward(x[::-1].copy())
    net.loss_and_gradients(x, actions, targets)
    net.forward(x[1])
    assert (batch.tobytes(), single.tobytes()) == kept
    assert x.tobytes() == x_bytes and targets.tobytes() == targets_bytes
