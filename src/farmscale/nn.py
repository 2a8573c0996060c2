"""Minimal feed-forward network machinery for the value-learning agent.

A fully-connected net with ReLU hidden layers and a linear head, trained
with Smooth-L1 loss on selected action values and bias-corrected adaptive
moment estimation. Everything is plain numpy; no autograd.

The optimizer, the gradient clip and the target blend each run a few ufuncs
over a network's flat parameter and gradient arrays, with the elementwise
operation order of a loop over per-layer arrays, so the bits are the same.
"""

from __future__ import annotations

import numpy as np


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of ``flat``: one (fan_in, fan_out) weight matrix per
    layer, then one bias vector per layer."""
    views, start = [], 0
    for shape in [*shapes, *(s[1:] for s in shapes)]:
        stop = start + int(np.prod(shape))
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class Mlp:
    """Stack of affine layers with ReLU between them, linear output.

    ``flat`` holds every parameter; ``weights`` and ``biases`` are views into
    it. ``grad`` is laid out like ``flat`` and ``grads`` are its views, in
    ``parameters()`` order. With an ``rng`` the weights are He-normal and
    the biases zero; without one every parameter is zero.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        self.layer_sizes = tuple(layer_sizes)
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        n = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.flat = np.zeros(n)
        self.grad = np.zeros(n)
        params = _views(self.flat, shapes)
        self.weights, self.biases = params[:len(shapes)], params[len(shapes):]
        self.grads = _views(self.grad, shapes)
        if rng is not None:
            for w in self.weights:
                w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]),
                                    size=w.shape)

    def parameters(self):
        return self.weights + self.biases

    def copy(self) -> "Mlp":
        clone = Mlp(self.layer_sizes)
        clone.flat[...] = self.flat
        return clone

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a batch (or single vector) of inputs."""
        out, _ = self._forward_cached(np.atleast_2d(np.asarray(x, dtype=float)))
        return out if np.ndim(x) == 2 else out[0]

    def _forward_cached(self, x):
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite network input")
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h, activations

    def loss_and_gradients(self, x, actions, targets):
        """Smooth-L1 loss on Q(x)[actions] vs targets, with full gradients.

        Returns (loss, grads): the gradients are written into ``self.grad``
        and ``grads`` is ``self.grads``, its views in ``parameters()`` order
        (all weights, then all biases), overwritten by the next call.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        n = x.shape[0]
        q, acts = self._forward_cached(x)
        picked = q[np.arange(n), actions]
        diff = picked - targets
        loss, dloss = _smooth_l1(diff)

        # gradient w.r.t. the network output: only selected entries
        dq = np.zeros_like(q)
        dq[np.arange(n), actions] = dloss / n

        layers = len(self.weights)
        delta = dq
        for i in range(layers - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=self.grads[i])
            delta.sum(axis=0, out=self.grads[layers + i])
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return float(np.mean(loss)), self.grads


def _smooth_l1(diff, beta: float = 1.0):
    """Huber-style loss element-wise plus its derivative."""
    absd = np.abs(diff)
    quad = absd < beta
    loss = np.where(quad, 0.5 * diff * diff / beta, absd - 0.5 * beta)
    grad = np.where(quad, diff / beta, np.sign(diff))
    return loss, grad


def clip_gradient_norm(net: Mlp, max_norm: float):
    """Scale ``net.grad`` in place so its global L2 norm is at most max_norm.

    The squared norm is summed per parameter array, in ``parameters()``
    order, so it has the bits of a loop over separate arrays.
    """
    total = np.sqrt(sum(float(np.sum(g * g)) for g in net.grads))
    if total > max_norm and total > 0:
        net.grad *= max_norm / total


class Adam:
    """Bias-corrected adaptive moment estimation over one flat parameter
    array, updated in place."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, grads: np.ndarray):
        """p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment
        updates, each operation in that order."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=num)
        num *= grads
        v += num
        np.divide(m, bc1, out=num)
        num *= self.lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        self.params -= num


def soft_update(target: Mlp, policy: Mlp, tau: float):
    """target <- (1 - tau) * target + tau * policy, elementwise."""
    target.flat *= 1.0 - tau
    target.flat += tau * policy.flat
