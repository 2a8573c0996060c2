"""Minimal feed-forward network machinery for the value-learning agent.

A fully-connected net with ReLU hidden layers and a linear head, trained
with Smooth-L1 loss on selected action values and bias-corrected adaptive
moment estimation. Everything is plain numpy; no autograd.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Stack of affine layers with ReLU between them, linear output."""

    def __init__(self, layer_sizes, rng: np.random.Generator):
        self.layer_sizes = tuple(layer_sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def parameters(self):
        return self.weights + self.biases

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.layer_sizes = self.layer_sizes
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
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

        Returns (loss, grads) where grads pairs self.parameters() order
        (all weights, then all biases).
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

        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dq
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return float(np.mean(loss)), grads_w + grads_b


def _smooth_l1(diff, beta: float = 1.0):
    """Huber-style loss element-wise plus its derivative."""
    absd = np.abs(diff)
    quad = absd < beta
    loss = np.where(quad, 0.5 * diff * diff / beta, absd - 0.5 * beta)
    grad = np.where(quad, diff / beta, np.sign(diff))
    return loss, grad


def clip_gradient_norm(grads, max_norm: float):
    """Gradients with global L2 norm at most max_norm.

    Returns ``grads`` itself when the norm is within bounds, else new
    scaled copies; the input arrays are never modified.
    """
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads


class Adam:
    """Bias-corrected adaptive moment estimation over a parameter list."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def soft_update(target: Mlp, policy: Mlp, tau: float):
    """target <- (1 - tau) * target + tau * policy, elementwise."""
    for tp, pp in zip(target.parameters(), policy.parameters()):
        tp *= 1.0 - tau
        tp += tau * pp
