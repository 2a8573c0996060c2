"""Minimal feed-forward network machinery for the value-learning agent.

A fully-connected net with ReLU hidden layers and a linear head, trained
with Smooth-L1 loss on selected action values and bias-corrected adaptive
moment estimation. Everything is plain numpy; no autograd.

The optimizer, the gradient clip and the target blend each run a few ufuncs
over a network's flat parameter and gradient arrays, with the elementwise
operation order of a loop over per-layer arrays, so the bits are the same.
The clip and the blend write their intermediate products into a scratch
array each network owns, and the forward and backward passes add biases,
apply ReLU and mask deltas in place, on the arrays the matrix products
return.

No pass checks its input: the agent checks that each observation is
finite where it enters (``DqnAgent.normalize``), and every network input is
built from observations checked there.
"""

from __future__ import annotations

import numpy as np

from .core import left_sum

# where the Smooth-L1 loss turns from quadratic to linear
SMOOTH_L1_BETA = 1.0
# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    ``sizes`` are the widths of the layers, input first. ``flat`` holds
    every parameter; ``weights`` and ``biases`` are views into it. ``grad``
    is laid out like ``flat`` and ``grads`` are its views, in
    ``parameters()`` order. ``_scratch`` is a third array of the same
    layout, which ``clip_gradient_norm`` and ``soft_update`` overwrite. With
    an ``rng`` the weights are He-normal and the biases zero; without one
    every parameter is zero.
    """

    def __init__(self, sizes, rng: np.random.Generator | None = None):
        self.sizes = tuple(sizes)
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        n = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.flat = np.zeros(n)
        self.grad = np.zeros(n)
        params = _views(self.flat, shapes)
        self.weights, self.biases = params[:len(shapes)], params[len(shapes):]
        self.grads = _views(self.grad, shapes)
        self._scratch = np.empty(n)
        self._scratch_views = _views(self._scratch, shapes)
        if rng is not None:
            for w in self.weights:
                w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]),
                                    size=w.shape)

    def parameters(self):
        return self.weights + self.biases

    def copy(self) -> "Mlp":
        clone = Mlp(self.sizes)
        clone.flat[...] = self.flat
        return clone

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for a batch (or single vector) of inputs. The input
        is not checked: the agent checks each observation where it enters."""
        x = np.asarray(x, dtype=float)
        out, _ = self._forward_cached(np.atleast_2d(x))
        return out if x.ndim == 2 else out[0]

    def _forward_cached(self, x):
        """(output, activations), each a new array; ``x`` is not checked."""
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
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
        rows = np.arange(n)
        diff = q[rows, actions]
        diff -= targets
        loss, dloss = _smooth_l1(diff)

        # gradient w.r.t. the network output, only at the selected entries,
        # written over q: the backward pass reads the activations below it
        dloss /= n
        q.fill(0.0)
        q[rows, actions] = dloss

        layers = len(self.weights)
        delta = q
        for i in range(layers - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=self.grads[i])
            delta.sum(axis=0, out=self.grads[layers + i])
            if i > 0:
                delta = delta @ self.weights[i].T
                delta *= acts[i] > 0
        return float(loss.mean()), self.grads


def _smooth_l1(diff):
    """Huber-style loss element-wise plus its derivative.

    The derivative is diff / beta inside (-beta, beta) and sign(diff)
    outside; clipping diff / beta to [-1, 1] gives those bits at every
    finite diff, +-beta and -0.0 included, and passes a NaN through.
    """
    beta = SMOOTH_L1_BETA
    absd = np.abs(diff)
    loss = np.where(absd < beta, 0.5 * diff * diff / beta, absd - 0.5 * beta)
    grad = diff / beta
    np.clip(grad, -1.0, 1.0, out=grad)
    return loss, grad


def clip_gradient_norm(net: Mlp, max_norm: float):
    """Scale ``net.grad`` in place so its global L2 norm is at most max_norm.

    The squares go into the net's scratch array; the squared norm is summed
    over its per-parameter views, in ``parameters()`` order, so it has the
    bits of a loop over separate arrays.
    """
    np.multiply(net.grad, net.grad, out=net._scratch)
    total = np.sqrt(left_sum(float(s.sum()) for s in net._scratch_views))
    if total > max_norm and total > 0:
        net.grad *= max_norm / total


class Adam:
    """Bias-corrected adaptive moment estimation over one flat parameter
    array, updated in place."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, grads: np.ndarray):
        """p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment
        updates, each operation in that order."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=num)
        m += num
        v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=num)
        num *= grads
        v += num
        np.divide(m, bc1, out=num)
        num *= self.lr
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        self.params -= num


def soft_update(target: Mlp, policy: Mlp, tau: float):
    """target <- (1 - tau) * target + tau * policy, elementwise; the
    product tau * policy goes into the policy's scratch array."""
    target.flat *= 1.0 - tau
    np.multiply(policy.flat, tau, out=policy._scratch)
    target.flat += policy._scratch
