"""What the two learning agents share: the greedy tie-break, the epsilon
schedule and the episode hooks of the training loop."""

from __future__ import annotations

import numpy as np


def greedy_index(values) -> int:
    """Index of the largest value; ties break to the largest index."""
    values = np.asarray(values)
    return len(values) - 1 - int(np.argmax(values[::-1]))


class LearningAgent:
    """Base of SarsaAgent and DqnAgent.

    ``cfg`` carries epsilon_start, epsilon_min and epsilon_decay.  Each
    subclass defines ``act(obs, greedy=False)`` and ``learn`` in its own
    class body, where perfbench/tracer.py looks them up to wrap them.
    """

    def __init__(self, cfg, seed: int, stream: int):
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, stream])
        self.epsilon = cfg.epsilon_start

    def begin_episode(self):
        """Called before an episode's first action."""

    def end_episode(self):
        """Multiplicative epsilon decay, floored at epsilon_min."""
        self.epsilon = max(self.cfg.epsilon_min,
                           self.epsilon * self.cfg.epsilon_decay)

    def select_action(self, obs, info) -> int:
        """The agent as a frozen policy: its greedy action."""
        return self.act(obs, greedy=True)
