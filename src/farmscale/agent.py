"""What the two learning agents share: the greedy tie-break, the epsilon
schedule, the episode hooks of the training loop, the frozen-policy view
and the checks on a checkpoint's top-level entries."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .core import FieldError, has_type_of


def greedy_index(values) -> int:
    """Index of the largest value; ties break to the largest index."""
    values = np.asarray(values)
    return len(values) - 1 - int(np.argmax(values[::-1]))


class LearningAgent:
    """Base of SarsaAgent and DqnAgent.

    ``cfg`` carries epsilon_start, epsilon_min and epsilon_decay.  Each
    subclass defines ``encode(obs)``, the agent's state for an observation,
    and, in its own class body, where perfbench/tracer.py looks them up to
    wrap them, ``act(state, greedy=False)`` and ``learn(state, action,
    reward, next_state, next_action, done)``, which work on such states.
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

    def select_action(self, obs, record) -> int:
        """The agent as a frozen policy: its greedy action."""
        return self.act(self.encode(obs), greedy=True)


def check_gamma_and_epsilon(cfg):
    """The checks both agents' configs share: 0 <= gamma < 1,
    epsilon_min <= epsilon_start <= 1 and 0 < epsilon_decay <= 1."""
    if not (0 <= cfg.gamma < 1):
        raise FieldError("gamma", "gamma must lie in [0, 1)")
    if cfg.epsilon_start > 1:
        raise FieldError("epsilon_start",
                         "need epsilon_min <= epsilon_start <= 1")
    if cfg.epsilon_min > cfg.epsilon_start:
        raise FieldError("epsilon_min", "need epsilon_min <= epsilon_start <= 1")
    if not (0 < cfg.epsilon_decay <= 1):
        raise FieldError("epsilon_decay", "epsilon_decay must lie in (0, 1]")


def checkpoint_value(blob: dict, path, key: str, where: str = "checkpoint"):
    """``blob[key]``; a missing key raises ``ValueError`` naming the file
    and the key."""
    try:
        return blob[key]
    except KeyError:
        raise ValueError(f"{path}: {where} has no {key!r}") from None


def checkpoint_epsilon(blob: dict, path, where: str = "checkpoint") -> float:
    """``blob["epsilon"]``, which must be a number in [0, 1]; otherwise
    ``ValueError`` naming the file and the key."""
    value = checkpoint_value(blob, path, "epsilon", where)
    if not (has_type_of(value, 0.0) and 0 <= value <= 1):
        raise ValueError(f"{path}: epsilon must be a number in [0, 1], "
                         f"got {value!r}")
    return value


def checkpoint_config(cls, values, path):
    """``cls(**values)`` for a checkpoint's saved config, a JSON list standing
    for a tuple; a key ``cls`` lacks, a value whose type does not match the
    field's default (``core.has_type_of``) or a value ``cls`` rejects raises
    ``ValueError`` naming the file and the key."""
    if not isinstance(values, dict):
        raise ValueError(f"{path}: 'config' is not a mapping")
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in defaults:
            raise ValueError(f"{path}: config has unknown key {key!r}")
        default = defaults[key]
        if isinstance(value, list) and isinstance(default, tuple):
            value = tuple(value)
        if not has_type_of(value, default):
            raise ValueError(f"{path}: config {key!r} must be "
                             f"{type(default).__name__}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: config: {exc}") from None
