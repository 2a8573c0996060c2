"""What the two learning agents share: the greedy tie-break, epsilon-greedy
exploration and its schedule, the episode hooks of the training loop, the
frozen-policy view, and the writer and the checks of a checkpoint's
top-level entries."""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from .core import ACTIONS, FieldError, has_type_of

# the checkpoint layout both agents' savers write; a loader takes no other
CHECKPOINT_VERSION = 1


def greedy_index(values) -> int:
    """Index of the largest value; ties break to the largest index.

    The rules of ``np.argmax`` on the reversed values, in pure Python
    (a few times faster on a Q-row than a numpy call): scanning from the
    end, only a strictly larger value takes over, and a NaN counts as the
    largest, so the last NaN wins. ``values`` is any indexable sequence
    of floats: a list, an ``array('d')`` or a 1-d ndarray.
    """
    i = best = len(values) - 1
    top = values[i]
    while i and top == top:  # a NaN on top is final: nothing replaces it
        i -= 1
        value = values[i]
        if value > top or value != value:
            best, top = i, value
    return best


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

    def explore(self):
        """A uniformly random action with probability epsilon, else None.
        At epsilon 0 it draws nothing from the agent's generator."""
        if self.epsilon > 0 and self.rng.random() < self.epsilon:
            return ACTIONS[int(self.rng.integers(len(ACTIONS)))]
        return None

    def begin_episode(self):
        """Called before an episode's first action."""

    def end_episode(self):
        """Multiplicative epsilon decay, floored at epsilon_min."""
        self.epsilon = max(self.cfg.epsilon_min,
                           self.epsilon * self.cfg.epsilon_decay)

    def select_action(self, obs, record) -> int:
        """The agent as a frozen policy: its greedy action."""
        return self.act(self.encode(obs), greedy=True)

    def checkpoint_meta(self, kind: str) -> dict:
        """The top-level entries of a ``kind`` checkpoint that
        ``checkpoint_header`` reads back: kind, version, config, epsilon."""
        return {"kind": kind, "version": CHECKPOINT_VERSION,
                "config": asdict(self.cfg), "epsilon": self.epsilon}


def check_gamma_and_epsilon(cfg):
    """The range checks both agents' configs share: 0 <= gamma < 1,
    0 <= epsilon_min <= epsilon_start <= 1 and 0 < epsilon_decay <= 1.
    ``core.check_fields`` rejects a NaN before they run; each is still
    written so that a NaN fails it, as a backstop."""
    if not (0 <= cfg.gamma < 1):
        raise FieldError("gamma", "gamma must lie in [0, 1)")
    if not cfg.epsilon_start <= 1:
        raise FieldError("epsilon_start",
                         "need 0 <= epsilon_min <= epsilon_start <= 1")
    if not (0 <= cfg.epsilon_min <= cfg.epsilon_start):
        raise FieldError("epsilon_min",
                         "need 0 <= epsilon_min <= epsilon_start <= 1")
    if not (0 < cfg.epsilon_decay <= 1):
        raise FieldError("epsilon_decay", "epsilon_decay must lie in (0, 1]")


def checkpoint_value(blob: dict, path, key: str, where: str = "checkpoint"):
    """``blob[key]``; a missing key raises ``ValueError`` naming the file
    and the key."""
    try:
        return blob[key]
    except KeyError:
        raise ValueError(f"{path}: {where} has no {key!r}") from None


def checkpoint_header(blob, path, kind: str, cls, retired: dict,
                      where: str = "checkpoint"):
    """(config, epsilon) of a ``kind`` checkpoint's top-level JSON ``blob``,
    the entries both agents save.

    ``blob`` must be a mapping whose ``kind`` is ``kind`` and whose
    ``version`` is ``CHECKPOINT_VERSION``. Its ``config`` must hold only
    keys of ``cls`` whose values ``cls`` accepts (their type and finiteness
    are checked by ``core.check_fields``, their range by ``cls``), and
    entries of ``retired``. That maps each entry that older checkpoints
    saved and ``cls`` no longer has to the one value it may hold, as JSON
    reads it back: the module constant that replaced it. ``epsilon`` must be
    a number in [0, 1]. Otherwise ``ValueError`` names the file, and the key
    where there is one.
    """
    if not isinstance(blob, dict) or blob.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} checkpoint")
    version = checkpoint_value(blob, path, "version", where)
    if not (has_type_of(version, "int") and version == CHECKPOINT_VERSION):
        raise ValueError(f"{path}: version must be {CHECKPOINT_VERSION}, "
                         f"got {version!r}")
    values = checkpoint_value(blob, path, "config", where)
    if not isinstance(values, dict):
        raise ValueError(f"{path}: 'config' is not a mapping")
    for key, constant in retired.items():
        if values.get(key, constant) != constant:
            raise ValueError(f"{path}: config: {key} is a constant now; a "
                             f"checkpoint may hold only {constant!r}, "
                             f"got {values[key]!r}")
    known = {f.name for f in fields(cls)} | retired.keys()
    for key in values:
        if key not in known:
            raise ValueError(f"{path}: config has unknown key {key!r}")
    try:
        cfg = cls(**{key: value for key, value in values.items()
                     if key not in retired})
    except ValueError as exc:
        raise ValueError(f"{path}: config: {exc}") from None
    epsilon = checkpoint_value(blob, path, "epsilon", where)
    if not (has_type_of(epsilon, "float") and 0 <= epsilon <= 1):
        raise ValueError(f"{path}: epsilon must be a number in [0, 1], "
                         f"got {epsilon!r}")
    return cfg, epsilon
