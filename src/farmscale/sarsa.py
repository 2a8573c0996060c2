"""Tabular on-policy control over a discretized observation.

The 9-component observation is mapped to a tuple of bin indices; the agent
keeps a sparse Q-table over those tuples and uses accumulating eligibility
traces so multi-step returns propagate backwards within an episode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field

import numpy as np

from .agent import (LearningAgent, checkpoint_config, checkpoint_value,
                    greedy_index)
from .core import ACTIONS


@dataclass(frozen=True)
class Discretizer:
    """Per-dimension ascending bin edges; values clamp to the edge bins."""

    edges: tuple  # one tuple of edges per observation component

    def __call__(self, obs) -> tuple:
        values = obs.as_tuple()
        return tuple(int(np.searchsorted(e, v, side="right"))
                     for e, v in zip(self.edges, values))


def default_discretizer(n_max: int = 20) -> Discretizer:
    queue_edges = (1, 11, 41, 101)  # {0, 1-10, 11-40, 41-100, >100}
    worker_edges = tuple(range(4, n_max + 1, 4))
    t_edges = (0.5, 1.0, 2.0)
    rate_edges = (2.5, 5.0, 7.5)
    qos_edges = (0.5, 0.9)
    return Discretizer(edges=(
        queue_edges, queue_edges, queue_edges, queue_edges,
        worker_edges, t_edges, t_edges, rate_edges, qos_edges,
    ))


def epsilon_greedy(values, epsilon: float, rng: np.random.Generator) -> int:
    """Index of the chosen action; greedy ties break to the largest index."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(len(values)))
    return greedy_index(values)


@dataclass(frozen=True)
class SarsaConfig:
    alpha: float = 0.1
    gamma: float = 0.95
    trace_decay: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.98  # multiplicative, per episode
    prune_threshold: float = 1e-4

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0 <= self.gamma < 1):
            raise ValueError("gamma must lie in [0, 1)")
        if not (self.epsilon_min <= self.epsilon_start <= 1):
            raise ValueError("need epsilon_min <= epsilon_start <= 1")


def sarsa_update(qtable: dict, traces: dict, state, action_idx: int,
                 reward: float, next_state, next_action_idx, done: bool,
                 cfg: SarsaConfig):
    """One on-policy TD(lambda) update with accumulating traces."""
    q_sa = qtable.get(state, _ZERO)[action_idx]
    q_next = 0.0 if done else qtable.get(next_state, _ZERO)[next_action_idx]
    delta = reward + cfg.gamma * q_next - q_sa

    key = (state, action_idx)
    traces[key] = traces.get(key, 0.0) + 1.0

    decay = cfg.gamma * cfg.trace_decay
    dead = []
    for (s, a), e in traces.items():
        row = qtable.get(s)
        if row is None:
            row = np.zeros(len(ACTIONS))
            qtable[s] = row
        row[a] += cfg.alpha * delta * e
        e *= decay
        if e < cfg.prune_threshold:
            dead.append((s, a))
        else:
            traces[(s, a)] = e
    for k in dead:
        del traces[k]


_ZERO = np.zeros(len(ACTIONS))


class SarsaAgent(LearningAgent):
    def __init__(self, cfg: SarsaConfig = SarsaConfig(),
                 discretizer: Discretizer | None = None, seed: int = 0):
        super().__init__(cfg, seed, 40_000)
        self.discretizer = discretizer or default_discretizer()
        self.qtable: dict = {}
        self.traces: dict = {}

    def begin_episode(self):
        self.traces.clear()

    def act(self, obs, greedy: bool = False) -> int:
        state = self.discretizer(obs)
        values = self.qtable.get(state, _ZERO)
        idx = epsilon_greedy(values, 0.0 if greedy else self.epsilon, self.rng)
        return ACTIONS[idx]

    def learn(self, obs, action: int, reward: float, next_obs,
              next_action: int, done: bool):
        sarsa_update(
            self.qtable, self.traces,
            self.discretizer(obs), ACTIONS.index(action), reward,
            self.discretizer(next_obs), ACTIONS.index(next_action),
            done, self.cfg)

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        blob = {
            "kind": "sarsa",
            "version": 1,
            "config": asdict(self.cfg),
            "epsilon": self.epsilon,
            "edges": [list(e) for e in self.discretizer.edges],
            "qtable": [[list(state), [float(v) for v in row]]
                       for state, row in sorted(self.qtable.items())],
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)

    @classmethod
    def load(cls, path) -> "SarsaAgent":
        """Read a checkpoint written by ``save``; a missing entry, a config
        key ``SarsaConfig`` lacks or a misshapen Q-table entry raises
        ``ValueError`` naming the file and the key."""
        with open(path) as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict) or blob.get("kind") != "sarsa":
            raise ValueError(f"{path} is not a sarsa checkpoint")
        cfg = checkpoint_config(SarsaConfig,
                                checkpoint_value(blob, path, "config"), path)
        edges = checkpoint_value(blob, path, "edges")
        qtable = checkpoint_value(blob, path, "qtable")
        agent = cls(cfg=cfg, discretizer=Discretizer(
            edges=tuple(tuple(e) for e in edges)))
        agent.epsilon = checkpoint_value(blob, path, "epsilon")
        n_dims = len(agent.discretizer.edges)
        for i, (state, row) in enumerate(qtable):
            if len(state) != n_dims or len(row) != len(ACTIONS):
                raise ValueError(
                    f"{path}: qtable[{i}] has a {len(state)}-component state "
                    f"and {len(row)} values, expected {n_dims} and "
                    f"{len(ACTIONS)}")
        agent.qtable = {tuple(state): np.array(row) for state, row in qtable}
        return agent
