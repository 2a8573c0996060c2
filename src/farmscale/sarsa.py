"""Tabular on-policy control over a discretized observation.

The 9-component observation is mapped to a tuple of bin indices; the agent
keeps a sparse Q-table over those tuples and uses accumulating eligibility
traces so multi-step returns propagate backwards within an episode.

A Q-table row is an ``array('d')`` of ``len(ACTIONS)`` doubles, not an
ndarray: an update reads and writes one scalar at a time, which numpy
boxes and dispatches per call, while ``array('d')`` stores the same
doubles (``tobytes()`` gives the bytes of the float64 ndarray) and
exchanges Python floats directly. The update therefore runs on Python
floats, in the association order the ndarray code used, so every Q-value
keeps its bits.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from .agent import (LearningAgent, check_gamma_and_epsilon,
                    checkpoint_header, checkpoint_value, greedy_index)
from .core import (ACTIONS, FieldError, Observation, check_fields,
                   has_type_of, is_finite)

# a trace that decays below this is dropped; older checkpoints hold it as
# the config entry "prune_threshold"
PRUNE_THRESHOLD = 1e-4


@dataclass(frozen=True)
class Discretizer:
    """Per-dimension ascending bin edges; values clamp to the edge bins.

    A component's bin is the number of its edges at or below the value,
    as ``np.searchsorted(edges, value, side="right")`` gives it.
    """

    edges: tuple  # one tuple of edges per observation component

    def __post_init__(self):
        if not (isinstance(self.edges, tuple)
                and len(self.edges) == len(Observation._fields)):
            raise ValueError(f"need one tuple of edges per observation "
                             f"component ({len(Observation._fields)})")
        for name, e in zip(Observation._fields, self.edges):
            if not (isinstance(e, tuple)
                    and all(has_type_of(v, "float")
                            and (is_finite(v) or abs(v) == math.inf)
                            for v in e)
                    and all(a < b for a, b in zip(e, e[1:]))):
                raise ValueError(f"edges of {name} must be a strictly "
                                 f"ascending tuple of numbers, got {e!r}")

    def __call__(self, obs) -> tuple:
        return tuple(map(bisect_right, self.edges, obs))


def default_discretizer(n_max: int) -> Discretizer:
    """Fixed bins per component; workers in bins of 4 up to ``n_max``."""
    queue_edges = (1, 11, 41, 101)  # {0, 1-10, 11-40, 41-100, >100}
    worker_edges = tuple(range(4, n_max + 1, 4))
    t_edges = (0.5, 1.0, 2.0)
    rate_edges = (2.5, 5.0, 7.5)
    qos_edges = (0.5, 0.9)
    return Discretizer(edges=(
        queue_edges, queue_edges, queue_edges, queue_edges,
        worker_edges, t_edges, t_edges, rate_edges, qos_edges,
    ))


@dataclass(frozen=True)
class SarsaConfig:
    alpha: float = 0.1
    gamma: float = 0.95
    trace_decay: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.98  # multiplicative, per episode

    def __post_init__(self):
        check_fields(self)
        if not (0 < self.alpha <= 1):
            raise FieldError("alpha", "alpha must lie in (0, 1]")
        if not (0 <= self.trace_decay <= 1):
            raise FieldError("trace_decay", "trace_decay must lie in [0, 1]")
        check_gamma_and_epsilon(self)


def sarsa_update(qtable: dict, traces: dict, state, action_idx: int,
                 reward: float, next_state, next_action_idx, done: bool,
                 cfg: SarsaConfig):
    """One on-policy TD(lambda) update with accumulating traces.

    Each live trace ``e`` moves its entry by ``cfg.alpha * delta * e``,
    computed as ``step * e`` with ``step = cfg.alpha * delta``: the same
    left-to-right product. A state seen for the first time gets a zero
    row.
    """
    q_sa = qtable.get(state, _ZERO)[action_idx]
    q_next = 0.0 if done else qtable.get(next_state, _ZERO)[next_action_idx]
    delta = reward + cfg.gamma * q_next - q_sa

    key = (state, action_idx)
    traces[key] = traces.get(key, 0.0) + 1.0

    step = cfg.alpha * delta
    decay = cfg.gamma * cfg.trace_decay
    dead = []
    for key, e in traces.items():
        s, a = key
        row = qtable.get(s)
        if row is None:
            row = qtable[s] = _ZERO[:]
        row[a] += step * e
        e *= decay
        if e < PRUNE_THRESHOLD:
            dead.append(key)
        else:
            traces[key] = e
    for key in dead:
        del traces[key]


# the row of a state not in the Q-table; read only, and copied (a slice of
# an array is a new array) to start a new row
_ZERO = array("d", [0.0] * len(ACTIONS))


class SarsaAgent(LearningAgent):
    def __init__(self, cfg: SarsaConfig, discretizer: Discretizer,
                 seed: int = 0):
        super().__init__(cfg, seed, 40_000)
        self.discretizer = discretizer
        self.qtable: dict = {}
        self.traces: dict = {}

    def begin_episode(self):
        self.traces.clear()

    def encode(self, obs) -> tuple:
        return self.discretizer(obs)

    def act(self, state, greedy: bool = False) -> int:
        action = None if greedy else self.explore()
        if action is None:
            action = ACTIONS[greedy_index(self.qtable.get(state, _ZERO))]
        return action

    def learn(self, state, action: int, reward: float, next_state,
              next_action: int, done: bool):
        sarsa_update(self.qtable, self.traces, state, ACTIONS.index(action),
                     reward, next_state, ACTIONS.index(next_action), done,
                     self.cfg)

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        blob = {
            **self.checkpoint_meta("sarsa"),
            "edges": [list(e) for e in self.discretizer.edges],
            "qtable": [[list(state), row.tolist()]
                       for state, row in sorted(self.qtable.items())],
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)

    @classmethod
    def load(cls, path) -> "SarsaAgent":
        """Read a checkpoint written by ``save``; a missing entry, a version
        other than 1, a config key ``SarsaConfig`` lacks, a saved
        ``prune_threshold`` other than ``PRUNE_THRESHOLD``, an epsilon
        outside [0, 1] or a misshapen or non-finite Q-table entry raises
        ``ValueError`` naming the file and the key, or the file alone if it
        is not JSON."""
        try:
            with open(path, "rb") as fh:  # json.load detects UTF-8/16/32
                blob = json.load(fh)
        except ValueError as exc:  # not JSON, or not in a UTF encoding
            raise ValueError(f"{path} is not a sarsa checkpoint: {exc}") from None
        cfg, epsilon = checkpoint_header(
            blob, path, "sarsa", SarsaConfig,
            retired={"prune_threshold": PRUNE_THRESHOLD})
        edges = checkpoint_value(blob, path, "edges")
        qtable = checkpoint_value(blob, path, "qtable")
        try:
            discretizer = Discretizer(edges=_tuples(edges))
        except ValueError as exc:
            raise ValueError(f"{path}: 'edges': {exc}") from None
        if not isinstance(qtable, list):
            raise ValueError(f"{path}: qtable must be a list of "
                             f"[state, values] pairs, got {qtable!r}")
        n_dims = len(discretizer.edges)
        for i, entry in enumerate(qtable):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(part, list) for part in entry)):
                raise ValueError(f"{path}: qtable[{i}] must be a "
                                 f"[state, values] pair, got {entry!r}")
            state, row = entry
            if len(state) != n_dims or len(row) != len(ACTIONS):
                raise ValueError(
                    f"{path}: qtable[{i}] has a {len(state)}-component state "
                    f"and {len(row)} values, expected {n_dims} and "
                    f"{len(ACTIONS)}")
            if not (all(has_type_of(v, "int") for v in state)
                    and all(has_type_of(v, "float") for v in row)):
                raise ValueError(f"{path}: qtable[{i}] must hold integer bins "
                                 f"and numeric values, got {entry!r}")
            if not all(map(is_finite, row)):
                raise ValueError(f"{path}: qtable[{i}] holds a non-finite "
                                 f"value, got {entry!r}")
        agent = cls(cfg, discretizer)
        agent.epsilon = epsilon
        agent.qtable = {tuple(state): array("d", row)
                        for state, row in qtable}
        return agent


def _tuples(value):
    """A JSON value with every list turned into a tuple."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    return value
