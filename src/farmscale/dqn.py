"""Double value-learning agent on the continuous observation vector.

Online network picks the greedy next action, a slowly-tracking target
network evaluates it. Transitions live in a FIFO ring buffer with clipped
rewards; training starts after a warm-up and each step ends with a soft
target update.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .agent import (LearningAgent, check_gamma_and_epsilon,
                    checkpoint_header, greedy_index)
from .core import ACTIONS, FieldError, Observation, check_fields
from .nn import Adam, Mlp, clip_gradient_norm, soft_update

HIDDEN_LAYERS = (128, 64)
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile)  # bad archive/member
# rows a replay buffer holds before its first growth
REPLAY_INITIAL_ROWS = 1_024
# the range a reward is clipped to before it is stored; older checkpoints
# hold it as the config entry "reward_clip"
REWARD_CLIP = (-100.0, 100.0)


@dataclass(frozen=True)
class DqnConfig:
    replay_capacity: int = 75_000
    batch_size: int = 64
    warmup: int = 1_000
    gamma: float = 0.95
    epsilon_start: float = 0.8
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.97  # multiplicative, per episode
    tau: float = 0.01
    learning_rate: float = 1e-3
    grad_clip: float = 10.0

    def __post_init__(self):
        check_fields(self)
        if self.warmup > self.replay_capacity:
            raise FieldError("warmup", "warmup must not exceed replay capacity")
        if not (1 <= self.batch_size <= self.warmup):
            raise FieldError("batch_size", f"need 1 <= batch_size <= warmup, "
                             f"got {self.batch_size}/{self.warmup}")
        if not (0 < self.tau <= 1):
            raise FieldError("tau", "tau must lie in (0, 1]")
        if not self.learning_rate > 0:
            raise FieldError("learning_rate", "learning_rate must be positive")
        if not self.grad_clip > 0:
            raise FieldError("grad_clip", "grad_clip must be positive")
        check_gamma_and_epsilon(self)


class ReplayBuffer:
    """Fixed-capacity FIFO store of (obs, action, reward, next_obs, done).

    A transition is one row of the structured array ``rows``, whose fields
    are named ``obs``, ``action``, ``reward``, ``next_obs`` and ``done``.
    The table starts with ``REPLAY_INITIAL_ROWS`` rows (fewer when
    ``capacity`` is smaller) and doubles, up to ``capacity``, when ``push``
    fills it; the ring wraps only once it holds ``capacity`` rows. A run
    that stores few transitions never allocates the full capacity. The rows
    are uninitialised until written: ``sample`` reads only the first
    ``size`` rows, all of which ``push`` has written.
    """

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        row = np.dtype([("obs", float, (obs_dim,)), ("action", int),
                        ("reward", float), ("next_obs", float, (obs_dim,)),
                        ("done", bool)], align=True)
        self.rows = np.empty(min(capacity, REPLAY_INITIAL_ROWS), dtype=row)
        self.size = 0
        self._head = 0

    def push(self, obs, action_idx, reward, next_obs, done):
        i = self._head
        if i == len(self.rows):
            self._grow()
        self.rows[i] = obs, action_idx, reward, next_obs, done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _grow(self):
        """Double the rows, at most to ``capacity``, keeping those written."""
        old = self.rows
        self.rows = np.empty(min(2 * len(old), self.capacity), dtype=old.dtype)
        self.rows[:len(old)] = old

    def sample(self, batch_size: int, rng: np.random.Generator):
        batch = self.rows.take(rng.choice(self.size, size=batch_size,
                                          replace=False))
        # the observations leave as contiguous copies: on the strided field
        # views a training step's three network passes ran about 2% slower
        return (np.ascontiguousarray(batch["obs"]), batch["action"],
                batch["reward"], np.ascontiguousarray(batch["next_obs"]),
                batch["done"])


def double_dqn_targets(policy: Mlp, target: Mlp, rewards, next_obs, dones,
                       gamma: float) -> np.ndarray:
    """y = r for terminal transitions, else r + gamma * Q_target(s', a*)
    where a* is the online network's greedy action on s'."""
    next_q_policy = policy.forward(next_obs)
    greedy = np.argmax(next_q_policy, axis=1)
    next_q_target = target.forward(next_obs)
    # the operations of rewards + gamma * evaluated * ~dones, in place
    evaluated = next_q_target[np.arange(len(greedy)), greedy]
    evaluated *= gamma
    evaluated *= ~np.asarray(dones, dtype=bool)
    evaluated += rewards
    return evaluated


class DqnAgent(LearningAgent):
    def __init__(self, obs_lows, obs_highs, cfg: DqnConfig = DqnConfig(),
                 seed: int = 0):
        super().__init__(cfg, seed, 50_000)
        self.obs_lows = np.asarray(obs_lows, dtype=float)
        self.obs_highs = np.asarray(obs_highs, dtype=float)
        self._span = self.obs_highs - self.obs_lows
        layers = (len(self.obs_lows), *HIDDEN_LAYERS, len(ACTIONS))
        self.policy = Mlp(layers, self.rng)
        self.target = self.policy.copy()
        self.optimizer = Adam(self.policy.flat, lr=cfg.learning_rate)
        self.buffer = ReplayBuffer(cfg.replay_capacity, len(self.obs_lows))

    def normalize(self, obs) -> np.ndarray:
        """The observation scaled to the unit box, clipped.

        This is where an observation enters the agent, so a NaN or infinite
        entry raises ``FloatingPointError`` here, before ``act`` or the
        replay buffer sees it. The maximum takes 0.0 as its first operand,
        so a -0.0 entry stays -0.0, as under ``np.clip``.
        """
        x = np.array(obs, dtype=float)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite observation {obs!r}")
        x -= self.obs_lows
        x /= self._span
        np.maximum(0.0, x, out=x)
        np.minimum(x, 1.0, out=x)
        return x

    encode = normalize

    def act(self, state, greedy: bool = False) -> int:
        action = None if greedy else self.explore()
        if action is None:
            action = ACTIONS[greedy_index(self.policy.forward(state))]
        return action

    def learn(self, state, action: int, reward: float, next_state,
              next_action: int, done: bool):
        lo, hi = REWARD_CLIP
        self.buffer.push(state, ACTIONS.index(action),
                         min(max(reward, lo), hi), next_state, done)
        self.train_step()

    def train_step(self):
        """One batch update; no-op (returns nan) before warm-up."""
        if self.buffer.size < self.cfg.warmup:
            return float("nan")
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            self.cfg.batch_size, self.rng)
        targets = double_dqn_targets(self.policy, self.target, rewards,
                                     next_obs, dones, self.cfg.gamma)
        loss, _ = self.policy.loss_and_gradients(obs, actions, targets)
        clip_gradient_norm(self.policy, self.cfg.grad_clip)
        self.optimizer.step(self.policy.grad)
        soft_update(self.target, self.policy, self.cfg.tau)
        return loss

    # -- persistence ---------------------------------------------------------

    def _nets(self):
        """(checkpoint key prefix, network) of both networks."""
        return (("", self.policy), ("t", self.target))

    def save(self, path):
        arrays = {"obs_lows": self.obs_lows, "obs_highs": self.obs_highs,
                  "meta": np.array(json.dumps(self.checkpoint_meta("dqn")))}
        for prefix, net in self._nets():
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{prefix}w{i}"] = w
                arrays[f"{prefix}b{i}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "DqnAgent":
        """Read a checkpoint written by ``save``; a missing entry, a version
        other than 1, a config key ``DqnConfig`` lacks, a saved
        ``reward_clip`` other than ``REWARD_CLIP``, an epsilon outside
        [0, 1], an array whose shape differs from that of the networks the
        agent builds or that holds anything but finite numbers, or an
        ``obs_highs`` entry not above its ``obs_lows`` entry raises
        ``ValueError`` naming the file and the key, or the file alone if it
        is not an archive of arrays with JSON meta. Older checkpoints also
        saved the layer sizes in the meta; that entry is ignored.
        """
        try:
            data = np.lib.npyio.NpzFile(
                path if str(path).endswith(".npz") else f"{path}.npz")
            meta = json.loads(str(data["meta"])) if "meta" in data else None
        except _UNREADABLE as exc:
            raise ValueError(f"{path} is not a dqn checkpoint: {exc}") from None
        with data:  # members are read on demand, only those checked
            cfg, epsilon = checkpoint_header(
                meta, path, "dqn", DqnConfig,
                retired={"reward_clip": list(REWARD_CLIP)}, where="meta")
            width = (len(Observation._fields),)
            lows = _numbers(data, path, "obs_lows", width)
            highs = _numbers(data, path, "obs_highs", width)
            if not (highs > lows).all():
                raise ValueError(f"{path}: 'obs_highs' must exceed "
                                 f"'obs_lows' in every component")
            agent = cls(lows, highs, cfg)
            agent.epsilon = epsilon
            # filled in place: the optimizer's parameters are policy.flat
            for prefix, net in agent._nets():
                for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                    w[...] = _numbers(data, path, f"{prefix}w{i}", w.shape)
                    b[...] = _numbers(data, path, f"{prefix}b{i}", b.shape)
        return agent


def _numbers(data, path, key, shape) -> np.ndarray:
    """Checkpoint array ``key``, checked to exist, to have ``shape`` and to
    hold only finite numbers."""
    if key not in data:
        raise ValueError(f"{path}: checkpoint has no {key!r}")
    try:
        value = data[key]
    except _UNREADABLE as exc:
        raise ValueError(f"{path}: {key!r} is not a .npy array: {exc}") from None
    if not isinstance(value, np.ndarray):  # a member that is not .npy
        raise ValueError(f"{path}: {key!r} is not a .npy array")
    if value.shape != shape:
        raise ValueError(f"{path}: {key!r} has shape {value.shape}, "
                         f"expected {shape}")
    if value.dtype.kind not in "biuf" or not np.isfinite(value).all():
        raise ValueError(f"{path}: {key!r} must hold only finite numbers")
    return value
