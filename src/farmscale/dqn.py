"""Double value-learning agent on the continuous observation vector.

Online network picks the greedy next action, a slowly-tracking target
network evaluates it. Transitions live in a FIFO ring buffer with clipped
rewards; training starts after a warm-up and each step ends with a soft
target update.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, asdict

import numpy as np

from .agent import (LearningAgent, check_gamma_and_epsilon,
                    checkpoint_config, checkpoint_epsilon, checkpoint_value,
                    greedy_index)
from .core import ACTIONS, FieldError, Observation, has_type_of
from .nn import Adam, Mlp, clip_gradient_norm, soft_update

HIDDEN_LAYERS = (128, 64)
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile)  # bad archive/member
# rows a replay buffer holds before its first growth
REPLAY_INITIAL_ROWS = 1_024


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
    reward_clip: tuple = (-100.0, 100.0)

    def __post_init__(self):
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

    The arrays start with ``REPLAY_INITIAL_ROWS`` rows (fewer when
    ``capacity`` is smaller) and double, up to ``capacity``, when ``push``
    fills them; the ring wraps only once they hold ``capacity`` rows. A run
    that stores few transitions never allocates the full capacity. The rows
    are uninitialised until written: ``sample`` reads only the first
    ``size`` rows, all of which ``push`` has written.
    """

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        rows = min(capacity, REPLAY_INITIAL_ROWS)
        self.obs = np.empty((rows, obs_dim))
        self.actions = np.empty(rows, dtype=int)
        self.rewards = np.empty(rows)
        self.next_obs = np.empty((rows, obs_dim))
        self.dones = np.empty(rows, dtype=bool)
        self.size = 0
        self._head = 0

    def push(self, obs, action_idx, reward, next_obs, done):
        i = self._head
        if i == len(self.rewards):
            self._grow()
        self.obs[i] = obs
        self.actions[i] = action_idx
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _grow(self):
        """Double the rows, at most to ``capacity``, keeping those written."""
        rows = min(2 * len(self.rewards), self.capacity)
        for name in ("obs", "actions", "rewards", "next_obs", "dones"):
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


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
        self.last_loss = float("nan")

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
        if not greedy and self.rng.random() < self.epsilon:
            return ACTIONS[int(self.rng.integers(len(ACTIONS)))]
        return ACTIONS[greedy_index(self.policy.forward(state))]

    def learn(self, state, action: int, reward: float, next_state,
              next_action: int, done: bool):
        lo, hi = self.cfg.reward_clip
        self.buffer.push(state, ACTIONS.index(action),
                         min(max(reward, lo), hi), next_state, done)
        self.last_loss = self.train_step()

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
        meta = {
            "kind": "dqn",
            "version": 1,
            "config": asdict(self.cfg),
            "epsilon": self.epsilon,
            "layer_sizes": list(self.policy.layer_sizes),
        }
        arrays = {"obs_lows": self.obs_lows, "obs_highs": self.obs_highs,
                  "meta": np.array(json.dumps(meta))}
        for prefix, net in self._nets():
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{prefix}w{i}"] = w
                arrays[f"{prefix}b{i}"] = b
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "DqnAgent":
        """Read a checkpoint written by ``save``; a missing entry, a config
        key ``DqnConfig`` lacks, an epsilon outside [0, 1], an array whose
        shape differs from what ``layer_sizes`` implies or that holds anything
        but finite numbers, or an ``obs_highs`` entry not above its
        ``obs_lows`` entry raises ``ValueError`` naming the file and the key,
        or the file alone if it is not an archive of arrays with JSON meta.
        """
        try:
            data = np.lib.npyio.NpzFile(
                path if str(path).endswith(".npz") else f"{path}.npz")
            meta = json.loads(str(data["meta"])) if "meta" in data else None
        except _UNREADABLE as exc:
            raise ValueError(f"{path} is not a dqn checkpoint: {exc}") from None
        with data:  # members are read on demand, only those checked
            return cls._from_archive(data, meta, path)

    @classmethod
    def _from_archive(cls, data, meta, path) -> "DqnAgent":
        """``load``'s checks and assembly, on the open archive ``data``."""
        if not isinstance(meta, dict) or meta.get("kind") != "dqn":
            raise ValueError(f"{path} is not a dqn checkpoint")
        sizes = checkpoint_value(meta, path, "layer_sizes", "meta")
        if not (isinstance(sizes, list)
                and all(has_type_of(n, 0) and n > 0 for n in sizes)):
            raise ValueError(f"{path}: layer_sizes {sizes!r} must be a list "
                             f"of positive integers")
        sizes = tuple(sizes)
        if sizes[-1:] != (len(ACTIONS),):
            raise ValueError(f"{path}: layer_sizes {list(sizes)} must end in "
                             f"{len(ACTIONS)}, one value per action")
        if sizes[0] != len(Observation._fields):
            raise ValueError(f"{path}: layer_sizes {list(sizes)} must start "
                             f"with {len(Observation._fields)}, one input per "
                             f"observation component")
        cfg = checkpoint_config(
            DqnConfig, checkpoint_value(meta, path, "config", "meta"), path)
        lows = _numbers(data, path, "obs_lows", sizes[:1])
        highs = _numbers(data, path, "obs_highs", sizes[:1])
        if not (highs > lows).all():
            raise ValueError(f"{path}: 'obs_highs' must exceed 'obs_lows' "
                             f"in every component")
        agent = cls(lows, highs, cfg=cfg)
        agent.epsilon = checkpoint_epsilon(meta, path, "meta")
        agent.policy, agent.target = Mlp(sizes), Mlp(sizes)
        for prefix, net in agent._nets():
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                w[...] = _numbers(data, path, f"{prefix}w{i}", w.shape)
                b[...] = _numbers(data, path, f"{prefix}b{i}", b.shape)
        agent.optimizer = Adam(agent.policy.flat, lr=agent.cfg.learning_rate)
        return agent


def _entry(data, path, key, shape) -> np.ndarray:
    """Checkpoint array ``key``, checked to exist and to have ``shape``."""
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
    return value


def _numbers(data, path, key, shape) -> np.ndarray:
    """``_entry``, also checked to hold only finite numbers."""
    value = _entry(data, path, key, shape)
    if value.dtype.kind not in "biuf" or not np.isfinite(value).all():
        raise ValueError(f"{path}: {key!r} must hold only finite numbers")
    return value
