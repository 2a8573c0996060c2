"""Double value-learning agent on the continuous observation vector.

Online network picks the greedy next action, a slowly-tracking target
network evaluates it. Transitions live in a FIFO ring buffer with clipped
rewards; training starts after a warm-up and each step ends with a soft
target update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .agent import (LearningAgent, check_gamma_and_epsilon,
                    checkpoint_config, checkpoint_value, greedy_index)
from .core import ACTIONS, FieldError, has_type_of
from .nn import Adam, Mlp, clip_gradient_norm, soft_update

HIDDEN_LAYERS = (128, 64)


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
        check_gamma_and_epsilon(self)


class ReplayBuffer:
    """Fixed-capacity FIFO store of (obs, action, reward, next_obs, done).

    The arrays start uninitialised: ``sample`` reads only the first ``size``
    rows, all of which ``push`` has written.
    """

    def __init__(self, capacity: int, obs_dim: int = 9):
        self.capacity = capacity
        self.obs = np.empty((capacity, obs_dim))
        self.actions = np.empty(capacity, dtype=int)
        self.rewards = np.empty(capacity)
        self.next_obs = np.empty((capacity, obs_dim))
        self.dones = np.empty(capacity, dtype=bool)
        self.size = 0
        self._head = 0

    def push(self, obs, action_idx, reward, next_obs, done):
        i = self._head
        self.obs[i] = obs
        self.actions[i] = action_idx
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

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
    evaluated = next_q_target[np.arange(len(greedy)), greedy]
    return rewards + gamma * evaluated * (~np.asarray(dones, dtype=bool))


class DqnAgent(LearningAgent):
    def __init__(self, obs_lows, obs_highs, cfg: DqnConfig = DqnConfig(),
                 seed: int = 0):
        super().__init__(cfg, seed, 50_000)
        self.obs_lows = np.asarray(obs_lows, dtype=float)
        self.obs_highs = np.asarray(obs_highs, dtype=float)
        layers = (len(self.obs_lows), *HIDDEN_LAYERS, len(ACTIONS))
        self.policy = Mlp(layers, self.rng)
        self.target = self.policy.copy()
        self.optimizer = Adam(self.policy.flat, lr=cfg.learning_rate)
        self.buffer = ReplayBuffer(cfg.replay_capacity, len(self.obs_lows))
        self.last_loss = float("nan")

    def normalize(self, obs) -> np.ndarray:
        """The observation scaled to the unit box, clipped; read-only."""
        x = np.asarray(obs.as_tuple(), dtype=float)
        span = self.obs_highs - self.obs_lows
        x = np.clip((x - self.obs_lows) / span, 0.0, 1.0)
        x.flags.writeable = False
        return x

    encode = normalize

    def act(self, obs, greedy: bool = False) -> int:
        if not greedy and self.rng.random() < self.epsilon:
            return ACTIONS[int(self.rng.integers(len(ACTIONS)))]
        return ACTIONS[greedy_index(self.policy.forward(self.state(obs)))]

    def learn(self, obs, action: int, reward: float, next_obs,
              next_action: int, done: bool):
        lo, hi = self.cfg.reward_clip
        self.buffer.push(self.state(obs), ACTIONS.index(action),
                         float(np.clip(reward, lo, hi)),
                         self.state(next_obs), done)
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
        key ``DqnConfig`` lacks or an array whose shape differs from what
        ``layer_sizes`` implies raises ``ValueError`` naming the file and
        the key."""
        data = np.load(path if str(path).endswith(".npz") else f"{path}.npz",
                       allow_pickle=False)
        meta = json.loads(str(_entry(data, path, "meta", ())))
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
        cfg = checkpoint_config(
            DqnConfig, checkpoint_value(meta, path, "config", "meta"), path)
        agent = cls(_entry(data, path, "obs_lows", sizes[:1]),
                    _entry(data, path, "obs_highs", sizes[:1]), cfg=cfg)
        agent.epsilon = checkpoint_value(meta, path, "epsilon", "meta")
        agent.policy, agent.target = Mlp(sizes), Mlp(sizes)
        for prefix, net in agent._nets():
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                w[...] = _entry(data, path, f"{prefix}w{i}", w.shape)
                b[...] = _entry(data, path, f"{prefix}b{i}", b.shape)
        agent.optimizer = Adam(agent.policy.flat, lr=agent.cfg.learning_rate)
        return agent


def _entry(data, path, key, shape) -> np.ndarray:
    """Checkpoint array ``key``, checked to exist and to have ``shape``."""
    if key not in data:
        raise ValueError(f"{path}: checkpoint has no {key!r}")
    value = data[key]
    if value.shape != shape:
        raise ValueError(f"{path}: {key!r} has shape {value.shape}, "
                         f"expected {shape}")
    return value
