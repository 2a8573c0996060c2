"""Double DQN: replay buffer, targets, normalization, persistence."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale.core import Observation
from farmscale.dqn import (DqnAgent, DqnConfig, ReplayBuffer,
                           double_dqn_targets)
from farmscale.nn import Mlp


def obs(q_work=0, n_workers=4, qos=1.0):
    return Observation(q_in=0, q_work=q_work, q_res=0, q_out=0,
                       n_workers=n_workers, t_proc_avg=0.5, t_proc_max=1.0,
                       arrival_rate=5.0, qos_step=qos)


BOUNDS_LO = np.zeros(9)
BOUNDS_HI = np.array([300, 300, 300, 300, 20, 3.0, 3.0, 10.0, 1.0])


def make_agent(**cfg_kw):
    cfg = DqnConfig(**cfg_kw) if cfg_kw else DqnConfig()
    return DqnAgent(BOUNDS_LO, BOUNDS_HI, cfg, seed=0)


class TestReplayBuffer:
    def test_fifo_eviction_at_capacity(self):
        buf = ReplayBuffer(capacity=3, obs_dim=2)
        for i in range(5):
            buf.push(np.array([i, i]), 0, float(i), np.array([i, i]), False)
        assert buf.size == 3
        rng = np.random.default_rng(0)
        obs_batch, _, rewards, _, _ = buf.sample(3, rng)
        assert sorted(rewards.tolist()) == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for i in range(10):
            buf.push(np.array([i]), 0, float(i), np.array([i]), False)
        rng = np.random.default_rng(1)
        _, _, rewards, _, _ = buf.sample(10, rng)
        assert sorted(rewards.tolist()) == [float(i) for i in range(10)]

    def test_sample_larger_than_size_rejected(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        buf.push(np.array([0.0]), 0, 0.0, np.array([0.0]), False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


class TestDoubleDqnTargets:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        policy = Mlp((9, 8, 3), rng)
        target = Mlp((9, 8, 3), rng)
        n = 16
        rewards = rng.normal(size=n)
        next_obs = rng.uniform(0, 1, size=(n, 9))
        dones = rng.uniform(size=n) < 0.3
        gamma = 0.95
        got = double_dqn_targets(policy, target, rewards, next_obs, dones,
                                 gamma)
        q_policy = policy.forward(next_obs)
        q_target = target.forward(next_obs)
        for i in range(n):
            best, best_val = 0, q_policy[i, 0]
            for a in range(1, 3):  # first maximum wins, like np.argmax
                if q_policy[i, a] > best_val:
                    best, best_val = a, q_policy[i, a]
            expected = rewards[i] + gamma * q_target[i, best] * (not dones[i])
            assert got[i] == expected  # exact, same float operations

    def test_terminal_targets_are_rewards(self):
        rng = np.random.default_rng(0)
        policy, target = Mlp((9, 4, 3), rng), Mlp((9, 4, 3), rng)
        rewards = np.array([1.0, -2.0])
        targets = double_dqn_targets(policy, target, rewards,
                                     np.zeros((2, 9)), np.array([True, True]),
                                     0.95)
        np.testing.assert_array_equal(targets, rewards)


class TestAgent:
    def test_normalize_maps_bounds_to_unit_box(self):
        agent = make_agent()
        lo = agent.normalize(Observation.from_values(BOUNDS_LO))
        hi = agent.normalize(Observation.from_values(BOUNDS_HI))
        np.testing.assert_allclose(lo, np.zeros(9))
        np.testing.assert_allclose(hi, np.ones(9))
        over = agent.normalize(obs(q_work=10_000))
        assert np.max(over) <= 1.0 and np.min(over) >= 0.0

    def test_no_training_before_warmup(self):
        agent = make_agent(warmup=50, batch_size=8)
        for i in range(20):
            agent.learn(obs(q_work=i), 0, 0.0, obs(q_work=i + 1), 0, False)
        assert np.isnan(agent.last_loss)

    def test_training_after_warmup_updates_network(self):
        agent = make_agent(warmup=16, batch_size=8)
        before = [w.copy() for w in agent.policy.weights]
        rng = np.random.default_rng(0)
        for i in range(40):
            agent.learn(obs(q_work=int(rng.integers(0, 100))),
                        int(rng.integers(-1, 2)), float(rng.normal()),
                        obs(), 0, False)
        assert not np.isnan(agent.last_loss)
        assert any(not np.array_equal(b, w)
                   for b, w in zip(before, agent.policy.weights))

    def test_reward_clipping(self):
        agent = make_agent(warmup=4, batch_size=2, reward_clip=(-10.0, 10.0))
        agent.learn(obs(), 0, 1e9, obs(), 0, False)
        assert agent.buffer.rewards[0] == 10.0
        agent.learn(obs(), 0, -1e9, obs(), 0, False)
        assert agent.buffer.rewards[1] == -10.0

    def test_epsilon_schedule(self):
        agent = make_agent(epsilon_start=0.8, epsilon_min=0.05,
                           epsilon_decay=0.5)
        seen = [agent.epsilon]
        for _ in range(10):
            agent.end_episode()
            seen.append(agent.epsilon)
        assert seen[0] == 0.8
        assert all(a >= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] == pytest.approx(0.05)

    def test_save_load_preserves_greedy_actions(self, tmp_path):
        agent = make_agent(warmup=16, batch_size=8)
        rng = np.random.default_rng(2)
        for _ in range(60):
            agent.learn(obs(q_work=int(rng.integers(0, 200))),
                        int(rng.integers(-1, 2)), float(rng.normal()),
                        obs(), 0, False)
        path = tmp_path / "dqn.npz"
        agent.save(path)
        back = DqnAgent.load(path)
        probes = [obs(q_work=q, n_workers=n, qos=s)
                  for q in (0, 30, 200) for n in (1, 10, 20)
                  for s in (0.1, 0.95)]
        for p in probes:
            assert back.act(p, greedy=True) == agent.act(p, greedy=True)

    @pytest.mark.parametrize("key, value, message", [
        ("w1", np.zeros((128, 32)),
         r"'w1' has shape \(128, 32\), expected \(128, 64\)"),
        ("tw0", np.zeros((9, 64)),
         r"'tw0' has shape \(9, 64\), expected \(9, 128\)"),
        ("tb2", np.zeros(4), r"'tb2' has shape \(4,\), expected \(3,\)"),
        ("b2", None, "checkpoint has no 'b2'"),
        ("tw1", None, "checkpoint has no 'tw1'"),
        ("obs_lows", np.zeros(8),
         r"'obs_lows' has shape \(8,\), expected \(9,\)"),
        ("obs_highs", None, "checkpoint has no 'obs_highs'"),
    ])
    def test_load_rejects_bad_entry(self, tmp_path, key, value, message):
        good = tmp_path / "good.npz"
        make_agent().save(good)
        arrays = dict(np.load(good))
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(bad))}: {message}$"):
            DqnAgent.load(bad)

    def test_load_rejects_head_not_one_value_per_action(self, tmp_path):
        good = tmp_path / "good.npz"
        make_agent().save(good)
        arrays = dict(np.load(good))
        meta = json.loads(str(arrays["meta"]))
        meta["layer_sizes"][-1] = 4
        arrays["meta"] = np.array(json.dumps(meta))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError, match="must end in 3"):
            DqnAgent.load(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DqnConfig(warmup=100, replay_capacity=50)
        with pytest.raises(ValueError):
            DqnConfig(tau=0.0)
