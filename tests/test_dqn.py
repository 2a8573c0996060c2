"""Double DQN: replay buffer, targets, normalization, persistence."""

import json
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale.core import Observation, RewardConfig
from farmscale.dqn import (DqnAgent, DqnConfig, ReplayBuffer,
                           double_dqn_targets)
from farmscale.env import FarmEnv
from farmscale.nn import Mlp
from farmscale.training import train_agent
from farmscale.workload import default_size_distribution, reduced_paper_model
from tests.conftest import single_phase_config


def obs(q_work=0, n_workers=4, qos=1.0):
    return Observation(q_in=0, q_work=q_work, q_res=0, q_out=0,
                       n_workers=n_workers, t_proc_avg=0.5, t_proc_max=1.0,
                       arrival_rate=5.0, qos_step=qos)


BOUNDS_LO = np.zeros(9)
BOUNDS_HI = np.array([300, 300, 300, 300, 20, 3.0, 3.0, 10.0, 1.0])


def make_agent(**cfg_kw):
    cfg = DqnConfig(**cfg_kw) if cfg_kw else DqnConfig()
    return DqnAgent(BOUNDS_LO, BOUNDS_HI, cfg, seed=0)


def learn(agent, o, action, reward, next_o):
    """One non-terminal ``agent.learn`` on the encoded observations, as
    ``train_agent`` makes it."""
    agent.learn(agent.encode(o), action, reward, agent.encode(next_o), 0,
                False)


class PoisonedEnv(FarmEnv):
    """A short one-phase episode whose observation at step ``at`` (0 is the
    reset) has ``bad`` as its arrival rate."""

    def __init__(self, at, bad):
        super().__init__(single_phase_config(2.0, 60.0, n_init=2,
                                             warm_start=True), RewardConfig())
        self.at, self.bad = at, bad

    def _poison(self, obs):
        if len(self.log.steps) == self.at:
            return obs._replace(arrival_rate=self.bad)
        return obs

    def reset(self, workload, seed):
        obs, record = super().reset(workload, seed)
        return self._poison(obs), record

    def step(self, action):
        obs, reward, done, record = super().step(action)
        return self._poison(obs), reward, done, record


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

    def test_wraparound_reads_only_written_rows(self):
        # the arrays start uninitialised; poison them so a read of a row
        # push never wrote would show
        buf = ReplayBuffer(capacity=4, obs_dim=2)
        for array in (buf.obs, buf.rewards, buf.next_obs):
            array.fill(np.nan)
        buf.actions.fill(-7)
        rng = np.random.default_rng(3)
        for i in range(11):
            buf.push(np.array([i, -i]), i % 3, float(i), np.array([-i, i]),
                     i % 2 == 0)
            obs_b, actions, rewards, next_obs_b, dones = buf.sample(
                buf.size, rng)
            expected = list(range(max(0, i - 3), i + 1))
            assert sorted(rewards.tolist()) == expected
            for o, a, r, n, d in zip(obs_b, actions, rewards, next_obs_b,
                                     dones):
                assert o.tolist() == [r, -r] and n.tolist() == [-r, r]
                assert a == r % 3 and d == (r % 2 == 0)

    def test_sample_larger_than_size_rejected(self):
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        buf.push(np.array([0.0]), 0, 0.0, np.array([0.0]), False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


class PreallocatedReplayBuffer:
    """The buffer before it grew by doubling: every row allocated up front."""

    def __init__(self, capacity, obs_dim):
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

    def sample(self, batch_size, rng):
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.dones[idx])


@pytest.mark.parametrize("capacity", [5, 1_024, 1_500, 4_100])
def test_growing_buffer_samples_like_preallocated(capacity):
    # 1,500 grows once (to its capacity), 4,100 three times; every buffer
    # wraps before the pushes end
    buf = ReplayBuffer(capacity, obs_dim=2)
    ref = PreallocatedReplayBuffer(capacity, obs_dim=2)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    data = np.random.default_rng(5)
    rows = set()
    for i in range(capacity + 1_300):
        row = (data.normal(size=2), int(data.integers(3)), float(data.normal()),
               data.normal(size=2), bool(data.random() < 0.2))
        buf.push(*row)
        ref.push(*row)
        rows.add(len(buf.rewards))
        assert buf.size == ref.size
        if i % 97 == 0 or i in (1_023, 1_024, 2_047, 2_048, capacity):
            batch = min(buf.size, 64)
            got = buf.sample(batch, rng)
            expected = ref.sample(batch, ref_rng)
            assert [a.tobytes() for a in got] == [a.tobytes()
                                                  for a in expected]
    assert max(rows) == capacity
    assert min(rows) == min(capacity, 1_024)
    assert buf.size == capacity


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
        lo = agent.normalize(Observation(*BOUNDS_LO))
        hi = agent.normalize(Observation(*BOUNDS_HI))
        np.testing.assert_allclose(lo, np.zeros(9))
        np.testing.assert_allclose(hi, np.ones(9))
        over = agent.normalize(obs(q_work=10_000))
        assert np.max(over) <= 1.0 and np.min(over) >= 0.0

    def test_normalize_matches_clip_formula(self):
        # the in-place scaling and clip against the allocating formula, with
        # entries at, inside and beyond the bounds and a -0.0 at a zero low
        agent = make_agent()
        rng = np.random.default_rng(0)
        rows = [BOUNDS_LO, BOUNDS_HI, -BOUNDS_HI, 2 * BOUNDS_HI,
                np.full(9, -0.0)]
        rows += list(rng.uniform(-0.5, 1.5, size=(200, 9)) * BOUNDS_HI)
        for row in rows:
            expected = np.clip((row - BOUNDS_LO) / (BOUNDS_HI - BOUNDS_LO),
                               0.0, 1.0)
            got = agent.normalize(Observation(*row))
            assert got.tobytes() == expected.tobytes()
            assert agent.normalize(row).tobytes() == expected.tobytes()
        assert np.signbit(agent.normalize(np.full(9, -0.0))).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_rejected_before_buffer(self, bad):
        # normalize (encode) checks where an observation enters: an infinite
        # entry would otherwise clip to a bound, a NaN reach the replay buffer
        agent = make_agent(warmup=4, batch_size=2)
        poisoned = obs(q_work=5)._replace(arrival_rate=bad)
        with pytest.raises(FloatingPointError, match="non-finite"):
            agent.normalize(poisoned)
        with pytest.raises(FloatingPointError, match="non-finite"):
            agent.select_action(poisoned, None)
        # training stops at the poisoned observation, as the reset's or as a
        # step's, with only the transitions before it in the buffer
        model = reduced_paper_model()
        for at in (0, 3):
            agent = make_agent(warmup=4, batch_size=2)
            with pytest.raises(FloatingPointError, match="non-finite"):
                train_agent(agent, PoisonedEnv(at, bad),
                            default_size_distribution(model), model,
                            episodes=1)
            assert agent.buffer.size == max(at - 1, 0)

    def test_reward_clip_matches_np_clip(self):
        for lo, hi in ((-100.0, 100.0), (0.0, 1.0), (-1.0, -0.0)):
            agent = make_agent(warmup=64, batch_size=2, reward_clip=(lo, hi))
            rewards = [-1e9, lo, hi, -0.0, 0.0, 0.5, -0.5, 99.9, 1e9, np.nan,
                       np.inf, -np.inf, 7, -3]
            for i, r in enumerate(rewards):
                learn(agent, obs(), 0, r, obs())
                assert (agent.buffer.rewards[i].tobytes()
                        == np.float64(np.clip(r, lo, hi)).tobytes()), (lo, r)

    def test_no_training_before_warmup(self):
        agent = make_agent(warmup=50, batch_size=8)
        for i in range(20):
            learn(agent, obs(q_work=i), 0, 0.0, obs(q_work=i + 1))
        assert np.isnan(agent.last_loss)

    def test_training_after_warmup_updates_network(self):
        agent = make_agent(warmup=16, batch_size=8)
        before = [w.copy() for w in agent.policy.weights]
        rng = np.random.default_rng(0)
        for i in range(40):
            learn(agent, obs(q_work=int(rng.integers(0, 100))),
                  int(rng.integers(-1, 2)), float(rng.normal()), obs())
        assert not np.isnan(agent.last_loss)
        assert any(not np.array_equal(b, w)
                   for b, w in zip(before, agent.policy.weights))

    def test_reward_clipping(self):
        agent = make_agent(warmup=4, batch_size=2, reward_clip=(-10.0, 10.0))
        learn(agent, obs(), 0, 1e9, obs())
        assert agent.buffer.rewards[0] == 10.0
        learn(agent, obs(), 0, -1e9, obs())
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
            learn(agent, obs(q_work=int(rng.integers(0, 200))),
                  int(rng.integers(-1, 2)), float(rng.normal()), obs())
        path = tmp_path / "dqn.npz"
        agent.save(path)
        back = DqnAgent.load(path)
        probes = [obs(q_work=q, n_workers=n, qos=s)
                  for q in (0, 30, 200) for n in (1, 10, 20)
                  for s in (0.1, 0.95)]
        for p in probes:
            assert back.select_action(p, None) == agent.select_action(p, None)

    def test_load_restores_flat_layout(self, tmp_path):
        agent = make_agent(warmup=16, batch_size=8)
        for i in range(30):
            learn(agent, obs(q_work=i), 1, float(i), obs(q_work=i + 1))
        path = tmp_path / "dqn.npz"
        agent.save(path)
        back = DqnAgent.load(path)
        for mine, theirs in ((back.policy, agent.policy),
                             (back.target, agent.target)):
            assert mine.flat.tobytes() == theirs.flat.tobytes()
            assert all(np.shares_memory(p, mine.flat)
                       for p in mine.parameters())
        assert back.optimizer.params is back.policy.flat
        for i in range(20):
            learn(back, obs(q_work=i), 1, float(i), obs(q_work=i + 1))
        assert back.policy.flat.tobytes() != agent.policy.flat.tobytes()

    @pytest.mark.parametrize("sizes", [[9, 0, 3], [9, 64.5, 3], [9, -4, 3],
                                       5, "9,64,3"])
    def test_load_rejects_bad_layer_sizes(self, tmp_path, sizes):
        good = tmp_path / "good.npz"
        make_agent().save(good)
        arrays = dict(np.load(good))
        meta = json.loads(str(arrays["meta"]))
        meta["layer_sizes"] = sizes
        arrays["meta"] = np.array(json.dumps(meta))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError,
                           match="must be a list of positive integers"):
            DqnAgent.load(bad)

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
        # these used to load: NaN weights made Q values NaN, and equal
        # bounds made the first act divide by zero
        ("w0", np.full((9, 128), np.nan),
         "'w0' must hold only finite numbers"),
        ("tb1", np.full(64, np.inf), "'tb1' must hold only finite numbers"),
        ("obs_lows", np.full(9, -np.inf),
         "'obs_lows' must hold only finite numbers"),
        ("obs_highs", np.zeros(9),
         "'obs_highs' must exceed 'obs_lows' in every component"),
        ("obs_lows", np.full(9, "0"),
         "'obs_lows' must hold only finite numbers"),
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

    def test_load_rejects_input_width_other_than_observation(self, tmp_path):
        # this loaded, and the first act then failed to broadcast (9,) to (5,)
        path = tmp_path / "five.npz"
        DqnAgent(np.zeros(5), np.ones(5)).save(path)
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: layer_sizes \\[5, 128, 64, 3\\] "
                f"must start with 9, one input per observation component$")):
            DqnAgent.load(path)

    def test_load_rejects_archive_without_json_meta(self, tmp_path):
        good = tmp_path / "good.npz"
        make_agent().save(good)
        arrays = dict(np.load(good))
        meta, arrays["meta"] = arrays["meta"], np.array("not json")
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(bad))} is not a dqn checkpoint: "
                f"Expecting value")):
            DqnAgent.load(bad)
        np.savez(bad, **{k: v for k, v in arrays.items() if k != "meta"})
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(bad))} is not a dqn checkpoint$")):
            DqnAgent.load(bad)
        arrays["meta"] = meta
        np.savez(bad, **{k: v for k, v in arrays.items() if k != "w0"})
        with zipfile.ZipFile(bad, "a") as archive:
            archive.writestr("w0", b"{}")  # a member that is not .npy
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(bad))}: 'w0' is not a .npy array$")):
            DqnAgent.load(bad)

    def test_load_reads_only_the_members_it_checks(self, tmp_path):
        agent = make_agent()
        path = tmp_path / "a.npz"
        agent.save(path)
        arrays = dict(np.load(path))
        broken = b"\x93NUMPY\x01\x00garbage"  # an .npy header cut short
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("extra.npy", broken)  # never read
        assert np.array_equal(DqnAgent.load(path).policy.flat,
                              agent.policy.flat)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **{k: v for k, v in arrays.items() if k != "w0"})
        with zipfile.ZipFile(bad, "a") as archive:
            archive.writestr("w0.npy", broken)
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(bad))}: 'w0' is not a .npy array: ")):
            DqnAgent.load(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DqnConfig(warmup=100, replay_capacity=50)
        with pytest.raises(ValueError):
            DqnConfig(tau=0.0)
        for gamma in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="gamma must lie in"):
                DqnConfig(gamma=gamma)
        with pytest.raises(ValueError, match="epsilon_min <= epsilon_start"):
            DqnConfig(epsilon_min=0.9, epsilon_start=0.5)
        with pytest.raises(ValueError, match="epsilon_min <= epsilon_start"):
            DqnConfig(epsilon_start=1.5)
        assert DqnConfig(gamma=0.0, epsilon_min=0.8).gamma == 0.0


# The list-based train step the flat parameter buffers replaced: one array
# per weight and bias, gradients as new arrays, and one Adam, clip and blend
# loop per array.  DqnAgent.train_step must give the same bits.

class ListMlp:
    def __init__(self, net):
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]

    def parameters(self):
        return self.weights + self.biases

    def forward(self, x):
        h = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [h]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
            activations.append(h)
        return h, activations

    def loss_and_gradients(self, x, actions, targets):
        n = x.shape[0]
        q, acts = self.forward(x)
        diff = q[np.arange(n), actions] - targets
        absd = np.abs(diff)
        quad = absd < 1.0
        loss = np.where(quad, 0.5 * diff * diff / 1.0, absd - 0.5 * 1.0)
        dloss = np.where(quad, diff / 1.0, np.sign(diff))
        dq = np.zeros_like(q)
        dq[np.arange(n), actions] = dloss / n
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dq
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return float(np.mean(loss)), grads_w + grads_b


class ListForward:
    """What double_dqn_targets calls on a network."""

    def __init__(self, net):
        self.net = net

    def forward(self, x):
        return self.net.forward(x)[0]


def list_clip_gradient_norm(grads, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads, total > max_norm


class ListAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = params, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def list_soft_update(target, policy, tau):
    for tp, pp in zip(target.parameters(), policy.parameters()):
        tp *= 1.0 - tau
        tp += tau * pp


def flat_bytes(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


def test_train_step_matches_list_based_reference():
    # a small grad_clip, so both sides of the clip are taken
    agent = make_agent(warmup=200, grad_clip=2.0)
    cfg = agent.cfg
    rng = np.random.default_rng(7)
    for _ in range(400):
        agent.buffer.push(rng.uniform(size=9), int(rng.integers(3)),
                          float(rng.uniform(-100, 100)), rng.uniform(size=9),
                          bool(rng.random() < 0.1))
    policy, target = ListMlp(agent.policy), ListMlp(agent.target)
    adam = ListAdam(policy.parameters(), cfg.learning_rate)
    sample_rng = np.random.default_rng()
    sample_rng.bit_generator.state = agent.rng.bit_generator.state
    clipped = 0
    for _ in range(200):
        agent.train_step()
        obs_b, actions, rewards, next_obs, dones = agent.buffer.sample(
            cfg.batch_size, sample_rng)
        targets = double_dqn_targets(ListForward(policy), ListForward(target),
                                     rewards, next_obs, dones, cfg.gamma)
        _, grads = policy.loss_and_gradients(obs_b, actions, targets)
        grads, clip = list_clip_gradient_norm(grads, cfg.grad_clip)
        clipped += clip
        adam.step(grads)
        list_soft_update(target, policy, cfg.tau)
    assert 0 < clipped < 200
    assert agent.policy.flat.tobytes() == flat_bytes(policy.parameters())
    assert agent.target.flat.tobytes() == flat_bytes(target.parameters())
    assert agent.optimizer.m.tobytes() == flat_bytes(adam.m)
    assert agent.optimizer.v.tobytes() == flat_bytes(adam.v)
    assert agent.optimizer.t == adam.t == 200
