"""Tabular SARSA(lambda): discretization, traces, exploration, persistence."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale.core import Observation
from farmscale.sarsa import (Discretizer, SarsaAgent, SarsaConfig,
                             default_discretizer, epsilon_greedy,
                             sarsa_update)


def obs(q_work=0, n_workers=4, t_avg=0.0, t_max=0.0, rate=0.0, qos=1.0):
    return Observation(q_in=0, q_work=q_work, q_res=0, q_out=0,
                       n_workers=n_workers, t_proc_avg=t_avg, t_proc_max=t_max,
                       arrival_rate=rate, qos_step=qos)


class TestDiscretizer:
    def test_same_bin_for_nearby_values(self):
        d = default_discretizer(20)
        assert d(obs(q_work=15)) == d(obs(q_work=20))

    def test_distinct_bins_across_edges(self):
        d = default_discretizer(20)
        assert d(obs(q_work=5)) != d(obs(q_work=50))
        assert d(obs(qos=0.3)) != d(obs(qos=0.95))

    def test_state_is_hashable_tuple(self):
        d = default_discretizer(20)
        state = d(obs())
        assert isinstance(state, tuple)
        hash(state)

    @given(q=st.integers(min_value=0, max_value=500),
           n=st.integers(min_value=1, max_value=20),
           qos=st.floats(min_value=0, max_value=1))
    @settings(max_examples=50, deadline=None)
    def test_total_function(self, q, n, qos):
        d = default_discretizer(20)
        assert len(d(obs(q_work=q, n_workers=n, qos=qos))) == 9


def searchsorted_bins(discretizer, o):
    """The bins as np.searchsorted gives them, the rule Discretizer keeps."""
    return tuple(int(np.searchsorted(e, v, side="right"))
                 for e, v in zip(discretizer.edges, o))


class TestDiscretizerBins:
    def test_random_observations_match_searchsorted(self):
        d = default_discretizer(20)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            o = Observation(
                q_in=int(rng.integers(0, 150)), q_work=int(rng.integers(0, 150)),
                q_res=int(rng.integers(0, 150)), q_out=int(rng.integers(0, 150)),
                n_workers=int(rng.integers(1, 25)),
                t_proc_avg=float(rng.uniform(0, 3)),
                t_proc_max=float(rng.uniform(0, 3)),
                arrival_rate=float(rng.uniform(0, 10)),
                qos_step=float(rng.uniform()))
            assert d(o) == searchsorted_bins(d, o)

    def test_values_at_and_around_every_edge_match_searchsorted(self):
        d = default_discretizer(20)
        base = obs()
        for k, edges in enumerate(d.edges):
            for edge in edges:
                for v in (edge, np.nextafter(edge, -np.inf),
                          np.nextafter(edge, np.inf), edge - 1, edge + 1):
                    values = list(base)
                    values[k] = float(v)
                    o = Observation(*values)
                    assert d(o) == searchsorted_bins(d, o), (k, v)
                    assert all(type(b) is int for b in d(o))

    @pytest.mark.parametrize("edges, message", [
        ((), r"one tuple of edges per observation component \(9\)"),
        (((1, 2),) * 8, r"one tuple of edges per observation component"),
        (((1, 2),) * 10, r"one tuple of edges per observation component"),
        ([(1, 2)] * 9, r"one tuple of edges per observation component"),
        (((2, 1),) + ((1, 2),) * 8, "edges of q_in must be a strictly"),
        (((1, 2),) * 4 + ((1, 1),) + ((1, 2),) * 4, "edges of n_workers"),
        (((1, 2),) * 8 + ([0.5, 0.9],), "edges of qos_step"),
        (((1, "2"),) + ((1, 2),) * 8, "edges of q_in"),
        (((True,),) + ((1, 2),) * 8, "edges of q_in"),
        (((float("nan"),),) + ((1, 2),) * 8, "edges of q_in"),
        # an integer too large for a float has no float value to compare
        (((1, 10 ** 400),) + ((1, 2),) * 8, "edges of q_in"),
    ])
    def test_rejects_bad_edges(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Discretizer(edges=edges)

    def test_accepts_empty_and_float_edges(self):
        Discretizer(edges=((),) + ((0.5, 1, 2.5),) * 8)

    def test_accepts_infinite_edges(self):
        d = Discretizer(edges=((-math.inf, 0, math.inf),) + ((1, 2),) * 8)
        assert d.edges[0] == (-math.inf, 0, math.inf)


class TestEpsilonGreedy:
    def test_greedy_picks_argmax(self):
        rng = np.random.default_rng(0)
        assert epsilon_greedy(np.array([0.1, 0.9, 0.3]), 0.0, rng) == 1

    def test_ties_resolve_to_largest_index(self):
        rng = np.random.default_rng(0)
        assert epsilon_greedy(np.zeros(3), 0.0, rng) == 2
        assert epsilon_greedy(np.array([1.0, 1.0, 0.5]), 0.0, rng) == 1

    def test_full_exploration_covers_actions(self):
        rng = np.random.default_rng(0)
        picks = {epsilon_greedy(np.array([5.0, 0.0, 0.0]), 1.0, rng)
                 for _ in range(200)}
        assert picks == {0, 1, 2}

    @given(eps=st.floats(min_value=0, max_value=1))
    def test_valid_action_range(self, eps):
        rng = np.random.default_rng(3)
        assert epsilon_greedy(np.array([0.2, -0.1, 0.4]), eps, rng) in (0, 1, 2)


class TestSarsaUpdate:
    def _cfg(self, **kw):
        return SarsaConfig(**kw)

    def test_trivial_single_update(self):
        # zero table, r=1, gamma=0.9, alpha=0.1, lambda=0 -> Q = 0.1
        qtable, traces = {}, {}
        cfg = self._cfg(alpha=0.1, gamma=0.9, trace_decay=0.0)
        sarsa_update(qtable, traces, ("s",), 0, 1.0, ("s2",), 1, False, cfg)
        assert qtable[("s",)][0] == pytest.approx(0.1)

    def test_terminal_target_ignores_next_state(self):
        qtable = {("s2",): np.array([100.0, 100.0, 100.0])}
        traces = {}
        cfg = self._cfg(alpha=0.5, gamma=0.9, trace_decay=0.0)
        sarsa_update(qtable, traces, ("s",), 2, 2.0, ("s2",), 0, True, cfg)
        assert qtable[("s",)][2] == pytest.approx(1.0)  # 0.5 * (2 + 0 - 0)

    def test_eligibility_propagates_credit(self):
        # visit s1 then s2; reward after s2 also updates s1 via its trace
        qtable, traces = {}, {}
        cfg = self._cfg(alpha=0.1, gamma=0.9, trace_decay=1.0)
        sarsa_update(qtable, traces, ("s1",), 0, 0.0, ("s2",), 0, False, cfg)
        sarsa_update(qtable, traces, ("s2",), 0, 1.0, ("s3",), 0, False, cfg)
        # delta = 1; traces: e(s1) = 0.9, e(s2) = 1
        assert qtable[("s1",)][0] == pytest.approx(0.09)
        assert qtable[("s2",)][0] == pytest.approx(0.1)

    def test_traces_decay_and_prune(self):
        qtable, traces = {}, {}
        cfg = self._cfg(alpha=0.1, gamma=0.5, trace_decay=0.5,
                        prune_threshold=1e-4)
        sarsa_update(qtable, traces, ("a",), 0, 1.0, ("b",), 0, False, cfg)
        first = traces[("a",), 0]
        assert first == pytest.approx(0.25)  # (1) * gamma * lambda
        for step in range(12):
            sarsa_update(qtable, traces, ("b",), 0, 0.0, ("b",), 0, False, cfg)
        assert (("a",), 0) not in traces  # decayed below the threshold


class TestSarsaAgent:
    def test_epsilon_decays_to_floor(self):
        cfg = SarsaConfig(epsilon_start=1.0, epsilon_min=0.05,
                          epsilon_decay=0.5)
        agent = SarsaAgent(cfg, default_discretizer(20), seed=0)
        for _ in range(20):
            agent.end_episode()
        assert agent.epsilon == pytest.approx(0.05)

    def test_traces_cleared_between_episodes(self):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        agent.learn(agent.encode(obs()), 0, 1.0, agent.encode(obs(q_work=50)),
                    0, False)
        assert agent.traces
        agent.begin_episode()
        assert not agent.traces

    def test_greedy_act_is_deterministic(self):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        s = agent.encode(obs(q_work=120, qos=0.2))
        assert all(agent.act(s, greedy=True) == agent.act(s, greedy=True)
                   for _ in range(5))

    def test_save_load_round_trip(self, tmp_path):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            o = obs(q_work=int(rng.integers(0, 200)),
                    n_workers=int(rng.integers(1, 20)),
                    qos=float(rng.uniform()))
            agent.learn(agent.encode(o), int(rng.integers(-1, 2)),
                        float(rng.normal()), agent.encode(obs()), 0, False)
        path = tmp_path / "sarsa.json"
        agent.save(path)
        back = SarsaAgent.load(path)
        assert back.epsilon == agent.epsilon
        assert set(back.qtable) == set(agent.qtable)
        probe = obs(q_work=120, qos=0.2)
        assert (back.select_action(probe, None)
                == agent.select_action(probe, None))

    @pytest.mark.parametrize("state, row", [
        ([0] * 9, [0.0, 1.0]),
        ([0] * 8, [0.0, 1.0, 2.0]),
    ])
    def test_load_rejects_misshapen_qtable_entry(self, tmp_path, state, row):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        agent.qtable[(1,) * 9] = np.zeros(3)
        path = tmp_path / "sarsa.json"
        agent.save(path)
        blob = json.loads(path.read_text())
        blob["qtable"].append([state, row])
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: qtable\\[1\\] has a "
                                 f"{len(state)}-component state and "
                                 f"{len(row)} values, expected 9 and 3$"):
            SarsaAgent.load(path)

    @pytest.mark.parametrize("edges", [
        [[1, 2]] * 8, [[2, 1]] + [[1, 2]] * 8, [[1, "x"]] + [[1, 2]] * 8,
        [1] * 9, "edges", {"q_in": [1]}])
    def test_load_rejects_bad_edges(self, tmp_path, edges):
        path = tmp_path / "sarsa.json"
        SarsaAgent(SarsaConfig(), default_discretizer(20)).save(path)
        blob = json.loads(path.read_text())
        blob["edges"] = edges
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: 'edges': "):
            SarsaAgent.load(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SarsaConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SarsaConfig(gamma=1.5)
        with pytest.raises(ValueError):
            SarsaConfig(epsilon_min=0.9, epsilon_start=0.5)
