"""Tabular SARSA(lambda): discretization, traces, exploration, persistence."""

import json
import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from farmscale.agent import greedy_index
from farmscale.core import ACTIONS, Observation
from farmscale.env import FarmEnv
from farmscale import sarsa
from farmscale.sarsa import (PRUNE_THRESHOLD, Discretizer, SarsaAgent,
                             SarsaConfig, default_discretizer, sarsa_update)
from farmscale.training import train_agent


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


STATE = (0,) * 9


class TestEpsilonGreedy:
    """``LearningAgent.explore`` and the greedy fallback of ``act``, shown on
    a SarsaAgent; DqnAgent's ``act`` calls the same helper (test_dqn)."""

    def agent(self, epsilon, values=(0.0, 0.0, 0.0)):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        agent.epsilon = epsilon
        agent.qtable[STATE] = array("d", values)
        return agent

    def test_greedy_picks_argmax(self):
        agent = self.agent(0.0, [0.1, 0.9, 0.3])
        before = agent.rng.bit_generator.state
        assert agent.explore() is None
        assert agent.act(STATE) == ACTIONS[1]
        assert agent.rng.bit_generator.state == before  # nothing drawn

    def test_ties_resolve_to_largest_index(self):
        assert greedy_index(np.zeros(3)) == 2
        assert greedy_index(np.array([1.0, 1.0, 0.5])) == 1
        assert self.agent(0.0).act(STATE) == ACTIONS[2]

    def test_full_exploration_covers_actions(self):
        agent = self.agent(1.0, [5.0, 0.0, 0.0])
        assert {agent.explore() for _ in range(200)} == set(ACTIONS)
        assert {agent.act(STATE) for _ in range(200)} == set(ACTIONS)

    @given(eps=st.floats(min_value=0, max_value=1))
    def test_valid_action_range(self, eps):
        agent = self.agent(eps, [0.2, -0.1, 0.4])
        assert agent.explore() in (None, *ACTIONS)
        assert agent.act(STATE) in ACTIONS

    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0])
    def test_draws_one_coin_then_one_index(self, eps):
        # the stream the pinned SARSA and DQN runs were recorded with
        agent, ref = self.agent(eps), np.random.default_rng([0, 40_000])
        for _ in range(100):
            coin = ref.random() < eps
            assert agent.explore() == (ACTIONS[int(ref.integers(3))]
                                       if coin else None)


# the values where np.argmax's rules show: ties, signed zeros, infinities
# and NaN, mixed with arbitrary floats
EDGE_FLOATS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                                math.nan])
               | st.floats(allow_nan=True, allow_infinity=True))


class TestGreedyIndex:
    @given(values=st.lists(EDGE_FLOATS, min_size=3, max_size=3),
           kind=st.sampled_from([list, lambda v: array("d", v), np.array]))
    @example(values=[1.0, 1.0, 0.5], kind=list)
    @example(values=[0.0, -0.0, -0.0], kind=list)
    @example(values=[-0.0, 0.0, -math.inf], kind=np.array)
    @example(values=[math.inf, math.inf, 1.0], kind=list)
    @example(values=[math.nan, 2.0, math.nan], kind=list)
    @example(values=[math.nan, math.inf, 1.0], kind=list)
    @example(values=[-math.inf, -math.inf, -math.inf], kind=list)
    def test_matches_argmax_of_the_reversed_values(self, values, kind):
        expected = len(values) - 1 - int(np.argmax(np.asarray(values)[::-1]))
        assert greedy_index(kind(values)) == expected


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
        cfg = self._cfg(alpha=0.1, gamma=0.5, trace_decay=0.5)
        sarsa_update(qtable, traces, ("a",), 0, 1.0, ("b",), 0, False, cfg)
        first = traces[("a",), 0]
        assert first == pytest.approx(0.25)  # (1) * gamma * lambda
        for step in range(12):
            sarsa_update(qtable, traces, ("b",), 0, 0.0, ("b",), 0, False, cfg)
        assert (("a",), 0) not in traces  # decayed below PRUNE_THRESHOLD


# A deterministic ring of five states under a fixed policy: state s takes
# action RING_POLICY[s], earns RING_REWARDS[s] and moves to s + 1 (mod 5).
RING_REWARDS = np.array([1.0, -0.5, 2.0, 0.0, 0.3])
RING_POLICY = (1, 0, 2, 1, 0)
RING_GAMMA = 0.95


def ring_q_pi():
    """Q^pi(s, pi(s)) of the ring, from (I - gamma P) q = r."""
    n = len(RING_REWARDS)
    shift = np.roll(np.eye(n), 1, axis=1)  # P[s, s + 1] = 1
    return np.linalg.solve(np.eye(n) - RING_GAMMA * shift, RING_REWARDS)


def ring_updates(trace_decay, prune_threshold, steps=20_000):
    """``sarsa_update`` driven around the ring from a zero table at
    alpha 0.05, with traces pruned below ``prune_threshold`` in place of
    ``PRUNE_THRESHOLD`` (0 prunes none); yields (Q table, traces) after
    every update."""
    cfg = SarsaConfig(alpha=0.05, gamma=RING_GAMMA, trace_decay=trace_decay)
    qtable, traces = {}, {}
    n = len(RING_REWARDS)
    for t in range(steps):
        s, s2 = t % n, (t + 1) % n
        sarsa.PRUNE_THRESHOLD = prune_threshold  # for this update alone
        try:
            sarsa_update(qtable, traces, (s,), RING_POLICY[s],
                         RING_REWARDS[s], (s2,), RING_POLICY[s2], False, cfg)
        finally:
            sarsa.PRUNE_THRESHOLD = PRUNE_THRESHOLD
        yield qtable, traces


def ring_values(qtable):
    return np.array([qtable[(s,)][a] for s, a in enumerate(RING_POLICY)])


class TestSarsaOracle:
    """SARSA(lambda) with accumulating traces is exact policy evaluation on
    a deterministic ring (Sutton & Barto 2018, ch. 12): every TD error is 0
    at Q^pi, whatever the traces, so the table must converge to it. Larger
    lambda carries each reward back further per update, so it gets closer
    in the same number of updates."""

    @pytest.mark.parametrize("trace_decay, tolerance",
                             [(0.0, 1e-3), (0.5, 1e-6), (0.9, 1e-12)])
    def test_converges_to_q_pi(self, trace_decay, tolerance):
        for qtable, traces in ring_updates(trace_decay, prune_threshold=0.0):
            pass
        assert np.abs(ring_values(qtable) - ring_q_pi()).max() < tolerance
        # accumulating traces: a state last visited j updates ago holds
        # d^(j + 1) (1 + d^n + d^2n + ...), with d = gamma * lambda
        n, d = len(RING_REWARDS), RING_GAMMA * trace_decay
        last = (20_000 - 1) % n
        for s, a in enumerate(RING_POLICY):
            assert traces[(s,), a] == pytest.approx(
                d ** ((last - s) % n + 1) / (1 - d ** n), rel=1e-12)
        # only the policy's action of each state was ever updated
        for s, a in enumerate(RING_POLICY):
            assert np.count_nonzero(qtable[(s,)]) == 1 and qtable[(s,)][a]

    def test_pruning_stays_within_derived_bound(self):
        theta, n = PRUNE_THRESHOLD, len(RING_REWARDS)
        # lambda 0.1: decay d = 0.095 and d^4 < theta, so a trace is pruned
        # at its fourth decay, two updates before the ring revisits it. Each
        # pruned value is below theta, and prunings of one entry are n
        # updates apart, so what pruning has dropped from a trace sums to
        # less than theta / (1 - d^n)
        d = RING_GAMMA * 0.1
        bound = theta / (1 - d ** n)
        for (full_q, full), (pruned_q, pruned) in zip(
                ring_updates(0.1, 0.0), ring_updates(0.1, theta)):
            assert all(e >= theta for e in pruned.values())
            for key, e in full.items():
                assert 0 <= e - pruned.get(key, 0.0) < bound
        assert (len(pruned), len(full)) == (3, n)  # two traces pruned
        # the traces change the path, not the fixed point
        q_pi = ring_q_pi()
        for qtable in (full_q, pruned_q):
            assert np.abs(ring_values(qtable) - q_pi).max() < 1e-3
        # lambda 0.9: the smallest trace the check sees, d^n = 0.46 at the
        # decay before a revisit, is above theta, so nothing is pruned and
        # the tables match bit for bit
        assert (RING_GAMMA * 0.9) ** n > theta
        for (full_q, full), (pruned_q, pruned) in zip(
                ring_updates(0.9, 0.0, 2_000),
                ring_updates(0.9, theta, 2_000)):
            assert pruned == full
        assert ring_values(pruned_q).tobytes() == ring_values(full_q).tobytes()


# A checkpoint as the saver wrote it while the trace-pruning cutoff was a
# config field, of a default_discretizer(8) agent with epsilon 0.25 and the
# Q-table EARLIER_QTABLE
EARLIER_CHECKPOINT = (
    '{"kind": "sarsa", "version": 1, "config": {"alpha": 0.1, "gamma": 0.95, '
    '"trace_decay": 0.9, "epsilon_start": 1.0, "epsilon_min": 0.05, '
    '"epsilon_decay": 0.98, "prune_threshold": 0.0001}, "epsilon": 0.25, '
    '"edges": [[1, 11, 41, 101], [1, 11, 41, 101], [1, 11, 41, 101], '
    '[1, 11, 41, 101], [4, 8], [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], '
    '[2.5, 5.0, 7.5], [0.5, 0.9]], "qtable": '
    '[[[0, 0, 0, 0, 1, 0, 0, 2, 2], [0.5, -1.0, 0.25]], '
    '[[1, 2, 0, 0, 1, 1, 1, 2, 1], [-0.5, 0.0, 1.5]], '
    '[[4, 4, 0, 0, 2, 3, 3, 3, 0], [2.0, 1.0, -3.0]]]}')
EARLIER_QTABLE = {(0, 0, 0, 0, 1, 0, 0, 2, 2): (0.5, -1.0, 0.25),
                  (1, 2, 0, 0, 1, 1, 1, 2, 1): (-0.5, 0.0, 1.5),
                  (4, 4, 0, 0, 2, 3, 3, 3, 0): (2.0, 1.0, -3.0)}


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

    def test_rows_are_double_arrays_after_training_and_loading(
            self, tmp_path, ep_config, rw_config, model_and_dist):
        model, dist = model_and_dist
        agent = SarsaAgent(SarsaConfig(), default_discretizer(ep_config.n_max),
                           seed=0)
        train_agent(agent, FarmEnv(ep_config, rw_config), dist, model,
                    episodes=2)
        path = tmp_path / "sarsa.json"
        agent.save(path)
        back = SarsaAgent.load(path)
        assert agent.qtable and back.qtable.keys() == agent.qtable.keys()
        for state, row in agent.qtable.items():
            for r in (row, back.qtable[state]):
                assert type(r) is array and r.typecode == "d"
                assert len(r) == len(ACTIONS)
            assert back.qtable[state].tobytes() == row.tobytes()

    def test_loads_checkpoint_that_saved_prune_threshold(self, tmp_path):
        # the saver wrote the trace-pruning cutoff into the config while it
        # was a SarsaConfig field; such a checkpoint loads as long as the
        # value is the constant's
        path = tmp_path / "sarsa.json"
        path.write_text(EARLIER_CHECKPOINT)
        back = SarsaAgent.load(path)
        agent = SarsaAgent(SarsaConfig(), default_discretizer(8))
        for state, row in EARLIER_QTABLE.items():
            agent.qtable[state] = array("d", row)
        assert back.cfg == agent.cfg and back.epsilon == 0.25
        assert back.discretizer == agent.discretizer
        for state in (*EARLIER_QTABLE, (0,) * 9):
            assert (back.act(state, greedy=True)
                    == agent.act(state, greedy=True))
        assert [back.act(state, greedy=True) for state in EARLIER_QTABLE] == [
            -1, 1, -1]
        # a saver today writes no such entry
        agent.save(path)
        assert "prune_threshold" not in json.loads(path.read_text())["config"]

    @pytest.mark.parametrize("state, row", [
        ([0] * 9, [0.0, 1.0]),
        ([0] * 8, [0.0, 1.0, 2.0]),
    ])
    def test_load_rejects_misshapen_qtable_entry(self, tmp_path, state, row):
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        agent.qtable[(1,) * 9] = array("d", [0.0] * 3)
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
        for key in ("epsilon_start", "epsilon_min"):
            with pytest.raises(ValueError,
                               match=f"{key} must be a finite number, got nan"):
                SarsaConfig(**{key: float("nan")})
