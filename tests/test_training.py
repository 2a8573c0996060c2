"""Episode loops shared by the reactive baselines and both agents."""

from collections import defaultdict
from itertools import accumulate

import numpy as np
import pytest

from farmscale.core import RewardConfig, Workload
from farmscale.dqn import DqnAgent
from farmscale.env import FarmEnv, LifecycleError
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sarsa import SarsaAgent, SarsaConfig, default_discretizer
from farmscale.training import (evaluate_policies, evaluate_policy,
                                run_episode, train_agent)
from farmscale.workload import (build_episode_workload,
                                default_size_distribution, phase_order,
                                reduced_paper_model)
from tests.conftest import single_phase_config


@pytest.fixture
def tiny_setup():
    cfg = single_phase_config(2.0, 60.0, n_init=2, warm_start=True)
    env = FarmEnv(cfg, RewardConfig())
    model = reduced_paper_model()
    dist = default_size_distribution(model)
    return env, dist, model


class TestRunEpisode:
    def test_summary_counts_all_tasks(self, tiny_setup):
        env, dist, model = tiny_setup
        workload = build_episode_workload(env.config, dist, model, False, 0)
        summary = run_episode(env, ReactiveAveragePolicy(8.0), workload, 0)
        assert summary.emitted == len(workload)
        assert 0.0 <= summary.final_qos <= 1.0

    @pytest.mark.parametrize("seed, order", [
        (0, [2, 0, 1, 3]), (1, [1, 0, 3, 2]), (2, [0, 3, 1, 2]),
        (3, [2, 3, 1, 0])])
    def test_a_shuffled_workload_brings_its_phase_order(
            self, ep_config, rw_config, model_and_dist, seed, order):
        # each phase's mean workers come from the steps of the time slot it
        # ran in, which only the workload knows
        model, dist = model_and_dist
        assert phase_order(len(ep_config.phases), True, seed) == order
        workload = build_episode_workload(ep_config, dist, model, True, seed)
        env = FarmEnv(ep_config, rw_config)
        summary = run_episode(
            env, ReactiveAveragePolicy(ep_config.step_duration), workload,
            seed)
        ends = list(accumulate(ep_config.phases[i].duration for i in order))
        in_slot = defaultdict(list)
        for s in env.log.steps:
            start = (s.step - 1) * ep_config.step_duration
            slot = next((k for k, end in enumerate(ends) if start < end),
                        None)
            if slot is not None:
                in_slot[order[slot]].append(s.observation.n_workers)
        assert [p.mean_workers for p in summary.per_phase] == [
            float(np.mean(in_slot[i])) for i in range(len(order))]

    def test_rows_of_a_shuffled_workload_are_refused(
            self, ep_config, rw_config, model_and_dist):
        # the phase order lives on the workload, so its rows, which cannot
        # carry it, start no episode: each attempt raises and leaves the env
        # terminated, also in the middle of an episode
        model, dist = model_and_dist
        workload = build_episode_workload(ep_config, dist, model, True, 0)
        assert workload.phase_order == (2, 0, 1, 3)
        env = FarmEnv(ep_config, rw_config)
        policy = ReactiveAveragePolicy(ep_config.step_duration)
        attempts = [lambda: env.reset(list(workload), 0),
                    lambda: env.reset(iter(workload), 0),
                    lambda: run_episode(env, policy, list(workload), 0)]
        for attempt in attempts:
            env.reset(workload, 0)
            env.step(0)
            with pytest.raises((AttributeError, TypeError)):
                attempt()
            with pytest.raises(LifecycleError):
                env.step(0)

    def test_same_seed_same_summary(self, tiny_setup):
        env, dist, model = tiny_setup
        workload = build_episode_workload(env.config, dist, model, False, 3)
        a = run_episode(env, ReactiveAveragePolicy(8.0), workload, 3)
        b = run_episode(env, ReactiveAveragePolicy(8.0), workload, 3)
        assert a == b


class TestEpisodePathBuildsNoRow:
    """The simulator, env and summaries read a built workload's columns by
    task index: iterating the workload, the only way to make a ``TaskSpec``
    row of it, fails the episode here."""

    @pytest.fixture
    def default_setup(self, monkeypatch, ep_config, rw_config,
                      model_and_dist):
        def refuse(*args):
            raise AssertionError("a TaskSpec row was made on the episode path")

        monkeypatch.setattr(Workload, "__iter__", refuse)
        model, dist = model_and_dist
        return FarmEnv(ep_config, rw_config), dist, model

    def test_run_episode(self, default_setup):
        env, dist, model = default_setup
        workload = build_episode_workload(env.config, dist, model, False, 0)
        with pytest.raises(AssertionError, match="episode path"):
            list(workload)  # the patch is in place
        summary = run_episode(env, ReactiveAveragePolicy(8.0), workload, 0)
        assert summary.emitted == len(workload) > 0
        assert summary.completed > 0

    @pytest.mark.parametrize("kind", ["sarsa", "dqn"])
    def test_one_training_episode(self, default_setup, kind):
        env, dist, model = default_setup
        agent = (SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
                 if kind == "sarsa"
                 else DqnAgent(*env.observation_bounds(), seed=0))
        [record] = train_agent(agent, env, dist, model, episodes=1)
        assert record.steps == len(env.log.steps) > 0
        assert env.log.n_tasks > 0 and env.log.completions


class TestTrainAgent:
    def test_produces_one_record_per_episode(self, tiny_setup):
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        records = train_agent(agent, env, dist, model, episodes=5)
        assert [r.episode for r in records] == [0, 1, 2, 3, 4]
        assert all(r.steps > 0 for r in records)

    def test_epsilon_decays_across_episodes(self, tiny_setup):
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(epsilon_decay=0.9),
                           default_discretizer(20), seed=0)
        records = train_agent(agent, env, dist, model, episodes=4)
        eps = [r.epsilon for r in records]
        assert eps == sorted(eps, reverse=True)
        assert len(set(eps)) == len(eps)

    def test_learning_populates_qtable(self, tiny_setup):
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        train_agent(agent, env, dist, model, episodes=3)
        assert len(agent.qtable) > 0

    @pytest.mark.parametrize("kind", ["sarsa", "dqn"])
    def test_encodes_each_observation_once(self, tiny_setup, kind):
        # the reset's observation and each step's, passed on as states to
        # act and learn; counted per episode through the progress hook
        env, dist, model = tiny_setup
        agent = (SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
                 if kind == "sarsa"
                 else DqnAgent(*env.observation_bounds(), seed=0))
        encoded = []

        def encode(obs, original=agent.encode):
            encoded.append(obs)
            return original(obs)

        agent.encode = encode
        counts = []
        records = train_agent(agent, env, dist, model, episodes=3,
                              progress=lambda r: counts.append(len(encoded)))
        assert ([b - a for a, b in zip([0] + counts, counts)]
                == [r.steps + 1 for r in records])

    def test_rejects_zero_episodes(self, tiny_setup):
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        with pytest.raises(ValueError):
            train_agent(agent, env, dist, model, episodes=0)


class TestEvaluatePolicy:
    def test_one_summary_per_seed(self, tiny_setup):
        env, dist, model = tiny_setup
        sums = evaluate_policy(ReactiveAveragePolicy(8.0), env, dist, model,
                               seeds=[0, 1, 2])
        assert len(sums) == 3

    def test_shared_workloads_give_each_policy_its_own_summaries(
            self, tiny_setup):
        # one build per seed for all policies: every summary must equal a
        # run of that policy alone, the greedy SARSA agent's included
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        train_agent(agent, env, dist, model, episodes=3)
        policies = [ReactiveAveragePolicy(8.0), agent,
                    ReactiveMaximumPolicy(8.0)]
        seeds = [4, 5]
        runs = evaluate_policies(policies, env, dist, model, seeds)
        alone = [[run_episode(env, policy, build_episode_workload(
                     env.config, dist, model, False, seed), seed)
                  for seed in seeds] for policy in policies]
        assert runs == alone
