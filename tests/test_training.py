"""Episode loops shared by the reactive baselines and both agents."""

import csv

import pytest

from farmscale.core import RewardConfig
from farmscale.dqn import DqnAgent
from farmscale.env import FarmEnv
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sarsa import SarsaAgent, SarsaConfig, default_discretizer
from farmscale.training import (CURVE_COLUMNS, evaluate_policies,
                                evaluate_policy, run_episode, train_agent,
                                write_training_curve)
from farmscale.workload import (build_episode_workload,
                                default_size_distribution,
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

    def test_same_seed_same_summary(self, tiny_setup):
        env, dist, model = tiny_setup
        workload = build_episode_workload(env.config, dist, model, False, 3)
        a = run_episode(env, ReactiveAveragePolicy(8.0), workload, 3)
        b = run_episode(env, ReactiveAveragePolicy(8.0), workload, 3)
        assert a == b


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
        seen = []
        runs = evaluate_policies(
            policies, env, dist, model, seeds,
            on_episode=lambda p, log: seen.append((p, len(log.steps))))
        alone = [[run_episode(env, policy, build_episode_workload(
                     env.config, dist, model, False, seed), seed)
                  for seed in seeds] for policy in policies]
        assert runs == alone
        assert seen == [(p, alone[p][i].steps)
                        for i in range(len(seeds))
                        for p in range(len(policies))]


class TestTrainingCurve:
    def test_csv_columns_and_rows(self, tiny_setup, tmp_path):
        env, dist, model = tiny_setup
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        records = train_agent(agent, env, dist, model, episodes=3)
        path = tmp_path / "curve.csv"
        write_training_curve(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert tuple(rows[0]) == CURVE_COLUMNS
