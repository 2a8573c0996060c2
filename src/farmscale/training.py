"""Episode loops: policy evaluation and on-line agent training.

A frozen policy (a reactive baseline or a loaded checkpoint) needs only
select_action(obs, record), given the StepRecord that came with obs. A
learning agent (agent.LearningAgent) adds begin_episode(), encode(obs) for
its state, act(state) for the exploring action, learn(state, action, reward,
next_state, next_action, done) after every step, and end_episode(); training
encodes each observation once. Randomness is seeded per episode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import FarmEnv
from .metrics import summarize_episode
from .workload import build_episode_workload


@dataclass
class TrainingRecord:
    episode: int
    epsilon: float
    total_reward: float
    final_qos: float
    mean_workers: float
    max_workers: int
    scaling_actions: int
    no_ops: int
    steps: int


def run_episode(env: FarmEnv, policy, workload, seed: int):
    """One greedy episode under a frozen policy; returns the summary."""
    obs, record = env.reset(workload, seed)
    done = False
    while not done:
        action = policy.select_action(obs, record)
        obs, _, done, record = env.step(action)
    return summarize_episode(env.log, env.config)


def train_agent(agent, env: FarmEnv, dist, model, episodes: int,
                base_seed: int = 0, shuffle: bool = True,
                progress=None) -> list:
    """On-line training over freshly generated workloads, one per episode."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    records = []
    for ep in range(episodes):
        seed = base_seed + ep
        workload = build_episode_workload(env.config, dist, model,
                                          shuffle_phases=shuffle,
                                          rng_seed=seed)
        obs, _ = env.reset(workload, seed)
        agent.begin_episode()
        state = agent.encode(obs)
        action = agent.act(state)
        done = False
        while not done:
            next_obs, reward, done, _ = env.step(action)
            next_state = agent.encode(next_obs)
            next_action = agent.act(next_state) if not done else 0
            agent.learn(state, action, reward, next_state, next_action, done)
            state, action = next_state, next_action
        agent.end_episode()
        summary = summarize_episode(env.log, env.config)
        records.append(TrainingRecord(
            episode=ep,
            epsilon=agent.epsilon,
            total_reward=summary.total_reward,
            final_qos=summary.final_qos,
            mean_workers=summary.n_mean,
            max_workers=summary.n_max,
            scaling_actions=summary.n_scale,
            no_ops=summary.no_ops,
            steps=summary.steps,
        ))
        if progress is not None:
            progress(records[-1])
    return records


def evaluate_policies(policies, env: FarmEnv, dist, model, seeds) -> list:
    """Greedy evaluation of every policy over a list of seeds; one list of
    summaries per policy, in seed order.

    Each seed's workload is built once and every policy runs on it: greedy
    policies draw no random numbers and ``env.reset`` starts a fresh
    simulator, so each summary is the one a run of that policy alone gives.
    """
    summaries = [[] for _ in policies]
    for seed in seeds:
        workload = build_episode_workload(env.config, dist, model,
                                          shuffle_phases=False, rng_seed=seed)
        for p, policy in enumerate(policies):
            summaries[p].append(run_episode(env, policy, workload, seed))
    return summaries


def evaluate_policy(policy, env: FarmEnv, dist, model, seeds) -> list:
    """Greedy evaluation over a list of seeds; one summary per seed."""
    return evaluate_policies([policy], env, dist, model, seeds)[0]
