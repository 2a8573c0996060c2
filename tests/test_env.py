"""Control environment: reset/step lifecycle, observations, shaped reward."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from farmscale.core import RewardConfig, StepRecord
from farmscale.env import (REWARD_TERMS, FarmEnv, LifecycleError,
                           compute_reward)
from farmscale.reactive import ReactiveAveragePolicy
from farmscale.training import run_episode
from farmscale.workload import build_episode_workload
from tests.conftest import constant_service_tasks, single_phase_config

# pools per arrival rate (tasks/s) for the window-statistics test; at 80/s
# a 2 s step completes about 160 tasks, so every window spans numpy's
# 128-element pairwise-sum blocks
WINDOW_POOLS = {3.0: {"n_init": 2},
                80.0: {"n_min": 90, "n_init": 100, "n_max": 110}}

UNIT_CFG = RewardConfig(q_target=0.9, q_queue_target=100.0, q_idle=10.0,
                        n_target=10, w_qos=1.0, w_backlog=1.0, w_scale=1.0,
                        w_eff=1.0, w_up=1.0, w_down=1.0)


def named(terms):
    """The reward terms of ``compute_reward`` keyed by their names: the
    tuple holds them in ``REWARD_TERMS`` order."""
    assert len(terms) == len(REWARD_TERMS)
    return dict(zip(REWARD_TERMS, terms))


class TestComputeReward:
    def test_neutral_operating_point_is_zero(self):
        total, _ = compute_reward(UNIT_CFG, q_k=0.9, backlog=100.0,
                                  n_workers=8, applied_delta=0)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_hand_example_stable_high_qos(self):
        total, terms = compute_reward(UNIT_CFG, q_k=1.0, backlog=20.0,
                                      n_workers=8, applied_delta=0)
        assert total == pytest.approx(1.1, abs=1e-9)
        assert named(terms)["stable_bonus"] == pytest.approx(1.0)

    def test_hand_example_overloaded_scale_up(self):
        total, terms = compute_reward(UNIT_CFG, q_k=0.5, backlog=300.0,
                                      n_workers=12, applied_delta=+1)
        assert total == pytest.approx(-4.4, abs=1e-9)
        assert named(terms)["backlog_penalty"] == pytest.approx(-4.0)
        assert named(terms)["scale_up_bonus"] == pytest.approx(1.0)

    def test_scale_up_bonus_under_load(self):
        _, terms = compute_reward(UNIT_CFG, q_k=1.0, backlog=150.0,
                                  n_workers=5, applied_delta=+1)
        assert named(terms)["scale_up_bonus"] == pytest.approx(1.0)

    def test_overprovision_penalty_gated_on_idle(self):
        _, busy = compute_reward(UNIT_CFG, q_k=0.95, backlog=50.0,
                                 n_workers=15, applied_delta=0)
        assert named(busy)["overprovision_penalty"] == 0.0
        _, idle = compute_reward(UNIT_CFG, q_k=0.95, backlog=5.0,
                                 n_workers=15, applied_delta=0)
        assert named(idle)["overprovision_penalty"] == pytest.approx(-5.0)

    @given(q=st.floats(min_value=0, max_value=1),
           backlog=st.floats(min_value=0, max_value=500),
           n=st.integers(min_value=1, max_value=20),
           delta=st.sampled_from([-1, 0, 1]))
    def test_terms_always_sum_to_total(self, q, backlog, n, delta):
        total, terms = compute_reward(UNIT_CFG, q, backlog, n, delta)
        assert len(terms) == len(REWARD_TERMS)
        # summed in REWARD_TERMS order, the order of the total's own sum
        assert total == sum(terms)

    @given(q=st.floats(min_value=0, max_value=1),
           backlog=st.floats(min_value=0, max_value=500),
           n=st.integers(min_value=0, max_value=30),
           delta=st.sampled_from([-1, 0, 1]),
           cfg=st.sampled_from([UNIT_CFG, RewardConfig()]))
    def test_terms_have_the_bits_of_the_named_terms(self, q, backlog, n,
                                                    delta, cfg):
        reference = reference_reward_terms(cfg, q, backlog, n, delta)
        total, terms = compute_reward(cfg, q, backlog, n, delta)
        assert terms == tuple(reference.values())
        assert total == sum(reference.values())


def reference_reward_terms(cfg, q_k, backlog, n_workers, applied_delta):
    """The reward terms as ``compute_reward`` built them before they became
    a tuple: a dict keyed by ``REWARD_TERMS``, in that order."""
    ratio = backlog / cfg.q_queue_target
    qos_ok = q_k >= cfg.q_target
    terms = {
        "qos_tracking": cfg.w_qos * (q_k - cfg.q_target),
        "backlog_penalty": -cfg.w_backlog * max(0.0, ratio - 1.0) ** 2,
        "scale_cost": -cfg.w_scale if applied_delta != 0 else 0.0,
        "overprovision_penalty": (
            -cfg.w_eff * max(0.0, n_workers - cfg.n_target)
            if backlog <= cfg.q_idle and qos_ok else 0.0),
        "scale_up_bonus": (
            cfg.w_up if applied_delta > 0 and (ratio > 1.0 or not qos_ok)
            else 0.0),
        "scale_down_bonus": (
            cfg.w_down if applied_delta < 0 and ratio <= 1.0 and qos_ok
            else 0.0),
        "stable_bonus": cfg.w_qos if qos_ok and ratio <= 0.5 else 0.0,
    }
    assert tuple(terms) == REWARD_TERMS
    return terms


@pytest.fixture
def small_env():
    cfg = single_phase_config(2.0, 80.0, n_init=2, warm_start=True)
    return FarmEnv(cfg, RewardConfig()), constant_service_tasks(2.0, 80.0, 0.5)


class TestLifecycle:
    def test_step_before_reset_raises(self, small_env):
        env, _ = small_env
        with pytest.raises(LifecycleError):
            env.step(0)

    def test_reset_initial_observation_warm(self, small_env):
        env, tasks = small_env
        obs, _ = env.reset(tasks, seed=0)
        assert obs[:4] == (0, 0, 0, 0)
        assert obs.n_workers == 2
        assert obs.qos_step == 1.0

    def test_reset_record_is_step_zero_and_not_logged(self, small_env):
        env, tasks = small_env
        obs, record = env.reset(tasks, seed=0)
        assert env.log.steps == []
        assert record == StepRecord(
            step=0, observation=obs, action=0, applied_delta=0, reward=0.0,
            arrived=0, completed=0, hits=0, workers_busy=0, reward_terms=())

    def test_step_returns_the_record_it_logs(self, small_env):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        done = False
        while not done:
            obs, reward, done, record = env.step(1)
            assert record is env.log.steps[-1]
            assert record.step == len(env.log.steps)
            assert (record.observation, record.reward) == (obs, reward)
            assert record.workers_busy == env.sim.snapshot().workers_busy

    def test_an_unsorted_workload_keeps_its_order_in_the_log(self, small_env,
                                                             tmp_path):
        # the simulator sorts a copy of a batch out of (time, id) order, so
        # the log and tasks.csv list the tasks in the order they were given
        env, tasks = small_env
        workload = tasks[1::2] + tasks[0::2]
        given_order = list(workload)
        env.reset(workload, seed=0)
        done = False
        while not done:
            _, _, done, _ = env.step(0)
        assert workload == given_order and env.log.tasks == given_order
        assert ([task.task_id for task, _, _ in env.log.completions]
                == sorted(t.task_id for t in tasks))  # ran in time order
        env.log.write_task_csv(tmp_path / "tasks.csv")
        with open(tmp_path / "tasks.csv", newline="") as fh:
            _, *rows = csv.reader(fh)
        assert [int(row[0]) for row in rows] == [t.task_id for t in workload]

    def test_reset_initial_observation_cold(self):
        cfg = single_phase_config(2.0, 80.0, n_init=2, warm_start=False)
        env = FarmEnv(cfg, RewardConfig())
        obs, _ = env.reset(constant_service_tasks(2.0, 80.0, 0.5), seed=0)
        assert obs.n_workers == 0  # startup latency not yet elapsed

    def test_invalid_action_rejected(self, small_env):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        with pytest.raises(ValueError):
            env.step(2)

    @pytest.mark.parametrize("action", [1.0, True, False, 0.5, -0.5,
                                        np.float64(1.0), np.bool_(True), "1"],
                             ids=repr)
    def test_non_integer_action_rejected(self, small_env, action):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        with pytest.raises(ValueError, match="scaling actions are unit steps"):
            env.step(action)
        assert env.log.steps == []
        assert env.sim.snapshot().workers_starting == 0

    @pytest.mark.parametrize("action", [2, -2, 1.0, True, "1", None],
                             ids=repr)
    def test_rejected_action_changes_nothing(self, small_env, action):
        # the sim checks the action, so the env must not move before it:
        # after the error the episode goes on as if the call never happened
        env, tasks = small_env
        clean = FarmEnv(env.config, env.reward_config)
        for e in (env, clean):
            e.reset(tasks, seed=0)
            e.step(1)
            e.step(1)  # the pool has grown by two at the bad call
        sim = env.sim
        before = (len(env.log.steps), sim.clock, dict(sim.workers),
                  sim.enqueued_total)
        with pytest.raises(ValueError, match="scaling actions are unit steps"):
            env.step(action)
        assert before == (len(env.log.steps), sim.clock, sim.workers,
                          sim.enqueued_total)
        assert env.step(-1)[3] == clean.step(-1)[3]
        assert env.log.steps == clean.log.steps

    def test_numpy_integer_action_logged_as_int(self, small_env, tmp_path):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        env.step(np.int64(1))
        env.step(np.int32(-1))
        actions = [s.action for s in env.log.steps]
        assert actions == [1, -1]
        assert all(type(a) is int for a in actions)
        env.log.write_step_csv(tmp_path / "steps.csv")
        with open(tmp_path / "steps.csv", newline="") as fh:
            assert [r["action"] for r in csv.DictReader(fh)] == ["1", "-1"]

    def test_episode_terminates_when_drained(self, small_env):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        done, steps = False, 0
        while not done:
            obs, _, done, record = env.step(0)
            steps += 1
        assert steps <= env.max_steps
        assert obs.q_work == record.workers_busy == 0
        assert len(env.sim.completion_records) == len(tasks)

    def test_iterator_workload_runs_the_list_episode(
            self, ep_config, rw_config, model_and_dist):
        # reset reads the workload once: an iterator gives the simulator
        # and the log the same tasks a list does
        model, dist = model_and_dist
        tasks = build_episode_workload(ep_config, dist, model,
                                       shuffle_phases=False, rng_seed=7)
        policy = ReactiveAveragePolicy(ep_config.step_duration)
        runs = []
        for workload in (tasks, iter(tasks)):
            env = FarmEnv(ep_config, rw_config)
            runs.append((run_episode(env, policy, workload, 7),
                         env.log.tasks, env.log.steps))
        assert runs[0][0].emitted == len(tasks)
        assert runs[1] == runs[0]

    def test_one_env_runs_workloads_of_any_size_in_turn(
            self, ep_config, rw_config, default_workload):
        # the service-time column belongs to one episode: after a shorter or
        # a longer one on the same env, every step record is a fresh env's
        policy = ReactiveAveragePolicy(ep_config.step_duration)
        long, short = default_workload, default_workload[:150]
        env = FarmEnv(ep_config, rw_config)
        for seed, tasks in enumerate((short, long, short, long)):
            run_episode(env, policy, tasks, seed)
            fresh = FarmEnv(ep_config, rw_config)
            run_episode(fresh, policy, tasks, seed)
            assert len(env.log.completions) == len(tasks)
            assert env.log.steps == fresh.log.steps

    def test_step_after_termination_raises(self, small_env):
        env, tasks = small_env
        env.reset(tasks, seed=0)
        done = False
        while not done:
            _, _, done, _ = env.step(0)
        with pytest.raises(LifecycleError):
            env.step(0)


class TestStepObservations:
    def _run(self, env, tasks, policy=lambda s: 0):
        env.reset(tasks, seed=0)
        done = False
        records = []
        while not done:
            obs, reward, done, record = env.step(policy(len(records)))
            records.append((obs, reward, record))
        return records

    def test_edge_queues_always_zero(self, small_env):
        # emitter and collector forward without delay at step boundaries
        env, tasks = small_env
        for obs, _, _ in self._run(env, tasks):
            assert obs.q_in == 0
            assert obs.q_res == 0
            assert obs.q_out == 0

    def test_observation_invariants_every_step(self, small_env):
        env, tasks = small_env
        for obs, _, _ in self._run(env, tasks):
            assert obs.t_proc_max >= obs.t_proc_avg >= 0
            assert 0 <= obs.qos_step <= 1
            assert obs.n_workers >= 0
            assert all(math.isfinite(v) for v in obs)

    def test_constant_service_reflected_in_stats(self, small_env):
        env, tasks = small_env
        recs = self._run(env, tasks)
        mid = recs[3:-3]
        assert all(o.t_proc_avg == pytest.approx(0.5) for o, _, _ in mid)
        assert all(o.t_proc_max == pytest.approx(0.5) for o, _, _ in mid)

    def test_arrival_rate_tracks_offered_load(self, small_env):
        env, tasks = small_env
        recs = self._run(env, tasks)
        rates = [o.arrival_rate for o, _, _ in recs[3:8]]
        assert all(r == pytest.approx(2.0, rel=0.15) for r in rates)

    def test_reward_terms_sum_every_step(self, small_env):
        env, tasks = small_env
        for _, reward, record in self._run(env, tasks):
            assert type(record.reward_terms) is tuple
            assert len(record.reward_terms) == len(REWARD_TERMS)
            assert reward == sum(record.reward_terms)

    def test_applied_delta_respects_bounds(self, small_env):
        env, tasks = small_env
        recs = self._run(env, tasks, policy=lambda k: -1)  # always scale down
        assert all(o.n_workers >= env.config.n_min for o, _, _ in recs)

    @given(seed=st.integers(0, 1000), window=st.integers(1, 4),
           rate=st.sampled_from(sorted(WINDOW_POOLS)))
    @example(seed=0, window=1, rate=80.0)
    @settings(max_examples=20, deadline=None)
    def test_window_service_stats_match_numpy(self, seed, window, rate):
        # t_proc_avg and t_proc_max against np.mean and max over the flat
        # window, compared bit for bit
        cfg = single_phase_config(rate, 60.0, warm_start=True,
                                  obs_window=window, step_duration=2.0,
                                  **WINDOW_POOLS[rate])
        rng = np.random.default_rng(seed)
        stream = constant_service_tasks(rate, 60.0, 1.0)
        tasks = [t._replace(service_time=s, deadline=3 * s)
                 for t, s in zip(stream,
                                 rng.uniform(0.05, 2.0, size=len(stream)))]
        env = FarmEnv(cfg, RewardConfig())
        env.reset(tasks, seed=seed)
        per_step, largest, done = [], 0, False
        while not done:
            seen = len(env.log.completions)
            obs, _, done, _ = env.step(int(rng.integers(-1, 2)))
            per_step.append([task.service_time
                             for task, _, _ in env.log.completions[seen:]])
            durations = [d for step in per_step[-window:] for d in step]
            assert obs.t_proc_avg == (float(np.mean(durations))
                                      if durations else 0.0)
            assert obs.t_proc_max == (max(durations) if durations else 0.0)
            largest = max(largest, len(durations))
        if rate > 3.0:
            assert largest > 128

    @given(seed=st.integers(0, 1000), window=st.integers(1, 4),
           step_duration=st.sampled_from([0.7, 2.0, 8.0]))
    @settings(max_examples=20, deadline=None)
    def test_step_counts_match_the_clock(self, seed, window, step_duration):
        # each step's arrivals, completions and hits against the workload's
        # arrival times and the completion times, over (lo, hi] windows
        # accumulated the way the simulator advances its clock
        cfg = single_phase_config(3.0, 40.0, n_init=2, warm_start=True,
                                  obs_window=window,
                                  step_duration=step_duration)
        rng = np.random.default_rng(seed)
        tasks = [t._replace(service_time=s, deadline=2 * s)
                 for t, s in zip(constant_service_tasks(
                     3.0, 40.0, 1.0, spacing="poisson", seed=seed),
                     rng.uniform(0.05, 2.0, size=1000))]
        env = FarmEnv(cfg, RewardConfig())
        env.reset(tasks, seed=seed)
        arrivals, lo, done = [], 0.0, False
        while not done:
            obs, _, done, record = env.step(int(rng.integers(-1, 2)))
            hi = lo + step_duration
            arrived = sum(lo < t.arrival_time <= hi for t in tasks)
            finished = [met for _, time, met in env.log.completions
                        if lo < time <= hi]
            assert record.arrived == arrived
            assert record.completed == len(finished)
            assert record.hits == sum(finished)
            arrivals.append(arrived)
            assert obs.arrival_rate == (sum(arrivals[-window:])
                                        / (window * step_duration))
            lo = hi

    @given(seed=st.integers(0, 1000), window=st.integers(1, 4),
           deadline_factor=st.sampled_from([1.2, 2.0, 4.0]))
    @settings(max_examples=20, deadline=None)
    def test_qos_step_carries_over_steps_without_completions(
            self, seed, window, deadline_factor):
        # qos_step is hits/completed of the latest step that completed a
        # task, recounted from the completion records, and 1.0 before any;
        # sparse arrivals and short steps leave many steps without one
        cfg = single_phase_config(0.5, 40.0, n_init=1, warm_start=True,
                                  obs_window=window, step_duration=0.7)
        rng = np.random.default_rng(seed)
        tasks = [t._replace(service_time=s, deadline=deadline_factor * s)
                 for t, s in zip(constant_service_tasks(
                     0.5, 40.0, 1.0, spacing="poisson", seed=seed),
                     rng.uniform(0.05, 2.0, size=1000))]
        env = FarmEnv(cfg, RewardConfig())
        obs, _ = env.reset(tasks, seed=seed)
        assert obs.qos_step == 1.0
        expected, done = 1.0, False
        while not done:
            seen = len(env.log.completions)
            obs, _, done, _ = env.step(int(rng.integers(-1, 2)))
            met = [m for _, _, m in env.log.completions[seen:]]
            if met:
                expected = sum(met) / len(met)
            assert obs.qos_step == expected

    def test_task_records_complete_at_termination(self, small_env):
        env, tasks = small_env
        self._run(env, tasks)
        assert len(env.log.tasks) == len(tasks)
        by_id = {t.task_id for t in env.log.tasks}
        assert by_id == {t.task_id for t in tasks}
