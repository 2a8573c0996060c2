"""Episode summaries and the two pricing models."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from farmscale.core import (EpisodeConfig, EpisodeLog, Observation,
                            RewardConfig, StepRecord, TaskSpec)
from farmscale.env import FarmEnv
from farmscale.metrics import (CostConfig, EpisodeSummary, PhaseSummary,
                               aggregate, aggregate_rows, cost_paygo,
                               cost_sub, summarize_episode)
from farmscale.workload import WorkloadPhaseSpec
from tests.conftest import constant_service_tasks, single_phase_config


def step(k, n_workers, applied_delta=0, arrived=0, completed=0, hits=0,
         reward=0.0, workers_busy=0):
    obs = Observation(q_in=0, q_work=0, q_res=0, q_out=0, n_workers=n_workers,
                      t_proc_avg=0.0, t_proc_max=0.0, arrival_rate=0.0,
                      qos_step=1.0)
    return StepRecord(step=k, observation=obs, action=applied_delta,
                      applied_delta=applied_delta, reward=reward,
                      arrived=arrived, completed=completed, hits=hits,
                      workers_busy=workers_busy)


def task(task_id, phase_index=0):
    return TaskSpec(task_id=task_id, arrival_time=0.1, size_px=512,
                    service_time=0.05, deadline=0.1, phase_index=phase_index)


def reference_summary(log, config) -> EpisodeSummary:
    """``summarize_episode`` as a plain loop per task and a scan of the
    steps per phase, over the phases' time slots in the order they ran,
    with ``np.mean``: the reference the counted version must match bit for
    bit."""
    workers = [s.observation.n_workers for s in log.steps]
    n_scale = sum(1 for s in log.steps if s.applied_delta != 0)
    emitted = log.n_tasks
    met_of = {t.task_id: met for t, _, met in log.completions}
    met = completed = 0
    emitted_in = dict.fromkeys(range(len(config.phases)), 0)
    met_in = dict(emitted_in)
    for t in log.tasks:
        t_met = met_of.get(t.task_id, False)
        met += bool(t_met)
        completed += t.task_id in met_of
        if t.phase_index in emitted_in:
            emitted_in[t.phase_index] += 1
            met_in[t.phase_index] += bool(t_met)
    per_phase = [None] * len(config.phases)
    start = 0.0
    for i in log.phase_order or range(len(config.phases)):
        lo, hi = start, start + config.phases[i].duration
        start = hi
        in_phase = [s.observation.n_workers for s in log.steps
                    if lo <= (s.step - 1) * config.step_duration < hi]
        per_phase[i] = PhaseSummary(
            i, met_in[i] / emitted_in[i] if emitted_in[i] else 1.0,
            float(np.mean(in_phase)) if in_phase else 0.0,
            emitted_in[i], met_in[i])
    return EpisodeSummary(
        met / emitted if emitted else 1.0, float(np.mean(workers)),
        int(max(workers)), n_scale, len(log.steps) - n_scale, len(log.steps),
        len(log.steps) * config.step_duration,
        float(sum(s.reward for s in log.steps)), emitted, completed, met,
        per_phase, workers)


class TestCostPaygo:
    CFG = CostConfig(c_w=1.0, c_scale=0.5)

    def test_hand_example(self):
        # N = [2,2,3], T_step = 1: usage 7, one scale event
        assert cost_paygo([2, 2, 3], 1.0, self.CFG) == pytest.approx(7.5,
                                                                     abs=1e-9)

    def test_constant_pool_has_no_scaling_charge(self):
        cfg = CostConfig(c_w=1.0, c_scale=123.0)
        assert cost_paygo([5] * 10, 2.0, cfg) == pytest.approx(100.0, abs=1e-9)

    def test_zero_worker_tariff_counts_only_events(self):
        cfg = CostConfig(c_w=0.0, c_scale=2.0)
        assert cost_paygo([1, 2, 2, 3], 1.0, cfg) == pytest.approx(4.0,
                                                                   abs=1e-9)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            cost_paygo([], 1.0, self.CFG)


class TestCostSub:
    def test_hand_example(self):
        cfg = CostConfig(c_sub=1.0, c_burst=2.0, c_scale=0.0, n_sub=3)
        # reserved: 3 * 2s = 6; burst: max(0, 4-3) * 1s * 2 = 2
        assert cost_sub([2, 4], 1.0, cfg) == pytest.approx(8.0, abs=1e-9)

    def test_no_burst_when_reserved_covers_peak(self):
        cfg = CostConfig(c_sub=0.7, c_burst=9.0, c_scale=0.0, n_sub=10)
        assert cost_sub([3, 5, 7], 2.0, cfg) == pytest.approx(
            0.7 * 10 * 6.0, abs=1e-9)

    def test_degenerates_to_paygo_usage(self):
        cfg = CostConfig(c_w=1.5, c_sub=0.0, c_burst=1.5, c_scale=0.0,
                         n_sub=0)
        series = [1, 4, 2, 6]
        assert cost_sub(series, 3.0, cfg) == pytest.approx(
            cost_paygo(series, 3.0, CostConfig(c_w=1.5, c_scale=0.0)),
            abs=1e-9)

    @given(series=st.lists(st.integers(min_value=1, max_value=20), min_size=2,
                           max_size=30),
           bump=st.integers(min_value=0, max_value=len("xxxxx")))
    def test_monotone_in_pool_size(self, series, bump):
        # usage monotonicity; c_scale = 0 because raising one N_k can
        # remove a reconfiguration event and with it the per-event charge
        cfg = CostConfig(c_scale=0.0)
        idx = bump % len(series)
        raised = list(series)
        raised[idx] += 1
        for fn in (cost_paygo, cost_sub):
            assert fn(raised, 8.0, cfg) >= fn(series, 8.0, cfg) - 1e-12


class TestSummarize:
    def _config(self):
        return single_phase_config(2.0, 40.0, n_init=2, warm_start=True)

    def test_hand_built_counters(self):
        cfg = self._config()
        log = EpisodeLog()
        for k, (n, d) in enumerate(zip([2, 2, 3], [0, 0, 1])):
            log.steps.append(step(k, n, applied_delta=d, reward=1.0))
        summary = summarize_episode(log, cfg)
        assert summary.n_mean == pytest.approx(7 / 3)
        assert summary.n_scale == 1
        assert summary.no_ops == 2
        assert summary.n_scale + summary.no_ops == summary.steps
        assert summary.total_reward == pytest.approx(3.0)

    def test_all_met_gives_unit_qos(self):
        cfg = self._config()
        tasks = [task(0), task(1)]
        log = EpisodeLog(tasks, [(t, 0.2, True) for t in tasks])
        log.steps.append(step(0, 2, completed=2, hits=2, arrived=2))
        assert summarize_episode(log, cfg).final_qos == 1.0

    def test_unfinished_tasks_count_as_missed(self):
        cfg = self._config()
        tasks = [task(0), task(1)]
        log = EpisodeLog(tasks, [(tasks[0], 0.2, True)])  # 1 never completes
        log.steps.append(step(0, 2, completed=1, hits=1, arrived=2))
        assert summarize_episode(log, cfg).final_qos == pytest.approx(0.5)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            summarize_episode(EpisodeLog(), self._config())

    def test_per_phase_matches_direct_recount(self, ep_config, rw_config,
                                              model_and_dist):
        model, dist = model_and_dist
        from farmscale.workload import build_episode_workload
        env = FarmEnv(ep_config, rw_config)
        tasks = build_episode_workload(ep_config, dist, model, False, 5)
        env.reset(tasks, seed=5)
        done = False
        while not done:
            _, _, done, _ = env.step(1)
        summary = summarize_episode(env.log, ep_config)
        met_ids = {t.task_id for t, _, met in env.log.completions if met}
        for idx, phase in enumerate(summary.per_phase):
            members = [t for t in env.log.tasks if t.phase_index == idx]
            assert phase.emitted == len(members)
            expected = (sum(t.task_id in met_ids for t in members)
                        / len(members))
            assert phase.qos == pytest.approx(expected)
        assert sum(p.emitted for p in summary.per_phase) == len(tasks)

    # whole-second phases and grid step lengths put step starts exactly on
    # phase boundaries
    @given(durations=st.lists(st.integers(1, 40).map(float)
                              | st.floats(1.0, 40.0), min_size=1, max_size=5),
           step_duration=st.sampled_from((0.5, 1.0, 2.0, 8.0))
                         | st.floats(0.5, 16.0),
           shuffle=st.randoms(use_true_random=False),
           steps=st.lists(st.tuples(st.integers(0, 20),
                                    st.sampled_from((-1, 0, 1))),
                          min_size=1, max_size=80),
           tasks=st.lists(st.tuples(st.integers(-1, 5), st.booleans(),
                                    st.booleans()), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(self, durations, step_duration, shuffle,
                                    steps, tasks):
        cfg = EpisodeConfig(
            phases=tuple(WorkloadPhaseSpec("steady", 1.0, d, window=1.0)
                         for d in durations),
            step_duration=step_duration)
        specs = [task(i, phase) for i, (phase, _, _) in enumerate(tasks)]
        order = list(range(len(durations)))  # the order the phases ran in
        shuffle.shuffle(order)
        log = EpisodeLog(specs, [(spec, 0.2, met) for spec, (_, done, met)
                                 in zip(specs, tasks) if done],
                         phase_order=tuple(order))
        # steps are numbered from 1, as the env logs them
        for k, (n, delta) in enumerate(steps, start=1):
            log.steps.append(step(k, n, applied_delta=delta, reward=0.1 * n))
        assert (repr(summarize_episode(log, cfg))
                == repr(reference_summary(log, cfg)))

    @given(n_phases=st.integers(1, 4),
           tasks=st.lists(st.tuples(st.integers(-2, 5), st.booleans(),
                                    st.booleans()), max_size=300))
    @settings(max_examples=100, deadline=None)
    @example(n_phases=3, tasks=[(0, True, True), (0, True, False),
                                (2, True, True), (3, True, True),
                                (-1, False, False), (7, True, True)])
    def test_phase_counts_match_a_counter(self, n_phases, tasks):
        # a phase index outside the configured phases counts in emitted and
        # met but in no phase, and a phase without tasks counts zero
        cfg = EpisodeConfig(
            phases=tuple(WorkloadPhaseSpec("steady", 1.0, 8.0, window=1.0)
                         for _ in range(n_phases)), step_duration=8.0)
        specs = [task(i, phase) for i, (phase, _, _) in enumerate(tasks)]
        log = EpisodeLog(specs, [(spec, 0.2, met) for spec, (_, done, met)
                                 in zip(specs, tasks) if done])
        log.steps.append(step(1, 2))
        emitted_in = Counter(t.phase_index for t in specs)
        met_in = Counter(t.phase_index for t, _, met in log.completions if met)
        summary = summarize_episode(log, cfg)
        assert (summary.emitted, summary.met) == (
            len(specs), sum(met_in.values()))
        assert [(p.phase_index, p.emitted, p.met) for p in summary.per_phase
                ] == [(i, emitted_in[i], met_in[i]) for i in range(n_phases)]
        assert [p.qos for p in summary.per_phase] == [
            met_in[i] / emitted_in[i] if emitted_in[i] else 1.0
            for i in range(n_phases)]

    def test_episode_summary_roundtrips_as_dict(self):
        cfg = self._config()
        log = EpisodeLog()
        log.steps.append(step(0, 2))
        d = summarize_episode(log, cfg).as_dict()
        assert d["mean_workers"] == 2.0
        assert "final_qos" in d and "per_phase" in d


class TestAggregate:
    def test_mean_and_population_std(self):
        mean, std = aggregate([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(1.11803398875)

    def test_single_value(self):
        mean, std = aggregate([7.0])
        assert mean == 7.0
        assert std == 0.0

    def test_rows_match_per_row_mean_and_std_bit_for_bit(self):
        # 15 rows, as compare reduces with four phases, of every length
        # from 1 to 200: a reduction over the rows of one array must give
        # each row the bits np.mean and np.std give it alone
        rng = np.random.default_rng(0)
        for n in range(1, 201):
            rows = (rng.standard_normal((15, n))
                    * rng.choice([1e-3, 1.0, 1e3], size=(15, 1))).tolist()
            rows[0] = rng.integers(0, 40, size=n).tolist()
            means, stds = aggregate_rows(rows)
            for row, mean, std in zip(rows, means, stds):
                assert (mean, std) == (float(np.mean(row)),
                                       float(np.std(row))), n
            assert all(type(v) is float for v in means + stds)
