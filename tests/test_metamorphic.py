"""Metamorphic relations of the simulator and the env.

Each test runs the same code twice, on inputs related by a transformation
whose effect on the outputs is known exactly, so it needs no second
implementation of the farm and holds whatever the simulator's state looks
like inside (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 51(1), 2018).

- Time scaling: multiplying every time constant by a power of two k (and
  every rate by 1/k) multiplies every time the run produces by k, exactly,
  and leaves every count, flag, action and reward as it is.
  The workload builder obeys it too: its arrival times scale by k, and
  its sizes, service times, deadlines and phases stay as they are.
- Pool monotonicity: under a fixed warm pool served first come, first
  served, one more worker completes no task later, and neither does a
  shorter service time for one task.
- Causality: under the same scale actions, a task that arrives after the
  last one changes no earlier task's completion record.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from farmscale.core import EpisodeConfig, TaskSpec, Workload
from farmscale.env import FarmEnv
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sim import FarmSim
from farmscale.training import run_episode
from farmscale.workload import WorkloadPhaseSpec, build_episode_workload
from tests.conftest import single_phase_config, workload_of

# powers of two, so scaling a float by k rounds nothing
FACTORS = (2.0, 0.5)


def scaled_config(cfg, k):
    """``cfg`` with every time constant multiplied by ``k`` and every rate
    divided by it."""
    return replace(
        cfg, step_duration=k * cfg.step_duration,
        latency_lo=k * cfg.latency_lo, latency_hi=k * cfg.latency_hi,
        phases=tuple(replace(p, duration=k * p.duration, window=k * p.window,
                             base_rate=p.base_rate / k)
                     for p in cfg.phases))


def scaled_workload(tasks, k):
    """``tasks`` with arrival times, service times and deadlines multiplied
    by ``k``."""
    return Workload([k * t for t in tasks.arrival_time], tasks.size_px,
                    [k * t for t in tasks.service_time],
                    [k * t for t in tasks.deadline], tasks.phase_index,
                    tasks.phase_order)


def random_tasks(seed, n=120):
    """Poisson arrivals at 2 tasks/s, service times uniform in [0.1, 6] s
    and deadlines twice the service time."""
    rng = np.random.default_rng([seed, 5])
    arrivals = np.cumsum(rng.exponential(0.5, size=n))
    service = rng.uniform(0.1, 6.0, size=n)
    return workload_of(TaskSpec(i, float(a), 1024, float(s), 2 * float(s), 0)
                       for i, (a, s) in enumerate(zip(arrivals, service)))


def run_scaled_sim(cfg, tasks, actions, seed, k):
    """A validating, tracing simulator on ``cfg`` and ``tasks`` both scaled
    by ``k``, under ``actions`` one step of ``8k`` apart and then drained;
    returns it with its snapshot after every call."""
    sim = FarmSim(scaled_config(cfg, k), np.random.default_rng([seed, 9]),
                  validate=True, trace=True)
    sim.inject_tasks(scaled_workload(tasks, k))
    snapshots, applied = [sim.snapshot()], []
    for action in [*actions, *[0] * 20]:
        applied.append(sim.request_scale(action))
        snapshots.append(sim.snapshot())
        sim.advance(8.0 * k)
        snapshots.append(sim.snapshot())
    return sim, snapshots, applied


@st.composite
def phase_specs(draw):
    """A steady or a sinusoidal phase of 1-90 s, with a window that fits."""
    duration = draw(st.floats(1.0, 90.0))
    common = dict(base_rate=draw(st.floats(0.05, 8.0)), duration=duration,
                  window=draw(st.floats(0.05, 1.0)) * duration)
    if draw(st.booleans()):
        return WorkloadPhaseSpec("steady", multiplier=draw(st.floats(0, 2)),
                                 **common)
    low = draw(st.floats(0.0, 1.5))
    return WorkloadPhaseSpec("sinusoid", mult_min=low,
                             mult_max=low + draw(st.floats(0.01, 1.0)),
                             cycles=draw(st.integers(1, 4)), **common)


class TestTimeScaling:
    @given(seed=st.integers(0, 10_000), warm=st.booleans(),
           n_init=st.integers(1, 3), extra=st.integers(0, 5),
           actions=st.lists(st.sampled_from((-1, 0, 1)), min_size=1,
                            max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_simulator_times_scale_exactly(self, seed, warm, n_init, extra,
                                           actions):
        # the default startup latency (5 to 8 s) spans steps, so scale-ups
        # queue behind pending starts and scale-downs cancel them
        cfg = single_phase_config(2.0, 60.0, n_min=1, n_init=n_init,
                                  n_max=n_init + extra, warm_start=warm)
        tasks = random_tasks(seed)
        base, base_snaps, base_applied = run_scaled_sim(cfg, tasks, actions,
                                                        seed, 1.0)
        for k in FACTORS:
            sim, snaps, applied = run_scaled_sim(cfg, tasks, actions, seed, k)
            assert applied == base_applied
            assert snaps == base_snaps
            assert sim.completion_records == [
                (i, k * t, met) for i, t, met in base.completion_records]
            assert sim.trace == [(k * t, *rest) for t, *rest in base.trace]

    @given(seed=st.integers(0, 2**32 - 1), warm=st.booleans(),
           shuffle=st.booleans(), average=st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_env_episode_scales_exactly(self, ep_config, rw_config,
                                        model_and_dist, seed, warm, shuffle,
                                        average):
        # a reactive policy's step length is a time constant too
        model, dist = model_and_dist
        cfg = replace(ep_config, warm_start=warm)
        tasks = build_episode_workload(cfg, dist, model,
                                       shuffle_phases=shuffle, rng_seed=seed)
        policy = ReactiveAveragePolicy if average else ReactiveMaximumPolicy

        def episode(k):
            scaled = scaled_config(cfg, k)
            env = FarmEnv(scaled, rw_config)
            summary = run_episode(env, policy(scaled.step_duration),
                                  scaled_workload(tasks, k), seed)
            return env.log, summary

        base_log, base_summary = episode(1.0)
        for k in FACTORS:
            log, summary = episode(k)
            assert summary == replace(base_summary,
                                      duration=k * base_summary.duration)
            assert log.completions == [
                (i, k * t, met) for i, t, met in base_log.completions]
            assert log.steps == [
                replace(s, observation=s.observation._replace(
                    t_proc_avg=k * s.observation.t_proc_avg,
                    t_proc_max=k * s.observation.t_proc_max,
                    arrival_rate=s.observation.arrival_rate / k))
                for s in base_log.steps]


    @given(phases=st.lists(phase_specs(), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), shuffle=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_workload_arrivals_scale_exactly(self, model_and_dist, phases,
                                             seed, shuffle):
        model, dist = model_and_dist
        cfg = EpisodeConfig(phases=tuple(phases))
        base = build_episode_workload(cfg, dist, model, shuffle, seed)
        for k in FACTORS:
            tasks = build_episode_workload(scaled_config(cfg, k), dist, model,
                                           shuffle, seed)
            assert list(tasks) == [t._replace(arrival_time=k * t.arrival_time)
                                   for t in base]
            assert tasks.phase_order == base.phase_order


def fixed_pool_completions(tasks, workers):
    """Task id -> completion time of ``tasks`` run to the end on a fixed warm
    pool of ``workers``."""
    cfg = single_phase_config(2.0, 60.0, n_min=workers, n_init=workers,
                              n_max=workers, warm_start=True)
    sim = FarmSim(cfg, np.random.default_rng(0), validate=True)
    sim.inject_tasks(tasks)
    while len(sim.completion_records) < len(tasks):
        sim.advance(100.0)
    return {i: t for i, t, _ in sim.completion_records}


class TestPoolMonotonicity:
    @given(slots=st.lists(st.tuples(st.integers(0, 80), st.integers(1, 12)),
                          min_size=1, max_size=60),
           workers=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_another_worker_delays_no_task(self, slots, workers):
        # arrivals and service times on a 0.25 grid, so events tie
        slots.sort(key=lambda slot: slot[0])
        tasks = workload_of(TaskSpec(i, 0.25 * a, 1024, 0.25 * s, 0.5 * s, 0)
                            for i, (a, s) in enumerate(slots))
        fewer = fixed_pool_completions(tasks, workers)
        more = fixed_pool_completions(tasks, workers + 1)
        assert all(more[i] <= fewer[i] for i in fewer)

    @given(slots=st.lists(st.tuples(st.integers(0, 80), st.integers(1, 12)),
                          min_size=1, max_size=60),
           workers=st.integers(1, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_shorter_task_delays_no_task(self, slots, workers, data):
        # the shorter time lies on a 0.125 grid, strictly below the old one
        slots.sort(key=lambda slot: slot[0])
        j = data.draw(st.integers(0, len(slots) - 1))
        cut = 0.125 * data.draw(st.integers(1, 2 * slots[j][1] - 1))
        rows = [TaskSpec(i, 0.25 * a, 1024, 0.25 * s, 0.5 * s, 0)
                for i, (a, s) in enumerate(slots)]
        base = fixed_pool_completions(workload_of(rows), workers)
        rows[j] = rows[j]._replace(service_time=cut)
        shorter = fixed_pool_completions(workload_of(rows), workers)
        assert all(shorter[i] <= base[i] for i in base)


class TestCausality:
    @given(seed=st.integers(0, 10_000), warm=st.booleans(),
           n_init=st.integers(1, 3), extra=st.integers(0, 5),
           gap=st.floats(0.001, 30.0), service=st.floats(0.1, 6.0),
           actions=st.lists(st.sampled_from((-1, 0, 1)), min_size=1,
                            max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_a_later_arrival_changes_no_earlier_completion(
            self, seed, warm, n_init, extra, gap, service, actions):
        cfg = single_phase_config(2.0, 60.0, n_min=1, n_init=n_init,
                                  n_max=n_init + extra, warm_start=warm)
        tasks = random_tasks(seed, n=60)
        rows = list(tasks)
        late = TaskSpec(len(rows), rows[-1].arrival_time + gap, 1024, service,
                        2 * service, 0)
        base, _, base_applied = run_scaled_sim(cfg, tasks, actions, seed, 1.0)
        sim, _, applied = run_scaled_sim(cfg, workload_of([*rows, late]),
                                         actions, seed, 1.0)
        assert applied == base_applied
        assert [record for record in sim.completion_records
                if record[0] != late.task_id] == base.completion_records
