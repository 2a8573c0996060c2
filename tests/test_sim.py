"""Event-driven farm simulator: startup, conservation, scaling, static runs."""

import bisect
import heapq
import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from farmscale import sim as sim_module
from farmscale.config import episode_config
from farmscale.core import (EpisodeConfig, EpisodeLog, Observation,
                            StepRecord, TaskSpec, Workload)
from farmscale.metrics import summarize_episode
from farmscale.sim import ConservationError, FarmSim, Snapshot
from farmscale.workload import build_episode_workload
from tests.conftest import (constant_service_tasks, fuzz_sim,
                            single_phase_config, workload_of)
from tests.test_acceptance import static_run

STARTING, IDLE, BUSY, DRAINING = "starting", "idle", "busy", "draining"


def status(sim, worker_id):
    """The status of worker ``worker_id``, read from ``sim``'s pool:
    starting (one of the newest pending starts), idle, busy, draining (busy,
    and leaving when its task completes), or None once it has left."""
    if worker_id in sim._draining:
        return DRAINING
    if worker_id not in sim._live:
        return None
    if sim._live.index(worker_id) >= len(sim._live) - len(sim._starts):
        return STARTING
    return IDLE if worker_id in sim._idle else BUSY


def statuses(sim):
    """{worker id: status} of every worker in ``sim``'s pool, in start
    order: ids are never reused, so it is ascending id order."""
    return {w: status(sim, w) for w in sorted([*sim._live, *sim._draining])}


class DispatchReferenceSim(FarmSim):
    """The simulator before tasks were handed straight to their workers and
    queued arrivals stopped being events: every arrival is an event and
    joins an explicit queue, every freed or ready worker joins the idle
    list, and ``_dispatch`` pairs the two. Its own loop merges a deque of
    pending arrivals with the event heap, and its snapshot is a recount of
    its own queue and the statuses, which it reads through ``status``.
    Only the pool, scaling and the trace record are shared with
    ``FarmSim``. It reads each task as a row of the batch as given, and its
    events and queue carry the task's index there.
    Kept as the reference the span queue and the direct handoff must match
    event for event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending, self.queue, self.arrived = deque(), deque(), 0

    def inject_tasks(self, tasks):
        self.rows = list(tasks)
        self.pending.extend(sorted((t.arrival_time, sim_module._ARRIVAL,
                                    t.task_id, i)
                                   for i, t in enumerate(self.rows)))

    def advance(self, dt):
        end = self.clock + dt
        pending, events = self.pending, self._events
        while True:
            if pending and (not events or pending[0] < events[0]):
                if pending[0][0] > end:
                    break
                self.clock, _, _, index = pending.popleft()
                self._on_arrival(index)
            elif events and events[0][0] <= end:
                self.clock, kind, eid, index = heapq.heappop(events)
                if kind == sim_module._COMPLETION:
                    self._on_completion(eid, index)
                else:
                    self._on_worker_ready(eid)
            else:
                break
        self.clock = end

    def snapshot(self):
        return recount(self, len(self.queue), self.arrived)

    def _on_arrival(self, index):
        self.arrived += 1
        self.queue.append(index)
        if self.trace is not None:
            self._record("arrival", task_id=self.rows[index].task_id)
        self._dispatch()

    def _on_completion(self, worker_id, index):
        task = self.rows[index]
        met = self.clock - task.arrival_time <= task.deadline
        self.completion_records.append((index, self.clock, met))
        if self.trace is not None:
            self._record("completion", task_id=task.task_id,
                         worker_id=worker_id)
        if status(self, worker_id) == DRAINING:
            self._draining.remove(worker_id)
            if self.trace is not None:
                self._record("worker_exit", worker_id=worker_id)
        else:
            bisect.insort(self._idle, worker_id)
            self._dispatch()

    def _on_worker_ready(self, worker_id):
        if status(self, worker_id) != STARTING:
            return  # cancelled by a scale-down before becoming ready
        self._starts.popleft()
        bisect.insort(self._idle, worker_id)
        if self.trace is not None:
            self._record("worker_ready", worker_id=worker_id)
        self._dispatch()

    def _dispatch(self):
        while self.queue and self._idle:
            worker_id = self._idle.pop(0)
            index = self.queue.popleft()
            task = self.rows[index]
            heapq.heappush(self._events, (self.clock + task.service_time,
                                          sim_module._COMPLETION, worker_id,
                                          index))
            if self.trace is not None:
                self._record("dispatch", task_id=task.task_id,
                             worker_id=worker_id)


def ready_times(sim):
    """{worker id: ready time} of the starting workers, read from the ready
    events left in the event heap; a cancelled start's event stays there but
    names no worker."""
    return {wid: t for t, kind, wid, _ in sim._events
            if kind == sim_module._WORKER_READY
            and status(sim, wid) == STARTING}


def in_arrival_order(tasks):
    """The ``Workload`` of ``tasks`` renumbered in (arrival time, id) order,
    the one batch shape there is: task ``i`` is the ``i``-th arrival."""
    ordered = sorted(tasks, key=lambda t: (t.arrival_time, t.task_id))
    return workload_of(t._replace(task_id=i) for i, t in enumerate(ordered))


def deadline_met(arrival, completion, deadline):
    """The met rule: a task meets its deadline when it completes within
    ``deadline`` of its arrival, the boundary included."""
    assert arrival <= completion
    return completion - arrival <= deadline


def met_by_the_rule(sim):
    """The met flags ``deadline_met`` gives the sim's completion records,
    each task read from the sim's columns by its id."""
    return [deadline_met(sim._times[i], time, sim._deadline[i])
            for i, time, _ in sim.completion_records]


def make_sim(n_init=4, seed=0, warm=False, **kwargs):
    cfg = single_phase_config(5.0, 60.0, n_init=n_init, warm_start=warm,
                              **kwargs)
    return FarmSim(cfg, np.random.default_rng(seed), validate=True)


def simple_task(task_id, arrival, service=1.0):
    return TaskSpec(task_id=task_id, arrival_time=arrival, size_px=1024,
                    service_time=service, deadline=2 * service, phase_index=0)


class TestStartup:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_sequential_gaps_within_latency(self, seed):
        sim = make_sim(n_init=8, seed=seed, n_max=20)
        readies = sorted(ready_times(sim).values())
        assert len(readies) == 8
        prev = 0.0
        for r in readies:
            assert 5.0 <= r - prev <= 8.0
            prev = r

    def test_cold_start_no_effective_workers(self):
        sim = make_sim(n_init=4)
        assert sim.snapshot().workers_effective == 0

    def test_warm_start_pool_ready_at_zero(self):
        sim = make_sim(n_init=4, warm=True)
        snap = sim.snapshot()
        assert snap.workers_effective == 4
        assert list(statuses(sim).values()) == [IDLE] * 4
        assert not sim._events  # no start pending

    def test_zero_latency_degenerate(self):
        sim = make_sim(n_init=1, latency_lo=0.0, latency_hi=0.0)
        sim.advance(1e-9)
        assert sim.snapshot().workers_effective == 1

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_advance_rejects_a_step_not_positive_and_finite(self, dt):
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks(workload_of([simple_task(0, 0.5)]))
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            sim.advance(dt)
        assert sim.clock == 0.0 and sim.snapshot() == scanned_snapshot(sim)


class TestInjection:
    def test_duplicate_task_id_rejected(self):
        # a simulator takes one batch: a second one is refused whatever it
        # holds, the same workload again too, after an empty first batch
        # as well
        for first in (workload_of([simple_task(0, 0.5)]), workload_of([])):
            sim = make_sim()
            sim.inject_tasks(first)
            for batch in (workload_of([simple_task(0, 0.7)]), first,
                          workload_of([])):
                with pytest.raises(ValueError, match="one batch of tasks"):
                    sim.inject_tasks(batch)
                assert sim._times == [*first.arrival_time, math.inf]
                assert sim._service is first.service_time

    def test_enqueued_total_counts_arrived_tasks(self):
        sim = make_sim(warm=True)
        sim.inject_tasks(workload_of(simple_task(i, 0.1 * (i + 1))
                                     for i in range(5)))
        assert sim.enqueued_total == 0
        sim.advance(0.35)
        assert sim.enqueued_total == 3


def grid_sim(warm, n_init, seed, cls=FarmSim):
    """Validating, tracing sim whose startups take exactly 1.0: with task
    times on a 0.5 grid, readies tie with arrivals and completions."""
    cfg = single_phase_config(2.0, 60.0, n_min=1, n_init=n_init, n_max=4,
                              warm_start=warm, latency_lo=1.0,
                              latency_hi=1.0)
    return cls(cfg, np.random.default_rng(seed), validate=True, trace=True)


class TestStartQueue:
    # wide, narrow, zero-width and empty latency ranges, each drawn with
    # Generator.uniform's bits
    @pytest.mark.parametrize("lo, hi", [(5.0, 8.0), (1.0, 4.0), (0.0, 0.0),
                                        (2.5, 2.5), (0.0, 1e-3)])
    @given(warm=st.booleans(), n_init=st.integers(1, 3),
           program=st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                                      st.floats(min_value=0.05,
                                                max_value=3.0)),
                            min_size=1, max_size=60),
           seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_start_queues_behind_every_pending_start(self, lo, hi, warm,
                                                     n_init, program, seed):
        # steps shorter than the startup latency queue starts, and
        # scale-downs cancel them; the reference base rescans every pending
        # start, and a second generator replays the simulator's draws
        cfg = single_phase_config(2.0, 60.0, n_min=1, n_init=n_init, n_max=6,
                                  warm_start=warm, latency_lo=lo,
                                  latency_hi=hi)
        sim = FarmSim(cfg, np.random.default_rng(seed), validate=True)
        ref = np.random.default_rng(seed)
        if not warm:
            base = 0.0
            for wid in range(n_init):
                base += ref.uniform(lo, hi)
                assert ready_times(sim)[wid] == base
        task_rng = np.random.default_rng([seed, 1])
        arrivals = np.cumsum(task_rng.exponential(0.5, size=60))
        sim.inject_tasks(workload_of(simple_task(i, float(a), service=2.0)
                                     for i, a in enumerate(arrivals)))
        for action, dt in program:
            base = max([sim.clock, *ready_times(sim).values()])
            if sim.request_scale(action) > 0:
                new = max(statuses(sim))
                assert status(sim, new) == STARTING
                assert ready_times(sim)[new] == base + ref.uniform(lo, hi)
            assert list(sim._starts) == sorted(ready_times(sim).values())
            sim.advance(dt)


def first_offence(batch):
    """The first position of ``batch`` whose task arrives before the one
    before it, the reference for the ``Workload`` check."""
    return next(i for i in range(1, len(batch))
                if batch[i].arrival_time < batch[i - 1].arrival_time)


def assert_refused(batch, position):
    """The rows of ``batch`` make no ``Workload``: the constructor raises
    ``ValueError`` naming ``position``. A simulator handed the rows
    themselves raises before it schedules anything, and then runs a valid
    batch as a fresh one does."""
    with pytest.raises(ValueError, match=f"^task {position} of the batch "):
        Workload(*list(zip(*batch))[1:])
    sim, fresh = grid_sim(True, 2, 7), grid_sim(True, 2, 7)
    with pytest.raises(AttributeError):
        sim.inject_tasks(batch)
    assert sim._times == [math.inf] and sim._service == ()
    valid = workload_of([simple_task(0, 0.5), simple_task(1, 0.5),
                         simple_task(2, 1.0)])
    for one in (sim, fresh):
        one.inject_tasks(valid)
        one.advance(10.0)
    assert sim.snapshot() == fresh.snapshot()
    assert sim.trace == fresh.trace
    assert sim.completion_records == fresh.completion_records


class TestMergedArrivals:
    @given(slots=st.lists(st.integers(0, 40), min_size=2, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_a_batch_out_of_order_schedules_nothing(self, slots):
        # a falling arrival time breaks the rule, named at its first
        # position; the permutation test below shuffles whole rows
        assume(slots != sorted(slots))
        tasks = [simple_task(i, 0.5 * a) for i, a in enumerate(slots)]
        position = next(i for i in range(1, len(slots))
                        if slots[i] < slots[i - 1])
        assert first_offence(tasks) == position
        assert_refused(tasks, position)

    def test_tie_order_at_one_clock(self):
        sim = grid_sim(warm=True, n_init=1, seed=0)
        sim.request_scale(+1)  # worker 1 ready at exactly 1.0
        sim.inject_tasks(workload_of(
            simple_task(i, t) for i, t in enumerate((0.0, 1.0, 3.0, 3.0))))
        sim.advance(10.0)
        assert sim.trace == [
            (0.0, "scale_up", -1, 1),
            (0.0, "arrival", 0, -1),
            (0.0, "dispatch", 0, 0),
            # t = 1.0: completion, then arrival, then worker-ready
            (1.0, "completion", 0, 0),
            (1.0, "arrival", 1, -1),
            (1.0, "dispatch", 1, 0),
            (1.0, "worker_ready", -1, 1),
            (2.0, "completion", 1, 0),
            # tied arrivals in ascending task id
            (3.0, "arrival", 2, -1),
            (3.0, "dispatch", 2, 0),
            (3.0, "arrival", 3, -1),
            (3.0, "dispatch", 3, 1),
            (4.0, "completion", 2, 0),
            (4.0, "completion", 3, 1),
        ]


class TestInjectionPaths:
    """A batch has one shape, the one the workload builder makes: task
    ``i`` is the ``i``-th arrival, with finite arrival times that never
    fall. ``Workload`` checks it where a batch is made, and refuses any
    other; ``inject_tasks`` takes a workload only, and reads it in place."""

    @given(slots=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6),
                                    st.integers(0, 2)),
                          min_size=1, max_size=24),
           shuffler=st.randoms(use_true_random=False),
           warm=st.booleans(), n_init=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_every_permutation_but_arrival_order_is_rejected(
            self, slots, shuffler, warm, n_init):
        # few distinct times, so arrivals tie; three phases, so a record
        # pointing at the wrong task shows in the per-phase counts
        tasks = in_arrival_order(
            simple_task(i, 0.5 * a, service=0.5 * s)._replace(
                phase_index=phase)
            for i, (a, s, phase) in enumerate(slots))
        permuted = list(tasks)
        shuffler.shuffle(permuted)
        times = [t.arrival_time for t in permuted]
        if times != sorted(times):
            assert_refused(permuted, first_offence(permuted))
        # the batch in arrival order is read in place, and runs every task
        sim = grid_sim(warm, n_init, 7)
        cfg = EpisodeConfig(phases=single_phase_config(2.0, 60.0).phases * 3)
        step = StepRecord(1, Observation(*[0] * 9), 0, 0, 0.0, 0, 0, 0, 0)
        sim.inject_tasks(tasks)
        assert sim._times == [*tasks.arrival_time, math.inf]
        assert sim._service is tasks.service_time
        sim.advance(200.0)
        summary = summarize_episode(
            EpisodeLog(tasks, sim.completion_records, [step]), cfg)
        assert len(sim.completion_records) == len(tasks)
        assert summary.met == sum(met for _, _, met in sim.completion_records)
        assert [p.emitted for p in summary.per_phase] == [
            tasks.phase_index.count(k) for k in range(3)]

    @pytest.mark.parametrize("times, position", [
        ((math.nan, 1.0, 2.0), 0), ((0.5, math.nan, 2.0), 1),
        ((0.5, 1.0, math.inf), 2), ((-math.inf, 1.0, 2.0), 0)],
        ids=["nan-first", "nan", "inf-last", "minus-inf-first"])
    def test_an_arrival_time_not_finite_is_rejected(self, times, position):
        # NaN leaves a sorted list as it is and infinities sort, so only the
        # finiteness check refuses these
        assert_refused([simple_task(i, t) for i, t in enumerate(times)],
                       position)

    def test_finite_times_whose_sum_overflows_are_accepted(self):
        sim = make_sim()
        sim.inject_tasks(Workload((1e308, 1.5e308), (1024,) * 2, (1.0,) * 2,
                                  (2.0,) * 2, (0,) * 2))
        assert sim._times == [1e308, 1.5e308, math.inf]

    @given(seed=st.integers(0, 2**32 - 1), shuffle=st.booleans(),
           window=st.sampled_from((0.25, 1.0, 5.0)))
    @settings(max_examples=30, deadline=None)
    def test_every_built_workload_is_accepted(self, defaults, model_and_dist,
                                              seed, shuffle, window):
        model, dist = model_and_dist
        cfg = episode_config({**defaults, "poisson_window": window})
        tasks = build_episode_workload(cfg, dist, model,
                                       shuffle_phases=shuffle, rng_seed=seed)
        sim = make_sim()
        sim.inject_tasks(tasks)  # read in place
        assert sim._times == [*tasks.arrival_time, math.inf]
        assert sim._service is tasks.service_time


class TestScaling:
    def test_clip_at_n_max(self):
        sim = make_sim(n_init=4, n_max=4, warm=True)
        assert sim.request_scale(+1) == 0

    def test_clip_at_n_min(self):
        sim = make_sim(n_init=1, n_min=1, warm=True)
        assert sim.request_scale(-1) == 0

    def test_scale_up_schedules_after_latency(self):
        sim = make_sim(n_init=1, warm=True)
        sim.advance(100.0)
        applied = sim.request_scale(+1)
        assert applied == 1
        [ready_at] = ready_times(sim).values()
        assert 105.0 < ready_at <= 108.0

    def test_scale_down_idle_exits_now(self):
        sim = make_sim(n_init=2, warm=True)
        assert sim.request_scale(-1) == -1
        assert sim.snapshot().workers_effective == 1

    def test_scale_down_starting_is_cancelled(self):
        sim = make_sim(n_init=1, warm=True)
        sim.request_scale(+1)
        assert sim.snapshot().workers_starting == 1
        sim.request_scale(-1)  # victim is the most recent: the starting one
        snap = sim.snapshot()
        assert snap.workers_starting == 0
        assert snap.workers_effective == 1

    def test_scale_down_busy_drains_in_flight_work(self):
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks(workload_of([simple_task(0, 0.5, service=10.0)]))
        sim.advance(1.0)  # worker picks the task up
        assert list(statuses(sim).values()) == [BUSY]
        sim.request_scale(-1)
        assert sim.request_scale(-1) == 0  # nothing left to remove
        sim.advance(60.0)
        assert len(sim.completion_records) == 1  # drain preserved the task

    @pytest.mark.parametrize("delta", [0.5, -0.5, 1.0, -1.0, True, False, 2,
                                       np.float64(1.0), np.bool_(True)],
                             ids=repr)
    def test_non_unit_integer_rejected(self, delta):
        sim = make_sim(n_init=2, warm=True)
        with pytest.raises(ValueError, match="scaling actions are unit steps"):
            sim.request_scale(delta)
        assert sim.snapshot() == scanned_snapshot(sim)
        assert list(statuses(sim)) == [0, 1]
        assert sim.snapshot().workers_starting == 0

    def test_numpy_integer_applied_as_int(self):
        sim = make_sim(n_init=2, warm=True)
        applied = [sim.request_scale(np.int64(1)),
                   sim.request_scale(np.int8(-1))]
        assert applied == [1, -1]
        assert all(type(a) is int for a in applied)

    def test_victim_is_most_recently_started(self):
        sim = make_sim(n_init=3, warm=True)
        sim.advance(1.0)
        sim.request_scale(-1)
        assert list(statuses(sim)) == [0, 1]


class TestConservationAndDeterminism:
    def _run_fuzz(self, seed, trace=False):
        cfg = single_phase_config(8.0, 300.0, n_init=2, n_max=12,
                                  warm_start=True)
        policy_rng = np.random.default_rng([seed, 77])
        task_rng = np.random.default_rng([seed, 78])
        sim = FarmSim(cfg, np.random.default_rng([seed, 79]),
                      validate=True, trace=trace)
        arrivals = np.cumsum(task_rng.exponential(1 / 8.0, size=1500))
        sim.inject_tasks(workload_of(
            simple_task(i, float(a),
                        service=float(task_rng.uniform(0.05, 2.5)))
            for i, a in enumerate(arrivals)))
        for _ in range(80):
            sim.request_scale(int(policy_rng.integers(-1, 2)))
            sim.advance(4.0)
        return sim

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_conservation_under_fuzz(self, seed):
        sim = self._run_fuzz(seed)  # validate=True checks every event
        snap = sim.snapshot()
        assert (snap.enqueued_total
                == snap.q_work + snap.workers_busy + snap.completed_total)

    def test_bitwise_deterministic_traces(self):
        t1 = self._run_fuzz(123, trace=True).trace
        t2 = self._run_fuzz(123, trace=True).trace
        assert t1 == t2

    def test_completions_follow_the_one_deadline_rule(self):
        fuzz = fuzz_sim(11)  # the criterion-3 run
        met = [m for _, _, m in fuzz.completion_records]
        assert len(met) == 3500 and 0 < sum(met) < len(met)
        # one worker, three tasks at 0 with deadline 2: latencies 1, 2, 3
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks(workload_of(simple_task(i, 0.0) for i in range(3)))
        sim.advance(10.0)
        boundary = sim.completion_records
        assert [m for _, _, m in boundary] == [True, True, False]
        for one in (fuzz, sim):
            assert [m for _, _, m in one.completion_records] == (
                met_by_the_rule(one))

    @pytest.mark.parametrize("deadline, met", [
        (2.0, True), (math.nextafter(2.0, 0), False)],
        ids=["at", "one-ulp-below"])
    def test_a_completion_at_the_deadline_meets_it(self, deadline, met):
        # one warm worker, two tasks at 0 of service 1: the second completes
        # at exactly 2.0, met with deadline 2.0 and missed one ulp below
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks(workload_of(TaskSpec(i, 0.0, 1024, 1.0, deadline, 0)
                                     for i in range(2)))
        sim.advance(10.0)
        assert sim.completion_records == [(0, 1.0, True), (1, 2.0, met)]

    @pytest.mark.parametrize("seed", [11, 42])
    def test_loaded_fuzz_meets_about_half_its_deadlines(self, seed):
        # the criterion-3 run meets 3 of 3,500 deadlines; at 6 tasks/s on a
        # pool of 6 to 12 workers about 58% are met at seeds 11 and 42, so
        # both branches of the deadline rule run, validate=True checking
        # every event
        sim = fuzz_sim(seed, rate=6.0, n_init=10, n_min=6)
        met = [m for _, _, m in sim.completion_records]
        assert len(met) == 3500 and 0.4 < sum(met) / len(met) < 0.75
        assert met == met_by_the_rule(sim)
        snap = sim.snapshot()
        assert (snap.enqueued_total
                == snap.q_work + snap.workers_busy + snap.completed_total
                == 3500)


def recount(sim, queued, arrived):
    """Snapshot with the given task counts and the pool recounted worker by
    worker: a draining worker is busy but not effective."""
    pool = list(statuses(sim).values())
    return Snapshot(
        q_work=queued,
        workers_effective=sum(s in (IDLE, BUSY) for s in pool),
        workers_busy=sum(s in (BUSY, DRAINING) for s in pool),
        workers_starting=pool.count(STARTING),
        workers_draining=pool.count(DRAINING),
        enqueued_total=arrived,
        completed_total=len(sim.completion_records),
    )


def scanned_snapshot(sim):
    """``FarmSim.snapshot`` recounted, between calls to ``advance``, the
    reference for the counts it works out: the tasks arrived are those of
    the batch at or before the clock, once the clock has moved, and the
    queue is those of them neither completed nor held by a busy worker."""
    # a task's id is its position in the batch; the sentinel never arrives
    arrived = {task_id for task_id, time in enumerate(sim._times)
               if time <= sim.clock and sim.clock > 0}
    dispatched = {task_id for task_id, _, _ in sim.completion_records}
    dispatched |= {position for _, kind, _, position in sim._events
                   if kind == sim_module._COMPLETION}
    assert dispatched <= arrived
    return recount(sim, len(arrived - dispatched), len(arrived))


def drive_scaling(warm, n_min, n_init, n_max, service_scale, program, seed,
                  reference=False):
    """Run (action, dt) pairs through request_scale/advance on a validating
    sim, checking the pool counts against a full scan after every call. With
    ``reference``, a tracing ``DispatchReferenceSim`` runs the same program
    in step, and every applied action, snapshot, the trace and the
    completion records must equal the simulator's.

    Returns the statuses of the scale-down victims: "starting" (cancelled),
    "idle" (exited at once) or "busy" (drained)."""
    cfg = single_phase_config(2.0, 60.0, n_min=n_min, n_init=n_init,
                              n_max=n_max, warm_start=warm,
                              latency_lo=1.0, latency_hi=4.0)
    task_rng = np.random.default_rng([seed, 1])
    arrivals = np.cumsum(task_rng.exponential(0.5, size=120))
    tasks = workload_of(
        simple_task(i, float(a),
                    service=float(task_rng.uniform(0.1, service_scale)))
        for i, a in enumerate(arrivals))
    sims = [cls(cfg, np.random.default_rng([seed, 0]), validate=True,
                trace=reference)
            for cls in ((FarmSim, DispatchReferenceSim) if reference
                        else (FarmSim,))]
    for one in sims:
        one.inject_tasks(tasks)
    sim, others = sims[0], sims[1:]
    victims = set()
    for action, dt in program:
        pool = statuses(sim)
        victim = max(w for w, s in pool.items() if s != DRAINING)
        applied = sim.request_scale(action)
        if applied < 0:
            victims.add(pool[victim])
            assert status(sim, victim) == (DRAINING if pool[victim] == BUSY
                                           else None)
        committed = sum(s != DRAINING for s in statuses(sim).values())
        assert n_min <= committed <= n_max
        assert sim.snapshot() == scanned_snapshot(sim)
        for other in others:
            assert other.request_scale(action) == applied
            assert other.snapshot() == sim.snapshot()
        sim.advance(dt)
        assert sim.snapshot() == scanned_snapshot(sim)
        for other in others:
            other.advance(dt)
            assert other.snapshot() == sim.snapshot()
    for other in others:
        assert other.trace == sim.trace
        assert other.completion_records == sim.completion_records
    return victims


scaling_programs = st.lists(
    st.tuples(st.sampled_from((-1, 0, 1)),
              st.floats(min_value=0.05, max_value=6.0)),
    min_size=1, max_size=60)


class TestPoolCounters:
    @given(warm=st.booleans(), n_min=st.integers(1, 2),
           extra=st.integers(0, 2), span=st.integers(0, 3),
           service_scale=st.floats(min_value=0.5, max_value=8.0),
           program=scaling_programs, seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_counters_match_full_scan(self, warm, n_min, extra, span,
                                      service_scale, program, seed):
        drive_scaling(warm, n_min, n_min + extra, n_min + extra + span,
                      service_scale, program, seed)

    def test_driver_reaches_every_scale_down_case(self):
        rng = np.random.default_rng(5)
        victims = set()
        for warm in (False, True):
            for service_scale in (0.5, 6.0):
                program = [(int(rng.integers(-1, 2)),
                            float(rng.uniform(0.05, 6.0)))
                           for _ in range(60)]
                victims |= drive_scaling(warm, 1, 2, 4, service_scale,
                                         program, seed=3)
        assert victims == {STARTING, IDLE, BUSY}

    def test_validate_finds_an_idle_id_still_a_pending_start(self):
        # worker 1 is starting, but the idle list holds it too; the arrival
        # at 0.5 takes worker 0
        sim = make_sim(n_init=1, warm=True)
        sim.request_scale(+1)
        sim._idle.append(1)
        sim.inject_tasks(workload_of([simple_task(0, 0.5)]))
        with pytest.raises(ConservationError,
                           match=r"^idle list holds \[1\], but the started"
                                 r" workers with no completion on the heap are"
                                 r" \[\] at t=0\.5$"):
            sim.advance(1.0)

    def test_validate_finds_a_heap_completion_for_an_idle_worker(self):
        sim = make_sim(n_init=2, warm=True)
        sim.inject_tasks(workload_of([simple_task(0, 0.5)]))
        heapq.heappush(sim._events, (3.0, sim_module._COMPLETION, 1, 0))
        with pytest.raises(ConservationError,
                           match=r"^idle list holds \[1\], but the started"
                                 r" workers with no completion on the heap are"
                                 r" \[\] at t=0\.5$"):
            sim.advance(1.0)

    def test_validate_finds_a_second_completion_of_a_busy_worker(self):
        # worker 0 runs task 0 until 1.5; task 1 arrives at 1.2 for worker 1
        sim = make_sim(n_init=2, warm=True)
        task = simple_task(0, 0.5)
        sim.inject_tasks(workload_of([task, simple_task(1, 1.2)]))
        sim.advance(1.0)
        heapq.heappush(sim._events, (3.0, sim_module._COMPLETION, 0, task))
        with pytest.raises(ConservationError,
                           match=r"^the heap holds completions of workers"
                                 r" \[0, 0, 1\], busy and draining workers"
                                 r" are \[0, 1\] at t=1\.2$"):
            sim.advance(1.0)

    def test_validate_finds_idle_worker_missing_from_idle_list(self):
        sim = make_sim(n_init=2, warm=True)
        sim._idle.remove(1)
        sim.inject_tasks(workload_of([simple_task(0, 0.5)]))
        with pytest.raises(ConservationError, match="idle list"):
            sim.advance(1.0)

    def test_validate_finds_a_draining_id_left_live(self):
        # both workers busy until 10.5 and 10.6; worker 1 drains, but stays
        # in the live list, and worker 0's completion is the next event
        sim = make_sim(n_init=2, warm=True)
        sim.inject_tasks(workload_of([simple_task(0, 0.5, service=10.0),
                                      simple_task(1, 0.6, service=10.0)]))
        sim.advance(1.0)
        assert sim.request_scale(-1) == -1 and sim._draining == {1}
        sim._live.append(1)
        with pytest.raises(ConservationError,
                           match=r"^draining workers \[1\] are among the live"
                                 r" workers \[0, 1\] at t=10\.5$"):
            sim.advance(20.0)

    @pytest.mark.parametrize("corrupt, readies, starts", [
        (lambda sim: sim._events.clear(), "[]", "[(1, 1.0)]"),
        (lambda sim: sim._starts.__setitem__(0, 2.0), "[(1, 1.0)]",
         "[(1, 2.0)]")], ids=["missing", "another-time"])
    def test_validate_finds_a_pending_start_off_its_ready_event(
            self, corrupt, readies, starts):
        # worker 1 is ready at exactly 1.0; the arrival at 0.5 is the first
        # event checked
        sim = make_sim(n_init=1, warm=True, latency_lo=1.0, latency_hi=1.0)
        sim.request_scale(+1)
        corrupt(sim)
        sim.inject_tasks(workload_of([simple_task(0, 0.5)]))
        with pytest.raises(ConservationError,
                           match=rf"^the heap holds ready events"
                                 rf" {re.escape(readies)}, but the pending"
                                 rf" starts are {re.escape(starts)} at"
                                 rf" t=0\.5$"):
            sim.advance(0.75)


class TestDispatchReference:
    @given(warm=st.booleans(), n_min=st.integers(1, 2),
           extra=st.integers(0, 2), span=st.integers(0, 3),
           service_scale=st.floats(min_value=0.5, max_value=8.0),
           program=scaling_programs, seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_direct_handoff_matches_dispatch(self, warm, n_min, extra, span,
                                             service_scale, program, seed):
        drive_scaling(warm, n_min, n_min + extra, n_min + extra + span,
                      service_scale, program, seed, reference=True)

    def test_matches_dispatch_in_every_scale_down_case(self):
        rng = np.random.default_rng(5)
        victims = set()
        for warm in (False, True):
            for service_scale in (0.5, 6.0):
                program = [(int(rng.integers(-1, 2)),
                            float(rng.uniform(0.05, 6.0)))
                           for _ in range(60)]
                victims |= drive_scaling(warm, 1, 2, 4, service_scale,
                                         program, seed=3, reference=True)
        assert victims == {STARTING, IDLE, BUSY}

    @given(slots=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                          min_size=1, max_size=40),
           program=st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                                      st.integers(1, 4)),
                            min_size=1, max_size=30),
           warm=st.booleans(), n_init=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_dispatch_under_ties(self, slots, program, warm, n_init):
        # arrivals tie on the 0.5 grid; ids follow the slots, then the batch
        # is renumbered in (arrival, id) order
        tasks = in_arrival_order(simple_task(i, 0.5 * a, service=0.5 * s)
                                 for i, (a, s) in enumerate(slots))
        sim, reference = (grid_sim(warm, n_init, 7, cls)
                          for cls in (FarmSim, DispatchReferenceSim))
        sim.inject_tasks(tasks)
        reference.inject_tasks(tasks)
        for action, dt in [*program, (0, 200)]:
            assert sim.request_scale(action) == reference.request_scale(action)
            sim.advance(0.5 * dt)
            reference.advance(0.5 * dt)
            assert sim.snapshot() == reference.snapshot()
        assert sim.trace == reference.trace
        assert sim.completion_records == reference.completion_records
        assert len(sim.completion_records) == len(tasks)

    @given(slots=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                          max_size=40),
           program=st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                                      st.integers(1, 4)),
                            min_size=1, max_size=30),
           warm=st.booleans(), n_init=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_snapshot_matches_the_reference_recount_at_every_step(
            self, slots, program, warm, n_init):
        # untraced and unvalidated, as an episode runs; on the 0.5 grid the
        # step ends tie with arrivals, completions and readies, so the
        # bisect's key at the end of a step decides which tasks have arrived
        tasks = in_arrival_order(simple_task(i, 0.5 * a, service=0.5 * s)
                                 for i, (a, s) in enumerate(slots))
        cfg = single_phase_config(2.0, 60.0, n_min=1, n_init=n_init, n_max=4,
                                  warm_start=warm, latency_lo=1.0,
                                  latency_hi=1.0)
        sim, reference = (cls(cfg, np.random.default_rng(7))
                          for cls in (FarmSim, DispatchReferenceSim))
        sim.inject_tasks(tasks)
        reference.inject_tasks(tasks)
        assert sim.snapshot() == reference.snapshot()
        for action, dt in [*program, (0, 200)]:
            assert sim.request_scale(action) == reference.request_scale(action)
            assert sim.snapshot() == reference.snapshot()
            sim.advance(0.5 * dt)
            reference.advance(0.5 * dt)
            assert sim.snapshot() == reference.snapshot()
            assert sim.enqueued_total == reference.arrived
        assert sim.completion_records == reference.completion_records


class TestBacklogInvariant:
    def test_validate_finds_a_task_lost_from_the_count(self):
        sim = make_sim(n_init=2, warm=True)
        sim.inject_tasks(workload_of([simple_task(0, 0.5),
                                      simple_task(1, 5.0)]))
        sim.advance(2.0)  # task 0 completed at 1.5
        sim.completion_records.pop()
        with pytest.raises(ConservationError,
                           match=r"enqueued != queued \+ busy \+ completed in"
                                 r" Snapshot\(.*enqueued_total=2"):
            sim.advance(5.0)

    def test_validate_finds_queued_task_beside_idle_worker(self):
        # workers 0 and 1 idle but lost from the idle list, so both arrivals
        # queue; worker 2, ready at 1.0, takes one and the other stays queued
        sim = make_sim(n_init=2, warm=True, latency_lo=1.0, latency_hi=1.0)
        sim._idle.clear()
        sim.request_scale(+1)
        sim.inject_tasks(workload_of([simple_task(0, 0.5),
                                      simple_task(1, 0.6)]))
        with pytest.raises(ConservationError,
                           match=r"^1 tasks queued while workers \[0, 1\] are"
                                 r" idle at t=1\.0$"):
            sim.advance(2.0)


class TestQueueingBehaviour:
    def test_stable_queue_stays_bounded(self):
        # rho = 2 * 1.0 / 4 = 0.5 < 1
        cfg = single_phase_config(2.0, 2000.0, n_init=4, n_max=4, n_min=4,
                                  warm_start=True)
        sim = FarmSim(cfg, np.random.default_rng(0))
        sim.inject_tasks(constant_service_tasks(2.0, 2000.0, 1.0,
                                                spacing="poisson"))
        peaks = []
        for _ in range(100):
            sim.advance(20.0)
            peaks.append(sim.snapshot().q_work)
        assert max(peaks[10:]) < 40

    def test_overloaded_queue_grows_linearly(self):
        # rho = 6 * 1.0 / 3 = 2: growth slope = lambda - N/T_s = 3 tasks/s
        cfg = single_phase_config(6.0, 1000.0, n_init=3, n_max=3, n_min=3,
                                  warm_start=True)
        sim = FarmSim(cfg, np.random.default_rng(0))
        sim.inject_tasks(constant_service_tasks(6.0, 1000.0, 1.0,
                                                spacing="poisson"))
        sim.advance(1000.0)
        assert sim.snapshot().q_work == pytest.approx(3.0 * 1000.0, rel=0.10)


class TestStaticRuns:
    """Fixed cold pools, through acceptance criterion 5's static run."""

    def _workload(self):
        return constant_service_tasks(5.0, 60.0, 1.0)

    def test_init_overhead_grows_with_pool(self, ep_config):
        overheads = [static_run(ep_config, self._workload(), n)[1]
                     for n in (1, 4, 8)]
        assert overheads == sorted(overheads)
        assert 5.0 <= overheads[0] <= 8.0
        assert 40.0 <= overheads[2] <= 64.0

    def test_runtime_improves_with_workers(self, ep_config):
        runtimes = [static_run(ep_config, self._workload(), n)[0]
                    for n in (1, 8)]
        assert runtimes[1] < runtimes[0]
