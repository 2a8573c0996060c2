"""Event-driven farm simulator: startup, conservation, scaling, static runs."""

import bisect
import heapq
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale import sim as sim_module
from farmscale.core import TaskSpec, deadline_met
from farmscale.sim import (BUSY, DRAINING, IDLE, STARTING, ConservationError,
                           FarmSim, Snapshot, static_run,
                           static_scaling_experiment)
from tests.conftest import (constant_service_tasks, fuzz_sim,
                            single_phase_config)


class DispatchReferenceSim(FarmSim):
    """The simulator before tasks were handed straight to their workers and
    queued arrivals stopped being events: every arrival is an event and
    joins an explicit queue, every freed or ready worker joins the idle
    list, and ``_dispatch`` pairs the two. Its own loop merges a deque of
    pending arrivals with the event heap, and its snapshot is a recount of
    its own queue and the statuses. Only the pool, scaling and the trace
    record are shared with ``FarmSim``. Kept as the reference the span queue
    and the direct handoff must match event for event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending, self.queue, self.arrived = deque(), deque(), 0

    def inject_tasks(self, tasks):
        self.pending.extend(sorted((t.arrival_time, sim_module._ARRIVAL,
                                    t.task_id, t) for t in tasks))

    def advance(self, dt):
        end = self.clock + dt
        pending, events = self.pending, self._events
        while True:
            if pending and (not events or pending[0] < events[0]):
                if pending[0][0] > end:
                    break
                self.clock, _, _, task = pending.popleft()
                self._on_arrival(task)
            elif events and events[0][0] <= end:
                self.clock, kind, eid, task = heapq.heappop(events)
                if kind == sim_module._COMPLETION:
                    self._on_completion(eid, task)
                else:
                    self._on_worker_ready(eid)
            else:
                break
        self.clock = end

    def snapshot(self):
        return recount(self, len(self.queue), self.arrived)

    def _on_arrival(self, task):
        self.arrived += 1
        self.queue.append(task)
        if self.trace is not None:
            self._record("arrival", task_id=task.task_id)
        self._dispatch()

    def _on_completion(self, worker_id, task):
        met = self.clock - task.arrival_time <= task.deadline
        self.completion_records.append((task, self.clock, met))
        if self.trace is not None:
            self._record("completion", task_id=task.task_id,
                         worker_id=worker_id)
        if self.workers[worker_id] == DRAINING:
            del self.workers[worker_id]
            if self.trace is not None:
                self._record("worker_exit", worker_id=worker_id)
        else:
            self.workers[worker_id] = IDLE
            bisect.insort(self._idle, worker_id)
            self._dispatch()

    def _on_worker_ready(self, worker_id):
        if self.workers.get(worker_id) != STARTING:
            return  # cancelled by a scale-down before becoming ready
        self._starts.popleft()
        self.workers[worker_id] = IDLE
        bisect.insort(self._idle, worker_id)
        if self.trace is not None:
            self._record("worker_ready", worker_id=worker_id)
        self._dispatch()

    def _dispatch(self):
        while self.queue and self._idle:
            worker_id = self._idle.pop(0)
            task = self.queue.popleft()
            self.workers[worker_id] = BUSY
            heapq.heappush(self._events, (self.clock + task.service_time,
                                          sim_module._COMPLETION, worker_id,
                                          task))
            if self.trace is not None:
                self._record("dispatch", task_id=task.task_id,
                             worker_id=worker_id)


def ready_times(sim):
    """{worker id: ready time} of the starting workers, read from the ready
    events left in the event heap; a cancelled start's event stays there but
    names no worker."""
    return {wid: t for t, kind, wid, _ in sim._events
            if kind == sim_module._WORKER_READY
            and sim.workers.get(wid) == STARTING}


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
        assert list(sim.workers.values()) == [IDLE] * 4
        assert not sim._events  # no start pending

    def test_zero_latency_degenerate(self):
        sim = make_sim(n_init=1, latency_lo=0.0, latency_hi=0.0)
        sim.advance(1e-9)
        assert sim.snapshot().workers_effective == 1

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_advance_rejects_a_step_not_positive_and_finite(self, dt):
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks([simple_task(0, 0.5)])
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            sim.advance(dt)
        assert sim.clock == 0.0 and sim.snapshot() == scanned_snapshot(sim)


class TestInjection:
    def test_duplicate_task_id_rejected(self):
        # an id seen before can only come in a second batch, which is
        # refused whatever it holds, after an empty first batch too
        for first in ([simple_task(1, 0.5)], []):
            sim = make_sim()
            sim.inject_tasks(first)
            for batch in ([simple_task(1, 0.7)], [simple_task(2, 0.7)], []):
                with pytest.raises(ValueError, match="one batch of tasks"):
                    sim.inject_tasks(batch)
                assert sim._tasks == [*first, None]
                assert sim._times == [*(t.arrival_time for t in first),
                                      math.inf]

    def test_enqueued_total_counts_arrived_tasks(self):
        sim = make_sim(warm=True)
        sim.inject_tasks([simple_task(i, 0.1 * (i + 1)) for i in range(5)])
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
        sim.inject_tasks([simple_task(i, float(a), service=2.0)
                          for i, a in enumerate(arrivals)])
        for action, dt in program:
            base = max([sim.clock, *ready_times(sim).values()])
            if sim.request_scale(action) > 0:
                new = max(sim.workers)
                assert sim.workers[new] == STARTING
                assert ready_times(sim)[new] == base + ref.uniform(lo, hi)
            assert list(sim._starts) == sorted(ready_times(sim).values())
            sim.advance(dt)


class TestMergedArrivals:
    @given(slots=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                          min_size=1, max_size=40),
           program=st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                                      st.integers(1, 4)),
                            min_size=1, max_size=30),
           warm=st.booleans(), n_init=st.integers(1, 3),
           shuffler=st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_batches_in_any_order_match_one_sorted_batch(
            self, slots, program, warm, n_init, shuffler):
        # ids follow the slots, not the arrival times, and arrivals tie on
        # the 0.5 grid, so the (time, id) order is not the list order
        tasks = [simple_task(i, 0.5 * a, service=0.5 * s)
                 for i, (a, s) in enumerate(slots)]
        shuffled = list(tasks)
        shuffler.shuffle(shuffled)
        sims = grid_sim(warm, n_init, 7), grid_sim(warm, n_init, 7)
        sims[0].inject_tasks(shuffled)
        sims[1].inject_tasks(sorted(
            tasks, key=lambda t: (t.arrival_time, t.task_id)))
        for action, dt in [*program, (0, 200)]:
            for sim in sims:
                sim.request_scale(action)
                sim.advance(0.5 * dt)
            assert sims[0].enqueued_total == sims[1].enqueued_total
        assert sims[0].trace == sims[1].trace
        assert sims[0].completion_records == sims[1].completion_records
        assert len(sims[0].completion_records) == len(tasks)

    def test_tie_order_at_one_clock(self):
        sim = grid_sim(warm=True, n_init=1, seed=0)
        sim.request_scale(+1)  # worker 1 ready at exactly 1.0
        sim.inject_tasks([simple_task(3, 3.0), simple_task(1, 1.0),
                          simple_task(0, 0.0), simple_task(2, 3.0)])
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
            # tied arrivals in ascending task id, whatever the inject order
            (3.0, "arrival", 2, -1),
            (3.0, "dispatch", 2, 0),
            (3.0, "arrival", 3, -1),
            (3.0, "dispatch", 3, 1),
            (4.0, "completion", 2, 0),
            (4.0, "completion", 3, 1),
        ]

    def test_duplicate_in_batch_schedules_nothing(self):
        sim = make_sim()
        with pytest.raises(ValueError, match="duplicate task_id 2"):
            sim.inject_tasks([simple_task(2, 0.5), simple_task(2, 0.7)])
        assert sim._tasks == [None] and sim._times == [math.inf]
        sim.inject_tasks([simple_task(2, 0.5)])  # still takes its one batch
        sim.advance(1.0)
        assert sim.snapshot().enqueued_total == 1


class TestInjectionPaths:
    """``inject_tasks`` keeps a batch whose ids rise and whose times never
    fall as it comes, and sorts a copy of any other by (arrival time, task
    id); both paths must schedule the same run."""

    @given(slots=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)),
                          min_size=1, max_size=24),
           shuffler=st.randoms(use_true_random=False),
           warm=st.booleans(), n_init=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_every_permutation_runs_as_the_sorted_batch(self, slots, shuffler,
                                                        warm, n_init):
        # few distinct times, so arrivals tie, and ids that are neither
        # contiguous nor in list order, so each tie is decided by the ids
        ids = list(range(0, 3 * len(slots), 3))
        shuffler.shuffle(ids)
        tasks = [simple_task(i, 0.5 * a, service=0.5 * s)
                 for i, (a, s) in zip(ids, slots)]
        ordered = sorted(tasks, key=lambda t: (t.arrival_time, t.task_id))
        permuted = list(tasks)
        shuffler.shuffle(permuted)
        given_order = list(permuted)
        sims = grid_sim(warm, n_init, 7), grid_sim(warm, n_init, 7)
        sims[0].inject_tasks(ordered)  # in order: kept as it comes
        sims[1].inject_tasks(permuted)  # sorted, unless in order by chance
        assert permuted == given_order  # the caller's list is not sorted
        for sim in sims:
            assert sim._tasks == [*ordered, None]
            assert sim._times == [*(t.arrival_time for t in ordered),
                                  math.inf]
            sim.advance(200.0)
        assert sims[0].trace == sims[1].trace
        assert sims[0].completion_records == sims[1].completion_records
        assert len(sims[0].completion_records) == len(tasks)

    @given(slots=st.lists(st.integers(0, 6), min_size=2, max_size=24),
           pick=st.integers(1, 23), in_order=st.booleans(),
           shuffler=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_a_duplicate_id_schedules_nothing_on_either_path(
            self, slots, pick, in_order, shuffler):
        tasks = [simple_task(i, 0.5 * a) for i, a in enumerate(sorted(slots))]
        # a task takes the id of the one before it: in order, the times and
        # the ids still never fall
        k = 1 + pick % (len(tasks) - 1)
        first = k - 1
        tasks[k] = tasks[k]._replace(task_id=first)
        if not in_order:
            shuffler.shuffle(tasks)
        sim = make_sim(n_init=2, warm=True)
        with pytest.raises(ValueError, match=f"^duplicate task_id {first}$"):
            sim.inject_tasks(tasks)
        assert sim._tasks == [None] and sim._times == [math.inf]
        sim.advance(10.0)
        assert sim.snapshot() == recount(sim, 0, 0)
        sim.inject_tasks([simple_task(0, 0.5)])  # still takes its one batch
        sim.advance(1.0)
        assert sim.enqueued_total == 1


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
        sim.inject_tasks([simple_task(0, 0.5, service=10.0)])
        sim.advance(1.0)  # worker picks the task up
        assert list(sim.workers.values()) == [BUSY]
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
        assert sorted(sim.workers) == [0, 1]
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
        assert set(sim.workers) == {0, 1}


class TestConservationAndDeterminism:
    def _run_fuzz(self, seed, trace=False):
        cfg = single_phase_config(8.0, 300.0, n_init=2, n_max=12,
                                  warm_start=True)
        policy_rng = np.random.default_rng([seed, 77])
        task_rng = np.random.default_rng([seed, 78])
        sim = FarmSim(cfg, np.random.default_rng([seed, 79]),
                      validate=True, trace=trace)
        arrivals = np.cumsum(task_rng.exponential(1 / 8.0, size=1500))
        sim.inject_tasks([
            simple_task(i, float(a),
                        service=float(task_rng.uniform(0.05, 2.5)))
            for i, a in enumerate(arrivals)])
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
        fuzz = fuzz_sim(11).completion_records  # the criterion-3 run
        met = [m for _, _, m in fuzz]
        assert len(met) == 3500 and 0 < sum(met) < len(met)
        # one worker, three tasks at 0 with deadline 2: latencies 1, 2, 3
        sim = make_sim(n_init=1, warm=True)
        sim.inject_tasks([simple_task(i, 0.0) for i in range(3)])
        sim.advance(10.0)
        boundary = sim.completion_records
        assert [m for _, _, m in boundary] == [True, True, False]
        for records in (fuzz, boundary):
            assert [m for _, _, m in records] == [
                deadline_met(task.arrival_time, time, task.deadline)
                for task, time, _ in records]

    @pytest.mark.parametrize("seed", [11, 42])
    def test_loaded_fuzz_meets_about_half_its_deadlines(self, seed):
        # the criterion-3 run meets 3 of 3,500 deadlines; at 6 tasks/s on a
        # pool of 6 to 12 workers about 58% are met at seeds 11 and 42, so
        # both branches of the deadline rule run, validate=True checking
        # every event
        sim = fuzz_sim(seed, rate=6.0, n_init=10, n_min=6)
        records = sim.completion_records
        met = [m for _, _, m in records]
        assert len(met) == 3500 and 0.4 < sum(met) / len(met) < 0.75
        assert met == [deadline_met(task.arrival_time, time, task.deadline)
                       for task, time, _ in records]
        snap = sim.snapshot()
        assert (snap.enqueued_total
                == snap.q_work + snap.workers_busy + snap.completed_total
                == 3500)


def recount(sim, queued, arrived):
    """Snapshot with the given task counts and the pool recounted worker by
    worker: a draining worker is busy but not effective."""
    statuses = sim.workers.values()
    return Snapshot(
        q_work=queued,
        workers_effective=sum(s in (IDLE, BUSY) for s in statuses),
        workers_busy=sum(s in (BUSY, DRAINING) for s in statuses),
        workers_starting=sum(s == STARTING for s in statuses),
        workers_draining=sum(s == DRAINING for s in statuses),
        enqueued_total=arrived,
        completed_total=len(sim.completion_records),
    )


def scanned_snapshot(sim):
    """``FarmSim.snapshot`` recounted, between calls to ``advance``, the
    reference for the counts it works out: the tasks arrived are those of
    the batch at or before the clock, once the clock has moved, and the
    queue is those of them neither completed nor held by a busy worker."""
    arrived = {task.task_id for time, task in zip(sim._times, sim._tasks)
               if time <= sim.clock and sim.clock > 0}
    dispatched = {task.task_id for task, _, _ in sim.completion_records}
    dispatched |= {task.task_id for _, kind, _, task in sim._events
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
    tasks = [simple_task(i, float(a),
                         service=float(task_rng.uniform(0.1, service_scale)))
             for i, a in enumerate(arrivals)]
    sims = [cls(cfg, np.random.default_rng([seed, 0]), validate=True,
                trace=reference)
            for cls in ((FarmSim, DispatchReferenceSim) if reference
                        else (FarmSim,))]
    for one in sims:
        one.inject_tasks(tasks)
    sim, others = sims[0], sims[1:]
    victims = set()
    for action, dt in program:
        victim = max(w for w, s in sim.workers.items() if s != DRAINING)
        status = sim.workers[victim]
        applied = sim.request_scale(action)
        if applied < 0:
            victims.add(status)
            if status == BUSY:
                assert sim.workers[victim] == DRAINING
            else:
                assert victim not in sim.workers
        committed = sum(s != DRAINING for s in sim.workers.values())
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

    def test_validate_finds_start_deque_disagreeing_with_starting_workers(
            self):
        sim = make_sim(n_init=2, warm=True)
        sim.inject_tasks([simple_task(0, 0.5)])
        sim._starts.append(3.0)  # a pending start with no starting worker
        with pytest.raises(ConservationError,
                           match="1 pending starts, but the starting"
                                 " workers are not the newest 1 of"):
            sim.advance(1.0)

    def test_validate_finds_start_older_than_a_started_worker(self):
        sim = make_sim(n_init=2, warm=True)
        sim.workers[0] = STARTING  # worker 1 stays idle
        sim._idle.remove(0)
        sim._starts.append(9.0)
        sim.inject_tasks([simple_task(0, 0.5)])
        with pytest.raises(ConservationError, match="1 pending starts, but the"
                                                    " starting workers are not"
                                                    " the newest 1 of"):
            sim.advance(1.0)

    def test_validate_finds_a_second_completion_of_a_busy_worker(self):
        # worker 0 runs task 0 until 1.5; task 1 arrives at 1.2 for worker 1
        sim = make_sim(n_init=2, warm=True)
        task = simple_task(0, 0.5)
        sim.inject_tasks([task, simple_task(1, 1.2)])
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
        sim.inject_tasks([simple_task(0, 0.5)])
        with pytest.raises(ConservationError, match="idle list"):
            sim.advance(1.0)


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
        tasks = [simple_task(i, 0.5 * a, service=0.5 * s)
                 for i, (a, s) in enumerate(slots)]
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
        tasks = [simple_task(i, 0.5 * a, service=0.5 * s)
                 for i, (a, s) in enumerate(slots)]
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
        sim.inject_tasks([simple_task(0, 0.5), simple_task(1, 5.0)])
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
        sim.inject_tasks([simple_task(0, 0.5), simple_task(1, 0.6)])
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
    def _workload(self):
        return constant_service_tasks(5.0, 60.0, 1.0)

    def test_init_overhead_grows_with_pool(self, ep_config):
        res, _ = static_scaling_experiment(ep_config, self._workload(),
                                           (1, 4, 8))
        overheads = [res[n].init_overhead for n in (1, 4, 8)]
        assert overheads == sorted(overheads)
        assert 5.0 <= overheads[0] <= 8.0
        assert 40.0 <= overheads[2] <= 64.0

    def test_runtime_improves_with_workers(self, ep_config):
        res, speedups = static_scaling_experiment(ep_config, self._workload(),
                                                  (1, 8))
        assert res[8].runtime < res[1].runtime
        assert speedups[8] > 1.0
        assert speedups[1] == pytest.approx(1.0)

    def test_one_static_run_per_pool_size(self, ep_config, monkeypatch):
        calls = []

        def counting_run(config, workload, n_fixed, rng_seed=0):
            calls.append(n_fixed)
            return static_run(config, workload, n_fixed, rng_seed)

        monkeypatch.setattr(sim_module, "static_run", counting_run)
        static_scaling_experiment(ep_config, self._workload(), (1, 2, 4))
        assert calls == [1, 2, 4]

    def test_rejects_empty_pool(self, ep_config):
        with pytest.raises(ValueError):
            static_run(ep_config, self._workload(), 0)

    def test_rejects_a_workload_without_tasks(self, ep_config, monkeypatch):
        built = []
        monkeypatch.setattr(sim_module, "FarmSim",
                            lambda *args, **kwargs: built.append(args))
        for workload in ([], iter([])):
            with pytest.raises(ValueError,
                               match="^the workload has no tasks$"):
                static_run(ep_config, workload, 2)
        assert built == []  # refused before any simulator is built

    def test_reads_an_iterator_workload_once(self, ep_config):
        tasks = self._workload()
        assert (static_run(ep_config, iter(tasks), 2)
                == static_run(ep_config, tasks, 2))
        assert (static_scaling_experiment(ep_config, iter(tasks), (2, 4))
                == static_scaling_experiment(ep_config, tasks, (2, 4)))
