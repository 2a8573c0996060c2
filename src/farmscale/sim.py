"""Virtual-time discrete-event simulator of the Emitter/Worker/Collector farm.

Events execute in time order with a fixed tie-break (completion < arrival <
worker-ready, then ascending id) so that identical (config, workload, seed)
always produce bitwise-identical traces. The emitter and collector are
zero-delay: arriving tasks land in the worker queue instantly and completed
tasks leave the farm at once. The simulator therefore keeps no input,
result or output queue; the env reports those observation fields as 0.

A simulator takes one batch of tasks, kept as one list of arrivals sorted by
(time, task id) and ended by a sentinel that never arrives. Workers take
tasks first come, first served in that order, so the tasks dispatched are a
prefix of the list and the worker queue is a span of it: from ``_next``, the
first task not dispatched, to the last arrival before the current event. The
event heap holds only completions and worker-ready events, about one per
worker. Each event costs one heap operation. ``advance`` only peeks at the
root, and the handler of a heap event takes its own event off: with
``heapreplace`` when it starts a task on the freed or ready worker, whose
completion takes the event's place, and with ``heappop`` otherwise. An
arrival event pushes its task's completion. Between events the backlog
invariant holds: while the queue is non-empty, no live worker is idle. So an
arrival is an event only while some worker is idle, and then it is the head
of the list and starts at once on the lowest idle worker id, the same
tie-break as a scan over the pool. Under backlog arrivals are not events: a
completion gives its worker the head of the list if that task arrived
strictly before it, a worker that becomes ready takes it if it arrived at or
before that moment (the tie-break above), and otherwise the worker goes idle
and arrivals are events again. The enqueue count is one bisect of the list
at the end of each ``advance``; in trace mode the arrivals passed over are
written to the trace in merged order, before the next event that follows
them.

The pool is one map from worker id to status, in start order: starting,
idle, busy, or draining (busy, and leaving when its task completes). Only
busy workers ever drain: a starting scale-down victim is cancelled and an
idle one exits at once. Pool counts are worked out from the statuses when
asked for. The idle workers are kept as an ascending list of their ids.
Startup is sequential and a scale-down takes the newest worker, so the
starting workers are always the newest ones, and their ready times are a
deque of pending starts, oldest first: a new start queues behind the last of
them. Validate mode checks that, the invariant, the idle list, one
completion on the heap per busy or draining worker and the conservation
identity after every event. The task counts come from three values alone:
the completion records, ``_next`` and the enqueue count.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import count, islice

import numpy as np

from .core import ACTIONS, as_action

# event kind priorities (tie-break after time)
_COMPLETION = 0
_ARRIVAL = 1
_WORKER_READY = 2
# ends every arrival list: it never arrives, so no read of the head checks
# the list's length
_END = (math.inf, _ARRIVAL, -1, None)

STARTING = "starting"
IDLE = "idle"
BUSY = "busy"
DRAINING = "draining"  # busy, and exits when its task completes


@dataclass
class Snapshot:
    q_work: int
    workers_effective: int
    workers_busy: int
    workers_starting: int
    workers_draining: int
    enqueued_total: int
    completed_total: int


class ConservationError(AssertionError):
    pass


class FarmSim:
    """Single-owner event-driven farm state; one instance per episode."""

    def __init__(self, config, rng: np.random.Generator, validate: bool = False,
                 trace: bool = False):
        self.config = config
        self.rng = rng
        self.validate = validate
        self.clock = 0.0
        self.workers: dict[int, str] = {}  # id -> status, in start order
        self.completion_records = []  # (task, completion_time, met)
        self._events = []  # (time, kind, id, payload): completions, readies
        self._arrivals = [_END]  # (time, _ARRIVAL, task_id, task), sorted
        self._next = 0  # index of the first arrival not yet dispatched
        self._traced = 0  # arrivals written to the trace so far
        self._injected = False
        self.enqueued_total = 0  # arrivals up to the end of the last advance
        self._ids = count()  # worker ids, never reused
        self._idle = []  # ids of the idle workers, ascending
        self._starts = deque()  # pending starts' ready times, oldest first
        self.trace = [] if trace else None

        if config.warm_start:
            # Initial pool brought up before the episode clock starts, the
            # way a farm deployment completes its startup handshake before
            # the emitter opens the stream.  Only mid-episode scale-ups pay
            # the sequential startup latency.
            self._idle = list(islice(self._ids, config.n_init))
            self.workers = dict.fromkeys(self._idle, IDLE)
        else:
            for _ in range(config.n_init):
                self._schedule_start()

    # -- scheduling helpers -------------------------------------------------

    def _schedule_start(self):
        # sequential startup: queue behind the newest pending start
        base = self._starts[-1] if self._starts else self.clock
        # Generator.uniform's formula on one double: the same bits and
        # generator state, without its argument handling
        lo, hi = self.config.latency_lo, self.config.latency_hi
        ready_at = base + (lo + (hi - lo) * self.rng.random())
        wid = next(self._ids)
        self.workers[wid] = STARTING
        self._starts.append(ready_at)
        heappush(self._events, (ready_at, _WORKER_READY, wid, None))
        return wid

    def _record(self, kind, task_id=-1, worker_id=-1):
        """Append to the event trace; callers check ``self.trace`` first."""
        self.trace.append((self.clock, kind, task_id, worker_id))

    # -- public operations --------------------------------------------------

    def inject_tasks(self, tasks):
        """Schedule the arrivals of ``tasks``, this simulator's one batch,
        given in any order. Arrivals run in (arrival time, task id) order.
        A second batch, or a task id repeated in the batch, raises
        ``ValueError`` and schedules nothing."""
        if self._injected:
            raise ValueError("a simulator takes one batch of tasks")
        batch = [(t.arrival_time, _ARRIVAL, t.task_id, t) for t in tasks]
        if len({a[2] for a in batch}) < len(batch):
            seen = set()
            for _, _, task_id, _ in batch:
                if task_id in seen:
                    raise ValueError(f"duplicate task_id {task_id}")
                seen.add(task_id)
        batch.sort()  # ids are unique, so the tasks themselves never compare
        batch.append(_END)
        self._arrivals = batch
        self._injected = True

    def request_scale(self, delta: int) -> int:
        """Apply a unit scaling request, clipped to pool bounds.

        Scale-up queues a new worker behind any pending start (sequential
        startup). Scale-down drains the most-recently-started worker: a
        pending start is cancelled, an idle worker exits now, a busy worker
        exits when its task completes. A delta that is not an integer in
        ``ACTIONS`` raises ``ValueError`` before anything changes.
        """
        step = as_action(delta)
        if step is None:
            raise ValueError(f"scaling actions are unit steps in {ACTIONS},"
                             f" got {delta!r}")
        workers = self.workers
        committed = len(workers) - list(workers.values()).count(DRAINING)
        applied = max(min(step, self.config.n_max - committed),
                      self.config.n_min - committed)
        if applied > 0:
            wid = self._schedule_start()
            if self.trace is not None:
                self._record("scale_up", worker_id=wid)
        elif applied < 0:
            # ids are inserted in ascending order and never reused, so the
            # last non-draining id is the most recently started worker
            victim = next(w for w in reversed(workers)
                          if workers[w] != DRAINING)
            status = workers[victim]
            if status == STARTING:
                del workers[victim]  # its ready event becomes stale
                self._starts.pop()
            elif status == IDLE:
                del workers[victim]
                self._idle.pop()  # the newest worker has the highest idle id
            else:
                workers[victim] = DRAINING
            if self.trace is not None:
                self._record("scale_down", worker_id=victim)
        return applied

    def advance(self, dt: float) -> None:
        """Execute all events in (clock, clock + dt]. A ``dt`` that is not
        positive and finite raises ``ValueError``."""
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        end = self.clock + dt
        events, arrivals, idle = self._events, self._arrivals, self._idle
        # bound per call, not per instance, so wrappers on the class apply
        on_arrival, on_completion, on_ready = (
            self._on_arrival, self._on_completion, self._on_worker_ready)
        check = self._check_conservation if self.validate else None
        while True:
            # with a worker idle the queue is empty: the next arrival is an
            # event, and it is the head of the list
            if idle and (not events or arrivals[self._next] < events[0]):
                event = arrivals[self._next]
                if event[0] > end:
                    break
                self.clock = event[0]
                on_arrival(event[3])
            elif events and (event := events[0])[0] <= end:
                # the handler takes its event off the heap
                self.clock, kind, eid, task = event
                if kind == _COMPLETION:
                    on_completion(eid, task)
                else:
                    on_ready(eid)
            else:
                break
            if check is not None:
                check(event)
        self.clock = end
        self.enqueued_total = bisect_right(arrivals, (end, _WORKER_READY),
                                           self._next)
        if self.trace is not None:
            self._record_arrivals((end, _WORKER_READY))

    def snapshot(self) -> Snapshot:
        return self._snapshot(self.enqueued_total)

    def _snapshot(self, arrived: int) -> Snapshot:
        """The pool and task counts, with ``arrived`` tasks arrived."""
        statuses = list(self.workers.values())
        starting = statuses.count(STARTING)
        draining = statuses.count(DRAINING)
        return Snapshot(
            q_work=arrived - self._next,
            workers_effective=len(statuses) - starting - draining,
            workers_busy=statuses.count(BUSY) + draining,
            workers_starting=starting,
            workers_draining=draining,
            enqueued_total=arrived,
            completed_total=len(self.completion_records),
        )

    def _record_arrivals(self, key):
        """Trace the arrivals not traced yet whose keys are at most ``key``;
        callers check ``self.trace`` first."""
        first, self._traced = self._traced, bisect_right(
            self._arrivals, key, self._traced)
        self.trace.extend((time, "arrival", task_id, -1) for time, _, task_id, _
                          in self._arrivals[first:self._traced])

    # -- event handlers -----------------------------------------------------
    # Each keeps the backlog invariant: a worker goes idle only when the head
    # of the list has not arrived, and an arrival is an event only while a
    # worker is idle. Starting a task is written out in each of them, as this
    # is the per-task path. A heap event is still the heap's root when its
    # handler runs, and the handler takes it off.

    def _on_arrival(self, task):
        # a worker is idle, so the queue is empty and ``task`` is its head
        self._next += 1
        wid = self._idle.pop(0)
        self.workers[wid] = BUSY
        heappush(self._events, (self.clock + task.service_time, _COMPLETION,
                                wid, task))
        if self.trace is not None:
            self._record_arrivals((self.clock, _ARRIVAL, task.task_id, task))
            self._record("dispatch", task_id=task.task_id, worker_id=wid)

    def _on_completion(self, worker_id, task):
        # a busy worker leaves the pool only here, so no completion is stale
        clock = self.clock
        met = clock - task.arrival_time <= task.deadline
        self.completion_records.append((task, clock, met))
        trace = self.trace
        if trace is not None:
            self._record_arrivals((clock, _COMPLETION))
            self._record("completion", task_id=task.task_id,
                         worker_id=worker_id)
        if self.workers[worker_id] == DRAINING:
            heappop(self._events)
            del self.workers[worker_id]
            if trace is not None:
                self._record("worker_exit", worker_id=worker_id)
        elif (head := self._arrivals[self._next])[0] < clock:
            # the head arrived before this completion: the queue's first task
            self._next += 1
            queued = head[3]
            heapreplace(self._events, (clock + queued.service_time,
                                       _COMPLETION, worker_id, queued))
            if trace is not None:
                self._record("dispatch", task_id=queued.task_id,
                             worker_id=worker_id)
        else:
            heappop(self._events)
            self.workers[worker_id] = IDLE
            insort(self._idle, worker_id)

    def _on_worker_ready(self, worker_id):
        if worker_id not in self.workers:
            heappop(self._events)
            return  # cancelled by a scale-down before becoming ready
        self._starts.popleft()  # the oldest pending start is this one
        trace = self.trace
        if trace is not None:
            self._record_arrivals((self.clock, _WORKER_READY))
            self._record("worker_ready", worker_id=worker_id)
        if (head := self._arrivals[self._next])[0] <= self.clock:
            self._next += 1
            task = head[3]
            self.workers[worker_id] = BUSY
            heapreplace(self._events, (self.clock + task.service_time,
                                       _COMPLETION, worker_id, task))
            if trace is not None:
                self._record("dispatch", task_id=task.task_id,
                             worker_id=worker_id)
        else:
            heappop(self._events)
            self.workers[worker_id] = IDLE
            insort(self._idle, worker_id)

    def _check_conservation(self, key):
        """Conservation identity and the backlog invariant after the event
        ``key``, plus the start order, the pending starts, the idle list and
        the heap's completions against the statuses."""
        statuses = list(self.workers.values())
        pending = len(self._starts)
        if ([s == STARTING for s in statuses]
                != [False] * (len(statuses) - pending) + [True] * pending):
            raise ConservationError(
                f"{pending} pending starts, but the starting workers are not"
                f" the newest {pending} of {statuses} at t={self.clock}")
        # the arrivals up to the event have arrived
        snap = self._snapshot(bisect_right(self._arrivals, key, self._next))
        idle = [w for w, status in self.workers.items() if status == IDLE]
        if snap.q_work and idle:
            raise ConservationError(
                f"{snap.q_work} tasks queued while workers {idle} are"
                f" idle at t={self.clock}")
        if self._idle != idle:
            raise ConservationError(
                f"idle list holds {self._idle}, idle workers are {idle}"
                f" at t={self.clock}")
        # one completion per busy or draining worker: ids ascend in the pool
        completing = sorted(wid for _, kind, wid, _ in self._events
                            if kind == _COMPLETION)
        busy = [w for w, status in self.workers.items()
                if status in (BUSY, DRAINING)]
        if completing != busy:
            raise ConservationError(
                f"the heap holds completions of workers {completing}, busy"
                f" and draining workers are {busy} at t={self.clock}")
        if snap.enqueued_total != (snap.q_work + snap.workers_busy
                                   + snap.completed_total):
            raise ConservationError(f"enqueued != queued + busy + completed"
                                    f" in {snap} at t={self.clock}")


@dataclass(frozen=True)
class StaticRunResult:
    runtime: float
    init_overhead: float


def static_run(config, workload, n_fixed: int, rng_seed: int = 0) -> StaticRunResult:
    """Run the whole workload, any iterable of tasks, with a fixed pool of
    n_fixed workers. An empty workload raises ``ValueError``."""
    if n_fixed < 1:
        raise ValueError("n_fixed must be >= 1")
    tasks = list(workload)  # read once: an iterator is used up by reading
    if not tasks:
        raise ValueError("the workload has no tasks")
    from dataclasses import replace
    cfg = replace(config, n_min=n_fixed, n_max=n_fixed, n_init=n_fixed,
                  warm_start=False)
    sim = FarmSim(cfg, np.random.default_rng([rng_seed, 30_000]))
    init_overhead = sim._starts[-1]  # the last pending start
    sim.inject_tasks(tasks)
    while len(sim.completion_records) < len(tasks):
        sim.advance(60.0)
    first_arrival = min(t.arrival_time for t in tasks)
    last_completion = max(t for _, t, _ in sim.completion_records)
    return StaticRunResult(last_completion - first_arrival, init_overhead)


def static_scaling_experiment(config, workload, pool_sizes, rng_seed: int = 0):
    """Static runs over several pool sizes plus speedups relative to n=1."""
    tasks = list(workload)  # each run reads it
    results = {n: static_run(config, tasks, n, rng_seed) for n in pool_sizes}
    base = (results[1] if 1 in results
            else static_run(config, tasks, 1, rng_seed))
    speedups = {n: base.runtime / r.runtime for n, r in results.items()}
    return results, speedups
