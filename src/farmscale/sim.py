"""Virtual-time discrete-event simulator of the Emitter/Worker/Collector farm.

Events execute in time order with a fixed tie-break (completion < arrival <
worker-ready, then ascending id) so that identical (config, workload, seed)
always produce bitwise-identical traces. Injected arrivals wait in their own
deque, sorted by (time, task id); the event heap holds only completions and
worker-ready events, about one per worker. Each step of the event loop takes
the smaller of the two heads, comparing whole (time, kind, id) keys, so the
merged stream runs in exactly that order. The emitter and collector are
zero-delay: arriving tasks land in the worker queue instantly and completed
tasks leave the farm at once. The simulator therefore keeps no input,
result or output queue; the env reports those observation fields as 0.

The pool is one map from worker id to status, in start order: starting,
idle, busy, or draining (busy, and leaving when its task completes). Only
busy workers ever drain: a starting scale-down victim is cancelled and an
idle one exits at once. Pool counts are worked out from the statuses when
asked for. Between events the backlog invariant holds: while the worker
queue is non-empty, no live worker is idle. So each event hands a task
straight to its worker. An arrival with no backlog starts at once on the
lowest idle worker id, the same tie-break as a scan over the pool, and
otherwise joins the queue; a completion under backlog gives the finishing
worker the head of the queue; a worker that becomes ready takes the head of
the queue, or goes idle when there is none. The idle workers are kept as an
ascending list of their ids. Startup is sequential and a scale-down takes
the newest worker, so the starting workers are always the newest ones, and
their ready times are a deque of pending starts, oldest first: a new start
queues behind the last of them. Validate mode checks that, the invariant,
the idle list and the conservation identity after every event. A simulator
takes one batch of tasks; the completion records are its only accounting
state, and its enqueue count is the batch less the arrivals pending.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, islice

import numpy as np

from .core import ACTIONS, as_action

# event kind priorities (tie-break after time)
_COMPLETION = 0
_ARRIVAL = 1
_WORKER_READY = 2

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
        self.q_work = deque()
        self.workers: dict[int, str] = {}  # id -> status, in start order
        self.completion_records = []  # (task, completion_time, met)
        self._events = []  # (time, kind, id, payload): completions, readies
        self._arrivals = deque()  # (time, _ARRIVAL, task_id, task), sorted
        self._injected = None  # the size of the one batch, once injected
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
        ready_at = base + self.rng.uniform(self.config.latency_lo,
                                           self.config.latency_hi)
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
        if self._injected is not None:
            raise ValueError("a simulator takes one batch of tasks")
        batch = [(t.arrival_time, _ARRIVAL, t.task_id, t) for t in tasks]
        if len({a[2] for a in batch}) < len(batch):
            seen = set()
            for _, _, task_id, _ in batch:
                if task_id in seen:
                    raise ValueError(f"duplicate task_id {task_id}")
                seen.add(task_id)
        batch.sort()  # ids are unique, so the tasks themselves never compare
        self._arrivals.extend(batch)
        self._injected = len(batch)

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
        """Execute all events in (clock, clock + dt]."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        end = self.clock + dt
        events, arrivals = self._events, self._arrivals
        pop, next_arrival = heappop, arrivals.popleft
        # bound per call, not per instance, so wrappers on the class apply
        on_arrival, on_completion, on_ready = (
            self._on_arrival, self._on_completion, self._on_worker_ready)
        check = self._check_conservation if self.validate else None
        while True:
            if arrivals and (not events or arrivals[0] < events[0]):
                if arrivals[0][0] > end:
                    break
                self.clock, _, _, task = next_arrival()
                on_arrival(task)
            elif events and events[0][0] <= end:
                self.clock, kind, eid, task = pop(events)
                if kind == _COMPLETION:
                    on_completion(eid, task)
                else:
                    on_ready(eid)
            else:
                break
            if check is not None:
                check()
        self.clock = end

    def snapshot(self) -> Snapshot:
        statuses = list(self.workers.values())
        starting = statuses.count(STARTING)
        draining = statuses.count(DRAINING)
        return Snapshot(
            q_work=len(self.q_work),
            workers_effective=len(statuses) - starting - draining,
            workers_busy=statuses.count(BUSY) + draining,
            workers_starting=starting,
            workers_draining=draining,
            enqueued_total=self.enqueued_total,
            completed_total=len(self.completion_records),
        )

    @property
    def enqueued_total(self) -> int:
        """Tasks arrived so far: the batch less the arrivals pending."""
        return (self._injected or 0) - len(self._arrivals)

    # -- event handlers -----------------------------------------------------
    # Each keeps the backlog invariant: a task joins the queue only when no
    # live worker is idle, and a worker goes idle only when the queue is
    # empty. Starting a task is written out in each of them, as this is the
    # per-task path.

    def _on_arrival(self, task):
        trace = self.trace
        if trace is not None:
            self._record("arrival", task_id=task.task_id)
        if self.q_work or not self._idle:
            self.q_work.append(task)
            return
        wid = self._idle.pop(0)
        self.workers[wid] = BUSY
        heappush(self._events, (self.clock + task.service_time, _COMPLETION,
                                wid, task))
        if trace is not None:
            self._record("dispatch", task_id=task.task_id, worker_id=wid)

    def _on_completion(self, worker_id, task):
        # a busy worker leaves the pool only here, so no completion is stale
        clock = self.clock
        met = clock - task.arrival_time <= task.deadline
        self.completion_records.append((task, clock, met))
        trace = self.trace
        if trace is not None:
            self._record("completion", task_id=task.task_id,
                         worker_id=worker_id)
        if self.workers[worker_id] == DRAINING:
            del self.workers[worker_id]
            if trace is not None:
                self._record("worker_exit", worker_id=worker_id)
        elif self.q_work:
            queued = self.q_work.popleft()
            heappush(self._events, (clock + queued.service_time, _COMPLETION,
                                    worker_id, queued))
            if trace is not None:
                self._record("dispatch", task_id=queued.task_id,
                             worker_id=worker_id)
        else:
            self.workers[worker_id] = IDLE
            insort(self._idle, worker_id)

    def _on_worker_ready(self, worker_id):
        if worker_id not in self.workers:
            return  # cancelled by a scale-down before becoming ready
        self._starts.popleft()  # the oldest pending start is this one
        trace = self.trace
        if trace is not None:
            self._record("worker_ready", worker_id=worker_id)
        if self.q_work:
            task = self.q_work.popleft()
            self.workers[worker_id] = BUSY
            heappush(self._events, (self.clock + task.service_time,
                                    _COMPLETION, worker_id, task))
            if trace is not None:
                self._record("dispatch", task_id=task.task_id,
                             worker_id=worker_id)
        else:
            self.workers[worker_id] = IDLE
            insort(self._idle, worker_id)

    def _check_conservation(self):
        """Conservation identity and the backlog invariant, plus the start
        order, the pending starts and the idle list against the statuses."""
        statuses = list(self.workers.values())
        pending = len(self._starts)
        if ([s == STARTING for s in statuses]
                != [False] * (len(statuses) - pending) + [True] * pending):
            raise ConservationError(
                f"{pending} pending starts, but the starting workers are not"
                f" the newest {pending} of {statuses} at t={self.clock}")
        idle = [w for w, status in self.workers.items() if status == IDLE]
        if self._idle != idle:
            raise ConservationError(
                f"idle list holds {self._idle}, idle workers are {idle}"
                f" at t={self.clock}")
        if self.q_work and idle:
            raise ConservationError(
                f"{len(self.q_work)} tasks queued while workers {idle} are"
                f" idle at t={self.clock}")
        snap = self.snapshot()
        if snap.enqueued_total != (snap.q_work + snap.workers_busy
                                   + snap.completed_total):
            raise ConservationError(f"enqueued != queued + busy + completed"
                                    f" in {snap} at t={self.clock}")


@dataclass(frozen=True)
class StaticRunResult:
    runtime: float
    init_overhead: float


def static_run(config, workload, n_fixed: int, rng_seed: int = 0) -> StaticRunResult:
    """Run the whole workload with a fixed pool of n_fixed workers."""
    if n_fixed < 1:
        raise ValueError("n_fixed must be >= 1")
    from dataclasses import replace
    cfg = replace(config, n_min=n_fixed, n_max=n_fixed, n_init=n_fixed,
                  warm_start=False)
    sim = FarmSim(cfg, np.random.default_rng([rng_seed, 30_000]))
    init_overhead = sim._starts[-1]  # the last pending start
    sim.inject_tasks(workload)
    total = len(workload)
    while len(sim.completion_records) < total:
        sim.advance(60.0)
    first_arrival = min(t.arrival_time for t in workload)
    last_completion = max(t for _, t, _ in sim.completion_records)
    return StaticRunResult(last_completion - first_arrival, init_overhead)


def static_scaling_experiment(config, workload, pool_sizes, rng_seed: int = 0):
    """Static runs over several pool sizes plus speedups relative to n=1."""
    results = {n: static_run(config, workload, n, rng_seed) for n in pool_sizes}
    base = (results[1] if 1 in results
            else static_run(config, workload, 1, rng_seed))
    speedups = {n: base.runtime / r.runtime for n, r in results.items()}
    return results, speedups
