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

Between events the backlog invariant holds: while the worker queue is
non-empty, no live worker is idle. So each event hands a task straight to
its worker. An arrival with no backlog starts at once on the lowest idle
worker id, the same tie-break as a scan over the pool, and otherwise joins
the queue; a completion under backlog gives the finishing worker the head
of the queue; a worker that becomes ready takes the head of the queue, or
goes idle when there is none. Idle workers wait in a min-heap of worker
ids. A worker that exits through a scale-down while idle keeps its heap
entry, which is skipped when popped; ids are never reused, so a stale id
names no worker. Pool counts are kept as counters (starting, busy,
draining) rather than recounted. Only busy workers ever drain (a starting
victim is cancelled and an idle one exits at once), so the effective pool
is every worker neither starting nor draining, and the committed pool is
every worker not draining. Startup is sequential and a scale-down takes
the newest worker, so the starting workers are always the newest ones.
Validate mode checks that, the invariant, the counters and the conservation
identity after every event. A simulator takes one batch of tasks; the
completion records are its only accounting state, and its enqueue count is
the batch less the arrivals pending.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .core import ACTIONS, as_action

# event kind priorities (tie-break after time)
_COMPLETION = 0
_ARRIVAL = 1
_WORKER_READY = 2

STARTING = "starting"
IDLE = "idle"
BUSY = "busy"


@dataclass
class WorkerState:
    worker_id: int
    status: str  # starting | idle | busy
    draining: bool = False
    ready_at: float = 0.0


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
        self.workers: dict[int, WorkerState] = {}
        self.completion_records = []  # (task, completion_time, met)
        self._events = []  # (time, kind, id, payload): completions, readies
        self._arrivals = deque()  # (time, _ARRIVAL, task_id, task), sorted
        self._injected = None  # the size of the one batch, once injected
        self._next_worker_id = 0
        self._idle = []  # min-heap of idle worker ids, stale ids skipped
        self._starting = 0
        self._busy = 0
        self._draining = 0
        self.trace = [] if trace else None

        if config.warm_start:
            # Initial pool brought up before the episode clock starts, the
            # way a farm deployment completes its startup handshake before
            # the emitter opens the stream.  Only mid-episode scale-ups pay
            # the sequential startup latency.
            for _ in range(config.n_init):
                wid = self._next_worker_id
                self._next_worker_id += 1
                self.workers[wid] = WorkerState(wid, IDLE, ready_at=0.0)
                self._idle.append(wid)  # ascending ids: already a heap
        else:
            for _ in range(config.n_init):
                self._schedule_start()

    # -- scheduling helpers -------------------------------------------------

    def _schedule_start(self):
        lo, hi = self.config.scale_up_latency
        # sequential startup: queue behind the newest start, the last worker
        base = (next(reversed(self.workers.values())).ready_at
                if self._starting else self.clock)
        ready_at = base + self.rng.uniform(lo, hi)
        wid = self._next_worker_id
        self._next_worker_id += 1
        self.workers[wid] = WorkerState(wid, STARTING, ready_at=ready_at)
        self._starting += 1
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
        exits when its task completes.
        """
        step = as_action(delta)
        if step is None:
            raise ValueError(f"scaling actions are unit steps in {ACTIONS},"
                             f" got {delta!r}")
        committed = len(self.workers) - self._draining
        applied = max(min(step, self.config.n_max - committed),
                      self.config.n_min - committed)
        if applied > 0:
            wid = self._schedule_start()
            if self.trace is not None:
                self._record("scale_up", worker_id=wid)
        elif applied < 0:
            # ids are inserted in ascending order and never reused, so the
            # dict's last non-draining entry is the most recently started
            victim = next(w for w in reversed(self.workers.values())
                          if not w.draining)
            if victim.status == STARTING:
                del self.workers[victim.worker_id]  # ready event becomes stale
                self._starting -= 1
            elif victim.status == IDLE:
                del self.workers[victim.worker_id]  # heap entry becomes stale
            else:
                victim.draining = True
                self._draining += 1
            if self.trace is not None:
                self._record("scale_down", worker_id=victim.worker_id)
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
        return Snapshot(
            q_work=len(self.q_work),
            workers_effective=(len(self.workers) - self._starting
                               - self._draining),
            workers_busy=self._busy,
            workers_starting=self._starting,
            workers_draining=self._draining,
            enqueued_total=self.enqueued_total,
            completed_total=len(self.completion_records),
        )

    @property
    def enqueued_total(self) -> int:
        """Tasks arrived so far: the batch less the arrivals pending."""
        return (self._injected or 0) - len(self._arrivals)

    @property
    def completed_total(self) -> int:
        return len(self.completion_records)

    @property
    def pending_arrivals(self) -> int:
        return len(self._arrivals)

    # -- event handlers -----------------------------------------------------
    # Each keeps the backlog invariant: a task joins the queue only when no
    # live worker is idle, and a worker goes idle only when the queue is
    # empty. Starting a task is written out in each of them, as this is the
    # per-task path.

    def _on_arrival(self, task):
        trace = self.trace
        if trace is not None:
            self._record("arrival", task_id=task.task_id)
        if not self.q_work:
            idle, workers = self._idle, self.workers
            while idle:
                worker = workers.get(heappop(idle))
                if worker is not None:  # else it exited while idle
                    worker.status = BUSY
                    self._busy += 1
                    heappush(self._events, (self.clock + task.service_time,
                                            _COMPLETION, worker.worker_id,
                                            task))
                    if trace is not None:
                        self._record("dispatch", task_id=task.task_id,
                                     worker_id=worker.worker_id)
                    return
        self.q_work.append(task)

    def _on_completion(self, worker_id, task):
        # a busy worker leaves the pool only here, so no completion is stale
        worker = self.workers[worker_id]
        clock = self.clock
        met = clock - task.arrival_time <= task.deadline
        self.completion_records.append((task, clock, met))
        trace = self.trace
        if trace is not None:
            self._record("completion", task_id=task.task_id,
                         worker_id=worker_id)
        if worker.draining:
            del self.workers[worker_id]
            self._busy -= 1
            self._draining -= 1
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
            worker.status = IDLE
            self._busy -= 1
            heappush(self._idle, worker_id)

    def _on_worker_ready(self, worker_id):
        worker = self.workers.get(worker_id)
        if worker is None:
            return  # cancelled by a scale-down before becoming ready
        self._starting -= 1
        trace = self.trace
        if trace is not None:
            self._record("worker_ready", worker_id=worker_id)
        if self.q_work:
            task = self.q_work.popleft()
            worker.status = BUSY
            self._busy += 1
            heappush(self._events, (self.clock + task.service_time,
                                    _COMPLETION, worker_id, task))
            if trace is not None:
                self._record("dispatch", task_id=task.task_id,
                             worker_id=worker_id)
        else:
            worker.status = IDLE
            heappush(self._idle, worker_id)

    def _check_conservation(self):
        """Conservation identity and the backlog invariant, plus the pool
        counters, start order and idle heap against a scan of the workers."""
        workers = self.workers.values()
        recount = {
            "busy": (self._busy, sum(w.status == BUSY for w in workers)),
            "starting": (self._starting,
                         sum(w.status == STARTING for w in workers)),
            "draining": (self._draining, sum(w.draining for w in workers)),
        }
        for name, (kept, scanned) in recount.items():
            if kept != scanned:
                raise ConservationError(
                    f"{name} counter {kept} != {scanned} workers"
                    f" at t={self.clock}")
        newest = list(workers)[len(self.workers) - self._starting:]
        if any(w.status != STARTING for w in newest):
            raise ConservationError("a starting worker is older than a"
                                    f" started one at t={self.clock}")
        idle = sorted(w.worker_id for w in workers if w.status == IDLE)
        queued = sorted(i for i in self._idle if i in self.workers)
        if idle != queued:
            raise ConservationError(
                f"idle heap holds {queued}, idle workers are {idle}"
                f" at t={self.clock}")
        if self.q_work and idle:
            raise ConservationError(
                f"{len(self.q_work)} tasks queued while workers {idle} are"
                f" idle at t={self.clock}")
        expected = len(self.q_work) + self._busy + self.completed_total
        if self.enqueued_total != expected:
            raise ConservationError(
                f"enqueued {self.enqueued_total} != queued {len(self.q_work)}"
                f" + busy {self._busy} + completed {self.completed_total}"
                f" at t={self.clock}")


@dataclass(frozen=True)
class StaticRunResult:
    n_workers: int
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
    init_overhead = max(w.ready_at for w in sim.workers.values())
    sim.inject_tasks(workload)
    total = len(workload)
    while sim.completed_total < total:
        sim.advance(60.0)
    first_arrival = min(t.arrival_time for t in workload)
    last_completion = max(t for _, t, _ in sim.completion_records)
    return StaticRunResult(n_fixed, last_completion - first_arrival, init_overhead)


def static_scaling_experiment(config, workload, pool_sizes, rng_seed: int = 0):
    """Static runs over several pool sizes plus speedups relative to n=1."""
    results = {n: static_run(config, workload, n, rng_seed) for n in pool_sizes}
    base = (results[1] if 1 in results
            else static_run(config, workload, 1, rng_seed))
    speedups = {n: base.runtime / r.runtime for n, r in results.items()}
    return results, speedups
