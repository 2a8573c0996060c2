"""Virtual-time discrete-event simulator of the Emitter/Worker/Collector farm.

Events execute in time order with a fixed tie-break (completion < arrival <
worker-ready, then ascending id) so that identical (config, workload, seed)
always produce bitwise-identical traces. The emitter and collector are
zero-delay: arriving tasks land in the worker queue instantly and completed
tasks leave the farm at once. The simulator therefore keeps no input,
result or output queue; the env reports those observation fields as 0.

A simulator takes one batch of tasks, a ``core.Workload``, and reads its
columns in place: task ``i`` is the ``i``-th arrival, with finite arrival
times that never fall, which the workload checked when it was made. A task
is known by its position, which is its id. The simulator keeps the three
columns it reads: the arrival times, ending in a sentinel, ``math.inf``,
that never arrives, so no read of the head checks the length, the service
times and the deadlines. Workers take tasks first come, first served, so
the tasks dispatched are a prefix of the batch and the worker queue is a
span of it: from ``_next``, the first task not dispatched, to the last
arrival before the current event. The event heap holds only completions and
worker-ready events, about one per worker, as ``(time, kind, worker id,
position)`` tuples; its tuple order is the tie-break. An arrival at time
``t`` comes before the heap's root when ``t`` is earlier than the root's
time, or equal to it with the root a worker-ready event; a completion at
``t`` comes before it. A completion record is ``(task_id, completion_time,
met)``, so a log reads the task's fields from the batch's columns.

Each event costs one heap operation. ``advance`` only peeks at the root, and
the handler of a heap event takes its own event off: with ``heapreplace``
when it starts a task on the freed or ready worker, whose completion takes
the event's place, and with ``heappop`` otherwise. An arrival event pushes
its task's completion. Between events the backlog invariant holds: while the
queue is non-empty, no live worker is idle. So an arrival is an event only
while some worker is idle, and then it is the head of the batch and starts
at once on the lowest idle worker id, the same tie-break as a scan over the
pool. Under backlog arrivals are not events: a completion gives its worker
the head of the batch if that task arrived strictly before it, a worker that
becomes ready takes it if it arrived at or before that moment (the tie-break
above), and otherwise the worker goes idle and arrivals are events again.

The tasks arrived by an event at the clock are one bisect of the time
column, starting from ``_next``: ``bisect_left`` for a completion, which
comes before an arrival at its time, and ``bisect_right`` for a worker-ready
event or the end of an ``advance``, which come after one. After an arrival
event they are the tasks up to ``_next``. The enqueue count is that bisect
at the end of each ``advance``; in trace mode the arrivals passed over are
written to the trace in merged order, before the next event that follows
them.

The pool keeps each fact once. The workers that are not draining are a
list of their ids in start order, ``_live``. Startup is sequential and a
scale-down takes the newest of them, so the starting workers are always its
last entries, and their ready times are a deque of pending starts, oldest
first: a new start queues behind the last of them. The idle workers are an
ascending list of their ids; a started live worker that is not idle is
busy, and the heap holds its completion. The draining workers, busy and
leaving when their task completes, are a set: only busy workers ever
drain, as a starting scale-down victim is cancelled and an idle one exits
at once. No handler writes a status when a worker takes a task or goes
idle. Pool counts are the lengths of those four; none scans the pool. A
ready event whose worker is not the oldest pending start was cancelled:
ids are never reused. Validate mode checks the facts that sit in two
places after every event: the idle list against the started workers with
no completion on the heap, one completion on the heap per busy or draining
worker, no draining worker among the live ones, and one ready event per
pending start at the time the deque records; and the backlog invariant and
the conservation identity. The task counts come from three values alone:
the completion records, ``_next`` and the enqueue count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import count, islice, repeat
from typing import NamedTuple

import numpy as np

from .core import ACTIONS, as_action

# event kind priorities (tie-break after time)
_COMPLETION = 0
_ARRIVAL = 1
_WORKER_READY = 2


class Snapshot(NamedTuple):
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
        # (task_id, completion_time, met)
        self.completion_records = []
        # (time, kind, worker id, position): completions, readies
        self._events = []
        self._times = [math.inf]  # the arrival times, then the sentinel
        self._service = self._deadline = ()  # the batch's columns
        self._next = 0  # position of the first task not yet dispatched
        self._traced = 0  # arrivals written to the trace so far
        self._injected = False
        self.enqueued_total = 0  # arrivals up to the end of the last advance
        self._ids = count()  # worker ids, never reused
        # ids of the workers not draining, in start order; the last
        # len(_starts) of them are starting
        self._live = []
        self._idle = []  # ids of the idle workers, ascending
        self._draining = set()  # ids of the busy workers leaving
        self._starts = deque()  # pending starts' ready times, oldest first
        self.trace = [] if trace else None

        if config.warm_start:
            # Initial pool brought up before the episode clock starts, the
            # way a farm deployment completes its startup handshake before
            # the emitter opens the stream.  Only mid-episode scale-ups pay
            # the sequential startup latency.
            self._idle = list(islice(self._ids, config.n_init))
            self._live = self._idle.copy()
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
        self._live.append(wid)
        self._starts.append(ready_at)
        heappush(self._events, (ready_at, _WORKER_READY, wid, None))
        return wid

    def _record(self, kind, task_id=-1, worker_id=-1):
        """Append to the event trace; callers check ``self.trace`` first."""
        self.trace.append((self.clock, kind, task_id, worker_id))

    # -- public operations --------------------------------------------------

    def inject_tasks(self, tasks):
        """Schedule the arrivals of ``tasks``, a ``Workload`` and this
        simulator's one batch, read in place: the workload has checked its
        shape when it was made. A second batch raises ``ValueError`` and
        schedules nothing."""
        if self._injected:
            raise ValueError("a simulator takes one batch of tasks")
        self._times = [*tasks.arrival_time, math.inf]
        self._service, self._deadline = tasks.service_time, tasks.deadline
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
        committed = len(self._live)
        applied = max(min(step, self.config.n_max - committed),
                      self.config.n_min - committed)
        if applied > 0:
            wid = self._schedule_start()
            if self.trace is not None:
                self._record("scale_up", worker_id=wid)
        elif applied < 0:
            victim = self._live.pop()  # the most recently started worker
            if self._starts:
                # the starting workers are the newest: its ready event
                # becomes stale
                self._starts.pop()
            elif self._idle and self._idle[-1] == victim:
                self._idle.pop()  # the newest worker has the highest idle id
            else:
                self._draining.add(victim)
            if self.trace is not None:
                self._record("scale_down", worker_id=victim)
        return applied

    def advance(self, dt: float) -> None:
        """Execute all events in (clock, clock + dt]. A ``dt`` that is not
        positive and finite raises ``ValueError``."""
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        end = self.clock + dt
        events, times, idle = self._events, self._times, self._idle
        # bound per call, not per instance, so wrappers on the class apply
        on_arrival, on_completion, on_ready = (
            self._on_arrival, self._on_completion, self._on_worker_ready)
        check = self._check_conservation if self.validate else None
        while True:
            # with a worker idle the queue is empty: the next arrival is an
            # event, and it is the head of the batch
            if idle:
                time = times[self._next]
                if (not events or time < (root := events[0])[0]
                        or time == root[0] and root[1] == _WORKER_READY):
                    if time > end:
                        break
                    self.clock = time
                    on_arrival()
                    if check is not None:
                        check(_ARRIVAL)
                    continue
            if events and (event := events[0])[0] <= end:
                # the handler takes its event off the heap
                self.clock, kind, eid, position = event
                if kind == _COMPLETION:
                    on_completion(eid, position)
                else:
                    on_ready(eid)
                if check is not None:
                    check(kind)
            else:
                break
        self.clock = end
        self.enqueued_total = bisect_right(times, end, self._next)
        if self.trace is not None:
            self._record_arrivals(_WORKER_READY)

    def snapshot(self) -> Snapshot:
        return self._snapshot(self.enqueued_total)

    def _snapshot(self, arrived: int) -> Snapshot:
        """The pool and task counts, with ``arrived`` tasks arrived."""
        starting, draining = len(self._starts), len(self._draining)
        effective = len(self._live) - starting
        # q_work, workers_effective, workers_busy, workers_starting,
        # workers_draining, enqueued_total, completed_total; busy counts
        # the draining workers, and tuple.__new__ skips the NamedTuple's
        # Python-level constructor
        return tuple.__new__(Snapshot, (
            arrived - self._next, effective,
            effective - len(self._idle) + draining, starting, draining,
            arrived, len(self.completion_records)))

    def _arrived_by(self, kind, lo: int) -> int:
        """The tasks arrived by an event of ``kind`` at the clock, searched
        for from position ``lo``: a task arriving at the clock arrives after
        a completion and before a worker-ready event, and an arrival event's
        own task is the last one arrived."""
        if kind == _ARRIVAL:
            return self._next
        find = bisect_left if kind == _COMPLETION else bisect_right
        return find(self._times, self.clock, lo)

    def _record_arrivals(self, kind):
        """Trace the arrivals not traced yet up to an event of ``kind`` at
        the clock; callers check ``self.trace`` first."""
        first, self._traced = self._traced, self._arrived_by(kind,
                                                             self._traced)
        self.trace.extend(zip(self._times[first:self._traced],
                              repeat("arrival"), range(first, self._traced),
                              repeat(-1)))

    # -- event handlers -----------------------------------------------------
    # Each keeps the backlog invariant: a worker goes idle only when the head
    # of the batch has not arrived, and an arrival is an event only while a
    # worker is idle. Starting a task is written out in each of them, as this
    # is the per-task path; they read a task's fields from the columns by
    # its position. A heap event is still the heap's root when its handler
    # runs, and the handler takes it off.

    def _on_arrival(self):
        # a worker is idle, so the queue is empty and its head has arrived
        head = self._next
        self._next = head + 1
        wid = self._idle.pop(0)
        heappush(self._events, (self.clock + self._service[head], _COMPLETION,
                                wid, head))
        if self.trace is not None:
            self._record_arrivals(_ARRIVAL)
            self._record("dispatch", task_id=head, worker_id=wid)

    def _on_completion(self, worker_id, position):
        # a busy worker leaves the pool only here, so no completion is stale
        clock = self.clock
        self.completion_records.append((
            position, clock,
            clock - self._times[position] <= self._deadline[position]))
        trace = self.trace
        if trace is not None:
            self._record_arrivals(_COMPLETION)
            self._record("completion", task_id=position, worker_id=worker_id)
        if self._draining and worker_id in self._draining:
            heappop(self._events)
            self._draining.remove(worker_id)
            if trace is not None:
                self._record("worker_exit", worker_id=worker_id)
        elif self._times[head := self._next] < clock:
            # the head arrived before this completion: the queue's first task
            self._next = head + 1
            heapreplace(self._events, (clock + self._service[head],
                                       _COMPLETION, worker_id, head))
            if trace is not None:
                self._record("dispatch", task_id=head, worker_id=worker_id)
        else:
            heappop(self._events)
            insort(self._idle, worker_id)

    def _on_worker_ready(self, worker_id):
        starts = self._starts
        # ready events come in start order, so a live one is the oldest
        # pending start's
        if not starts or worker_id != self._live[-len(starts)]:
            heappop(self._events)
            return  # cancelled by a scale-down before becoming ready
        starts.popleft()
        trace = self.trace
        if trace is not None:
            self._record_arrivals(_WORKER_READY)
            self._record("worker_ready", worker_id=worker_id)
        if self._times[head := self._next] <= self.clock:
            self._next = head + 1
            heapreplace(self._events, (self.clock + self._service[head],
                                       _COMPLETION, worker_id, head))
            if trace is not None:
                self._record("dispatch", task_id=head, worker_id=worker_id)
        else:
            heappop(self._events)
            insort(self._idle, worker_id)

    def _check_conservation(self, kind):
        """Conservation identity and the backlog invariant after an event of
        ``kind`` at the clock, plus the idle list, the draining set and the
        pending starts against the live workers and the event heap."""
        live, idle, draining = self._live, self._idle, self._draining
        split = len(live) - len(self._starts)
        started, pending = live[:split], list(zip(live[split:], self._starts))
        completing = sorted(wid for _, k, wid, _ in self._events
                            if k == _COMPLETION)
        # the started workers running no task: the truth the idle list keeps
        free = sorted(set(started).difference(completing))
        snap = self._snapshot(self._arrived_by(kind, self._next))
        if snap.q_work and free:
            raise ConservationError(
                f"{snap.q_work} tasks queued while workers {free} are"
                f" idle at t={self.clock}")
        if idle != free:
            raise ConservationError(
                f"idle list holds {idle}, but the started workers with no"
                f" completion on the heap are {free} at t={self.clock}")
        # one completion per busy or draining worker
        busy = sorted(set(started).difference(idle).union(draining))
        if completing != busy:
            raise ConservationError(
                f"the heap holds completions of workers {completing}, busy"
                f" and draining workers are {busy} at t={self.clock}")
        if not draining.isdisjoint(live):
            raise ConservationError(
                f"draining workers {sorted(draining)} are among the live"
                f" workers {live} at t={self.clock}")
        # a cancelled start's ready event stays on the heap, but its id is
        # not live
        readies = sorted((wid, time) for time, k, wid, _ in self._events
                         if k == _WORKER_READY and wid in live)
        if readies != pending:
            raise ConservationError(
                f"the heap holds ready events {readies}, but the pending"
                f" starts are {pending} at t={self.clock}")
        if snap.enqueued_total != (snap.q_work + snap.workers_busy
                                   + snap.completed_total):
            raise ConservationError(f"enqueued != queued + busy + completed"
                                    f" in {snap} at t={self.clock}")
