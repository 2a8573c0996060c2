"""Shared domain types for the farm autoscaling simulator.

Everything here is a plain value object: tasks, observations, episode and
reward configuration, and the per-episode log from which all metrics are
derived. No module-level mutable state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import repeat
from operator import add, attrgetter
from typing import NamedTuple

ACTIONS = (-1, 0, 1)


def as_action(value):
    """``value`` as a Python int when it is an integer in ``ACTIONS``, else
    None. A numpy integer counts; a bool or a float does not, even when it
    equals an action."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return None
        value = int(value)
    return value if value in ACTIONS else None


# The types a value may have for a field annotated ``bool``, ``int`` or
# ``float``; a bool is never taken as a number.
_ACCEPTED = {"bool": bool, "int": int, "float": (int, float)}


def has_type_of(value, kind: str) -> bool:
    """True when ``value`` may stand for a field annotated ``kind``, one of
    ``"bool"``, ``"int"`` and ``"float"``: an int field takes only an
    integer, a float field an integer or a float and a bool field only a
    bool."""
    return (isinstance(value, bool) == (kind == "bool")
            and isinstance(value, _ACCEPTED[kind]))


def is_finite(value) -> bool:
    """``math.isfinite(value)``; False for an integer too large for a float,
    where ``math.isfinite`` raises ``OverflowError``."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def left_sum(values) -> float:
    """The float sum of ``values`` added one at a time, left to right, from
    0.0: the bits of the builtin ``sum`` before Python 3.12, whose ``sum``
    compensates the rounding of float terms and so can differ in the last
    bit."""
    return reduce(add, values, 0.0)


class FieldError(ValueError):
    """A value a check rejected, tagged with the name of its field so a
    caller can name its own key for it (the config key, say)."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_value(name: str, value, kind: str = "float"):
    """Raise ``FieldError(name, ...)`` unless ``has_type_of(value, kind)``
    holds and, for a float, ``value`` is finite."""
    if not has_type_of(value, kind):
        raise FieldError(name, f"{name} must be {kind}, got {value!r}")
    if kind == "float" and not is_finite(value):
        raise FieldError(name, f"{name} must be a finite number, got {value!r}")


def check_fields(obj):
    """``check_value`` on each field of the dataclass ``obj`` annotated
    ``bool``, ``int`` or ``float``; every config class's ``__post_init__``
    calls it first, so its range checks compare only numbers."""
    for f in fields(obj):
        if f.type in _ACCEPTED:
            check_value(f.name, getattr(obj, f.name), f.type)


class TaskSpec(NamedTuple):
    """One task as a row, in the order of the CSV columns: iterating a
    ``Workload`` makes them, and a row is the plain tuple of its values."""

    task_id: int
    arrival_time: float
    size_px: int
    service_time: float
    deadline: float
    phase_index: int


# a workload's six columns, in the order of ``TaskSpec._fields``
task_columns = attrgetter(*TaskSpec._fields)


class Workload:
    """An episode's tasks as read-only columns, one per field of
    ``TaskSpec`` and named after it: ``workload.service_time[i]`` is the
    service time of task ``i``. Task ``i`` is the ``i``-th arrival, so
    ``task_id`` is ``range(len(workload))`` and is not stored; the other
    five columns are tuples. A built workload's rows of one size share that
    size's service time and deadline float objects. ``phase_order`` is the
    order its phases ran in, a tuple of phase indices (empty: the
    configured order).

    This is the one place a batch's shape is checked: the constructor
    raises ``ValueError`` unless the arrival times are finite and never
    fall, naming the first position that breaks the rule. The simulator,
    the env and the summaries take a workload as it is and read its columns
    by task index. ``len`` is its number of tasks, and iterating it gives
    its ``TaskSpec`` rows, each made only then.
    """

    __slots__ = (*TaskSpec._fields[1:], "phase_order")

    def __init__(self, arrival_time, size_px, service_time, deadline,
                 phase_index, phase_order=()):
        # tuple() returns a tuple as it is
        columns = list(map(tuple, (arrival_time, size_px, service_time,
                                   deadline, phase_index)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns of unequal lengths "
                             f"{[len(c) for c in columns]}")
        times = columns[0]
        # a sorted list sorts in one pass of comparisons made in C, and a
        # NaN or an infinity makes the sum of the times non-finite; so does
        # an overflow of finite times, which the scan accepts, and an int
        # too large for a float makes the sum raise
        try:
            in_order = (list(times) == sorted(times)
                        and math.isfinite(sum(times)))
        except OverflowError:
            in_order = False
        if not in_order:
            for i, t in enumerate(times):
                if not is_finite(t) or i and not times[i - 1] <= t:
                    raise ValueError(
                        f"task {i} of the batch has arrival time {t!r}: task"
                        f" i must be the i-th arrival, with a finite arrival"
                        f" time")
        for name, column in zip(TaskSpec._fields[1:], columns):
            setattr(self, name, column)
        self.phase_order = tuple(phase_order)

    @property
    def task_id(self) -> range:
        return range(len(self.arrival_time))

    def __len__(self) -> int:
        return len(self.arrival_time)

    def __iter__(self):
        return map(tuple.__new__, repeat(TaskSpec), zip(*task_columns(self)))


class Observation(NamedTuple):
    """9-component farm state read at a control-step boundary, in the order
    every agent and ``steps.csv`` read it."""

    q_in: int
    q_work: int
    q_res: int
    q_out: int
    n_workers: int
    t_proc_avg: float
    t_proc_max: float
    arrival_rate: float
    qos_step: float


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode-level configuration: workload phases, pool bounds, timing."""

    phases: tuple
    step_duration: float = 8.0
    n_min: int = 1
    n_max: int = 20
    n_init: int = 4
    beta: float = 2.0
    latency_lo: float = 5.0  # bounds of a scale-up's uniform startup delay
    latency_hi: float = 8.0
    obs_window: int = 3
    drain_cap: int = 15
    warm_start: bool = True

    def __post_init__(self):
        check_fields(self)
        for name, ok in (("n_min", 1 <= self.n_min),
                         ("n_init", self.n_min <= self.n_init),
                         ("n_max", self.n_init <= self.n_max)):
            if not ok:
                raise FieldError(name, f"need 1 <= n_min <= n_init <= n_max, "
                                 f"got {self.n_min}/{self.n_init}/{self.n_max}")
        if self.step_duration <= 0:
            raise FieldError("step_duration", "step_duration must be positive")
        if self.beta <= 1:
            raise FieldError("beta", "beta must exceed 1")
        if self.obs_window < 1:
            raise FieldError("obs_window",
                             f"obs_window must be >= 1, got {self.obs_window}")
        if self.drain_cap < 0:
            raise FieldError("drain_cap",
                             f"drain_cap must be >= 0, got {self.drain_cap}")
        if not 0 <= self.latency_lo <= self.latency_hi:
            raise FieldError("latency_lo",
                             f"need 0 <= latency_lo <= latency_hi, got "
                             f"{self.latency_lo}/{self.latency_hi}")

    @property
    def total_duration(self) -> float:
        return left_sum(p.duration for p in self.phases)


@dataclass(frozen=True)
class RewardConfig:
    """Targets, thresholds and weights of the shaped per-step reward."""

    q_target: float = 0.9
    q_queue_target: float = 40.0
    q_idle: float = 5.0
    n_target: int = 12
    w_qos: float = 10.0
    w_backlog: float = 5.0
    w_scale: float = 0.5
    w_eff: float = 0.5
    w_up: float = 1.0
    w_down: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.q_queue_target <= 0:
            raise FieldError("q_queue_target",
                             "q_queue_target must be positive")
        if self.q_idle > self.q_queue_target:
            raise FieldError("q_idle", "q_idle must not exceed q_queue_target")
        if not (0 < self.q_target <= 1):
            raise FieldError("q_target", "q_target must lie in (0, 1]")


@dataclass(slots=True)
class StepRecord:
    """A control step's facts, as ``FarmEnv.step`` returns and logs them;
    ``reward_terms`` holds the reward's terms in ``env.REWARD_TERMS``
    order, and is empty in the record of ``reset``."""

    step: int
    observation: Observation
    action: int
    applied_delta: int
    reward: float
    arrived: int
    completed: int
    hits: int
    workers_busy: int  # tasks in flight at the step's end
    reward_terms: tuple = ()


@dataclass
class EpisodeLog:
    """One episode: its ``Workload``, the simulator's completion records
    ``(index, completion_time, met)``, whose ``index`` points into
    ``tasks``, and the per-step records."""

    tasks: Workload
    completions: list = field(default_factory=list)
    steps: list = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_completed(self) -> int:
        return sum(s.completed for s in self.steps)
