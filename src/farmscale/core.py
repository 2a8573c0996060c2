"""Shared domain types for the farm autoscaling simulator.

Everything here is a plain value object: tasks, observations, episode and
reward configuration, and the per-episode log from which all metrics are
derived. No module-level mutable state.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, NamedTuple

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


def compute_deadline(expected_service: float, beta: float) -> float:
    """Deadline allowance for a task: ``beta * expected_service``."""
    if expected_service <= 0:
        raise ValueError(f"expected_service must be positive, got {expected_service}")
    if beta <= 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    return beta * expected_service


def deadline_met(arrival: float, completion: float, deadline: float) -> bool:
    """True when end-to-end latency is within the allowance (boundary counts)."""
    if completion < arrival:
        raise ValueError(f"completion {completion} precedes arrival {arrival}")
    return completion - arrival <= deadline


def check_task_timing(service_time: float, deadline: float):
    """The checks every task's timing must pass; ``TaskSpec`` runs them on
    each construction, the workload builder once per distinct size."""
    if service_time <= 0:
        raise ValueError("service_time must be positive")
    if deadline <= service_time:
        raise ValueError("deadline must exceed service_time")


# typing.NamedTuple forbids overriding __new__ in its own class body, so
# TaskSpec adds its checks in a subclass of these fields
class _TaskFields(NamedTuple):
    task_id: int
    arrival_time: float
    size_px: int
    service_time: float
    deadline: float
    phase_index: int


class TaskSpec(_TaskFields):
    """One stream item: arrival, size, expected service time and deadline.

    A task is its own row: it equals the plain tuple of its values, in the
    order of ``_fields``. Every construction through the class (positional,
    keyword, ``_make`` and ``_replace``) rejects an arrival time that is not
    finite and runs ``check_task_timing``; assignment raises
    ``AttributeError``. The workload builder runs the timing checks once per
    distinct size and makes its rows with ``tuple.__new__``: its arrival
    times are finite by construction.
    """

    __slots__ = ()

    def __new__(cls, task_id, arrival_time, size_px, service_time, deadline,
                phase_index):
        if not is_finite(arrival_time):
            raise ValueError(f"arrival_time must be finite, got {arrival_time!r}")
        check_task_timing(service_time, deadline)
        return tuple.__new__(cls, (task_id, arrival_time, size_px,
                                   service_time, deadline, phase_index))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
        return sum(p.duration for p in self.phases)


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


_STEP_SCALARS = ("action", "applied_delta", "reward", "arrived", "completed",
                 "hits")
STEP_COLUMNS = ("step", *Observation._fields, *_STEP_SCALARS)
_step_scalar_values = attrgetter(*_STEP_SCALARS)


TASK_COLUMNS = ("task_id", "arrival", "size", "service", "deadline",
                "completion", "met")


def write_csv(path, header, rows):
    """Write ``header`` and then each of ``rows`` to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class EpisodeLog:
    """One episode: its workload, the simulator's completion records
    ``(task, completion_time, met)``, the per-step records and the order
    its phases ran in (empty: the configured order)."""

    tasks: list = field(default_factory=list)
    completions: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    phase_order: tuple = ()

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_completed(self) -> int:
        return sum(s.completed for s in self.steps)

    def step_rows(self) -> Iterable[tuple]:
        for s in self.steps:
            yield (s.step, *s.observation, *_step_scalar_values(s))

    def write_step_csv(self, path):
        write_csv(path, STEP_COLUMNS, self.step_rows())

    def write_task_csv(self, path):
        """One row per task in workload order: its fields but the phase,
        then completion and met. A task that never completed has completion
        ``nan`` and counts as missed. ``met`` is 0/1."""
        done = {task.task_id: (time, int(met))
                for task, time, met in self.completions}
        unfinished = (math.nan, 0)
        write_csv(path, TASK_COLUMNS,
                  ((*t[:5], *done.get(t.task_id, unfinished))
                   for t in self.tasks))

