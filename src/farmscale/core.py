"""Shared domain types for the farm autoscaling simulator.

Everything here is a plain value object: tasks, observations, episode and
reward configuration, and the per-episode log from which all metrics are
derived. No module-level mutable state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Sequence

ACTIONS = (-1, 0, 1)

_PARSERS = {"int": int, "float": float}

TASK_COLUMNS = (
    "task_id",
    "arrival",
    "size",
    "service",
    "deadline",
    "completion",
    "met",
)


# The types a value may have to replace a default of each type; a bool is
# never taken as a number.
_ACCEPTED = {bool: bool, int: int, float: (int, float)}


def has_type_of(value, default) -> bool:
    """True when ``value`` may replace ``default``: an int default takes only
    an integer, a float default an integer or a float, a bool default only a
    bool and any other default a value of its own type."""
    expected = type(default)
    return (isinstance(value, bool) == (expected is bool)
            and isinstance(value, _ACCEPTED.get(expected, expected)))


class FieldError(ValueError):
    """A value a check rejected, tagged with the name of its field so a
    caller can name its own key for it (the config key, say)."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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


_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One stream item: arrival, size, expected service time and deadline.

    ``__init__`` is written out by hand because an episode builds over a
    thousand tasks: it validates first and then stores each field through
    ``object.__setattr__`` bound once at module level, with no
    ``__post_init__`` call. On Python 3.11 the generated frozen
    ``__init__`` plus ``__post_init__`` takes about 1.2x as long per task,
    and 1.6x when called by keyword. Every construction (positional,
    keyword, ``dataclasses.replace``) runs the checks; assignment still
    raises ``FrozenInstanceError``.
    """

    task_id: int
    arrival_time: float
    size_px: int
    service_time: float
    deadline: float
    phase_index: int

    def __init__(self, task_id, arrival_time, size_px, service_time,
                 deadline, phase_index):
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if deadline <= service_time:
            raise ValueError("deadline must exceed service_time")
        _set(self, "task_id", task_id)
        _set(self, "arrival_time", arrival_time)
        _set(self, "size_px", size_px)
        _set(self, "service_time", service_time)
        _set(self, "deadline", deadline)
        _set(self, "phase_index", phase_index)


@dataclass(frozen=True)
class Observation:
    """9-component farm state read at a control-step boundary."""

    q_in: int
    q_work: int
    q_res: int
    q_out: int
    n_workers: int
    t_proc_avg: float
    t_proc_max: float
    arrival_rate: float
    qos_step: float

    def as_tuple(self) -> tuple:
        return _observation_values(self)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Observation":
        if len(values) != len(OBSERVATION_FIELDS):
            raise ValueError(f"expected {len(OBSERVATION_FIELDS)} components, "
                             f"got {len(values)}")
        return cls(**parse_fields(cls, dict(zip(OBSERVATION_FIELDS, values)),
                                  "observation"))


def parse_fields(cls, row: dict, where: str) -> dict:
    """Keyword arguments for the int and float fields of dataclass ``cls``,
    each converted from ``row[field name]`` by the field's declared type
    (a name: the dataclasses here postpone annotation evaluation).

    A value that is missing or does not convert raises
    ``ValueError("<where>: column <name>: ...")``; ``where`` names the
    source, such as ``path:line``.
    """
    kwargs = {}
    for f in fields(cls):
        parse = _PARSERS.get(f.type)
        if parse is None:
            continue
        value = row.get(f.name)
        if value is None:
            raise ValueError(f"{where}: column {f.name}: missing")
        try:
            kwargs[f.name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{where}: column {f.name}: {exc}") from None
    return kwargs


OBSERVATION_FIELDS = tuple(f.name for f in fields(Observation))
_observation_values = attrgetter(*OBSERVATION_FIELDS)


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode-level configuration: workload phases, pool bounds, timing."""

    phases: tuple
    step_duration: float = 8.0
    n_min: int = 1
    n_max: int = 20
    n_init: int = 4
    beta: float = 2.0
    scale_up_latency: tuple = (5.0, 8.0)
    obs_window: int = 3
    drain_cap: int = 15
    warm_start: bool = True

    def __post_init__(self):
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
        lo, hi = self.scale_up_latency
        if lo > hi or lo < 0:
            raise FieldError("scale_up_latency",
                             f"bad scale_up_latency interval [{lo}, {hi}]")

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
        if self.q_queue_target <= 0:
            raise FieldError("q_queue_target",
                             "q_queue_target must be positive")
        if self.q_idle > self.q_queue_target:
            raise FieldError("q_idle", "q_idle must not exceed q_queue_target")
        if not (0 < self.q_target <= 1):
            raise FieldError("q_target", "q_target must lie in (0, 1]")


@dataclass
class StepRecord:
    step: int
    observation: Observation
    action: int
    applied_delta: int
    reward: float
    arrived: int
    completed: int
    hits: int
    reward_terms: dict = field(default_factory=dict)


_STEP_SCALARS = ("action", "applied_delta", "reward", "arrived", "completed",
                 "hits")
STEP_COLUMNS = ("step", *OBSERVATION_FIELDS, *_STEP_SCALARS)
_step_scalar_values = attrgetter(*_STEP_SCALARS)


@dataclass(slots=True)
class TaskRecord:
    task_id: int
    arrival: float
    size: int
    service: float
    deadline: float
    completion: float  # nan when never completed
    met: bool
    phase_index: int = 0


@dataclass
class EpisodeLog:
    """Per-step and per-task records of one episode."""

    n_tasks: int = 0
    steps: list = field(default_factory=list)
    tasks: list = field(default_factory=list)

    def add_step(self, record: StepRecord):
        self.steps.append(record)

    def add_task(self, record: TaskRecord):
        self.tasks.append(record)

    @property
    def total_arrived(self) -> int:
        return sum(s.arrived for s in self.steps)

    @property
    def total_completed(self) -> int:
        return sum(s.completed for s in self.steps)

    def step_rows(self) -> Iterable[tuple]:
        for s in self.steps:
            yield (s.step, *s.observation.as_tuple(), *_step_scalar_values(s))

    def write_step_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(STEP_COLUMNS)
            writer.writerows(self.step_rows())

    def write_task_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TASK_COLUMNS)
            for t in self.tasks:
                writer.writerow((t.task_id, t.arrival, t.size, t.service,
                                 t.deadline, t.completion, int(t.met)))


def read_step_csv(path) -> list:
    """Round-trip loader for the step CSV; observations come back intact."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            obs = Observation(**parse_fields(Observation, row, where))
            records.append(StepRecord(observation=obs,
                                      **parse_fields(StepRecord, row, where)))
    return records
