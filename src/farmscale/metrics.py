"""Episode summaries, per-phase aggregates, and the two pricing models.

Pure post-processing over immutable episode logs. Worker counts are
sampled at step end (post-action, post-advance) and kept per step in the
summary, where the pricing models read them; per-phase QoS attributes each
task to its emission phase, and per-phase workers follow the order the
phases ran in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import FieldError, check_fields, left_sum


@dataclass(frozen=True)
class CostConfig:
    c_w: float = 1.0  # currency per worker-second (pay-as-you-go)
    c_scale: float = 0.5  # currency per scaling event
    c_sub: float = 0.6  # currency per reserved worker-second
    c_burst: float = 2.0  # currency per burst worker-second
    n_sub: int = 10  # reserved worker count

    def __post_init__(self):
        check_fields(self)
        for name in ("c_w", "c_scale", "c_sub", "c_burst"):
            if getattr(self, name) < 0:
                raise FieldError(name, "tariffs must be nonnegative")
        if self.n_sub < 0:
            raise FieldError("n_sub", "n_sub must be nonnegative")


@dataclass
class PhaseSummary:
    phase_index: int
    qos: float
    mean_workers: float
    emitted: int
    met: int


@dataclass
class EpisodeSummary:
    final_qos: float
    n_mean: float
    n_max: int
    n_scale: int
    no_ops: int
    steps: int
    duration: float
    total_reward: float
    emitted: int
    completed: int
    met: int
    per_phase: list = field(default_factory=list)
    workers: list = field(default_factory=list)  # per step; not in as_dict

    def as_dict(self) -> dict:
        return {
            "final_qos": self.final_qos,
            "mean_workers": self.n_mean,
            "max_workers": self.n_max,
            "scaling_actions": self.n_scale,
            "no_op_actions": self.no_ops,
            "steps": self.steps,
            "duration": self.duration,
            "total_reward": self.total_reward,
            "emitted": self.emitted,
            "completed": self.completed,
            "met": self.met,
            "per_phase": [
                {"phase": p.phase_index, "qos": p.qos,
                 "mean_workers": p.mean_workers,
                 "emitted": p.emitted, "met": p.met}
                for p in self.per_phase
            ],
        }


def _mean_of_ints(values) -> float:
    """Mean of integers: the sum is exact, so one rounding gives the bits
    of ``np.mean`` (whose float64 partial sums are exact below 2**53)."""
    return float(sum(values)) / len(values)


def _count_sorted(values, x) -> int:
    """The number of items equal to ``x`` in the sorted list ``values``."""
    return bisect_right(values, x) - bisect_left(values, x)


def summarize_episode(log, config) -> EpisodeSummary:
    """Reduce one episode log; unfinished tasks count as deadline misses."""
    steps = log.steps
    if not steps:
        raise ValueError("empty episode log")
    workers = [s.observation.n_workers for s in steps]
    n_scale = sum(1 for s in steps if s.applied_delta != 0)
    emitted = log.n_tasks
    # the phase of each task and of each task that met its deadline, sorted,
    # so a phase's counts take two bisects each, not a scan per phase
    phases = log.tasks.phase_index
    emitted_phases = sorted(phases)
    met_phases = sorted([phases[i] for i, _, met in log.completions if met])
    met = len(met_phases)
    completed = len(log.completions)

    # step -> time slot by step start time over the spans [start, end) of
    # the phases in the order they ran; slot k ran phase order[k]
    order = log.tasks.phase_order or range(len(config.phases))
    ends = list(accumulate(config.phases[i].duration for i in order))
    phase_workers = [[] for _ in ends]
    for s, n in zip(steps, workers):
        slot = bisect_right(ends, (s.step - 1) * config.step_duration)
        if slot < len(ends):
            phase_workers[order[slot]].append(n)

    per_phase = []
    for i, w in enumerate(phase_workers):
        emitted_in = _count_sorted(emitted_phases, i)
        met_in = _count_sorted(met_phases, i)
        per_phase.append(PhaseSummary(
            i, met_in / emitted_in if emitted_in else 1.0,
            _mean_of_ints(w) if w else 0.0, emitted_in, met_in))

    return EpisodeSummary(
        final_qos=met / emitted if emitted else 1.0,
        n_mean=_mean_of_ints(workers),
        n_max=int(max(workers)),
        n_scale=n_scale,
        no_ops=len(steps) - n_scale,
        steps=len(steps),
        duration=len(steps) * config.step_duration,
        total_reward=left_sum(s.reward for s in steps),
        emitted=emitted,
        completed=completed,
        met=met,
        per_phase=per_phase,
        workers=workers,
    )


def _scale_events(n_series) -> int:
    """Count of nonzero worker-count changes, first step excluded."""
    n = list(n_series)
    return sum(1 for prev, cur in zip(n[:-1], n[1:]) if cur != prev)


def cost_paygo(n_series, t_step: float, cfg: CostConfig) -> float:
    """c_w * sum(N_k * T_step) + c_scale * #reconfigurations."""
    n = list(n_series)
    if not n:
        raise ValueError("empty worker series")
    return cfg.c_w * sum(n) * t_step + cfg.c_scale * _scale_events(n)


def cost_sub(n_series, t_step: float, cfg: CostConfig) -> float:
    """Reserved baseline plus burst usage plus per-reconfiguration charge."""
    n = list(n_series)
    if not n:
        raise ValueError("empty worker series")
    horizon = len(n) * t_step
    burst = sum(max(0, nk - cfg.n_sub) for nk in n) * t_step
    return (cfg.c_sub * cfg.n_sub * horizon
            + cfg.c_burst * burst
            + cfg.c_scale * _scale_events(n))


def aggregate_rows(rows) -> tuple:
    """(means, population stds) of equal-length rows, as two lists.

    One reduction over the last axis of one array; each row's values have
    the bits of ``np.mean``/``np.std`` of that row alone.
    """
    arr = np.array(rows, dtype=float)
    return arr.mean(axis=1).tolist(), arr.std(axis=1).tolist()


def aggregate(values) -> tuple:
    """(mean, population std) of a sequence."""
    (mean,), (std,) = aggregate_rows([list(values)])
    return mean, std
