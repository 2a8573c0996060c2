"""Episode summaries, per-phase aggregates, and the two pricing models.

Pure post-processing over immutable episode logs. Worker counts are
sampled at step end (post-action, post-advance); per-phase QoS attributes
each task to its emission phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CostConfig:
    c_w: float = 1.0  # currency per worker-second (pay-as-you-go)
    c_scale: float = 0.5  # currency per scaling event
    c_sub: float = 0.6  # currency per reserved worker-second
    c_burst: float = 2.0  # currency per burst worker-second
    n_sub: int = 10  # reserved worker count

    def __post_init__(self):
        if min(self.c_w, self.c_scale, self.c_sub, self.c_burst) < 0:
            raise ValueError("tariffs must be nonnegative")
        if self.n_sub < 0:
            raise ValueError("n_sub must be nonnegative")


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


def summarize_episode(log, config) -> EpisodeSummary:
    """Reduce one episode log; unfinished tasks count as deadline misses."""
    if not log.steps:
        raise ValueError("empty episode log")
    workers = [s.observation.n_workers for s in log.steps]
    n_scale = sum(1 for s in log.steps if s.applied_delta != 0)
    emitted = log.n_tasks or log.total_arrived
    met = completed = 0
    emitted_in = dict.fromkeys(range(len(config.phases)), 0)  # by phase
    met_in = dict(emitted_in)
    for t in log.tasks:
        if t.met:
            met += 1
        if not math.isnan(t.completion):
            completed += 1
        i = t.phase_index
        if i in emitted_in:
            emitted_in[i] += 1
            if t.met:
                met_in[i] += 1

    # step -> phase attribution by step start time over the nominal spans
    spans = []
    start = 0.0
    for i, phase in enumerate(config.phases):
        spans.append((i, start, start + phase.duration))
        start += phase.duration

    per_phase = []
    for i, lo, hi in spans:
        step_workers = [
            s.observation.n_workers for s in log.steps
            if lo <= (s.step - 1) * config.step_duration < hi]
        per_phase.append(PhaseSummary(
            phase_index=i,
            qos=met_in[i] / emitted_in[i] if emitted_in[i] else 1.0,
            mean_workers=float(np.mean(step_workers)) if step_workers else 0.0,
            emitted=emitted_in[i],
            met=met_in[i],
        ))

    return EpisodeSummary(
        final_qos=met / emitted if emitted else 1.0,
        n_mean=float(np.mean(workers)),
        n_max=int(max(workers)),
        n_scale=n_scale,
        no_ops=len(log.steps) - n_scale,
        steps=len(log.steps),
        duration=len(log.steps) * config.step_duration,
        total_reward=float(sum(s.reward for s in log.steps)),
        emitted=emitted,
        completed=completed,
        met=met,
        per_phase=per_phase,
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


def aggregate(values) -> tuple:
    """(mean, population std) of a sequence."""
    arr = np.asarray(list(values), dtype=float)
    return float(arr.mean()), float(arr.std())
