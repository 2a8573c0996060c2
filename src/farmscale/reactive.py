"""Analytical reactive baselines derived from the farm performance model.

Both policies size the pool for the work seen in the last control step:
new arrivals, queue backlog, and an in-flight correction, scaled by a
service-time estimate (window average for ReactiveAverage, window maximum
for ReactiveMaximum) and mapped to a unit action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ReactiveInputs:
    t_service: float  # seconds; avg or max processing time
    t_step: float
    k_new: int  # arrivals during the last step
    l_backlog: int  # worker-queue length
    m_active: int  # in-flight estimate
    w_current: int  # effective workers

    def __post_init__(self):
        if self.t_step <= 0:
            raise ValueError("t_step must be positive")
        if min(self.k_new, self.l_backlog, self.m_active, self.w_current) < 0:
            raise ValueError("counts must be nonnegative")


def estimate_active(enqueued_total: int, completed_total: int,
                    q_work_len: int) -> int:
    """In-flight tasks from the mirrored enqueue counter; clamped at 0."""
    m = enqueued_total - completed_total - q_work_len
    return max(0, m)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def _to_action(delta: float) -> int:
    return max(-1, min(1, _round_half_away(delta)))


def _reactive_action(inputs: ReactiveInputs, in_flight_weight: float) -> int:
    """delta = (T/T_step) * (k + l + in_flight_weight * m) - w, mapped to
    {-1, 0, +1}; T is the service-time estimate in ``inputs``."""
    if inputs.t_service <= 0:
        return 0  # no completion history yet: hold
    delta = (inputs.t_service / inputs.t_step) * (
        inputs.k_new + inputs.l_backlog + in_flight_weight * inputs.m_active
    ) - inputs.w_current
    return _to_action(delta)


def reactive_average(inputs: ReactiveInputs) -> int:
    """delta = (T_avg/T_step) * (k + l + m/2) - w, mapped to {-1, 0, +1}."""
    return _reactive_action(inputs, 0.5)


def reactive_maximum(inputs: ReactiveInputs) -> int:
    """delta = (T_max/T_step) * (k + l + m) - w, mapped to {-1, 0, +1}."""
    return _reactive_action(inputs, 1.0)


class _ReactivePolicy:
    """Shared glue mapping (observation, step info) to ReactiveInputs."""

    def __init__(self, t_step: float):
        self.t_step = t_step

    def _inputs(self, obs, info, t_service):
        snap = info["snapshot"]
        m = estimate_active(snap.enqueued_total, snap.completed_total,
                            snap.q_work)
        return ReactiveInputs(
            t_service=t_service, t_step=self.t_step,
            k_new=info["arrived"], l_backlog=obs.q_work,
            m_active=m, w_current=obs.n_workers)


class ReactiveAveragePolicy(_ReactivePolicy):
    def select_action(self, obs, info) -> int:
        return reactive_average(self._inputs(obs, info, obs.t_proc_avg))


class ReactiveMaximumPolicy(_ReactivePolicy):
    def select_action(self, obs, info) -> int:
        return reactive_maximum(self._inputs(obs, info, obs.t_proc_max))
