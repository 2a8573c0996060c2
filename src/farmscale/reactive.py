"""Analytical reactive baselines derived from the farm performance model.

Both policies size the pool for the work seen in the last control step:
new arrivals, queue backlog, and the tasks in flight (the busy workers),
scaled by a service-time estimate (window average for ReactiveAverage,
window maximum for ReactiveMaximum) and mapped to a unit action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def reactive_action(t_service: float, t_step: float, arrived: int,
                    backlog: int, in_flight: int, workers: int,
                    in_flight_weight: float) -> int:
    """delta = (T/T_step) * (k + l + in_flight_weight * m) - w, rounded half
    away from zero and clipped to {-1, 0, +1}; T is the service-time
    estimate, and the rule holds at 0 while T <= 0 (no completion yet)."""
    if t_service <= 0:
        return 0
    delta = (t_service / t_step) * (
        arrived + backlog + in_flight_weight * in_flight) - workers
    rounded = math.floor(delta + 0.5) if delta >= 0 else math.ceil(delta - 0.5)
    return max(-1, min(1, rounded))


@dataclass
class ReactiveAveragePolicy:
    """delta = (T_avg/T_step) * (k + l + m/2) - w."""
    t_step: float

    def select_action(self, obs, record) -> int:
        return reactive_action(obs.t_proc_avg, self.t_step, record.arrived,
                               obs.q_work, record.workers_busy,
                               obs.n_workers, 0.5)


@dataclass
class ReactiveMaximumPolicy:
    """delta = (T_max/T_step) * (k + l + m) - w."""
    t_step: float

    def select_action(self, obs, record) -> int:
        return reactive_action(obs.t_proc_max, self.t_step, record.arrived,
                               obs.q_work, record.workers_busy,
                               obs.n_workers, 1.0)
