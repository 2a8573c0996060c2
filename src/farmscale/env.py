"""Episodic control environment over the farm simulator.

Follows the usual reset/step interface: each step applies a unit scaling
action at the boundary, advances the simulator by one control interval and
returns the 9-component observation, the shaped reward (with its seven
terms itemized in ``info``) and a termination flag.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .core import (EpisodeLog, Observation, StepRecord, TaskRecord,
                   RewardConfig)
from .sim import FarmSim

REWARD_TERMS = (
    "qos_tracking",
    "backlog_penalty",
    "scale_cost",
    "overprovision_penalty",
    "scale_up_bonus",
    "scale_down_bonus",
    "stable_bonus",
)


# (completion, met) of a task that never completed: it counts as missed
_UNFINISHED = (math.nan, False)


class LifecycleError(RuntimeError):
    pass


def compute_reward(cfg: RewardConfig, q_k: float, backlog: float,
                   n_workers: float, applied_delta: int):
    """Shaped per-step reward; returns (total, per-term dict).

    The backlog penalty applies only to overflow above the queue target
    (max(0, Q/Q* - 1)^2) and the scaling cost is charged only when a
    nonzero delta was actually applied.
    """
    ratio = backlog / cfg.q_queue_target
    qos_ok = q_k >= cfg.q_target
    terms = {
        "qos_tracking": cfg.w_qos * (q_k - cfg.q_target),
        "backlog_penalty": -cfg.w_backlog * max(0.0, ratio - 1.0) ** 2,
        "scale_cost": -cfg.w_scale if applied_delta != 0 else 0.0,
        "overprovision_penalty": (
            -cfg.w_eff * max(0.0, n_workers - cfg.n_target)
            if backlog <= cfg.q_idle and qos_ok else 0.0),
        "scale_up_bonus": (
            cfg.w_up if applied_delta > 0 and (ratio > 1.0 or not qos_ok)
            else 0.0),
        "scale_down_bonus": (
            cfg.w_down if applied_delta < 0 and ratio <= 1.0 and qos_ok
            else 0.0),
        "stable_bonus": cfg.w_qos if qos_ok and ratio <= 0.5 else 0.0,
    }
    return sum(terms.values()), terms


class FarmEnv:
    """One environment = one simulator; single-owner, reset before use."""

    def __init__(self, episode_config, reward_config: RewardConfig):
        self.config = episode_config
        self.reward_config = reward_config
        self.sim = None
        self.log = None
        self._terminated = True

    @property
    def nominal_steps(self) -> int:
        return math.ceil(self.config.total_duration / self.config.step_duration)

    @property
    def max_steps(self) -> int:
        return self.nominal_steps + self.config.drain_cap

    def observation_bounds(self, queue_cap: float = 300.0,
                           t_proc_cap: float = 3.0):
        """Per-dimension (low, high) bounds used by agents for normalization."""
        max_rate = max(
            (p.base_rate * (p.multiplier if p.kind == "steady" else p.mult_max)
             for p in self.config.phases), default=1.0)
        lows = np.zeros(9)
        highs = np.array([queue_cap, queue_cap, queue_cap, queue_cap,
                          self.config.n_max, t_proc_cap, t_proc_cap,
                          max_rate, 1.0])
        return lows, highs

    def reset(self, workload, seed: int):
        """Start a fresh episode over the given task list."""
        self.sim = FarmSim(self.config, np.random.default_rng([seed, 1]))
        self.sim.inject_tasks(workload)
        self._workload = list(workload)
        self.log = EpisodeLog(n_tasks=len(workload))
        self.step_index = 0
        self._completion_window = deque(maxlen=self.config.obs_window)
        self._arrival_window = deque(maxlen=self.config.obs_window)
        self._last_qos = 1.0
        self._terminated = False
        snap = self.sim.snapshot()
        info = {"arrived": 0, "completed": 0, "applied_delta": 0,
                "snapshot": snap}
        return self._make_observation(snap), info

    def step(self, action: int):
        if self._terminated:
            raise LifecycleError("episode already terminated; call reset()")
        if action not in (-1, 0, 1):
            raise ValueError(f"action must be in {{-1, 0, +1}}, got {action}")

        applied = self.sim.request_scale(action)
        stats = self.sim.advance(self.config.step_duration)
        self.step_index += 1

        self._completion_window.append(stats.service_times)
        self._arrival_window.append(stats.arrived)
        if stats.completed > 0:
            self._last_qos = stats.hits / stats.completed

        snap = self.sim.snapshot()
        obs = self._make_observation(snap)
        reward, terms = compute_reward(
            self.reward_config, obs.qos_step, obs.q_work,
            obs.n_workers, applied)

        drained = (self.sim.pending_arrivals == 0
                   and snap.q_work == 0 and snap.workers_busy == 0)
        self._terminated = drained or self.step_index >= self.max_steps

        self.log.add_step(StepRecord(
            step=self.step_index, observation=obs, action=action,
            applied_delta=applied, reward=reward, arrived=stats.arrived,
            completed=stats.completed, hits=stats.hits, reward_terms=terms))
        if self._terminated:
            self._finalize_task_records()

        info = {
            "arrived": stats.arrived,
            "completed": stats.completed,
            "hits": stats.hits,
            "applied_delta": applied,
            "reward_terms": terms,
            "snapshot": snap,
        }
        return obs, reward, self._terminated, info

    @property
    def terminated(self) -> bool:
        return self._terminated

    def _make_observation(self, snap) -> Observation:
        durations = [d for step in self._completion_window for d in step]
        window_arrivals = sum(self._arrival_window)
        window_time = self.config.obs_window * self.config.step_duration
        return Observation(
            q_in=0,  # zero-delay emitter and collector: see sim.py
            q_work=snap.q_work,
            q_res=0,
            q_out=0,
            n_workers=snap.workers_effective,
            t_proc_avg=float(np.mean(durations)) if durations else 0.0,
            t_proc_max=float(max(durations)) if durations else 0.0,
            arrival_rate=window_arrivals / window_time,
            qos_step=self._last_qos,
        )

    def _finalize_task_records(self):
        done = {tid: (t, met) for tid, t, met in self.sim.completion_records}
        self.log.tasks = [
            TaskRecord(task.task_id, task.arrival_time, task.size_px,
                       task.service_time, task.deadline, completion, met,
                       task.phase_index)
            for task in self._workload
            for completion, met in [done.get(task.task_id, _UNFINISHED)]]
