"""Episodic control environment over the farm simulator.

Follows the usual reset/step interface: each step applies a unit scaling
action at the boundary, advances the simulator by one control interval and
returns the 9-component observation, the shaped reward (with its seven
terms itemized in ``info``) and a termination flag.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain

import numpy as np

from .core import (ACTIONS, EpisodeLog, Observation, StepRecord,
                   RewardConfig, as_action)
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


# normalization caps of the queue lengths and t_proc (s); larger values clip
QUEUE_CAP = 300.0
T_PROC_CAP = 3.0


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
    def max_steps(self) -> int:
        return (math.ceil(self.config.total_duration
                          / self.config.step_duration)
                + self.config.drain_cap)

    def observation_bounds(self):
        """Per-dimension (low, high) bounds used by agents for normalization."""
        max_rate = max(
            (p.base_rate * (p.multiplier if p.kind == "steady" else p.mult_max)
             for p in self.config.phases), default=1.0)
        lows = np.zeros(9)
        highs = np.array([QUEUE_CAP, QUEUE_CAP, QUEUE_CAP, QUEUE_CAP,
                          self.config.n_max, T_PROC_CAP, T_PROC_CAP,
                          max_rate, 1.0])
        return lows, highs

    def reset(self, workload, seed: int):
        """Start a fresh episode over the given task list."""
        self.sim = FarmSim(self.config, np.random.default_rng([seed, 1]))
        self.sim.inject_tasks(workload)
        # the sim appends to its completion records, so the log stays current
        self.log = EpisodeLog(list(workload), self.sim.completion_records)
        # per step of the last obs_window: its service times, its arrivals
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
        action_int = as_action(action)
        if action_int is None:
            raise ValueError(f"action must be in {ACTIONS}, got {action!r}")

        sim = self.sim
        applied = sim.request_scale(action_int)
        enqueued, done = sim.enqueued_total, len(sim.completion_records)
        sim.advance(self.config.step_duration)
        step = len(self.log.steps) + 1

        # this step's figures from the sim's cumulative counts and records
        arrived = sim.enqueued_total - enqueued
        records = sim.completion_records[done:]
        completed = len(records)
        hits = sum([met for _, _, met in records])
        self._completion_window.append(
            [task.service_time for task, _, _ in records])
        self._arrival_window.append(arrived)
        if completed > 0:
            self._last_qos = hits / completed

        snap = sim.snapshot()
        obs = self._make_observation(snap)
        reward, terms = compute_reward(
            self.reward_config, obs.qos_step, obs.q_work,
            obs.n_workers, applied)

        # by conservation, nothing is pending, queued or running
        drained = len(sim.completion_records) == len(self.log.tasks)
        self._terminated = drained or step >= self.max_steps

        self.log.add_step(StepRecord(
            step=step, observation=obs, action=action_int,
            applied_delta=applied, reward=reward, arrived=arrived,
            completed=completed, hits=hits, reward_terms=terms))

        info = {
            "arrived": arrived,
            "completed": completed,
            "hits": hits,
            "applied_delta": applied,
            "reward_terms": terms,
            "snapshot": snap,
        }
        return obs, reward, self._terminated, info

    def _make_observation(self, snap) -> Observation:
        window = self._completion_window
        n = sum(map(len, window))
        if n:
            durations = np.fromiter(chain.from_iterable(window), float, n)
            t_avg = float(durations.sum()) / n  # the bits of np.mean
            t_max = float(durations.max())
        else:
            t_avg = t_max = 0.0
        window_arrivals = sum(self._arrival_window)
        window_time = self.config.obs_window * self.config.step_duration
        return Observation(
            q_in=0,  # zero-delay emitter and collector: see sim.py
            q_work=snap.q_work,
            q_res=0,
            q_out=0,
            n_workers=snap.workers_effective,
            t_proc_avg=t_avg,
            t_proc_max=t_max,
            arrival_rate=window_arrivals / window_time,
            qos_step=self._last_qos,
        )
