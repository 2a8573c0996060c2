"""Episodic control environment over the farm simulator.

Follows the usual reset/step interface: each step applies a unit scaling
action at the boundary, advances the simulator by one control interval and
returns the 9-component observation, the shaped reward, a termination flag
and the ``StepRecord`` it logs, which itemizes the reward's seven terms.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .core import (EpisodeLog, Observation, RewardConfig, StepRecord,
                   left_sum)
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
    """Shaped per-step reward; returns (total, terms), the terms a tuple in
    ``REWARD_TERMS`` order and the total their sum in that order.

    The backlog penalty applies only to overflow above the queue target
    (max(0, Q/Q* - 1)^2) and the scaling cost is charged only when a
    nonzero delta was actually applied.
    """
    ratio = backlog / cfg.q_queue_target
    qos_ok = q_k >= cfg.q_target
    # qos_tracking, backlog_penalty, scale_cost, overprovision_penalty,
    # scale_up_bonus, scale_down_bonus, stable_bonus
    terms = (
        cfg.w_qos * (q_k - cfg.q_target),
        -cfg.w_backlog * max(0.0, ratio - 1.0) ** 2,
        -cfg.w_scale if applied_delta != 0 else 0.0,
        (-cfg.w_eff * max(0.0, n_workers - cfg.n_target)
         if backlog <= cfg.q_idle and qos_ok else 0.0),
        (cfg.w_up if applied_delta > 0 and (ratio > 1.0 or not qos_ok)
         else 0.0),
        (cfg.w_down if applied_delta < 0 and ratio <= 1.0 and qos_ok
         else 0.0),
        cfg.w_qos if qos_ok and ratio <= 0.5 else 0.0,
    )
    return left_sum(terms), terms


class FarmEnv:
    """One environment = one simulator; single-owner, reset before use."""

    def __init__(self, episode_config, reward_config: RewardConfig):
        self.config = episode_config
        self.reward_config = reward_config
        # the config is frozen, so the step cap, the step length and the
        # observation window are worked out once
        self.max_steps = (math.ceil(episode_config.total_duration
                                    / episode_config.step_duration)
                          + episode_config.drain_cap)
        self._step_duration = episode_config.step_duration
        self._obs_window = episode_config.obs_window
        self._window_time = self._obs_window * self._step_duration
        self.sim = None
        self.log = None
        self._service = None
        self._terminated = True

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
        """Start an episode over ``workload``, a ``core.Workload`` read as
        it is; returns (obs, step-0 record). An object without a workload's
        columns, a list of its rows say, raises ``AttributeError`` and
        leaves the env terminated."""
        self._terminated = True  # until the new batch is in
        sim = FarmSim(self.config, np.random.default_rng([seed, 1]))
        sim.inject_tasks(workload)
        self.sim = sim
        # the sim appends to its completion records, so the log stays current
        self.log = EpisodeLog(workload, sim.completion_records)
        # the completions' service times in completion order, filled by step
        self._service = np.empty(len(workload))
        self._terminated = False
        snap = self.sim.snapshot()
        obs = self._make_observation(snap, 0, 0, 0)
        # step, observation, action, applied_delta, reward, arrived,
        # completed, hits, workers_busy
        return obs, StepRecord(0, obs, 0, 0, 0.0, 0, 0, 0, snap.workers_busy)

    def step(self, action: int):
        if self._terminated:
            raise LifecycleError("episode already terminated; call reset()")
        sim = self.sim
        # the sim checks the action and raises before it changes anything
        applied = sim.request_scale(action)
        enqueued, done = sim.enqueued_total, len(sim.completion_records)
        sim.advance(self._step_duration)
        steps = self.log.steps
        step = len(steps) + 1

        # this step's figures from the sim's cumulative counts and records
        arrived = sim.enqueued_total - enqueued
        records = sim.completion_records[done:]
        completed = len(records)
        hits = sum(map(itemgetter(2), records))  # the records' met flags
        service = self.log.tasks.service_time
        self._service[done:done + completed] = [service[i]
                                                for i, _, _ in records]

        snap = sim.snapshot()
        obs = self._make_observation(snap, arrived, completed, hits)
        reward, terms = compute_reward(
            self.reward_config, obs.qos_step, obs.q_work,
            obs.n_workers, applied)

        # by conservation, nothing is pending, queued or running
        drained = snap.completed_total == len(self.log.tasks)
        self._terminated = drained or step >= self.max_steps

        record = StepRecord(step, obs, int(action), applied, reward, arrived,
                            completed, hits, snap.workers_busy, terms)
        steps.append(record)
        return obs, reward, self._terminated, record

    def _make_observation(self, snap, arrived: int, completed: int,
                          hits: int) -> Observation:
        """The window is this step's counts and the last ``obs_window - 1``
        logged steps; its service times are the newest ``n`` entries of the
        service-time column."""
        steps = self.log.steps
        n, window_arrivals = completed, arrived
        for s in steps[max(0, len(steps) + 1 - self._obs_window):]:
            n += s.completed
            window_arrivals += s.arrived
        if n:
            total = snap.completed_total
            window = self._service[total - n:total]  # a view, not a copy
            # the bits of np.mean and ndarray.max, without their wrappers
            t_avg = float(np.add.reduce(window)) / n
            t_max = float(np.maximum.reduce(window))
        else:
            t_avg = t_max = 0.0
        # without a completion this step, the last step's QoS carries over
        qos = (hits / completed if completed
               else steps[-1].observation.qos_step if steps else 1.0)
        # q_in, q_work, q_res, q_out, n_workers, t_proc_avg, t_proc_max,
        # arrival_rate, qos_step; the emitter and collector are zero-delay,
        # so q_in, q_res and q_out are 0: see sim.py
        return Observation(0, snap.q_work, 0, 0, snap.workers_effective,
                           t_avg, t_max, window_arrivals / self._window_time,
                           qos)
