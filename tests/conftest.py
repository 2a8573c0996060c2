"""Shared fixtures: default configs, small workloads, constant-service streams."""

import numpy as np
import pytest

from farmscale.config import (DEFAULTS, episode_config, reward_config,
                              service_model_and_sizes)
from farmscale.core import EpisodeConfig, TaskSpec
from farmscale.workload import WorkloadPhaseSpec, build_episode_workload


@pytest.fixture(scope="session")
def defaults():
    return dict(DEFAULTS)


@pytest.fixture(scope="session")
def ep_config(defaults):
    return episode_config(defaults)


@pytest.fixture(scope="session")
def rw_config(defaults):
    return reward_config(defaults)


@pytest.fixture(scope="session")
def model_and_dist(defaults):
    return service_model_and_sizes(defaults)


@pytest.fixture(scope="session")
def default_workload(ep_config, model_and_dist):
    model, dist = model_and_dist
    return build_episode_workload(ep_config, dist, model,
                                  shuffle_phases=False, rng_seed=0)


def constant_service_tasks(rate: float, duration: float, service: float,
                           beta: float = 2.0, spacing: str = "uniform",
                           seed: int = 0):
    """Deterministic- or Poisson-spaced stream with a fixed service time."""
    if spacing == "uniform":
        arrivals = np.arange(1.0 / rate, duration, 1.0 / rate)
    else:
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2))
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < duration]
    return [
        TaskSpec(task_id=i, arrival_time=float(a), size_px=2048,
                 service_time=service, deadline=beta * service, phase_index=0)
        for i, a in enumerate(arrivals)
    ]


def single_phase_config(rate: float, duration: float, **kwargs) -> EpisodeConfig:
    phase = WorkloadPhaseSpec(kind="steady", base_rate=rate, duration=duration)
    return EpisodeConfig(phases=(phase,), **kwargs)


# the field an error names, for each config key that is not a prefix plus
# the field's name
DERIVED_FIELDS = {"phase_duration": "duration", "poisson_window": "window",
                  "mean_service_target": "mean_target",
                  "latency_lo": "scale_up_latency[0]",
                  "latency_hi": "scale_up_latency[1]"}


def field_of(key: str) -> str:
    """The name of the field that an error about config ``key`` names."""
    for prefix in ("sarsa_", "dqn_", "cost_"):
        if key.startswith(prefix):
            return key[len(prefix):]
    return DERIVED_FIELDS.get(key, key)
