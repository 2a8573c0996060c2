"""Shared fixtures: default configs, small workloads, constant-service
streams, and ``workload_of``, the rows-to-``Workload`` step of the tests."""

import numpy as np
import pytest

from farmscale.config import (DEFAULTS, episode_config, reward_config,
                              service_model_and_sizes)
from farmscale.core import EpisodeConfig, TaskSpec, Workload
from farmscale.sim import FarmSim
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


def workload_of(rows, phase_order=()) -> Workload:
    """The ``Workload`` of ``rows``, tuples in ``TaskSpec`` field order
    whose ids are their positions, with ``phase_order``."""
    rows = list(rows)
    ids, *columns = zip(*rows) if rows else ((),) * len(TaskSpec._fields)
    assert ids == tuple(range(len(rows))), "row ids must be their positions"
    return Workload(*columns, phase_order)


def constant_service_tasks(rate: float, duration: float, service: float,
                           beta: float = 2.0, spacing: str = "uniform",
                           seed: int = 0) -> Workload:
    """Deterministic- or Poisson-spaced stream with a fixed service time."""
    if spacing == "uniform":
        arrivals = np.arange(1.0 / rate, duration, 1.0 / rate)
    else:
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2))
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < duration]
    return workload_of(
        TaskSpec(task_id=i, arrival_time=float(a), size_px=2048,
                 service_time=service, deadline=beta * service, phase_index=0)
        for i, a in enumerate(arrivals))


def single_phase_config(rate: float, duration: float, **kwargs) -> EpisodeConfig:
    phase = WorkloadPhaseSpec(kind="steady", base_rate=rate, duration=duration)
    return EpisodeConfig(phases=(phase,), **kwargs)


def fuzz_sim(seed, rate=8.0, n_init=2, n_min=1, n_tasks=3500, trace=False):
    """A validating simulator run on ``n_tasks`` Poisson arrivals at
    ``rate`` tasks/s, service times uniform in [0.05, 2.5] s and deadline
    3 s, under 150 random scale requests 4 s apart on a pool of ``n_min``
    to 12 workers (``n_init`` at the start), then drained. The defaults
    are acceptance criterion 3's run."""
    cfg = single_phase_config(rate, 600.0, n_init=n_init, n_min=n_min,
                              n_max=12, warm_start=True)
    policy_rng = np.random.default_rng([seed, 77])
    task_rng = np.random.default_rng([seed, 78])
    sim = FarmSim(cfg, np.random.default_rng([seed, 79]),
                  validate=True, trace=trace)
    arrivals = np.cumsum(task_rng.exponential(1 / rate, size=n_tasks))
    sim.inject_tasks(workload_of(
        TaskSpec(task_id=i, arrival_time=float(a), size_px=1024,
                 service_time=float(task_rng.uniform(0.05, 2.5)),
                 deadline=3.0, phase_index=0)
        for i, a in enumerate(arrivals)))
    for _ in range(150):
        sim.request_scale(int(policy_rng.integers(-1, 2)))
        sim.advance(4.0)
    while len(sim.completion_records) < n_tasks:  # drain the remaining backlog
        sim.advance(60.0)
    return sim


# the field an error names, for each config key that is not a prefix plus
# the field's name
DERIVED_FIELDS = {"phase_duration": "duration", "poisson_window": "window",
                  "mean_service_target": "mean_target"}


def field_of(key: str) -> str:
    """The name of the field that an error about config ``key`` names."""
    for prefix in ("sarsa_", "dqn_", "cost_"):
        if key.startswith(prefix):
            return key[len(prefix):]
    return DERIVED_FIELDS.get(key, key)
