"""The simulator against queueing theory: an M/M/4 queue at rho = 0.75.

A fixed warm pool of c = 4 workers serves Poisson arrivals at lambda = 3
tasks/s with exponential service of mean 1 s, and deadlines far above any
service time, so nothing but the queue shapes the run. Erlang C gives the
exact mean wait in the queue (Kleinrock, *Queueing Systems* vol. 1, 1975),
and Little's law (Little, 1961) the mean number waiting. Every other check
of ``FarmSim`` compares it with itself or with a model written the same
way; these compare it, ``snapshot()`` included, with theory.

Each tolerance is the half-width of a 99% batch-means confidence interval
(Law and Kelton, *Simulation Modeling and Analysis*): the first 10% of the
run is dropped as warm-up and the rest split into 20 batches in time order.
The level, the warm-up, the batch count and the seed were fixed before the
first run. A wait is recovered as ``completion - arrival - service``, which
rounds at clocks near 6.7e4 s, so waits are compared with a 1e-6 tolerance.
"""

import heapq
import math

import numpy as np
import pytest

from farmscale.core import Workload
from farmscale.sim import FarmSim
from tests.conftest import single_phase_config

SERVERS, ARRIVAL_RATE, SERVICE_MEAN = 4, 3.0, 1.0  # rho = 0.75
N_TASKS = 200_000
SEED = 18
WAIT_TOL = 1e-6
BATCHES, WARM_UP = 20, 0.1
T_99 = 2.861  # two-sided 99% quantile of Student's t with 19 degrees


def erlang_c_wait(c: int, lam: float, mu: float) -> float:
    """Mean wait in the queue of an M/M/c queue: Erlang C's probability of
    waiting over c*mu - lambda."""
    a = lam / mu
    top = a ** c / math.factorial(c) * c / (c - a)
    p_wait = top / (sum(a ** k / math.factorial(k) for k in range(c)) + top)
    return p_wait / (c * mu - lam)


def batch_means(values) -> tuple:
    """(mean, 99% half-width) of ``values`` in time order, warm-up dropped,
    from ``BATCHES`` batch means."""
    kept = np.asarray(values, dtype=float)[int(WARM_UP * len(values)):]
    means = [batch.mean() for batch in np.array_split(kept, BATCHES)]
    return (float(np.mean(means)),
            T_99 * float(np.std(means, ddof=1)) / math.sqrt(BATCHES))


@pytest.fixture(scope="module")
def mm4_run():
    """The run's tasks, each task's wait, and ``snapshot().q_work`` sampled
    every 1 s until the last arrival."""
    rng = np.random.default_rng(SEED)
    arrival = np.cumsum(rng.exponential(1 / ARRIVAL_RATE, N_TASKS)).tolist()
    service = rng.exponential(SERVICE_MEAN, N_TASKS).tolist()
    tasks = Workload(range(N_TASKS), arrival, [1024] * N_TASKS, service,
                     [1e9] * N_TASKS, [0] * N_TASKS)
    cfg = single_phase_config(ARRIVAL_RATE, 60.0, n_min=SERVERS,
                              n_init=SERVERS, n_max=SERVERS, warm_start=True)
    sim = FarmSim(cfg, np.random.default_rng([SEED, 1]))
    sim.inject_tasks(tasks)
    queued = []
    while sim.clock + 1.0 <= arrival[-1]:
        sim.advance(1.0)
        queued.append(sim.snapshot().q_work)
    while len(sim.completion_records) < N_TASKS:
        sim.advance(60.0)
    wait = [0.0] * N_TASKS
    for index, done, _ in sim.completion_records:
        wait[index] = done - arrival[index] - service[index]
    return tasks, wait, queued


def test_erlang_c_reference_value():
    assert erlang_c_wait(SERVERS, ARRIVAL_RATE,
                         1 / SERVICE_MEAN) == pytest.approx(0.509, abs=5e-4)


def test_waits_are_the_fifo_recursion(mm4_run):
    # Kiefer-Wolfowitz: a task starts when it arrives or when the earliest
    # free worker frees, whichever is later; first come, first served and
    # work-conserving, whatever worker it takes
    tasks, wait, _ = mm4_run
    free = [0.0] * SERVERS
    expected = []
    for arrival, service in zip(tasks.arrival_time, tasks.service_time):
        start = max(arrival, free[0])
        heapq.heapreplace(free, start + service)
        expected.append(start - arrival)
    assert np.max(np.abs(np.subtract(wait, expected))) < WAIT_TOL
    assert min(wait) > -WAIT_TOL


def test_mean_wait_matches_erlang_c(mm4_run):
    _, wait, _ = mm4_run
    mean, half = batch_means(wait)
    exact = erlang_c_wait(SERVERS, ARRIVAL_RATE, 1 / SERVICE_MEAN)
    assert abs(mean - exact) <= half, (mean, half, exact)


def test_snapshot_queue_obeys_littles_law(mm4_run):
    # the mean number waiting is lambda times the mean wait
    _, _, queued = mm4_run
    mean, half = batch_means(queued)
    exact = ARRIVAL_RATE * erlang_c_wait(SERVERS, ARRIVAL_RATE,
                                         1 / SERVICE_MEAN)
    assert abs(mean - exact) <= half, (mean, half, exact)
