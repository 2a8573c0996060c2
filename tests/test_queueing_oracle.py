"""The simulator against queueing theory: fixed pools fed Poisson arrivals.

An M/M/4 queue at rho = 0.75: a fixed warm pool of c = 4 workers serves
Poisson arrivals at lambda = 3 tasks/s with exponential service of mean 1 s.
Erlang C gives the exact probability of waiting, the mean wait in the queue
and the FIFO wait tail C * exp(-(c*mu - lambda) * t) (Kleinrock, *Queueing
Systems* vol. 1, 1975), and Little's law (Little, 1961) the mean number
waiting. Three more M/M/c queues, M/M/4 at rho = 0.5, M/M/1 at rho = 0.7
and M/M/10 at rho = 0.8, check Erlang C's mean wait over other pool sizes
and loads. Two M/D/1 queues, at rho = 0.5 and 0.8, serve the same kind of
stream with a fixed service time of 1 s; Pollaczek-Khinchine gives their
mean waits, 0.5 s and 2 s. Deadlines are far above any service time, so
nothing but the queue shapes a run. A cold pool of n workers comes up by n
sequential starts, each uniform in [lo, hi], so the last is ready at
n * (lo + hi) / 2 on average. Every other check of ``FarmSim`` compares it
with itself or with a model written the same way; these compare it,
``snapshot()`` included, with theory.

Each tolerance is the half-width of a 99% batch-means confidence interval
(Law and Kelton, *Simulation Modeling and Analysis*): the first 10% of a
run is dropped as warm-up and the rest split into 20 batches in time order;
independent samples, the cold starts, drop nothing. The level, the warm-up,
the batch count and the seed were fixed before the first run. A wait is
recovered as ``completion - arrival - service``, which rounds at large
clocks (near 6.7e4 s in the M/M/4 run), so waits are compared with a 1e-6
tolerance.
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
COLD_STARTS = 2_000  # cold pools per pool size


def erlang_c(c: int, lam: float, mu: float) -> float:
    """Erlang C: the probability that a task of an M/M/c queue waits."""
    a = lam / mu
    top = a ** c / math.factorial(c) * c / (c - a)
    return top / (sum(a ** k / math.factorial(k) for k in range(c)) + top)


def erlang_c_wait(c: int, lam: float, mu: float) -> float:
    """Mean wait in the queue of an M/M/c queue: Erlang C's probability of
    waiting over c*mu - lambda."""
    return erlang_c(c, lam, mu) / (c * mu - lam)


def pollaczek_khinchine_wait(lam: float, service: float) -> float:
    """Mean wait in the queue of an M/D/1 queue with a fixed service time:
    lambda * E[S^2] / (2 * (1 - rho))."""
    return lam * service ** 2 / (2 * (1 - lam * service))


def batch_means(values, warm_up=WARM_UP) -> tuple:
    """(mean, 99% half-width) of ``values`` in time order, the first
    ``warm_up`` share dropped, from ``BATCHES`` batch means."""
    kept = np.asarray(values, dtype=float)[int(warm_up * len(values)):]
    means = [batch.mean() for batch in np.array_split(kept, BATCHES)]
    return (float(np.mean(means)),
            T_99 * float(np.std(means, ddof=1)) / math.sqrt(BATCHES))


def run_queue(servers, rate, draw_service, sample=False):
    """A fixed warm pool of ``servers`` fed ``N_TASKS`` Poisson arrivals at
    ``rate`` with service times ``draw_service(rng)``; returns the tasks, each
    task's wait, and with ``sample`` ``snapshot().q_work`` every 1 s until
    the last arrival."""
    rng = np.random.default_rng(SEED)
    arrival = np.cumsum(rng.exponential(1 / rate, N_TASKS)).tolist()
    service = draw_service(rng)
    tasks = Workload(arrival, [1024] * N_TASKS, service, [1e9] * N_TASKS,
                     [0] * N_TASKS)
    cfg = single_phase_config(rate, 60.0, n_min=servers, n_init=servers,
                              n_max=servers, warm_start=True)
    sim = FarmSim(cfg, np.random.default_rng([SEED, 1]))
    sim.inject_tasks(tasks)
    queued = []
    while sample and sim.clock + 1.0 <= arrival[-1]:
        sim.advance(1.0)
        queued.append(sim.snapshot().q_work)
    while len(sim.completion_records) < N_TASKS:
        sim.advance(60.0)
    wait = [0.0] * N_TASKS
    for task_id, done, _ in sim.completion_records:
        wait[task_id] = done - arrival[task_id] - service[task_id]
    return tasks, wait, queued


@pytest.fixture(scope="module")
def mm4_run():
    return run_queue(SERVERS, ARRIVAL_RATE, lambda rng: rng.exponential(
        SERVICE_MEAN, N_TASKS).tolist(), sample=True)


def test_erlang_c_reference_value():
    assert erlang_c_wait(SERVERS, ARRIVAL_RATE,
                         1 / SERVICE_MEAN) == pytest.approx(0.509, abs=5e-4)
    assert erlang_c(SERVERS, ARRIVAL_RATE,
                    1 / SERVICE_MEAN) == pytest.approx(0.5094, abs=5e-5)


def test_pollaczek_khinchine_reference_values():
    assert pollaczek_khinchine_wait(0.5, 1.0) == 0.5
    assert pollaczek_khinchine_wait(0.8, 1.0) == pytest.approx(2.0)


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


def test_probability_of_waiting_matches_erlang_c(mm4_run):
    _, wait, _ = mm4_run
    mean, half = batch_means(np.greater(wait, WAIT_TOL))
    exact = erlang_c(SERVERS, ARRIVAL_RATE, 1 / SERVICE_MEAN)
    assert abs(mean - exact) <= half, (mean, half, exact)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_wait_tail_is_the_fifo_exponential(mm4_run, t):
    # first come, first served: P(W > t) = C * exp(-(c*mu - lambda) * t);
    # the mean wait alone does not depend on the queue's order
    _, wait, _ = mm4_run
    mean, half = batch_means(np.greater(wait, t))
    mu = 1 / SERVICE_MEAN
    exact = (erlang_c(SERVERS, ARRIVAL_RATE, mu)
             * math.exp(-(SERVERS * mu - ARRIVAL_RATE) * t))
    assert abs(mean - exact) <= half, (t, mean, half, exact)


def test_snapshot_queue_obeys_littles_law(mm4_run):
    # the mean number waiting is lambda times the mean wait
    _, _, queued = mm4_run
    mean, half = batch_means(queued)
    exact = ARRIVAL_RATE * erlang_c_wait(SERVERS, ARRIVAL_RATE,
                                         1 / SERVICE_MEAN)
    assert abs(mean - exact) <= half, (mean, half, exact)


@pytest.mark.parametrize("servers, rate, exact", [
    (4, 2.0, 0.0870), (1, 0.7, 2.333), (10, 8.0, 0.205)])
def test_mmc_mean_wait_matches_erlang_c(servers, rate, exact):
    mu = 1 / SERVICE_MEAN
    assert erlang_c_wait(servers, rate, mu) == pytest.approx(exact, abs=5e-4)
    _, wait, _ = run_queue(servers, rate, lambda rng: rng.exponential(
        SERVICE_MEAN, N_TASKS).tolist())
    mean, half = batch_means(wait)
    exact = erlang_c_wait(servers, rate, mu)
    assert abs(mean - exact) <= half, (servers, rate, mean, half, exact)


@pytest.mark.parametrize("rate", [0.5, 0.8])
def test_md1_mean_wait_matches_pollaczek_khinchine(rate):
    _, wait, _ = run_queue(1, rate, lambda rng: [1.0] * N_TASKS)
    assert min(wait) > -WAIT_TOL
    mean, half = batch_means(wait)
    exact = pollaczek_khinchine_wait(rate, 1.0)
    assert abs(mean - exact) <= half, (rate, mean, half, exact)


@pytest.mark.parametrize("n", [1, 8, 32])
def test_cold_pool_is_ready_after_n_mean_latencies(n):
    # one cold pool per seed: the last of its n sequential starts is ready
    # after n startup latencies, each uniform in [lo, hi]
    cfg = single_phase_config(1.0, 60.0, n_min=1, n_init=n, n_max=n,
                              warm_start=False)
    ready = [FarmSim(cfg, np.random.default_rng([SEED, k]))._starts[-1]
             for k in range(COLD_STARTS)]
    mean, half = batch_means(ready, warm_up=0.0)
    exact = n * (cfg.latency_lo + cfg.latency_hi) / 2
    assert abs(mean - exact) <= half, (n, mean, half, exact)
