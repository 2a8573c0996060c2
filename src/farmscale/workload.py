"""Calibrated service-time model and four-phase task stream generation.

The service-time model is a quadratic polynomial in image side length,
fitted by least squares to per-size mean pipeline timings. Task streams
are windowed Poisson processes whose per-phase totals are exact: the last
window of each phase is adjusted to hit the configured target count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter, mul

import numpy as np

from .core import FieldError, TaskSpec, compute_deadline, parse_fields

SUPPORTED_SIZES = (512, 1024, 2048, 4096)

# Per-size mean pipeline timings (seconds) used as the default calibration
# sample set; one mean per supported size.
CALIBRATION_SAMPLES = (
    (512, 0.042583251),
    (1024, 0.170206896),
    (2048, 0.737641988),
    (4096, 2.867090161),
)

MEAN_SERVICE_TARGET = 1.5  # seconds, mean per-task load across the size mix


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class ServiceTimeModel:
    """T(x) = a*x^2 + b*x + c; the reduced form pins b = 0."""

    a: float
    b: float
    c: float
    form: str  # "full" | "reduced"
    r_squared: float = float("nan")
    rss: float = float("nan")

    def predict(self, size: float) -> float:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        t = self.a * size * size + self.b * size + self.c
        if t <= 0:
            raise ValueError(f"model predicts non-positive time {t} at size {size}")
        return t


def reduced_paper_model() -> ServiceTimeModel:
    """Reduced quadratic with the published calibration coefficients."""
    return ServiceTimeModel(a=1.7101e-07, b=0.0, c=1.665e-03, form="reduced",
                            r_squared=0.999904, rss=4.946e-04)


def fit_service_model(samples, form: str = "reduced") -> ServiceTimeModel:
    """Least-squares fit of the quadratic model to (size, mean_time) pairs."""
    if form not in ("full", "reduced"):
        raise ValueError(f"unknown form {form!r}")
    sizes = np.array([s for s, _ in samples], dtype=float)
    times = np.array([t for _, t in samples], dtype=float)
    n_distinct = len(np.unique(sizes))
    needed = 4 if form == "full" else 3
    if n_distinct < needed:
        raise FitError(f"{form} fit needs >= {needed} distinct sizes, got {n_distinct}")

    if form == "full":
        design = np.column_stack([sizes**2, sizes, np.ones_like(sizes)])
    else:
        design = np.column_stack([sizes**2, np.ones_like(sizes)])
    coef, _, rank, _ = np.linalg.lstsq(design, times, rcond=None)
    if rank < design.shape[1]:
        raise FitError("rank-deficient sample set")

    resid = times - design @ coef
    rss = float(resid @ resid)
    ss_tot = float(np.sum((times - times.mean()) ** 2))
    r2 = 1.0 - rss / ss_tot if ss_tot > 0 else 1.0
    if form == "full":
        a, b, c = coef
    else:
        a, c = coef
        b = 0.0
    return ServiceTimeModel(a=float(a), b=float(b), c=float(c), form=form,
                            r_squared=r2, rss=rss)


@dataclass(frozen=True)
class SizeDistribution:
    sizes: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or not math.isclose(w.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("sizes must be distinct")


def _mix_mean(theta: float, times: list) -> float:
    """Mean of ``times`` under weights ∝ exp(theta * time), computed with
    each exponent shifted by ``max(times)`` for numerical stability."""
    top = max(times)
    w = [math.exp(theta * (x - top)) for x in times]
    return sum(map(mul, w, times)) / sum(w)


def _mix_theta(times: list, mean_target: float) -> float:
    """The theta at which ``_mix_mean`` crosses ``mean_target``, by bisection.

    The mean rises with theta, so halving [-200, 200] keeps
    ``_mix_mean(lo) < mean_target <= _mix_mean(hi)``. It stops when the
    midpoint rounds to one of the ends, that is when lo and hi are adjacent
    floats (about 63 halvings), and returns lo.
    """
    lo, hi = -200.0, 200.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _mix_mean(mid, times) < mean_target:
            lo = mid
        else:
            hi = mid
    return lo


def default_size_distribution(model: ServiceTimeModel,
                              mean_target: float = MEAN_SERVICE_TARGET,
                              sizes=SUPPORTED_SIZES) -> SizeDistribution:
    """Maximum-entropy weights whose mean predicted service time hits the target.

    The weights solve w_i ∝ exp(theta * T(size_i)) with theta chosen so that
    sum(w_i * T(size_i)) == mean_target; ``_mix_theta`` finds theta by
    bisection down to a one-ulp bracket.
    """
    t = np.array([model.predict(s) for s in sizes])
    if not (t.min() < mean_target < t.max()):
        raise FieldError("mean_target",
                         "mean_target outside the achievable range")
    theta = _mix_theta(t.tolist(), mean_target)
    w = np.exp(theta * (t - t.max()))
    w /= w.sum()
    return SizeDistribution(sizes=tuple(sizes), weights=tuple(w))


def sample_task_sizes(dist: SizeDistribution, rng: np.random.Generator,
                      n: int) -> list:
    """n sizes drawn in one call, as Python ints.

    Consumes ``rng`` exactly like n single ``rng.choice(dist.sizes,
    p=dist.weights)`` draws, so the sizes and the generator state match.
    """
    picks = rng.choice(len(dist.sizes), size=n, p=dist.weights)
    return [int(dist.sizes[i]) for i in picks.tolist()]


@dataclass(frozen=True)
class WorkloadPhaseSpec:
    """One arrival-pattern phase: steady multiplier or sinusoidal modulation."""

    kind: str  # "steady" | "sinusoid"
    base_rate: float  # tasks/second
    duration: float  # seconds
    window: float = 5.0  # Poisson window length, seconds
    multiplier: float = 1.0  # steady only
    mult_min: float = 0.0  # sinusoid only
    mult_max: float = 0.0
    cycles: int = 1

    def __post_init__(self):
        if self.kind not in ("steady", "sinusoid"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.duration <= 0:
            raise FieldError("duration", "need 0 < window <= duration")
        if self.window <= 0 or self.window > self.duration:
            raise FieldError("window", "need 0 < window <= duration")
        if self.kind == "sinusoid":
            if not (self.mult_min < self.mult_max) or self.cycles < 1:
                raise ValueError("sinusoid needs mult_min < mult_max and cycles >= 1")

    @property
    def mean_multiplier(self) -> float:
        if self.kind == "steady":
            return self.multiplier
        return 0.5 * (self.mult_min + self.mult_max)

    @property
    def target_count(self) -> int:
        return round(self.base_rate * self.mean_multiplier * self.duration)

    def rate_integral(self, t0: float, t1: float) -> float:
        """Integral of the arrival rate over [t0, t1], t relative to phase start."""
        if self.kind == "steady":
            return self.base_rate * self.multiplier * (t1 - t0)
        mid = 0.5 * (self.mult_min + self.mult_max)
        amp = 0.5 * (self.mult_max - self.mult_min)
        omega = 2.0 * math.pi * self.cycles / self.duration
        osc = -(amp / omega) * (math.cos(omega * t1) - math.cos(omega * t0))
        return self.base_rate * (mid * (t1 - t0) + osc)


def default_phases(base_rate: float = 5.0, duration: float = 60.0,
                   window: float = 5.0) -> tuple:
    """The four-phase pattern: steady low/high, slow and fast oscillation."""
    return (
        WorkloadPhaseSpec("steady", base_rate, duration, window, multiplier=0.3),
        WorkloadPhaseSpec("steady", base_rate, duration, window, multiplier=1.5),
        WorkloadPhaseSpec("sinusoid", base_rate, duration, window,
                          mult_min=0.5, mult_max=1.5, cycles=1),
        WorkloadPhaseSpec("sinusoid", base_rate, duration, window,
                          mult_min=0.3, mult_max=1.7, cycles=4),
    )


def _window_edges(duration: float, window: float) -> list:
    edges = [i * window for i in range(int(math.ceil(duration / window)) + 1)]
    edges[-1] = duration
    if len(edges) >= 2 and edges[-1] == edges[-2]:
        edges.pop()
    return edges


def generate_phase_arrivals(phase: WorkloadPhaseSpec, phase_start: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Arrival instants for one phase, exactly ``phase.target_count`` of them,
    as a sorted float ndarray (empty when the target is 0).

    Window counts are Poisson with the analytic rate integral as mean; the
    final window absorbs the difference so the total is exact. Instants
    within a window are uniform order statistics. All window counts come
    from one ``rng.poisson`` call and all instants from one ``rng.uniform``
    call over per-instant window bounds: the same stream and the same values
    as one draw per window, since the windows are disjoint and ordered.
    """
    target = phase.target_count
    if target <= 0:
        return np.empty(0)
    edges = _window_edges(phase.duration, phase.window)
    means = [phase.rate_integral(lo, hi)
             for lo, hi in zip(edges[:-2], edges[1:-1])]
    counts = rng.poisson(means).tolist()
    last = target - sum(counts)
    if last < 0:
        # Surplus: zero the final window and trim the excess from the tail
        # of the last nonempty windows.
        counts.append(0)
        surplus = -last
        for i in range(len(counts) - 1, -1, -1):
            take = min(surplus, counts[i])
            counts[i] -= take
            surplus -= take
            if surplus == 0:
                break
    else:
        counts.append(last)

    pts = rng.uniform(np.repeat(edges[:-1], counts),
                      np.repeat(edges[1:], counts))
    pts.sort()
    return phase_start + pts


def build_episode_workload(config, dist: SizeDistribution,
                           model: ServiceTimeModel, shuffle_phases: bool,
                           rng_seed: int) -> list:
    """Full task list for one episode, sorted by arrival, ids in arrival order.

    Each phase owns a private RNG stream keyed by (seed, phase index), so
    per-phase arrival offsets are independent of phase placement.
    """
    phases = list(config.phases)
    if not phases:
        raise ValueError("config needs at least one phase")
    order = list(range(len(phases)))
    if shuffle_phases:
        shuffle_rng = np.random.default_rng([rng_seed, 10_000])
        shuffle_rng.shuffle(order)

    entries = []  # (arrival_time as a Python float, phase_index)
    position_start = 0.0
    for phase_idx in order:
        phase = phases[phase_idx]
        phase_rng = np.random.default_rng([rng_seed, phase_idx])
        offsets = generate_phase_arrivals(phase, 0.0, phase_rng)
        entries.extend(zip((position_start + offsets).tolist(),
                           repeat(phase_idx)))
        position_start += phase.duration

    entries.sort()
    sizes = sample_task_sizes(
        dist, np.random.default_rng([rng_seed, 20_000]), len(entries))
    timing = {}  # size -> (service, deadline), once per distinct size
    for size in dict.fromkeys(sizes):
        service = model.predict(size)
        timing[size] = (service, compute_deadline(service, config.beta))
    return [
        TaskSpec(task_id, arrival, size, service, deadline, phase_idx)
        for task_id, ((arrival, phase_idx), size, (service, deadline))
        in enumerate(zip(entries, sizes, map(timing.__getitem__, sizes)))
    ]


WORKLOAD_COLUMNS = tuple(f.name for f in fields(TaskSpec))


def write_workload_csv(tasks, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WORKLOAD_COLUMNS)
        writer.writerows(map(attrgetter(*WORKLOAD_COLUMNS), tasks))


def read_workload_csv(path) -> list:
    """Tasks written by ``write_workload_csv``. A missing, unconvertible or
    invalid value raises ``ValueError("<path>:<line>: ...")``."""
    tasks = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            kwargs = parse_fields(TaskSpec, row, where)
            try:
                tasks.append(TaskSpec(**kwargs))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return tasks
