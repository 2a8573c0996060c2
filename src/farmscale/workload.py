"""Calibrated service-time model and four-phase task stream generation.

The service-time model is a quadratic polynomial in image side length,
fitted by least squares to per-size mean pipeline timings. Task streams
are windowed Poisson processes whose per-phase totals are exact: the last
window of each phase is adjusted to hit the configured target count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .core import FieldError, Workload, check_fields, check_value, left_sum

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

# The default four-phase pattern's base arrival rate (tasks/second), phase
# length (seconds) and Poisson window length (seconds)
BASE_RATE = 5.0
PHASE_DURATION = 60.0
POISSON_WINDOW = 5.0


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class ServiceTimeModel:
    """T(x) = a*x^2 + b*x + c; the reduced form pins b = 0."""

    a: float
    b: float
    c: float
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
    return ServiceTimeModel(a=1.7101e-07, b=0.0, c=1.665e-03,
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
    return ServiceTimeModel(a=float(a), b=float(b), c=float(c),
                            r_squared=r2, rss=rss)


@dataclass(frozen=True)
class SizeDistribution:
    sizes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.sizes):
            raise FieldError("weights", f"need one weight per size: "
                             f"{len(self.sizes)} sizes, "
                             f"{len(self.weights)} weights")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or not math.isclose(w.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("sizes must be distinct")

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative weights divided by their last entry, as a
        read-only float array; worked out once per distribution."""
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf


def _mix_mean(theta: float, times: list) -> float:
    """Mean of ``times`` under weights ∝ exp(theta * time), computed with
    each exponent shifted by ``max(times)`` for numerical stability."""
    top = max(times)
    w = [math.exp(theta * (x - top)) for x in times]
    return left_sum(map(mul, w, times)) / left_sum(w)


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
                              mean_target: float = MEAN_SERVICE_TARGET
                              ) -> SizeDistribution:
    """Maximum-entropy weights over ``SUPPORTED_SIZES`` whose mean predicted
    service time hits the target.

    The weights solve w_i ∝ exp(theta * T(size_i)) with theta chosen so that
    sum(w_i * T(size_i)) == mean_target; ``_mix_theta`` finds theta by
    bisection down to a one-ulp bracket.
    """
    check_value("mean_target", mean_target)
    t = np.array([model.predict(s) for s in SUPPORTED_SIZES])
    if not (t.min() < mean_target < t.max()):
        raise FieldError("mean_target",
                         "mean_target outside the achievable range")
    theta = _mix_theta(t.tolist(), mean_target)
    w = np.exp(theta * (t - t.max()))
    w /= w.sum()
    return SizeDistribution(sizes=SUPPORTED_SIZES, weights=tuple(w))


def _size_picks(dist: SizeDistribution, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """n indices into ``dist.sizes`` drawn in one call: the sampling step of
    ``rng.choice(len(dist.sizes), size=n, p=dist.weights)`` without that
    call's argument handling, n doubles from ``rng.random`` placed in the
    normalised cumulative weights, ``dist.cdf``, with
    ``searchsorted(side="right")``."""
    return dist.cdf.searchsorted(rng.random(n), side="right")


@dataclass(frozen=True)
class WorkloadPhaseSpec:
    """One arrival-pattern phase: steady multiplier or sinusoidal modulation."""

    kind: str  # "steady" | "sinusoid"
    base_rate: float  # tasks/second
    duration: float  # seconds
    window: float = POISSON_WINDOW  # Poisson window length, seconds
    multiplier: float = 1.0  # steady only
    mult_min: float = 0.0  # sinusoid only
    mult_max: float = 0.0
    cycles: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("steady", "sinusoid"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if not self.base_rate > 0:
            raise FieldError("base_rate", "base_rate must be positive")
        if self.duration <= 0:
            raise FieldError("duration", "need 0 < window <= duration")
        if self.window <= 0 or self.window > self.duration:
            raise FieldError("window", "need 0 < window <= duration")
        for name in ("multiplier", "mult_min"):
            if not getattr(self, name) >= 0:
                raise FieldError(name, f"{name} must be >= 0")
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

    @cached_property
    def windows(self) -> tuple:
        """The Poisson window layout, worked out once per phase: (means,
        widths, lows) as read-only float arrays, the mean count of every
        window but the last, and the width and the lower edge of every
        window."""
        edges = _window_edges(self.duration, self.window)
        means = np.array([self.rate_integral(lo, hi)
                          for lo, hi in zip(edges[:-2], edges[1:-1])])
        widths = np.array([hi - lo for lo, hi in zip(edges, edges[1:])])
        lows = np.array(edges[:-1])
        for array in (means, widths, lows):
            array.flags.writeable = False
        return means, widths, lows


def default_phases(base_rate: float = BASE_RATE,
                   duration: float = PHASE_DURATION,
                   window: float = POISSON_WINDOW) -> tuple:
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


def generate_phase_arrivals(phase: WorkloadPhaseSpec,
                            rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets within one phase, exactly ``phase.target_count`` of
    them, as a sorted float ndarray (empty when the target is 0).

    Window counts are Poisson with the analytic rate integral as mean. The
    final window is given the whole target, and each count is then capped
    at what the target leaves after the windows before it: the final window
    takes up any shortfall and a surplus is trimmed from the last windows,
    so the total is exact. Instants within a window are uniform order
    statistics. The window layout is the phase's cached ``windows``. All
    window counts come from one ``rng.poisson`` call and all instants from
    one ``rng.random(total)`` call, each double ``u`` mapped to
    ``lo + (hi - lo) * u`` over its window [lo, hi). That is the formula
    ``rng.uniform(lo, hi)`` evaluates on the same double, so the instants
    and the generator state match one ``rng.uniform`` call over
    per-instant window bounds, which match one draw per window, since the
    windows are disjoint and ordered.
    """
    target = phase.target_count
    if target <= 0:
        return np.empty(0)
    means, widths, lows = phase.windows
    counts = rng.poisson(means).tolist()
    counts.append(target)
    total = 0
    for i, count in enumerate(counts):
        counts[i] = min(count, target - total)
        total += counts[i]

    pts = rng.random(total)
    pts *= widths.repeat(counts)
    pts += lows.repeat(counts)
    pts.sort()
    return pts


def phase_order(n_phases: int, shuffle: bool, rng_seed: int) -> list:
    """The order an episode's phases run in: as configured, or with
    ``shuffle`` a permutation drawn from the seed's own shuffle stream."""
    order = list(range(n_phases))
    if shuffle:
        np.random.default_rng([rng_seed, 10_000]).shuffle(order)
    return order


def build_episode_workload(config, dist: SizeDistribution,
                           model: ServiceTimeModel, shuffle_phases: bool,
                           rng_seed: int) -> Workload:
    """All tasks of one episode as a ``Workload``, sorted by arrival.

    The phases run in the order ``phase_order`` gives, and the workload
    keeps that order as its ``phase_order``. Each phase owns a
    private RNG stream keyed by (seed, phase index), so per-phase arrival
    offsets are independent of phase placement. Tasks are ordered by
    arrival, ties by phase index, which the ``Workload`` checks. Service
    time and deadline are worked out and checked once per distinct size,
    and every task of a size shares those two float objects.
    """
    phases = list(config.phases)
    if not phases:
        raise ValueError("config needs at least one phase")

    arrivals, phase_ids = [], []
    position_start = 0.0
    order = phase_order(len(phases), shuffle_phases, rng_seed)
    for phase_idx in order:
        phase = phases[phase_idx]
        phase_rng = np.random.default_rng([rng_seed, phase_idx])
        offsets = generate_phase_arrivals(phase, phase_rng)
        arrivals.append(position_start + offsets)
        phase_ids.append(np.full(len(offsets), phase_idx))
        position_start += phase.duration
    arrival = np.concatenate(arrivals)
    phase_id = np.concatenate(phase_ids)
    rows = np.lexsort((phase_id, arrival))
    # Lists now, so the arrays are freed before the columns are made: kept
    # alive through the build, they left DQN training's peak RSS 1 MB higher.
    arrival, phase_id = arrival[rows].tolist(), phase_id[rows].tolist()
    n = len(rows)

    picks = _size_picks(dist, np.random.default_rng([rng_seed, 20_000]), n)
    # Each size picked is worked out and checked once, in the order the
    # sizes first appear: each column gathers its size's objects from one
    # object array, and every task of a size shares its int and its two
    # floats. A task's deadline is beta * service: ``predict`` refuses a
    # service time that is not positive, ``EpisodeConfig`` a beta not above
    # 1, and the product rounds to service only when the service time is
    # subnormal or infinite.
    per_size = np.empty((3, len(dist.sizes)), dtype=object)
    for k in dict.fromkeys(picks.tolist()):
        size = int(dist.sizes[k])
        service = model.predict(size)
        deadline = config.beta * service
        if deadline <= service:
            raise ValueError("deadline must exceed service_time")
        per_size[:, k] = size, service, deadline
    sizes, services, deadlines = per_size[:, picks].tolist()
    return Workload(arrival, sizes, services, deadlines, phase_id, order)
