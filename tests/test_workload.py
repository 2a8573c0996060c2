"""Service-time calibration, size distribution, and arrival generation."""

import math
from dataclasses import replace
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from farmscale.core import EpisodeConfig, FieldError, TaskSpec
from farmscale.workload import (CALIBRATION_SAMPLES, SUPPORTED_SIZES,
                                FitError, SizeDistribution, WorkloadPhaseSpec,
                                _mix_mean, _mix_theta, _size_picks,
                                _window_edges,
                                build_episode_workload,
                                default_phases, default_size_distribution,
                                fit_service_model, generate_phase_arrivals,
                                phase_order, reduced_paper_model,
                                ServiceTimeModel)


def sample_task_sizes(dist, rng, n) -> list:
    """n sizes drawn in one call, as Python ints: the sizes the picks of
    ``_size_picks`` name, which the workload build reads, so the sizes and
    the generator state match those of
    ``rng.choice(len(dist.sizes), size=n, p=dist.weights)``, which are those
    of n single ``rng.choice(dist.sizes, p=dist.weights)`` draws. The n
    sizes share the distinct sizes' int objects, as a built workload's do."""
    sizes = [int(s) for s in dist.sizes]
    return list(map(sizes.__getitem__, _size_picks(dist, rng, n).tolist()))


# Published values the calibration must reproduce.
TABLE_PREDICTIONS = {512: 0.046, 1024: 0.181, 2048: 0.719, 4096: 2.870}
FULL_COEFFS = {"a": 1.646e-07, "b": 3.167e-05, "c": -2.334e-02}
REDUCED_COEFFS = {"a": 1.7101e-07, "c": 1.665e-03}
DELTA_RSS = 2.862e-04


class TestServiceModel:
    def test_reduced_model_matches_table_within_2pct(self):
        model = reduced_paper_model()
        for size, expected in TABLE_PREDICTIONS.items():
            assert model.predict(size) == pytest.approx(expected, rel=0.02)

    def test_refit_reduced_coefficients_within_1pct(self):
        fit = fit_service_model(CALIBRATION_SAMPLES, form="reduced")
        assert fit.a == pytest.approx(REDUCED_COEFFS["a"], rel=0.01)
        assert fit.c == pytest.approx(REDUCED_COEFFS["c"], rel=0.01)

    def test_refit_full_coefficients_within_1pct(self):
        fit = fit_service_model(CALIBRATION_SAMPLES, form="full")
        assert fit.a == pytest.approx(FULL_COEFFS["a"], rel=0.01)
        assert fit.b == pytest.approx(FULL_COEFFS["b"], rel=0.01)
        assert fit.c == pytest.approx(FULL_COEFFS["c"], rel=0.01)

    def test_delta_rss_within_5pct(self):
        reduced = fit_service_model(CALIBRATION_SAMPLES, form="reduced")
        full = fit_service_model(CALIBRATION_SAMPLES, form="full")
        assert reduced.rss - full.rss == pytest.approx(DELTA_RSS, rel=0.05)

    def test_full_fit_never_worse(self):
        reduced = fit_service_model(CALIBRATION_SAMPLES, form="reduced")
        full = fit_service_model(CALIBRATION_SAMPLES, form="full")
        assert full.rss <= reduced.rss + 1e-15

    def test_predict_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            reduced_paper_model().predict(0)

    @pytest.mark.parametrize("c", [0.0, -1e-3])
    def test_predict_rejects_nonpositive_time(self, c):
        with pytest.raises(ValueError, match="non-positive time"):
            ServiceTimeModel(a=0.0, b=0.0, c=c).predict(512)

    def test_fit_needs_enough_points(self):
        with pytest.raises(FitError):
            fit_service_model(CALIBRATION_SAMPLES[:1], form="reduced")

    def test_fit_exact_on_synthetic_quadratic(self):
        samples = [(x, 2e-7 * x * x + 0.01) for x in (256, 512, 1024, 4096)]
        fit = fit_service_model(samples, form="reduced")
        assert fit.a == pytest.approx(2e-7, rel=1e-9)
        assert fit.c == pytest.approx(0.01, rel=1e-9)


class TestSizeDistribution:
    def test_default_mean_service_is_1_5s(self):
        model = reduced_paper_model()
        dist = default_size_distribution(model)
        mean = sum(w * model.predict(s)
                   for s, w in zip(dist.sizes, dist.weights))
        assert mean == pytest.approx(1.5, abs=1e-9)

    def test_weights_normalized_and_positive(self):
        dist = default_size_distribution(reduced_paper_model())
        assert sum(dist.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in dist.weights)
        assert tuple(dist.sizes) == SUPPORTED_SIZES

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeDistribution(sizes=(512, 1024), weights=(0.7, 0.2))

    # the weights sum to 1 and are nonnegative: only the lengths are wrong
    @pytest.mark.parametrize("sizes, weights", [
        ((512, 1024, 2048), (0.5, 0.5)), ((512, 1024), (0.5, 0.25, 0.25))])
    def test_needs_one_weight_per_size(self, sizes, weights):
        with pytest.raises(FieldError, match="need one weight per size") as err:
            SizeDistribution(sizes=sizes, weights=weights)
        assert err.value.field == "weights"

    def test_sampling_tracks_weights(self):
        dist = default_size_distribution(reduced_paper_model())
        rng = np.random.default_rng(1)
        draws = sample_task_sizes(dist, rng, 20_000)
        for size, weight in zip(dist.sizes, dist.weights):
            frac = draws.count(size) / len(draws)
            assert frac == pytest.approx(weight, abs=0.02)

    @pytest.mark.parametrize("n", [0, 1, 1140])
    def test_batched_sizes_match_single_draws(self, n):
        dist = default_size_distribution(reduced_paper_model())
        batched_rng = np.random.default_rng([9, 20_000])
        single_rng = np.random.default_rng([9, 20_000])
        batched = sample_task_sizes(dist, batched_rng, n)
        single = [int(single_rng.choice(dist.sizes, p=dist.weights))
                  for _ in range(n)]
        assert batched == single
        assert all(type(size) is int for size in batched)
        # the draws reuse the distinct sizes' objects, not one int per task
        assert len(set(map(id, batched))) <= len(dist.sizes)
        assert (batched_rng.bit_generator.state
                == single_rng.bit_generator.state)


def choice_sizes(dist, rng, n):
    """The sizes ``sample_task_sizes`` drew before it ran the sampling step
    of ``Generator.choice`` itself."""
    return [dist.sizes[i]
            for i in rng.choice(len(dist.sizes), size=n, p=dist.weights)]


@st.composite
def weight_lists(draw):
    raw = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 3.0])
                        | st.floats(0.0, 10.0), min_size=1, max_size=5)
               .filter(lambda w: sum(w) > 0))
    return [w / math.fsum(raw) for w in raw]


class TestSizeSampling:
    """``sample_task_sizes`` against the ``rng.choice`` call it replaced:
    the sizes and the generator state after the draw."""

    @pytest.mark.parametrize("weights", [
        (0.0, 0.5, 0.0, 0.5),  # sizes that are never drawn, first and
        (0.25, 0.75, 0.0, 0.0),  # last ones among them
        (0.0, 0.0, 1.0, 0.0),  # a single size
    ])
    @pytest.mark.parametrize("n", [0, 1, 1140])
    def test_zero_weight_sizes(self, weights, n):
        dist = SizeDistribution(sizes=SUPPORTED_SIZES, weights=weights)
        rng = np.random.default_rng([3, 20_000])
        ref = np.random.default_rng([3, 20_000])
        sizes = sample_task_sizes(dist, rng, n)
        assert sizes == choice_sizes(dist, ref, n)
        assert not set(sizes) & {s for s, w in zip(dist.sizes, weights)
                                 if w == 0}
        assert rng.bit_generator.state == ref.bit_generator.state

    @given(weights=weight_lists(),
           n=st.integers(min_value=0, max_value=300),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_choice_on_any_weights(self, weights, n, seed):
        dist = SizeDistribution(sizes=tuple(range(1, len(weights) + 1)),
                                weights=tuple(weights))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_task_sizes(dist, rng, n) == choice_sizes(dist, ref, n)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestMixTheta:
    """The bisection behind the size mix, tested against the mean it solves."""

    @pytest.fixture(scope="class")
    def times(self):
        model = reduced_paper_model()
        return [model.predict(s) for s in SUPPORTED_SIZES]

    @pytest.fixture(scope="class")
    def targets(self, times):
        # 2,001 targets strictly inside the achievable range
        return np.linspace(min(times), max(times), 2003)[1:-1].tolist()

    def test_result_is_one_ulp_bracket(self, times, targets):
        for target in targets:
            theta = _mix_theta(times, target)
            above = math.nextafter(theta, math.inf)
            assert _mix_mean(theta, times) < target <= _mix_mean(above, times)

    def test_uniform_mean_target_gives_uniform_weights(self, times):
        # the root is theta = 0, where every weight is exp(0) = 1
        uniform_mean = sum(times) / len(times)
        assert _mix_theta(times, uniform_mean) == pytest.approx(0.0, abs=1e-12)
        dist = default_size_distribution(reduced_paper_model(), uniform_mean)
        assert dist.weights == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_default_weights_pinned(self):
        dist = default_size_distribution(reduced_paper_model())
        assert [w.hex() for w in dist.weights] == [
            "0x1.4e42417843589p-3", "0x1.5f0cd1dc6be52p-3",
            "0x1.ab15a7f968dddp-3", "0x1.d3cda258f3f21p-2"]

    def test_matches_brentq_within_its_xtol(self, times, targets):
        optimize = pytest.importorskip("scipy.optimize")
        t = np.array(times)

        def excess(theta, target):
            w = np.exp(theta * (t - t.max()))
            w /= w.sum()
            return float(w @ t) - target

        for target in targets:
            root = optimize.brentq(excess, -200.0, 200.0, args=(target,))
            assert abs(_mix_theta(times, target) - root) <= 2e-12


class TestPhaseSpec:
    def test_default_phase_counts(self):
        phases = default_phases()
        assert [p.target_count for p in phases] == [90, 450, 300, 300]

    def test_sinusoid_rate_integral_matches_quadrature(self):
        phase = default_phases()[2]
        t = np.linspace(0.0, phase.duration, 200_001)
        # reconstruct the instantaneous rate from narrow integral slices
        analytic = phase.rate_integral(0.0, phase.duration)
        slices = sum(phase.rate_integral(a, b)
                     for a, b in zip(t[:-1:1000], t[1000::1000]))
        assert slices == pytest.approx(analytic, rel=1e-12)
        assert analytic == pytest.approx(phase.mean_multiplier
                                         * phase.base_rate * phase.duration,
                                         rel=1e-9)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadPhaseSpec(kind="sawtooth", base_rate=5.0, duration=60.0)

    # unchecked, the steady phase had target -10 and no arrivals, and the
    # sinusoid target 150 while numpy refused its negative Poisson means
    @pytest.mark.parametrize("kind,base_rate,field,multipliers", [
        ("steady", 1.0, "multiplier", dict(multiplier=-1.0)),
        ("sinusoid", 30.0, "mult_min", dict(mult_min=-0.5, mult_max=1.5)),
    ])
    def test_negative_multiplier_rejected(self, kind, base_rate, field,
                                          multipliers):
        with pytest.raises(FieldError, match=f"{field} must be >= 0") as err:
            WorkloadPhaseSpec(kind, base_rate, 10.0, **multipliers)
        assert err.value.field == field

    def test_zero_multiplier_accepted(self):
        steady = WorkloadPhaseSpec("steady", 1.0, 10.0, multiplier=0.0)
        sinusoid = WorkloadPhaseSpec("sinusoid", 30.0, 10.0, mult_min=0.0,
                                     mult_max=1.5)
        rng = np.random.default_rng(0)
        for phase, count in ((steady, 0), (sinusoid, 225)):
            assert phase.target_count == count
            assert len(generate_phase_arrivals(phase, rng)) == count


def reference_phase_arrivals(phase, phase_start, rng):
    """The per-window generator that ``generate_phase_arrivals`` replaced:
    one scalar Poisson draw per window, then one uniform draw per nonempty
    window. Returns the arrivals and whether the surplus branch ran."""
    target = phase.target_count
    if target <= 0:
        return [], False
    edges = _window_edges(phase.duration, phase.window)
    counts = [int(rng.poisson(phase.rate_integral(edges[i], edges[i + 1])))
              for i in range(len(edges) - 2)]
    last = target - sum(counts)
    if last < 0:
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
    arrivals = []
    for i, count in enumerate(counts):
        if count:
            pts = np.sort(rng.uniform(edges[i], edges[i + 1], size=count))
            arrivals.extend(phase_start + pts)
    return arrivals, last < 0


# Phase shapes for the reference test: the defaults, sparse windows (many
# draw 0), a short last window (the first windows often overshoot the
# target: the surplus branch), a single window, a ragged last window, an
# empty phase and the criterion-3 fuzz's 0.5-second grid.
REFERENCE_PHASES = default_phases() + (
    WorkloadPhaseSpec("steady", 0.2, 60.0, 5.0),
    WorkloadPhaseSpec("steady", 2.0, 10.5, 5.0),
    WorkloadPhaseSpec("steady", 2.0, 10.5, 10.0),
    WorkloadPhaseSpec("steady", 3.0, 7.0, 7.0),
    WorkloadPhaseSpec("sinusoid", 1.0, 23.0, 5.0, mult_min=0.0,
                      mult_max=2.0, cycles=2),
    WorkloadPhaseSpec("steady", 0.001, 10.0, 5.0),
    WorkloadPhaseSpec("steady", 4.0, 6.0, 0.5),
)


def uniform_phase_arrivals(phase, rng):
    """``generate_phase_arrivals`` as it drew the instants before it mapped
    one ``rng.random`` call itself: one ``rng.uniform`` call over
    per-instant window bounds."""
    target = phase.target_count
    if target <= 0:
        return np.empty(0)
    edges = _window_edges(phase.duration, phase.window)
    counts = rng.poisson([phase.rate_integral(lo, hi) for lo, hi
                          in zip(edges[:-2], edges[1:-1])]).tolist()
    counts.append(target)
    total = 0
    for i, count in enumerate(counts):
        counts[i] = min(count, target - total)
        total += counts[i]
    pts = rng.uniform(np.repeat(edges[:-1], counts),
                      np.repeat(edges[1:], counts))
    pts.sort()
    return pts


class TestArrivalGeneration:
    @pytest.mark.parametrize("phase", [
        *default_phases(),
        WorkloadPhaseSpec("steady", 2.0, 10.5, 5.0),  # a partial last window
        WorkloadPhaseSpec("steady", 3.0, 7.0, 7.0),  # window == duration
        WorkloadPhaseSpec("steady", 4.0, 6.0, 0.5),
        WorkloadPhaseSpec("steady", 1.0, 10.0, multiplier=0.0),  # target 0
    ])
    def test_instants_and_state_match_one_uniform_call(self, phase):
        for seed in range(20):
            rng = np.random.default_rng([seed, 2])
            ref = np.random.default_rng([seed, 2])
            offsets = generate_phase_arrivals(phase, rng)
            assert offsets.tolist() == uniform_phase_arrivals(
                phase, ref).tolist()
            assert len(offsets) == phase.target_count
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_overshooting_window_count_drops_the_repeated_edge(self):
        # 2.1 / 0.3 rounds to 7.000000000000001, so ceil asks for 8 windows;
        # the interior edge 7 * 0.3 is 2.1 already, the phase's end, and the
        # empty eighth window goes
        phase = WorkloadPhaseSpec("steady", 20.0, 2.1, 0.3)
        assert math.ceil(phase.duration / phase.window) == 8
        edges = _window_edges(phase.duration, phase.window)
        assert len(edges) == 8 and edges[-1] == phase.duration
        assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
        widths = phase.windows[1]
        assert len(widths) == 7 and (widths > 0).all()
        for seed in range(20):
            offsets = generate_phase_arrivals(
                phase, np.random.default_rng([seed, 2]))
            assert len(offsets) == phase.target_count == 42
            assert (np.diff(offsets) >= 0).all()
            assert offsets[0] >= 0 and offsets[-1] < phase.duration

    def test_batched_draws_match_per_window_reference(self):
        surplus_hits = zero_windows = 0
        for seed in range(60):
            for index, phase in enumerate(REFERENCE_PHASES):
                batched_rng = np.random.default_rng([seed, index])
                reference_rng = np.random.default_rng([seed, index])
                start = 30.0 * index
                offsets = generate_phase_arrivals(phase, batched_rng)
                expected, surplus = reference_phase_arrivals(
                    phase, start, reference_rng)
                assert isinstance(offsets, np.ndarray)
                assert offsets.dtype == np.float64
                arrivals = start + offsets
                assert arrivals.tolist() == [float(a) for a in expected]
                assert (batched_rng.bit_generator.state
                        == reference_rng.bit_generator.state)
                assert batched_rng.random() == reference_rng.random()
                surplus_hits += surplus
                edges = np.array(_window_edges(phase.duration, phase.window))
                per_window = np.histogram(arrivals, edges + start)[0]
                zero_windows += int(np.sum(per_window == 0))
        assert surplus_hits > 0
        assert zero_windows > 0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_count_exactness_any_seed(self, seed):
        rng = np.random.default_rng(seed)
        for phase in default_phases():
            arr = generate_phase_arrivals(phase, rng)
            assert len(arr) == phase.target_count

    def test_arrivals_sorted_within_bounds(self):
        rng = np.random.default_rng(7)
        phase = default_phases()[1]
        arr = 120.0 + generate_phase_arrivals(phase, rng)
        assert all(a < b for a, b in zip(arr, arr[1:]))
        assert arr[0] >= 120.0
        assert arr[-1] < 120.0 + phase.duration

    def test_reproducible_bitwise(self, ep_config, model_and_dist):
        model, dist = model_and_dist
        a = build_episode_workload(ep_config, dist, model, False, 42)
        b = build_episode_workload(ep_config, dist, model, False, 42)
        assert list(a) == list(b) and a.phase_order == b.phase_order

    def test_task_ids_follow_arrival_order(self, default_workload):
        arrivals = [t.arrival_time for t in default_workload]
        assert arrivals == sorted(arrivals)
        assert [t.task_id for t in default_workload] == list(
            range(len(default_workload)))

    def test_deadlines_consistent_with_model(self, ep_config,
                                             default_workload,
                                             model_and_dist):
        model, _ = model_and_dist
        for task in list(default_workload)[::37]:
            assert task.service_time == pytest.approx(
                model.predict(task.size_px))
            assert task.deadline == pytest.approx(
                ep_config.beta * task.service_time)

    @given(beta=st.floats(min_value=1.0, max_value=10.0, exclude_min=True))
    @example(beta=math.nextafter(1.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_deadline_exceeds_service_at_any_beta(self, ep_config,
                                                  model_and_dist, beta):
        model, dist = model_and_dist
        tasks = build_episode_workload(replace(ep_config, beta=beta), dist,
                                       model, False, 0)
        assert all(t.service_time < t.deadline == beta * t.service_time
                   for t in tasks)

    def test_shuffle_is_phase_permutation(self, ep_config, model_and_dist):
        model, dist = model_and_dist
        plain = build_episode_workload(ep_config, dist, model, False, 3)
        shuffled = build_episode_workload(ep_config, dist, model, True, 3)
        assert len(shuffled) == len(plain)
        counts = {}
        for t in shuffled:
            counts[t.phase_index] = counts.get(t.phase_index, 0) + 1
        assert sorted(counts.values()) == [90, 300, 300, 450]


CACHED = [
    pytest.param(lambda: default_phases()[3], "windows", id="phase"),
    pytest.param(lambda: default_size_distribution(reduced_paper_model()),
                 "cdf", id="sizes"),
]


def window_layout(phase):
    """The layout ``windows`` caches, worked out from the window edges as
    ``generate_phase_arrivals`` worked it out on every call."""
    edges = _window_edges(phase.duration, phase.window)
    return ([phase.rate_integral(lo, hi)
             for lo, hi in zip(edges[:-2], edges[1:-1])],
            [hi - lo for lo, hi in zip(edges, edges[1:])], edges[:-1])


class TestCachedTables:
    """The window layout of a phase and the CDF of a size distribution are
    worked out once per frozen spec and cached on it."""

    @pytest.mark.parametrize("make, cached", CACHED)
    def test_equal_specs_compare_and_hash_equal(self, make, cached):
        filled, empty = make(), make()
        getattr(filled, cached)
        assert cached in vars(filled) and cached not in vars(empty)
        assert filled == empty and empty == filled
        assert hash(filled) == hash(empty)
        assert len({filled, empty, replace(filled)}) == 1

    @pytest.mark.parametrize("phase", REFERENCE_PHASES)
    def test_layout_is_the_window_edges(self, phase):
        means, widths, lows = phase.windows
        assert (means.tolist(), widths.tolist(), lows.tolist()) == (
            window_layout(phase))

    def test_replace_gives_a_fresh_layout(self):
        phase = default_phases()[2]
        phase.windows
        for changed in (dict(window=2.0), dict(duration=45.0),
                        dict(cycles=3), {}):
            other = replace(phase, **changed)
            assert "windows" not in vars(other)
            means, widths, lows = other.windows
            assert means is not phase.windows[0]
            assert (means.tolist(), widths.tolist(), lows.tolist()) == (
                window_layout(other))
        dist = default_size_distribution(reduced_paper_model())
        dist.cdf
        flat = replace(dist, weights=(0.25,) * 4)
        assert flat.cdf.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_cached_arrays_refuse_writes(self):
        means, widths, lows = default_phases()[1].windows
        cdf = default_size_distribution(reduced_paper_model()).cdf
        for array in (means, widths, lows, cdf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0


def reference_episode_workload(config, dist, model, shuffle_phases, rng_seed):
    """The row-at-a-time builder that ``build_episode_workload`` replaced:
    ``(arrival, phase)`` tuples sorted as tuples, then one ``TaskSpec`` per
    row."""
    phases = list(config.phases)
    order = list(range(len(phases)))
    if shuffle_phases:
        np.random.default_rng([rng_seed, 10_000]).shuffle(order)
    entries = []
    position_start = 0.0
    for phase_idx in order:
        phase = phases[phase_idx]
        offsets = generate_phase_arrivals(
            phase, np.random.default_rng([rng_seed, phase_idx]))
        entries.extend(zip((position_start + offsets).tolist(),
                           repeat(phase_idx)))
        position_start += phase.duration
    entries.sort()
    sizes = sample_task_sizes(
        dist, np.random.default_rng([rng_seed, 20_000]), len(entries))
    timing = {}
    for size in dict.fromkeys(sizes):
        service = model.predict(size)
        timing[size] = (service, config.beta * service)
    return [TaskSpec(task_id, arrival, size, *timing[size], phase_idx)
            for task_id, ((arrival, phase_idx), size)
            in enumerate(zip(entries, sizes))]


def assert_same_workload(tasks, expected):
    assert list(tasks) == expected
    assert set(map(type, tasks)) <= {TaskSpec}
    assert (list(map(type, chain.from_iterable(tasks)))
            == list(map(type, chain.from_iterable(expected))))


@st.composite
def phase_lists(draw):
    """1-5 phases of either kind; a base rate of 0.001 makes a phase with
    no tasks, and 0.04 one with at most one."""
    phases = []
    for _ in range(draw(st.integers(1, 5))):
        duration = draw(st.sampled_from([2.0, 7.5, 20.0]))
        window = draw(st.sampled_from([0.5, 2.0, duration]))
        rate = draw(st.sampled_from([0.001, 0.04, 1.0, 4.0]))
        if draw(st.booleans()):
            phases.append(WorkloadPhaseSpec(
                "steady", rate, duration, window,
                multiplier=draw(st.sampled_from([0.3, 1.0, 1.5]))))
        else:
            phases.append(WorkloadPhaseSpec(
                "sinusoid", rate, duration, window, mult_min=0.2,
                mult_max=1.8, cycles=draw(st.integers(1, 3))))
    return phases


class TestEpisodeWorkload:
    """The columnar builder against the kept row-at-a-time reference."""

    def test_matches_reference_builder(self, ep_config, model_and_dist):
        model, dist = model_and_dist
        for seed in range(300):
            for shuffle in (False, True):
                assert_same_workload(
                    build_episode_workload(ep_config, dist, model, shuffle,
                                           seed),
                    reference_episode_workload(ep_config, dist, model,
                                               shuffle, seed))

    @given(phases=phase_lists(), seed=st.integers(0, 2**32 - 1),
           shuffle=st.booleans())
    @example(phases=[WorkloadPhaseSpec("steady", 3.0, 7.5, 2.0)], seed=5,
             shuffle=True)
    @example(phases=[WorkloadPhaseSpec("steady", 1.0, 7.5, 2.0),
                     WorkloadPhaseSpec("steady", 0.001, 7.5, 2.0),
                     WorkloadPhaseSpec("steady", 4.0, 2.0, 0.5)],
             seed=8, shuffle=False)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_any_phases(self, model_and_dist, phases,
                                             seed, shuffle):
        model, dist = model_and_dist
        config = EpisodeConfig(phases=tuple(phases))
        tasks = build_episode_workload(config, dist, model, shuffle, seed)
        assert_same_workload(tasks, reference_episode_workload(
            config, dist, model, shuffle, seed))
        assert len(tasks) == sum(p.target_count for p in phases)

    def test_phase_order_is_the_order_the_phases_ran_in(self, ep_config,
                                                        model_and_dist):
        model, dist = model_and_dist
        duration = ep_config.phases[0].duration  # the phases are equally long
        for seed in range(20):
            for shuffle in (False, True):
                order = phase_order(len(ep_config.phases), shuffle, seed)
                assert sorted(order) == list(range(len(ep_config.phases)))
                tasks = build_episode_workload(ep_config, dist, model,
                                               shuffle, seed)
                assert tasks.phase_order == tuple(order)
                assert all(t.phase_index
                           == order[int(t.arrival_time // duration)]
                           for t in tasks)

    def test_rows_share_per_size_timings(self, default_workload):
        for field in ("service_time", "deadline"):
            column = getattr(default_workload, field)
            objects = {id(getattr(t, field)) for t in default_workload}
            assert objects == set(map(id, column))
            assert len(objects) <= len(SUPPORTED_SIZES)

    def test_checks_each_size_timing(self, ep_config, model_and_dist):
        # a service time that overflows to inf leaves no room for a
        # deadline above it, so the builder's per-size check must refuse it
        _, dist = model_and_dist
        model = ServiceTimeModel(a=1e308, b=0.0, c=0.0)
        with pytest.raises(ValueError,
                           match="^deadline must exceed service_time$"):
            build_episode_workload(ep_config, dist, model, False, 0)
