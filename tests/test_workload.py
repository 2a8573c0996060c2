"""Service-time calibration, size distribution, and arrival generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmscale.workload import (CALIBRATION_SAMPLES, SUPPORTED_SIZES,
                                FitError, SizeDistribution, WorkloadPhaseSpec,
                                _window_edges, build_episode_workload,
                                default_phases, default_size_distribution,
                                fit_service_model, generate_phase_arrivals,
                                read_workload_csv, reduced_paper_model,
                                sample_task_sizes, write_workload_csv)

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
        assert (batched_rng.bit_generator.state
                == single_rng.bit_generator.state)


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


class TestArrivalGeneration:
    def test_batched_draws_match_per_window_reference(self):
        surplus_hits = zero_windows = 0
        for seed in range(60):
            for index, phase in enumerate(REFERENCE_PHASES):
                batched_rng = np.random.default_rng([seed, index])
                reference_rng = np.random.default_rng([seed, index])
                start = 30.0 * index
                arrivals = generate_phase_arrivals(phase, start, batched_rng)
                expected, surplus = reference_phase_arrivals(
                    phase, start, reference_rng)
                assert isinstance(arrivals, np.ndarray)
                assert arrivals.dtype == np.float64
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
            arr = generate_phase_arrivals(phase, 0.0, rng)
            assert len(arr) == phase.target_count

    def test_arrivals_sorted_within_bounds(self):
        rng = np.random.default_rng(7)
        phase = default_phases()[1]
        arr = generate_phase_arrivals(phase, 120.0, rng)
        assert all(a < b for a, b in zip(arr, arr[1:]))
        assert arr[0] >= 120.0
        assert arr[-1] < 120.0 + phase.duration

    def test_reproducible_bitwise(self, ep_config, model_and_dist):
        model, dist = model_and_dist
        a = build_episode_workload(ep_config, dist, model, False, 42)
        b = build_episode_workload(ep_config, dist, model, False, 42)
        assert a == b

    def test_task_ids_follow_arrival_order(self, default_workload):
        arrivals = [t.arrival_time for t in default_workload]
        assert arrivals == sorted(arrivals)
        assert [t.task_id for t in default_workload] == list(
            range(len(default_workload)))

    def test_deadlines_consistent_with_model(self, ep_config,
                                             default_workload,
                                             model_and_dist):
        model, _ = model_and_dist
        for task in default_workload[::37]:
            assert task.service_time == pytest.approx(
                model.predict(task.size_px))
            assert task.deadline == pytest.approx(
                ep_config.beta * task.service_time)

    def test_shuffle_is_phase_permutation(self, ep_config, model_and_dist):
        model, dist = model_and_dist
        plain = build_episode_workload(ep_config, dist, model, False, 3)
        shuffled = build_episode_workload(ep_config, dist, model, True, 3)
        assert len(shuffled) == len(plain)
        counts = {}
        for t in shuffled:
            counts[t.phase_index] = counts.get(t.phase_index, 0) + 1
        assert sorted(counts.values()) == [90, 300, 300, 450]

    def test_csv_round_trip(self, tmp_path, default_workload):
        path = tmp_path / "workload.csv"
        write_workload_csv(default_workload, path)
        back = read_workload_csv(path)
        assert back == default_workload

    def test_csv_bad_value_names_file_line_and_column(self, tmp_path,
                                                      default_workload):
        path = tmp_path / "workload.csv"
        write_workload_csv(default_workload[:3], path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[2][3] = "abc"  # service_time of the second task
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as err:
            read_workload_csv(path)
        assert str(err.value) == (f"{path}:3: column service_time: could not"
                                  " convert string to float: 'abc'")

    def test_csv_missing_column_names_file_line_and_column(
            self, tmp_path, default_workload):
        path = tmp_path / "workload.csv"
        write_workload_csv(default_workload[:2], path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(r[:3] + r[4:]) + "\n" for r in rows))
        with pytest.raises(ValueError) as err:
            read_workload_csv(path)
        assert str(err.value) == f"{path}:2: column service_time: missing"

    @pytest.mark.parametrize("service, deadline, message", [
        ("0.0", "0.5", "service_time must be positive"),
        ("0.5", "0.5", "deadline must exceed service_time"),
    ])
    def test_csv_invalid_task_names_file_and_line(self, tmp_path,
                                                  default_workload, service,
                                                  deadline, message):
        path = tmp_path / "workload.csv"
        write_workload_csv(default_workload[:3], path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[3][3:5] = [service, deadline]  # the third task
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as err:
            read_workload_csv(path)
        assert str(err.value) == f"{path}:4: {message}"
