"""Domain vocabulary: deadlines, observations, configs, episode logs."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from farmscale.core import (OBSERVATION_FIELDS, STEP_COLUMNS, EpisodeConfig,
                            EpisodeLog, Observation, RewardConfig, StepRecord,
                            TaskRecord, TaskSpec, compute_deadline,
                            deadline_met, read_step_csv)
from farmscale.workload import WORKLOAD_COLUMNS, WorkloadPhaseSpec

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestComputeDeadline:
    def test_half_second_doubled(self):
        assert compute_deadline(0.5, 2.0) == pytest.approx(1.0)

    def test_table_largest_size(self):
        # 2.87 s expected time gives a 5.74 s allowance at slack 2
        assert compute_deadline(2.87, 2.0) == pytest.approx(5.74)

    def test_rejects_nonpositive_service(self):
        with pytest.raises(ValueError):
            compute_deadline(0.0, 2.0)

    def test_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            compute_deadline(1.0, 1.0)

    @given(service=st.floats(min_value=1e-6, max_value=1e3),
           beta=st.floats(min_value=1.0 + 1e-9, max_value=10.0))
    def test_deadline_exceeds_service(self, service, beta):
        assert compute_deadline(service, beta) > service


class TestTaskSpec:
    """The hand-written ``__init__`` keeps the frozen-dataclass contract."""

    ARGS = (7, 1.25, 1024, 0.18, 0.36, 2)

    def test_positional_equals_keyword(self):
        spec = TaskSpec(*self.ARGS)
        assert spec == TaskSpec(**dict(zip(WORKLOAD_COLUMNS, self.ARGS)))
        assert tuple(getattr(spec, name) for name in WORKLOAD_COLUMNS) == (
            self.ARGS)

    @pytest.mark.parametrize("service, deadline, message", [
        (0.0, 1.0, "service_time must be positive"),
        (-0.5, 1.0, "service_time must be positive"),
        (0.5, 0.5, "deadline must exceed service_time"),
        (0.5, 0.25, "deadline must exceed service_time"),
    ])
    def test_every_construction_is_checked(self, service, deadline, message):
        args = dict(zip(WORKLOAD_COLUMNS, self.ARGS),
                    service_time=service, deadline=deadline)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(*args.values())
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(**args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(TaskSpec(*self.ARGS), service_time=service,
                                deadline=deadline)

    def test_replace_builds_a_new_spec(self):
        spec = TaskSpec(*self.ARGS)
        moved = dataclasses.replace(spec, arrival_time=9.5)
        assert moved.arrival_time == 9.5 and spec.arrival_time == 1.25
        assert dataclasses.replace(moved, arrival_time=1.25) == spec

    @pytest.mark.parametrize("name", WORKLOAD_COLUMNS)
    def test_assignment_raises(self, name):
        spec = TaskSpec(*self.ARGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(spec, name)
        assert getattr(spec, name) == self.ARGS[WORKLOAD_COLUMNS.index(name)]

    def test_slots_and_no_instance_dict(self):
        spec = TaskSpec(*self.ARGS)
        assert not hasattr(spec, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            spec.extra = 1

    def test_eq_hash_and_repr(self):
        a, b = TaskSpec(*self.ARGS), TaskSpec(*self.ARGS)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(self.ARGS)
        assert a != TaskSpec(8, *self.ARGS[1:])
        assert len({a, b}) == 1
        assert repr(a) == ("TaskSpec(task_id=7, arrival_time=1.25, "
                           "size_px=1024, service_time=0.18, deadline=0.36, "
                           "phase_index=2)")

    def test_field_order_is_the_csv_column_order(self):
        names = tuple(f.name for f in dataclasses.fields(TaskSpec))
        assert names == WORKLOAD_COLUMNS == (
            "task_id", "arrival_time", "size_px", "service_time", "deadline",
            "phase_index")


class TestDeadlineMet:
    def test_boundary_counts_as_met(self):
        assert deadline_met(10.0, 13.0, 3.0)

    def test_late_misses(self):
        assert not deadline_met(10.0, 13.0 + 1e-9, 3.0)

    def test_derived_table_example(self):
        assert deadline_met(0.0, 5.58, 5.74)

    @given(arrival=finite, deadline=st.floats(min_value=1e-3, max_value=1e3),
           latency=st.floats(min_value=0, max_value=1e3),
           earlier=st.floats(min_value=0, max_value=1e3))
    def test_monotone_in_completion(self, arrival, deadline, latency,
                                    earlier):
        # meeting the deadline at some completion implies meeting it earlier
        completion = arrival + latency
        if deadline_met(arrival, completion, deadline):
            assert deadline_met(arrival, max(arrival, completion - earlier),
                                deadline)

    def test_rejects_completion_before_arrival(self):
        with pytest.raises(ValueError):
            deadline_met(5.0, 4.0, 1.0)


class TestObservation:
    def test_has_nine_ordered_fields(self):
        assert len(OBSERVATION_FIELDS) == 9
        assert OBSERVATION_FIELDS[0] == "q_in"
        assert OBSERVATION_FIELDS[4] == "n_workers"
        assert OBSERVATION_FIELDS[-1] == "qos_step"

    @given(counts=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=5, max_size=5),
           stats=st.lists(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          min_size=3, max_size=3),
           qos=st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_tuple_round_trip(self, counts, stats, qos):
        stats[1] = max(stats[0], stats[1])  # t_max >= t_avg
        values = [*counts, *stats, qos]
        obs = Observation.from_values(values)
        assert obs.as_tuple() == tuple(values)

    def test_from_values_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Observation.from_values([0.0] * 8)


class TestEpisodeConfig:
    def _phases(self):
        return (WorkloadPhaseSpec(kind="steady", base_rate=5.0, duration=60.0),)

    def test_pool_ordering_enforced(self):
        with pytest.raises(ValueError):
            EpisodeConfig(phases=self._phases(), n_min=5, n_init=4, n_max=20)

    def test_beta_must_exceed_one(self):
        with pytest.raises(ValueError):
            EpisodeConfig(phases=self._phases(), beta=1.0)

    def test_latency_interval_ordered(self):
        with pytest.raises(ValueError):
            EpisodeConfig(phases=self._phases(), scale_up_latency=(8.0, 5.0))

    def test_total_duration_sums_phases(self):
        phases = (WorkloadPhaseSpec(kind="steady", base_rate=5.0, duration=60.0),
                  WorkloadPhaseSpec(kind="steady", base_rate=5.0, duration=30.0))
        assert EpisodeConfig(phases=phases).total_duration == 90.0


class TestRewardConfig:
    def test_defaults_valid(self):
        cfg = RewardConfig()
        assert 0 < cfg.q_target <= 1
        assert cfg.q_idle <= cfg.q_queue_target

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            RewardConfig(q_target=1.5)


class TestEpisodeLog:
    def _small_log(self):
        log = EpisodeLog(n_tasks=2)
        obs = Observation.from_values([0, 1, 0, 0, 2, 1.5, 2.9, 5.0, 1.0])
        log.add_step(StepRecord(step=0, observation=obs, action=1,
                                applied_delta=1, reward=0.5, arrived=3,
                                completed=2, hits=2,
                                reward_terms={"qos_tracking": 0.5}))
        log.add_task(TaskRecord(task_id=0, arrival=0.1, size=512,
                                service=0.05, deadline=0.09, completion=0.2,
                                met=False, phase_index=0))
        log.add_task(TaskRecord(task_id=1, arrival=0.2, size=1024,
                                service=0.17, deadline=0.35,
                                completion=float("nan"), met=False,
                                phase_index=0))
        return log

    def test_step_csv_round_trip(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "steps.csv"
        log.write_step_csv(path)
        rows = read_step_csv(path)
        assert len(rows) == 1
        assert rows[0].step == 0
        assert rows[0].observation == log.steps[0].observation
        assert rows[0].reward == pytest.approx(0.5)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == list(STEP_COLUMNS)

    @pytest.mark.parametrize("column, value, message", [
        ("n_workers", "two", "invalid literal for int() with base 10: 'two'"),
        ("reward", "", "could not convert string to float: ''"),
        ("qos_step", None, "missing"),
    ])
    def test_step_csv_error_names_file_line_and_column(
            self, tmp_path, column, value, message):
        log = self._small_log()
        log.add_step(log.steps[0])
        path = tmp_path / "steps.csv"
        log.write_step_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        at = rows[0].index(column)
        if value is None:  # drop the column
            rows = [r[:at] + r[at + 1:] for r in rows]
        else:  # spoil the second step
            rows[2][at] = value
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as err:
            read_step_csv(path)
        line = 2 if value is None else 3
        assert str(err.value) == f"{path}:{line}: column {column}: {message}"

    def test_task_csv_has_all_tasks(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "tasks.csv"
        log.write_task_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + 2 tasks
        assert lines[0].split(",")[0] == "task_id"

    def test_counters(self):
        log = self._small_log()
        assert log.total_arrived == 3
        assert log.total_completed == 2
