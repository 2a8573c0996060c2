"""Domain vocabulary: deadlines, observations, configs, episode logs."""

import csv
import math

import pytest
from hypothesis import given, strategies as st

from farmscale.core import (STEP_COLUMNS, EpisodeConfig, EpisodeLog,
                            Observation, RewardConfig, StepRecord, TaskSpec,
                            check_task_timing, compute_deadline,
                            deadline_met)
from farmscale.workload import WorkloadPhaseSpec, write_workload_csv

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
    """A task is a NamedTuple row whose every construction is checked."""

    ARGS = (7, 1.25, 1024, 0.18, 0.36, 2)

    def test_positional_equals_keyword(self):
        spec = TaskSpec(*self.ARGS)
        assert spec == TaskSpec(**dict(zip(TaskSpec._fields, self.ARGS)))
        assert tuple(getattr(spec, name) for name in TaskSpec._fields) == (
            self.ARGS)

    def test_is_its_row(self):
        spec = TaskSpec(*self.ARGS)
        assert spec == self.ARGS and tuple(spec) == self.ARGS
        assert TaskSpec._make(self.ARGS) == spec
        assert type(TaskSpec._make(self.ARGS)) is TaskSpec

    @pytest.mark.parametrize("service, deadline, message", [
        (0.0, 1.0, "service_time must be positive"),
        (-0.5, 1.0, "service_time must be positive"),
        (0.5, 0.5, "deadline must exceed service_time"),
        (0.5, 0.25, "deadline must exceed service_time"),
    ])
    def test_every_construction_is_checked(self, service, deadline, message):
        args = dict(zip(TaskSpec._fields, self.ARGS),
                    service_time=service, deadline=deadline)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_task_timing(service, deadline)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(*args.values())
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(**args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec._make(args.values())
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaskSpec(*self.ARGS)._replace(service_time=service,
                                          deadline=deadline)

    BUILDS = {
        "positional": lambda args: TaskSpec(*args.values()),
        "keyword": lambda args: TaskSpec(**args),
        "_make": lambda args: TaskSpec._make(args.values()),
        "_replace": lambda args: TaskSpec(*TestTaskSpec.ARGS)._replace(
            arrival_time=args["arrival_time"]),
    }

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf,
                                         10 ** 400], ids=repr)
    def test_every_construction_rejects_an_arrival_not_finite(self, build,
                                                               arrival):
        # a NaN arrival never runs in the simulator, and a static run over
        # one would never end
        args = dict(zip(TaskSpec._fields, self.ARGS), arrival_time=arrival)
        with pytest.raises(ValueError,
                           match="^arrival_time must be finite, got "):
            self.BUILDS[build](args)
        assert self.BUILDS[build](dict(args, arrival_time=-2.5)) == (
            7, -2.5, *self.ARGS[2:])

    def test_replace_builds_a_new_spec(self):
        spec = TaskSpec(*self.ARGS)
        moved = spec._replace(arrival_time=9.5)
        assert type(moved) is TaskSpec
        assert moved.arrival_time == 9.5 and spec.arrival_time == 1.25
        assert moved._replace(arrival_time=1.25) == spec
        with pytest.raises(ValueError, match="unexpected field names"):
            spec._replace(arrival=9.5)

    @pytest.mark.parametrize("name", TaskSpec._fields)
    def test_assignment_raises(self, name):
        spec = TaskSpec(*self.ARGS)
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
        with pytest.raises(AttributeError):
            delattr(spec, name)
        assert getattr(spec, name) == self.ARGS[TaskSpec._fields.index(name)]

    def test_slots_and_no_instance_dict(self):
        spec = TaskSpec(*self.ARGS)
        assert not hasattr(spec, "__dict__")
        with pytest.raises(AttributeError):
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

    def test_field_order_is_the_csv_column_order(self, tmp_path):
        assert TaskSpec._fields == (
            "task_id", "arrival_time", "size_px", "service_time", "deadline",
            "phase_index")
        path = tmp_path / "workload.csv"
        write_workload_csv([TaskSpec(*self.ARGS)], path)
        assert path.read_text().splitlines() == [
            ",".join(TaskSpec._fields), "7,1.25,1024,0.18,0.36,2"]


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
        assert len(Observation._fields) == 9
        assert Observation._fields[0] == "q_in"
        assert Observation._fields[4] == "n_workers"
        assert Observation._fields[-1] == "qos_step"

    @given(counts=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=5, max_size=5),
           stats=st.lists(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          min_size=3, max_size=3),
           qos=st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_tuple_round_trip(self, counts, stats, qos):
        stats[1] = max(stats[0], stats[1])  # t_max >= t_avg
        values = [*counts, *stats, qos]
        obs = Observation(*values)
        assert obs == tuple(values) and tuple(obs) == tuple(values)
        assert Observation._make(values) == obs
        assert obs.q_work == values[1] and obs.qos_step == values[-1]

    def test_wrong_arity_raises(self):
        with pytest.raises(TypeError):
            Observation(*[0.0] * 8)
        with pytest.raises(TypeError):
            Observation._make([0.0] * 10)


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
            EpisodeConfig(phases=self._phases(), latency_lo=8.0,
                          latency_hi=5.0)

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
        tasks = [TaskSpec(0, 0.1, 512, 0.05, 0.09, 0),
                 TaskSpec(1, 0.2, 1024, 0.17, 0.35, 0)]
        log = EpisodeLog(tasks, [(tasks[0], 0.2, False)])
        obs = Observation(0, 1, 0, 0, 2, 1.5, 2.9, 5.0, 1.0)
        log.steps.append(StepRecord(step=0, observation=obs, action=1,
                                    applied_delta=1, reward=0.5, arrived=3,
                                    completed=2, hits=2, workers_busy=1,
                                    reward_terms=(0.5,) + (0.0,) * 6))
        return log

    def test_step_csv_round_trip(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "steps.csv"
        log.write_step_csv(path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(STEP_COLUMNS)
        assert rows == [["0", "0", "1", "0", "0", "2", "1.5", "2.9", "5.0",
                         "1.0", "1", "1", "0.5", "3", "2", "2"]]
        assert Observation._make(map(float, rows[0][1:10])) == (
            log.steps[0].observation)

    def test_task_csv_has_all_tasks(self, tmp_path):
        log = self._small_log()
        path = tmp_path / "tasks.csv"
        log.write_task_csv(path)
        lines = path.read_text().splitlines()
        assert lines == [
            "task_id,arrival,size,service,deadline,completion,met",
            "0,0.1,512,0.05,0.09,0.2,0",
            "1,0.2,1024,0.17,0.35,nan,0",  # never completed
        ]

    def test_counters(self):
        log = self._small_log()
        assert log.n_tasks == 2
        assert sum(s.arrived for s in log.steps) == 3
        assert log.total_completed == 2
