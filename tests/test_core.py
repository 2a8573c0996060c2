"""Domain vocabulary: tasks, workloads, observations, configs, episode
logs."""

import math

import pytest
from hypothesis import example, given, strategies as st

from farmscale.core import (EpisodeConfig, EpisodeLog, Observation,
                            RewardConfig, StepRecord, TaskSpec, Workload,
                            left_sum, task_columns)
from farmscale.workload import WorkloadPhaseSpec
from tests.conftest import workload_of

class TestLeftSum:
    @given(values=st.lists(st.floats(allow_nan=False) | st.integers(-9, 9)))
    @example(values=[0.1] * 10)
    @example(values=[1e16, 1.0, -1e16])
    @example(values=[-0.0])
    def test_adds_left_to_right_from_zero(self, values):
        # the bits of the builtin sum before Python 3.12, which from 3.12
        # compensates float rounding: there [0.1] * 10 sums to 1.0
        total = 0.0
        for value in values:
            total = total + value
        assert left_sum(values).hex() == total.hex()
        assert left_sum(iter(values)).hex() == total.hex()

    def test_ten_tenths_keep_their_rounding(self):
        assert left_sum([0.1] * 10) == 0.9999999999999999


class TestWorkload:
    """A ``Workload`` keeps its ``TaskSpec`` rows as columns: ``len``
    counts them, iteration makes them, and ``task_id`` is the positions."""

    def test_agrees_with_its_rows(self, default_workload):
        w = default_workload
        rows = list(w)
        assert len(w) == len(rows) > 2
        assert set(map(type, rows)) == {TaskSpec}
        assert w.task_id == range(len(w))
        assert [tuple(c) for c in task_columns(w)] == list(zip(*rows))
        assert list(workload_of(iter(rows))) == rows
        assert w.phase_order == (0, 1, 2, 3)  # built unshuffled

    def test_columns_are_read_only(self, default_workload):
        assert {type(c) for c in task_columns(default_workload)} <= {tuple,
                                                                    range}
        built = Workload([0.5], [512], [0.05], [0.1], [0])
        assert type(built.arrival_time) is tuple
        assert built.task_id == range(1) and built.phase_order == ()
        assert len(Workload((), (), (), (), ())) == 0

    def test_columns_of_unequal_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            Workload((0.1,), (512,) * 2, (0.05,) * 2, (0.1,) * 2, (0,) * 2)


class TestTaskSpec:
    """A task is a plain NamedTuple row; a ``Workload`` made of rows checks
    their arrival times."""

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
        # one would never end: however the row is made, the workload made
        # of it refuses it
        args = dict(zip(TaskSpec._fields, self.ARGS), arrival_time=arrival)
        row = self.BUILDS[build](args)
        assert row.arrival_time is arrival
        with pytest.raises(ValueError, match=(
                f"^task 0 of the batch has arrival time {arrival!r}: ")):
            Workload(*([value] for value in row[1:]))
        row = self.BUILDS[build](dict(args, arrival_time=-2.5))
        assert row == (7, -2.5, *self.ARGS[2:])
        assert list(Workload(*([value] for value in row[1:]))) == [
            (0, *row[1:])]

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
        tasks = workload_of([TaskSpec(0, 0.1, 512, 0.05, 0.09, 0),
                             TaskSpec(1, 0.2, 1024, 0.17, 0.35, 0)])
        log = EpisodeLog(tasks, [(0, 0.2, False)])  # task 0's record
        obs = Observation(0, 1, 0, 0, 2, 1.5, 2.9, 5.0, 1.0)
        log.steps.append(StepRecord(step=0, observation=obs, action=1,
                                    applied_delta=1, reward=0.5, arrived=3,
                                    completed=2, hits=2, workers_busy=1,
                                    reward_terms=(0.5,) + (0.0,) * 6))
        return log

    def test_counters(self):
        log = self._small_log()
        assert log.n_tasks == 2
        assert sum(s.arrived for s in log.steps) == 3
        assert log.total_completed == 2
