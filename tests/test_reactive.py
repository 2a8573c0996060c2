"""Reactive sizing formulas and their closed-loop behaviour."""

import dataclasses

from hypothesis import given, strategies as st

from farmscale.core import Observation, StepRecord
from farmscale.reactive import (ReactiveAveragePolicy, ReactiveMaximumPolicy,
                                reactive_action)

AVERAGE, MAXIMUM = 0.5, 1.0  # in-flight weight of each policy


def action(t=1.5, t_step=8.0, k=0, l=0, m=0, w=1, weight=AVERAGE):
    return reactive_action(t, t_step, k, l, m, w, weight)


class TestReactiveAverage:
    def test_hand_example_scale_up(self):
        # 0.2 * (40 + 8 + 2) - 5 = 5 -> +1
        assert action(t=1.6, k=40, l=8, m=4, w=5) == 1

    def test_empty_system_scales_down(self):
        assert action(t=1.6, w=3) == -1

    def test_rounding_boundary(self):
        # delta = 0.4 rounds to 0; delta = 0.5 rounds away from zero to +1
        assert action(t=0.4, t_step=1.0, k=1, w=0) == 0
        assert action(t=0.5, t_step=1.0, k=1, w=0) == 1

    def test_negative_rounding_symmetry(self):
        # delta = -0.5 rounds away from zero to -1
        assert action(t=0.5, t_step=1.0, k=1, w=1) == -1

    def test_no_history_holds(self):
        assert action(t=0.0, k=100, w=1) == 0


class TestReactiveMaximum:
    def test_hand_example_scale_up(self):
        # 0.35875 * 52 - 5 = 13.655 -> clamped to +1
        assert action(t=2.87, k=40, l=8, m=4, w=5, weight=MAXIMUM) == 1

    def test_no_history_holds(self):
        assert action(t=0.0, k=100, w=1, weight=MAXIMUM) == 0

    @given(t_avg=st.floats(min_value=0.01, max_value=3.0),
           extra=st.floats(min_value=0.0, max_value=3.0),
           k=st.integers(min_value=0, max_value=100),
           l=st.integers(min_value=0, max_value=100),
           m=st.integers(min_value=0, max_value=50),
           w=st.integers(min_value=0, max_value=20))
    def test_maximum_dominates_average(self, t_avg, extra, k, l, m, w):
        avg = action(t=t_avg, k=k, l=l, m=m, w=w)
        mx = action(t=t_avg + extra, k=k, l=l, m=m, w=w, weight=MAXIMUM)
        assert mx >= avg

    @given(k=st.integers(min_value=0, max_value=1000))
    def test_statelessness(self, k):
        first = action(k=k, w=5)
        assert all(action(k=k, w=5) == first for _ in range(3))


class TestPolicies:
    def test_busy_workers_are_the_tasks_in_flight(self):
        obs = Observation(q_in=0, q_work=0, q_res=0, q_out=0, n_workers=1,
                          t_proc_avg=1.6, t_proc_max=1.6, arrival_rate=0.0,
                          qos_step=1.0)
        idle = StepRecord(step=3, observation=obs, action=0, applied_delta=0,
                          reward=0.0, arrived=0, completed=0, hits=0,
                          workers_busy=0)
        busy = dataclasses.replace(idle, workers_busy=8)
        # 0.2 * 0 - 1 = -1 without work in flight; with 8 tasks in flight
        # 0.2 * 4 - 1 = -0.2 -> 0 and 0.2 * 8 - 1 = 0.6 -> +1
        for policy, when_busy in ((ReactiveAveragePolicy(8.0), 0),
                                  (ReactiveMaximumPolicy(8.0), 1)):
            assert policy.select_action(obs, idle) == -1
            assert policy.select_action(obs, busy) == when_busy
