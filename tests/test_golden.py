"""Outputs pinned across commits, not only within one run.

Criterion 3 compares a trace with a replay of itself, so a change to the
dispatch order or to a random stream would still pass it. These digests
(the first 16 hex digits of sha256 over ``repr``) were recorded before the
simulator and workload hot paths were optimised and must not move unless a
change to the outputs is intended. They were measured on numpy 2.4.6; a
numpy release may change the ``Generator`` streams and so these values.
"""

import dataclasses
import hashlib

import pytest

from farmscale.config import sarsa_config
from farmscale.env import FarmEnv
from farmscale.sarsa import SarsaAgent
from farmscale.training import train_agent
from farmscale.workload import build_episode_workload
from tests.test_acceptance import _fuzz_sim


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_fuzz_trace_digest():
    assert digest(_fuzz_sim(11, trace=True).trace) == "2dc42c4719ae63e8"


@pytest.mark.parametrize("shuffle, expected", [
    (False, "b871fa7ba347e198"),
    (True, "c91b9bf05d36fad6"),
])
def test_default_workload_digest(ep_config, model_and_dist, shuffle, expected):
    model, dist = model_and_dist
    tasks = build_episode_workload(ep_config, dist, model, shuffle, 0)
    assert digest([dataclasses.astuple(t) for t in tasks]) == expected


def test_sarsa_qtable_digest(defaults, ep_config, rw_config, model_and_dist):
    # tabular learning runs no BLAS call, so the Q-table's bits do not
    # depend on the linear-algebra library a numpy build links
    model, dist = model_and_dist
    agent = SarsaAgent(sarsa_config(defaults), seed=0)
    train_agent(agent, FarmEnv(ep_config, rw_config), dist, model,
                episodes=20)
    assert len(agent.qtable) == 81
    assert digest([(state, row.tolist())
                   for state, row in sorted(agent.qtable.items())]
                  ) == "a2ea3c333dade7d4"
