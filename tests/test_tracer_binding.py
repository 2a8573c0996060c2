"""The benchmark tracer's bindings still reach the code they measure.

``perfbench/tracer.py`` wraps functions and methods at the names their
callers look up, and counts simulator events by wrapping the three event
handlers on ``FarmSim``. A refactor that inlines a handler or binds one
before the tracer is installed would leave ``sim.events`` at 0 without any
error, so one traced episode checks that every event is still counted.
Each reactive policy's ``select_action`` is wrapped in its own class body,
so a traced episode of each must record one selection span per env step.
In the CLI the tracer opens an episode at ``cli.build_episode_workload`` and
closes it at ``cli.run_episode``, so ``compare``, which runs several
episodes per build, must reach both through ``training``'s names.
The tracer is loaded from its file and only used, never edited.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from farmscale import cli, training
from farmscale.env import FarmEnv
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_episode(policy_cls, ep_config, rw_config, workload):
    """One traced episode; returns the tracer, the env and the summary."""
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    saved = tracer_module.install(tracer)
    try:
        env = FarmEnv(ep_config, rw_config)
        policy = policy_cls(ep_config.step_duration)
        tracer.active = True
        summary = training.run_episode(env, policy, workload, seed=0)
        tracer.active = False
    finally:
        tracer_module.uninstall(saved)
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    return tracer, env, summary


def test_traced_episode_counts_every_event(ep_config, rw_config,
                                           default_workload):
    tracer, env, summary = traced_episode(ReactiveAveragePolicy, ep_config,
                                          rw_config, default_workload)
    arrived = sum(s.arrived for s in env.log.steps)
    completed = env.log.total_completed
    assert arrived == len(default_workload) and completed == summary.completed
    assert tracer.counts["sim.events"] >= arrived + completed > 0


@pytest.mark.parametrize("policy_cls", [ReactiveAveragePolicy,
                                        ReactiveMaximumPolicy])
def test_traced_episode_times_every_selection(policy_cls, ep_config,
                                              rw_config, default_workload):
    tracer, _, _ = traced_episode(policy_cls, ep_config, rw_config,
                                  default_workload)
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("reactive.select") == spans.count("env.step") > 0


def test_traced_compare_builds_once_per_seed(tmp_path):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    saved = tracer_module.install(tracer)
    try:
        tracer.active = True
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["compare", "--policies", "reactive-avg,reactive-max",
                           "--seeds", "0,1", "--out", str(tmp_path / "cmp")])
        tracer.active = False
    finally:
        tracer_module.uninstall(saved)
    assert rc == 0
    assert tracer._stack == []
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("workload.build") == 2
    assert spans.count("training.run_episode") == 4
    assert spans.count("reactive.select") == spans.count("env.step") > 0
