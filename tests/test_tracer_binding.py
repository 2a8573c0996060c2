"""The benchmark tracer's bindings still reach the code they measure.

``perfbench/tracer.py`` wraps functions and methods at the names their
callers look up, and counts simulator events by wrapping the three event
handlers on ``FarmSim``. A refactor that inlines a handler or binds one
before the tracer is installed would leave those events uncounted without
any error, so one traced episode checks that every kind is still counted,
against the event trace of the same episode.
Each reactive policy's ``select_action`` is wrapped in its own class body,
so a traced episode of each must record one selection span per env step;
likewise SARSA's ``act`` and ``learn``, once each per env step of training.
In the CLI the tracer opens an episode at ``cli.build_episode_workload`` and
closes it at ``cli.run_episode``, so ``compare``, which runs several
episodes per build, must reach both through ``training``'s names.
The tracer is loaded from its file and only used, never edited.
"""

import contextlib
import functools
import importlib.util
import io
from pathlib import Path

import pytest

from farmscale import cli, env as env_module, training
from farmscale.core import RewardConfig
from farmscale.env import FarmEnv
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sarsa import SarsaAgent, SarsaConfig, default_discretizer
from farmscale.sim import FarmSim
from farmscale.workload import default_size_distribution, reduced_paper_model
from tests.conftest import single_phase_config

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
                                           default_workload, monkeypatch):
    tracer, env, summary = traced_episode(ReactiveAveragePolicy, ep_config,
                                          rw_config, default_workload)
    assert env.log.total_completed == summary.completed
    # the same episode again, with the simulator's event trace on
    monkeypatch.setattr(env_module, "FarmSim",
                        functools.partial(FarmSim, trace=True))
    traced_env = FarmEnv(ep_config, rw_config)
    assert training.run_episode(
        traced_env, ReactiveAveragePolicy(ep_config.step_duration),
        default_workload, seed=0) == summary
    trace = traced_env.sim.trace
    kinds = [kind for _, kind, _, _ in trace]
    # a queued arrival is no handler call, so only an arrival dispatched at
    # its own instant, its dispatch the next record, was an arrival event
    arrival_events = sum(
        kind == "arrival" and nxt[1:3] == ("dispatch", task_id)
        and nxt[0] == time
        for (time, kind, task_id, _), nxt in zip(trace, trace[1:]))
    completions, readies = kinds.count("completion"), kinds.count(
        "worker_ready")
    assert completions == summary.completed
    assert min(arrival_events, completions, readies) > 0
    # each of the three handlers must be counted: stale readies add to
    # sim.events, and nothing else may
    assert tracer.counts["sim.events"] >= (arrival_events + completions
                                           + readies)


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


def test_traced_sarsa_training_times_every_act_and_learn():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    saved = tracer_module.install(tracer)
    try:
        env = FarmEnv(single_phase_config(2.0, 60.0, n_init=2,
                                          warm_start=True), RewardConfig())
        agent = SarsaAgent(SarsaConfig(), default_discretizer(20), seed=0)
        model = reduced_paper_model()
        tracer.active = True
        training.train_agent(agent, env, default_size_distribution(model),
                             model, episodes=2)
        tracer.active = False
    finally:
        tracer_module.uninstall(saved)
    spans = [tracer.names[i] for i in tracer.name]
    assert (spans.count("sarsa.act") == spans.count("sarsa.learn")
            == spans.count("env.step") > 0)
