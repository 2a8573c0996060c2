"""The benchmark tracer's bindings still reach the code they measure.

``perfbench/tracer.py`` wraps functions and methods at the names their
callers look up, and counts simulator events by wrapping the three event
handlers on ``FarmSim``. A refactor that inlines a handler or binds one
before the tracer is installed would leave ``sim.events`` at 0 without any
error, so one traced episode checks that every event is still counted.
The tracer is loaded from its file and only used, never edited.
"""

import importlib.util
from pathlib import Path

from farmscale import training
from farmscale.env import FarmEnv
from farmscale.reactive import ReactiveAveragePolicy

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_episode_counts_every_event(ep_config, rw_config,
                                           default_workload):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    saved = tracer_module.install(tracer)
    try:
        env = FarmEnv(ep_config, rw_config)
        policy = ReactiveAveragePolicy(ep_config.step_duration)
        tracer.active = True
        summary = training.run_episode(env, policy, default_workload, seed=0)
        tracer.active = False
    finally:
        tracer_module.uninstall(saved)
    arrived, completed = env.log.total_arrived, env.log.total_completed
    assert arrived == len(default_workload) and completed == summary.completed
    assert tracer.counts["sim.events"] >= arrived + completed > 0
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
