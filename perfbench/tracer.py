"""In-memory span tracer wrapped around farmscale's public functions.

Wrappers are installed at run time, and only in a traced run, at the place
where each caller looks its callee up: the importing module's attribute for
a function (``farmscale.cli.build_episode_workload``), the class attribute
for a method (``FarmSim.advance``).  Nothing under ``src/`` is edited.

A span is (name, start, end, parent, episode id), kept in flat arrays so a
long run allocates no Python object per span.  Self times and the per-layer
metrics are computed from the spans after the run.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array
from collections import Counter

import numpy as np

EPISODE = "training.episode"

# (name, unit) of every per-layer metric, in report order.  Counts are per
# episode, per step or per call as the unit says; times are host times
# rescaled to the nominal machine speed (see workloads.SpeedProbe).
PER_LAYER = (
    ("workload.build_ms", "ms"),
    ("workload.us_per_task", "us"),
    ("workload.calls", "calls/episode"),
    ("cli.self_ms", "ms"),
    ("sim.advance_ms", "ms/episode"),
    ("sim.events", "events/episode"),
    ("sim.events_per_s", "1/s"),
    ("sim.snapshot_calls", "calls/step"),
    ("sim.snapshot_us", "us"),
    ("sim.request_scale_us", "us"),
    ("sim.inject_ms", "ms"),
    ("env.step_self_us", "us"),
    ("env.reset_self_ms", "ms"),
    ("env.steps", "steps/episode"),
    ("reactive.select_us", "us"),
    ("sarsa.act_us", "us"),
    ("sarsa.learn_us", "us"),
    ("sarsa.traces_swept", "count"),
    ("sarsa.qtable_states", "count"),
    ("dqn.act_us", "us"),
    ("dqn.learn_us", "us"),
    ("dqn.sample_us", "us"),
    ("dqn.targets_us", "us"),
    ("dqn.train_steps", "steps/episode"),
    ("dqn.train_ratio", "ratio"),
    ("dqn.episode_ms_pre_warmup", "ms"),
    ("dqn.episode_ms_post_warmup", "ms"),
    ("nn.forward_us", "us"),
    ("nn.forward_calls_per_act", "calls"),
    ("nn.forward_calls_per_train_step", "calls"),
    ("nn.backward_us", "us"),
    ("nn.adam_us", "us"),
    ("nn.soft_update_us", "us"),
    ("metrics.summarize_ms", "ms"),
    ("training.loop_self_ms", "ms/episode"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
) + tuple((f"share.{layer}", "ratio") for layer in (
    "workload", "cli", "sim", "env", "reactive", "sarsa", "dqn", "nn",
    "metrics", "training"))


class Tracer:
    """Span store plus named counters; ``active`` gates all recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.episode = array("i")
        self.counts: Counter = Counter()
        self.active = False
        self.episode_id = -1
        self._stack: list[int] = []
        self._episode_span = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.episode.append(self.episode_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_episode(self):
        self.episode_id += 1
        self._episode_span = self.open(self.name_id(EPISODE))

    def end_episode(self):
        self.close(self._episode_span)

    def discard_episode(self):
        """Drop the episode span opened after a training run's last episode."""
        if self._stack and self._stack[-1] == len(self.start) - 1:
            self._stack.pop()
            for column in (self.name, self.start, self.end, self.parent,
                           self.episode):
                column.pop()
            self.episode_id -= 1

    def unwind(self):
        """Close every open span after an exception escaped an episode."""
        while self._stack:
            self.close(self._stack[-1])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start", "end", "parent",
                             "episode"))
            for i in range(len(self.start)):
                writer.writerow((i, self.names[self.name[i]], self.start[i],
                                 self.end[i], self.parent[i], self.episode[i]))


def _span(tracer, name, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _count(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _build(tracer, fn, opens_episode):
    """Workload build span; in the CLI it also starts the episode span."""
    inner = _span(tracer, "workload.build", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if opens_episode:
            tracer.begin_episode()
        tasks = inner(*args, **kwargs)
        tracer.counts["workload.tasks"] += len(tasks)
        return tasks
    return wrapper


def _cli_run_episode(tracer, fn):
    """The CLI's episode is its workload build plus this call."""
    inner = _span(tracer, "training.run_episode", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        summary = inner(*args, **kwargs)
        tracer.end_episode()
        return summary
    return wrapper


def _sarsa_update(tracer, fn):
    """Counts the traces one update sweeps: the live ones plus a new key."""
    @functools.wraps(fn)
    def wrapper(qtable, traces, state, action_idx, *rest, **kwargs):
        if tracer.active:
            tracer.counts["sarsa.updates"] += 1
            tracer.counts["sarsa.traces_swept"] += (
                len(traces) + ((state, action_idx) not in traces))
        return fn(qtable, traces, state, action_idx, *rest, **kwargs)
    return wrapper


def install(tracer) -> list:
    """Wrap every traced boundary; returns what ``uninstall`` restores."""
    from farmscale import cli, dqn, env, nn, reactive, sarsa, sim, training

    spans = (
        (cli, "main", "cli.main"),
        (training, "run_episode", "training.run_episode"),
        (training, "summarize_episode", "metrics.summarize"),
        (cli, "cost_paygo", "metrics.cost"),
        (cli, "cost_sub", "metrics.cost"),
        (env.FarmEnv, "reset", "env.reset"),
        (env.FarmEnv, "step", "env.step"),
        (sim.FarmSim, "inject_tasks", "sim.inject"),
        (sim.FarmSim, "advance", "sim.advance"),
        (sim.FarmSim, "snapshot", "sim.snapshot"),
        (sim.FarmSim, "request_scale", "sim.request_scale"),
        (reactive.ReactiveAveragePolicy, "select_action", "reactive.select"),
        (reactive.ReactiveMaximumPolicy, "select_action", "reactive.select"),
        (sarsa.SarsaAgent, "act", "sarsa.act"),
        (sarsa.SarsaAgent, "learn", "sarsa.learn"),
        (dqn.DqnAgent, "act", "dqn.act"),
        (dqn.DqnAgent, "learn", "dqn.learn"),
        (dqn.ReplayBuffer, "sample", "dqn.sample"),
        (dqn, "double_dqn_targets", "dqn.targets"),
        (nn.Mlp, "forward", "nn.forward"),
        (nn.Mlp, "loss_and_gradients", "nn.backward"),
        (nn.Adam, "step", "nn.adam"),
        (dqn, "soft_update", "nn.soft_update"),
    )
    wrappers = [(owner, attr, _span(tracer, name, getattr(owner, attr)))
                for owner, attr, name in spans]
    wrappers += [(owner, attr, _count(tracer, "sim.events", getattr(owner, attr)))
                 for owner, attr in ((sim.FarmSim, "_on_arrival"),
                                     (sim.FarmSim, "_on_completion"),
                                     (sim.FarmSim, "_on_worker_ready"))]
    wrappers += [
        (training, "build_episode_workload",
         _build(tracer, training.build_episode_workload, False)),
        (cli, "build_episode_workload",
         _build(tracer, cli.build_episode_workload, True)),
        (cli, "run_episode", _cli_run_episode(tracer, cli.run_episode)),
        (sarsa, "sarsa_update", _sarsa_update(tracer, sarsa.sarsa_update)),
    ]
    saved = []
    for owner, attr, wrapper in wrappers:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(tracer, timed_s: float, episodes: int, speed: float,
                  overhead: float, extra: dict) -> dict:
    """Per-layer values from the spans of the traced timed region.

    Times are rescaled by ``speed``, the phase's factor from host time to
    nominal machine speed, as the end-to-end times are.  ``extra`` supplies
    what spans cannot show (the Q-table size).  A layer the workload never
    enters reports 0.
    """
    n = len(tracer.start)
    names = np.frombuffer(tracer.name, dtype=np.int32, count=n)
    start = np.frombuffer(tracer.start, count=n)
    end = np.frombuffer(tracer.end, count=n)
    parent = np.frombuffer(tracer.parent, dtype=np.int32, count=n)
    episode = np.frombuffer(tracer.episode, dtype=np.int32, count=n)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_time = dur - child
    layer_of = np.array([name.split(".")[0] for name in tracer.names] or [""])

    def mask(name):
        return names == tracer._ids.get(name, -1)

    def count(name):
        return int(np.count_nonzero(mask(name)))

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def mean(name, scale):
        m = mask(name)
        return ratio(dur[m].sum() * scale, np.count_nonzero(m))

    def self_mean(name, scale):
        m = mask(name)
        return ratio(self_time[m].sum() * scale, np.count_nonzero(m))

    counts = tracer.counts
    steps = count("env.step")
    advance_s = dur[mask("sim.advance")].sum()
    episode_s = dur[mask(EPISODE)].sum()
    in_layer = {layer: layer_of[names] == layer for layer in set(layer_of)}
    training_self = self_time[in_layer.get("training", np.zeros(n, bool))].sum()

    acts, samples, learns = count("dqn.act"), count("dqn.sample"), count("dqn.learn")
    forwards = mask("nn.forward")
    parent_names = names[parent[forwards]]
    act_forwards = int(np.count_nonzero(parent_names == tracer._ids.get("dqn.act", -1)))

    # an episode is before warm-up if it trained on no batch, after it if
    # every learn call trained on one; the crossing episode is neither
    ep_mask = mask(EPISODE)
    n_ep = int(episode.max()) + 1 if n else 0
    learn_per_ep = np.bincount(episode[mask("dqn.learn")], minlength=n_ep)
    train_per_ep = np.bincount(episode[mask("dqn.sample")], minlength=n_ep)
    ep_ids, ep_dur = episode[ep_mask], dur[ep_mask]
    pre = ep_dur[(learn_per_ep[ep_ids] > 0) & (train_per_ep[ep_ids] == 0)]
    post = ep_dur[(learn_per_ep[ep_ids] > 0)
                  & (train_per_ep[ep_ids] == learn_per_ep[ep_ids])]

    values = {
        "workload.build_ms": mean("workload.build", 1e3),
        "workload.us_per_task": ratio(dur[mask("workload.build")].sum() * 1e6,
                                      counts["workload.tasks"]),
        "workload.calls": ratio(count("workload.build"), episodes),
        "cli.self_ms": self_mean("cli.main", 1e3),
        "sim.advance_ms": ratio(advance_s * 1e3, episodes),
        "sim.events": ratio(counts["sim.events"], episodes),
        "sim.events_per_s": ratio(counts["sim.events"], advance_s),
        "sim.snapshot_calls": ratio(count("sim.snapshot"), steps),
        "sim.snapshot_us": mean("sim.snapshot", 1e6),
        "sim.request_scale_us": mean("sim.request_scale", 1e6),
        "sim.inject_ms": mean("sim.inject", 1e3),
        "env.step_self_us": self_mean("env.step", 1e6),
        "env.reset_self_ms": self_mean("env.reset", 1e3),
        "env.steps": ratio(steps, episodes),
        "reactive.select_us": mean("reactive.select", 1e6),
        "sarsa.act_us": mean("sarsa.act", 1e6),
        "sarsa.learn_us": mean("sarsa.learn", 1e6),
        "sarsa.traces_swept": ratio(counts["sarsa.traces_swept"],
                                    counts["sarsa.updates"]),
        "sarsa.qtable_states": float(extra.get("qtable_states", 0.0)),
        "dqn.act_us": mean("dqn.act", 1e6),
        "dqn.learn_us": mean("dqn.learn", 1e6),
        "dqn.sample_us": mean("dqn.sample", 1e6),
        "dqn.targets_us": mean("dqn.targets", 1e6),
        "dqn.train_steps": ratio(samples, episodes),
        "dqn.train_ratio": ratio(samples, learns),
        "dqn.episode_ms_pre_warmup": float(np.median(pre) * 1e3) if len(pre) else 0.0,
        "dqn.episode_ms_post_warmup": float(np.median(post) * 1e3) if len(post) else 0.0,
        "nn.forward_us": mean("nn.forward", 1e6),
        "nn.forward_calls_per_act": ratio(act_forwards, acts),
        "nn.forward_calls_per_train_step": ratio(
            np.count_nonzero(forwards) - act_forwards, samples),
        "nn.backward_us": mean("nn.backward", 1e6),
        "nn.adam_us": mean("nn.adam", 1e6),
        "nn.soft_update_us": mean("nn.soft_update", 1e6),
        "metrics.summarize_ms": mean("metrics.summarize", 1e3),
        "training.loop_self_ms": ratio(training_self * 1e3, episodes),
        "trace.overhead": overhead,
        "trace.coverage": 1.0 - ratio(training_self, episode_s),
    }
    for name, _ in PER_LAYER:
        if name.startswith("share."):
            layer = name.split(".", 1)[1]
            m = in_layer.get(layer)
            values[name] = ratio(self_time[m].sum(), timed_s) if m is not None else 0.0
    rescale = {"ms": speed, "us": speed, "ms/episode": speed, "1/s": 1 / speed}
    return {name: {"value": float(values[name]) * rescale.get(unit, 1.0),
                   "unit": unit}
            for name, unit in PER_LAYER}
