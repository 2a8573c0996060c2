"""The benchmark's four workloads and the checks on their outputs.

Each workload is set up (configuration, inputs, one untimed warm-up), then
runs timed phases of a fixed number of units, then verifies what it
produced against an independent path through the program:

- ``compare``: ``farmscale.cli.main(["compare", ...])``, one seed per call,
  as users evaluate policies.  Verified against ``training.run_episode``.
- ``replay``: ``training.run_episode`` over workloads built once in set-up,
  so the timed region holds only the simulator, env and policies.
  Verified against one ``compare`` call over all its seeds.
- ``train_sarsa`` / ``train_dqn``: ``training.train_agent`` on fresh agents,
  100 episodes per training run, no shuffle, as in acceptance criterion 8.
  Verified by every episode log and, in a traced run, by repeating the
  untraced phase's training runs exactly.

Inputs depend only on the benchmark seed.  An episode fails if it raised or
failed a check; a failed check also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import csv
import dataclasses
import hashlib
import io
import json
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter, deque
from pathlib import Path

import numpy as np

from farmscale import cli, training
from farmscale import config as cfgmod
from farmscale.dqn import DqnAgent
from farmscale.env import FarmEnv
from farmscale.metrics import aggregate, cost_paygo, cost_sub
from farmscale.reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from farmscale.sarsa import SarsaAgent, default_discretizer
from farmscale.workload import build_episode_workload

POLICIES = ("reactive-avg", "reactive-max")
N_POLICY_SEEDS = 16  # workload seeds of compare and replay
N_EVAL_SEEDS = 8  # held-out seeds of each greedy evaluation after training


class Farm:
    """The default configuration and the exact counts it implies."""

    def __init__(self):
        cfg = cfgmod.load_config()
        self.cfg = cfg
        self.episode_cfg = cfgmod.episode_config(cfg)
        self.reward_cfg = cfgmod.reward_config(cfg)
        self.cost_cfg = cfgmod.cost_config(cfg)
        self.model, self.dist = cfgmod.service_model_and_sizes(cfg)
        self.phase_counts = Counter({i: p.target_count for i, p in
                                     enumerate(self.episode_cfg.phases)})
        self.n_tasks = sum(self.phase_counts.values())

    def env(self) -> FarmEnv:
        return FarmEnv(self.episode_cfg, self.reward_cfg)

    def build(self, seed: int) -> list:
        return build_episode_workload(self.episode_cfg, self.dist, self.model,
                                      shuffle_phases=False, rng_seed=seed)

    def workload_errors(self, tasks, seed) -> list:
        counts = Counter(t.phase_index for t in tasks)
        errors = []
        if counts != self.phase_counts:
            errors.append(f"seed {seed}: per-phase counts {dict(counts)} "
                          f"!= {dict(self.phase_counts)}")
        if [t.task_id for t in tasks] != list(range(len(tasks))):
            errors.append(f"seed {seed}: task ids not in arrival order")
        return errors

    def summary_errors(self, summary, n_tasks, label) -> list:
        errors = []
        if summary.emitted != n_tasks:
            errors.append(f"{label}: emitted {summary.emitted} != {n_tasks}")
        phase_emitted = Counter({p.phase_index: p.emitted
                                 for p in summary.per_phase})
        if phase_emitted != self.phase_counts:
            errors.append(f"{label}: per-phase emitted {dict(phase_emitted)}")
        return errors


def conservation_errors(sim, label) -> list:
    snap = sim.snapshot()
    if snap.enqueued_total != (snap.q_work + snap.workers_busy
                               + snap.completed_total):
        return [f"{label}: enqueued {snap.enqueued_total} != queued "
                f"{snap.q_work} + busy {snap.workers_busy} + completed "
                f"{snap.completed_total}"]
    return []


def summary_blob(summary) -> str:
    return json.dumps(summary.as_dict(), sort_keys=True)


def mean_qos(values) -> float:
    """Mean final QoS in (policy, seed) order, the same for every workload."""
    return float(np.mean(values))


def make_policy(name, t_step):
    cls = {"reactive-avg": ReactiveAveragePolicy,
           "reactive-max": ReactiveMaximumPolicy}[name]
    return cls(t_step)


class SpeedProbe:
    """Fixed CPU work, timed after every sample to factor out machine speed.

    On a shared host the same code runs up to about 2x slower for seconds
    at a time, in every process alike.  Each sample's host time is rescaled
    by ``NOMINAL_S`` over the median of the last three probe times, which
    removes that common factor and keeps what a code change does.  Like the
    episodes, the probe is mostly small-object work (a heap of tuples, dict
    lookups) plus a few small matrix products.  It runs with the garbage
    collector off, so it never pays for a collection that episode code
    caused.
    """

    NOMINAL_S = 8e-4  # median probe time on the baseline machine

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = {i: (i * 7919) % 1009 for i in range(1024)}
        self.a = rng.random((64, 128))
        self.b = rng.random((128, 64))
        self.out = np.empty((64, 64))
        self.recent = deque(maxlen=3)

    def seconds(self) -> float:
        table, a, b, out = self.table, self.a, self.b, self.out
        gc.disable()
        try:
            t0 = time.perf_counter()
            heap = []
            for i in range(1000):
                heapq.heappush(heap, ((i * 7919) % 1009, i, table[i]))
            acc = 0
            while heap:
                acc += heapq.heappop(heap)[2]
            for _ in range(8):
                np.dot(a, b, out=out)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self) -> float:
        """Factor from host time to time at the nominal machine speed."""
        self.recent.append(self.seconds())
        return self.NOMINAL_S / statistics.median(self.recent)


class Phase:
    """Samples of one timed phase.  A sample is one episode, or one CLI call
    covering ``episodes`` episodes; each is kept as host time and rescaled
    to the nominal machine speed."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.durations: list[float] = []  # host seconds
        self.scaled: list[float] = []  # seconds at nominal speed
        self.timed_s = 0.0
        self.scaled_s = 0.0
        self.episodes = 0
        self.sim_tasks = 0
        self.calls: Counter = Counter()  # CLI calls per seed
        self.qtable_states: list[int] = []  # per SARSA training run

    def add(self, seconds: float, episodes: int, sim_tasks: int = 0):
        scaled = seconds * self.probe.scale()
        self.durations.append(seconds)
        self.scaled.append(scaled)
        self.timed_s += seconds
        self.scaled_s += scaled
        self.episodes += episodes
        self.sim_tasks += sim_tasks

    def episode_ms(self, durations) -> list:
        per_sample = self.episodes / len(durations) if durations else 1
        return [d * 1e3 / per_sample for d in durations]


class TimedCall:
    """Times one call; when traced, records spans only inside it."""

    def __init__(self, tracer, episode=True):
        self.tracer = tracer
        self.episode = episode and tracer is not None
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
            if self.episode:
                self.tracer.begin_episode()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        if self.episode and exc[0] is None:
            self.tracer.end_episode()
        if self.tracer is not None:
            self.tracer.active = False
        return False


class Workload:
    """Shared bookkeeping: work sizing, attempts, failures, the error log.

    A run does a fixed number of units (a pass over the inputs, or one
    training run), sized from ``--seconds`` at nominal machine speed, so the
    mix of episodes never depends on how fast the machine happened to be.
    A phase stops early only past ``OVERRUN`` times its time budget.
    """

    unit_s = 1.0  # seconds one unit takes at nominal speed
    min_units = 1  # units a full-length run needs for its checks
    OVERRUN = 1.5

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.qos = 0.0  # stays 0 if verification finds no results
        self.digest = ""

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def fail(self, episodes: int, errors):
        self.failed += episodes
        self.errors.extend(errors)

    def crash(self, episodes: int, label, tracer):
        if tracer is not None:
            tracer.unwind()
        self.fail(episodes, [f"{label}: {traceback.format_exc(limit=3)}"])

    def policy_seeds(self) -> list:
        return [self.seed * 100_000 + i for i in range(N_POLICY_SEEDS)]

    def close(self):
        pass


class Replay(Workload):
    name = "replay"
    unit_s = 0.32  # one pass: 2 policies x 16 seeds

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.reference: dict = {}  # (policy, seed) -> (blob, qos, completed)

    def setup(self):
        farm = Farm()
        self.farm = farm
        self.inputs = {}
        for s in self.policy_seeds():
            tasks = farm.build(s)
            self.inputs[s] = tasks
            errors = farm.workload_errors(tasks, s)
            if errors:
                self.fail(0, errors)
        self.players = [(name, make_policy(name, farm.episode_cfg.step_duration),
                         farm.env()) for name in POLICIES]
        _, policy, env = self.players[0]
        s = self.policy_seeds()[0]
        training.run_episode(env, policy, self.inputs[s], s)  # warm-up

    def run(self, units, phase: Phase, tracer=None, budget_s=float("inf")):
        order = [(p, s) for p in range(len(POLICIES)) for s in self.policy_seeds()]
        for i, (p, s) in enumerate(order * units):
            if i % len(order) == 0 and i and phase.timed_s > budget_s:
                break
            name, policy, env = self.players[p]
            tasks = self.inputs[s]
            label = f"replay {name} seed {s}"
            self.attempted += 1
            try:
                with TimedCall(tracer) as clock:
                    summary = training.run_episode(env, policy, tasks, s)
            except Exception:
                self.crash(1, label, tracer)
                continue
            phase.add(clock.seconds, 1, summary.completed)
            errors = (self.farm.summary_errors(summary, len(tasks), label)
                      + conservation_errors(env.sim, label))
            blob = summary_blob(summary)
            ref = self.reference.setdefault(
                (p, s), (blob, summary.final_qos, summary.completed))
            if ref[0] != blob:
                errors.append(f"{label}: summary differs from an earlier run")
            if errors:
                self.fail(1, errors)

    def verify(self, phases):
        seeds = self.policy_seeds()
        missing = [k for k in ((p, s) for p in range(len(POLICIES)) for s in seeds)
                   if k not in self.reference]
        if missing:
            self.fail(len(missing), [f"replay: no result for {missing}"])
            return
        qos = {p: [self.reference[(p, s)][1] for s in seeds]
               for p in range(len(POLICIES))}
        self.qos = mean_qos(qos[0] + qos[1])
        self.digest = hashlib.sha256("".join(
            self.reference[(p, s)][0] for p in range(len(POLICIES))
            for s in seeds).encode()).hexdigest()[:16]

        # the CLI path over the same seeds must report the same QoS
        out = Path(tempfile.mkdtemp(prefix="compare-", dir=self.out_dir))
        try:
            argv = ["compare", "--policies", ",".join(POLICIES), "--seeds",
                    ",".join(map(str, seeds)), "--out", str(out)]
            self.attempted += len(POLICIES) * len(seeds)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            rows = []
            if rc == 0:
                with open(out / "comparison.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        errors = [] if rc == 0 else [f"replay: compare exited {rc}"]
        for p, name in enumerate(POLICIES):
            row = next((r for r in rows if r["policy"] == name), None)
            expected = aggregate(qos[p])[0]
            if row is None or float(row["final_qos_mean"]) != expected:
                errors.append(f"replay: compare {name} qos "
                              f"{row and row['final_qos_mean']} != {expected!r}")
        if errors:
            self.fail(len(POLICIES) * len(seeds), errors)


class Compare(Workload):
    name = "compare"
    unit_s = 0.85  # one cycle: a call per seed, 16 seeds

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.out = Path(tempfile.mkdtemp(prefix="compare-", dir=out_dir))
        self.outputs: dict = {}  # seed -> CSV files of its first call

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, s, tracer=None):
        argv = ["compare", "--policies", ",".join(POLICIES), "--seeds", str(s),
                "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            with TimedCall(tracer, episode=False) as clock:
                rc = cli.main(argv)
        return rc, clock.seconds

    def setup(self):
        self.farm = Farm()
        self.call(self.policy_seeds()[0])  # warm-up

    def run(self, units, phase: Phase, tracer=None, budget_s=float("inf")):
        seeds = self.policy_seeds()
        for i, s in enumerate(seeds * units):
            if i % len(seeds) == 0 and i and phase.timed_s > budget_s:
                break
            label = f"compare seed {s}"
            self.attempted += len(POLICIES)
            try:
                rc, dt = self.call(s, tracer)
            except Exception:
                self.crash(len(POLICIES), label, tracer)
                continue
            if rc != 0:
                self.fail(len(POLICIES), [f"{label}: exit code {rc}"])
                continue
            phase.add(dt, len(POLICIES))
            phase.calls[s] += 1
            output = tuple((self.out / f).read_bytes()
                           for f in ("comparison.csv", "per_phase.csv"))
            if self.outputs.setdefault(s, output) != output:
                self.fail(len(POLICIES),
                          [f"{label}: output differs from an earlier call"])

    def verify(self, phases):
        """Recompute every CSV value through ``training.run_episode``."""
        farm = self.farm
        seeds = self.policy_seeds()
        qos = {name: [] for name in POLICIES}
        tasks_done = {}
        for s in seeds:
            if s not in self.outputs:
                self.fail(len(POLICIES), [f"compare seed {s}: never ran"])
                continue
            comparison, per_phase = (io.StringIO(b.decode())
                                     for b in self.outputs[s])
            rows = {r["policy"]: r for r in csv.DictReader(comparison)}
            phase_rows = {(r["policy"], r["phase"]): r
                          for r in csv.DictReader(per_phase)}
            tasks = farm.build(s)
            errors = farm.workload_errors(tasks, s)
            tasks_done[s] = 0
            for name in POLICIES:
                label = f"compare {name} seed {s}"
                self.attempted += 1
                env = farm.env()
                summary = training.run_episode(
                    env, make_policy(name, farm.episode_cfg.step_duration),
                    tasks, s)
                errors += (farm.summary_errors(summary, len(tasks), label)
                           + conservation_errors(env.sim, label))
                tasks_done[s] += summary.completed
                qos[name].append(summary.final_qos)
                series = [st.observation.n_workers for st in env.log.steps]
                t_step = farm.episode_cfg.step_duration
                expected = {
                    "final_qos_mean": summary.final_qos,
                    "mean_workers_mean": summary.n_mean,
                    "max_workers_mean": summary.n_max,
                    "scaling_actions_mean": summary.n_scale,
                    "no_op_actions_mean": summary.no_ops,
                    "cost_paygo_mean": cost_paygo(series, t_step, farm.cost_cfg),
                    "cost_sub_mean": cost_sub(series, t_step, farm.cost_cfg),
                }
                row = rows.get(name, {})
                for key, value in expected.items():
                    if key not in row or float(row[key]) != float(value):
                        errors.append(f"{label}: {key} {row.get(key)} != {value!r}")
                for p in summary.per_phase:
                    got = phase_rows.get((name, str(p.phase_index)), {})
                    if (float(got.get("qos_mean", "nan")) != p.qos
                            or float(got.get("mean_workers_mean", "nan"))
                            != p.mean_workers):
                        errors.append(f"{label}: phase {p.phase_index} differs")
            if errors:
                calls = sum(phase.calls[s] for phase in phases)
                self.fail(len(POLICIES) * (calls + 1), errors)
        for phase in phases:
            phase.sim_tasks = sum(n * tasks_done.get(s, 0)
                                  for s, n in phase.calls.items())
        self.qos = mean_qos(qos[POLICIES[0]] + qos[POLICIES[1]])
        self.digest = hashlib.sha256(b"".join(
            b"".join(self.outputs.get(s, ())) for s in seeds)).hexdigest()[:16]


class Train(Workload):
    """Training runs of ``EPISODES`` episodes, each on a fresh agent.

    Run ``k`` of a benchmark seed always has the same seeds, so its outputs
    repeat exactly; the QoS is the greedy evaluation of runs 0 to 3 on
    held-out seeds, outside the timed region.
    """

    EPISODES = 100
    QOS_RUNS = 4  # learned QoS varies by training seed: average four runs
    min_units = QOS_RUNS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.run_digests: dict = {}  # run index -> digest of its outputs
        self.eval_qos: dict = {}  # run index -> mean greedy QoS
        self.eval_blobs: dict = {}

    def base_seed(self, k: int) -> int:
        return self.seed * 100_000 + 1_000 * k

    def setup(self):
        self.farm = Farm()
        self.env = self.farm.env()
        # run index 99 is never reached within one process's time budget
        seed = self.base_seed(99)
        agent = self.warmup_agent(seed)
        training.train_agent(agent, self.env, self.farm.dist, self.farm.model,
                             episodes=3, base_seed=seed, shuffle=False)
        training.evaluate_policy(agent, self.env, self.farm.dist,
                                 self.farm.model, [seed])

    def warmup_agent(self, seed):
        return self.make_agent(seed)

    def run(self, units, phase: Phase, tracer=None, budget_s=float("inf")):
        farm, env = self.farm, self.env
        for k in range(units):
            if k >= self.min_units and phase.timed_s > budget_s:
                break
            label = f"{self.name} run {k}"
            agent = self.make_agent(self.base_seed(k))
            errors = []
            done = bad = 0
            last = 0.0

            def on_episode(record):
                # the checks run here, between two timed episodes
                nonlocal done, bad, last
                t = time.perf_counter()
                if tracer is not None:
                    tracer.end_episode()
                    tracer.active = False
                done += 1
                log = env.log
                phase.add(t - last, 1, log.total_completed)
                ep = f"{label} episode {record.episode}"
                counts = Counter(task.phase_index for task in log.tasks)
                found = conservation_errors(env.sim, ep)
                if log.n_tasks != farm.n_tasks or counts != farm.phase_counts:
                    found.append(f"{ep}: per-phase counts {dict(counts)}")
                if record.steps != len(log.steps):
                    found.append(f"{ep}: {record.steps} steps logged "
                                 f"as {len(log.steps)}")
                bad += bool(found)
                errors.extend(found)
                if tracer is not None:
                    tracer.active = True
                    tracer.begin_episode()
                last = time.perf_counter()

            self.attempted += self.EPISODES
            try:
                if tracer is not None:
                    tracer.active = True
                    tracer.begin_episode()
                last = time.perf_counter()
                records = training.train_agent(
                    agent, env, farm.dist, farm.model, episodes=self.EPISODES,
                    base_seed=self.base_seed(k), shuffle=False,
                    progress=on_episode)
                if tracer is not None:
                    tracer.discard_episode()
            except Exception:
                self.crash(self.EPISODES - done, label, tracer)
                records = None
            finally:
                if tracer is not None:
                    tracer.active = False
            if records is not None:
                self.record_run(k, records, agent)
                phase.qtable_states.append(len(getattr(agent, "qtable", ())))
            if errors:
                self.fail(bad, errors)

    def record_run(self, k, records, agent):
        digest = hashlib.sha256()
        for r in records:
            digest.update(repr(dataclasses.astuple(r)).encode())
        self.agent_digest(agent, digest)
        digest = digest.hexdigest()
        if self.run_digests.setdefault(k, digest) != digest:
            self.fail(self.EPISODES, [f"{self.name} run {k}: outputs differ "
                                      f"from an earlier identical run"])
        if k < self.QOS_RUNS and k not in self.eval_qos:
            seeds = [self.base_seed(k) + 500 + i for i in range(N_EVAL_SEEDS)]
            self.attempted += len(seeds)
            summaries = training.evaluate_policy(
                agent, self.env, self.farm.dist, self.farm.model, seeds)
            for s, summary in zip(seeds, summaries):
                errors = self.farm.summary_errors(
                    summary, self.farm.n_tasks, f"{self.name} eval seed {s}")
                if errors:
                    self.fail(1, errors)
            self.eval_qos[k] = mean_qos([x.final_qos for x in summaries])
            self.eval_blobs[k] = "".join(map(summary_blob, summaries))

    def verify(self, phases):
        missing = [k for k in range(self.QOS_RUNS) if k not in self.eval_qos]
        if missing:
            self.fail(1, [f"{self.name}: runs {missing} never completed"])
            return
        self.qos = mean_qos([self.eval_qos[k] for k in range(self.QOS_RUNS)])
        self.digest = hashlib.sha256("".join(
            self.run_digests[k] + self.eval_blobs[k]
            for k in range(self.QOS_RUNS)).encode()).hexdigest()[:16]


class TrainSarsa(Train):
    name = "train_sarsa"
    unit_s = 2.9

    def make_agent(self, seed):
        return SarsaAgent(cfgmod.sarsa_config(self.farm.cfg),
                          default_discretizer(self.farm.episode_cfg.n_max),
                          seed=seed)

    def agent_digest(self, agent, digest):
        for state, row in sorted(agent.qtable.items()):
            digest.update(repr(state).encode())
            digest.update(row.tobytes())


class TrainDqn(Train):
    name = "train_dqn"
    unit_s = 4.4

    def make_agent(self, seed, **overrides):
        lows, highs = self.env.observation_bounds()
        cfg = dataclasses.replace(cfgmod.dqn_config(self.farm.cfg), **overrides)
        return DqnAgent(lows, highs, cfg, seed=seed)

    def warmup_agent(self, seed):
        # a short replay warm-up, so the warm-up also runs train_step
        return self.make_agent(seed, warmup=self.farm.cfg["dqn_batch_size"])

    def agent_digest(self, agent, digest):
        for net in (agent.policy, agent.target):
            for array in net.parameters():
                digest.update(array.tobytes())
