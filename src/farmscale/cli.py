"""Command-line harness: calibrate, workload, run, train, compare.

This module is the one writer of every output table: each command builds
its rows where it writes them, under the headers below. A checkpoint is
written by its agent's ``save``, beside the ``load`` that reads it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import fields
from itertools import chain
from operator import attrgetter
from pathlib import Path

from . import config as cfgmod
from .core import Observation, TaskSpec, task_columns
from .dqn import DqnAgent
from .env import FarmEnv
from .metrics import aggregate_rows, cost_paygo, cost_sub
from .reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from .sarsa import SarsaAgent, default_discretizer
from .training import (TrainingRecord, evaluate_policies, run_episode,
                       train_agent)
from .workload import (CALIBRATION_SAMPLES, FitError, build_episode_workload,
                       fit_service_model)

_STEP_SCALARS = ("action", "applied_delta", "reward", "arrived", "completed",
                 "hits")
# steps.csv: one row per logged StepRecord, its observation spread out
STEP_COLUMNS = ("step", *Observation._fields, *_STEP_SCALARS)
_step_scalars = attrgetter(*_STEP_SCALARS)
# tasks.csv: a task's fields but the phase, then its completion and met
TASK_COLUMNS = ("task_id", "arrival", "size", "service", "deadline",
                "completion", "met")
# training_curve.csv: one row per TrainingRecord, in its field order
CURVE_COLUMNS = tuple(f.name for f in fields(TrainingRecord))


def write_csv(path, header, rows):
    """Write ``header`` and then each of ``rows`` to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_samples(path):
    samples = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() in ("size", "size_px"):
                continue
            try:
                size, mean_time = map(float, row)
            except ValueError:  # not exactly two numbers
                raise ValueError(f"{path}:{lineno}: expected 'size,mean_time'")
            if not all(math.isfinite(v) and v > 0 for v in (size, mean_time)):
                raise ValueError(f"{path}:{lineno}: size and mean_time must be "
                                 f"finite and positive, got {row[0]},{row[1]}")
            samples.append((size, mean_time))
    if not samples:
        raise ValueError(f"{path}: no samples found")
    return samples


def cmd_calibrate(args):
    samples = (_load_samples(args.samples) if args.samples
               else list(CALIBRATION_SAMPLES))
    try:
        full = fit_service_model(samples, form="full")
        reduced = fit_service_model(samples, form="reduced")
    except FitError as exc:  # only a samples file can fail the fit
        raise ValueError(f"{args.samples}: {exc}")
    report = {
        "full": {"a": full.a, "b": full.b, "c": full.c,
                 "r_squared": full.r_squared, "rss": full.rss},
        "reduced": {"a": reduced.a, "c": reduced.c,
                    "r_squared": reduced.r_squared, "rss": reduced.rss},
        "delta_rss": reduced.rss - full.rss,
    }
    print(f"full:    a={full.a:.4e} b={full.b:.4e} c={full.c:.4e} "
          f"R2={full.r_squared:.6f} RSS={full.rss:.4e}")
    print(f"reduced: a={reduced.a:.4e} c={reduced.c:.4e} "
          f"R2={reduced.r_squared:.6f} RSS={reduced.rss:.4e}")
    print(f"delta_rss={report['delta_rss']:.4e}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
    return 0


def _seeds(flag: str, text: str, many: bool = False) -> list:
    """The seeds in ``text``: one integer >= 0, or with ``many`` a
    comma-separated list of them. Any other text raises ``ValueError``
    naming ``flag`` and ``text``, before a command reads or writes a file;
    numpy would reject a negative seed only inside the run, naming neither.
    """
    seeds = text.split(",") if many else [text]
    if not all(seed.strip().isdecimal() for seed in seeds):
        kind = "comma-separated integers" if many else "an integer"
        raise ValueError(f"{flag} must be {kind} >= 0, got {text!r}")
    return [int(seed) for seed in seeds]


def _setup(args):
    """(config dict, env, service model, size distribution) of a command."""
    cfg = cfgmod.load_config(args.config)
    model, dist = cfgmod.service_model_and_sizes(cfg)
    env = FarmEnv(cfgmod.episode_config(cfg), cfgmod.reward_config(cfg))
    return cfg, env, model, dist


def cmd_workload(args):
    [seed] = _seeds("--seed", args.seed)
    _, env, model, dist = _setup(args)
    tasks = build_episode_workload(env.config, dist, model,
                                   shuffle_phases=args.shuffle,
                                   rng_seed=seed)
    write_csv(args.out, TaskSpec._fields, tasks)
    counts = Counter(tasks.phase_index)
    for phase in sorted(counts):
        print(f"phase {phase}: {counts[phase]} tasks")
    print(f"total: {len(tasks)} tasks -> {args.out}")
    return 0


def _make_policy(spec: str, env: FarmEnv):
    kind, _, ckpt = spec.partition(":")
    if kind == "reactive-avg":
        return ReactiveAveragePolicy(env.config.step_duration)
    if kind == "reactive-max":
        return ReactiveMaximumPolicy(env.config.step_duration)
    if kind in ("sarsa", "dqn"):
        if not ckpt:
            raise ValueError(f"{kind} policy needs a checkpoint: {kind}:<path>")
        return (SarsaAgent if kind == "sarsa" else DqnAgent).load(ckpt)
    raise ValueError(f"unknown policy {spec!r}; use reactive-avg, reactive-max, "
                     f"sarsa:<ckpt> or dqn:<ckpt>")


def cmd_run(args):
    [seed] = _seeds("--seed", args.seed)
    _, env, model, dist = _setup(args)
    policy = _make_policy(args.policy, env)
    workload = build_episode_workload(env.config, dist, model,
                                      shuffle_phases=args.shuffle,
                                      rng_seed=seed)
    summary = run_episode(env, policy, workload, seed)
    # a task with no completion record never completed: completion nan and
    # missed; met is written as 0/1
    completion, met = [math.nan] * len(workload), [0] * len(workload)
    for i, time, hit in env.log.completions:
        completion[i], met[i] = time, int(hit)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "steps.csv", STEP_COLUMNS,
              ((s.step, *s.observation, *_step_scalars(s))
               for s in env.log.steps))
    write_csv(out / "tasks.csv", TASK_COLUMNS,
              zip(*task_columns(workload)[:5], completion, met))
    (out / "summary.json").write_text(json.dumps(summary.as_dict(), indent=2))
    print(f"final_qos={summary.final_qos:.4f} mean_workers={summary.n_mean:.2f} "
          f"scaling_actions={summary.n_scale} -> {out}")
    return 0


def cmd_train(args):
    [seed] = _seeds("--seed", args.seed)
    cfg, env, model, dist = _setup(args)

    if args.agent == "sarsa":
        agent = SarsaAgent(cfgmod.sarsa_config(cfg),
                           default_discretizer(env.config.n_max), seed=seed)
        ckpt_name = "sarsa.json"
    else:  # dqn, the one other choice the parser takes
        lows, highs = env.observation_bounds()
        agent = DqnAgent(lows, highs, cfgmod.dqn_config(cfg), seed=seed)
        ckpt_name = "dqn.npz"

    records = train_agent(agent, env, dist, model, episodes=args.episodes,
                          base_seed=seed, shuffle=args.shuffle)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    agent.save(out / ckpt_name)
    write_csv(out / "training_curve.csv", CURVE_COLUMNS,
              map(attrgetter(*CURVE_COLUMNS), records))
    last = records[-1]
    print(f"trained {args.agent} for {len(records)} episodes "
          f"(last qos={last.final_qos:.4f}, eps={last.epsilon:.3f}) -> {out}")
    return 0


def cmd_compare(args):
    seeds = _seeds("--seeds", args.seeds, many=True)
    cfg, env, model, dist = _setup(args)
    t_step = env.config.step_duration
    cost_cfg = cfgmod.cost_config(cfg)
    specs = [spec.strip() for spec in args.policies.split(",")]
    policies = [_make_policy(spec, env) for spec in specs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    runs = evaluate_policies(policies, env, dist, model, seeds)

    columns = ("final_qos", "mean_workers", "max_workers", "scaling_actions",
               "no_op_actions", "cost_paygo", "cost_sub")
    n = len(columns)
    qos = columns.index("final_qos")
    scaling = columns.index("scaling_actions")
    rows, phase_rows = [], []
    for spec, summaries in zip(specs, runs):
        # one row of values per episode; each column is reduced over seeds
        episodes = [[s.final_qos, s.n_mean, s.n_max, s.n_scale, s.no_ops,
                     cost_paygo(s.workers, t_step, cost_cfg),
                     cost_sub(s.workers, t_step, cost_cfg)]
                    + [v for ph in s.per_phase
                       for v in (ph.qos, ph.mean_workers)]
                    for s in summaries]
        means, stds = aggregate_rows(list(zip(*episodes)))
        rows.append([spec, *chain.from_iterable(zip(means[:n], stds[:n]))])
        for phase, i in enumerate(range(n, len(means), 2)):
            phase_rows.append([spec, phase, means[i], stds[i], means[i + 1],
                               stds[i + 1]])
        print(f"{spec}: qos={means[qos]:.4f}±{stds[qos]:.4f} "
              f"scaling={means[scaling]:.1f}")

    write_csv(out / "comparison.csv",
              ["policy", *(f"{label}_{stat}" for label in columns
                           for stat in ("mean", "std"))], rows)
    write_csv(out / "per_phase.csv",
              ("policy", "phase", "qos_mean", "qos_std", "mean_workers_mean",
               "mean_workers_std"), phase_rows)
    print(f"-> {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each
    ``parse_args`` call returns a fresh namespace, so nothing carries over
    from one ``main`` call to the next."""
    parser = argparse.ArgumentParser(
        prog="farmscale",
        description="Virtual-time farm autoscaling simulator and policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the quadratic service-time model")
    p.add_argument("--samples", help="CSV of size,mean_time (default: built-in)")
    p.add_argument("--out", help="write the fit report JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("workload", help="generate an episode task stream")
    p.add_argument("--config")
    p.add_argument("--seed", default="0")
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("run", help="run one episode under a policy")
    p.add_argument("--config")
    p.add_argument("--policy", required=True,
                   help="reactive-avg | reactive-max | sarsa:<ckpt> | dqn:<ckpt>")
    p.add_argument("--seed", default="0")
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("train", help="train a learning agent")
    p.add_argument("--config")
    p.add_argument("--agent", choices=("sarsa", "dqn"), required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--shuffle", action="store_true", default=True)
    p.add_argument("--no-shuffle", dest="shuffle", action="store_false")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="evaluate policies over seeds")
    p.add_argument("--config")
    p.add_argument("--policies", required=True,
                   help="comma-separated policy specs")
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
