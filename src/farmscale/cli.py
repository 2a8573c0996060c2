"""Command-line harness: calibrate, workload, run, train, compare."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .core import write_csv
from .dqn import DqnAgent
from .env import FarmEnv
from .metrics import aggregate_rows, cost_paygo, cost_sub
from .reactive import ReactiveAveragePolicy, ReactiveMaximumPolicy
from .sarsa import SarsaAgent, default_discretizer
from .training import (evaluate_policies, run_episode, train_agent,
                       write_training_curve)
from .workload import (CALIBRATION_SAMPLES, build_episode_workload,
                       fit_service_model, write_workload_csv)


class CliError(Exception):
    pass


def _load_samples(path):
    samples = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].strip().lower() in ("size", "size_px"):
                continue
            try:
                sample = (float(row[0]), float(row[1]))
            except (ValueError, IndexError):
                raise CliError(f"{path}:{lineno}: expected 'size,mean_time'")
            if not all(math.isfinite(v) and v > 0 for v in sample):
                raise CliError(f"{path}:{lineno}: size and mean_time must be "
                               f"finite and positive, got {row[0]},{row[1]}")
            samples.append(sample)
    if not samples:
        raise CliError(f"{path}: no samples found")
    return samples


def cmd_calibrate(args):
    samples = (_load_samples(args.samples) if args.samples
               else list(CALIBRATION_SAMPLES))
    full = fit_service_model(samples, form="full")
    reduced = fit_service_model(samples, form="reduced")
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


def _setup(args):
    """(config dict, env, service model, size distribution) of a command."""
    cfg = cfgmod.load_config(args.config)
    model, dist = cfgmod.service_model_and_sizes(cfg)
    env = FarmEnv(cfgmod.episode_config(cfg), cfgmod.reward_config(cfg))
    return cfg, env, model, dist


def cmd_workload(args):
    _, env, model, dist = _setup(args)
    tasks = build_episode_workload(env.config, dist, model,
                                   shuffle_phases=args.shuffle,
                                   rng_seed=args.seed)
    write_workload_csv(tasks, args.out)
    counts = Counter(t.phase_index for t in tasks)
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
            raise CliError(f"{kind} policy needs a checkpoint: {kind}:<path>")
        return (SarsaAgent if kind == "sarsa" else DqnAgent).load(ckpt)
    raise CliError(f"unknown policy {spec!r}; use reactive-avg, reactive-max, "
                   f"sarsa:<ckpt> or dqn:<ckpt>")


def cmd_run(args):
    _, env, model, dist = _setup(args)
    policy = _make_policy(args.policy, env)
    workload = build_episode_workload(env.config, dist, model,
                                      shuffle_phases=args.shuffle,
                                      rng_seed=args.seed)
    summary = run_episode(env, policy, workload, args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env.log.write_step_csv(out / "steps.csv")
    env.log.write_task_csv(out / "tasks.csv")
    (out / "summary.json").write_text(json.dumps(summary.as_dict(), indent=2))
    print(f"final_qos={summary.final_qos:.4f} mean_workers={summary.n_mean:.2f} "
          f"scaling_actions={summary.n_scale} -> {out}")
    return 0


def cmd_train(args):
    cfg, env, model, dist = _setup(args)

    if args.agent == "sarsa":
        agent = SarsaAgent(cfgmod.sarsa_config(cfg),
                           default_discretizer(env.config.n_max),
                           seed=args.seed)
        ckpt_name = "sarsa.json"
    elif args.agent == "dqn":
        lows, highs = env.observation_bounds()
        agent = DqnAgent(lows, highs, cfgmod.dqn_config(cfg), seed=args.seed)
        ckpt_name = "dqn.npz"
    else:
        raise CliError(f"unknown agent {args.agent!r}")

    records = train_agent(agent, env, dist, model, episodes=args.episodes,
                          base_seed=args.seed, shuffle=args.shuffle)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    agent.save(out / ckpt_name)
    write_training_curve(records, out / "training_curve.csv")
    last = records[-1]
    print(f"trained {args.agent} for {len(records)} episodes "
          f"(last qos={last.final_qos:.4f}, eps={last.epsilon:.3f}) -> {out}")
    return 0


def cmd_compare(args):
    cfg, env, model, dist = _setup(args)
    t_step = env.config.step_duration
    cost_cfg = cfgmod.cost_config(cfg)
    seeds = [int(s) for s in args.seeds.split(",")]
    specs = [spec.strip() for spec in args.policies.split(",")]
    policies = [_make_policy(spec, env) for spec in specs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    costs = [[] for _ in specs]  # per policy, (paygo, sub) per episode

    def price(p, log):
        series = [st.observation.n_workers for st in log.steps]
        costs[p].append((cost_paygo(series, t_step, cost_cfg),
                         cost_sub(series, t_step, cost_cfg)))

    runs = evaluate_policies(policies, env, dist, model, seeds,
                             on_episode=price)

    columns = ("final_qos", "mean_workers", "max_workers", "scaling_actions",
               "no_op_actions", "cost_paygo", "cost_sub")
    rows = []
    phase_rows = []
    for spec, summaries, priced in zip(specs, runs, costs):
        # one row of values per episode; each column is reduced over seeds
        episodes = [[s.final_qos, s.n_mean, s.n_max, s.n_scale, s.no_ops,
                     *cost] + [v for ph in s.per_phase
                               for v in (ph.qos, ph.mean_workers)]
                    for s, cost in zip(summaries, priced)]
        means, stds = aggregate_rows(list(zip(*episodes)))

        name = spec.split(":")[0]
        row = {"policy": name}
        for label, mean, std in zip(columns, means, stds):
            row[f"{label}_mean"] = mean
            row[f"{label}_std"] = std
        rows.append(row)
        for phase, i in enumerate(range(len(columns), len(means), 2)):
            phase_rows.append({
                "policy": name, "phase": phase,
                "qos_mean": means[i], "qos_std": stds[i],
                "mean_workers_mean": means[i + 1],
                "mean_workers_std": stds[i + 1],
            })
        print(f"{name}: qos={row['final_qos_mean']:.4f}"
              f"±{row['final_qos_std']:.4f} "
              f"scaling={row['scaling_actions_mean']:.1f}")

    _write_dict_csv(out / "comparison.csv", rows)
    _write_dict_csv(out / "per_phase.csv", phase_rows)
    print(f"-> {out}")
    return 0


def _write_dict_csv(path, rows):
    """Rows of dicts that share one key order, under a header of those
    keys."""
    if rows:
        write_csv(path, rows[0].keys(), map(dict.values, rows))


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("run", help="run one episode under a policy")
    p.add_argument("--config")
    p.add_argument("--policy", required=True,
                   help="reactive-avg | reactive-max | sarsa:<ckpt> | dqn:<ckpt>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("train", help="train a learning agent")
    p.add_argument("--config")
    p.add_argument("--agent", choices=("sarsa", "dqn"), required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    except cfgmod.ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
