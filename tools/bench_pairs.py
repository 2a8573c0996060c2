"""Run alternating parent/change pairs of the benchmark and judge the change.

    python3 tools/bench_pairs.py --base DIR --change DIR --workload W \\
        --pairs N --seed S [--seconds T] [--out FILE]

Before the first pair, ``python3 -m compileall -q src`` byte-compiles each
tree's sources, so that neither side's import time includes compiling the
modules that the other side has cached. Each pair runs the benchmark
command of ``BENCHMARK.json`` (read from the change tree) with ``--workload
W --seed S --seconds T --trace 0`` once in each source tree, from that
tree's root; the side that runs first alternates. ``--seconds`` defaults
to ``run_seconds``.

For each end-to-end metric it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), whether a gain may be
claimed (at least ten pairs ran, the change won nine tenths of them, and
the medians differ in its favour by more than the parent's interquartile
range), and
whether the change's median is within the metric's ``bound``, a fraction of
the parent's median. ``--out`` writes the same facts, with every pair's
values, as JSON.

Exits 1 if a run is not ``correct``, fails an operation, or differs from the
other side of its pair in ``qos`` or in the output digest of its
``details`` line; 0 otherwise, gain or not. Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9  # of the pairs the change must win to claim a gain
GAIN_PAIRS = 10  # the fewest pairs a gain may be claimed from


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile), interpolated linearly."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(base, change, better: str, bound: float) -> dict:
    """The verdict on one metric from its per-pair values: ``base[i]`` and
    ``change[i]`` ran as pair ``i``. ``better`` is "higher" or "lower"."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    return {
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "pairs": len(base),
        "wins": wins,
        "losses": losses,
        "gain": (len(base) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(base)
                 and sign * (c_med - b_med) > b_q3 - b_q1),
        "within_bound": sign * (c_med - b_med) >= -bound * abs(b_med),
    }


def parse_output(stdout: str) -> dict:
    """A run's verdict, metric values, qos and digest from its stdout: the
    last line is the result object, the ``details`` line holds the digest."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": metrics, "qos": metrics.get("qos"),
            "digest": details.get("output_digest")}


def problems(pair: int, base: dict, change: dict) -> list:
    """What is wrong with one pair of parsed runs; empty if nothing."""
    found = []
    for side, run in (("base", base), ("change", change)):
        if not run["correct"]:
            found.append(f"pair {pair}: {side} run is not correct")
        if run["failed"]:
            found.append(f"pair {pair}: {side} run failed {run['failed']}")
    for key in ("qos", "digest"):
        if base[key] != change[key]:
            found.append(f"pair {pair}: {key} differs: base {base[key]!r}, "
                         f"change {change[key]!r}")
    return found


def compile_sources(tree: Path):
    """Byte-compile ``src`` in ``tree``; exit with a message if it fails."""
    proc = subprocess.run(["python3", "-m", "compileall", "-q", "src"],
                          cwd=tree, capture_output=True, text=True,
                          check=False)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {tree}: compileall exit {proc.returncode}")


def run_once(tree: Path, command, workload: str, seed: int,
             seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          check=False)
    try:
        return parse_output(proc.stdout)
    except (ValueError, KeyError, IndexError, StopIteration):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {tree}: exit {proc.returncode}, "
                         f"no benchmark result in its output")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    compile_sources(args.base)
    compile_sources(args.change)
    runs, found = [], []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {side: run_once(getattr(args, side), bench["command"],
                               args.workload, args.seed, seconds)
                for side in order}
        print(f"pair {i}: " + ", ".join(
            f"{side} {pair[side]['metrics'].get('episodes_per_s', 0):.1f}/s"
            for side in order), flush=True)
        found += problems(i, pair["base"], pair["change"])
        runs.append({"first": order[0], **pair})
    verdicts = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        verdicts[name] = judge([r["base"]["metrics"][name] for r in runs],
                               [r["change"]["metrics"][name] for r in runs],
                               metric["better"], metric["bound"])
    print(f"{args.workload}, {args.pairs} pairs at --seed {args.seed} "
          f"--seconds {seconds:g}")
    print(f"{'metric':16s} {'base q1/median/q3':>30s} "
          f"{'change q1/median/q3':>30s}  won  gain  in bound")
    for name, v in verdicts.items():
        cells = ["/".join(f"{v[side][q]:.4g}" for q in ("q1", "median", "q3"))
                 for side in ("base", "change")]
        gain, bound = ("yes" if v[k] else "no" for k in ("gain",
                                                          "within_bound"))
        print(f"{name:16s} {cells[0]:>30s} {cells[1]:>30s}  "
              f"{v['wins']:>2d}/{v['pairs']:<2d} {gain:>4s}  {bound}")
    for line in found:
        print(line, file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "pairs": runs, "verdicts": verdicts, "problems": found},
            indent=2) + "\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
