"""Run alternating parent/change pairs of the benchmark and judge the change.

    python3 tools/bench_pairs.py --base DIR (--change DIR | --aa) \\
        --workload W --pairs N --seed S [--seconds T] [--out FILE]

Each pair runs the benchmark command of ``BENCHMARK.json`` (read from the
change tree) with ``--workload W --seed S --seconds T --trace 0`` once for
each side; the side that runs first alternates. ``--seconds`` defaults to
``run_seconds``. Every run starts from a fresh copy of its side's tree, made
in a temporary directory under a name of random length and deleted after the
run. ``python3 -m compileall -q src`` byte-compiles the copy first, so that
no run's import time includes compiling. Timings follow where a tree sits
and how long its path is, not only its code (Mytkowicz et al., ASPLOS 2009),
so a fixed pair of trees can differ by a few percent with identical code;
fresh, randomly placed copies turn that offset into noise that the
verdict sees.

``--aa`` runs the base tree against a fresh copy of itself in place of a
change, and prints the A/A floor: the median gap between the two sides and
the base's interquartile range, each as a share of the base median. A
claimed gain must exceed that floor; an A/A run that passes the gain rule
shows the rule is not enough on this machine.

For each end-to-end metric it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), whether a gain may be
claimed (at least ten pairs ran, the change won nine tenths of them, and
the medians differ in its favour by more than the parent's interquartile
range), and
whether the change's median is within the metric's ``bound``, a fraction of
the parent's median. ``--out`` writes the same facts, with every pair's
values, each run's machine block and each side's commit, as JSON. A copy
leaves out ``.git``, so each side's commit is read from its tree, the
HEAD of its checkout, before any copy is made. A checkout with uncommitted
edits still names its HEAD, so ``--out`` also records for each side a
sha256 over the relative paths and bytes of the files its copies carry:
two sides at one commit with different files have different digests.

Exits 1 if a run is not ``correct``, fails an operation, or differs from the
other side of its pair in ``qos`` or in the output digest of its
``details`` line; 0 otherwise, gain or not. Standard library only.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

GAIN_SHARE = 0.9  # of the pairs the change must win to claim a gain
GAIN_PAIRS = 10  # the fewest pairs a gain may be claimed from
MAX_PAD = 64  # a copy's directory name is 1 to MAX_PAD characters long
# build and run leftovers a copy leaves out; "out" is perfbench's run output
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", "out")


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
    """A run's verdict, metric values, qos, digest and machine block from
    its stdout: the last line is the result object, the ``details`` line
    holds the digest and the machine block."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = next(json.loads(line[len("details "):]) for line in lines
                   if line.startswith("details "))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": metrics, "qos": metrics.get("qos"),
            "digest": details.get("output_digest"),
            "machine": details.get("machine")}


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


def git_sha(tree: Path) -> str:
    """HEAD of the checkout at ``tree``, read from its ``.git`` without
    running git, as ``perfbench/run.py`` reads it; 'unknown' if absent."""
    git = tree / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tree_digest(tree: Path) -> str:
    """sha256 over the files a copy of ``tree`` carries, in path order:
    each file's path relative to ``tree``, its length and its bytes."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(tree):
        skipped = SKIP(root, dirs + files)
        dirs[:] = sorted(d for d in dirs if d not in skipped)
        for name in sorted(set(files) - skipped):
            path = Path(root, name)
            data = path.read_bytes()
            digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
            digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def compile_sources(tree: Path):
    """Byte-compile ``src`` in ``tree``; exit with a message if it fails."""
    proc = subprocess.run(["python3", "-m", "compileall", "-q", "src"],
                          cwd=tree, capture_output=True, text=True,
                          check=False)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {tree}: compileall exit {proc.returncode}")


def fresh_copy(tree: Path, workdir: Path, rng: random.Random) -> Path:
    """A copy of ``tree`` in ``workdir``, under a name of random length and
    without build or run leftovers; ``workdir`` holds one copy at a time."""
    copy = workdir / ("t" * rng.randint(1, MAX_PAD))
    shutil.copytree(tree, copy, ignore=SKIP)
    return copy


def run_once(tree: Path, command, workload: str, seed: int,
             seconds: float, workdir: Path, rng: random.Random) -> dict:
    """One benchmark run in a fresh, byte-compiled copy of ``tree``."""
    copy = fresh_copy(tree, workdir, rng)
    try:
        compile_sources(copy)
        argv = [*command, "--workload", workload, "--seed", str(seed),
                "--seconds", f"{seconds:g}", "--trace", "0"]
        proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True,
                              check=False)
    finally:
        shutil.rmtree(copy)
    try:
        return parse_output(proc.stdout)
    except (ValueError, KeyError, IndexError, StopIteration):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {tree}: exit {proc.returncode}, "
                         f"no benchmark result in its output")


def aa_floor(verdict: dict) -> dict:
    """The median gap between the two sides of an A/A run, and the base's
    interquartile range, each as a share of the base median."""
    base, change = verdict["base"], verdict["change"]
    return {"gap": (change["median"] - base["median"]) / base["median"],
            "iqr": (base["q3"] - base["q1"]) / base["median"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--change", type=Path)
    side.add_argument("--aa", action="store_true",
                      help="run the base against a fresh copy of itself")
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
    if args.aa:
        args.change = args.base
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    rng = random.Random()
    commits = {side: git_sha(getattr(args, side))
               for side in ("base", "change")}
    trees = {side: tree_digest(getattr(args, side))
             for side in ("base", "change")}
    runs, found = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: run_once(getattr(args, side), bench["command"],
                                   args.workload, args.seed, seconds,
                                   Path(workdir), rng)
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
    print(f"{args.workload}, {args.pairs} {'A/A ' if args.aa else ''}pairs"
          f" at --seed {args.seed} --seconds {seconds:g}")
    print(f"{'metric':16s} {'base q1/median/q3':>30s} "
          f"{'change q1/median/q3':>30s}  won  gain  in bound")
    for name, v in verdicts.items():
        cells = ["/".join(f"{v[side][q]:.4g}" for q in ("q1", "median", "q3"))
                 for side in ("base", "change")]
        gain, bound = ("yes" if v[k] else "no" for k in ("gain",
                                                          "within_bound"))
        print(f"{name:16s} {cells[0]:>30s} {cells[1]:>30s}  "
              f"{v['wins']:>2d}/{v['pairs']:<2d} {gain:>4s}  {bound}")
    floors = ({name: aa_floor(v) for name, v in verdicts.items()}
              if args.aa else None)
    for name, floor in (floors or {}).items():
        print(f"A/A floor {name}: median gap {floor['gap']:+.2%}, "
              f"base IQR {floor['iqr']:.2%} of the base median")
    for line in found:
        print(line, file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "aa": args.aa, "commits": commits, "tree_sha256": trees,
            "pairs": runs,
            "verdicts": verdicts, "aa_floor": floors, "problems": found},
            indent=2) + "\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
