"""Benchmark for farmscale: host-time throughput of evaluation and training.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 16 --trace 0

Runs one workload (compare, replay, train_sarsa, train_dqn) from the root of
a source checkout, against ``src/`` as it stands, doing the work that takes
``--seconds`` at nominal machine speed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it first runs a quarter of that work
untraced, then installs span wrappers around farmscale's functions and
reports the per-layer metrics of the rest.  Either way it checks the
outputs.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``details``, holds the output digest, sample counts, raw host
times and the machine description.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS/OpenMP thread: the DQN's small matmuls otherwise fight the
# scheduler on a small machine.  Must be set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
WORKLOADS = ("compare", "replay", "train_sarsa", "train_dqn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if absent."""
    git = ROOT / ".git"
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


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def src_net_lines() -> int:
    return sum(1 for path in sorted((ROOT / "src").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def import_seconds() -> float:
    """Host time for a fresh interpreter to start and import the CLI."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import farmscale.cli"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)
    return time.perf_counter() - t0


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(phase, durations, workload, setup_s) -> dict:
    """Metrics of an untraced phase's samples; 0 if no episode completed."""
    episode_ms = phase.episode_ms(durations)
    timed_s = sum(durations) or float("inf")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = (
        ("setup_s", setup_s, "s"),
        ("episodes_per_s", phase.episodes / timed_s, "1/s"),
        ("sim_tasks_per_s", phase.sim_tasks / timed_s, "1/s"),
        ("episode_ms_p50", percentile(episode_ms, 50), "ms"),
        ("episode_ms_p90", percentile(episode_ms, 90), "ms"),
        ("qos", workload.qos, "ratio"),
        ("peak_rss_mb", peak_kb / 1024.0, "MB"),
    )
    return {name: {"value": float(v), "unit": unit} for name, v, unit in values}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "farmscale" / "__init__.py").is_file():
        print(f"error: no farmscale sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - T_START
    probe = workloads.SpeedProbe()
    OUT_DIR.mkdir(exist_ok=True)
    cls = {c.name: c for c in (workloads.Compare, workloads.Replay,
                               workloads.TrainSarsa, workloads.TrainDqn)}
    workload = cls[args.workload](args.seed, OUT_DIR)
    try:
        # set-up = a fresh interpreter's imports + building inputs + warm-up,
        # in plain host time: the speed probe does not track import I/O
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(i + s for i, s in zip(imports, setups))

        def run_phase(seconds, tracer=None, full=True):
            phase = workloads.Phase(probe)
            units = workload.units(seconds)
            if full:
                units = max(units, workload.min_units)
            workload.run(units, phase, tracer, workloads.Workload.OVERRUN * seconds)
            return phase

        if args.trace:
            untraced = run_phase(args.seconds * 0.25, full=False)
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                phase = run_phase(args.seconds * 0.75, tracer)
            finally:
                tracing.uninstall(saved)
            workload.verify([untraced, phase])
            extra = {"qtable_states": (statistics.mean(phase.qtable_states)
                                       if phase.qtable_states else 0.0)}
            overhead = ((phase.scaled_s / max(phase.episodes, 1))
                        / (untraced.scaled_s / max(untraced.episodes, 1)))
            metrics = tracing.layer_metrics(
                tracer, phase.timed_s, phase.episodes,
                phase.scaled_s / (phase.timed_s or 1.0), overhead, extra)
            spans_path = OUT_DIR / f"spans-{args.workload}.csv"
            tracer.write_csv(spans_path)
        else:
            phase = run_phase(args.seconds)
            workload.verify([phase])
            metrics = end_to_end(phase, phase.scaled, workload, setup_s)
            host = end_to_end(phase, phase.durations, workload, setup_s)
    finally:
        workload.close()

    for error in workload.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not workload.errors and workload.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    details = {
        "workload": args.workload,
        "output_digest": workload.digest,
        "episode_samples": len(phase.durations),
        "timed_episodes": phase.episodes,
        "failed_share": workload.failed / max(workload.attempted, 1),
        "speed_factor": phase.scaled_s / (phase.timed_s or 1.0),
        "setup_repeats_s": setups,
        "import_repeats_s": imports,
        "import_s": import_s,
        "src_net_lines": src_net_lines(),
        "machine": machine(),
    }
    if not args.trace:
        details["host_time"] = {name: m["value"] for name, m in host.items()
                                if m["unit"] in ("ms", "1/s")}
    else:
        details["spans"] = len(tracer.start)
        details["spans_csv"] = str(spans_path.relative_to(ROOT))
    print("details " + json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
