"""Record a baseline: every workload once untraced and once traced.

    python3 perfbench/record_baseline.py [--seed 1] [--seconds S]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.  Writes
``perfbench/baseline.json`` with each workload's end-to-end metrics,
per-layer metrics (including the ``share.*`` layer shares), output digests,
the machine description, the git SHA and the net non-blank line count of
``src/``.  Later changes cite it; a gain is shown with fresh runs of both
commits on the same machine, not against this file alone.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    details = json.loads(next(line for line in lines
                              if line.startswith("details "))[len("details "):])
    return json.loads(lines[-1]), details


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain, details = run(name, args.seed, seconds, 0)
        traced, traced_details = run(name, args.seed, seconds, 1)
        record["machine"] = details["machine"]
        record["src_net_lines"] = details["src_net_lines"]
        record["workloads"][name] = {
            "why": w["why"],
            "correct": plain["correct"] and traced["correct"],
            "failed_share": details["failed_share"],
            "output_digest": details["output_digest"],
            "digest_matches_traced": (details["output_digest"]
                                      == traced_details["output_digest"]),
            "episode_samples": details["episode_samples"],
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        print(f"{name}: correct={record['workloads'][name]['correct']}",
              file=sys.stderr)
    (BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
