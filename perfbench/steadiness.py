"""Steadiness check: repeat one workload over several seeds and summarise.

    python3 perfbench/steadiness.py --workload small_files --runs 10

Runs ``run.py`` once per seed (``--first-seed`` onwards, one run at a
time), then prints for every metric its median, quartiles and spread --
the interquartile distance as a share of the median -- beside the
metric's bound from ``BENCHMARK.json``.  A spread at or under a third of
the bound is marked steady.  Exits non-zero when a run fails or reports
``correct: false``.  ``--seconds`` defaults to the benchmark's
``run_seconds``; ``--trace 1`` summarises the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"seed {seed}: run.py exited {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        share = result["failed"] / result["attempted"]
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']} ({share:.4%}) {json.dumps(values)}", flush=True)
        if not result["correct"]:
            return 1
        results.append(result)

    bounds = {
        metric["name"]: metric.get("bound")
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(f"{'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name, bound in bounds.items():
        values = [result["metrics"][name]["value"] for result in results]
        q1, mid, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / mid if mid else 0.0
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread <= bound / 3 else "WIDE"
        print(f"{name:<44}{mid:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.2%}"
              f"{'' if bound is None else f'{bound:>7.2f}'}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
