#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `perfbench/run.py` once per seed on each workload (sequentially, from
the root of a checkout) and reports, per metric, the median of the values
and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json:

    python3 perfbench/spread.py --workloads sim-gateway,tune-drift \
        --seeds 1,97,2,3,4,5,6,7,8,9

Every run is untraced (`--trace 0`). Each run's result line, with its
median raw wall ops/s and calibration, is appended as one JSON object to
`.bench_build/perfbench-spread.jsonl`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOG = Path(".bench_build/perfbench-spread.jsonl")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    LOG.parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", seed, "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - started
            lines = done.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            raw = [line.strip() for line in lines
                   if line.strip().startswith("untraced:")]
            with LOG.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": int(seed),
                                    "wall_s": wall,
                                    "exit": done.returncode,
                                    "raw": raw[0] if raw else None,
                                    "result": result}) + "\n")
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {done.returncode})")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        print(f"{workload} ({len(args.seeds.split(','))} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s":
                worst = max(worst, spread / limit)
                flag = "  OVER" if spread >= limit / 3 else ""
            print(f"  {name:28s} median {median:16.6g}  spread "
                  f"{100 * spread:6.2f}%  (bound/3 "
                  f"{'-' if limit is None else f'{100 * limit / 3:.2f}%'})"
                  f"{flag}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
