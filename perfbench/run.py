#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-gateway --seed 1 --seconds 30 --trace 0

`--seconds` defaults to `run_seconds` in the checkout's BENCHMARK.json.

The first call configures and builds `perfbench/` (the library sources under
`src/` plus the benchmark program) into `.bench_build/perfbench`; later calls
rebuild incrementally. The program's report goes to stdout, and the last line
of stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. On top of the program's own checks (oracle, bit-exact values
across repetitions and between traced and untraced repetitions), this script
keeps each run's exact values under `.bench_build/perfbench-exact/`, keyed by
workload, seed and a digest of the sources, and fails a run whose exact values
differ from an earlier run of the same code and seed.

Exit codes: 0 all checks passed; 1 a check failed (the result line says
`"correct": false`); 2 the benchmark could not be built or run (no result).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sim-gateway", "tune-drift")
DEFAULT_SEED = 1
# The program overshoots its budget by at most one repetition (a few minimum
# repetitions when the budget is short), so it gets a fixed slack on top of
# a multiple of the budget.
TIMEOUT_SLACK_S = 100
TIMEOUT_BUDGETS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, bench_dir, build_dir):
    if not (root / "src").is_dir():
        fail(f"no library sources under {root / 'src'}; run from the root "
             "of a full checkout")
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        home = ""
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1]
        if Path(home) != bench_dir:
            shutil.rmtree(build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the report.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def source_digest(root, bench_dir):
    digest = hashlib.sha256()
    for base in (root / "src", bench_dir):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def check_against_record(record_path, exact):
    """Compares `exact` with the record of an earlier run; writes the record
    when there is none. Returns the names whose values differ."""
    if record_path.exists():
        earlier = json.loads(record_path.read_text())
        return sorted(name for name in exact
                      if name in earlier and earlier[name] != exact[name])
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(exact, sort_keys=True))
    os.replace(tmp, record_path)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="time budget (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if args.seconds is None:
        try:
            spec = json.loads((root / "BENCHMARK.json").read_text())
            args.seconds = int(spec["run_seconds"])
        except (OSError, ValueError, KeyError, TypeError):
            fail("no --seconds, and no run_seconds in BENCHMARK.json")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    timeout_s = TIMEOUT_SLACK_S + TIMEOUT_BUDGETS * args.seconds

    bench_dir = Path(__file__).resolve().parent
    out_dir = root / ".bench_build"
    binary = build(root, bench_dir, out_dir / "perfbench")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = out_dir / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.tsv")]

    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with {done.returncode} and no result")
    for line in lines[:-1]:
        print(line)

    correct = bool(result["correct"]) and done.returncode == 0
    record = (out_dir / "perfbench-exact" /
              f"{args.workload}-seed{args.seed}-"
              f"{source_digest(root, bench_dir)}.json")
    differing = check_against_record(record, result["exact"])
    for name in differing:
        print(f"CHECK FAILED exact value {name} differs from an earlier run "
              "of the same code and seed")
    correct = correct and not differing
    print(f"wall time {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
