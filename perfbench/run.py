#!/usr/bin/env python3
"""Build and run cpesim's host-cost benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measurement.  Builds cpe_perfbench from the source tree into
      .bench_build (or $CARGO_TARGET_DIR) first, then prints the
      benchmark's JSON result as the last line of standard output.

  python3 perfbench/run.py --steadiness [--repeats N] [--seconds S]
      Runs every workload N times, interleaved, each repetition on a new
      seed, and reports each end-to-end metric's median, quartiles, CV
      and quartile spread against its bound.  Then runs the traced mode
      twice on one seed and checks that every count repeats exactly.

  python3 perfbench/run.py --self-test
      One short pass of each workload plus one traced run: every metric
      BENCHMARK.json names must be printed, with a valid name and its
      unit, and every output check must pass.

Workloads, metrics and what each layer metric should move are described
in perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and (re)build the benchmark binary."""
    cmake_dir = build_dir() / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(cmake_dir), "--target",
              "cpe_perfbench", "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build failed: {error}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")
    return cmake_dir / "cpe_perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns its parsed result object."""
    work_dir = build_dir() / "work"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(work_dir),
               "--baselines", str(ROOT / "bench" / "baselines")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: cpe_perfbench exited {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    return result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, repeats, seconds):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in names}
    failures = 0
    for rep in range(repeats):
        # Rotate the order so no workload always runs first.
        order = names[rep % len(names):] + names[:rep % len(names)]
        for workload in order:
            result = run_once(binary, workload, 1000 + rep, seconds, 0)
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(
                    metric["value"])
    steady = True
    print(f"{'workload':10} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'cv%':>7} {'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        for workload in names:
            series = values[workload][metric["name"]]
            q1, med, q3 = quartiles(series)
            mean = statistics.fmean(series)
            cv = statistics.pstdev(series) / mean * 100 if mean else 0.0
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  <- above a third of the bound"
                steady = False
            print(f"{workload:10} {metric['name']:18} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {cv:7.2f} {spread:7.4f} "
                  f"{metric['bound']:6.3f}{flag}")

    # Exact counts must repeat on one seed.  Every traced run measures
    # every layer, so one workload's traced runs cover all the counts.
    counts = [run_once(binary, "detailed", 7, 1, 1) for _ in range(2)]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mismatched = [name for name, unit in units.items() if unit == "count"
                  and counts[0]["metrics"][name]["value"]
                  != counts[1]["metrics"][name]["value"]]
    failures += sum(c["failed"] for c in counts)
    print(f"exact counts: {'identical' if not mismatched else mismatched}")
    print(f"failed runs: {failures}")
    return 0 if steady and not mismatched and not failures else 1


def check_names(result, declared, label):
    """Every declared metric printed, with a valid name and its unit."""
    problems = []
    printed = result["metrics"]
    for metric in declared:
        name = metric["name"]
        if not NAME_RE.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        entry = printed.get(name)
        if entry is None:
            problems.append(f"{label}: {name} not printed")
        elif not entry.get("unit") or entry["unit"] != metric["unit"]:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed run(s)")
    return problems


def self_test(binary):
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        result = run_once(binary, workload["name"], 42, 1, 0)
        problems += check_names(result, spec["end_to_end"],
                                workload["name"])
    traced = run_once(binary, "detailed", 42, 1, 1)
    problems += check_names(traced, spec["per_layer"], "traced")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAIL' if problems else 'OK'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.steadiness:
        return steadiness(binary, args.repeats, args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
