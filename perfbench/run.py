#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (the program's
src/ libraries and the dardbench program) with CMake into .bench_build/,
runs the workload in a fresh single-threaded dardbench process, checks the
result against BENCHMARK.json, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; host times are scaled by a machine-speed probe
(probe.h). dardbench's exact totals, sample counts, raw pass windows and
any failed output check go to standard error. The run-dir workload writes
its run directory under .bench_build/run/ and removes it when done.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
BINARY = BUILD_DIR / "dardbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_env():
    # Compiler temporaries stay inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_quiet(argv, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(argv, cwd=ROOT, env=build_env(),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(argv)}")
    if done.returncode != 0:
        fail(f"exit {done.returncode}: {' '.join(argv)}")


def build():
    """Configures once, then builds; an up-to-date build takes a second."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the program's sources are missing under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                   str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", "dardbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return spec


def run_dardbench(args, extra=()):
    """Runs dardbench and returns its parsed last stdout line."""
    argv = [str(BINARY), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace), "--run-root", str(BUILD / "run"), *extra]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"dardbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"dardbench exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("dardbench printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        fail(f"dardbench printed no JSON result: {e}")


def check_metrics(result, expected):
    """Every expected metric, with its unit and a finite value, and no other."""
    got = result.get("metrics", {})
    problems = []
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']} has unit {entry.get('unit')}, "
                            f"BENCHMARK.json says {m['unit']}")
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append(f"{m['name']} is not a finite number")
    names = {m["name"] for m in expected}
    problems += [f"unexpected metric {n}" for n in got if n not in names]
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within [1, 600]")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; known: {' '.join(names)}")
    build()
    result = run_dardbench(args)

    expected = spec["per_layer" if args.trace else "end_to_end"]
    problems = check_metrics(result, expected)
    if problems:
        fail("; ".join(problems))
    detail = {k: result.get(k)
              for k in ("counts", "samples", "pass_window_s", "machine_scale",
                        "problems")}
    print(json.dumps(detail), file=sys.stderr)
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in expected},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
