#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Builds dardbench as run.py does, then runs every workload shrunk to a k=4
fabric and a few flows (dardbench --toy), twice untraced and twice traced,
and checks that:
  * every run is correct and no flow failed;
  * every metric BENCHMARK.json names is there, with its unit;
  * the per-layer shares plus unattributed_share add up to 1;
  * the exact totals and the simulated metrics match across the two runs;
  * predictions.json names only workloads and metrics BENCHMARK.json has.
Prints each failed check and exits 1 if there is one.
"""
import argparse
import json
import math
from pathlib import Path

import run

SIMULATED = ("fct_mean_s", "fct_p90_s")
SEED = 3


def check_predictions(spec, problems):
    with open(Path(__file__).with_name("predictions.json"),
              encoding="utf-8") as f:
        pred = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if set(pred["workloads"]) != workloads:
        problems.append("predictions.json workloads differ from BENCHMARK.json")
    for layer in pred["layers"]:
        named = list(layer["metrics"])
        for effect in ("moves", "flat"):
            for e in layer.get(effect, []):
                named.append(e["metric"])
                problems += [f"predictions.json: unknown workload {w}"
                             for w in e["workloads"] if w not in workloads]
        problems += [f"predictions.json: unknown metric {m}"
                     for m in named if m not in metrics]


def check_run(label, result, expected, problems):
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} {result.get('problems')}")
    problems += [f"{label}: {p}" for p in run.check_metrics(result, expected)]


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    spec = run.load_spec()
    run.build()
    problems = []
    check_predictions(spec, problems)
    for w in spec["workloads"]:
        for trace in (0, 1):
            expected = spec["per_layer" if trace else "end_to_end"]
            args = argparse.Namespace(workload=w["name"], seed=SEED,
                                      seconds=1, trace=trace)
            first, second = (run.run_dardbench(args, ["--toy"]) for _ in "ab")
            label = f"{w['name']} trace={trace}"
            check_run(label, first, expected, problems)
            check_run(label, second, expected, problems)
            if first["counts"] != second["counts"]:
                problems.append(f"{label}: exact totals differ across runs")
            if trace == 0:
                for name in SIMULATED:
                    if first["metrics"][name] != second["metrics"][name]:
                        problems.append(f"{label}: {name} differs across runs")
            else:
                shares = sum(v["value"] for n, v in first["metrics"].items()
                             if n.endswith("_share"))
                if not math.isclose(shares, 1.0, abs_tol=1e-9):
                    problems.append(f"{label}: shares add up to {shares}")
            print(f"{label}: {first['counts']}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
