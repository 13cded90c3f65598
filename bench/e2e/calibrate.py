#!/usr/bin/env python3
"""Calibrates the benchmark's regression bounds from repeated runs.

    python3 bench/e2e/calibrate.py --out set_a.json          # one set
    python3 bench/e2e/calibrate.py --compare set_a.json set_b.json

A set runs every workload untraced once per seed (seeds 1..10),
each run a separate `run.py` invocation with the BENCHMARK.json command
line, and records every end-to-end value, the wall time of each invocation
and the host facts. For each (workload, metric) it reports the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. --compare
takes two sets and adds the drift of the second median against the first
in the metric's worse direction, which together with the spreads is what
each bound in BENCHMARK.json must cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEEDS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"host": None, "seconds": spec["run_seconds"], "runs": []}
    started = time.monotonic()
    for workload in workloads:
        for seed in range(1, SEEDS + 1):
            command = ["python3", os.path.join(HERE, "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
            begin = time.monotonic()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            wall = time.monotonic() - begin
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
            for line in lines:
                if line.startswith("host ") and record["host"] is None:
                    record["host"] = line[len("host "):]
            result = json.loads(lines[-1])
            record["runs"].append({
                "workload": workload, "seed": seed, "wall_s": wall,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    record["total_wall_s"] = time.monotonic() - started
    record["spreads"] = spreads(record)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    report(record, None, spec)


def spreads(record):
    by_pair = {}
    for run in record["runs"]:
        for name, value in run["metrics"].items():
            by_pair.setdefault(f"{run['workload']} {name}", []).append(value)
    return {pair: {"median": statistics.median(values),
                   "spread": spread(values), "n": len(values)}
            for pair, values in by_pair.items()}


def report(first, second, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload metric':48} {'spread':>7} {'spread2':>7} {'drift':>7} "
          f"{'bound':>6}")
    for pair, stats in first["spreads"].items():
        metric = pair.split()[1]
        line = f"{pair:48} {stats['spread']:7.3f}"
        if second is not None:
            other = second["spreads"][pair]
            drift = (other["median"] - stats["median"]) / stats["median"]
            if better[metric] == "higher":
                drift = -drift
            line += f" {other['spread']:7.3f} {drift:7.3f}"
        else:
            line += " " * 16
        print(f"{line} {bounds[metric]:6.2f}")
    for record in (first, second):
        if record is not None:
            walls = [r["wall_s"] for r in record["runs"]]
            print(f"set wall {record['total_wall_s']:.0f} s, runs "
                  f"{min(walls):.1f}-{max(walls):.1f} s, host {record['host']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write a new set here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        report(sets[0], sets[1], spec)
    elif args.out:
        run_set(args)
    else:
        parser.error("give --out or --compare")


if __name__ == "__main__":
    main()
