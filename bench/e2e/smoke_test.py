#!/usr/bin/env python3
"""bench_e2e_smoke: the benchmark at toy scale, in seconds.

    python3 bench/e2e/smoke_test.py --build-dir .bench_build/e2e

Runs every workload untraced and traced through run.py with --scale smoke
and checks that the output names every BENCHMARK.json metric with its unit,
both in the `workload metric value unit` lines and in the final JSON
object. Then runs one workload with a deliberately wrong expected IND count
and checks that the command exits non-zero with correct=false, so the
correctness gates are proven to fire.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(build_dir, scratch, *extra):
    command = ["python3", os.path.join(HERE, "run.py"), "--scale", "smoke",
               "--seconds", "0.5", "--build-dir", build_dir,
               "--scratch", os.path.join(scratch, "scratch"),
               "--out", os.path.join(scratch, "out")] + list(extra)
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"no output from {' '.join(extra)}: {proc.stderr[-2000:]}")
    return proc.returncode, lines, json.loads(lines[-1])


def check_names(spec_metrics, workloads, lines, summary, what):
    printed = set(lines)
    for workload in workloads:
        for metric in spec_metrics:
            key = f"{workload}/{metric['name']}"
            got = summary["metrics"].get(key)
            if got is None or got["unit"] != metric["unit"]:
                sys.exit(f"{what}: JSON lacks {key} in {metric['unit']}")
            if not any(line.startswith(f"{workload} {metric['name']} ") and
                       line.endswith(f" {metric['unit']}") for line in printed):
                sys.exit(f"{what}: no '{workload} {metric['name']} ... "
                         f"{metric['unit']}' line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(dir=args.build_dir) as scratch:
        for trace, metrics in (("0", spec["end_to_end"]),
                               ("1", spec["per_layer"])):
            code, lines, summary = run(args.build_dir, scratch, "--trace", trace)
            if code != 0 or not summary["correct"]:
                sys.exit(f"--trace {trace} failed (exit {code}):\n" +
                         "\n".join(l for l in lines if " FAILED " in l))
            check_names(metrics, workloads, lines, summary, f"--trace {trace}")
            print(f"--trace {trace}: {len(summary['metrics'])} metrics, "
                  f"{summary['attempted']} checks passed")

        code, lines, summary = run(args.build_dir, scratch, "--workload",
                                   "paper_cold", "--expect-satisfied", "1")
        if code == 0 or summary["correct"] or summary["failed"] == 0:
            sys.exit("a wrong expected IND count did not fail the run")
        print(f"wrong expected count: exit {code}, {summary['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
