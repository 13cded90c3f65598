#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name and unit, checked.

    python3 bench/e2e/run.py --workload paper_cold --seed 7 --seconds 10 --trace 0
    python3 bench/e2e/run.py            # every workload, seed 42, untraced

Builds the spider libraries, spiderd and the spider_e2e driver from this
checkout (Release only), then runs each workload in fresh child processes
and a fresh scratch directory: a set-up child that generates the inputs
from the seed, then either untraced measuring children (--trace 0: the
end-to-end metrics; a batch workload runs one operation per process and
repeats it for --seconds) or the tracing child (--trace 1: the per-layer
metrics and a Chrome trace-event file under --out). Metric names and units
come from BENCHMARK.json. Prints `workload metric value unit` lines, then
one JSON object as the last line, and exits 1 when any correctness check
failed. See bench/e2e/README.md.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Batch workloads repeat one operation per process; the daemon workload
# drives spiderd from a single measuring process.
WORKLOADS = {"paper_cold": "batch", "paper_warm": "batch",
             "rows_cold": "batch", "daemon_mixed": "daemon"}
# Every child must finish well inside the 180 s a run may take.
RUN_BUDGET_S = 170
PR_SET_CHILD_SUBREAPER = 36


class BenchError(Exception):
    """A failure that leaves no result to print (build, usage, crash)."""


def build(build_dir):
    """Configures (Release) and builds the driver and spiderd; returns paths."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    build_type = read_cache(cache).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError(f"{build_dir} is a '{build_type}' build; "
                         "the benchmark measures Release builds only")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                            stdout=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build failed")
    return (os.path.join(build_dir, "spider_e2e"),
            os.path.join(build_dir, "spider", "tools", "spiderd"))


def read_cache(path):
    values = {}
    with open(path) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep and ":" in key:
                values[key.split(":")[0]] = value
    return values


def host_facts(build_dir):
    cache = read_cache(os.path.join(build_dir, "CMakeCache.txt"))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True)
        git = describe.stdout.strip() if describe.returncode == 0 else "unknown"
    except OSError:
        git = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git": git or "unknown",
        "loadavg_1m": os.getloadavg()[0],
    }


def become_subreaper():
    """Makes orphaned descendants (spiderd of a crashed driver) reparent to
    this process, so run_child can wait for them after killing them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0,
                                                0, 0)
    except (OSError, AttributeError):
        pass


def stop_group(pgid):
    """Kills whatever is left of a child's process group and reaps it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_child(argv, env, deadline):
    """Runs one phase; returns its JSON result and its peak RSS in MB."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {' '.join(argv[1:3])}")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        stop_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(argv[1:3])} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), usage.ru_maxrss * 1024 / 1e6


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


class Tally:
    """Merges the phases' results: checks, failures and informational facts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}

    def add(self, phase):
        self.attempted += phase["attempted"]
        self.failed += phase["failed"]
        self.failures += phase["failures"]
        self.info.update(phase["info"])
        return phase


def measure_batch(args, argv, env, deadline, tally):
    """Repeats the one-operation child, each in a fresh process, until the
    run has measured for --seconds; aggregates the end-to-end metrics."""
    latencies, rss, last = [], [], {}
    start = time.monotonic()
    while True:
        phase, peak_mb = run_child(argv, env, deadline)
        tally.add(phase)
        subprocess.run(["sync"])
        if "op_s" not in phase["metrics"]:
            break
        latencies.append(phase["metrics"]["op_s"])
        rss.append(peak_mb)
        last = phase["metrics"]
        if time.monotonic() - start >= args.seconds:
            break
    if not latencies:
        return {}
    tally.info["samples"] = len(latencies)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": nearest_rank(latencies, 90) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(rss),
        "disk_bytes_per_csv_byte": last["disk_bytes_per_csv_byte"],
    }


def run_workload(args, binaries, spec, workload, scratch):
    """Set-up child, then the measuring or tracing children, in `scratch`."""
    driver, spiderd = binaries
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(scratch, f"{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    common = [f"--workload={workload}", f"--dir={work}", f"--seed={args.seed}",
              f"--scale={args.scale}", f"--spiderd={spiderd}",
              f"--seconds={args.seconds}"]
    if args.expect_satisfied is not None:
        common.append(f"--expect-satisfied={args.expect_satisfied}")
    measure = [driver, "--phase=measure"] + common
    batch = WORKLOADS[workload] == "batch"
    tally = Tally()
    try:
        setup, _ = run_child([driver, "--phase=setup"] + common, env, deadline)
        tally.add(setup)
        subprocess.run(["sync"])
        if tally.failed:
            measured = {}
        elif args.trace:
            trace = [driver, "--phase=trace"] + common
            if batch:
                # The operation runs untraced in fresh processes first; the
                # mean of two is what the replay's spans must account for.
                seconds = []
                for _ in range(2):
                    op = tally.add(run_child(measure, env, deadline)[0])
                    seconds.append(op["metrics"].get("op_s", 0))
                    subprocess.run(["sync"])
                trace.append(f"--e2e-seconds={statistics.mean(seconds)}")
            os.makedirs(args.out, exist_ok=True)
            trace.append("--trace-out=" + os.path.join(
                args.out, f"trace-{workload}-seed{args.seed}.json"))
            measured = tally.add(run_child(trace, env, deadline)[0])["metrics"]
        elif batch:
            measured = measure_batch(args, measure, env, deadline, tally)
        else:
            measured = tally.add(run_child(measure, env, deadline)[0])["metrics"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        measured = dict(measured, **setup["metrics"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not tally.failed:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    return {"workload": workload, "attempted": tally.attempted,
            "failed": tally.failed, "failures": tally.failures,
            "metrics": metrics, "info": tally.info}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10,
                        help="measuring window of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=os.path.join(ROOT, ".bench_scratch"),
                        help="parent of the per-workload scratch directories")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="where trace files and result records go")
    parser.add_argument("--build-dir", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
        "e2e"))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: toy inputs for the bench_e2e_smoke test")
    parser.add_argument("--expect-satisfied", type=int,
                        help="override the expected satisfied-IND count")
    args = parser.parse_args()
    args.build_dir = os.path.abspath(os.path.join(ROOT, args.build_dir))
    args.scratch = os.path.abspath(os.path.join(ROOT, args.scratch))
    args.out = os.path.abspath(os.path.join(ROOT, args.out))

    become_subreaper()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binaries = build(args.build_dir)
        host = host_facts(args.build_dir)
        if host["nproc"] < 4:
            print(f"warning: {host['nproc']} CPUs; the workloads use 4 threads",
                  file=sys.stderr)
        print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
        results = [run_workload(args, binaries, spec, workload, args.scratch)
                   for workload in ([args.workload] if args.workload
                                    else WORKLOADS)]
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2

    for result in results:
        for name, metric in result["metrics"].items():
            print(f"{result['workload']} {name} {metric['value']:.6g} "
                  f"{metric['unit']}")
        for name, value in result["info"].items():
            print(f"{result['workload']} info.{name} {value:.6g}")
        for failure in result["failures"]:
            print(f"{result['workload']} FAILED {failure}")
    os.makedirs(args.out, exist_ok=True)
    record = {"host": host, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "results": results}
    name = f"result-{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(args.out, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    single = len(results) == 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}/{name}"): metric
            for r in results for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
