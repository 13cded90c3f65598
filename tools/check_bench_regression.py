#!/usr/bin/env python3
"""Compares Google-Benchmark JSON results against the tracked baseline.

Work counters (comparisons, tuples_read, spill counts, ...) are
deterministic properties of the algorithms, so they must match the
baseline within --tolerance (relative drift; counters that changed
intentionally are re-recorded by committing new baseline files).
Wall-clock fields are advisory only: they are printed but never fail the
check, because CI machines are noisy.

Usage:
  tools/check_bench_regression.py <baseline_dir> <candidate_dir>
      [--tolerance=0.05] [--only=bench_ablation,bench_pruning]
"""

import argparse
import json
import pathlib
import sys

# Benchmark user counters that measure deterministic work. Anything not
# listed (real_time, cpu_time, items_per_second, ...) is advisory.
WORK_COUNTERS = (
    "comparisons",
    "tuples_read",
    "blocks_skipped",
    "candidates",
    "candidates_tested",
    "satisfied",
    "spills",
    "spill_count",
    "files_opened",
    "peak_open_files",
    "index_entries",
    "attributes",
    "finished",
    "sets_extracted",
    "sets_reused",
    "verdicts_reused",
    "candidates_revalidated",
    "manifest_bytes",
    "disk_bytes",
)


def load_results(path):
    with open(path) as handle:
        data = json.load(handle)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", type=pathlib.Path)
    parser.add_argument("candidate_dir", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative drift per work counter")
    parser.add_argument("--only", default="",
                        help="comma-separated bench file stems to check")
    args = parser.parse_args()

    only = {s for s in args.only.split(",") if s}
    failures = []
    checked_counters = 0
    checked_benches = 0

    candidates = sorted(args.candidate_dir.glob("*.json"))
    if not candidates:
        print(f"error: no result files in {args.candidate_dir}",
              file=sys.stderr)
        return 2
    for candidate_path in candidates:
        stem = candidate_path.stem
        if only and stem not in only:
            continue
        baseline_path = args.baseline_dir / candidate_path.name
        if not baseline_path.exists():
            print(f"note: no baseline for {stem} (new bench?) — skipping")
            continue
        baseline = load_results(baseline_path)
        candidate = load_results(candidate_path)
        print(f"== {stem}")
        for name, bench in sorted(candidate.items()):
            base = baseline.get(name)
            if base is None:
                print(f"   new benchmark {name} (no baseline) — skipping")
                continue
            # DNF-under-budget runs (the paper's "> 7 days" cells) stop on
            # wall clock, so their work counters are partial and
            # machine-speed-dependent — advisory only.
            if base.get("finished", 1.0) == 0 or bench.get("finished", 1.0) == 0:
                print(f"   {name}: budget-limited (DNF) — counters advisory")
                continue
            checked_benches += 1
            # Advisory wall clock.
            base_ms = base.get("real_time", 0.0)
            cand_ms = bench.get("real_time", 0.0)
            if base_ms > 0:
                delta = (cand_ms - base_ms) / base_ms * 100.0
                print(f"   {name}: real_time {cand_ms:.1f} vs {base_ms:.1f} "
                      f"{base.get('time_unit', 'ms')} ({delta:+.1f}%, advisory)")
            for counter in WORK_COUNTERS:
                if counter not in base or counter not in bench:
                    continue
                checked_counters += 1
                expected = float(base[counter])
                actual = float(bench[counter])
                limit = abs(expected) * args.tolerance
                if abs(actual - expected) > limit:
                    failures.append(
                        f"{stem}:{name}: {counter} drifted to {actual:g} "
                        f"(baseline {expected:g}, tolerance ±{limit:g})")

    print(f"\nchecked {checked_counters} work counters across "
          f"{checked_benches} benchmarks")
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if checked_counters == 0:
        print("error: nothing was checked — wrong directories?",
              file=sys.stderr)
        return 2
    print("bench counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
