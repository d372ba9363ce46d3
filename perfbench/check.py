"""Repeatability checks of the benchmark itself.

    python3 perfbench/check.py

Run from the repository root.  For every workload it checks that

1. two traced runs with seed 0 report identical counts: every ``.calls``
   and every count kept beside the spans;
2. a run with seed 1 has the same number of items per pass,
   fail_frac 0 and different inputs (another input digest);

and it prints the tracing overhead, traced against untraced items_per_s.
Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, WORKLOADS

COUNT_UNITS = ("count", "bits")
SEED, OTHER_SEED = 0, 1


def bench(workload: str, seed: int, trace: int) -> "tuple[dict, dict]":
    """Run the benchmark briefly; return its info line and its result."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return info, json.loads(lines[-1])


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        traced = [bench(workload, SEED, 1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in result["metrics"].items()
                   if m["unit"] in COUNT_UNITS} for _, result in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        other_info, _ = bench(workload, OTHER_SEED, 0)
        info = traced[0][0]
        overhead = [result["metrics"]["trace.overhead_frac"]["value"] for _, result in traced]
        print(f"{workload}: {len(counts[0])} counts, differing: {differ or 'none'}; "
              f"items/pass {info['items_per_pass']} vs {other_info['items_per_pass']}; "
              f"fail_frac {info['fail_frac']} and {other_info['fail_frac']}; "
              f"inputs {info['input_digest']} vs {other_info['input_digest']}; "
              f"trace overhead {', '.join(f'{o:+.1%}' for o in overhead)}")
        if differ:
            failures.append(f"{workload}: traced counts differ: {differ}")
        if info["items_per_pass"] != other_info["items_per_pass"]:
            failures.append(f"{workload}: item count depends on the seed")
        if any(i["fail_frac"] for i in (info, traced[1][0], other_info)):
            failures.append(f"{workload}: items failed")
        if info["input_digest"] == other_info["input_digest"]:
            failures.append(f"{workload}: the second seed gave the same inputs")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
