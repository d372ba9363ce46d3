"""Record the per-item output digests that perfbench/run.py checks against.

    python3 perfbench/record_digests.py

Run it from the repository root, and only when a change of output is
intended.  It runs one pass of every workload for each recorded seed, checks
every item independently, and rewrites perfbench/digests.json.  Items whose input
does not depend on the seed are stored once under "fixed"; the others per
seed.
"""

from __future__ import annotations

import json
import sys

import run

RECORDED_SEEDS = range(16)


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]
    import workloads

    table = {}
    for name, build in workloads.BUILDERS.items():
        fixed, per_seed = None, {}
        for seed in RECORDED_SEEDS:
            workload = build(seed)
            try:
                runner = run.Runner(workload, [None] * len(workload.items))
                runner.run_pass()
            finally:
                workload.close()
            if runner.failed:
                print(f"{name} seed {seed}: {runner.errors}", file=sys.stderr)
                return 1
            hashes = [(item.fixed, h[:run.DIGEST_CHARS])
                      for item, h in zip(workload.items, runner.hashes)]
            this_fixed = "".join(h for is_fixed, h in hashes if is_fixed)
            if fixed not in (None, this_fixed):
                print(f"{name}: fixed items differ between seeds", file=sys.stderr)
                return 1
            fixed = this_fixed
            per_seed[str(seed)] = "".join(h for is_fixed, h in hashes if not is_fixed)
            print(f"recorded {name} seed {seed}", flush=True)
        table[name] = {"fixed": fixed, "seeds": per_seed}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
