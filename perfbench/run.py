"""Closed-loop benchmark of jordanlab: one caller, one item at a time.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  The run
sets up the workload, then repeats passes over its fixed item list until
--seconds have been measured.  Each item's result is checked independently
and against the recorded output digest.  Every time is scaled to a
reference speed of the host, measured by a fixed reference slice run after
each item (see reference_seconds).  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
spans of a separate traced run (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 11
IMPORT_REPEATS = 5
DIGEST_CHARS = 6
# The reference slice: exact rational arithmetic like the items', without
# jordanlab.  REFERENCE_S is the time one slice is scaled to; a 2-vCPU Xeon
# VM takes 0.42-0.9 ms for it, depending on the load of the shared host.
# There, a run's items_per_s, item_ms_p50 and item_ms_tail moved as the
# slices' speed to a power of 0.6-0.95, mostly 0.7-0.8 (log-log fits with
# correlation 0.87-1.0, over sets of 5-10 runs whose slices differed by
# up to 1.8x), hence REFERENCE_EXPONENT.
REFERENCE_TERMS = 200
REFERENCE_S = 0.0005
REFERENCE_EXPONENT = 0.75
REFERENCE_AROUND = 5
WORKLOADS = ("closure", "structure", "normal_forms", "cli_cold")


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def item_hash(text: str) -> str:
    return text_hash(text)[:DIGEST_CHARS]


def reference_seconds() -> float:
    """Wall time of one reference slice, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def speed_factor(slices) -> float:
    """What times measured beside these reference slices are multiplied by
    to scale them to the reference speed."""
    return (REFERENCE_S / statistics.median(slices)) ** REFERENCE_EXPONENT


def recorded_hashes(workload: str, seed: int, items) -> "tuple[list, str]":
    """Expected hash per item (None where nothing is recorded) and a status."""
    try:
        table = json.loads(DIGESTS.read_text())[workload]
    except (FileNotFoundError, KeyError):
        return [None] * len(items), "unrecorded"

    def split(text: str) -> list:
        return [text[i:i + DIGEST_CHARS] for i in range(0, len(text), DIGEST_CHARS)]

    fixed = iter(split(table["fixed"]))
    seeded_text = table["seeds"].get(str(seed))
    seeded = iter(split(seeded_text)) if seeded_text is not None else None
    out = [next(fixed) if item.fixed else (next(seeded) if seeded else None)
           for item in items]
    return out, "recorded" if seeded is not None else "fixed items only"


class Runner:
    """Runs passes over a workload and keeps every item's result honest.

    The first result of an item must pass its independent check and match
    the recorded digest; every later result must equal it, or else repeat
    its canonical text exactly (by SHA-256), which makes it the same
    verified result.  The text of a large product takes as long to write
    as the product takes to compute, so it is written only when needed.
    A reference slice runs after every item; `factors` keeps the speed
    factor of each pass.
    """

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.hashes = [None] * len(workload.items)
        self.results = [None] * len(workload.items)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.factors: list = []
        self.wall_s = 0.0

    def run_pass(self, tracer=None) -> list:
        """One pass, traced when a tracer is given; returns each item's
        latency in seconds, scaled by the pass's speed factor."""
        self.workload.before_pass()
        if tracer is None:
            return self._items(None)
        if self.workload.cli is not None:
            self.workload.cli.tracer = tracer
        try:
            with tracer.installed():
                return self._items(tracer)
        finally:
            if self.workload.cli is not None:
                self.workload.cli.tracer = None

    def _items(self, tracer) -> list:
        from oracle import CheckError
        from workloads import canonical_text

        times, slices = [], []
        for idx, item in enumerate(self.workload.items):
            self.attempted += 1
            if tracer is not None:
                tracer.enabled = True
            start = perf_counter()
            try:
                result = item.call()
                error = None
            except Exception as exc:  # an item that raises is a failed item
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(perf_counter() - start)
            if tracer is not None:
                tracer.enabled = False
            slices.append(reference_seconds())
            if error is None and self.hashes[idx] is not None:
                if not (result == self.results[idx]
                        or text_hash(canonical_text(result)) == self.hashes[idx]):
                    error = "result differs from an earlier pass"
            elif error is None:
                text = canonical_text(result)
                if self.expected[idx] not in (None, item_hash(text)):
                    error = "result differs from the recorded digest"
                else:
                    try:
                        item.check(result)
                        self.hashes[idx] = text_hash(text)
                        self.results[idx] = result
                    except CheckError as exc:
                        error = f"check failed: {exc}"
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{item.name}: {error}"[:300])
        factor = speed_factor(slices)
        self.factors.append(factor)
        self.wall_s += sum(times)
        return [t * factor for t in times]

    def output_digest(self) -> str:
        return text_hash("\n".join(map(str, self.hashes)))[:16]


def latency_stats(passes: list) -> dict:
    """Each item's latency is its median over the passes; throughput is the
    item count over the sum of those, and the quantiles are over them."""
    n = len(passes[0])
    typical = sorted(statistics.median(ts[i] for ts in passes) for i in range(n))
    # The highest percentile that leaves at least 10 items beyond it.
    tail = max(n - 10, 1) / n
    return {
        "items_per_s": n / sum(typical),
        "item_ms_p50": 1000 * statistics.median(typical),
        "item_ms_tail": 1000 * typical[math.ceil(tail * n) - 1],
        "tail_percentile": round(100 * tail, 1),
        "items": n,
    }


def fresh_process_seconds(args: list, ready_line: bool) -> float:
    """Wall time from starting a fresh interpreter until it prints its first
    line (ready_line) or exits, scaled by the speed factor of reference
    slices run just before and just after it."""
    slices = [reference_seconds() for _ in range(REFERENCE_AROUND)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        if ready_line:
            proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
        code = proc.wait()
        if not ready_line:
            elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{args} exited with {code}")
    slices += [reference_seconds() for _ in range(REFERENCE_AROUND)]
    return elapsed * speed_factor(slices)


def setup_seconds(workload: str, seed: int) -> float:
    return statistics.median(
        fresh_process_seconds([str(Path(__file__)), "--workload", workload,
                               "--seed", str(seed), "--setup-only"], ready_line=True)
        for _ in range(SETUP_REPEATS))


def cli_import_seconds() -> float:
    """Importing jordanlab.cli in a fresh interpreter, minus a bare one."""
    loaded, bare = [], []
    for _ in range(IMPORT_REPEATS):
        loaded.append(fresh_process_seconds(["-c", "import jordanlab.cli"], False))
        bare.append(fresh_process_seconds(["-c", "pass"], False))
    return statistics.median(loaded) - statistics.median(bare)


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def rounds(seconds: float, minimum: int):
    """Yield round numbers while the next round, as long as the last one,
    still ends within `seconds`; always at least `minimum` rounds."""
    start = perf_counter()
    last = 0.0
    count = 0
    while count < minimum or perf_counter() + last - start <= seconds:
        began = perf_counter()
        yield count
        last = perf_counter() - began
        count += 1


def measure(runner: Runner, seconds: float) -> list:
    return [runner.run_pass() for _ in rounds(seconds, 1)]


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes; every traced pass must repeat
    the same counts.  Span times are scaled like item latencies."""
    from tracing import Tracer

    plain, traced, tracers = [], [], []
    for _ in rounds(seconds, 2):
        plain.append(runner.run_pass())
        tracers.append(Tracer())
        traced.append(runner.run_pass(tracers[-1]))
        tracers[-1].scale(runner.factors[-1])
    counts = [t.counts() for t in tracers]
    for later in counts[1:]:
        if later != counts[0]:
            diff = sorted(k for k in later if later[k] != counts[0][k])
            runner.errors.append(f"traced counts differ between passes: {diff}")
            runner.failed += 1
    return plain, traced, tracers


def layer_metrics(tracers: list, plain: list, traced: list) -> dict:
    from tracing import SPANS

    def med(values) -> float:
        return statistics.median(values)

    metrics = {}
    first = tracers[0]
    for name in SPANS:
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.s"] = (med(t.inclusive[name] for t in tracers), "s")
        metrics[f"{name}.self_s"] = (
            med(t.inclusive[name] - t.children[name] for t in tracers), "s")
    adds = first.calls["matrices.span_add"]
    accepted = first.counters["matrices.span_add.accepted"]
    metrics["matrices.span_add.accepted"] = (accepted, "count")
    metrics["matrices.span_accept_ratio"] = (accepted / adds if adds else 0.0, "ratio")
    metrics["matrices.bits_max"] = (first.counters["matrices.bits_max"], "bits")
    metrics["freealg.rewrite_steps"] = (first.counters["freealg.rewrite_steps"], "count")
    metrics["reps.fiber_basis.misses"] = (first.counters["reps.fiber_basis.misses"], "count")
    metrics["cli.import_s"] = (cli_import_seconds(), "s")
    untraced_ips = latency_stats(plain)["items_per_s"]
    traced_ips = latency_stats(traced)["items_per_s"]
    metrics["trace.untraced_items_per_s"] = (untraced_ips, "1/s")
    metrics["trace.traced_items_per_s"] = (traced_ips, "1/s")
    metrics["trace.overhead_frac"] = (untraced_ips / traced_ips - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "jordanlab" / "__init__.py").is_file():
        print(f"error: no jordanlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import jordanlab
    if Path(jordanlab.__file__).resolve().parent != SRC / "jordanlab":
        print(f"error: imported jordanlab from {jordanlab.__file__}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        expected, digest_status = recorded_hashes(args.workload, args.seed, workload.items)
        runner = Runner(workload, expected)
        is_cli = workload.cli is not None
        if args.trace:
            plain, traced, tracers = measure_traced(runner, args.seconds)
            metrics = layer_metrics(tracers, plain, traced)
            stats = latency_stats(plain)
        else:
            passes = measure(runner, args.seconds)
            rss = peak_rss_mb(is_cli)
            stats = latency_stats(passes)
            metrics = {
                "items_per_s": (stats["items_per_s"], "1/s"),
                "item_ms_p50": (stats["item_ms_p50"], "ms"),
                "item_ms_tail": (stats["item_ms_tail"], "ms"),
                "setup_s": (setup_seconds(args.workload, args.seed), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
    finally:
        workload.close()

    fail_frac = runner.failed / runner.attempted
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items_per_pass": stats["items"], "attempted": runner.attempted,
        "fail_frac": fail_frac, "tail_percentile": stats["tail_percentile"],
        "passes": len(runner.factors),
        "speed_factor": round(statistics.median(runner.factors), 4),
        "wall_items_per_s": round(runner.attempted / runner.wall_s, 4),
        "input_digest": hashlib.sha256("\n".join(workload.inputs).encode()).hexdigest()[:16],
        "output_digest": runner.output_digest(), "digest_check": digest_status,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
