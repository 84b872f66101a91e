"""boolrel benchmark: one workload, one closed-loop client, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; boolrel is imported from src/.  The
workload's queries (workloads.py) go through boolrel.cli.run, the
in-process front door, one after another until S seconds have passed and
the whole pass has run at least once.  Every report is checked against an
answer computed without boolrel (oracle.py), and every repeat of a query
must return the same bytes.

--trace 0 prints the end-to-end metrics; --trace 1 records spans around the
calls into each module (tracing.py) and prints the per-layer metrics.  The
last line of stdout is the JSON result.  NOTES.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", ".work")

WARMUP_QUERIES = 3
MEMORY_QUERIES = 30
SETUP_REPEATS = 5
TAIL_BEYOND = 10

SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, 'src'); from boolrel.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


class Runner:
    """Executes pool queries in cycle order and keeps what checking needs."""

    def __init__(self, cli, pool):
        self.cli = cli
        self.pool = pool
        self.next = 0
        self.first: dict[int, tuple[int, str]] = {}
        self.runs = [0] * len(pool)
        self.bad = [0] * len(pool)
        self.reasons: dict[int, str] = {}

    def step(self, before=None) -> int:
        """Run the next query; returns its time in nanoseconds."""
        i = self.next % len(self.pool)
        self.next += 1
        query = self.pool[i]
        self.runs[i] += 1
        if before is not None:
            before()
        t0 = time.perf_counter_ns()
        try:
            code, text, _ = self.cli.run(query.argv)
        except Exception:
            elapsed = time.perf_counter_ns() - t0
            self.bad[i] += 1
            self.reasons.setdefault(i, traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter_ns() - t0
        first = self.first.get(i)
        if first is None:
            self.first[i] = (code, text)
            if query.save is not None and code == 0:
                instance = json.loads(text)["result"]["instance"]
                with open(query.save, "w", encoding="utf-8") as handle:
                    json.dump(instance, handle)
        elif first != (code, text):
            self.bad[i] += 1
            self.reasons.setdefault(i, "a repeat returned a different report")
        return elapsed

    def timed(self, seconds: float, before=None) -> tuple[list, float]:
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.step(before))
            wall = time.perf_counter() - start
            if wall >= seconds and self.next >= len(self.pool):
                return times, wall

    def retained_kib(self, count: int) -> float:
        """KiB allocated by boolrel code during `count` queries and still
        held after them, per query."""
        gc.collect()
        tracemalloc.start()
        for _ in range(count):
            self.step()
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, os.path.join(SRC, "boolrel", "*"))]
        )
        tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        return held / 1024 / count

    def validate(self):
        for i, (code, text) in sorted(self.first.items()):
            try:
                reason = self.pool[i].check(code, json.loads(text))
            except (KeyError, TypeError, ValueError) as err:
                reason = f"report does not have the expected shape: {err!r}"
            if reason:
                self.reasons.setdefault(i, f"exit {code}: {reason}")
                self.bad[i] = self.runs[i]

    def digest(self) -> str:
        texts = (self.first.get(i, (None, ""))[1] for i in range(len(self.pool)))
        return hashlib.sha256("".join(texts).encode()).hexdigest()


def measure_setup(query) -> tuple[float, tuple[int, str]]:
    """Median wall time of a fresh interpreter answering the first query."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *query.argv],
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times), (proc.returncode, proc.stdout)


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "boolrel", "cli.py")):
        print(f"perfbench: no boolrel sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import boolrel.cli as cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Report texts echo instance paths, so the path must not vary by run.
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, cli, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _run(args, cli, build, work) -> int:
    pool = build(random.Random(f"{args.workload}:{args.seed}"), work)
    runner = Runner(cli, pool)
    if not args.trace:
        setup_s, fresh = measure_setup(pool[0])
    for _ in range(WARMUP_QUERIES):
        runner.step()

    if args.trace:
        from tracing import Tracer, layer_metrics

        retained = runner.retained_kib(MEMORY_QUERIES)
        tracer = Tracer()
        tracer.install()

        def before():
            tracer.query_id = runner.next

        try:
            times, wall = runner.timed(args.seconds, before)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer, times)
        values["formula.retained_kb"] = retained
    else:
        times, wall = runner.timed(args.seconds)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_p50_ms": statistics.median(times) / 1e6,
            "query_tail_ms": tail(times)[0] / 1e6,
            "queries_per_s": len(times) / wall,
        }

    runner.validate()
    if not args.trace and fresh != runner.first.get(0):
        runner.bad[0] += 1
        runner.reasons.setdefault(0, "fresh interpreter returned another report")
    attempted = sum(runner.runs)
    failed = sum(runner.bad)
    _, percentile, beyond = tail(times)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times)} timed queries in {wall:.2f} s, pass of {len(pool)} "
          f"queries run {runner.next / len(pool):.2f} times")
    print(f"query_tail_ms is p{percentile:.2f} of {len(times)} samples, "
          f"{beyond} beyond it")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} queries)")
    print(f"report digest (first pass) {runner.digest()}")
    for label, ns in sorted(_by_label(pool, times, runner).items()):
        print(f"  {label:<30} n={len(ns):<5} median {statistics.median(ns) / 1e6:9.2f} ms"
              f"  max {max(ns) / 1e6:9.2f} ms")
    for i, reason in sorted(runner.reasons.items())[:5]:
        print(f"FAILED query {i} {pool[i].argv[:2]}: {reason}")

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


def _by_label(pool, times, runner) -> dict:
    """Timed query durations grouped by query label."""
    first_timed = runner.next - len(times)
    out: dict[str, list] = {}
    for j, ns in enumerate(times):
        out.setdefault(pool[(first_timed + j) % len(pool)].label, []).append(ns)
    return out


if __name__ == "__main__":
    sys.exit(main())
