"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2,3] \
        [--seconds 30] [--trace] [--json out.json]

For each workload and seed this runs perfbench/run.py in a child process,
one at a time, and prints every end-to-end metric with its unit: the median
over the seeds and the spread, (Q3 - Q1) / median, next to the bound in
BENCHMARK.json.  With --trace it also runs the traced pass on the same
seeds, prints the per-layer medians, and states the tracing overhead as the
traced median query time over the untraced one.  --json writes every run's
result, the machine description and the git revision (when the tree is a
git checkout) to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(
        (ln.split()[-1] for ln in lines if ln.startswith("report digest")), None)
    result["notes"] = lines[:-1]
    result["run_wall_s"] = time.perf_counter() - started
    return result


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        for trace in ((0, 1) if args.trace else (0,)):
            for seed in seeds:
                result = run_once(workload, seed, args.seconds, trace)
                runs.setdefault(workload, {}).setdefault(trace, []).append(
                    dict(result, seed=seed))
                print(f"{workload} seed {seed} trace {trace}: correct "
                      f"{result['correct']} failed {result['failed']}/"
                      f"{result['attempted']} digest {result['digest'][:12]} "
                      f"in {result['run_wall_s']:.1f} s", flush=True)

    for workload, by_trace in runs.items():
        print(f"\n== {workload} ({len(seeds)} seeds, {args.seconds:g} s each)")
        every = [r for results in by_trace.values() for r in results]
        failed = sum(r["failed"] for r in every)
        attempted = sum(r["attempted"] for r in every)
        print(f"  error_rate {failed / attempted:.6f} ({failed} of {attempted} queries)")
        if args.trace:
            same = all(a["digest"] == b["digest"]
                       for a, b in zip(by_trace[0], by_trace[1]))
            print(f"  report digests of the untraced and traced run of each seed "
                  f"{'match' if same else 'DIFFER'}")
        for trace, results in sorted(by_trace.items()):
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
                bound = bounds.get(name)
                limit = f"  bound {bound:.2f}" if bound is not None else ""
                print(f"  {name:<32} median {statistics.median(values):12.4f} {unit:<10}"
                      f" spread {spread(values):6.3f}{limit}   "
                      + " ".join(f"{v:.4g}" for v in values))
        if args.trace:
            plain = statistics.median(
                r["metrics"]["query_p50_ms"]["value"] for r in by_trace[0])
            traced = statistics.median(
                r["metrics"]["trace.query_p50_ms"]["value"] for r in by_trace[1])
            print(f"  tracing overhead: traced p50 {traced:.3f} ms over untraced "
                  f"{plain:.3f} ms = x{traced / plain:.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"machine": machine(), "seconds": args.seconds,
                       "runs": runs}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
