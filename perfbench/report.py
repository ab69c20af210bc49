"""Run every workload over several seeds and print each metric per workload.

    python3 perfbench/report.py               # seeds 1-10, end-to-end metrics
    python3 perfbench/report.py --trace 1     # per-layer metrics
    python3 perfbench/report.py --seeds 1     # seed 1 only

Run from the root of a checkout. Workloads are interleaved: each seed runs
every workload of BENCHMARK.json once, for its run_seconds, before the next
seed starts, so a slow spell of the machine spreads over all workloads instead
of landing on one. For each metric it prints the median of the per-run values
with every digit, its unit, and the quartile spread of the values as a share
of the median; for an end-to-end metric also its bound and whether the spread
is below a third of the bound (ok), within the bound (WIDE) or above it
(OVER). `fail_frac` is failed / attempted over all runs of a workload. The
environment is printed first, and the load average before and after each seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

from benchlib import median, quartile_spread
from run import child_env

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "ok"
    return "WIDE" if spread <= bound else "OVER"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..SEEDS")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    env = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": child_env(Path.cwd())["OMP_NUM_THREADS"],
        "run_seconds": spec["run_seconds"],
    }
    print(f"environment: {json.dumps(env)}")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        before = os.getloadavg()
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, spec["run_seconds"], args.trace))
        after = os.getloadavg()
        print(f"seed {seed}: load average {before[0]:.2f} {before[1]:.2f} -> {after[0]:.2f} {after[1]:.2f}")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = (0.0, "")
    for workload in workloads:
        results = runs[workload]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, fail_frac={failed}/{attempted} = {failed / attempted:.4f}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            line = f"  {name:42s} {median(values)!r:>22} {unit:6s}"
            if len(values) >= 2 and median(values) != 0:
                spread = quartile_spread(values)
                line += f"  spread {spread:7.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]}, {verdict(spread, bounds[name])})"
                    worst = max(worst, (spread / bounds[name], f"{name} on {workload}"))
            print(line)
    if not args.trace and args.seeds >= 2:
        print(f"\nwidest spread: {worst[1]}, {worst[0]:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
