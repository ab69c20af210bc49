"""Benchmark of the eepower CLI: one workload, one closed-loop client.

    python3 perfbench/run.py --workload ofdm --seed 3 --seconds 25 --trace 0

Run from the root of a checkout. Each timed sample is a fresh child process
(perfbench/child.py) that imports eepower from ./src and calls
eepower.cli.main with the workload's arguments; the next child starts when the
previous one has exited, until --seconds have passed. Before the timed loop an
untimed child runs the workload at REFERENCE_SEED and its CSVs are compared
value by value with perfbench/reference/ (this also fills the bytecode cache).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: traced and untraced children then alternate, so the tracing
overhead is measured in the same run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Progress, problems and
the environment record go to stderr. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchlib import check_outputs, layer_metrics, median, ok_frac

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 1
# a run must end within 180 s; stop starting children well before that
DEADLINE_S = 165.0

OFDM_TRIALS = 500
MIMO_TRIALS = 10
FAIRNESS_TRIALS = 40
VERIFY_TRIALS = 1
# gee and sumrate at dims 3 raise "grid too large" out of cli.main on every
# seed; they stay in the list so the defect counts in `failed`
VERIFY_CASES = (
    ("ee_siso", 1),
    ("gee", 2),
    ("gee", 3),
    ("sumrate", 2),
    ("sumrate", 3),
    ("wsee", 2),
    ("wsee", 3),
    ("wpee", 2),
    ("wpee", 3),
    ("wmee", 2),
    ("wmee", 3),
)

# workload -> [(argv without --seed/--out, solver instances it completes)];
# ofdm/mimo solve one Dinkelbach instance per (trial, n, pc) over the default
# 7 (ofdm) or 6 (mimo) dimension counts and 2 circuit powers, fairness four
# objectives per trial, verify one solver+oracle comparison per trial
WORKLOADS = {
    "ofdm": [(["ofdm-sweep", "--trials", str(OFDM_TRIALS)], OFDM_TRIALS * 7 * 2)],
    "mimo": [(["mimo-sweep", "--trials", str(MIMO_TRIALS)], MIMO_TRIALS * 6 * 2)],
    "fairness": [(["fairness", "--trials", str(FAIRNESS_TRIALS)], FAIRNESS_TRIALS * 4)],
    "verify": [
        (["verify", "--objective", objective, "--dims", str(dims), "--trials", str(VERIFY_TRIALS)], VERIFY_TRIALS)
        for objective, dims in VERIFY_CASES
    ],
}


class Sample:
    """Outcome of one child: timings plus per-invocation verdicts."""

    def __init__(self, result: dict | None, instances: list[int], verdicts: list[str], bytes_written: int, identical: float):
        self.result = result
        self.verdicts = verdicts  # per invocation: "ok", "crashed" or "wrong"
        self.bytes_written = bytes_written
        self.identical = identical
        if result is not None:
            self.wall_s = sum(inv["wall_s"] for inv in result["invocations"])
            self.completed = sum(n for n, v in zip(instances, verdicts) if v == "ok")


def child_env(root: Path) -> dict:
    """The caller's environment with BLAS/OpenMP threads capped at the usable
    cores and bytecode cached inside the checkout, so set-up is measured with a
    warm cache whatever the caller's PYTHONDONTWRITEBYTECODE says."""
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    return env


def run_child(root: Path, workdir: Path, workload: str, seed: int, trace: bool, deadline: float) -> Sample:
    """Run one child on the workload and check everything it produced."""
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    invocations = []
    for argv, _n in WORKLOADS[workload]:
        argv = argv + ["--seed", str(seed)]
        if argv[0] != "verify":
            argv += ["--out", str(outdir)]
        invocations.append(argv)
    instances = [n for _argv, n in WORKLOADS[workload]]
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(result_path)]
    t0 = time.monotonic()
    cmd += [repr(t0), "1" if trace else "0", json.dumps(invocations)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(root), cwd=root, capture_output=True, text=True, timeout=max(deadline - t0, 1.0)
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} child passed the run deadline and was killed", file=sys.stderr)
        return Sample(None, instances, ["crashed"] * len(invocations), 0, 0)
    if proc.returncode != 0 or not result_path.exists():
        print(f"perfbench: {workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return Sample(None, instances, ["crashed"] * len(invocations), 0, 0)
    result = json.loads(result_path.read_text())
    verdicts, bytes_written, identical = judge(workload, result["invocations"], outdir, seed == REFERENCE_SEED)
    return Sample(result, instances, verdicts, bytes_written, identical)


def judge(workload: str, records: list[dict], outdir: Path, at_reference: bool) -> tuple[list[str], int, float]:
    """Verdict per invocation, bytes written, and the share of the reference
    outputs (CSV files, or verify's result lines) reproduced byte for byte."""
    verdicts = []
    identical = 0
    refdir = HERE / "reference" / workload
    ref_lines = json.loads((HERE / "reference" / "verify.json").read_text()) if workload == "verify" else {}
    for rec in records:
        label = " ".join(rec["argv"][:-2] if workload == "verify" else rec["argv"][:1])
        if rec["error"] is not None or (rec["rc"] != 0 and workload != "verify"):
            print(f"perfbench: {label}: crashed: {rec['error'] or rec['stderr'].strip()}", file=sys.stderr)
            verdicts.append("crashed")
            continue
        if workload == "verify":
            line = rec["stdout"].strip()
            problems = [] if rec["rc"] == 0 and line.endswith(" ok") else [f"exit {rec['rc']}: {line!r}"]
            identical += line == ref_lines.get(label)
        else:
            problems, same = check_outputs(outdir, refdir, compare_values=at_reference)
            identical += same
        for p in problems[:5]:
            print(f"perfbench: {label}: wrong output: {p}", file=sys.stderr)
        verdicts.append("wrong" if problems else "ok")
    bytes_written = sum(p.stat().st_size for p in outdir.iterdir())
    outputs = len(ref_lines) if workload == "verify" else len(list(refdir.glob("*.csv")))
    return verdicts, bytes_written, identical / outputs


def environment(root: Path, result: dict | None) -> dict:
    return {
        "python": result["python"] if result else None,
        "numpy": result["numpy"] if result else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": child_env(root)["OMP_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def end_to_end(done: list[Sample], attempted: int, failed: int) -> dict[str, float]:
    """Time metrics in units of the child's own reference_work time, so a slow
    spell of the host that outlasts a run moves them far less than seconds."""
    return {
        "setup_s": median(s.result["setup_s"] for s in done),
        "wall_ref": median(s.wall_s / s.result["ref_s"] for s in done),
        "inst_per_ref": median(s.completed * s.result["ref_s"] / s.wall_s for s in done),
        "peak_rss_mb": median(s.result["maxrss_kb"] / 1024.0 for s in done),
        "ok_frac": ok_frac(attempted, failed),
    }


def per_layer(plain: list[Sample], traced: list[Sample], reference: Sample) -> dict[str, float]:
    layers = [layer_metrics(s.result["spans"], s.result["counts"]) for s in traced]
    out = {key: median(m.get(key, 0) for m in layers) for key in set().union(*layers)}
    traced_wall = median(s.wall_s for s in traced)
    out.update(
        {
            "wall_s": median(s.wall_s for s in plain),
            "inst_per_s": median(s.completed / s.wall_s for s in plain),
            "reference_work_s": median(s.result["ref_s"] for s in plain),
            "cli.bytes_written": median(s.bytes_written for s in plain),
            "cli.csv_identical": reference.identical,
            "process.cpu_s": median(s.result["cpu_s"] for s in plain),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / median(s.wall_s for s in plain) - 1.0,
        }
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "eepower" / "cli.py").is_file():
        print(f"perfbench: no eepower sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    deadline = started + DEADLINE_S
    try:
        reference = run_child(root, workdir, args.workload, REFERENCE_SEED, False, deadline)
        if reference.result is None:
            print("perfbench: the reference child produced no result", file=sys.stderr)
            return 1
        print(f"perfbench: env before {json.dumps(environment(root, reference.result))}", file=sys.stderr)
        correct = "wrong" not in reference.verdicts

        plain: list[Sample] = []
        traced: list[Sample] = []
        loop_start = time.monotonic()
        while True:
            trace_this = bool(args.trace) and len(plain) > len(traced)
            (traced if trace_this else plain).append(
                run_child(root, workdir, args.workload, args.seed, trace_this, deadline)
            )
            enough = time.monotonic() - loop_start >= args.seconds and (not args.trace or traced)
            if enough or time.monotonic() >= deadline:
                break
        print(f"perfbench: env after {json.dumps(environment(root, plain[-1].result))}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [v for s in plain + traced for v in s.verdicts]
    attempted = len(verdicts)
    failed = sum(v != "ok" for v in verdicts)
    correct = correct and "wrong" not in verdicts
    done_plain = [s for s in plain if s.result is not None]
    done_traced = [s for s in traced if s.result is not None]
    if not done_plain or (args.trace and not done_traced):
        print("perfbench: no child completed, nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        computed = per_layer(done_plain, done_traced, reference)
    else:
        computed = end_to_end(done_plain, attempted, failed)
    # a per-layer name no traced child produced (a span the workload never
    # enters) reads 0; BENCHMARK.json is the only list of reported names
    metrics = {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced children", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
