"""Pure helpers shared by the benchmark's parent, child and report scripts.

Nothing here imports eepower or starts a process, so the unit tests in this
directory can exercise every piece of metric arithmetic directly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
import time
from pathlib import Path

# Values from the reference seed must match the committed CSVs to this
# relative tolerance (plus ABS_TOL for values near zero). Summation-order or
# LAPACK drift moves the 12-digit CSV values by ~1e-13 relative; the budgeted
# ascent solvers stop on a 1e-9 objective gain, so a legitimate change in
# their iteration path can move a flat optimum's powers by ~1e-5 and the Jain
# indices derived from them by far less than 1e-6. A wrong answer moves values
# by orders of magnitude more.
REL_TOL = 1e-6
ABS_TOL = 1e-12


def reference_work() -> float:
    """A fixed piece of CPU work of the kinds the workloads do (scalar Python
    math and calls, small numpy vector operations), independent of eepower.
    Returns a checksum so the work cannot be skipped."""
    import numpy as np

    total = 0.0
    for i in range(1, 48000):
        x = i * 1e-3
        total += math.log1p(x) / (1.0 + x) - math.exp(-x)
    v = np.linspace(0.1, 2.0, 64)
    for _ in range(3200):
        total += float(np.maximum(0.0, 1.5 - 1.0 / v).sum())
    return total


class Tracer:
    """In-memory span and counter recorder for one process.

    A span is [name, start, end, parent, detail]: parent is the index of the
    enclosing span (-1 at top level) and detail an optional number derived from
    the call's arguments and result, set only when the call returned.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name, fn, detail=None):
        """Wrap fn so every call records a span named name."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            record = [name, self.clock(), None, parent, None]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    record[4] = detail(args, kwargs, result)
                return result
            finally:
                self._open.pop()
                record[2] = self.clock()

        return traced

    def counter(self, name, fn):
        """Wrap fn so every call increments counts[name] and records no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (spans nest, so children never overlap)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _detail in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _parent, _detail) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
    return out


SVD_SIZES = (4, 8, 16, 32)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced child from its spans and counters:
    `<span>.calls` and `<span>.self_s` for every span name seen, every counter
    by its own name, and the rates derived from span details.

    A per-call mean or rate over zero calls is reported as 0.
    """
    out: dict[str, float] = {f"{name}.self_s": t for name, t in self_times(spans).items()}
    durations: dict[str, list[float]] = {}
    for name, start, end, _parent, _detail in spans:
        durations.setdefault(name, []).append(end - start)
    out.update({f"{name}.calls": len(d) for name, d in durations.items()})
    out.update(counts)

    for n in SVD_SIZES:
        d = [end - start for name, start, end, _p, detail in spans if name == "numerics.svd_gains" and detail == n]
        out[f"numerics.svd_gains.ms_per_call.n{n}"] = 1e3 * sum(d) / len(d) if d else 0.0
    dink = durations.get("allocator.gee_dinkelbach", [])
    out["allocator.gee_dinkelbach.us_per_call"] = 1e6 * sum(dink) / len(dink) if dink else 0.0
    out["channel.bytes_drawn.computed"] = sum(
        detail for name, _s, _e, _p, detail in spans if name in ("channel.draw_gains", "channel.draw_matrix") and detail
    )
    grid = [(end - start, detail) for name, start, end, _p, detail in spans if name == "oracle.grid_argmax" and detail]
    points = sum(d for _t, d in grid)
    out["oracle.grid_points"] = points
    out["oracle.points_per_s"] = points / sum(t for t, _d in grid) if grid else 0.0
    return out


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted invocations that completed and passed their checks."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return (attempted - failed) / attempted


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(data.decode("ascii"))))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def check_csv(got: bytes, want: bytes, compare_values: bool) -> list[str]:
    """Problems with a produced CSV against its reference.

    Always: same header, same row count and row width, every value finite.
    With compare_values (the reference seed): every value within REL_TOL.
    """
    try:
        header, rows = parse_csv(got)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    ref_header, ref_rows = parse_csv(want)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        if len(row) != len(ref):
            problems.append(f"row {r}: {len(row)} values != reference {len(ref)}")
            continue
        for name, a, b in zip(header, row, ref):
            if not math.isfinite(a):
                problems.append(f"row {r} {name}: non-finite value {a}")
            elif compare_values and abs(a - b) > ABS_TOL + REL_TOL * abs(b):
                problems.append(f"row {r} {name}: {a!r} != reference {b!r}")
    return problems


def check_manifest(outdir: Path) -> list[str]:
    """Every file the manifest lists exists with the recorded sha256, and every
    CSV in outdir is listed."""
    try:
        text = (outdir / "manifest.txt").read_text()
    except OSError as exc:
        return [f"manifest unreadable: {exc}"]
    listed = {}
    for line in text.splitlines():
        if line.startswith("file: "):
            name, _, digest = line[len("file: "):].partition(" sha256=")
            listed[name] = digest
    problems = []
    for name, digest in listed.items():
        try:
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        except OSError:
            problems.append(f"manifest lists missing file {name}")
            continue
        if actual != digest:
            problems.append(f"{name}: sha256 {actual} != manifest {digest}")
    for path in sorted(outdir.glob("*.csv")):
        if path.name not in listed:
            problems.append(f"{path.name} is not in the manifest")
    return problems


def check_outputs(outdir: Path, refdir: Path, compare_values: bool) -> tuple[list[str], int]:
    """Check an experiment's output directory against its reference directory.

    Returns (problems, identical) where identical counts the CSVs that are
    byte-identical to the reference.
    """
    problems = check_manifest(outdir)
    got = sorted(p.name for p in outdir.glob("*.csv"))
    want = sorted(p.name for p in refdir.glob("*.csv"))
    if got != want:
        return problems + [f"files {got} != reference {want}"], 0
    identical = 0
    for name in want:
        data = (outdir / name).read_bytes()
        ref = (refdir / name).read_bytes()
        identical += data == ref
        problems += [f"{name}: {p}" for p in check_csv(data, ref, compare_values)]
    return problems, identical
