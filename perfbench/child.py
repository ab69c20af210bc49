"""One timed child of the benchmark: import eepower, run a list of CLI
invocations in-process through `eepower.cli.main`, and write a JSON result.

    python3 perfbench/child.py ROOT RESULT T0 TRACE INVOCATIONS_JSON

ROOT is the checkout (its `src` goes on sys.path), RESULT the file to write,
T0 the parent's time.monotonic() just before it started this process (so the
set-up time includes interpreter start), TRACE 1 to wrap eepower's public
functions with spans and counters, and INVOCATIONS_JSON a JSON list of argv
lists. Exceptions escaping cli.main are recorded per invocation, never raised.
"""

import sys
import time


def main() -> None:
    root, result_path, t0, trace, invocations = sys.argv[1:6]
    sys.path.insert(0, root + "/src")
    from eepower import cli

    cli.build_parser()
    setup_s = time.monotonic() - float(t0)

    import contextlib
    import io
    import json
    import resource
    import traceback

    import numpy

    tracer = None
    run_cli = cli.main
    if trace == "1":
        from benchlib import Tracer

        tracer = Tracer()
        install(tracer)
        run_cli = tracer.span("cli.main", cli.main)

    # the host's speed drifts over tens of seconds; a fixed piece of work timed
    # before and after the calls gives this child's speed for wall_ref
    from benchlib import reference_work

    ref_start = time.perf_counter()
    reference_work()
    ref_s = time.perf_counter() - ref_start

    records = []
    cpu_start = time.process_time()
    for argv in json.loads(invocations):
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run_cli(argv)
        except Exception as exc:  # the failure is the measurement: record and go on
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        wall_s = time.perf_counter() - start
        records.append(
            {"argv": argv, "rc": rc, "error": error, "wall_s": wall_s, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    cpu_s = time.process_time() - cpu_start
    ref_start = time.perf_counter()
    reference_work()
    ref_s = (ref_s + time.perf_counter() - ref_start) / 2

    result = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "invocations": records,
        "spans": tracer.spans if tracer else None,
        "counts": tracer.counts if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def install(tracer) -> None:
    """Wrap eepower's public functions at the names their callers bound at
    import. Hot scalar functions get counters; everything else gets spans."""
    from eepower import allocator, channel, cli, experiments

    def nbytes(_args, _kwargs, result):
        return result.nbytes

    def matrix_size(_args, _kwargs, result):
        return result.size

    def grid_points(args, _kwargs, _result):
        _objective, gains, _cfgs, grid = args[:4]
        return grid.steps ** len(gains)

    spans = [
        (experiments, "svd_gains", "numerics.svd_gains", matrix_size),
        (experiments, "draw_gains", "channel.draw_gains", nbytes),
        (experiments, "draw_matrix", "channel.draw_matrix", nbytes),
        (experiments, "rng_for", "channel.rng_for", None),
        (channel, "rng_for", "channel.rng_for", None),
        (cli, "rng_for", "channel.rng_for", None),
        (experiments, "GeeProblem", "allocator.GeeProblem", None),
        (cli, "GeeProblem", "allocator.GeeProblem", None),
        (experiments, "evaluate", "metrics.evaluate", None),
        (cli, "run", "experiments.run", None),
        (cli, "grid_argmax", "oracle.grid_argmax", grid_points),
        (cli, "wpa", "allocator.wpa", None),
    ]
    for module in (experiments, cli):
        for solver in ("gee_dinkelbach", "wsee_ascent", "wpee_ascent", "wmee_maxmin"):
            spans.append((module, solver, f"allocator.{solver}", None))
    for module, attr, name, detail in spans:
        setattr(module, attr, tracer.span(name, getattr(module, attr), detail))

    for module, attr, name in (
        (allocator, "ee_of", "allocator.ee_of.calls"),
        (cli, "ee_of", "allocator.ee_of.calls"),
        (allocator, "lambert_w0", "numerics.lambert_w0.calls"),
        (allocator, "eepa", "allocator.eepa.calls"),
        (cli, "eepa", "allocator.eepa.calls"),
    ):
        setattr(module, attr, tracer.counter(name, getattr(module, attr)))

    for module in (experiments, allocator):
        bisect = module.bisect

        def counted_bisect(f, lo, hi, tol, bisect=bisect):
            return bisect(tracer.counter("numerics.bisect.fevals", f), lo, hi, tol)

        module.bisect = tracer.span("numerics.bisect", counted_bisect)


if __name__ == "__main__":
    main()
