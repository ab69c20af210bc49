"""Command-line front end.

Runs one experiment pipeline, writes one CSV per curve plus a flat-text run
manifest with content digests, or cross-checks a solver against the grid
oracle (`verify`). Identical arguments always produce byte-identical files;
wall time is reported on stderr only so it never perturbs the outputs.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical or
infeasibility error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import GeeProblem, eepa, ee_of, gee_dinkelbach, wmee_maxmin, wpa, wpee_ascent, wsee_ascent
from .channel import stream_uniforms
from .errors import PowerControlError
from .experiments import EXPERIMENTS, ExperimentSpec, default_spec, run
from .oracle import GridSpec, grid_argmax

# Unused here: perfbench/child.py wraps this name on this module when it
# traces a run, so it must stay importable from it.
from .channel import rng_for  # noqa: F401

_LN2 = math.log(2.0)

# the objectives verify offers, each with the objective-value shortfall
# tolerated when its solver is compared against the grid oracle, and the
# oracle's points per axis by dimension, which are also the dimensions verify
# offers; 301 keeps dims 3 within the oracle's point limit. ee_siso is the
# one-link EE, which the oracle checks as "wsee"
VERIFY = {
    "ee_siso": (1e-6, {1: 40_001}),
    "gee": (2e-3, {1: 40_001, 2: 2001, 3: 301}),
    "wsee": (1e-3, {1: 40_001, 2: 1001, 3: 301}),
    "wpee": (1e-3, {1: 40_001, 2: 1001, 3: 301}),
    "wmee": (1e-2, {1: 40_001, 2: 1001, 3: 301}),
    "sumrate": (1e-3, {1: 40_001, 2: 2001, 3: 301}),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: error: {message}")


def _list_of(kind: type):
    """argparse converter for a comma-separated list of `kind` values (float or int)."""
    noun = "integers" if kind is int else "numbers"

    def parse(text: str) -> tuple:
        # an empty item ("1,,2", "1,", "") is not a number, so it is rejected
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of {noun}, got {text!r}")

    return parse


# every option of an experiment command, by its flag and config-key name, as
# argparse keywords; dest is the ExperimentSpec field or run setting it sets.
# A field is offered only by the commands whose experiment reads it
# (experiments.EXPERIMENTS); the run settings units and out by all.
_OPTIONS = {
    "pc": {
        "dest": "pc_values",
        "metavar": "PC",
        "type": _list_of(float),
        "help": "comma-separated circuit powers in W",
    },
    "n": {"dest": "n_values", "metavar": "N", "type": _list_of(int), "help": "comma-separated dimension counts"},
    "trials": {"dest": "trials", "type": int},
    "seed": {"dest": "seed", "type": int},
    "budget": {"dest": "budget", "type": float},
    "units": {"dest": "units", "choices": ("nats", "bits")},
    "out": {"dest": "out", "help": "output directory (default: out)"},
}


def _experiment_of(command: str) -> str:
    return next(name for name, entry in EXPERIMENTS.items() if entry.command == command)


def _command_options(command: str) -> dict:
    """The entries of _OPTIONS that `command` offers as flags and config keys."""
    reads = EXPERIMENTS[_experiment_of(command)].reads
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    return {name: kw for name, kw in _OPTIONS.items() if kw["dest"] in reads or kw["dest"] not in spec_fields}


@functools.cache
def build_parser() -> _Parser:
    """The eepower argument parser, built once per process: parsing leaves
    no state on it, so every `main` call reuses the first one built."""
    parser = _Parser(prog="eepower", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, entry in EXPERIMENTS.items():
        p = sub.add_parser(entry.command, description=f"run the {name} experiment")
        for flag, kw in _command_options(entry.command).items():
            p.add_argument(f"--{flag}", **kw)
        p.add_argument("--config", help="key=value config file; flags take precedence")
    v = sub.add_parser("verify", description="compare a solver against the grid oracle")
    v.add_argument("--objective", choices=tuple(VERIFY), required=True)
    v.add_argument("--dims", type=int, help="1..3 (default 2); 1 for ee_siso")
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int, default=1)
    return parser


def load_config(path: str, command: str) -> dict:
    """Parse a key=value config file (one key per line, # comments) for an
    experiment command.

    Keys are the command's flag names, offered and converted exactly as the
    flags are; returns a mapping of option destinations to values. Unknown
    keys, keys the command does not read, a key given twice and malformed
    values are rejected with the file and line number.
    """
    options = _command_options(command)
    out: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in options:
            raise UsageError(f"{path}:{lineno}: {command} does not read key {key!r}")
        kw = options[key]
        if kw["dest"] in out:
            raise UsageError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            parsed = kw["type"](value) if "type" in kw else value
        except (ValueError, argparse.ArgumentTypeError):
            parsed = None
        if parsed is None or ("choices" in kw and parsed not in kw["choices"]):
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
        out[kw["dest"]] = parsed
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            _reject(parser, args.command, extras)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        print("eepower: error: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_experiment(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (PowerControlError, FloatingPointError) as exc:
        # experiments.run gives its errors the spec that replays them
        replay = f"; replay: {_render_replay(exc.spec)}" if getattr(exc, "spec", None) else ""
        print(f"eepower: numerical error: {exc}{replay}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


def _reject(parser: _Parser, command: str | None, extras: list[str]):
    """UsageError for the arguments `command` has no option for: an option
    of another command is refused as one this command does not read, the
    same way a config key is; anything else gets argparse's message."""
    for arg in extras:
        flag = arg.partition("=")[0]
        if command and flag.startswith("--") and flag[2:] in _OPTIONS:
            raise UsageError(f"eepower {command}: {command} does not read {flag}")
    parser.error(f"unrecognized arguments: {' '.join(extras)}")


def _cmd_experiment(args) -> int:
    options = load_config(args.config, args.command) if args.config else {}
    options.update((k, v) for k, v in vars(args).items() if v is not None and k not in ("command", "config"))
    units = options.pop("units", "bits")
    outdir = Path(options.pop("out", "out"))
    try:
        spec = default_spec(_experiment_of(args.command), **options)
    except ValueError as exc:
        raise UsageError(f"eepower {args.command}: {exc}")

    started = time.perf_counter()
    curves = run(spec)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for curve in curves:
        name = f"{curve.label}.csv"
        data = _render_csv(curve, units)
        (outdir / name).write_bytes(data)
        written.append((name, hashlib.sha256(data).hexdigest()))
    manifest = _render_manifest(args.command, spec, units, written)
    (outdir / "manifest.txt").write_bytes(manifest)
    elapsed = time.perf_counter() - started
    print(f"eepower {args.command}: wrote {len(written)} file(s) to {outdir} in {elapsed:.2f}s", file=sys.stderr)
    return 0


def _render_csv(curve, units: str) -> bytes:
    header = []
    scale = []
    for name, unit in curve.columns:
        if unit == "1":
            header.append(name)
            scale.append(1.0)
        elif unit.startswith("nats") and units == "bits":
            header.append(f"{name}_{unit.replace('nats', 'bits', 1)}")
            scale.append(1.0 / _LN2)
        else:
            header.append(f"{name}_{unit}")
            scale.append(1.0)
    lines = [",".join(header)]
    for row in (curve.rows * scale).tolist():
        lines.append(",".join(format(v, ".12g") for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def _read_fields(spec) -> list:
    """(flag, value) of each field spec's experiment reads, in field order,
    at the value in effect."""
    flags = {kw["dest"]: name for name, kw in _OPTIONS.items()}
    reads = EXPERIMENTS[spec.experiment].reads
    return [(flags[field.name], getattr(spec, field.name)) for field in fields(spec) if field.name in reads]


def _render_replay(spec) -> str:
    """The eepower command that runs spec: its experiment's command and a
    flag per field it reads, valued as in the manifest; a None budget (no
    cap, the default) takes no flag."""
    args = [f"--{flag} {_manifest_value(value)}" for flag, value in _read_fields(spec) if value is not None]
    return " ".join(["eepower", EXPERIMENTS[spec.experiment].command, *args])


def _render_manifest(command: str, spec, units: str, written) -> bytes:
    """The run's header, each field its experiment reads at the value in
    effect (named by its flag), the units and a digest per written file."""
    lines = [f"command: {command}", f"version: {__version__}", f"experiment: {spec.experiment}"]
    lines += [f"{flag}: {_manifest_value(value)}" for flag, value in _read_fields(spec)]
    lines.append(f"units: {units}")
    for name, digest in written:
        lines.append(f"file: {name} sha256={digest}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _manifest_value(value) -> str:
    """value as a manifest entry: "-" for None, a tuple comma-separated, an
    int in full, and a float in `g` form when that reads back as the same
    float (repr otherwise), so a run replays from its manifest, and a
    failing run from its replay command."""
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return ",".join(_manifest_value(v) for v in value)
    if isinstance(value, int):
        return str(value)
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def _cmd_verify(args) -> int:
    tol, steps = VERIFY[args.objective]
    dims = min(2, max(steps)) if args.dims is None else args.dims
    if dims not in steps:
        raise UsageError(f"verify: --dims must be 1..3 (1 for ee_siso), got {dims} for {args.objective}")
    if args.trials < 1:
        raise UsageError(f"verify: --trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"verify: --seed must be >= 0, got {args.seed}")
    worst = 0.0
    worst_trial = None
    # trial i reads stream i: its first dims uniforms set the gains, the
    # next dims the circuit powers
    u = stream_uniforms(args.seed, args.trials, 2 * dims)
    for i in range(args.trials):
        gains = np.exp(u[i, :dims] * (math.log(3.0) - math.log(0.3)) + math.log(0.3))
        pcs = 0.5 + 1.5 * u[i, dims:]
        shortfall = _verify_instance(args.objective, gains, pcs)
        if shortfall > worst:
            worst, worst_trial = shortfall, (i, gains, pcs)
    status = "ok" if worst <= tol else "FAIL"
    label = f"verify {args.objective} --dims {dims}"
    print(f"{label}: max objective shortfall {worst:.3e} (tolerance {tol:.1e}) {status}")
    if worst <= tol:
        return 0
    i, gains, pcs = worst_trial
    replay = f"eepower verify --objective {args.objective} --dims {dims} --seed {args.seed} --trials {i + 1}"
    print(
        f"{label}: worst trial {i} (seed={args.seed}): gains {gains.tolist()!r}, "
        f"pcs {pcs.tolist()!r}; replay: {replay}",
        file=sys.stderr,
    )
    return 2


def _verify_instance(objective: str, gains, pcs) -> float:
    dims = len(gains)
    steps = VERIFY[objective][1][dims]
    if objective == "ee_siso":
        p = eepa(gains[0], pcs[0])
        solver_obj = ee_of(gains[0], p, pcs[0])
        grid = GridSpec(0.0, max(4.0, 3.0 * p + 1.0), steps)
        oracle = grid_argmax("wsee", gains, pcs, grid)
    elif objective == "gee":
        prob = GeeProblem(gains, pcs[0])
        alloc = gee_dinkelbach(prob)
        solver_obj = alloc.objective
        top = max(4.0, 1.5 * float(alloc.powers.max()) + 1.0)
        oracle = grid_argmax("gee", gains, pcs, GridSpec(0.0, top, steps))
    elif objective == "sumrate":
        p_avg = 0.5
        alloc = wpa(gains, p_avg)
        solver_obj = alloc.objective
        budget = p_avg * dims
        oracle = grid_argmax("sumrate", gains, pcs, GridSpec(0.0, budget, steps), budget=budget)
    else:
        budget = 0.75 * dims
        solve = {"wsee": wsee_ascent, "wpee": wpee_ascent, "wmee": wmee_maxmin}[objective]
        solver_obj = solve(gains, pcs, budget).objective
        oracle = grid_argmax(objective, gains, pcs, GridSpec(0.0, budget, steps), budget=budget)
    # a NaN or infinite objective on either side fails the trial
    if not (math.isfinite(oracle.objective) and math.isfinite(solver_obj)):
        return math.inf
    return max(0.0, oracle.objective - solver_obj)


if __name__ == "__main__":
    console_main()
