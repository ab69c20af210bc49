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
import hashlib
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .allocator import GeeProblem, LinkConfig, eepa, ee_of, gee_dinkelbach, wmee_maxmin, wpa, wpee_ascent, wsee_ascent
from .channel import rng_for
from .errors import PowerControlError
from .experiments import default_spec, fairness_summary, run
from .oracle import OBJECTIVES, GridSpec, grid_argmax

_LN2 = math.log(2.0)

COMMANDS = {
    "siso-profiles": "siso_profiles",
    "siso-ee-se": "siso_ee_se",
    "pc-sweep": "pc_sweep",
    "ofdm-sweep": "ofdm_scaling",
    "mimo-sweep": "mimo_scaling",
    "fairness": "fairness",
    "table1": "table1",
}

CONFIG_KEYS = ("pc", "n", "trials", "seed", "budget", "units", "out")

# objective-value shortfall tolerated when a solver is compared against the
# grid oracle; grids are listed as (p_max, steps, budget per dimension)
VERIFY_TOL = {
    "ee_siso": 1e-6,
    "gee": 2e-3,
    "wsee": 1e-3,
    "wpee": 1e-3,
    "wmee": 1e-2,
    "sumrate": 1e-3,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: error: {message}")


def _parse_list(text: str, kind: type) -> tuple:
    """Comma-separated list of `kind` values (float or int)."""
    noun = "integers" if kind is int else "numbers"
    try:
        values = tuple(kind(v) for v in text.split(",") if v != "")
    except ValueError:
        raise UsageError(f"expected a comma-separated list of {noun}, got {text!r}")
    if not values:
        raise UsageError("empty list")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="eepower", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name, description=f"run the {COMMANDS[name]} experiment")
        p.add_argument("--pc", help="comma-separated circuit powers in W")
        p.add_argument("--n", help="comma-separated dimension counts")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--budget", type=float)
        p.add_argument("--units", choices=("nats", "bits"))
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--config", help="key=value config file; flags take precedence")
    v = sub.add_parser("verify", description="compare a solver against the grid oracle")
    v.add_argument("--objective", choices=OBJECTIVES, required=True)
    v.add_argument("--dims", type=int, default=2)
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int, default=1)
    return parser


def load_config(path: str) -> dict:
    """Parse a key=value config file (one key per line, # comments).

    Returns a mapping of recognized option names to parsed values; unknown
    keys and malformed values are rejected with the offending line number.
    """
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
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key == "pc":
                out[key] = _parse_list(value, float)
            elif key == "n":
                out[key] = _parse_list(value, int)
            elif key in ("trials", "seed"):
                out[key] = int(value)
            elif key == "budget":
                out[key] = float(value)
            elif key == "units":
                if value not in ("nats", "bits"):
                    raise ValueError(value)
                out[key] = value
            else:  # out
                out[key] = value
        except (ValueError, UsageError):
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
        print(f"eepower: numerical error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


def _cmd_experiment(args) -> int:
    experiment = COMMANDS[args.command]
    options = load_config(args.config) if args.config else {}
    for key in ("trials", "seed", "budget", "units", "out"):
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    if args.pc is not None:
        options["pc"] = _parse_list(args.pc, float)
    if args.n is not None:
        options["n"] = _parse_list(args.n, int)

    seed = int(options.get("seed", 1))
    try:
        spec = default_spec(experiment, seed=seed)
        overrides = {}
        if "pc" in options:
            overrides["pc_values"] = options["pc"]
        if "n" in options:
            overrides["n_values"] = options["n"]
        if "trials" in options:
            overrides["trials"] = options["trials"]
        if "budget" in options:
            overrides["budget"] = options["budget"]
        if overrides:
            spec = replace(spec, **overrides)
    except ValueError as exc:
        raise UsageError(f"eepower {args.command}: {exc}")
    units = options.get("units", "bits")
    outdir = Path(options.get("out", "out"))

    started = time.perf_counter()
    curves = run(spec)
    if experiment == "fairness":
        curves.append(fairness_summary(curves[0], spec.trials))
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


def _format_value(v: float) -> str:
    return format(float(v), ".12g")


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
    for row in curve.rows:
        lines.append(",".join(_format_value(v * s) for v, s in zip(row, scale)))
    return ("\n".join(lines) + "\n").encode("ascii")


def _render_manifest(command: str, spec, units: str, written) -> bytes:
    def fmt_list(values):
        return ",".join(format(v, "g") for v in values) if values else "-"

    lines = [
        f"command: {command}",
        f"version: {__version__}",
        f"experiment: {spec.experiment}",
        f"seed: {spec.fading.seed}",
        f"fading: {spec.fading.kind}",
        f"mean_gain: {format(spec.fading.mean_gain, 'g')}",
        f"pc: {fmt_list(spec.pc_values)}",
        f"n: {fmt_list(spec.n_values)}",
        f"trials: {spec.trials}",
        f"budget: {format(spec.budget, 'g') if spec.budget is not None else '-'}",
        f"units: {units}",
        f"gamma_points: {spec.gamma_points}",
        f"gamma_range: {fmt_list(spec.gamma_range)}",
        f"links: {spec.links}",
        f"pc_range: {fmt_list(spec.pc_range)}",
    ]
    for name, digest in written:
        lines.append(f"file: {name} sha256={digest}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _cmd_verify(args) -> int:
    if args.dims < 1 or (args.objective != "ee_siso" and args.dims > 3):
        raise UsageError("verify: --dims must be 1..3 (1 for ee_siso)")
    if args.objective == "ee_siso" and args.dims != 1:
        args.dims = 1
    worst = 0.0
    for i in range(args.trials):
        rng = rng_for(args.seed, i)
        gains = np.exp(rng.random(args.dims) * (math.log(3.0) - math.log(0.3)) + math.log(0.3))
        pcs = 0.5 + 1.5 * rng.random(args.dims)
        cfgs = [LinkConfig(pc) for pc in pcs]
        shortfall = _verify_instance(args.objective, gains, cfgs)
        worst = max(worst, shortfall)
    tol = VERIFY_TOL[args.objective]
    status = "ok" if worst <= tol else "FAIL"
    print(f"verify {args.objective}: max objective shortfall {worst:.3e} (tolerance {tol:.1e}) {status}")
    return 0 if worst <= tol else 2


def _verify_instance(objective: str, gains, cfgs) -> float:
    dims = len(gains)
    if objective == "ee_siso":
        cfg = cfgs[0]
        p = eepa(gains[0], cfg)
        solver_obj = ee_of(gains[0], p, cfg)
        grid = GridSpec(0.0, max(4.0, 3.0 * p + 1.0), 40_001)
        oracle = grid_argmax("ee_siso", gains, cfgs, grid)
    elif objective == "gee":
        prob = GeeProblem(gains, cfgs[0].pc)
        alloc = gee_dinkelbach(prob, 1e-12)
        solver_obj = alloc.objective
        top = max(4.0, 1.5 * float(alloc.powers.max()) + 1.0)
        steps = 2001 if dims >= 2 else 40_001
        oracle = grid_argmax("gee", gains, cfgs, GridSpec(0.0, top, steps))
    elif objective == "sumrate":
        p_avg = 0.5
        alloc = wpa(gains, p_avg)
        solver_obj = alloc.objective
        budget = p_avg * dims
        steps = 2001 if dims >= 2 else 40_001
        oracle = grid_argmax("sumrate", gains, cfgs, GridSpec(0.0, budget, steps), budget=budget)
    else:
        budget = 0.75 * dims
        if objective == "wsee":
            alloc = wsee_ascent(gains, cfgs, budget)
        elif objective == "wpee":
            alloc = wpee_ascent(gains, cfgs, budget)
        else:
            alloc = wmee_maxmin(gains, cfgs, budget)
        solver_obj = alloc.objective
        steps = {1: 40_001, 2: 1001, 3: 301}[dims]
        oracle = grid_argmax(objective, gains, cfgs, GridSpec(0.0, budget, steps), budget=budget)
    return max(0.0, oracle.objective - solver_obj)


if __name__ == "__main__":
    console_main()
