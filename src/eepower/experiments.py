"""Monte-Carlo pipelines that regenerate the headline datasets: single-link
power profiles and EE-SE curves, circuit-power sweeps, subcarrier and antenna
scaling, the fairness comparison of the four EE objectives, and the
dimension-gain summary table.

Every run is a pure function of its spec (seed included): trials draw from
per-trial substreams, and aggregation is plain numpy reductions over arrays
held in trial order, so reruns are bit-identical.

Each experiment is declared once, in EXPERIMENTS at the end of this module:
its CLI command, its runner, the spec fields the runner reads and its
defaults. default_spec, run, the spec checks, the CLI and the run manifest
all follow that record. What no command sets is fixed here as a module
constant: the gain grid of the curves, the fairness instances and the table1
dimension counts. Every draw is unit-mean Rayleigh (eepower.channel) from
the spec's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .allocator import LinkConfig, gee_rows, water_level, wmee_rows, wpee_ascent, wsee_ascent
from .channel import draw_gain_rows, draw_gains, matrices_from_uniforms, stream_uniforms
from .errors import PowerControlError
from .metrics import evaluate, trace_ee_se
from .numerics import svd_gains

# Unused here: perfbench/child.py wraps these names on this module when it
# traces a run, so they must stay importable from it.
from .allocator import GeeProblem, gee_dinkelbach, wmee_maxmin  # noqa: F401
from .channel import draw_matrix, rng_for  # noqa: F401
from .numerics import bisect  # noqa: F401

# dimension-gain table rows: (subcarrier count, antenna count) per row
TABLE1_OFDM_N = (16, 64)
TABLE1_MIMO_N = (4, 32)
# channel gains at which the SISO profiles and EE-SE curves are traced
GAMMA_GRID = np.logspace(math.log10(1e-2), math.log10(1e2), 200)
GAMMA_GRID.flags.writeable = False
# fairness instances: the link count, and the range the per-link circuit
# powers (W) are drawn from uniformly
FAIRNESS_LINKS = 4
FAIRNESS_PC_RANGE = (0.25, 2.0)

# auxiliary per-trial stream tag (heterogeneous circuit powers etc.), kept
# distinct from the channel stream key space
_AUX_STREAM = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment run: the experiment's name and the inputs a command can
    set. Each experiment reads only some of them (its `reads` in
    EXPERIMENTS); the seed is that of the fading draws."""

    experiment: str
    seed: int = 1
    pc_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    trials: int = 1
    budget: float | None = None

    def __post_init__(self) -> None:
        entry = _entry(self.experiment)
        if self.budget is None:  # the experiment's own budget is the one in effect
            object.__setattr__(self, "budget", entry.budget)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not all(math.isfinite(pc) and pc > 0.0 for pc in self.pc_values):
            raise ValueError(f"pc values must be positive and finite, got {self.pc_values}")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be >= 1")
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget > 0.0):
            raise ValueError(f"budget must be positive and finite, got {self.budget}")
        # what each experiment needs of the inputs it reads
        reads, pcs, ns = entry.reads, self.pc_values, self.n_values
        # each pc value names its own files (pc{pc:g})
        clash = [(a, b) for k, b in enumerate(pcs) for a in pcs[:k] if f"{a:g}" == f"{b:g}"]
        if clash:
            a, b = clash[0]
            raise ValueError(f"pc values {a!r} and {b!r} would write the same files (label pc{a:g})")
        if self.experiment == "siso_profiles" and len(pcs) != 1:
            raise ValueError(f"siso_profiles reads exactly one pc value, got {pcs}")
        if self.experiment == "pc_sweep" and len(pcs) < 2:
            raise ValueError(f"pc_sweep needs at least two pc values, got {pcs}")
        if "pc_values" in reads and not pcs:
            raise ValueError("need at least one pc value")
        if "n_values" in reads and (not ns or any(b <= a for a, b in zip(ns, ns[1:]))):
            raise ValueError(f"n values must be non-empty and strictly ascending, got {ns}")


def default_spec(experiment: str, **overrides) -> ExperimentSpec:
    """Spec with the registered defaults of the named experiment (see
    EXPERIMENTS), seed 1 where it draws; an override of a field the
    experiment does not read is a ValueError."""
    entry = _entry(experiment)
    unread = [f for f in overrides if f not in entry.reads]
    if unread:
        raise ValueError(f"{experiment} does not read {', '.join(unread)}")
    base = ExperimentSpec(experiment, pc_values=entry.pc_values, n_values=entry.n_values, trials=entry.trials)
    return replace(base, **overrides) if overrides else base


def _entry(experiment: str) -> Experiment:
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; expected one of {tuple(EXPERIMENTS)}")
    return EXPERIMENTS[experiment]


@dataclass
class CurveSet:
    """One plottable dataset: a label, (name, unit) columns, numeric rows.

    The first column is the sweep variable and must be strictly increasing.
    Units are "1" (dimensionless), "W", "nats_per_J", or "nats_per_s_per_Hz".
    """

    label: str
    columns: list[tuple[str, str]]
    rows: list[list[float]]

    def column(self, name: str) -> np.ndarray:
        for k, (col, _unit) in enumerate(self.columns):
            if col == name:
                return np.array([row[k] for row in self.rows])
        raise KeyError(name)

    def validate(self) -> None:
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"{self.label}: row width {len(row)} != {width} columns")
        x = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError(f"{self.label}: sweep column must be strictly increasing")


def run(spec: ExperimentSpec) -> list[CurveSet]:
    """Run the pipeline registered for spec.experiment."""
    curves = EXPERIMENTS[spec.experiment].runner(spec)
    for c in curves:
        c.validate()
    return curves


def run_siso_profiles(spec: ExperimentSpec) -> list[CurveSet]:
    """Power profiles and per-gain SE/EE of the EE-optimal scheme vs water-filling.

    The water level is calibrated so that the mean power over exactly
    `trials` seeded fading draws (stream 0) equals the budget, mirroring a
    long-run average power constraint.
    """
    pc = spec.pc_values[0]
    cfg = LinkConfig(pc)
    sample = draw_gains(spec.seed, spec.trials, stream=0)
    level = float(water_level(sample, spec.budget * sample.size))

    p_ee, se_ee, ee_ee = trace_ee_se(cfg, GAMMA_GRID)
    p_wf = np.maximum(0.0, level - 1.0 / GAMMA_GRID)
    se_wf = np.log1p(GAMMA_GRID * p_wf)
    rows = np.column_stack([GAMMA_GRID, p_ee, p_wf, se_ee, se_wf, ee_ee, se_wf / (pc + p_wf)]).tolist()
    columns = [
        ("gamma", "1"),
        ("p_eepa", "W"),
        ("p_wpa", "W"),
        ("se_eepa", "nats_per_s_per_Hz"),
        ("se_wpa", "nats_per_s_per_Hz"),
        ("ee_eepa", "nats_per_J"),
        ("ee_wpa", "nats_per_J"),
    ]
    return [CurveSet(f"siso_profiles_pc{pc:g}", columns, rows)]


def run_siso_ee_se(spec: ExperimentSpec) -> list[CurveSet]:
    """Parametric EE-SE curve per circuit power."""
    columns = [("gamma", "1"), ("se", "nats_per_s_per_Hz"), ("ee", "nats_per_J")]
    curves = []
    for pc in spec.pc_values:
        _p, se, ee = trace_ee_se(LinkConfig(pc), GAMMA_GRID)
        curves.append(CurveSet(f"siso_ee_se_pc{pc:g}", columns, [[g, s, e] for g, s, e in zip(GAMMA_GRID, se, ee)]))
    return curves


def run_pc_sweep(spec: ExperimentSpec) -> list[CurveSet]:
    """The EE-SE curves of run_siso_ee_se plus the matched-SE EE ratio between
    consecutive pc values (linear interpolation on the sampled curves over
    their common SE range)."""
    curves = run_siso_ee_se(spec)
    ratios = []
    for pc_a, pc_b, a, b in zip(spec.pc_values, spec.pc_values[1:], curves, curves[1:]):
        se_a, ee_a, se_b, ee_b = a.column("se"), a.column("ee"), b.column("se"), b.column("ee")
        lo = max(se_a[0], se_b[0])
        hi = min(se_a[-1], se_b[-1])
        mask = (se_a >= lo) & (se_a <= hi)
        x = se_a[mask]
        ratio = np.interp(x, se_b, ee_b) / ee_a[mask]
        rows = [[s, r] for s, r in zip(x, ratio)]
        ratios.append(
            CurveSet(
                f"pc_ratio_pc{pc_a:g}_to_pc{pc_b:g}",
                [("se_matched", "nats_per_s_per_Hz"), ("ee_ratio", "1")],
                rows,
            )
        )
    return curves + ratios


def _scaling_stats(spec: ExperimentSpec, tech: str, ns, pcs):
    """Mean/stderr of the optimized global EE and total SE per (pc, n).

    OFDM dimensions share the circuit power (extra subcarriers are free);
    MIMO antennas each carry their own transceiver chain, so the circuit
    power scales with n there (pc is the per-chain value).

    Trial t always draws from stream t. Each stream is read once, as the
    largest block any n needs (max n gains, or the 2 max(n)^2 uniforms of a
    square matrix); every (n, trial) draw is a prefix of its row, so the
    values equal per-(n, trial) draw_gains / draw_matrix calls. Each n is
    then solved for all trials at once.
    """
    if tech == "ofdm":
        block = draw_gain_rows(spec.seed, spec.trials, max(ns))
    else:
        block = stream_uniforms(spec.seed, spec.trials, 2 * max(ns) ** 2)
    stats: dict[tuple[float, int], tuple[float, float, float, float]] = {}
    for n in ns:
        gains = block[:, :n] if tech == "ofdm" else svd_gains(matrices_from_uniforms(block, n, n))
        for pc in pcs:
            powers, ee = _solve_trials(spec, tech, n, pc, gains)
            se = np.log1p(gains * powers).sum(axis=1)
            stats[(pc, n)] = (float(ee.mean()), _stderr(ee), float(se.mean()), _stderr(se))
    return stats


def _solve_trials(spec: ExperimentSpec, tech: str, n: int, pc: float, gains: np.ndarray):
    """The global-EE optimum of every trial's row of the (trials, n) gains, in
    one closed-form `gee_rows` call; a solver error is re-raised naming the
    trial, n, pc and seed and the one command that replays it."""
    try:
        return gee_rows(gains, pc * n if tech == "mimo" else pc, spec.budget)
    except PowerControlError as exc:
        if exc.row is None:
            raise
        raise _replayable(
            exc,
            spec,
            exc.row,
            f"{tech} trial {exc.row} (n={n}, pc={pc!r}, seed={spec.seed})",
            f"eepower {tech}-sweep --seed {spec.seed} --n {n} --pc {pc!r} --trials {exc.row + 1}",
        ) from exc


def _replayable(exc: PowerControlError, spec: ExperimentSpec, trial: int, instance: str, replay: str):
    """exc again for the failing trial, its message prefixed with the
    instance and ending in the eepower command (plus the run's --budget, unless
    it is the experiment's default) that replays it."""
    if spec.budget != EXPERIMENTS[spec.experiment].budget:
        replay += f" --budget {spec.budget!r}"
    return type(exc)(f"{instance}: {exc}; replay: {replay}", row=trial)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def run_scaling(spec: ExperimentSpec, tech: str) -> list[CurveSet]:
    """Mean optimized global EE and total SE versus subcarrier count (`tech`
    "ofdm") or antenna count ("mimo": square arrays, eigen-channels from the
    SVD of each drawn matrix), one curve per pc value."""
    ns = list(spec.n_values)
    stats = _scaling_stats(spec, tech, ns, spec.pc_values)
    columns = [
        ("n", "1"),
        ("ee_mean", "nats_per_J"),
        ("ee_stderr", "nats_per_J"),
        ("se_mean", "nats_per_s_per_Hz"),
        ("se_stderr", "nats_per_s_per_Hz"),
    ]
    curves = []
    for pc in spec.pc_values:
        rows = [[float(n), *stats[(pc, n)]] for n in ns]
        curves.append(CurveSet(f"{tech}_scaling_pc{pc:g}", columns, rows))
    return curves


def run_fairness(spec: ExperimentSpec) -> list[CurveSet]:
    """Per-trial Jain fairness of the per-link EEs under each aggregate
    objective, plus the per-trial minimum EE for the global and max-min
    solvers, then a one-row summary: the trial count and the median Jain
    index per objective. FAIRNESS_LINKS links draw independent gains and
    circuit powers uniform over FAIRNESS_PC_RANGE; all four objectives share
    one total power budget. A solver error is re-raised naming the trial,
    seed and budget and the command that replays it. The global and max-min
    EE of all trials are one `gee_rows` (pc: each trial's sum) and one
    `wmee_rows` call."""
    lo, hi = FAIRNESS_PC_RANGE
    gains = draw_gain_rows(spec.seed, spec.trials, FAIRNESS_LINKS)
    u = stream_uniforms(spec.seed, spec.trials, FAIRNESS_LINKS, _AUX_STREAM)
    pcs = lo + (hi - lo) * u

    def replayable(exc: PowerControlError, t: int) -> PowerControlError:
        instance = f"fairness trial {t} (seed={spec.seed}, budget={spec.budget!r})"
        return _replayable(exc, spec, t, instance, f"eepower fairness --seed {spec.seed} --trials {t + 1}")

    try:
        gee_powers = gee_rows(gains, pcs.sum(axis=1), spec.budget)[0]
        wmee_powers = wmee_rows(gains, pcs, 1.0, math.inf, spec.budget)[0]
    except PowerControlError as exc:
        raise replayable(exc, exc.row) from exc
    rows = []
    for t in range(spec.trials):
        cfgs = [LinkConfig(pc) for pc in pcs[t]]
        try:
            powers = {"gee": gee_powers[t], "wmee": wmee_powers[t]} | {
                name: solve(gains[t], cfgs, spec.budget).powers
                for name, solve in (("wsee", wsee_ascent), ("wpee", wpee_ascent))
            }
        except PowerControlError as exc:
            raise replayable(exc, t) from exc
        reports = {name: evaluate(gains[t], cfgs, p) for name, p in powers.items()}
        rows.append(
            [
                float(t),
                reports["gee"].jain,
                reports["wsee"].jain,
                reports["wpee"].jain,
                reports["wmee"].jain,
                float(reports["gee"].per_link_ee.min()),
                float(reports["wmee"].per_link_ee.min()),
            ]
        )
    columns = [
        ("trial", "1"),
        ("jain_gee", "1"),
        ("jain_wsee", "1"),
        ("jain_wpee", "1"),
        ("jain_wmee", "1"),
        ("min_ee_gee", "nats_per_J"),
        ("min_ee_wmee", "nats_per_J"),
    ]
    curve = CurveSet("fairness_trials", columns, rows)
    medians = fairness_medians(curve)
    summary_columns = [("trials", "1")] + [(f"median_jain_{name}", "1") for name in medians]
    return [curve, CurveSet("fairness_summary", summary_columns, [[float(spec.trials), *medians.values()]])]


def fairness_medians(curve: CurveSet) -> dict[str, float]:
    """Median Jain index per objective from a fairness trial curve."""
    return {
        name: float(np.median(curve.column(f"jain_{name}")))
        for name in ("gee", "wsee", "wpee", "wmee")
    }


def run_table1(spec: ExperimentSpec) -> list[CurveSet]:
    """EE and SE gain ratios over the single-dimension baseline for the
    standard subcarrier and antenna counts, at circuit power 1 W."""
    pc = 1.0
    ofdm_ns = [1, *TABLE1_OFDM_N]
    mimo_ns = [1, *TABLE1_MIMO_N]
    ofdm = _scaling_stats(spec, "ofdm", ofdm_ns, [pc])
    mimo = _scaling_stats(spec, "mimo", mimo_ns, [pc])
    ofdm_base_ee, _, ofdm_base_se, _ = ofdm[(pc, 1)]
    mimo_base_ee, _, mimo_base_se, _ = mimo[(pc, 1)]
    rows = []
    for k, (n_ofdm, n_mimo) in enumerate(zip(TABLE1_OFDM_N, TABLE1_MIMO_N), start=1):
        o_ee, _, o_se, _ = ofdm[(pc, n_ofdm)]
        m_ee, _, m_se, _ = mimo[(pc, n_mimo)]
        rows.append(
            [
                float(k),
                float(n_ofdm),
                o_ee,
                o_ee / ofdm_base_ee,
                o_se / ofdm_base_se,
                float(n_mimo),
                m_ee,
                m_ee / mimo_base_ee,
                m_se / mimo_base_se,
                ofdm_base_ee,
                mimo_base_ee,
            ]
        )
    columns = [
        ("row", "1"),
        ("n_ofdm", "1"),
        ("ofdm_ee", "nats_per_J"),
        ("ofdm_ee_gain", "1"),
        ("ofdm_se_gain", "1"),
        ("n_mimo", "1"),
        ("mimo_ee", "nats_per_J"),
        ("mimo_ee_gain", "1"),
        ("mimo_se_gain", "1"),
        ("siso_ee_ofdm", "nats_per_J"),
        ("siso_ee_mimo", "nats_per_J"),
    ]
    return [CurveSet("table1", columns, rows)]


@dataclass(frozen=True)
class Experiment:
    """One experiment: the CLI command that runs it, its runner, every
    ExperimentSpec field the runner reads, and its defaults for the run
    inputs. default_spec and the CLI refuse a field outside `reads`, and the
    manifest lists exactly those fields."""

    command: str
    runner: Callable[[ExperimentSpec], list[CurveSet]]
    reads: tuple[str, ...]
    trials: int = 1
    pc_values: tuple[float, ...] = (1.0,)
    n_values: tuple[int, ...] = ()
    budget: float | None = None


_SCALING = ("seed", "pc_values", "n_values", "trials", "budget")

# every experiment, by name; the only place its command, inputs and defaults
# are declared. siso_profiles' budget is the mean power of the water-filling
# profile, fairness' the total power the links of one instance share; the
# scaling pipelines and table1 read an optional total transmit power cap.
EXPERIMENTS = {
    "siso_profiles": Experiment(
        "siso-profiles", run_siso_profiles, ("seed", "pc_values", "trials", "budget"), trials=10_000, budget=1.0
    ),
    "siso_ee_se": Experiment("siso-ee-se", run_siso_ee_se, ("pc_values",)),
    "pc_sweep": Experiment("pc-sweep", run_pc_sweep, ("pc_values",), pc_values=(1.0, 2.0)),
    "ofdm_scaling": Experiment(
        "ofdm-sweep",
        partial(run_scaling, tech="ofdm"),
        _SCALING,
        trials=10_000,
        pc_values=(1.0, 2.0),
        n_values=(1, 2, 4, 8, 16, 32, 64),
    ),
    "mimo_scaling": Experiment(
        "mimo-sweep",
        partial(run_scaling, tech="mimo"),
        _SCALING,
        trials=1_000,
        pc_values=(1.0, 2.0),
        n_values=(1, 2, 4, 8, 16, 32),
    ),
    "fairness": Experiment("fairness", run_fairness, ("seed", "trials", "budget"), trials=200, budget=2.0),
    "table1": Experiment("table1", run_table1, ("seed", "trials", "budget"), trials=1_000),
}
