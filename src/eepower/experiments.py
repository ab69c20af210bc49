"""Monte-Carlo pipelines that regenerate the headline datasets: single-link
power profiles and EE-SE curves, circuit-power sweeps, subcarrier and antenna
scaling, the fairness comparison of the four EE objectives, and the
dimension-gain summary table.

Every run is a pure function of its spec (seed included): trials draw from
per-trial substreams, and aggregation is plain numpy reductions over arrays
held in trial order, so reruns are bit-identical. The scaling and fairness
pipelines hold their trials as rows of (trials, n) arrays: each solver runs
once over all rows (`gee_rows`, `wsee_rows`, `wpee_rows`, `wmee_rows`), and
no trial is a Python object of its own. A scaling sweep solves every n in
one staged call (`_gee_solve`), whose rate sums are the SE: k v nats per
row, from the Lambert-W level's v and the active link count k, so it builds
no power array except for rows cut back to a cap. It summarises every
(pc, n) with one mean and one std call per quantity, into one (4, pcs, ns)
array. Every curve is
one 2-D float array (`CurveSet.rows`) that a runner builds with
`np.column_stack` from its sweep column and result arrays; the CLI writes
it as it is.

Each experiment is declared once, in EXPERIMENTS at the end of this module:
its CLI command, its runner, the spec fields the runner reads and its
defaults. default_spec, run, the spec checks, the CLI and the run manifest
all follow that record. What no command sets is fixed here as a module
constant: the gain grid of the curves, the fairness instances and the table1
dimension counts. Every draw is unit-mean Rayleigh (eepower.channel) from
the spec's seed.

A failing run has one description, its spec: `run` narrows a failing spec
to the first n, pc and trial that still fail (see `run`) and hands it on
with the error, and the CLI renders it as the command that replays the
failure, from the same fields and values as the run manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .allocator import _gee_solve, eepa, gee_rows, link_terms, water_level, wmee_rows, wpee_rows, wsee_rows
from .channel import draw_gain_rows, matrices_from_uniforms, stream_uniforms
from .errors import PowerControlError
from .metrics import evaluate, trace_ee_se
from .numerics import svd_gains

# Unused here: perfbench/child.py wraps these names on this module when it
# traces a run, so they must stay importable from it.
from .allocator import GeeProblem, gee_dinkelbach, wmee_maxmin, wpee_ascent, wsee_ascent  # noqa: F401
from .channel import draw_gains, draw_matrix, rng_for  # noqa: F401
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
        # the solvers' inputs must stay in the float range: a MIMO pc is per
        # antenna chain, so n times it, and the curves take eepa up to the
        # largest grid gain (table1 runs at 1 W and its n, so it stays in range)
        if self.experiment == "mimo_scaling":
            over = [(pc, n) for pc in pcs for n in ns if not math.isfinite(pc * n)]
            if over:
                pc, n = over[0]
                raise ValueError(f"pc values (--pc) are per antenna, and pc {pc!r} times n={n} overflows")
        if self.experiment in ("siso_profiles", "siso_ee_se", "pc_sweep"):
            for pc in pcs:
                try:
                    eepa(GAMMA_GRID[-1], pc)
                except ValueError as exc:
                    raise ValueError(f"pc values (--pc) must keep every grid gain's power finite: {exc}") from None


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
    """One plottable dataset: a label, (name, unit) columns, and the rows as
    one 2-D float array with a column per entry of `columns`.

    The first column is the sweep variable and must be strictly increasing.
    Units are "1" (dimensionless), "W", "nats_per_J", or "nats_per_s_per_Hz".
    """

    label: str
    columns: list[tuple[str, str]]
    rows: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """The named column, as a view of `rows`."""
        return self.rows[:, [col for col, _unit in self.columns].index(name)]

    def validate(self) -> None:
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError(f"{self.label}: rows of shape {self.rows.shape} for {len(self.columns)} columns")
        if np.any(self.rows[1:, 0] <= self.rows[:-1, 0]):
            raise ValueError(f"{self.label}: sweep column must be strictly increasing")


def run(spec: ExperimentSpec) -> list[CurveSet]:
    """Run the pipeline registered for spec.experiment.

    A PowerControlError leaves with the spec that replays it as its `spec`:
    n_values narrowed to the first single value whose run still fails alone,
    then pc_values the same way, and trials cut to row + 1 when the error
    names a row (trial t draws from stream t, so the prefix fails at the
    same row). The error is that of the last failing run, so the narrowed
    spec raises it again."""
    runner = EXPERIMENTS[spec.experiment].runner
    try:
        curves = runner(spec)
    except PowerControlError as exc:
        for name in ("n_values", "pc_values"):
            values = getattr(spec, name)
            if len(values) < 2:
                continue
            for value in values:
                one = replace(spec, **{name: (value,)})
                try:
                    runner(one)
                except PowerControlError as alone:
                    spec, exc = one, alone
                    break
        if exc.row is not None:
            spec = replace(spec, trials=exc.row + 1)
        exc.spec = spec
        raise exc
    for c in curves:
        c.validate()
    return curves


def run_siso_profiles(spec: ExperimentSpec) -> list[CurveSet]:
    """Power profiles and per-gain SE/EE of the EE-optimal scheme vs water-filling.

    The water level is calibrated so that the mean power over exactly
    `trials` seeded fading draws equals the budget, mirroring a long-run
    average power constraint. The draws are the one row of
    draw_gain_rows(seed, 1, trials), the bits of draw_gains(seed, trials,
    stream=0).
    """
    pc = spec.pc_values[0]
    sample = draw_gain_rows(spec.seed, 1, spec.trials)[0]
    level = float(water_level(sample, spec.budget * sample.size))

    p_ee, se_ee, ee_ee = trace_ee_se(pc, GAMMA_GRID)
    p_wf = np.maximum(0.0, level - 1.0 / GAMMA_GRID)
    if not math.isfinite(GAMMA_GRID[-1].item() * p_wf[-1].item()):
        # g p, largest at the largest grid gain, must stay finite for the SE
        raise PowerControlError("the water-filling power times the largest grid gain overflows under --budget")
    se_wf, ee_wf = link_terms(GAMMA_GRID, p_wf, pc)
    rows = np.column_stack([GAMMA_GRID, p_ee, p_wf, se_ee, se_wf, ee_ee, ee_wf])
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
        _p, se, ee = trace_ee_se(pc, GAMMA_GRID)
        curves.append(CurveSet(f"siso_ee_se_pc{pc:g}", columns, np.column_stack([GAMMA_GRID, se, ee])))
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
        ratios.append(
            CurveSet(
                f"pc_ratio_pc{pc_a:g}_to_pc{pc_b:g}",
                [("se_matched", "nats_per_s_per_Hz"), ("ee_ratio", "1")],
                np.column_stack([x, ratio]),
            )
        )
    return curves + ratios


def _scaling_stats(spec: ExperimentSpec, tech: str, ns, pcs) -> np.ndarray:
    """Mean/stderr of the optimized global EE and total SE per (pc, n), as
    one (4, pcs, ns) array: ee mean, ee stderr, se mean, se stderr.

    OFDM dimensions share the circuit power (extra subcarriers are free);
    MIMO antennas each carry their own transceiver chain, so the circuit
    power scales with n there (pc is the per-chain value).

    Trial t always draws from stream t. Each stream is read once, as the
    largest block any n needs (max n gains, or the 2 max(n)^2 uniforms of a
    square matrix); every (n, trial) draw is a prefix of its row, so the
    values equal per-(n, trial) draw_gains / draw_matrix calls. Every n and
    pc is then solved for all trials in one staged `_gee_solve` call, whose
    Lambert-W level stage runs once over all of them. Its rate sums are the
    SE: k v on a row under the cap (see `gee_rows`), the sum of log1p(g p)
    over a capped row's water-filled powers; no other row's powers are
    built. Each quantity is summarised by one mean and one std call over its
    (pcs, ns, trials) array; each gives the bits of a call per (pc, n).
    """
    if tech == "ofdm":
        block = draw_gain_rows(spec.seed, spec.trials, max(ns))
        gains = [block[:, :n] for n in ns]
    else:
        block = stream_uniforms(spec.seed, spec.trials, 2 * max(ns) ** 2)
        gains = [svd_gains(matrices_from_uniforms(block, n, n)) for n in ns]
    blocks = [(g, np.array(pcs)[:, None] * (n if tech == "mimo" else 1)) for n, g in zip(ns, gains)]
    ee, se, _ = _gee_solve(blocks, spec.budget)
    shape = (len(pcs), len(ns), spec.trials)
    return np.array([q for v in (ee, se) for q in _mean_stderr(v.reshape(shape))])


def _mean_stderr(values: np.ndarray):
    """The mean and standard error over the last (trials) axis of values, as
    two arrays; one trial has a standard error of 0."""
    trials = values.shape[-1]
    if trials < 2:
        return values.mean(axis=-1), np.zeros(values.shape[:-1])
    return values.mean(axis=-1), values.std(axis=-1, ddof=1) / math.sqrt(trials)


def run_scaling(spec: ExperimentSpec, tech: str) -> list[CurveSet]:
    """Mean optimized global EE and total SE versus subcarrier count (`tech`
    "ofdm") or antenna count ("mimo": square arrays, eigen-channels from the
    SVD of each drawn matrix), one curve per pc value."""
    stats = _scaling_stats(spec, tech, spec.n_values, spec.pc_values)
    columns = [
        ("n", "1"),
        ("ee_mean", "nats_per_J"),
        ("ee_stderr", "nats_per_J"),
        ("se_mean", "nats_per_s_per_Hz"),
        ("se_stderr", "nats_per_s_per_Hz"),
    ]
    return [
        CurveSet(f"{tech}_scaling_pc{pc:g}", columns, np.column_stack([spec.n_values, *stats[:, p]]))
        for p, pc in enumerate(spec.pc_values)
    ]


def run_fairness(spec: ExperimentSpec) -> list[CurveSet]:
    """Per-trial Jain fairness of the per-link EEs under each aggregate
    objective, plus the per-trial minimum EE for the global and max-min
    solvers, then a one-row summary: the trial count and the median Jain
    index per objective. FAIRNESS_LINKS links draw independent gains and
    circuit powers uniform over FAIRNESS_PC_RANGE; all four objectives share
    one total power budget. Each objective solves all trials in one row
    solver call (`gee_rows` with each trial's summed pc, then `wmee_rows`,
    `wsee_rows` and `wpee_rows`), and its powers are evaluated in one
    `evaluate` call."""
    lo, hi = FAIRNESS_PC_RANGE
    gains = draw_gain_rows(spec.seed, spec.trials, FAIRNESS_LINKS)
    u = stream_uniforms(spec.seed, spec.trials, FAIRNESS_LINKS, _AUX_STREAM)
    pcs = lo + (hi - lo) * u
    powers = {
        "gee": gee_rows(gains, pcs.sum(axis=1), spec.budget)[0],
        "wmee": wmee_rows(gains, pcs, spec.budget)[0],
        "wsee": wsee_rows(gains, pcs, spec.budget)[0],
        "wpee": wpee_rows(gains, pcs, spec.budget)[0],
    }
    reports = {name: evaluate(gains, pcs, p) for name, p in powers.items()}
    rows = np.column_stack(
        [np.arange(spec.trials, dtype=float)]
        + [reports[name].jain for name in ("gee", "wsee", "wpee", "wmee")]
        + [reports[name].per_link_ee.min(axis=1) for name in ("gee", "wmee")]
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
    summary = np.column_stack([float(spec.trials), *medians.values()])
    return [curve, CurveSet("fairness_summary", summary_columns, summary)]


def fairness_medians(curve: CurveSet) -> dict[str, float]:
    """Median Jain index per objective from a fairness trial curve."""
    return {name: _median(curve.column(f"jain_{name}")) for name in ("gee", "wsee", "wpee", "wmee")}


def _median(values) -> float:
    """np.median of a non-empty 1-D array, with the same arithmetic (the
    middle value, or the mean of the two middle values), but without the
    numpy.ma import np.median makes on its first call. NaN if any value is."""
    s = np.sort(values)
    k = s.size // 2
    if np.isnan(s[-1]):  # the sort puts NaN last
        return math.nan
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2.0)


def run_table1(spec: ExperimentSpec) -> list[CurveSet]:
    """EE and SE gain ratios over the single-dimension baseline for the
    standard subcarrier and antenna counts, at circuit power 1 W."""
    data, base = [np.arange(1.0, len(TABLE1_OFDM_N) + 1)], []
    for tech, ns in (("ofdm", TABLE1_OFDM_N), ("mimo", TABLE1_MIMO_N)):
        ee, _, se, _ = _scaling_stats(spec, tech, [1, *ns], [1.0])[:, 0]
        if ee[0] == 0.0:
            # every n = 1 trial got no power, so no gain over it is defined
            raise PowerControlError("the single-dimension EE is 0 under --budget, so the gains over it are undefined")
        data += [ns, ee[1:], ee[1:] / ee[0], se[1:] / se[0]]
        base.append(np.full(len(ns), ee[0]))
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
    return [CurveSet("table1", columns, np.column_stack(data + base))]


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
