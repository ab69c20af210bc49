"""Monte-Carlo pipelines that regenerate the headline datasets: single-link
power profiles and EE-SE curves, circuit-power sweeps, subcarrier and antenna
scaling, the fairness comparison of the four EE objectives, and the
dimension-gain summary table.

Every run is a pure function of its spec (seed included): trials draw from
per-trial substreams, and aggregation is plain numpy reductions over arrays
held in trial order, so reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocator import (
    GeeProblem,
    LinkConfig,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_dinkelbach_rows,
    se_of,
    water_level,
    wmee_maxmin,
    wpee_ascent,
    wsee_ascent,
)
from .channel import FadingSpec, draw_gain_rows, draw_gains, matrices_from_uniforms, rng_for, stream_uniforms
from .errors import PowerControlError
from .metrics import evaluate, trace_ee_se
from .numerics import svd_gains

# Unused here: perfbench/child.py wraps these names on this module when it
# traces a run, so they must stay importable from it.
from .channel import draw_matrix  # noqa: F401
from .numerics import bisect  # noqa: F401

EXPERIMENTS = (
    "siso_profiles",
    "siso_ee_se",
    "pc_sweep",
    "ofdm_scaling",
    "mimo_scaling",
    "fairness",
    "table1",
)

DEFAULT_TRIALS = {
    "siso_profiles": 10_000,
    "siso_ee_se": 1,
    "pc_sweep": 1,
    "ofdm_scaling": 10_000,
    "mimo_scaling": 1_000,
    "fairness": 200,
    "table1": 1_000,
}

DEFAULT_PC = {
    "siso_profiles": (1.0,),
    "siso_ee_se": (1.0,),
    "pc_sweep": (1.0, 2.0),
    "ofdm_scaling": (1.0, 2.0),
    "mimo_scaling": (1.0, 2.0),
    "fairness": (1.0,),
    "table1": (1.0,),
}

DEFAULT_N = {
    "ofdm_scaling": (1, 2, 4, 8, 16, 32, 64),
    "mimo_scaling": (1, 2, 4, 8, 16, 32),
}

# mean power budget for the water-filling profile comparison
DEFAULT_WPA_BUDGET = 1.0
# total power budget shared by the links of one fairness instance
DEFAULT_FAIRNESS_BUDGET = 2.0
# dimension-gain table rows: (subcarrier count, antenna count) per row
TABLE1_OFDM_N = (16, 64)
TABLE1_MIMO_N = (4, 32)

_DINKELBACH_TOL = 1e-12
# auxiliary per-trial stream tag (heterogeneous circuit powers etc.), kept
# distinct from the channel stream key space
_AUX_STREAM = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment run."""

    experiment: str
    fading: FadingSpec = FadingSpec()
    pc_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    trials: int = 1
    budget: float | None = None
    gamma_points: int = 200
    gamma_range: tuple[float, float] = (1e-2, 1e2)
    links: int = 4
    pc_range: tuple[float, float] = (0.25, 2.0)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not all(math.isfinite(pc) and pc > 0.0 for pc in self.pc_values):
            raise ValueError(f"pc values must be positive and finite, got {self.pc_values}")
        if any(n < 1 for n in self.n_values):
            raise ValueError("n values must be >= 1")
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget > 0.0):
            raise ValueError(f"budget must be positive and finite, got {self.budget}")
        if self.gamma_points < 2 or self.gamma_range[0] <= 0.0 or self.gamma_range[1] <= self.gamma_range[0]:
            raise ValueError("gamma grid must have >= 2 points over a positive increasing range")
        if self.links < 2:
            raise ValueError(f"fairness needs >= 2 links, got {self.links}")
        if not (0.0 < self.pc_range[0] <= self.pc_range[1]):
            raise ValueError(f"bad pc_range {self.pc_range}")


def default_spec(experiment: str, seed: int = 1, **overrides) -> ExperimentSpec:
    """Spec with the documented defaults for the named experiment."""
    base = ExperimentSpec(
        experiment=experiment,
        fading=FadingSpec(seed=seed),
        pc_values=DEFAULT_PC.get(experiment, (1.0,)),
        n_values=DEFAULT_N.get(experiment, ()),
        trials=DEFAULT_TRIALS.get(experiment, 1),
    )
    return replace(base, **overrides) if overrides else base


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
    """Dispatch to the pipeline named by spec.experiment."""
    runner = {
        "siso_profiles": run_siso_profiles,
        "siso_ee_se": run_siso_ee_se,
        "pc_sweep": run_siso_ee_se,
        "ofdm_scaling": run_ofdm_scaling,
        "mimo_scaling": run_mimo_scaling,
        "fairness": run_fairness,
        "table1": run_table1,
    }[spec.experiment]
    curves = runner(spec)
    for c in curves:
        c.validate()
    return curves


def _gamma_grid(spec: ExperimentSpec) -> np.ndarray:
    lo, hi = spec.gamma_range
    return np.logspace(math.log10(lo), math.log10(hi), spec.gamma_points)


def run_siso_profiles(spec: ExperimentSpec) -> list[CurveSet]:
    """Power profiles and per-gain SE/EE of the EE-optimal scheme vs water-filling.

    The water level is calibrated so that the mean power over `trials` seeded
    fading draws equals the budget (default 1 W), mirroring a long-run average
    power constraint.
    """
    if not spec.pc_values:
        raise ValueError("siso_profiles needs one pc value")
    pc = spec.pc_values[0]
    cfg = LinkConfig(pc)
    budget = spec.budget if spec.budget is not None else DEFAULT_WPA_BUDGET
    sample = draw_gains(spec.fading, max(spec.trials, 2), stream=0)
    level = float(water_level(sample, budget * sample.size))

    rows = []
    for gamma in _gamma_grid(spec):
        p_ee = eepa(gamma, cfg)
        p_wf = max(0.0, level - 1.0 / gamma)
        rows.append(
            [
                gamma,
                p_ee,
                p_wf,
                se_of(gamma, p_ee),
                se_of(gamma, p_wf),
                ee_of(gamma, p_ee, cfg),
                ee_of(gamma, p_wf, cfg),
            ]
        )
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
    """Parametric EE-SE curve per circuit power; the pc_sweep variant adds the
    matched-SE EE ratio between consecutive pc values (linear interpolation on
    the sampled curves over their common SE range)."""
    if not spec.pc_values:
        raise ValueError("need at least one pc value")
    sweep = spec.experiment == "pc_sweep"
    if sweep and len(spec.pc_values) < 2:
        raise ValueError("pc_sweep needs at least two pc values")
    grid = _gamma_grid(spec)
    curves = []
    traced = []
    for pc in spec.pc_values:
        points = trace_ee_se(LinkConfig(pc), grid)
        se = np.array([pt.se for pt in points])
        ee = np.array([pt.ee for pt in points])
        traced.append((se, ee))
        rows = [[g, s, e] for g, s, e in zip(grid, se, ee)]
        curves.append(
            CurveSet(
                f"siso_ee_se_pc{pc:g}",
                [("gamma", "1"), ("se", "nats_per_s_per_Hz"), ("ee", "nats_per_J")],
                rows,
            )
        )
    if sweep:
        for (pc_a, (se_a, ee_a)), (pc_b, (se_b, ee_b)) in zip(
            zip(spec.pc_values, traced), zip(spec.pc_values[1:], traced[1:])
        ):
            lo = max(se_a[0], se_b[0])
            hi = min(se_a[-1], se_b[-1])
            mask = (se_a >= lo) & (se_a <= hi)
            x = se_a[mask]
            ratio = np.interp(x, se_b, ee_b) / ee_a[mask]
            rows = [[s, r] for s, r in zip(x, ratio)]
            curves.append(
                CurveSet(
                    f"pc_ratio_pc{pc_a:g}_to_pc{pc_b:g}",
                    [("se_matched", "nats_per_s_per_Hz"), ("ee_ratio", "1")],
                    rows,
                )
            )
    return curves


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
        block = draw_gain_rows(spec.fading, spec.trials, max(ns))
    else:
        block = stream_uniforms(spec.fading, spec.trials, 2 * max(ns) ** 2)
    stats: dict[tuple[float, int], tuple[float, float, float, float]] = {}
    for n in ns:
        gains = block[:, :n] if tech == "ofdm" else svd_gains(matrices_from_uniforms(spec.fading, block, n, n))
        for pc in pcs:
            powers, ee = _solve_trials(spec, tech, n, pc, gains)
            se = np.log1p(gains * powers).sum(axis=1)
            stats[(pc, n)] = (float(ee.mean()), _stderr(ee), float(se.mean()), _stderr(se))
    return stats


def _solve_trials(spec: ExperimentSpec, tech: str, n: int, pc: float, gains: np.ndarray):
    """Dinkelbach over the (trials, n) gains; a solver error is re-raised
    naming the trial, n, pc and seed and the one command that replays it."""
    try:
        return gee_dinkelbach_rows(gains, pc * n if tech == "mimo" else pc, _DINKELBACH_TOL, spec.budget)
    except PowerControlError as exc:
        if exc.row is None:
            raise
        replay = f"eepower {tech}-sweep --seed {spec.fading.seed} --n {n} --pc {pc!r} --trials {exc.row + 1}"
        if spec.budget is not None:
            replay += f" --budget {spec.budget!r}"
        raise type(exc)(
            f"{tech} trial {exc.row} (n={n}, pc={pc!r}, seed={spec.fading.seed}): {exc}; replay: {replay}",
            row=exc.row,
        ) from exc


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _scaling_curves(spec: ExperimentSpec, tech: str) -> list[CurveSet]:
    if not spec.n_values:
        raise ValueError("need at least one dimension count")
    ns = list(spec.n_values)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly ascending")
    if not spec.pc_values:
        raise ValueError("need at least one pc value")
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


def run_ofdm_scaling(spec: ExperimentSpec) -> list[CurveSet]:
    """Mean optimized global EE and total SE versus subcarrier count."""
    return _scaling_curves(spec, "ofdm")


def run_mimo_scaling(spec: ExperimentSpec) -> list[CurveSet]:
    """Mean optimized global EE and total SE versus antenna count (square
    arrays, eigen-channels from the SVD of each drawn matrix)."""
    return _scaling_curves(spec, "mimo")


def run_fairness(spec: ExperimentSpec) -> list[CurveSet]:
    """Per-trial Jain fairness of the per-link EEs under each aggregate
    objective, plus the per-trial minimum EE for the global and max-min
    solvers. Links draw independent gains and heterogeneous circuit powers;
    all four objectives share one total power budget."""
    budget = spec.budget if spec.budget is not None else DEFAULT_FAIRNESS_BUDGET
    lo, hi = spec.pc_range
    rows = []
    for t in range(spec.trials):
        gains = draw_gains(spec.fading, spec.links, stream=t)
        u = rng_for(spec.fading.seed, t, _AUX_STREAM).random(spec.links)
        pcs = lo + (hi - lo) * u
        cfgs = [LinkConfig(pc) for pc in pcs]

        gee_alloc = gee_dinkelbach(GeeProblem(gains, float(pcs.sum()), budget), _DINKELBACH_TOL)
        wsee_alloc = wsee_ascent(gains, cfgs, budget)
        wpee_alloc = wpee_ascent(gains, cfgs, budget)
        wmee_alloc = wmee_maxmin(gains, cfgs, budget)

        reports = {
            name: evaluate(gains, cfgs, alloc.powers)
            for name, alloc in (
                ("gee", gee_alloc),
                ("wsee", wsee_alloc),
                ("wpee", wpee_alloc),
                ("wmee", wmee_alloc),
            )
        }
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
    return [CurveSet("fairness_trials", columns, rows)]


def fairness_medians(curve: CurveSet) -> dict[str, float]:
    """Median Jain index per objective from a fairness trial curve."""
    return {
        name: float(np.median(curve.column(f"jain_{name}")))
        for name in ("gee", "wsee", "wpee", "wmee")
    }


def fairness_summary(curve: CurveSet, trials: int) -> CurveSet:
    """One row: the trial count and the median Jain index per objective."""
    medians = fairness_medians(curve)
    columns = [("trials", "1")] + [(f"median_jain_{name}", "1") for name in medians]
    return CurveSet("fairness_summary", columns, [[float(trials), *medians.values()]])


def run_table1(spec: ExperimentSpec) -> list[CurveSet]:
    """EE and SE gain ratios over the single-dimension baseline for the
    standard subcarrier and antenna counts, at circuit power 1 W."""
    if 1.0 not in spec.pc_values:
        raise ValueError("the gain table is defined at pc = 1.0")
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
