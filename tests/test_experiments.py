import math
import warnings

import numpy as np
import pytest

from eepower import allocator, experiments
from eepower.allocator import (
    GeeProblem,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_rows,
    wmee_maxmin,
    wpee_ascent,
    wsee_ascent,
    wsee_rows,
)
from eepower.channel import draw_gain_rows, draw_gains, draw_matrix, matrices_from_uniforms, rng_for, stream_uniforms
from eepower.errors import InfeasibleError, PowerControlError
from eepower.numerics import svd_gains
from eepower.experiments import (
    CurveSet,
    ExperimentSpec,
    default_spec,
    fairness_medians,
    run,
    run_siso_profiles,
)


def same_bits(a, b) -> bool:
    """Whether a and b are float arrays of one shape with the same bytes."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        default_spec("nonsense")
    with pytest.raises(ValueError):
        default_spec("ofdm_scaling", trials=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        default_spec("fairness", seed=-1)
    with pytest.raises(ValueError):
        run(default_spec("table1", pc_values=(2.0,)))


@pytest.mark.parametrize(
    "experiment, field, value",
    [
        ("siso_ee_se", "trials", 7),
        ("siso_ee_se", "budget", 5.0),
        ("pc_sweep", "n_values", (5,)),
        ("fairness", "pc_values", (1.0, 2.0)),
        ("table1", "pc_values", (2.0,)),
        ("siso_profiles", "n_values", (3,)),
        ("siso_ee_se", "seed", 3),
        ("pc_sweep", "seed", 3),
        # the gain grid and the fairness instances are fixed, so their old
        # field names are refused the same way
        ("fairness", "gamma_points", 50),
        ("siso_ee_se", "links", 3),
        ("siso_ee_se", "pc_range", (0.5, 1.0)),
    ],
)
def test_default_spec_refuses_an_input_the_experiment_does_not_read(experiment, field, value):
    assert field not in experiments.EXPERIMENTS[experiment].reads
    with pytest.raises(ValueError, match=f"{experiment} does not read {field}"):
        default_spec(experiment, **{field: value})


@pytest.mark.parametrize(
    "experiment, overrides, match",
    [
        ("siso_profiles", {"pc_values": (1.0, 2.0)}, "exactly one pc value"),
        ("pc_sweep", {"pc_values": (1.0,)}, "at least two pc values"),
        ("siso_ee_se", {"pc_values": ()}, "at least one pc value"),
        ("ofdm_scaling", {"pc_values": (1.0,), "n_values": ()}, "n values"),
        ("mimo_scaling", {"pc_values": (1.0,), "n_values": (4, 2)}, "n values"),
        ("siso_ee_se", {"pc_values": (2.0, 2.0)}, "pc values 2.0 and 2.0 would write the same files"),
    ],
)
def test_spec_checks_what_each_experiment_needs_of_its_inputs(experiment, overrides, match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(experiment, **overrides)


def test_table1_spec_builds_without_pc_values():
    # table1 runs at 1 W whatever pc_values holds, so a spec left at the
    # field's default () builds and gives the default spec's table
    spec = ExperimentSpec("table1", trials=5)
    assert spec.pc_values == ()
    (table,) = run(spec)
    (expected,) = run(default_spec("table1", trials=5))
    assert table.columns == expected.columns
    assert same_bits(table.rows, expected.rows)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_spec_rejects_non_finite_budget_and_pc(bad):
    with pytest.raises(ValueError, match="budget"):
        default_spec("ofdm_scaling", budget=bad)
    with pytest.raises(ValueError, match="pc values"):
        default_spec("ofdm_scaling", pc_values=(1.0, bad))


def test_spec_rejects_a_pc_that_overflows_what_the_experiment_solves():
    # a MIMO pc is per antenna chain, so n times it must stay finite
    with pytest.raises(ValueError, match=r"^pc values \(--pc\) are per antenna, and pc 1e\+307 times n=32 overflows$"):
        default_spec("mimo_scaling", pc_values=(1.0, 1e307), n_values=(1, 2, 32))
    assert default_spec("mimo_scaling", pc_values=(5e306,), n_values=(1, 2, 32)).pc_values == (5e306,)
    # the SISO curves take the EE-optimal power up to the largest grid gain
    for experiment, pcs in (("siso_ee_se", (1e307,)), ("siso_profiles", (1.796e306,)), ("pc_sweep", (1.0, 1e307))):
        with pytest.raises(ValueError, match=r"^pc values \(--pc\) must keep every grid gain's power finite: .*: gain 100\.0, pc 1"):
            default_spec(experiment, pc_values=pcs)
    (curve,) = run(default_spec("siso_ee_se", pc_values=(1.7e306,)))
    assert np.all(np.isfinite(curve.rows))


def test_curveset_validation():
    columns = [("x", "1"), ("y", "1")]
    c = CurveSet("bad", columns, np.array([[1.0, 2.0], [1.0, 3.0]]))
    with pytest.raises(ValueError, match="strictly increasing"):
        c.validate()
    # a ragged row cannot become a rows array, and rows without one column
    # per entry of `columns` are refused
    with pytest.raises(ValueError):
        CurveSet("ragged", columns, np.array([[1.0, 2.0], [2.0]]))
    for rows in (np.ones((2, 3)), np.ones((2, 1)), np.ones(2), np.ones((1, 1, 2))):
        with pytest.raises(ValueError, match=r"rows of shape .* for 2 columns"):
            CurveSet("wide", columns, rows).validate()


@pytest.mark.parametrize(
    "x",
    [[1.0, 2.0, 3.0], [3.0, 2.0], [1.0, math.nan, 0.5], [math.nan, math.nan]]
    + [[1.0, math.inf, math.inf], [-math.inf, 0.0]],
)
def test_curveset_sweep_check_equals_the_pairwise_loop(x):
    # the sweep column is refused where some value is <= the one before it,
    # so a NaN neighbour refuses nothing
    refused = any(b <= a for a, b in zip(x, x[1:]))
    c = CurveSet("sweep", [("x", "1")], np.array(x).reshape(-1, 1))
    if refused:
        with pytest.raises(ValueError, match="strictly increasing"):
            c.validate()
    else:
        c.validate()


def test_siso_profiles_shapes_and_claims():
    spec = default_spec("siso_profiles", seed=1, trials=2000)
    (curve,) = run(spec)
    gamma = curve.column("gamma")
    p_ee = curve.column("p_eepa")
    p_wf = curve.column("p_wpa")
    se_ee = curve.column("se_eepa")
    se_wf = curve.column("se_wpa")
    assert np.all(np.diff(gamma) > 0)
    # the EE-optimal power falls as the channel improves beyond its peak,
    # while water-filling rises above its cutoff
    k_peak = int(np.argmax(p_ee))
    assert np.all(np.diff(p_ee[k_peak:]) < 0)
    active = p_wf > 0
    assert np.all(np.diff(p_wf[active]) > 0)
    # below the cutoff the water-filling link is silent
    assert np.all(se_wf[~active] == 0.0)
    # rate crossover: EE scheme wins on bad channels, loses on good ones
    assert se_ee[0] > se_wf[0]
    assert se_ee[-1] < se_wf[-1]


def test_siso_profiles_budget_calibration():
    spec = default_spec("siso_profiles", seed=5, trials=4000, budget=0.7)
    (curve,) = run(spec)
    # recompute the empirical mean power of the water-filling rule over the
    # calibration sample
    sample = draw_gains(spec.seed, spec.trials, stream=0)
    p_wf = curve.column("p_wpa")
    gamma = curve.column("gamma")
    level = p_wf[-1] + 1.0 / gamma[-1]
    mean_power = np.maximum(0.0, level - 1.0 / sample).mean()
    assert mean_power == pytest.approx(0.7, rel=1e-6)


def test_siso_ee_se_curves_monotone():
    spec = default_spec("siso_ee_se", pc_values=(0.5,))
    (curve,) = run(spec)
    assert np.all(np.diff(curve.column("se")) > 0)
    assert np.all(np.diff(curve.column("ee")) > 0)


def test_pc_sweep_ratio_is_half():
    spec = default_spec("pc_sweep")
    curves = run(spec)
    assert [c.label for c in curves] == [
        "siso_ee_se_pc1",
        "siso_ee_se_pc2",
        "pc_ratio_pc1_to_pc2",
    ]
    ratio = curves[-1].column("ee_ratio")
    assert abs(ratio[0] - 0.5) < 1e-3
    assert np.all((ratio > 0.4) & (ratio < 0.65))


def test_pc_sweep_needs_two_pcs():
    with pytest.raises(ValueError):
        run(default_spec("pc_sweep", pc_values=(1.0,)))


def test_ofdm_scaling_monotone_and_reduces_to_siso():
    spec = default_spec("ofdm_scaling", seed=3, trials=150, n_values=(1, 2, 4), pc_values=(1.0,))
    (curve,) = run(spec)
    ee = curve.column("ee_mean")
    se = curve.column("se_mean")
    assert np.all(np.diff(ee) > 0)
    assert np.all(np.diff(se) > 0)
    direct = []
    for t in range(spec.trials):
        g = draw_gains(spec.seed, 1, stream=t)[0]
        direct.append(ee_of(g, eepa(g, 1.0), 1.0))
    assert abs(ee[0] - np.mean(direct)) < 1e-8


def test_mimo_scaling_monotone_and_reduces_to_siso():
    spec = default_spec("mimo_scaling", seed=3, trials=80, n_values=(1, 2, 4), pc_values=(1.0,))
    (curve,) = run(spec)
    ee = curve.column("ee_mean")
    assert np.all(np.diff(ee) > 0)
    direct = []
    for t in range(spec.trials):
        g = abs(draw_matrix(spec.seed, 1, 1, stream=t)[0, 0]) ** 2
        direct.append(ee_of(g, eepa(g, 1.0), 1.0))
    assert abs(ee[0] - np.mean(direct)) < 1e-8


def test_scaling_requires_ascending_n():
    with pytest.raises(ValueError):
        run(default_spec("ofdm_scaling", trials=2, n_values=(4, 2)))


def test_lower_pc_gives_uniformly_higher_ee():
    spec = default_spec("mimo_scaling", seed=7, trials=60, n_values=(1, 2, 4), pc_values=(0.5, 1.0))
    low, high = run(spec)
    assert np.all(low.column("ee_mean") > high.column("ee_mean"))


def test_fairness_maxmin_protects_weakest_link():
    spec = default_spec("fairness", seed=4, trials=40)
    curve, summary = run(spec)
    assert np.all(curve.column("min_ee_wmee") >= curve.column("min_ee_gee") - 1e-9)
    med = fairness_medians(curve)
    assert med["wmee"] >= med["gee"]
    assert set(med) == {"gee", "wsee", "wpee", "wmee"}
    # the run's second curve is the one-row summary of the first
    assert summary.label == "fairness_summary"
    assert same_bits(summary.rows, [[40.0, med["gee"], med["wsee"], med["wpee"], med["wmee"]]])


@pytest.mark.parametrize("size", [1, 40, 41])
def test_median_equals_numpy_median(size):
    values = np.random.default_rng(size).random(size)
    assert experiments._median(values) == np.median(values)
    values[size // 2] = math.nan
    with warnings.catch_warnings():  # some numpy versions warn on a NaN median
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isnan(np.median(values))
    assert math.isnan(experiments._median(values))


def test_table1_all_gains_at_least_one():
    spec = default_spec("table1", seed=1, trials=60)
    (curve,) = run(spec)
    for name in ("ofdm_ee_gain", "mimo_ee_gain", "ofdm_se_gain", "mimo_se_gain"):
        assert np.all(curve.column(name) >= 1.0)
    assert list(curve.column("n_ofdm")) == [16.0, 64.0]
    assert list(curve.column("n_mimo")) == [4.0, 32.0]


def test_runs_are_bit_reproducible():
    spec = default_spec("ofdm_scaling", seed=11, trials=30, n_values=(1, 4), pc_values=(1.0,))
    a = run(spec)[0]
    b = run(spec)[0]
    assert same_bits(a.rows, b.rows)
    spec = default_spec("fairness", seed=11, trials=10)
    a = run(spec)[0]
    b = run(spec)[0]
    assert same_bits(a.rows, b.rows)


def test_fairness_block_draws_equal_per_trial_draws(monkeypatch):
    # run_fairness draws its gains and circuit powers as per-trial blocks;
    # each trial's row of links must be that of its own streams
    spec = default_spec("fairness", seed=7, trials=6)
    seen = []

    def record(gains, pc, budget):
        seen.append((gains, pc))
        return wsee_rows(gains, pc, budget)

    monkeypatch.setattr(experiments, "wsee_rows", record)
    run(spec)
    lo, hi = experiments.FAIRNESS_PC_RANGE
    links = experiments.FAIRNESS_LINKS
    ((gains, pcs),) = seen
    assert gains.shape == pcs.shape == (spec.trials, links)
    for t in range(spec.trials):
        assert np.array_equal(gains[t], draw_gains(spec.seed, links, stream=t))
        u = rng_for(spec.seed, t, experiments._AUX_STREAM).random(links)
        assert pcs[t].tolist() == list(lo + (hi - lo) * u)


def fairness_per_trial_loop(spec):
    """The fairness trial rows as a plain loop, one trial at a time: its own
    streams, one-row solver calls, then the per-link EE
    and Jain index of each allocation, with the arithmetic of the per-link
    metrics (numpy sums over the link vector)."""
    lo, hi = experiments.FAIRNESS_PC_RANGE
    links = experiments.FAIRNESS_LINKS
    rows = []
    for t in range(spec.trials):
        gains = draw_gains(spec.seed, links, stream=t)
        pcs = lo + (hi - lo) * rng_for(spec.seed, t, experiments._AUX_STREAM).random(links)
        powers = {
            "gee": gee_dinkelbach(GeeProblem(gains, pcs.sum(), spec.budget)).powers,
            "wsee": wsee_ascent(gains, pcs, spec.budget).powers,
            "wpee": wpee_ascent(gains, pcs, spec.budget).powers,
            "wmee": wmee_maxmin(gains, pcs, spec.budget).powers,
        }
        ee, jain = {}, {}
        for name, p in powers.items():
            ee[name] = np.log1p(gains * p) / (pcs + p)
            s, sq = float(ee[name].sum()), float((ee[name] * ee[name]).sum())
            jain[name] = 1.0 if sq == 0.0 else s * s / (links * sq)
        rows.append([float(t), *jain.values(), float(ee["gee"].min()), float(ee["wmee"].min())])
    return rows


@pytest.mark.parametrize("seed, trials, budget", [(1, 40, 2.0), (7, 200, 0.5), (3, 5, 1e-6)])
def test_fairness_equals_per_trial_loop(seed, trials, budget):
    # the row solvers and the array evaluation give every trial's row of the
    # one-trial-at-a-time pipeline, bit for bit
    spec = default_spec("fairness", seed=seed, trials=trials, budget=budget)
    curve, _summary = run(spec)
    assert same_bits(curve.rows, fairness_per_trial_loop(spec))


def test_doubling_trials_is_statistically_stable():
    base = default_spec("ofdm_scaling", seed=13, trials=150, n_values=(4,), pc_values=(1.0,))
    doubled = default_spec("ofdm_scaling", seed=13, trials=300, n_values=(4,), pc_values=(1.0,))
    a = run(base)[0]
    b = run(doubled)[0]
    gap = abs(a.column("ee_mean")[0] - b.column("ee_mean")[0])
    assert gap <= 3.0 * a.column("ee_stderr")[0]


def _per_trial_loop(spec, tech):
    # reference: one draw and one solve per (n, trial, pc), as a plain loop
    rows = {pc: [] for pc in spec.pc_values}
    for n in spec.n_values:
        ee = {pc: [] for pc in spec.pc_values}
        se = {pc: [] for pc in spec.pc_values}
        for t in range(spec.trials):
            if tech == "ofdm":
                gains = draw_gains(spec.seed, n, stream=t)
            else:
                gains = svd_gains(draw_matrix(spec.seed, n, n, stream=t))
            for pc in spec.pc_values:
                pc_total = pc * n if tech == "mimo" else pc
                alloc = gee_dinkelbach(GeeProblem(gains, pc_total, spec.budget))
                ee[pc].append(alloc.objective)
                se[pc].append(float(np.log1p(gains * alloc.powers).sum()))
        for pc in spec.pc_values:
            e, s = np.array(ee[pc]), np.array(se[pc])
            stderr = [float(v.std(ddof=1) / math.sqrt(v.size)) for v in (e, s)]
            rows[pc].append([float(n), float(e.mean()), stderr[0], float(s.mean()), stderr[1]])
    return [rows[pc] for pc in spec.pc_values]


@pytest.mark.parametrize("budget", [None, 0.8])
@pytest.mark.parametrize("tech", ["ofdm", "mimo"])
def test_scaling_equals_per_trial_loop(tech, budget):
    spec = default_spec(
        f"{tech}_scaling", seed=17, trials=6, n_values=(1, 2, 3, 8), pc_values=(0.5, 2.0), budget=budget
    )
    curves = run(spec)
    assert same_bits([c.rows for c in curves], _per_trial_loop(spec, tech))


def _stderr(values):
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _scaling_stats_per_pc(spec, tech, ns, pcs):
    # reference: _scaling_stats before it summarised all pcs of one n at once,
    # with SE from its own pass over the gee_rows powers and scalar mean and
    # stderr calls per (pc, n), into a (4, pcs, ns) array
    if tech == "ofdm":
        block = draw_gain_rows(spec.seed, spec.trials, max(ns))
    else:
        block = stream_uniforms(spec.seed, spec.trials, 2 * max(ns) ** 2)
    stats = np.empty((4, len(pcs), len(ns)))
    for i, n in enumerate(ns):
        gains = block[:, :n] if tech == "ofdm" else svd_gains(matrices_from_uniforms(block, n, n))
        powers, ee = gee_rows(gains, np.array(pcs)[:, None] * (n if tech == "mimo" else 1), spec.budget)
        se = np.log1p(gains * powers).sum(axis=-1)
        for p, (ee_pc, se_pc) in enumerate(zip(ee, se)):
            stats[:, p, i] = (float(ee_pc.mean()), _stderr(ee_pc), float(se_pc.mean()), _stderr(se_pc))
    return stats


@pytest.mark.parametrize("budget", [None, 0.8])
@pytest.mark.parametrize("trials", [1, 2, 37, 500])
@pytest.mark.parametrize("tech", ["ofdm", "mimo"])
def test_scaling_stats_equal_the_per_pc_summary_bit_for_bit(tech, trials, budget):
    spec = default_spec(f"{tech}_scaling", seed=11, trials=trials, budget=budget)
    ns, pcs = list(spec.n_values), spec.pc_values
    stats = experiments._scaling_stats(spec, tech, ns, pcs)
    reference = _scaling_stats_per_pc(spec, tech, ns, pcs)
    assert same_bits(stats, reference)
    if trials == 1:
        assert not stats[[1, 3]].any()


def _per_n_gee_rows(spec, tech, ns, pcs, gains):
    # reference: one gee_rows call per n, with SE from its powers, as
    # (pcs, ns x trials) arrays; also whether any row was cut back to the cap
    ee, se, capped = [], [], False
    for n, g in zip(ns, gains):
        powers, objective = gee_rows(g, np.array(pcs)[:, None] * (n if tech == "mimo" else 1), spec.budget)
        ee.append(objective)
        se.append(np.log1p(g * powers).sum(axis=-1))
        if spec.budget is not None:
            capped |= bool(np.any(np.isclose(powers.sum(axis=-1), spec.budget, rtol=1e-12)))
    return np.concatenate(ee, axis=-1), np.concatenate(se, axis=-1), capped


@pytest.mark.parametrize("budget", [None, 0.5])
@pytest.mark.parametrize("pcs", [(1.0,), (0.5, 1.0, 3.0)])
@pytest.mark.parametrize("trials", [1, 7, 500])
@pytest.mark.parametrize("tech", ["ofdm", "mimo"])
def test_staged_sweep_equals_per_n_gee_rows_bit_for_bit(tech, trials, pcs, budget):
    spec = default_spec(f"{tech}_scaling", seed=5, trials=trials, pc_values=pcs, budget=budget)
    ns = list(spec.n_values)
    if tech == "ofdm":
        block = draw_gain_rows(spec.seed, trials, max(ns))
        gains = [block[:, :n] for n in ns]
    else:
        block = stream_uniforms(spec.seed, trials, 2 * max(ns) ** 2)
        gains = [svd_gains(matrices_from_uniforms(block, n, n)) for n in ns]
    ee, se = experiments._solve_trials(spec, tech, ns, pcs, gains)
    ref_ee, ref_se, capped = _per_n_gee_rows(spec, tech, ns, pcs, gains)
    assert ee.shape == se.shape == (len(pcs), len(ns) * trials)
    assert ee.tobytes() == ref_ee.tobytes()
    assert se.tobytes() == ref_se.tobytes()
    assert capped == (budget is not None)


@pytest.mark.parametrize("experiment, sweeps", [("ofdm_scaling", 1), ("mimo_scaling", 1), ("table1", 2)])
def test_one_lambert_call_per_scaling_sweep(monkeypatch, experiment, sweeps):
    # the level stage runs once over every n and pc of a sweep
    counts = {"lambert": 0, "sweeps": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(allocator, "lambert_w0_offset", counted("lambert", allocator.lambert_w0_offset))
    monkeypatch.setattr(experiments, "_scaling_stats", counted("sweeps", experiments._scaling_stats))
    run(default_spec(experiment, trials=3))
    assert counts == {"lambert": sweeps, "sweeps": sweeps}


def _zero_row(real, row):
    def draw(*args):
        block = real(*args).copy()
        block[row] = 0.0
        return block

    return draw


def test_scaling_errors_name_trial_n_pc_and_seed(monkeypatch):
    spec = default_spec("ofdm_scaling", seed=3, trials=5, n_values=(1, 4), pc_values=(2.0,))
    monkeypatch.setattr(experiments, "draw_gain_rows", _zero_row(experiments.draw_gain_rows, 2))
    with pytest.raises(InfeasibleError) as err:
        run(spec)
    message = str(err.value)
    assert "ofdm trial 2 (n=1, pc=2.0, seed=3)" in message
    assert "eepower ofdm-sweep --seed 3 --n 1 --pc 2.0 --trials 3" in message
    assert err.value.row == 2

    # a zero matrix has no positive eigen-channel gain
    monkeypatch.setattr(experiments, "stream_uniforms", _zero_row(experiments.stream_uniforms, 1))
    spec = default_spec("mimo_scaling", seed=4, trials=3, n_values=(2,), pc_values=(1.0,), budget=1.5)
    with pytest.raises(InfeasibleError) as err:
        run(spec)
    message = str(err.value)
    assert "mimo trial 1 (n=2, pc=1.0, seed=4)" in message
    assert "eepower mimo-sweep --seed 4 --n 2 --pc 1.0 --trials 2 --budget 1.5" in message
    assert err.value.row == 1


def test_scaling_error_of_one_call_over_all_pcs_names_the_first_pc(monkeypatch):
    # every pc of one n is one gee_rows call; a dead row fails at the first pc,
    # where the per-pc calls failed first
    spec = default_spec("ofdm_scaling", seed=3, trials=5, n_values=(2, 4), pc_values=(2.0, 0.5))
    monkeypatch.setattr(experiments, "draw_gain_rows", _zero_row(experiments.draw_gain_rows, 3))
    with pytest.raises(InfeasibleError) as err:
        run(spec)
    message = str(err.value)
    assert message.startswith("ofdm trial 3 (n=2, pc=2.0, seed=3): row 3: at least one gain must be positive")
    assert message.endswith("; replay: eepower ofdm-sweep --seed 3 --n 2 --pc 2.0 --trials 4")
    assert err.value.row == 3


def test_scaling_error_names_the_smallest_n_that_fails_alone(monkeypatch):
    # n = 2 fails the checks (pc times its gain 2 overflows) before n = 1
    # reaches its objective, which is not finite; a solve per n reports n = 1
    def draw(seed, trials, n):
        block = np.ones((trials, n))
        block[:, 1] = 2.0
        return block

    monkeypatch.setattr(experiments, "draw_gain_rows", draw)
    spec = default_spec("ofdm_scaling", seed=3, trials=2, n_values=(1, 2), pc_values=(1.79e308,))
    with pytest.raises(PowerControlError) as err:
        run(spec)
    assert str(err.value) == (
        "ofdm trial 0 (n=1, pc=1.79e+308, seed=3): row 0: the optimum is not finite; "
        "replay: eepower ofdm-sweep --seed 3 --n 1 --pc 1.79e+308 --trials 1"
    )
    # only the larger n fails: it is named, at its first failing trial
    def draw_one(seed, trials, n):
        block = np.ones((trials, n))
        block[1, 3] = 1e300
        return block

    monkeypatch.setattr(experiments, "draw_gain_rows", draw_one)
    spec = default_spec("ofdm_scaling", seed=3, trials=3, n_values=(1, 2, 4, 8), pc_values=(1e10,))
    with pytest.raises(PowerControlError) as err:
        run(spec)
    assert str(err.value).startswith("ofdm trial 1 (n=4, pc=10000000000.0, seed=3): row 1: circuit power times")
    assert err.value.row == 1


def test_fairness_gee_failure_names_trial_and_seed(monkeypatch):
    # the global EE of all trials is one gee_rows call; its failing row is
    # still reported as the trial, with the command that replays it
    monkeypatch.setattr(experiments, "draw_gain_rows", _zero_row(experiments.draw_gain_rows, 2))
    with pytest.raises(InfeasibleError) as err:
        run(default_spec("fairness", seed=5, trials=4))
    message = str(err.value)
    assert message.startswith("fairness trial 2 (seed=5, budget=2.0): row 2: at least one gain must be positive")
    assert message.endswith("; replay: eepower fairness --seed 5 --trials 3")
    assert err.value.row == 2
