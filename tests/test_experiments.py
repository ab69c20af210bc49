import math

import numpy as np
import pytest

from eepower import experiments
from eepower.allocator import GeeProblem, LinkConfig, ee_of, eepa, gee_dinkelbach
from eepower.channel import draw_gains, draw_matrix
from eepower.errors import InfeasibleError
from eepower.numerics import svd_gains
from eepower.experiments import (
    CurveSet,
    ExperimentSpec,
    default_spec,
    fairness_medians,
    run,
    run_siso_profiles,
)


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
    assert table.rows == expected.rows


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_spec_rejects_non_finite_budget_and_pc(bad):
    with pytest.raises(ValueError, match="budget"):
        default_spec("ofdm_scaling", budget=bad)
    with pytest.raises(ValueError, match="pc values"):
        default_spec("ofdm_scaling", pc_values=(1.0, bad))


def test_curveset_validation():
    c = CurveSet("bad", [("x", "1"), ("y", "1")], [[1.0, 2.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        c.validate()
    c = CurveSet("ragged", [("x", "1"), ("y", "1")], [[1.0, 2.0], [2.0]])
    with pytest.raises(ValueError):
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
    cfg = LinkConfig(1.0)
    direct = []
    for t in range(spec.trials):
        g = draw_gains(spec.seed, 1, stream=t)[0]
        direct.append(ee_of(g, eepa(g, cfg), cfg))
    assert abs(ee[0] - np.mean(direct)) < 1e-8


def test_mimo_scaling_monotone_and_reduces_to_siso():
    spec = default_spec("mimo_scaling", seed=3, trials=80, n_values=(1, 2, 4), pc_values=(1.0,))
    (curve,) = run(spec)
    ee = curve.column("ee_mean")
    assert np.all(np.diff(ee) > 0)
    cfg = LinkConfig(1.0)
    direct = []
    for t in range(spec.trials):
        g = abs(draw_matrix(spec.seed, 1, 1, stream=t)[0, 0]) ** 2
        direct.append(ee_of(g, eepa(g, cfg), cfg))
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
    assert summary.rows == [[40.0, med["gee"], med["wsee"], med["wpee"], med["wmee"]]]


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
    assert a.rows == b.rows
    spec = default_spec("fairness", seed=11, trials=10)
    a = run(spec)[0]
    b = run(spec)[0]
    assert a.rows == b.rows


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
    assert [c.rows for c in curves] == _per_trial_loop(spec, tech)


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


def test_fairness_gee_failure_names_trial_and_seed(monkeypatch):
    # the global EE of all trials is one gee_rows call; its failing row is
    # still reported as the trial, with the command that replays it
    def dead_trial_2(seed, n, stream):
        return np.zeros(n) if stream == 2 else draw_gains(seed, n, stream)

    monkeypatch.setattr(experiments, "draw_gains", dead_trial_2)
    with pytest.raises(InfeasibleError) as err:
        run(default_spec("fairness", seed=5, trials=4))
    message = str(err.value)
    assert message.startswith("fairness trial 2 (seed=5, budget=2.0): row 2: at least one gain must be positive")
    assert message.endswith("; replay: eepower fairness --seed 5 --trials 3")
    assert err.value.row == 2
