"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them alongside the pytest dots)."""

import math
import time

import numpy as np
import pytest

from eepower.allocator import GeeProblem, LinkConfig, ee_of, eepa, gee_dinkelbach
from eepower.cli import main
from eepower.experiments import default_spec, fairness_medians, run
from eepower.metrics import trace_ee_se
from eepower.numerics import lambert_w0
from eepower.oracle import GridSpec, grid_argmax

INV_E = math.exp(-1.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_closed_form_vs_grid_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = GridSpec(0.0, 100.0, 1_000_001)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-2, 2)
        pc = 10.0 ** rng.uniform(-1, 1)
        cfg = LinkConfig(pc)
        p = eepa(gamma, cfg)
        assert p < 90.0
        oracle = grid_argmax("ee_siso", [gamma], [cfg], grid)
        worst_gap = max(worst_gap, abs(p - oracle.powers[0]))
        rhs = (1.0 + gamma * p) * math.log1p(gamma * p)
        worst_residual = max(worst_residual, abs(gamma * (pc + p) - rhs) / abs(rhs))
    elapsed = time.perf_counter() - started
    ok = worst_gap <= grid.step + 1e-12 and worst_residual <= 1e-8 and elapsed < 10.0
    report(
        1,
        "closed form vs oracle",
        ok,
        f"max power gap {worst_gap:.2e}, max stationarity residual {worst_residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_lambert_round_trip():
    started = time.perf_counter()
    xs = np.concatenate([[-INV_E], -INV_E + np.logspace(-15, np.log10(1e6 + INV_E), 10_000)])
    worst = 0.0
    for x in xs:
        w = lambert_w0(x)
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "lambert accuracy", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_no_tradeoff_curve():
    started = time.perf_counter()
    grid = np.logspace(-2, 2, 200)
    violations = 0
    for pc in (0.25, 0.5, 1.0, 2.0):
        _p, se, ee = trace_ee_se(LinkConfig(pc), grid)
        violations += int(np.sum(np.diff(se) <= 0.0)) + int(np.sum(np.diff(ee) <= 0.0))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 5.0
    report(3, "no EE-SE trade-off", ok, f"{violations} violations, {elapsed:.1f}s")


def test_criterion_4_pc_doubling_halves_ee():
    started = time.perf_counter()
    curves = run(default_spec("pc_sweep", pc_values=(1.0, 2.0)))
    ratio = curves[-1].column("ee_ratio")
    limit_err = abs(ratio[0] - 0.5)
    third = len(ratio) // 3
    mid = ratio[third : 2 * third]
    elapsed = time.perf_counter() - started
    ok = limit_err <= 1e-3 and np.all((mid >= 0.4) & (mid <= 0.65)) and elapsed < 5.0
    report(
        4,
        "pc doubling ratio",
        ok,
        f"limit error {limit_err:.1e}, mid-curve ratio in [{mid.min():.3f}, {mid.max():.3f}], {elapsed:.1f}s",
    )


def test_criterion_5_dinkelbach_vs_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    step = 1e-3
    worst_shortfall = 0.0
    worst_power_gap = 0.0
    for _ in range(50):
        gains = 10.0 ** rng.uniform(math.log10(0.3), math.log10(3.0), 2)
        pc = float(rng.uniform(0.5, 2.0))
        alloc = gee_dinkelbach(GeeProblem(gains, pc))
        top = max(2.0, 1.5 * float(alloc.powers.max()) + 0.5)
        steps = int(round(top / step)) + 1
        oracle = grid_argmax("gee", gains, [LinkConfig(pc)] * 2, GridSpec(0.0, top, steps))
        assert np.all(oracle.powers < top - step)  # optimum interior to the window
        worst_shortfall = max(worst_shortfall, oracle.objective - alloc.objective)
        worst_power_gap = max(worst_power_gap, float(np.max(np.abs(oracle.powers - alloc.powers))))
    elapsed = time.perf_counter() - started
    ok = worst_shortfall <= 2e-3 and worst_power_gap <= 2 * step and elapsed < 60.0
    report(
        5,
        "closed-form gee vs oracle",
        ok,
        f"max shortfall {worst_shortfall:.2e}, max power gap {worst_power_gap:.2e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def scaling_runs():
    started = time.perf_counter()
    ofdm = run(default_spec("ofdm_scaling", seed=1, trials=1000))
    mimo = run(default_spec("mimo_scaling", seed=1, trials=1000))
    return ofdm, mimo, time.perf_counter() - started


def _divided_second_differences(n, ee, stderr):
    slopes = np.diff(ee) / np.diff(n)
    d2 = np.diff(slopes) / (n[2:] - n[:-2])
    var = stderr**2
    dn = np.diff(n)
    var_d2 = (
        var[2:] / dn[1:] ** 2
        + var[1:-1] * (1.0 / dn[:-1] + 1.0 / dn[1:]) ** 2
        + var[:-2] / dn[:-1] ** 2
    ) / (n[2:] - n[:-2]) ** 2
    return d2, 3.0 * np.sqrt(var_d2)


def test_criterion_6_scaling_monotone_and_concave(scaling_runs):
    ofdm, mimo, elapsed = scaling_runs
    ok = elapsed < 600.0
    detail = [f"{elapsed:.0f}s"]
    for curve in ofdm:
        ee = curve.column("ee_mean")
        increasing = bool(np.all(np.diff(ee) > 0.0))
        ok = ok and increasing
        detail.append(f"{curve.label} increasing={increasing}")
    for curve in mimo:
        n = curve.column("n")
        ee = curve.column("ee_mean")
        increasing = bool(np.all(np.diff(ee) > 0.0))
        d2, bound = _divided_second_differences(n, ee, curve.column("ee_stderr"))
        concave = bool(np.all(d2 <= bound))
        ok = ok and increasing and concave
        detail.append(f"{curve.label} increasing={increasing} concave={concave}")
    report(6, "OFDM/MIMO scaling", ok, "; ".join(detail))


def test_criterion_7_dimension_gain_table():
    started = time.perf_counter()
    (curve,) = run(default_spec("table1", seed=1, trials=1000))
    ofdm = dict(zip(curve.column("n_ofdm"), curve.column("ofdm_ee_gain")))
    mimo = dict(zip(curve.column("n_mimo"), curve.column("mimo_ee_gain")))
    elapsed = time.perf_counter() - started
    checks = [
        1.5 <= ofdm[16.0] <= 4.5,
        2.5 <= ofdm[64.0] <= 7.5,
        1.0 <= mimo[4.0] <= 3.0,
        2.5 <= mimo[32.0] <= 7.5,
        all(g >= 1.0 for g in list(ofdm.values()) + list(mimo.values())),
        elapsed < 600.0,
    ]
    report(
        7,
        "dimension gain table",
        all(checks),
        f"ofdm {ofdm[16.0]:.2f}x/{ofdm[64.0]:.2f}x, mimo {mimo[4.0]:.2f}x/{mimo[32.0]:.2f}x, {elapsed:.0f}s",
    )


def test_criterion_8_fairness_ordering():
    started = time.perf_counter()
    curve, _summary = run(default_spec("fairness", seed=1, trials=200))
    med = fairness_medians(curve)
    ordering = med["wmee"] >= med["wpee"] >= med["wsee"] >= med["gee"]
    protects = bool(np.all(curve.column("min_ee_wmee") >= curve.column("min_ee_gee") - 1e-9))
    elapsed = time.perf_counter() - started
    ok = ordering and protects and elapsed < 120.0
    report(
        8,
        "fairness ordering",
        ok,
        f"medians gee={med['gee']:.3f} wsee={med['wsee']:.3f} wpee={med['wpee']:.3f} wmee={med['wmee']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    outputs = []
    for sub, extra in (
        ("siso-ee-se", ["--pc", "1,2"]),
        ("ofdm-sweep", ["--pc", "1", "--n", "1,4", "--trials", "25", "--seed", "42"]),
    ):
        out = tmp_path / sub
        args = [sub, *extra, "--out", str(out)]
        assert main(args) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(args) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        outputs.append(first == second)
    report(9, "CLI determinism", all(outputs), f"{len(outputs)} subcommands byte-identical")
