import math

import numpy as np
import pytest

from eepower import allocator
from eepower.allocator import (
    Allocation,
    GeeProblem,
    LinkConfig,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_dinkelbach_rows,
    se_of,
    water_level,
    wmee_maxmin,
    wpa,
    wpee_ascent,
    wsee_ascent,
)
from eepower.errors import InfeasibleError, NumericalError
from eepower.oracle import GridSpec, grid_argmax

E = math.e


def grid_best(f, lo, hi, step):
    # brute-force 1-D argmax, independent of any solver
    xs = np.arange(lo, hi + step / 2, step)
    vals = f(xs)
    k = int(np.argmax(vals))
    return xs[k], vals[k]


def test_se_of_values():
    assert se_of(1.0, 0.0) == 0.0
    assert se_of(1.0, E - 1.0) == pytest.approx(1.0, abs=1e-14)
    assert se_of(2.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-14)
    with pytest.raises(ValueError):
        se_of(1.0, -0.1)


def test_ee_of_values():
    cfg = LinkConfig(1.0)
    assert ee_of(1.0, 0.0, cfg) == 0.0
    assert ee_of(1.0, E - 1.0, cfg) == pytest.approx(1.0 / E, abs=1e-14)


def test_ee_of_grid_argmax_at_closed_form():
    cfg = LinkConfig(1.0)
    p_star, _ = grid_best(lambda p: np.log1p(p) / (1.0 + p), 0.0, 20.0, 1e-4)
    assert abs(p_star - (E - 1.0)) <= 1e-4 + 1e-12


def test_eepa_closed_form_values():
    assert eepa(1.0, LinkConfig(1.0)) == pytest.approx(E - 1.0, abs=1e-12)
    assert eepa(2.0, LinkConfig(0.5)) == pytest.approx((E - 1.0) / 2.0, abs=1e-12)
    assert eepa(1.0, LinkConfig(1.0, p_max=1.0)) == 1.0
    assert eepa(0.0, LinkConfig(1.0)) == 0.0


def test_eepa_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LinkConfig(0.0)
    with pytest.raises(ValueError):
        LinkConfig(-1.0)
    with pytest.raises(ValueError):
        eepa(-0.5, LinkConfig(1.0))


def test_eepa_stationarity_over_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(200):
        prod = 10.0 ** rng.uniform(-3, 3)
        gamma = 10.0 ** rng.uniform(-1.5, 1.5)
        pc = prod / gamma
        p = eepa(gamma, LinkConfig(pc))
        lhs = gamma * (pc + p)
        rhs = (1.0 + gamma * p) * math.log1p(gamma * p)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_eepa_vanishes_with_circuit_power():
    # closed form behaves like sqrt(2 pc / gamma) for small pc * gamma
    assert eepa(1e4, LinkConfig(1e-9)) < 1e-6
    for gamma in (0.1, 1.0, 10.0):
        p = eepa(gamma, LinkConfig(1e-9))
        assert p <= 1.01 * math.sqrt(2e-9 / gamma)


def test_ee_unimodal_around_eepa():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gamma = 10.0 ** rng.uniform(-1, 1)
        pc = 10.0 ** rng.uniform(-1, 1)
        cfg = LinkConfig(pc)
        p_star = eepa(gamma, cfg)
        up = [ee_of(gamma, p, cfg) for p in np.linspace(0.0, p_star, 33)]
        down = [ee_of(gamma, p, cfg) for p in np.linspace(p_star, 10 * p_star + 10, 33)]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b < a for a, b in zip(down, down[1:]))


def test_eepa_scale_covariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        gamma = 10.0 ** rng.uniform(-1, 2)
        pc = 10.0 ** rng.uniform(-1, 1)
        c = 10.0 ** rng.uniform(-1, 1)
        lhs = eepa(c * gamma, LinkConfig(pc / c)) * c
        rhs = eepa(gamma, LinkConfig(pc))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_wpa_symmetric():
    alloc = wpa([1.0, 1.0], 1.0)
    np.testing.assert_allclose(alloc.powers, [1.0, 1.0], atol=1e-9)


def test_wpa_cutoff_case():
    alloc = wpa([1.0, 2.0], 0.25)
    np.testing.assert_allclose(alloc.powers, [0.0, 0.5], atol=1e-9)


def test_wpa_budget_met_and_zero_below_cutoff():
    gains = np.array([0.05, 0.5, 1.0, 3.0])
    alloc = wpa(gains, 0.4)
    assert alloc.powers.mean() == pytest.approx(0.4, rel=1e-9)
    level = alloc.powers[-1] + 1.0 / gains[-1]
    assert np.all(alloc.powers[gains < 1.0 / level] == 0.0)
    assert wpa([0.0, 1.0, 2.0], 1.0).powers[0] == 0.0


def test_wpa_matches_grid_search_three_gains():
    gains = np.array([0.5, 1.0, 2.0])
    alloc = wpa(gains, 1.0)
    # exhaustive 3-D search over the mean-power simplex, step 0.01
    step = 0.01
    axis = np.arange(0.0, 3.0 + step / 2, step)
    best = (-1.0, None)
    for p0 in axis:
        for p1 in axis:
            p2 = 3.0 - p0 - p1
            if p2 < -1e-12:
                continue
            p2 = max(p2, 0.0)
            val = math.log1p(0.5 * p0) + math.log1p(p1) + math.log1p(2.0 * p2)
            if val > best[0]:
                best = (val, (p0, p1, p2))
    assert alloc.objective >= best[0] - 1e-3
    np.testing.assert_allclose(alloc.powers, best[1], atol=2.5 * step)


def test_wpa_rejects_degenerate():
    with pytest.raises(InfeasibleError):
        wpa([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        wpa([1.0], 0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_wpa_rejects_non_finite_budget(bad):
    with pytest.raises(ValueError, match="p_avg"):
        wpa([1.0, 2.0], bad)


def _level_by_bisection(gains, total):
    # independent reference: bisect on the monotone filled volume
    inv = np.array([1.0 / x if x > 0.0 else math.inf for x in gains])
    lo, hi = 0.0, float(inv[np.isfinite(inv)].min()) + total
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(0.0, mid - inv).sum() < total:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_water_level_matches_bisection_rowwise():
    rng = np.random.default_rng(8)
    gains = 10.0 ** rng.uniform(-3, 3, size=(40, 7))
    gains[::5, ::3] = 0.0
    totals = 10.0 ** rng.uniform(-3, 3, size=40)
    levels = water_level(gains, totals)
    assert levels.shape == (40,)
    for g, total, level in zip(gains, totals, levels):
        assert level == pytest.approx(_level_by_bisection(g, total), rel=1e-12)
        with np.errstate(divide="ignore"):
            filled = np.maximum(0.0, level - 1.0 / g).sum()
        assert filled == pytest.approx(total, rel=1e-12)
    # a scalar total is shared by all rows; one row of gains gives one level
    np.testing.assert_array_equal(water_level(gains, 2.0), water_level(gains, np.full(40, 2.0)))
    assert water_level([1.0, 2.0], 0.25) == pytest.approx(1.0 / 2.0 + 0.25, rel=1e-15)


def test_dinkelbach_single_dimension_equals_eepa():
    alloc = gee_dinkelbach(GeeProblem([1.0], 1.0), 1e-12)
    assert abs(alloc.powers[0] - (E - 1.0)) <= 1e-8
    assert alloc.objective == pytest.approx(1.0 / E, abs=1e-10)


def test_dinkelbach_symmetric_gains_closed_form():
    n, gamma, pc = 4, 1.5, 2.0
    alloc = gee_dinkelbach(GeeProblem([gamma] * n, pc), 1e-12)
    expected = eepa(gamma, LinkConfig(pc / n))
    np.testing.assert_allclose(alloc.powers, expected, atol=1e-8)
    # cross-check against a scalar grid over the symmetric power
    p_star, _ = grid_best(
        lambda p: n * np.log1p(gamma * p) / (pc + n * p), 0.0, 5.0, 1e-5
    )
    assert abs(alloc.powers[0] - p_star) <= 1e-4


def test_dinkelbach_two_gains_vs_grid(oracle_gee_two_gains):
    alloc = gee_dinkelbach(GeeProblem([1.0, 2.0], 1.0), 1e-12)
    best_powers, best_val = oracle_gee_two_gains
    np.testing.assert_allclose(alloc.powers, best_powers, atol=2e-3)
    assert alloc.objective >= best_val - 2e-3


@pytest.fixture(scope="module")
def oracle_gee_two_gains():
    # 2-D exhaustive search, step 1e-3 on [0, 3]
    axis = np.arange(0.0, 3.0 + 5e-4, 1e-3)
    best_val = -1.0
    best = None
    for p0 in axis:
        se0 = math.log1p(p0)
        vals = (se0 + np.log1p(2.0 * axis)) / (1.0 + p0 + axis)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best = (p0, axis[k])
    return np.array(best), best_val


def test_dinkelbach_budget_cap_binds():
    alloc = gee_dinkelbach(GeeProblem([1.0, 2.0], 1.0, p_max_total=0.5), 1e-12)
    assert alloc.powers.sum() == pytest.approx(0.5, rel=1e-9)
    # capped point must beat every feasible grid point
    axis = np.arange(0.0, 0.5 + 5e-4, 1e-3)
    best = -1.0
    for p0 in axis:
        grid = axis[axis <= 0.5 - p0 + 1e-12]
        vals = (math.log1p(p0) + np.log1p(2.0 * grid)) / (1.0 + p0 + grid)
        if vals.size:
            best = max(best, float(vals.max()))
    assert alloc.objective >= best - 2e-3


def test_dinkelbach_zero_gain_dimension_gets_no_power():
    alloc = gee_dinkelbach(GeeProblem([0.0, 1.0], 1.0), 1e-12)
    assert alloc.powers[0] == 0.0
    assert alloc.powers[1] > 0.0


def test_gee_problem_validation():
    with pytest.raises(InfeasibleError):
        GeeProblem([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        GeeProblem([1.0], 0.0)
    with pytest.raises(ValueError):
        gee_dinkelbach(GeeProblem([1.0], 1.0), 0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_gee_problem_rejects_non_finite_cap(bad):
    with pytest.raises(ValueError, match="p_max_total"):
        GeeProblem([1.0, 2.0], 1.0, p_max_total=bad)
    with pytest.raises(ValueError, match="p_max_total"):
        gee_dinkelbach_rows([[1.0, 2.0]], 1.0, 1e-12, p_max_total=bad)


@pytest.mark.parametrize("cap", [None, 0.3, 5.0])
@pytest.mark.parametrize("pc", [0.2, 3.0])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_dinkelbach_rows_equal_one_row_calls(cap, pc, n):
    rng = np.random.default_rng(31 + n)
    gains = 10.0 ** rng.uniform(-2, 2, size=(25, n))
    if n > 1:
        gains[3, 0] = 0.0
        gains[4, 1:] = 0.0
    powers, objective = gee_dinkelbach_rows(gains, pc, 1e-12, cap)
    assert powers.shape == (25, n) and objective.shape == (25,)
    for r in range(25):
        alone = gee_dinkelbach(GeeProblem(gains[r], pc, cap), 1e-12)
        assert np.all(powers[r] == alone.powers)
        assert objective[r] == alone.objective
        assert np.all(powers[r][gains[r] == 0.0] == 0.0)
        if cap is not None:
            assert powers[r].sum() <= cap * (1.0 + 1e-12)


def test_dinkelbach_rows_name_the_failing_row(monkeypatch):
    gains = np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="row 2") as err:
        gee_dinkelbach_rows(gains, 1.0, 1e-12)
    assert err.value.row == 2
    monkeypatch.setattr(allocator, "_DINKELBACH_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="row 0") as err:
        gee_dinkelbach_rows(gains[:2], 1.0, 1e-12)
    assert err.value.row == 0


def test_dinkelbach_stop_is_relative_at_tiny_gain():
    # at g pc = 1e-15 the optimum is about sqrt(2 pc / g); the rate there is
    # about 4.5e-8 nats, so a stop on an absolute 1e-12 residual ends far off
    alloc = gee_dinkelbach(GeeProblem([1e-15], 1.0), 1e-12)
    assert alloc.powers[0] == pytest.approx(math.sqrt(2.0 / 1e-15), rel=1e-5)


def test_wmee_identical_links_ample_budget():
    cfgs = [LinkConfig(1.0), LinkConfig(1.0)]
    alloc = wmee_maxmin([1.0, 1.0], cfgs, 100.0)
    np.testing.assert_allclose(alloc.powers, E - 1.0, atol=1e-6)
    assert alloc.objective == pytest.approx(1.0 / E, abs=1e-9)


def test_wmee_identical_links_binding_budget():
    cfgs = [LinkConfig(1.0), LinkConfig(1.0)]
    alloc = wmee_maxmin([1.0, 1.0], cfgs, 1.0)
    np.testing.assert_allclose(alloc.powers, [0.5, 0.5], atol=1e-6)


def test_wmee_vs_grid_search():
    gains = [0.5, 2.0]
    cfgs = [LinkConfig(1.0), LinkConfig(1.0)]
    alloc = wmee_maxmin(gains, cfgs, 2.0)
    step = 5e-3
    axis = np.arange(0.0, 2.0 + step / 2, step)
    best = -1.0
    for p0 in axis:
        grid = axis[axis <= 2.0 - p0 + 1e-12]
        ee0 = math.log1p(0.5 * p0) / (1.0 + p0)
        vals = np.minimum(ee0, np.log1p(2.0 * grid) / (1.0 + grid))
        if vals.size:
            best = max(best, float(vals.max()))
    assert abs(alloc.objective - best) <= 1e-2
    assert alloc.objective >= best - 1e-2


def test_wmee_equalizes_weighted_ee_when_budget_binds():
    # gains over twelve decades: the per-link power at a common level must be
    # exact relative to the level, not to an absolute power tolerance
    rng = np.random.default_rng(21)
    binding = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        gains = 10.0 ** rng.uniform(-6, 6, n)
        cfgs = [LinkConfig(10.0 ** rng.uniform(-1, 1), weight=rng.uniform(0.5, 2.0)) for _ in range(n)]
        budget = 10.0 ** rng.uniform(-3, 1) * n
        alloc = wmee_maxmin(gains, cfgs, budget)
        assert alloc.powers.sum() <= budget * (1 + 1e-12)
        top = min(c.weight * ee_of(g, eepa(g, c), c) for g, c in zip(gains, cfgs))
        if alloc.objective == top:
            continue
        binding += 1
        levels = [cfgs[i].weight * ee_of(gains[i], alloc.powers[i], cfgs[i]) for i in range(n)]
        assert max(levels) - min(levels) <= 1e-9 * max(levels)
        assert min(levels) == pytest.approx(alloc.objective, rel=1e-9)
    assert binding >= 200


def test_wmee_zero_gain_link_yields_zero_objective():
    alloc = wmee_maxmin([0.0, 1.0], [LinkConfig(1.0)] * 2, 1.0)
    assert alloc.objective == 0.0
    np.testing.assert_array_equal(alloc.powers, 0.0)


def test_ascent_unconstrained_budget_returns_per_link_optima():
    gains = [1.0, 2.0, 0.7]
    cfgs = [LinkConfig(1.0), LinkConfig(0.5), LinkConfig(2.0)]
    expected = [eepa(g, c) for g, c in zip(gains, cfgs)]
    for solver in (wsee_ascent, wpee_ascent):
        alloc = solver(gains, cfgs, 1e6)
        np.testing.assert_allclose(alloc.powers, expected, atol=1e-6)


def test_ascent_single_link_matches_eepa():
    alloc = wsee_ascent([1.0], [LinkConfig(1.0)], 10.0)
    assert alloc.powers[0] == pytest.approx(E - 1.0, abs=1e-6)
    alloc = wpee_ascent([1.0], [LinkConfig(1.0)], 10.0)
    assert alloc.powers[0] == pytest.approx(E - 1.0, abs=1e-6)


def _two_link_grid(objective, gains, cfgs, budget, step=0.01, cap0=math.inf):
    axis = np.arange(0.0, budget + step / 2, step)
    best = -np.inf
    for p0 in axis[axis <= cap0]:
        grid = axis[axis <= budget - p0 + 1e-12]
        t0 = cfgs[0].weight * math.log1p(gains[0] * p0) / (cfgs[0].pc + p0)
        t1 = cfgs[1].weight * np.log1p(gains[1] * grid) / (cfgs[1].pc + grid)
        vals = t0 + t1 if objective == "sum" else t0 * t1
        if vals.size:
            best = max(best, float(vals.max()))
    return best


def test_wsee_beats_grid_on_reference_instance():
    gains = [1.0, 2.0]
    cfgs = [LinkConfig(1.0), LinkConfig(0.5)]
    alloc = wsee_ascent(gains, cfgs, 1.0)
    best = _two_link_grid("sum", gains, cfgs, 1.0)
    assert alloc.objective >= best - 1e-3
    assert alloc.powers.sum() <= 1.0 + 1e-9


def test_wpee_beats_grid_on_reference_instance():
    gains = [1.0, 2.0]
    cfgs = [LinkConfig(1.0), LinkConfig(0.5)]
    alloc = wpee_ascent(gains, cfgs, 1.0)
    best = _two_link_grid("product", gains, cfgs, 1.0)
    assert alloc.objective >= best - 1e-3
    assert np.all(alloc.powers > 0.0)


@pytest.mark.parametrize("name, solver", [("wsee", wsee_ascent), ("wpee", wpee_ascent)])
def test_ascent_capped_link_binding_budget_matches_grid(name, solver):
    # link 0 is capped at 0.8 W, below its EE peak of 1.72 W; the capped peaks
    # (0.8 + 0.86 W) exceed the 1 W budget, and the optimum leaves the cap
    # slack, so the grid oracle (which knows no caps) gives the optimum
    gains = [1.0, 2.0]
    cfgs = [LinkConfig(1.0, p_max=0.8), LinkConfig(0.5)]
    alloc = solver(gains, cfgs, 1.0)
    oracle = grid_argmax(name, gains, cfgs, GridSpec(0.0, 1.0, 1001), budget=1.0)
    assert alloc.objective >= oracle.objective - 1e-9
    np.testing.assert_allclose(alloc.powers, oracle.powers, atol=1e-3)
    assert alloc.powers.sum() <= 1.0 + 1e-9
    assert alloc.powers[0] <= 0.8


@pytest.mark.parametrize("objective, solver", [("sum", wsee_ascent), ("product", wpee_ascent)])
def test_ascent_binding_cap_beats_capped_grid(objective, solver):
    # without its cap link 0 would take 0.48 W (sum) or 0.59 W (product)
    gains = [1.0, 2.0]
    cfgs = [LinkConfig(1.0, p_max=0.45), LinkConfig(0.5)]
    alloc = solver(gains, cfgs, 1.0)
    assert alloc.powers[0] == pytest.approx(0.45, rel=1e-12)
    assert alloc.powers[0] <= 0.45
    assert alloc.objective >= _two_link_grid(objective, gains, cfgs, 1.0, step=1e-3, cap0=0.45) - 1e-9


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("solver", [wsee_ascent, wpee_ascent, wmee_maxmin])
def test_budgeted_solvers_reject_bad_budget(solver, bad):
    with pytest.raises(ValueError, match="p_total"):
        solver([1.0, 2.0], [LinkConfig(1.0)] * 2, bad)


def test_wpee_rejects_zero_gain():
    with pytest.raises(InfeasibleError):
        wpee_ascent([0.0, 1.0], [LinkConfig(1.0)] * 2, 1.0)


def test_link_mismatch_raises():
    with pytest.raises(ValueError):
        wsee_ascent([1.0, 2.0], [LinkConfig(1.0)], 1.0)
    with pytest.raises(ValueError):
        wmee_maxmin([1.0], [LinkConfig(1.0)], 0.0)


def test_allocation_powers_are_arrays():
    alloc = Allocation([0.1, 0.2], 1.0)
    assert isinstance(alloc.powers, np.ndarray)
