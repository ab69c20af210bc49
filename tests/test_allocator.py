import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eepower import allocator
from eepower.allocator import (
    Allocation,
    GeeProblem,
    LinkConfig,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_rows,
    se_of,
    water_level,
    wmee_maxmin,
    wmee_rows,
    wpa,
    wpee_ascent,
    wsee_ascent,
)
from eepower.errors import InfeasibleError
from eepower.metrics import evaluate
from eepower.numerics import lambert_w0
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


# (g, eepa(g, LinkConfig(1.0))) for g pc from 1e-15 to 1e15: the closed form
# (exp(1 + W((g pc - 1) / e)) - 1) / g, computed once with mpmath at 80 digits
EEPA_PINS = [
    (1e-15, 44721359.883329124),
    (1e-13, 4472136.2883329002),
    (1e-11, 447213.92883316706),
    (1e-09, 44721.692882086881),
    (1e-07, 4472.4692759117942),
    (1e-05, 447.546804755203),
    (0.001, 45.053465204434239),
    (0.1, 4.7943271743322435),
    (10.0, 0.71743646677248095),
    (1000.0, 0.22499245278158663),
    (100000.0, 0.11923070100485852),
    (10000000.0, 0.079456115914256139),
    (1000000000.0, 0.059184980184230442),
    (100000000000.0, 0.047012171345452852),
    (10000000000000.0, 0.038929292014180571),
    (1000000000000000.0, 0.033186042080938965),
]


def test_eepa_matches_mpmath_pins():
    gains, expected = np.array(EEPA_PINS).T
    np.testing.assert_allclose(eepa(gains, LinkConfig(1.0)), expected, rtol=1e-12, atol=0.0)
    for g, want in EEPA_PINS:
        assert eepa(g, LinkConfig(1.0)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eepa_keeps_the_branch_point_offset():
    # (g pc - 1) / e rounds onto -1/e here, which gave 0 W; the optimum is
    # about sqrt(2 pc / g) (mpmath: 1.4142135623730953e15)
    assert eepa(1e-30, LinkConfig(1.0)) == pytest.approx(1.4142135623730953e15, rel=1e-12, abs=0.0)


def test_eepa_takes_a_gain_array():
    gains = np.array([[0.0, 1.0], [2.0, 1e-30]])
    p = eepa(gains, LinkConfig(0.5, p_max=1.0))
    assert p.shape == (2, 2)
    for g, want in zip(gains.ravel(), p.ravel()):
        assert eepa(float(g), LinkConfig(0.5, p_max=1.0)) == want


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
    # gains s g with circuit power pc / s give the powers eepa(g, pc) / s
    rng = np.random.default_rng(5)
    for _ in range(50):
        gamma = 10.0 ** rng.uniform(-1, 2)
        pc = 10.0 ** rng.uniform(-1, 1)
        c = 10.0 ** rng.uniform(-6, 6)
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
    alloc = gee_dinkelbach(GeeProblem([1.0], 1.0))
    assert abs(alloc.powers[0] - (E - 1.0)) <= 1e-8
    assert alloc.objective == pytest.approx(1.0 / E, abs=1e-10)


def test_dinkelbach_symmetric_gains_closed_form():
    n, gamma, pc = 4, 1.5, 2.0
    alloc = gee_dinkelbach(GeeProblem([gamma] * n, pc))
    expected = eepa(gamma, LinkConfig(pc / n))
    np.testing.assert_allclose(alloc.powers, expected, atol=1e-8)
    # cross-check against a scalar grid over the symmetric power
    p_star, _ = grid_best(
        lambda p: n * np.log1p(gamma * p) / (pc + n * p), 0.0, 5.0, 1e-5
    )
    assert abs(alloc.powers[0] - p_star) <= 1e-4


def test_dinkelbach_two_gains_vs_grid(oracle_gee_two_gains):
    alloc = gee_dinkelbach(GeeProblem([1.0, 2.0], 1.0))
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
    alloc = gee_dinkelbach(GeeProblem([1.0, 2.0], 1.0, p_max_total=0.5))
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
    alloc = gee_dinkelbach(GeeProblem([0.0, 1.0], 1.0))
    assert alloc.powers[0] == 0.0
    assert alloc.powers[1] > 0.0


def test_gee_problem_validation():
    # GeeProblem checks only the shape; gee_rows checks the values when solving
    with pytest.raises(ValueError, match="1-D"):
        GeeProblem([[1.0, 2.0]], 1.0)
    with pytest.raises(InfeasibleError, match="^row 0: at least one gain must be positive$"):
        gee_dinkelbach(GeeProblem([0.0, 0.0], 1.0))
    with pytest.raises(ValueError, match="circuit power must be positive and finite, got 0.0"):
        gee_dinkelbach(GeeProblem([1.0], 0.0))
    with pytest.raises(ValueError, match="gains must be finite and non-negative"):
        gee_dinkelbach(GeeProblem([1.0, -2.0], 1.0))
    with pytest.raises(ValueError, match="circuit power"):
        gee_rows([[1.0], [2.0]], [1.0, math.nan])


def test_gee_rows_names_the_first_bad_per_row_circuit_power():
    with pytest.raises(ValueError, match=r"^row 1: circuit power must be positive and finite, got nan$"):
        gee_rows([[1.0], [2.0]], [1.0, math.nan])
    pcs = np.ones(3000)
    pcs[[1234, 2999]] = -1.0
    with pytest.raises(ValueError, match=r"^row 1234: circuit power must be positive and finite, got -1.0$"):
        gee_rows(np.ones((3000, 2)), pcs)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_gee_problem_rejects_non_finite_cap(bad):
    with pytest.raises(ValueError, match="p_max_total"):
        gee_dinkelbach(GeeProblem([1.0, 2.0], 1.0, p_max_total=bad))
    with pytest.raises(ValueError, match="p_max_total"):
        gee_rows([[1.0, 2.0]], 1.0, p_max_total=bad)


@pytest.mark.parametrize("cap", [None, 0.3, 5.0])
@pytest.mark.parametrize("pc", [0.2, 3.0, "per-row"])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_dinkelbach_rows_equal_one_row_calls(cap, pc, n):
    rng = np.random.default_rng(31 + n)
    gains = 10.0 ** rng.uniform(-2, 2, size=(25, n))
    if n > 1:
        gains[3, 0] = 0.0
        gains[4, 1:] = 0.0
    pcs = 10.0 ** rng.uniform(-1, 1, size=25) if pc == "per-row" else np.full(25, pc)
    powers, objective = gee_rows(gains, pcs if pc == "per-row" else pc, cap)
    assert powers.shape == (25, n) and objective.shape == (25,)
    for r in range(25):
        alone = gee_dinkelbach(GeeProblem(gains[r], pcs[r], cap))
        assert np.all(powers[r] == alone.powers)
        assert objective[r] == alone.objective
        assert np.all(powers[r][gains[r] == 0.0] == 0.0)
        if cap is not None:
            assert powers[r].sum() <= cap * (1.0 + 1e-12)


def test_dinkelbach_rows_name_the_failing_row():
    gains = np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="row 2") as err:
        gee_rows(gains, 1.0)
    assert err.value.row == 2


def dinkelbach_reference(gains, pc, cap=None):
    """The iterative GEE solver that gee_rows replaced, kept as a reference:
    Dinkelbach iteration with one price eta per row. At price eta the
    subproblem is water-filling at level 1/eta (cut back to the cap-saturating
    level when that overshoots the cap); eta is then refreshed to the achieved
    ratio, until the residual R - eta (pc + sum p) is at most 1e-12 R."""
    g = np.asarray(gains, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / g
    # level of the first subproblem (price zero)
    first = 1e3 / np.where(g > 0.0, g, np.inf).min(axis=1) if cap is None else water_level(g, cap)
    powers = np.empty_like(g)
    objective = np.empty(g.shape[0])
    rows = np.arange(g.shape[0])
    g_w, inv_w, eta = g, inv, np.zeros(g.shape[0])
    for _ in range(1000):
        level = first[rows]
        priced = eta > 0.0
        level[priced] = 1.0 / eta[priced]
        p = np.maximum(0.0, level[:, None] - inv_w)
        if cap is not None:
            over = p.sum(axis=1) > cap * (1.0 + 1e-12)
            p[over] = np.maximum(0.0, first[rows[over], None] - inv_w[over])
        rate = np.log1p(g_w * p).sum(axis=1)
        total = pc + p.sum(axis=1)
        done = rate - eta * total <= 1e-12 * rate
        powers[rows[done]] = p[done]
        objective[rows[done]] = rate[done] / total[done]
        if done.all():
            return powers, objective
        going = ~done
        rows, g_w, inv_w, eta = rows[going], g_w[going], inv_w[going], (rate / total)[going]
    raise AssertionError("reference Dinkelbach did not converge")


@st.composite
def gee_instances(draw):
    n = draw(st.integers(1, 64))
    gains = 10.0 ** np.array(draw(st.lists(st.floats(-15.0, 15.0), min_size=n, max_size=n)))
    pc = 10.0 ** draw(st.floats(-3.0, 3.0))
    cap = draw(st.none() | st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    return gains, pc, cap


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gee_instances())
@example((np.array([0.0, 1e-15, 1.0]), 1e-3, None))
@example((np.array([2.0, 0.0, 2.0, 2.0]), 1.0, 0.5))
def test_gee_rows_matches_the_dinkelbach_reference(case):
    gains, pc, cap = case
    powers, objective = gee_rows(gains[None, :], pc, cap)
    ref_powers, ref_objective = dinkelbach_reference(gains[None, :], pc, cap)
    assert objective[0] == pytest.approx(ref_objective[0], rel=1e-14)
    assert np.all(powers >= 0.0) and np.all(powers[0][gains == 0.0] == 0.0)
    if cap is not None:
        assert powers.sum() <= cap * (1.0 + 1e-12)


def test_gee_rows_single_dimension_equals_eepa():
    # at one link the closed form is eepa's, for g pc from 1e-15 to 1e15
    products = np.logspace(-15, 15, 301)
    for pc in (1e-2, 1.0, 1e2):
        gains = products / pc
        powers, _ = gee_rows(gains[:, None], pc)
        np.testing.assert_allclose(powers[:, 0], eepa(gains, LinkConfig(pc)), rtol=1e-13, atol=0.0)


# gain shapes of the rate pins: one link; a pair of near-equal floors that
# share the water at tiny g pc; a zero gain and spread floors
GEE_RATE_SHAPES = ((1.0,), (1.0, 0.9999999, 0.7, 0.2), (1.0, 0.999, 0.5, 1e-3, 0.0))
# (exponent e, shape index, optimal rate in nats) for gains 10**e * shape at
# pc = 1: the rate sum ln(w / s_i) over the active floors at the exact EE
# water level w, computed once with mpmath at 60 digits
GEE_RATE_PINS = [
    (-12, 0, 1.4142128957068605e-06),
    (-12, 1, 1.9974977202384437e-06),
    (-12, 2, 1.4142128957068605e-06),
    (-9, 0, 4.472069289699367e-05),
    (-9, 1, 6.32448059099235e-05),
    (-9, 2, 4.472069289699367e-05),
    (-6, 0, 0.001413547327508972),
    (-6, 1, 0.0019993335862646924),
    (-6, 2, 0.001730684848363777),
    (-3, 0, 0.04406804698305576),
    (-3, 1, 0.06258839100749643),
    (-3, 2, 0.06256514876285017),
    (0, 0, 1.0),
    (0, 1, 1.8272946623186934),
    (0, 2, 1.605862772879261),
    (3, 0, 5.4205016039429275),
    (3, 1, 15.769130732271254),
    (3, 2, 13.084185779686596),
    (6, 0, 11.467257505719829),
    (6, 1, 39.066868492609636),
    (6, 2, 34.04529671667377),
    (9, 0, 17.896178371455584),
    (9, 1, 64.51536139691908),
    (9, 2, 59.244109494951786),
    (12, 0, 24.47508161419619),
    (12, 1, 90.70779629755744),
    (12, 2, 85.3282097412002),
    (15, 0, 31.133150484201245),
    (15, 1, 117.26989880017655),
    (15, 2, 111.83094395203564),
]


@pytest.mark.parametrize("exponent, shape, exact", GEE_RATE_PINS)
def test_gee_rate_is_no_worse_than_the_dinkelbach_reference(exponent, shape, exact):
    # the Dinkelbach stop leaves up to 4e-7 relative rate error at g pc =
    # 1e-12; the closed form is at least as close everywhere, up to 4 ulp
    gains = 10.0 ** exponent * np.array(GEE_RATE_SHAPES[shape])
    powers, _ = gee_rows(gains[None, :], 1.0)
    ref_powers, _ = dinkelbach_reference(gains[None, :], 1.0)
    error = abs(float(np.log1p(gains * powers[0]).sum()) - exact) / exact
    ref_error = abs(float(np.log1p(gains * ref_powers[0]).sum()) - exact) / exact
    assert error <= max(ref_error, 4 * np.finfo(float).eps)


def test_dinkelbach_stop_is_relative_at_tiny_gain():
    # at g pc = 1e-15 the optimum is about sqrt(2 pc / g) and the rate about
    # 4.5e-8 nats, so an absolute accuracy of 1e-12 would end far off
    alloc = gee_dinkelbach(GeeProblem([1e-15], 1.0))
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


def test_identical_links_fully_fair_under_every_solver():
    # equal gains and circuit powers: each of the four objectives gives every
    # link the same EE, so Jain's index is 1, whether the budget binds or not
    for links in (2, 3, 4):
        gains = np.ones(links)
        cfgs = [LinkConfig(1.0)] * links
        for budget in (2.0, 100.0):
            solved = [
                gee_dinkelbach(GeeProblem(gains, float(links), budget)),
                wsee_ascent(gains, cfgs, budget),
                wpee_ascent(gains, cfgs, budget),
                wmee_maxmin(gains, cfgs, budget),
            ]
            for alloc in solved:
                assert evaluate(gains, cfgs, alloc.powers).jain == pytest.approx(1.0, abs=1e-6)


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


def wmee_reference(gains, cfgs, p_total):
    """The per-link max-min solver that wmee_rows replaced, kept as a
    reference: bisection on the common level t with each link's power at t
    from the scalar Lambert W (`rising_power_reference`). Returns (powers,
    level)."""
    g = np.asarray(gains, dtype=float)
    n = g.size
    peaks = np.array([eepa(g[i], cfgs[i]) for i in range(n)])
    tops = np.array([cfgs[i].weight * ee_of(g[i], peaks[i], cfgs[i]) for i in range(n)])
    t_hi = float(tops.min())
    if t_hi <= 0.0:
        return np.zeros(n), 0.0

    def powers_at(t):
        if t <= 0.0:
            return np.zeros(n)
        return np.array([rising_power_reference(g[i], cfgs[i], t, peaks[i]) for i in range(n)])

    p_hi = powers_at(t_hi)
    if p_hi.sum() <= p_total:
        return p_hi, t_hi
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if powers_at(mid).sum() <= p_total:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * t_hi:
            break
    return powers_at(lo), lo


def rising_power_reference(gamma, cfg, t, peak):
    """Smallest p with weight ln(1 + gamma p) = t (pc + p), clipped to [0,
    peak]: x = 1 + gamma p = -W0(-c e^(a pc - c)) / c with a = t / weight and
    c = a / gamma, then one guarded Newton step on log1p(y) = a pc + c y."""
    a = t / cfg.weight
    c = a / gamma
    y = -lambert_w0(-c * math.exp(a * cfg.pc - c)) / c - 1.0
    slope = 1.0 / (1.0 + y) - c
    if slope > 0.0:
        step = (math.log1p(y) - a * cfg.pc - c * y) / slope
        if abs(step) <= 1e-12 * (1.0 + y):
            y -= step
    return min(max(y / gamma, 0.0), peak)


@st.composite
def wmee_batches(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4))
    exponent = st.floats(-6.0, 6.0)
    gains = 10.0 ** np.array([[draw(exponent) for _ in range(n)] for _ in range(rows)])
    if draw(st.booleans()):
        gains[draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))] = 0.0
    pc = 10.0 ** np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(rows)])
    weight = np.array([[draw(st.floats(0.5, 2.0)) for _ in range(n)] for _ in range(rows)])
    cap = 10.0 ** np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(n)] for _ in range(rows)])
    uncapped = np.array([[draw(st.booleans()) for _ in range(n)] for _ in range(rows)])
    cap[uncapped] = math.inf
    budget = 10.0 ** draw(st.floats(-3.0, 1.0)) * n
    return gains, pc, weight, cap, budget


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(wmee_batches())
@example((np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones((2, 2)), np.ones((2, 2)), np.full((2, 2), math.inf), 1.0))
def test_wmee_rows_match_the_per_link_reference(case):
    gains, pc, weight, cap, budget = case
    powers, level = wmee_rows(gains, pc, weight, cap, budget)
    assert powers.shape == gains.shape and level.shape == (gains.shape[0],)
    for r in range(gains.shape[0]):
        alone_powers, alone_level = wmee_rows(gains[r : r + 1], pc[r], weight[r], cap[r], budget)
        np.testing.assert_array_equal(alone_powers[0], powers[r])
        assert alone_level[0] == level[r]
        assert powers[r].sum() <= budget * (1.0 + 1e-12)
        if np.any(gains[r] == 0.0):
            assert level[r] == 0.0 and np.all(powers[r] == 0.0)
            continue
        cfgs = [LinkConfig(*link) for link in zip(pc[r], [None if math.isinf(c) else c for c in cap[r]], weight[r])]
        _ref_powers, ref_level = wmee_reference(gains[r], cfgs, budget)
        assert level[r] == pytest.approx(ref_level, rel=1e-12, abs=0.0)


def test_wmee_rows_name_the_first_bad_row():
    gains = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, math.nan]])
    with pytest.raises(ValueError, match="row 1: "):
        wmee_rows(gains, 1.0, 1.0, math.inf, 1.0)
    with pytest.raises(ValueError, match="row 0: .*\\[1. 0.\\]"):
        wmee_rows(gains[:1], 1.0, [[1.0, 0.0]], math.inf, 1.0)
    with pytest.raises(ValueError, match="budget"):
        wmee_rows(gains[:1], 1.0, 1.0, math.inf, 0.0)


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


def reference_budget_ascent(gains, cfgs, p_total, log_terms):
    """The sum/product ascent evaluated through ee_of on numpy arrays: every
    term is w * ee_of(g, max(p, 0), cfg), the scan is np.linspace and its best
    point np.argmax. Objective sums run left to right from link 0 (what `sum`
    computes before Python 3.12, which compensates sums of Python floats)."""
    g, cfgs = allocator._check_links(gains, cfgs, p_total)
    if log_terms and np.any(g == 0.0):
        raise InfeasibleError("product objective is degenerate when a link has zero gain")
    n = g.size
    peaks = np.array([eepa(g[i], cfgs[i]) for i in range(n)])
    caps = np.array([c.p_max if c.p_max is not None else math.inf for c in cfgs])

    def term(i, p):
        v = cfgs[i].weight * ee_of(g[i], max(p, 0.0), cfgs[i])
        if log_terms:
            return math.log(v) if v > 0.0 else -math.inf
        return v

    def total(p):
        s = 0
        for i in range(n):
            s = s + term(i, p[i])
        return s

    p = np.minimum(peaks, caps)
    s = float(p.sum())
    if s <= p_total:
        obj = total(p)
        return Allocation(p, math.exp(obj) if log_terms else obj)
    p *= p_total / s
    obj = total(p)
    for _ in range(500):
        for i in range(n):
            for j in range(i + 1, n):
                t_lo = max(-p[i], p[j] - caps[j])
                t_hi = min(p[j], caps[i] - p[i])
                if t_hi - t_lo <= 1e-12:
                    continue

                def shifted(t, i=i, j=j):
                    return term(i, p[i] + t) + term(j, p[j] - t)

                ts = np.linspace(t_lo, t_hi, 33)
                vals = [shifted(t) for t in ts]
                k = int(np.argmax(vals))
                t_star, best = allocator._golden_max(shifted, ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)])
                if best > term(i, p[i]) + term(j, p[j]):
                    p[i] += t_star
                    p[j] -= t_star
        new = total(p)
        if new - obj <= 1e-9:
            obj = max(obj, new)
            break
        obj = new
    p = np.maximum(p, 0.0)
    return Allocation(p, math.exp(obj) if log_terms else obj)


@st.composite
def ascent_instances(draw):
    log_terms = draw(st.booleans())
    n = draw(st.integers(2, 5))
    gains = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    if not log_terms and draw(st.booleans()):
        gains[draw(st.integers(0, n - 1))] = 0.0
    cfgs = []
    for g in gains:
        pc = 10.0 ** draw(st.floats(-1.0, 1.0))
        peak = eepa(g, LinkConfig(pc))
        # some links capped below their EE peak
        cap = draw(st.none() | st.floats(0.2, 0.95).map(lambda f: f * peak)) if peak > 0.0 else None
        cfgs.append(LinkConfig(pc, cap, draw(st.floats(0.5, 2.0))))
    capped_peaks = sum(min(eepa(g, c), c.p_max or math.inf) for g, c in zip(gains, cfgs))
    # binding budgets run the transfer sweeps; slack ones return the capped peaks
    budget = capped_peaks * draw(st.floats(0.05, 0.95) | st.floats(1.0, 2.0))
    return log_terms, gains, cfgs, budget


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ascent_instances())
@example((False, [0.0, 1.0, 2.0], [LinkConfig(1.0), LinkConfig(1.0, p_max=0.8), LinkConfig(0.5)], 1.0))
@example((True, [1.0, 2.0], [LinkConfig(1.0, p_max=0.45), LinkConfig(0.5)], 1.0))
def test_ascent_is_bitwise_the_ee_of_reference(case):
    log_terms, gains, cfgs, budget = case
    alloc = (wpee_ascent if log_terms else wsee_ascent)(gains, cfgs, budget)
    ref = reference_budget_ascent(gains, cfgs, budget, log_terms)
    assert alloc.objective == ref.objective
    np.testing.assert_array_equal(alloc.powers, ref.powers)


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
