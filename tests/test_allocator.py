import functools
import math
import re
import sys
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eepower import allocator
from eepower.allocator import (
    Allocation,
    GeeProblem,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_rows,
    link_terms,
    water_level,
    wmee_maxmin,
    wmee_rows,
    wpa,
    wpee_ascent,
    wpee_rows,
    wsee_ascent,
    wsee_rows,
)
from eepower.channel import draw_gain_rows, stream_uniforms
from eepower.errors import InfeasibleError, PowerControlError
from eepower.metrics import evaluate
from eepower.numerics import lambert_w0, lambert_w0_offset
from eepower.oracle import GridSpec, grid_argmax
from numpy_dispatch import numpy_dispatch_groups, without_each_group

E = math.e


def grid_best(f, lo, hi, step):
    # brute-force 1-D argmax, independent of any solver
    xs = np.arange(lo, hi + step / 2, step)
    vals = f(xs)
    k = int(np.argmax(vals))
    return xs[k], vals[k]


def test_ee_of_values():
    assert ee_of(1.0, 0.0, 1.0) == 0.0
    assert ee_of(1.0, E - 1.0, 1.0) == pytest.approx(1.0 / E, abs=1e-14)
    with pytest.raises(ValueError):
        ee_of(1.0, -0.1, 1.0)


def test_link_terms_equal_the_inline_expressions_bit_for_bit():
    # the forms its callers wrote before it: log1p(g * p), then se / (pc + p),
    # over broadcast shapes with zero gains and zero powers, a Python-float
    # pc and the oracle's (links, 1) columns against one axis
    rng = np.random.default_rng(25)
    g = 10.0 ** rng.uniform(-8.0, 8.0, size=(6, 1, 5))
    g[0] = 0.0
    p = 10.0 ** rng.uniform(-8.0, 8.0, size=(1, 9, 5))
    p[..., 1] = 0.0
    pc = 10.0 ** rng.uniform(-3.0, 3.0, size=5)
    axis = np.linspace(0.0, 3.0, 11)
    for gains, powers, circuit in [(g, p, pc), (g, p, 0.7), (g[1, 0][:, None], axis, pc[:, None])]:
        se, ee = link_terms(gains, powers, circuit)
        ref_se = np.log1p(gains * powers)
        ref_ee = ref_se / (circuit + powers)
        assert se.shape == ref_se.shape and ee.shape == ref_ee.shape
        assert se.tobytes() == ref_se.tobytes()
        assert ee.tobytes() == ref_ee.tobytes()


def test_ee_of_grid_argmax_at_closed_form():
    p_star, _ = grid_best(lambda p: np.log1p(p) / (1.0 + p), 0.0, 20.0, 1e-4)
    assert abs(p_star - (E - 1.0)) <= 1e-4 + 1e-12


def test_eepa_closed_form_values():
    assert eepa(1.0, 1.0) == pytest.approx(E - 1.0, abs=1e-12)
    assert eepa(2.0, 0.5) == pytest.approx((E - 1.0) / 2.0, abs=1e-12)
    assert eepa(0.0, 1.0) == 0.0


# (g, eepa(g, 1.0)) for g pc from 1e-15 to 1e15: the closed form
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
    np.testing.assert_allclose(eepa(gains, 1.0), expected, rtol=1e-12, atol=0.0)
    for g, want in EEPA_PINS:
        assert eepa(g, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eepa_keeps_the_branch_point_offset():
    # (g pc - 1) / e rounds onto -1/e here, which gave 0 W; the optimum is
    # about sqrt(2 pc / g) (mpmath: 1.4142135623730953e15)
    assert eepa(1e-30, 1.0) == pytest.approx(1.4142135623730953e15, rel=1e-12, abs=0.0)


def test_eepa_takes_a_gain_array():
    gains = np.array([[0.0, 1.0], [2.0, 1e-30]])
    p = eepa(gains, 0.5)
    assert p.shape == (2, 2)
    for g, want in zip(gains.ravel(), p.ravel()):
        assert eepa(float(g), 0.5) == want


def test_eepa_rejects_bad_inputs():
    for bad in (0.0, -1.0, math.nan, [1.0, 0.0]):
        with pytest.raises(ValueError, match="^circuit power must be positive and finite, got "):
            eepa([1.0, 2.0], bad)
    with pytest.raises(ValueError):
        eepa(-0.5, 1.0)
    # one circuit power, or one per gain
    with pytest.raises(ValueError):
        eepa([1.0, 2.0], [1.0, 1.0, 1.0])


def test_eepa_names_the_gain_and_pc_whose_power_overflows():
    # g pc past the float range, and just inside it, where the Lambert stage
    # overflows, both raise instead of returning NaN, with no warning
    with pytest.raises(ValueError, match=r"^gain times circuit power overflows the EE-optimal power: gain 1e\+300, pc 10000000000\.0$"):
        eepa(1e300, 1e10)
    with pytest.raises(ValueError, match=r"gain 100\.0, pc 1\.796e\+306$"):
        eepa([1.0, 100.0], 1.796e306)
    with pytest.raises(ValueError, match=r"gain 2\.0, pc 1e\+308$"):
        eepa([1.0, 2.0], [1.0, 1e308])
    # just below the edge the power is finite, and a zero gain still gets 0 W
    assert math.isfinite(eepa(100.0, 1.7e306))
    assert eepa([0.0, 1e300], 1e5)[0] == 0.0


def test_eepa_stationarity_over_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(200):
        prod = 10.0 ** rng.uniform(-3, 3)
        gamma = 10.0 ** rng.uniform(-1.5, 1.5)
        pc = prod / gamma
        p = eepa(gamma, pc)
        lhs = gamma * (pc + p)
        rhs = (1.0 + gamma * p) * math.log1p(gamma * p)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_eepa_vanishes_with_circuit_power():
    # closed form behaves like sqrt(2 pc / gamma) for small pc * gamma
    assert eepa(1e4, 1e-9) < 1e-6
    for gamma in (0.1, 1.0, 10.0):
        p = eepa(gamma, 1e-9)
        assert p <= 1.01 * math.sqrt(2e-9 / gamma)


def test_ee_unimodal_around_eepa():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gamma = 10.0 ** rng.uniform(-1, 1)
        pc = 10.0 ** rng.uniform(-1, 1)
        p_star = eepa(gamma, pc)
        up = [ee_of(gamma, p, pc) for p in np.linspace(0.0, p_star, 33)]
        down = [ee_of(gamma, p, pc) for p in np.linspace(p_star, 10 * p_star + 10, 33)]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b < a for a, b in zip(down, down[1:]))


def test_eepa_scale_covariance():
    # gains s g with circuit power pc / s give the powers eepa(g, pc) / s
    rng = np.random.default_rng(5)
    for _ in range(50):
        gamma = 10.0 ** rng.uniform(-1, 2)
        pc = 10.0 ** rng.uniform(-1, 1)
        c = 10.0 ** rng.uniform(-6, 6)
        lhs = eepa(c * gamma, pc / c) * c
        rhs = eepa(gamma, pc)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_water_filling_spends_at_most_the_total(seed, n):
    # totals from 1e-300 to 1e3, with zero gains among the links: the water
    # level, wpa and the gee_rows cap fill no more than the total
    rng = np.random.default_rng(seed)
    rows = 12
    gains = 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, n))
    gains[rng.random((rows, n)) < 0.2] = 0.0
    gains[np.arange(rows), rng.integers(n, size=rows)] = 10.0 ** rng.uniform(-3.0, 3.0, size=rows)
    totals = 10.0 ** rng.uniform(-300.0, 3.0, size=rows)
    pcs = 10.0 ** rng.uniform(-2.0, 2.0, size=rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spent = np.maximum(0.0, water_level(gains, totals)[:, None] - allocator._inverse(gains)).sum(axis=1)
        assert np.all(spent <= totals * (1.0 + 1e-12))
        for g, total, pc in zip(gains, totals, pcs):
            p_avg = total / n
            assert wpa(g, p_avg).powers.sum() <= p_avg * n * (1.0 + 1e-12)
            powers, objective = gee_rows(g[None, :], pc, total)
            assert powers.sum() <= total * (1.0 + 1e-12)
            assert np.isfinite(objective).all()


def test_totals_below_the_smallest_floor_fill_no_power():
    # total + s_1 rounds to s_1, so no floor lies below its level; the level
    # is s_1 (it was the level of every link, or infinite with a zero gain)
    assert water_level([0.0, 1.0], 1e-300) == 1.0
    assert water_level([1.0, 2.0], 0.0) == 0.5
    np.testing.assert_array_equal(water_level([[1.0, 2.0], [4.0, 0.5]], 1e-17), [0.5, 0.25])
    assert np.all(wpa([1.0, 2.0], 1e-17).powers == 0.0)
    powers, objective = gee_rows([[1.0, 2.0, 0.5]], 1.0, 1e-17)
    assert np.all(powers == 0.0) and np.all(objective == 0.0)


def test_dinkelbach_single_dimension_equals_eepa():
    alloc = gee_dinkelbach(GeeProblem([1.0], 1.0))
    assert abs(alloc.powers[0] - (E - 1.0)) <= 1e-8
    assert alloc.objective == pytest.approx(1.0 / E, abs=1e-10)


def test_dinkelbach_symmetric_gains_closed_form():
    n, gamma, pc = 4, 1.5, 2.0
    alloc = gee_dinkelbach(GeeProblem([gamma] * n, pc))
    expected = eepa(gamma, pc / n)
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
    with pytest.raises(ValueError, match=r"^p_max_total must be positive and finite, got inf$"):
        gee_dinkelbach(GeeProblem([1.0], 1.0, math.inf))
    for shape in ((3,), (0, 2), (2, 0), (1, 2, 2)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'gains must be a non-empty (rows, n) array, got shape {shape}')}$"):
            gee_rows(np.ones(shape), 1.0)
    # gee_rows checks its input before it solves: gains, then pc, then the
    # cap, and each before a row with no positive gain
    with pytest.raises(ValueError, match="^gains must be finite and non-negative$"):
        gee_rows([[0.0], [math.nan]], -1.0, -1.0)
    with pytest.raises(ValueError, match="^circuit power must be positive and finite, got -1.0$"):
        gee_rows([[0.0], [1.0]], -1.0, -1.0)
    with pytest.raises(ValueError, match="^p_max_total must be positive and finite, got -1.0$"):
        gee_rows([[0.0], [1.0]], 1.0, -1.0)


def test_gee_rows_names_the_first_bad_per_row_circuit_power():
    with pytest.raises(ValueError, match=r"^row 1: circuit power must be positive and finite, got nan$"):
        gee_rows([[1.0], [2.0]], [1.0, math.nan])
    pcs = np.ones(3000)
    pcs[[1234, 2999]] = -1.0
    with pytest.raises(ValueError, match=r"^row 1234: circuit power must be positive and finite, got -1.0$"):
        gee_rows(np.ones((3000, 2)), pcs)
    # a (P, rows) pc names the first row that holds a bad value, a (P, 1) one row 0
    with pytest.raises(ValueError, match=r"^row 2: circuit power must be positive and finite, got \[ 1. -1.\]$"):
        gee_rows(np.ones((3, 2)), [[1.0, 1.0, 1.0], [1.0, 2.0, -1.0]])
    with pytest.raises(ValueError, match=r"^row 0: circuit power must be positive and finite, got \[ 1. nan\]$"):
        gee_rows(np.ones((3, 2)), [[1.0], [math.nan]])


def test_gee_rows_name_the_row_whose_circuit_power_overflows():
    # pc / s_1 = pc times the largest gain overflows, or it is finite but the
    # Lambert-W level is not; both name the first such row, as a pc column does
    with pytest.raises(PowerControlError, match="^row 0: circuit power times the largest gain overflows$") as err:
        gee_rows([[1.0, 2.0, 3.0]], 1e308)
    assert err.value.row == 0
    with pytest.raises(PowerControlError, match="^row 2: circuit power times the largest gain overflows$") as err:
        gee_rows([[1.0], [0.5], [3.0]], np.array([[1.0], [1e308]]))
    assert err.value.row == 2
    with pytest.raises(PowerControlError, match="^row 1: the optimum is not finite$") as err:
        gee_rows([[2.0], [1.0]], [1e300, 1.79e308])
    assert err.value.row == 1
    # in a staged solve, the row is counted within its own block: the trial
    blocks = [(np.ones((3, 1)), 1e300), (np.array([[2.0], [1.0]]), np.array([1e300, 1.79e308]))]
    with pytest.raises(PowerControlError, match="^row 1: the optimum is not finite$") as err:
        allocator._gee_solve(blocks, None)
    assert err.value.row == 1
    # a large pc whose level is finite solves
    powers, objective = gee_rows([[1.0, 2.0, 3.0]], 1e300)
    assert np.all(np.isfinite(powers)) and np.all(np.isfinite(objective))


def test_gee_rows_solve_gains_spanning_more_than_the_float_range():
    # the 1e-300 link's floor offset overflows to +inf; like a zero gain's it
    # fills no power, and the 1e300 link gets its one-link optimum
    powers, objective = gee_rows([[1e-300, 1e300]], 1.0)
    alone_powers, alone_objective = gee_rows([[1e300]], 1.0)
    assert powers[0, 0] == 0.0
    assert powers[0, 1] == alone_powers[0, 0]
    assert objective.tobytes() == alone_objective.tobytes()
    # under a cap that binds, too
    powers, objective = gee_rows([[1e300, 1e-300]], 1.0, 1e-3)
    assert powers.tolist() == [[1e-3, 0.0]]
    assert math.isfinite(objective[0])


def test_gee_solve_blocks_equal_their_one_block_calls():
    # blocks of different n solved together give each block's own bits, with
    # the rows of the objective and the rate sum concatenated in block order
    rng = np.random.default_rng(21)
    pc = np.array([0.3, 4.0])[:, None]
    blocks = [(10.0 ** rng.uniform(-2.0, 2.0, (rows, n)), pc * n) for rows, n in ((5, 1), (3, 6), (7, 2))]
    blocks[1][0][1, 2:] = 0.0
    for cap in (None, 0.5):
        objective, rate_sum, powers = allocator._gee_solve(blocks, cap, keep_powers=True)
        alone = [allocator._gee_solve([block], cap, keep_powers=True) for block in blocks]
        assert objective.tobytes() == np.concatenate([a[0] for a in alone], axis=-1).tobytes()
        assert rate_sum.tobytes() == np.concatenate([a[1] for a in alone], axis=-1).tobytes()
        assert [p.tobytes() for p in powers] == [a[2][0].tobytes() for a in alone]
        assert allocator._gee_solve(blocks, cap)[2] == []


@pytest.mark.parametrize("cap", [None, 0.3])
def test_gee_rows_pc_column_equals_one_pc_calls(cap):
    # one call over a (P, 1) column of circuit powers, or a (P, rows) array of
    # per-row ones, equals P calls bit for bit, also where a zero gain gets no
    # power and where rows are cut back to the cap
    rng = np.random.default_rng(5)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (40, 6))
    gains[3, 0] = 0.0
    gains[4, 1:] = 0.0
    pcs = np.array([0.05, 1.0, 20.0])
    per_row = 10.0 ** rng.uniform(-1.0, 1.0, (2, 40))
    for pc, alone_pcs in ((pcs[:, None], pcs.tolist()), (per_row, list(per_row))):
        powers, objective = gee_rows(gains, pc, cap)
        assert powers.shape == (len(alone_pcs), 40, 6) and objective.shape == (len(alone_pcs), 40)
        for q, alone_pc in enumerate(alone_pcs):
            alone_powers, alone_objective = gee_rows(gains, alone_pc, cap)
            assert powers[q].tobytes() == alone_powers.tobytes()
            assert objective[q].tobytes() == alone_objective.tobytes()
            if cap is not None:
                assert np.any(gee_rows(gains, alone_pc)[0].sum(axis=1) > cap)
    assert powers[:, 3, 0].tolist() == [0.0, 0.0] and np.all(powers[:, 4, 1:] == 0.0)


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


def gee_rows_sorted_floors(gains, pc, cap=None):
    """gee_rows as it was before it formed the floor offsets s_i / s_1 - 1
    once: delta from the sorted floors, the active count from the residual
    R - (pc + P) / w at each floor divided by 1 + delta_j (not from the
    gain-only bound), the powers from the offsets formed again, out of
    place; the rate k v and total s_1 (k expm1(m + v) - sum delta) of a row
    under the cap, a capped row's summed from its powers."""
    g = np.asarray(gains, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / g
    s1 = inv.min(axis=1, keepdims=True)
    scaled_pc = pc / s1[:, 0]
    delta = np.sort(inv, axis=1) / s1 - 1.0
    cum_delta = np.cumsum(delta, axis=1)
    j = np.arange(1, g.shape[1] + 1)
    with np.errstate(invalid="ignore"):
        spill = (j * delta + scaled_pc[..., None] - cum_delta) / (1.0 + delta)
        logs = np.log1p(delta)
        cum_log = np.cumsum(logs, axis=1)
        k = np.count_nonzero(j * logs - cum_log < spill, axis=-1)
    row = np.arange(g.shape[0])
    m, sum_delta = cum_log[row, k - 1] / k, cum_delta[row, k - 1]
    d = (scaled_pc - sum_delta + k * np.expm1(m)) / (k * E * np.exp(m))
    v = lambert_w0_offset(d)
    rise = np.expm1(m + v)
    powers = np.maximum(0.0, s1 * (rise[..., None] - (inv / s1 - 1.0)))
    rate, total = k * v, s1[:, 0] * (k * rise - sum_delta)
    if cap is not None:
        over = total > cap
        g_over, inv_over = (np.broadcast_to(a, powers.shape)[over] for a in (g, inv))
        powers[over] = np.maximum(0.0, water_level(g_over, cap)[:, None] - inv_over)
        rate[over] = np.log1p(g * powers).sum(axis=-1)[over]
        total[over] = powers.sum(axis=-1)[over]
    return powers, rate / (pc + total)


@pytest.mark.parametrize("cap", [None, 0.3])
def test_gee_rows_offsets_keep_the_sorted_floor_bits(cap):
    # tied gains give equal offsets and zero gains infinite ones; the offsets
    # sort as the floors do, so every power and objective keeps its bits
    rng = np.random.default_rng(8)
    gains = 10.0 ** rng.uniform(-3.0, 3.0, (60, 8))
    gains[:10, 1:4] = gains[:10, :1]
    gains[10:20] = gains[10:20, :1]
    gains[20:30, ::2] = 0.0
    gains[30:40, 1:] = 0.0
    gains[40:50, :3] = gains[40:50, 3:4]
    gains[40:50, 5:] = 0.0
    for pc in (0.7, np.array([0.05, 1.0, 20.0])[:, None]):
        powers, objective = gee_rows(gains, pc, cap)
        ref_powers, ref_objective = gee_rows_sorted_floors(gains, pc, cap)
        assert powers.tobytes() == ref_powers.tobytes()
        assert objective.tobytes() == ref_objective.tobytes()


def test_gee_solve_rate_sum_is_the_objective_numerator():
    # the objective divides the rate sum by pc plus the total power: on a
    # capped row both are summed from its powers, bit for bit, and on the
    # others they are the closed form's, within rounding of those sums
    rng = np.random.default_rng(9)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (30, 5))
    gains[3, 1:] = 0.0
    pc = np.array([0.5, 2.0])[:, None]
    objective, rate_sum, (powers,) = allocator._gee_solve([(gains, pc)], 0.4, keep_powers=True)
    rates, totals = np.log1p(gains * powers).sum(axis=-1), powers.sum(axis=-1)
    free_totals = gee_rows(gains, pc)[0].sum(axis=-1)
    capped = free_totals > 0.4
    assert capped.any() and not capped.all() and not np.isclose(free_totals, 0.4, rtol=1e-9).any()
    assert rate_sum[capped].tobytes() == rates[capped].tobytes()
    assert objective[capped].tobytes() == (rates / (pc + totals))[capped].tobytes()
    np.testing.assert_allclose(rate_sum, rates, rtol=4e-15, atol=0.0)
    np.testing.assert_allclose(objective, rates / (pc + totals), rtol=4e-15, atol=0.0)
    assert objective.tobytes() == gee_rows(gains, pc, 0.4)[1].tobytes()


def test_gee_closed_form_rate_and_ee_equal_their_sums_over_the_powers():
    # k v and k v / (pc + s_1 (k expm1(m + v) - sum delta)) against the sum
    # of log1p(g p) and it over pc + sum p from the solver's own powers, for
    # gains 10**U(-15, 15), pc 10**U(-6, 6) and n from 1 to 64, with one
    # zero gain in each of a fifth of the rows
    for n in range(1, 65):
        rng = np.random.default_rng(n)
        gains = 10.0 ** rng.uniform(-15.0, 15.0, (40, n))
        if n > 1:
            gains[np.arange(8), rng.integers(1, n, size=8)] = 0.0
        pc = 10.0 ** rng.uniform(-6.0, 6.0, 40)
        objective, rate_sum, (powers,) = allocator._gee_solve([(gains, pc)], None, keep_powers=True)
        rates = np.log1p(gains * powers).sum(axis=-1)
        np.testing.assert_allclose(rate_sum, rates, rtol=4e-15, atol=0.0)
        np.testing.assert_allclose(objective, rates / (pc + powers.sum(axis=-1)), rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("pc", [0.7, np.array([[0.05], [1.0], [20.0]])])
def test_gee_capped_rows_sum_their_water_filled_powers(pc):
    # a row whose closed-form total is over the cap gets the water-filled
    # powers at the cap, and its rate and total are summed from them, bit for
    # bit; without keep_powers only those rows' powers are built, to the same
    # objective and rate bits
    rng = np.random.default_rng(14)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (40, 6))
    gains[:10, ::2] = 0.0
    cap = 0.5
    objective, rate_sum, (powers,) = allocator._gee_solve([(gains, pc)], cap, keep_powers=True)
    free_totals = gee_rows(gains, pc)[0].sum(axis=-1)
    capped = free_totals > cap
    assert capped.any() and not capped.all() and not np.isclose(free_totals, cap, rtol=1e-9).any()
    filled = np.maximum(0.0, water_level(gains, cap)[:, None] - allocator._inverse(gains))
    assert powers[capped].tobytes() == np.broadcast_to(filled, powers.shape)[capped].tobytes()
    rates, totals = np.log1p(gains * powers).sum(axis=-1), powers.sum(axis=-1)
    assert rate_sum[capped].tobytes() == rates[capped].tobytes()
    assert objective[capped].tobytes() == (rates / (pc + totals))[capped].tobytes()
    lean_objective, lean_rate_sum, _ = allocator._gee_solve([(gains, pc)], cap)
    assert lean_objective.tobytes() == objective.tobytes()
    assert lean_rate_sum.tobytes() == rate_sum.tobytes()


def test_gee_row_whose_total_is_at_the_cap_agrees_with_both_branches():
    # a cap within a few ulps of a row's free total may or may not cut it
    # back; either branch gives the row's objective to 1e-15
    rng = np.random.default_rng(15)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (20, 6))
    gains[:5, 1::2] = 0.0
    pc = 10.0 ** rng.uniform(-1.0, 1.0, 20)
    free_powers, free_objective = gee_rows(gains, pc)
    branches = set()
    for r, total in enumerate(free_powers.sum(axis=-1)):
        g = gains[r]
        for ulps in range(-4, 5):
            cap = total + ulps * np.spacing(total)
            powers, objective = gee_rows(g[None, :], pc[r], cap)
            filled = np.maximum(0.0, water_level(g, cap) - allocator._inverse(g))
            branches.add(powers.tobytes() == filled.tobytes())
            at_cap = np.log1p(g * filled).sum() / (pc[r] + filled.sum())
            assert objective[0] == pytest.approx(free_objective[r], rel=1e-15, abs=0.0)
            assert objective[0] == pytest.approx(at_cap, rel=1e-15, abs=0.0)
    assert branches == {True, False}


def test_gee_optimum_whose_spent_power_overflows_is_refused():
    # pc / s_1, the rate k v and the total P are finite, but pc + P is not:
    # its EE would read k v / inf = 0, so the row is refused, as one whose
    # level overflows is; it is the first such row that is named
    with pytest.raises(PowerControlError, match="^row 1: the optimum is not finite$") as err:
        gee_rows([[1.0, 2.0], [0.25, 0.2], [0.25, 0.2]], np.array([1.0, 1.797e308, 1.797e308]))
    assert err.value.row == 1
    # from pc / s_1 = 2.5e305 to its overflow, each row solves to a positive
    # EE, the powers' own to 1e-14, or is refused; none reads 0
    shapes = ([0.25], [0.25, 0.2], [0.25, 0.2, 0.1, 1e-3, 0.0], [1e-3, 9.9e-4])
    for pc in np.linspace(1e306, 1.7976931348623157e308, 40):
        for shape in shapes:
            g = np.array([shape])
            try:
                powers, objective = gee_rows(g, pc)
            except PowerControlError as refused:
                assert str(refused) == "row 0: the optimum is not finite"
                continue
            assert objective[0] > 0.0 and np.all(np.isfinite(powers))
            spent = pc + powers.sum()
            assert objective[0] == pytest.approx(np.log1p(g * powers).sum() / spent, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("cap", [None, 3.0])
@pytest.mark.parametrize("pc", [1.0, np.array([[1.0], [2.0]])])
def test_gee_solve_bits_do_not_depend_on_the_gains_layout(pc, cap):
    # each row's sums add its links in one order whatever the memory layout:
    # column-major (as a transposed fill would hand it over), a transpose of
    # a transposed copy, a slice of a wider C-ordered block and a strided view
    def solve(gains):
        objective, rate_sum, (powers,) = allocator._gee_solve([(gains, pc)], cap, keep_powers=True)
        return [a.tobytes() for a in (powers, objective, rate_sum)]

    wide = draw_gain_rows(1, 300, 128)
    for n in (8, 64):
        gains = np.ascontiguousarray(wide[:, :n])
        want = solve(gains)
        for other in (np.asfortranarray(gains), gains.T.copy().T, wide[:, :n], np.repeat(gains, 2, axis=1)[:, ::2]):
            assert solve(other) == want


def test_gee_rows_single_dimension_equals_eepa():
    # at one link the closed form is eepa's, for g pc from 1e-15 to 1e15
    products = np.logspace(-15, 15, 301)
    for pc in (1e-2, 1.0, 1e2):
        gains = products / pc
        powers, _ = gee_rows(gains[:, None], pc)
        np.testing.assert_allclose(powers[:, 0], eepa(gains, pc), rtol=1e-13, atol=0.0)


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


@pytest.mark.parametrize("exponent, shape, exact", GEE_RATE_PINS)
def test_gee_closed_form_rate_is_as_close_as_the_powers_sum(exponent, shape, exact):
    # k v is no further from the exact rate than the sum of log1p(g p) over
    # the same solve's powers, up to 1 ulp
    gains = 10.0 ** exponent * np.array(GEE_RATE_SHAPES[shape])
    _, rate_sum, (powers,) = allocator._gee_solve([(gains[None, :], 1.0)], None, keep_powers=True)
    powers_error = abs(float(np.log1p(gains * powers[0]).sum()) - exact)
    assert abs(float(rate_sum[0]) - exact) <= powers_error + np.spacing(exact)


def test_dinkelbach_stop_is_relative_at_tiny_gain():
    # at g pc = 1e-15 the optimum is about sqrt(2 pc / g) and the rate about
    # 4.5e-8 nats, so an absolute accuracy of 1e-12 would end far off
    alloc = gee_dinkelbach(GeeProblem([1e-15], 1.0))
    assert alloc.powers[0] == pytest.approx(math.sqrt(2.0 / 1e-15), rel=1e-5)


def test_wmee_identical_links_ample_budget():
    alloc = wmee_maxmin([1.0, 1.0], [1.0, 1.0], 100.0)
    np.testing.assert_allclose(alloc.powers, E - 1.0, atol=1e-6)
    assert alloc.objective == pytest.approx(1.0 / E, abs=1e-9)


def test_wmee_identical_links_binding_budget():
    alloc = wmee_maxmin([1.0, 1.0], [1.0, 1.0], 1.0)
    np.testing.assert_allclose(alloc.powers, [0.5, 0.5], atol=1e-6)


def test_identical_links_fully_fair_under_every_solver():
    # equal gains and circuit powers: each of the four objectives gives every
    # link the same EE, so Jain's index is 1, whether the budget binds or not
    for links in (2, 3, 4):
        gains = np.ones(links)
        pcs = np.ones(links)
        for budget in (2.0, 100.0):
            solved = [
                gee_dinkelbach(GeeProblem(gains, float(links), budget)),
                wsee_ascent(gains, pcs, budget),
                wpee_ascent(gains, pcs, budget),
                wmee_maxmin(gains, pcs, budget),
            ]
            for alloc in solved:
                assert evaluate(gains, 1.0, alloc.powers).jain == pytest.approx(1.0, abs=1e-6)


def test_wmee_vs_grid_search():
    gains = [0.5, 2.0]
    alloc = wmee_maxmin(gains, [1.0, 1.0], 2.0)
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
        pcs = 10.0 ** rng.uniform(-1, 1, n)
        budget = 10.0 ** rng.uniform(-3, 1) * n
        alloc = wmee_maxmin(gains, pcs, budget)
        assert alloc.powers.sum() <= budget * (1 + 1e-12)
        top = min(ee_of(g, eepa(g, pc), pc) for g, pc in zip(gains, pcs))
        if alloc.objective == top:
            continue
        binding += 1
        levels = [ee_of(gains[i], alloc.powers[i], pcs[i]) for i in range(n)]
        assert max(levels) - min(levels) <= 1e-9 * max(levels)
        assert min(levels) == pytest.approx(alloc.objective, rel=1e-9)
    assert binding >= 200


def test_wmee_zero_gain_link_yields_zero_objective():
    alloc = wmee_maxmin([0.0, 1.0], [1.0] * 2, 1.0)
    assert alloc.objective == 0.0
    np.testing.assert_array_equal(alloc.powers, 0.0)


def wmee_reference(gains, pcs, p_total, stop=1e-13):
    """The per-link max-min solver that wmee_rows replaced, kept as a
    reference: bisection on the common level t with each link's power at t
    from the scalar Lambert W (`rising_power_reference`), until the bracket
    is at most `stop` of its upper end wide. Returns (powers, level)."""
    g = np.asarray(gains, dtype=float)
    n = g.size
    peaks = np.array([eepa(g[i], pcs[i]) for i in range(n)])
    tops = np.array([ee_of(g[i], peaks[i], pcs[i]) for i in range(n)])
    t_hi = float(tops.min())
    if t_hi <= 0.0:
        return np.zeros(n), 0.0

    def powers_at(t):
        if t <= 0.0:
            return np.zeros(n)
        return np.array([rising_power_reference(g[i], pcs[i], t, peaks[i]) for i in range(n)])

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
        if hi - lo <= stop * hi:
            break
    return powers_at(lo), lo


def rising_power_reference(gamma, pc, t, peak):
    """Smallest p with ln(1 + gamma p) = t (pc + p), clipped to [0, peak]:
    x = 1 + gamma p = -W0(-c e^(t pc - c)) / c with c = t / gamma, then one
    guarded Newton step on log1p(y) = t pc + c y."""
    c = t / gamma
    y = -lambert_w0(-c * math.exp(t * pc - c)) / c - 1.0
    slope = 1.0 / (1.0 + y) - c
    if slope > 0.0:
        step = (math.log1p(y) - t * pc - c * y) / slope
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
    budget = 10.0 ** draw(st.floats(-3.0, 1.0)) * n
    return gains, pc, budget


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(wmee_batches())
@example((np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones((2, 2)), 1.0))
def test_wmee_rows_match_the_per_link_reference(case):
    gains, pc, budget = case
    powers, level = wmee_rows(gains, pc, budget)
    assert powers.shape == gains.shape and level.shape == (gains.shape[0],)
    for r in range(gains.shape[0]):
        alone_powers, alone_level = wmee_rows(gains[r : r + 1], pc[r], budget)
        np.testing.assert_array_equal(alone_powers[0], powers[r])
        assert alone_level[0] == level[r]
        assert powers[r].sum() <= budget * (1.0 + 1e-12)
        if np.any(gains[r] == 0.0):
            assert level[r] == 0.0 and np.all(powers[r] == 0.0)
            continue
        _ref_powers, ref_level = wmee_reference(gains[r], pc[r], budget)
        assert level[r] == pytest.approx(ref_level, rel=1e-12, abs=0.0)


def test_wmee_stop_is_relative_at_a_tight_budget():
    # at 1e-6 W the levels lie far below each row's top; a stop at 1e-13 of
    # the top leaves them off by up to 1.4e-7 relative on these rows
    rng = np.random.default_rng(5)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (8, 4))
    pc = rng.uniform(0.25, 2.0, (8, 4))
    powers, level = wmee_rows(gains, pc, 1e-6)
    for r in range(gains.shape[0]):
        _ref_powers, ref_level = wmee_reference(gains[r], pc[r], 1e-6, stop=1e-15)
        assert level[r] == pytest.approx(ref_level, rel=1e-12, abs=0.0)
        assert powers[r].sum() <= 1e-6 * (1.0 + 1e-12)


def test_wmee_level_at_tiny_budgets_spends_the_budget():
    # fairness' seed-1 instances: the root lies over 100 decades below each
    # row's top level, where a stop width taken from the top gave trial 1 a
    # zero level from 1e-104 W on and every trial one from 1e-118 W on
    gains = draw_gain_rows(1, 3, 4)
    pc = 0.25 + 1.75 * stream_uniforms(1, 3, 4, 1)
    for budget in 10.0 ** -np.arange(100, 301, 20):
        powers, level = wmee_rows(gains, pc, budget)
        assert np.all(level > 0.0), budget
        np.testing.assert_allclose(powers.sum(axis=1), budget, rtol=1e-12, atol=0.0)


def rising_powers_calls(case):
    """(kernel calls, powers, level) of one `wmee_rows` call on case."""
    real = allocator._rising_powers
    with mock.patch.object(allocator, "_rising_powers", side_effect=real) as counted:
        powers, level = wmee_rows(*case)
    return counted.call_count, powers, level


def test_wmee_level_at_subnormal_levels():
    # fairness' seed-1 rows, whose levels are subnormal at these budgets: a
    # Newton step that rounded to no move (its lengthening 0.5e-13 t
    # underflows) bisected toward the top instead, and each row then ran to
    # the 200-step limit
    gains = draw_gain_rows(1, 200, 4)
    pc = 0.25 + 1.75 * stream_uniforms(1, 200, 4, 1)
    for budget in (1e-308, 1e-310, 1e-315):
        calls, powers, level = rising_powers_calls((gains, pc, budget))
        assert calls <= 10, budget
        assert np.all(level > 0.0) and np.all(powers.sum(axis=1) <= budget), budget
        if budget == 1e-308:
            np.testing.assert_allclose(powers.sum(axis=1), budget, rtol=1e-12, atol=0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(wmee_batches())
def test_wmee_level_takes_few_kernel_calls(case):
    # a bisection on the level to 1e-13 of the top takes at least 44 calls
    calls, powers, _level = rising_powers_calls(case)
    assert calls <= 10
    assert np.all(powers.sum(axis=1) <= case[-1] * (1.0 + 1e-12))


def test_wmee_level_takes_few_kernel_calls_on_the_verify_instances():
    # the one-row calls of `eepower verify --objective wmee --trials 1` at
    # seeds 1-200, as cli._cmd_verify draws them (Newton steps in t take a
    # median of 10 calls and up to 18 on them)
    calls = []
    for dims in (2, 3):
        for seed in range(1, 201):
            u = stream_uniforms(seed, 1, 2 * dims)[0]
            gains = np.exp(u[:dims] * (math.log(3.0) - math.log(0.3)) + math.log(0.3))
            pc = 0.5 + 1.5 * u[dims:]
            n, powers, _level = rising_powers_calls((gains[None, :], pc, 0.75 * dims))
            calls.append(n)
            assert powers.sum() <= 0.75 * dims * (1.0 + 1e-12)
    assert np.median(calls) <= 5 and max(calls) <= 8


TAIL_SHORTFALLS = [1e-3, 1e-9, 1e-14, 0.0]


@pytest.mark.parametrize("shortfall", TAIL_SHORTFALLS)
def test_wmee_level_in_the_tail_below_the_top(shortfall):
    # link 0's peak EE (1/e at 1.72 W) is the lower one and sets the top
    # level T; p_0'(t) grows without bound as t nears T, so with the budget
    # just under the powers at T the root sits in that steep tail, where
    # Newton steps in t overshoot T and bisect toward the root (45 kernel
    # calls from a shortfall of 1e-9 on); in s = sqrt(T - t) it is smooth
    gains, pc = np.array([[1.0, 2.0]]), np.ones((1, 2))
    top = wmee_rows(gains, pc, 1e3)
    budget = top[0].sum() * (1.0 - shortfall)
    calls, powers, level = rising_powers_calls((gains, pc, budget))
    assert calls <= 8
    assert powers.sum() <= budget
    _ref_powers, ref_level = wmee_reference(gains[0], pc[0], budget)
    assert level[0] == pytest.approx(ref_level, rel=1e-12, abs=0.0)
    if shortfall == 0.0:
        assert level[0] == top[1][0]
        np.testing.assert_array_equal(powers, top[0])


@functools.cache
def _tail_test_without_each_dispatch_group():
    """{group: (exit code, output)} of the tail test without each dispatch group."""
    return without_each_group(f"import test_allocator as t\nfor s in {TAIL_SHORTFALLS!r}: t.test_wmee_level_in_the_tail_below_the_top(s)")


@pytest.mark.parametrize("group", numpy_dispatch_groups()[0])
def test_wmee_level_in_the_tail_below_the_top_without(group):
    # a CPU without AVX-512 or AVX2 takes other numpy kernels, whose last
    # bits differ; the level must close its bracket as fast there
    runs = _tail_test_without_each_dispatch_group()
    if group not in runs:
        pytest.skip(f"numpy reports no {group} on this CPU (absent or already disabled), so no run disables it")
    assert runs[group][0] == 0, runs[group][1]


def test_wmee_level_where_a_halley_step_passes_the_top():
    # the root lies 1.2e-4 below the top level T; from levels about a third
    # below T, Halley's step puts s - ds past T with X near 2, where the
    # reflection below T returns almost to t, so a step not kept to s / 2
    # creeps (128 kernel calls)
    gains, pc = np.array([[1.6e-7, 2.2e-7, 2.8e-8, 2.16e-8]]), np.array([[1.8, 27.7, 3.56, 0.27]])
    calls, powers, level = rising_powers_calls((gains, pc, 1258.0))
    assert calls <= 10
    assert powers.sum() <= 1258.0
    _ref_powers, ref_level = wmee_reference(gains[0], pc[0], 1258.0)
    assert level[0] == pytest.approx(ref_level, rel=1e-12, abs=0.0)


def test_wmee_level_is_scale_covariant():
    # (g s, pc / s, B / s) scales every link EE ln(1 + g p) / (pc + p) at the
    # powers p / s by s, so the level scales by s
    gains = draw_gain_rows(3, 200, 4)
    pc = 0.25 + 1.75 * stream_uniforms(3, 200, 4, 1)
    _powers, level = wmee_rows(gains, pc, 2.0)
    for s in 10.0 ** np.arange(-6, 7):
        _scaled_powers, scaled = wmee_rows(gains * s, pc / s, 2.0 / s)
        np.testing.assert_allclose(scaled, s * level, rtol=1e-12, atol=0.0, err_msg=f"s = {s}")


@pytest.mark.parametrize("solver", [wsee_rows, wpee_rows, wmee_rows])
def test_wmee_rows_name_the_first_bad_row(solver):
    gains = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, math.nan]])
    with pytest.raises(ValueError, match="row 1: "):
        solver(gains, 1.0, 1.0)
    with pytest.raises(ValueError, match="row 0: .*pc \\[1. 0.\\]"):
        solver(gains[:1], [[1.0, 0.0]], 1.0)
    with pytest.raises(ValueError, match="budget"):
        solver(gains[:1], 1.0, 0.0)
    with pytest.raises(ValueError, match="non-empty \\(rows, n\\)"):
        solver(gains[0], 1.0, 1.0)


def test_wpee_rows_name_the_first_row_with_a_zero_gain():
    gains = np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 3.0]])
    with pytest.raises(InfeasibleError, match="^row 1: product objective is degenerate") as err:
        wpee_rows(gains, 1.0, 1.0)
    assert err.value.row == 1
    # the sum and max-min objectives take a zero-gain link
    for solver in (wsee_rows, wmee_rows):
        powers, _objective = solver(gains, 1.0, 1.0)
        assert powers[1, 1] == 0.0 and powers[2, 0] == 0.0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "solver, one_row", [(wsee_rows, wsee_ascent), (wpee_rows, wpee_ascent), (wmee_rows, wmee_maxmin)]
)
def test_budgeted_rows_equal_their_one_row_calls(solver, one_row, seed):
    # circuit powers per (row, link) and, alone, per link; budgets from far
    # below the peaks to above them
    rng = np.random.default_rng(seed)
    rows, n = 12, int(rng.integers(1, 6))
    gains = 10.0 ** rng.uniform(-3.0, 3.0, (rows, n))
    pc = 10.0 ** rng.uniform(-1.0, 1.0, (rows, n))
    budget = float(10.0 ** rng.uniform(-4.0, 1.0) * n)
    powers, objective = solver(gains, pc, budget)
    assert powers.shape == (rows, n) and objective.shape == (rows,)
    for r in range(rows):
        alone_powers, alone_objective = solver(gains[r : r + 1], pc[r], budget)
        np.testing.assert_array_equal(alone_powers[0], powers[r])
        assert alone_objective[0] == objective[r]
        alloc = one_row(gains[r], pc[r], budget)
        np.testing.assert_array_equal(alloc.powers, powers[r])
        assert alloc.objective == objective[r]
        assert powers[r].sum() <= budget * (1.0 + 1e-12)


def test_ascent_unconstrained_budget_returns_per_link_optima():
    gains, pcs = [1.0, 2.0, 0.7], [1.0, 0.5, 2.0]
    expected = [eepa(g, pc) for g, pc in zip(gains, pcs)]
    for solver in (wsee_ascent, wpee_ascent):
        alloc = solver(gains, pcs, 1e6)
        np.testing.assert_allclose(alloc.powers, expected, atol=1e-6)


def test_ascent_single_link_matches_eepa():
    alloc = wsee_ascent([1.0], [1.0], 10.0)
    assert alloc.powers[0] == pytest.approx(E - 1.0, abs=1e-6)
    alloc = wpee_ascent([1.0], [1.0], 10.0)
    assert alloc.powers[0] == pytest.approx(E - 1.0, abs=1e-6)


def _two_link_grid(objective, gains, pcs, budget, step=0.01):
    axis = np.arange(0.0, budget + step / 2, step)
    best = -np.inf
    for p0 in axis:
        grid = axis[axis <= budget - p0 + 1e-12]
        t0 = math.log1p(gains[0] * p0) / (pcs[0] + p0)
        t1 = np.log1p(gains[1] * grid) / (pcs[1] + grid)
        vals = t0 + t1 if objective == "sum" else t0 * t1
        if vals.size:
            best = max(best, float(vals.max()))
    return best


def test_wsee_beats_grid_on_reference_instance():
    gains, pcs = [1.0, 2.0], [1.0, 0.5]
    alloc = wsee_ascent(gains, pcs, 1.0)
    best = _two_link_grid("sum", gains, pcs, 1.0)
    assert alloc.objective >= best - 1e-3
    assert alloc.powers.sum() <= 1.0 + 1e-9


def test_wpee_beats_grid_on_reference_instance():
    gains, pcs = [1.0, 2.0], [1.0, 0.5]
    alloc = wpee_ascent(gains, pcs, 1.0)
    best = _two_link_grid("product", gains, pcs, 1.0)
    assert alloc.objective >= best - 1e-3
    assert np.all(alloc.powers > 0.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi):
    """Golden-section maximizer of a unimodal f on [lo, hi], the line search
    of `reference_budget_ascent`."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(120):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        if b - a <= 1e-13 * (1.0 + abs(a) + abs(b)):
            break
    return (x1, f1) if f1 >= f2 else (x2, f2)


def reference_budget_ascent(gains, pcs, p_total, log_terms):
    """The sum/product ascent with the line search it had before the exact
    pair step: each pair scans 33 points of its transfer interval and refines
    the best one's neighbourhood by golden section. Every term is
    ee_of(g, max(p, 0), pc), the scan is np.linspace and its best point
    np.argmax. Objective sums run left to right from link 0 (what `sum`
    computes before Python 3.12, which compensates sums of Python floats)."""
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size != len(pcs) or not np.all(np.isfinite(g) & (g >= 0.0)):
        raise ValueError("need one finite, non-negative gain per circuit power")
    if not (math.isfinite(p_total) and p_total > 0.0):
        raise ValueError(f"p_total must be positive and finite, got {p_total}")
    if log_terms and np.any(g == 0.0):
        raise InfeasibleError("product objective is degenerate when a link has zero gain")
    n = g.size
    peaks = np.array([eepa(g[i], pcs[i]) for i in range(n)])

    def term(i, p):
        v = ee_of(g[i], max(p, 0.0), pcs[i])
        if log_terms:
            return math.log(v) if v > 0.0 else -math.inf
        return v

    def total(p):
        s = 0
        for i in range(n):
            s = s + term(i, p[i])
        return s

    p = peaks
    s = float(p.sum())
    if s <= p_total:
        obj = total(p)
        return Allocation(p, math.exp(obj) if log_terms else obj)
    p *= p_total / s
    obj = total(p)
    for _ in range(500):
        for i in range(n):
            for j in range(i + 1, n):
                t_lo, t_hi = -p[i], p[j]
                if t_hi - t_lo <= 1e-12:
                    continue

                def shifted(t, i=i, j=j):
                    return term(i, p[i] + t) + term(j, p[j] - t)

                ts = np.linspace(t_lo, t_hi, 33)
                vals = [shifted(t) for t in ts]
                k = int(np.argmax(vals))
                t_star, best = _golden_max(shifted, ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)])
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
    pcs = [10.0 ** draw(st.floats(-1.0, 1.0)) for _ in gains]
    peaks = sum(eepa(g, pc) for g, pc in zip(gains, pcs))
    # binding budgets run the transfer sweeps; slack ones return the peaks
    budget = peaks * draw(st.floats(0.05, 0.95) | st.floats(1.0, 2.0))
    return log_terms, gains, pcs, budget


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ascent_instances())
@example((False, [0.0, 1.0, 2.0], [1.0, 1.0, 0.5], 1.0))
@example((True, [1.0, 2.0], [1.0, 0.5], 1.0))
def test_ascent_scores_at_least_the_golden_section_reference(case):
    log_terms, gains, pcs, budget = case
    alloc = (wpee_ascent if log_terms else wsee_ascent)(gains, pcs, budget)
    ref = reference_budget_ascent(gains, pcs, budget, log_terms)
    if log_terms:
        # 1e-12 relative in the product is 1e-12 absolute in its log
        assert math.log(alloc.objective) >= math.log(ref.objective) - 1e-12
    else:
        assert alloc.objective >= ref.objective * (1.0 - 1e-12)
    assert alloc.powers.sum() <= budget * (1.0 + 1e-12)


def _term_slope(link, x, log_terms):
    """A link term's slope at x and the sum of the magnitudes it is formed
    from (the scale its rounding error is relative to)."""
    g, pc = link
    rate, gain = np.log1p(g * x), g * (pc + x) / (1.0 + g * x)
    if log_terms:
        return (gain / rate - 1.0) / (pc + x), (gain / rate + 1.0) / (pc + x)
    return (gain - rate) / (pc + x) ** 2, (gain + rate) / (pc + x) ** 2


def _random_pairs(rng, count, gains=(-6.0, 6.0), pcs=(-1.0, 1.0)):
    """(log_terms, link_i, link_j, pi, pj) as the ascent meets them: gains
    10^U(gains), circuit powers 10^U(pcs), each power in [0, peak] and
    sometimes 0, not both 0."""
    pairs = []
    while len(pairs) < count:
        log_terms = bool(rng.integers(2))
        links, powers = [], []
        for _ in range(2):
            g, pc = 10.0 ** rng.uniform(*gains), 10.0 ** rng.uniform(*pcs)
            links.append((g, pc))
            powers.append(0.0 if rng.random() < 0.15 else rng.uniform(0.0, 1.0) * float(eepa(g, pc)))
        pi, pj = powers
        if pi + pj > 0.0:
            pairs.append((log_terms, links[0], links[1], pi, pj))
    return pairs


def reference_slopes(link, x, log_terms):
    """Derivatives T', T'' at x of a link (g, pc)'s term L / D or its log,
    with L = log1p(g x) and D = pc + x; a log term's T' is +inf where L = 0.
    The ascent's slopes as a function of their own, before it computed them
    inline."""
    g, pc = link
    d, rate, d1 = pc + x, math.log1p(g * x), g / (1.0 + g * x)
    if log_terms:
        if rate <= 0.0:
            return math.inf, -math.inf
        r = d1 / rate
        return r - 1.0 / d, -r * r - d1 * d1 / rate + 1.0 / (d * d)
    rise = d1 * d - rate
    return rise / (d * d), -(d1 * d1 * d * d + 2.0 * rise) / (d * d * d)


def reference_pair_step(link_i, link_j, pi, pj, log_terms, predict=True, seen=None):
    """The exact pair step as it was written on `reference_slopes`, one
    call per link and Newton step, over the transfer interval [-pi, pj], and
    the number of slope evaluations it took (one call per link each). With
    predict=False it stops only on a step or bracket of at most tol, as the
    ascent did before it stopped on its predicted Newton error. A set `seen`
    gets where each step fell: "nan", "step >= t" or "step < t"."""
    tol, a, b, t, s_prev = 1e-15 * (pi + pj), -pi, pj, 0.0, 0.0
    a_open = b_open = True
    for evaluations in range(1, 101):
        xi, xj = pi + t, pj - t
        d1i, d2i = reference_slopes(link_i, xi, log_terms)
        d1j, d2j = reference_slopes(link_j, xj, log_terms)
        d1 = d1i - d1j
        if d1 > 0.0:
            a, a_open = t, False
        elif d1 < 0.0:
            b, b_open = t, False
        if d1 == 0.0 or b - a <= tol:
            return t, evaluations
        d2 = d2i + d2j
        step = t - d1 / d2 if d2 < 0.0 else math.nan
        s = abs(step - t)
        if seen is not None:
            seen.add("nan" if math.isnan(step) else "step >= t" if step >= t else "step < t")
        if s <= tol or (predict and s * s * s <= 1e-15 * min(xi, xj) * s_prev * s_prev):
            return min(max(step, a), b), evaluations
        if a < step < b:
            s_prev = s
        else:
            s_prev = 0.0
            step = b if step >= b and b_open else a if step <= a and a_open else 0.5 * (a + b)
        t = step
    return t, evaluations


def confirmed_pair_step(link_i, link_j, pi, pj, log_terms):
    """`reference_pair_step` with the stop that spends one more evaluation
    to confirm a converged Newton step."""
    return reference_pair_step(link_i, link_j, pi, pj, log_terms, predict=False)


def reference_row_ascent(g, pc, peaks, p_total, log_terms, counts):
    """(powers, objective) of the pair ascent on one row's links, with every
    term and total recomputed by a call, on `reference_pair_step`. Adds the
    pairs it skips for a short interval and the rows that sweep to
    `counts`."""
    n = g.size
    gs, pcs = g.tolist(), pc.tolist()
    links = list(zip(gs, pcs))

    def term(i, x):
        if x < 0.0:
            x = 0.0
        v = math.log1p(gs[i] * x) / (pcs[i] + x)
        if log_terms:
            return math.log(v) if v > 0.0 else -math.inf
        return v

    def total(p):
        s = 0.0
        for i in range(n):
            s += term(i, p[i])
        return s

    s = float(peaks.sum())
    if s <= p_total:
        obj = total(peaks.tolist())
        return peaks, math.exp(obj) if log_terms else obj
    counts["sweeping rows"] += 1
    p = (peaks * (p_total / s)).tolist()
    obj = total(p)
    for _ in range(500):
        for i in range(n):
            for j in range(i + 1, n):
                pi, pj = p[i], p[j]
                if pj - (-pi) <= 1e-12:
                    counts["skipped pairs"] += 1
                    continue
                t_star, _ = reference_pair_step(links[i], links[j], pi, pj, log_terms)
                if term(i, pi + t_star) + term(j, pj - t_star) > term(i, pi) + term(j, pj):
                    p[i], p[j] = pi + t_star, pj - t_star
        new = total(p)
        if new - obj <= 1e-9:
            obj = max(obj, new)
            break
        obj = new
    return np.maximum(p, 0.0), math.exp(obj) if log_terms else obj


def reference_rows(gains, pc, budget, log_terms, counts):
    """`wsee_rows`/`wpee_rows` as one `reference_row_ascent` per row."""
    g, pc, peaks = allocator._link_rows(gains, pc, budget)
    powers, objective = np.empty_like(peaks), np.empty(g.shape[0])
    for r in range(g.shape[0]):
        powers[r], objective[r] = reference_row_ascent(g[r], pc[r], peaks[r], budget, log_terms, counts)
    return powers, objective


@pytest.mark.parametrize("log_terms", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_ascent_rows_equal_the_reference_bit_for_bit(seed, log_terms):
    # 2-6 links, budgets from 1e-6 to above the sum of the peaks and, where
    # the 1e-12 pair skip decides, below 1e-12; for the sum, zero gains
    # (whose 0 W peaks shut their pair intervals)
    rng = np.random.default_rng(seed)
    counts = {"sweeping rows": 0, "skipped pairs": 0}
    for batch in range(60):
        rows, n = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        gains = 10.0 ** rng.uniform(-4.0, 4.0, (rows, n))
        if not log_terms:
            gains[rng.random((rows, n)) < 0.1] = 0.0
        pc = 10.0 ** rng.uniform(-1.0, 1.0, (rows, n))
        peaks = allocator._peaks(gains, pc)
        budget = float(10.0 ** rng.uniform(-6.0, 0.5) * peaks.sum(axis=1).max())
        if batch % 6 == 0:
            budget = float(10.0 ** rng.uniform(-13.0, -12.0))
        powers, objective = (wpee_rows if log_terms else wsee_rows)(gains, pc, budget)
        ref_powers, ref_objective = reference_rows(gains, pc, budget, log_terms, counts)
        assert powers.tobytes() == ref_powers.tobytes()
        assert objective.tobytes() == ref_objective.tobytes()
    assert counts["sweeping rows"] > 50 and counts["skipped pairs"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_pair_step_is_exact_on_random_pairs(seed):
    for log_terms, link_i, link_j, pi, pj in _random_pairs(np.random.default_rng(seed), 100):

        def phi(t):
            x, y = np.maximum(pi + t, 0.0), np.maximum(pj - t, 0.0)
            u = np.log1p(link_i[0] * x) / (link_i[1] + x)
            v = np.log1p(link_j[0] * y) / (link_j[1] + y)
            with np.errstate(divide="ignore"):
                return np.log(u) + np.log(v) if log_terms else u + v

        t = allocator._pair_step(*link_i, *link_j, pi, pj, log_terms)
        assert -pi <= t <= pj
        grid = phi(np.linspace(-pi, pj, 4001)).max()
        assert phi(t) >= grid - 1e-12 * (1.0 if log_terms else abs(grid))
        (si, scale_i), (sj, scale_j) = _term_slope(link_i, pi + t, log_terms), _term_slope(link_j, pj - t, log_terms)
        slope, scale = si - sj, scale_i + scale_j
        # stationary, or an end that the slope points out of
        assert abs(slope) <= 1e-10 * scale or (t == -pi and slope < 0.0) or (t == pj and slope > 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_pair_step_equals_the_reference_bit_for_bit(seed):
    # the default draw, then the physical range (gains 10^U(-12, 12), circuit
    # powers 10^U(-4, 4)): the pairs reach a NaN step (phi'' >= 0, which
    # bisects) and a step on each side of t, the branches of the step length
    # that the pair step forms by comparisons, not abs. No drawn pair stops
    # on a step outside its bracket, so the clip's outer branches go
    # unexercised
    rng, seen = np.random.default_rng(seed), set()
    pairs = _random_pairs(rng, 100) + _random_pairs(rng, 100, gains=(-12.0, 12.0), pcs=(-4.0, 4.0))
    for log_terms, link_i, link_j, pi, pj in pairs:
        t = allocator._pair_step(*link_i, *link_j, pi, pj, log_terms)
        assert t.hex() == reference_pair_step(link_i, link_j, pi, pj, log_terms, seen=seen)[0].hex()
    assert {"nan", "step >= t", "step < t"} <= seen


def _count_pair_steps(monkeypatch):
    """Counts of the transfers `allocator._pair_step` makes and of the slope
    evaluations (one log1p of each link) they take, from here to the end of
    the test: `allocator` gets a `math` whose log1p counts the calls made
    inside a transfer."""
    counts = {"transfers": 0, "evaluations": 0.0}
    inside = []
    step = allocator._pair_step

    def log1p(x):
        if inside:
            counts["evaluations"] += 0.5
        return math.log1p(x)

    def counted_step(*args):
        counts["transfers"] += 1
        inside.append(True)
        try:
            return step(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(allocator, "math", types.SimpleNamespace(**{**vars(math), "log1p": log1p}))
    monkeypatch.setattr(allocator, "_pair_step", counted_step)
    return counts


def _pair_objective(link_i, link_j, pi, pj, t, log_terms):
    """T_i(pi + t) + T_j(pj - t) on Python floats, as the ascent forms it,
    and |T_i| + |T_j| (the scale its rounding error is relative to: two log
    terms can nearly cancel)."""
    terms = [math.log1p(g * x) / (pc + x) for (g, pc), x in ((link_i, pi + t), (link_j, pj - t))]
    if log_terms:
        terms = [math.log(v) if v > 0.0 else -math.inf for v in terms]
    return terms[0] + terms[1], abs(terms[0]) + abs(terms[1])


@pytest.mark.parametrize("seed", range(4))
def test_predicted_stop_scores_as_the_confirmed_stop_in_no_more_evaluations(monkeypatch, seed):
    # 5000 pairs per seed across the physical range: stopping on the
    # predicted Newton error can move t, but it costs the pair objective no
    # more than its rounding. A predicted error held to 1e-15 (pi + pj), not
    # to the smaller power, fails here: a step from far off lands near an
    # end, the next step is small next to it, and the pair stops 7 % short
    counts = _count_pair_steps(monkeypatch)
    pairs = _random_pairs(np.random.default_rng(seed), 5000, gains=(-12.0, 12.0), pcs=(-4.0, 4.0))
    for log_terms, link_i, link_j, pi, pj in pairs:
        before = counts["evaluations"]
        t = allocator._pair_step(*link_i, *link_j, pi, pj, log_terms)
        t_confirmed, confirmed_evaluations = confirmed_pair_step(link_i, link_j, pi, pj, log_terms)
        assert -pi <= t <= pj
        phi, _ = _pair_objective(link_i, link_j, pi, pj, t, log_terms)
        phi_confirmed, scale = _pair_objective(link_i, link_j, pi, pj, t_confirmed, log_terms)
        assert phi >= phi_confirmed - 1e-15 * scale
        assert counts["evaluations"] - before <= confirmed_evaluations


@pytest.mark.parametrize("solver", [wsee_rows, wpee_rows])
def test_pair_steps_stay_within_their_evaluation_budget(monkeypatch, solver):
    # the rows of `fairness --trials 40` at seed 1, the benchmark workload:
    # the confirmed stop takes 3.40 (WSEE) and 3.64 (WPEE) slope evaluations
    # per transfer on them, the predicted stop 2.58 and 2.67, over the same
    # transfers
    gains = draw_gain_rows(1, 40, 4)
    pc = 0.25 + 1.75 * stream_uniforms(1, 40, 4, 1)
    confirmed = []

    def confirmed_step(gi, ci, gj, cj, pi, pj, log_terms):
        t, evaluations = confirmed_pair_step((gi, ci), (gj, cj), pi, pj, log_terms)
        confirmed.append(evaluations)
        return t

    with monkeypatch.context() as m:
        m.setattr(allocator, "_pair_step", confirmed_step)
        solver(gains, pc, 2.0)
    counts = _count_pair_steps(monkeypatch)
    solver(gains, pc, 2.0)
    assert counts["transfers"] == len(confirmed)
    assert counts["evaluations"] / counts["transfers"] <= 2.8 < sum(confirmed) / len(confirmed)


def test_pair_step_calls_no_builtin_but_log1p():
    # on the rows of `fairness --trials 40` at seed 1: the Newton loop forms
    # its step length and clip by comparisons, since a builtin call
    # (abs, min, max) costs more there than the float arithmetic beside it
    gains = draw_gain_rows(1, 40, 4)
    pc = 0.25 + 1.75 * stream_uniforms(1, 40, 4, 1)
    code, called = allocator._pair_step.__code__, set()

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is code:
            called.add(arg)

    sys.setprofile(profile)
    try:
        wsee_rows(gains, pc, 2.0)
        wpee_rows(gains, pc, 2.0)
    finally:
        sys.setprofile(None)
    assert called == {math.log1p}


def test_pair_step_slopes_match_finite_differences():
    rng = np.random.default_rng(7)
    for log_terms, link, _, x, _ in _random_pairs(rng, 200):
        x = max(x, 1e-3 / link[0])
        h = 1e-4 * x
        below, above = (reference_slopes(link, x + k * h, log_terms)[0] for k in (-1, 1))
        slope, curve = reference_slopes(link, x, log_terms)
        expected, scale = _term_slope(link, x, log_terms)
        assert slope == pytest.approx(expected, rel=1e-9, abs=1e-12 * scale)
        assert curve == pytest.approx((above - below) / (2.0 * h), rel=1e-5)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("solver", [wsee_ascent, wpee_ascent, wmee_maxmin])
def test_budgeted_solvers_reject_bad_budget(solver, bad):
    with pytest.raises(ValueError, match="^budget must be positive and finite"):
        solver([1.0, 2.0], [1.0] * 2, bad)
    # and a circuit power that is not positive and finite, naming it
    with pytest.raises(ValueError, match=r"^row 0: need finite gains g >= 0 and circuit powers pc > 0: .*pc \["):
        solver([1.0, 2.0], [1.0, bad if bad != math.inf else -1.0], 1.0)


def test_wpee_rejects_zero_gain():
    with pytest.raises(InfeasibleError, match="^row 0: product objective is degenerate") as err:
        wpee_ascent([0.0, 1.0], [1.0] * 2, 1.0)
    assert err.value.row == 0


@pytest.mark.parametrize("solver", [wsee_rows, wpee_rows, wmee_rows])
def test_row_solvers_name_the_row_whose_peak_power_overflows(solver):
    gains = [[1.0, 2.0], [1e300, 1.0], [1e300, 1e300]]
    # the first row whose g pc overflows, with no warning
    with pytest.raises(ValueError, match=r"^row 1: gain times circuit power overflows the EE-optimal power: g \["):
        solver(gains, 1e10, 1.0)


def test_link_mismatch_raises():
    for solver in (wsee_ascent, wpee_ascent, wmee_maxmin):
        for pcs in ([1.0], [1.0] * 3, 1.0, [[1.0, 1.0]]):
            with pytest.raises(ValueError, match=r"^need .* one pc per gain, got shapes \(2,\), "):
                solver([1.0, 2.0], pcs, 1.0)
        with pytest.raises(ValueError, match="non-empty 1-D gain sequence"):
            solver([[1.0, 2.0]], [[1.0, 2.0]], 1.0)
    with pytest.raises(ValueError):
        wmee_maxmin([1.0], [1.0], 0.0)


def test_allocation_powers_are_arrays():
    alloc = Allocation([0.1, 0.2], 1.0)
    assert isinstance(alloc.powers, np.ndarray)
