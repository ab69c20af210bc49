import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eepower import cli, oracle
from eepower.allocator import wpa
from eepower.errors import InfeasibleError
from eepower.oracle import OBJECTIVES, GridSpec, grid_argmax

E = math.e


def reference_argmax(objective, gains, pcs, grid, budget=None):
    """Per-point brute force: every objective value computed at every point of
    the full meshgrid, first maximum in row-major order."""
    g = np.asarray(gains, dtype=float)
    pc = np.asarray(pcs, dtype=float)
    axis = grid.axis()
    coords = [m.ravel() for m in np.meshgrid(*([axis] * g.size), indexing="ij")]
    se = [np.log1p(g[i] * coords[i]) for i in range(g.size)]
    if objective == "sumrate":
        value = sum(se)
    elif objective == "gee":
        value = sum(se) / (pc[0] + sum(coords))
    else:
        ee = [se[i] / (pc[i] + coords[i]) for i in range(g.size)]
        if objective == "wsee":
            value = sum(ee)
        else:
            value = ee[0]
            for v in ee[1:]:
                value = value * v if objective == "wpee" else np.minimum(value, v)
    if budget is not None:
        tail_sum = np.zeros_like(coords[0])
        for t in coords[1:]:
            tail_sum = tail_sum + t
        value = np.where(coords[0] + tail_sum <= budget + 1e-12 * (1.0 + abs(budget)), value, -np.inf)
    k = int(np.argmax(value))
    if value[k] == -np.inf:
        raise InfeasibleError("no grid point satisfies the budget")
    return float(value[k]), np.array([c[k] for c in coords])


@st.composite
def grid_instances(draw):
    objective = draw(st.sampled_from(OBJECTIVES))
    n = draw(st.integers(1, 3))
    steps = draw(st.integers(2, {1: 400, 2: 120, 3: 30}[n]))
    gains = [10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(n)]
    pcs = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    p_max = 10.0 ** draw(st.floats(-2.0, 2.0))
    p_min = draw(st.sampled_from([0.0, 0.1, 0.5])) * p_max
    # gee takes no budget
    budget = None if objective == "gee" else draw(st.none() | st.floats(0.1, 1.2).map(lambda f: f * n * p_max))
    # row blocks from one row of the first axis to the whole grid, most of
    # them not dividing steps
    block = draw(st.integers(1, steps**n))
    return objective, gains, pcs, GridSpec(p_min, p_max, steps), budget, block


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(grid_instances())
# blocks of 131 rows, the last one short
@example(("wsee", [0.3, 2.0], [1.0, 0.5], GridSpec(0.0, 2.0, 1000), 1.5, oracle._BLOCK))
# the best power sum rounds differently as p0 + (p1 + p2)
@example(("gee", [2.8, 2.3, 2.1], [1.1] * 3, GridSpec(0.0, 1.0, 20), None, 3 * 20**2))
# the budget's slack is the grid sum 2.4 + 1.2 to the last bit, and the
# searchsorted estimate of row 2.4's feasible prefix stops one point short
@example(("wsee", [0.28, 1.33], [1.0] * 2, GridSpec(0.0, 3.0, 6), 3.5999999999953998, oracle._BLOCK))
# the best values of rows 2 and 1 differ in the last ulp (the diagonal
# optimum sits halfway between grid points), so the row holding the maximum
# has a surrogate within rounding of zero
@example(("gee", [0.83, 0.83], [2.0394982822031116] * 2, GridSpec(0.0, 4.0, 4), None, oracle._BLOCK))
# every value is 0, so every row with a feasible point is a candidate, one
# row per block
@example(("sumrate", [0.0, 0.0, 0.0], [1.0] * 3, GridSpec(0.1, 1.0, 5), 2.0, 5))
# a zero-gain first link makes every value 0
@example(("wpee", [0.0, 1.5, 0.7], [1.0, 0.5, 2.0], GridSpec(0.0, 1.0, 9), 1.5, oracle._BLOCK))
# the first link sets the minimum, so the last axis ties along most of a row
@example(("wmee", [0.05, 40.0], [1.0] * 2, GridSpec(0.0, 2.0, 41), None, oracle._BLOCK))
# `eepower verify --objective sumrate --dims 3 --seed 5` on a coarser grid:
# the row with the largest upper bound has no feasible point
@example(("sumrate", [0.7589964250758349, 1.7010341640555473, 0.3228188687382762],
          [0.5311270256485778, 0.6849325902073293, 1.3474897353633186],
          GridSpec(0.0, 1.5, 101), 1.5, oracle._BLOCK))
# a zero last-link gain: every wpee value is 0, and so is every bound
@example(("wpee", [0.9, 1.3, 0.0], [1.0, 0.5, 2.0], GridSpec(0.1, 1.0, 13), 1.2, oracle._BLOCK))
# p_min > 0 and a slack equal to the grid sum 0.45 + (0.36 + 0.63) to the
# last bit, which rounds to just below 18 spacings above 3 p_min
@example(("sumrate", [7.4, 7.4, 4.8], [1.0] * 3, GridSpec(0.27, 0.9, 8), 1.43999999999756, oracle._BLOCK))
def test_grid_argmax_is_bitwise_the_per_point_search(case):
    objective, gains, pcs, grid, budget, block = case
    with mock.patch.object(oracle, "_BLOCK", block):
        try:
            alloc = grid_argmax(objective, gains, pcs, grid, budget)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                reference_argmax(objective, gains, pcs, grid, budget)
            return
    value, powers = reference_argmax(objective, gains, pcs, grid, budget)
    assert alloc.objective == value
    np.testing.assert_array_equal(alloc.powers, powers)


@pytest.mark.parametrize(
    "objective, gains, grid, budget",
    [
        ("gee", [0.7, 2.4], GridSpec(0.0, 4.0, 2001), None),
        ("sumrate", [0.7, 2.4], GridSpec(0.0, 1.0, 2001), 1.0),
        ("gee", [0.7, 2.4, 1.1], GridSpec(0.0, 4.0, 101), None),
        ("sumrate", [0.7, 2.4, 1.1], GridSpec(0.0, 1.5, 101), 1.5),
        ("wsee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
        ("wpee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
        ("wmee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
    ],
    ids=["gee", "sumrate", "gee-dims3", "sumrate-dims3", "wsee-dims3", "wpee-dims3", "wmee-dims3"],
)
def test_verify_size_grid_is_bitwise_the_per_point_search(objective, gains, grid, budget):
    # the grids `eepower verify --dims 2` searches, and at dims 3 the verify
    # grids with a third of their steps
    pcs = [1.3, 0.8, 1.1][: len(gains)]
    alloc = grid_argmax(objective, gains, pcs, grid, budget)
    value, powers = reference_argmax(objective, gains, pcs, grid, budget)
    assert alloc.objective == value
    np.testing.assert_array_equal(alloc.powers, powers)


@pytest.mark.parametrize("objective", ["gee", "sumrate", "wsee", "wpee", "wmee"])
def test_screen_keeps_few_rows_of_the_verify_grids(objective, capsys):
    # over the dims-3 grids `eepower verify` searches at seeds 1-20 (301
    # steps), the rows whose feasible prefix is found exactly or, for gee
    # (no budget), the rows the Dinkelbach steps keep
    counted = []
    name = "_gee_candidates" if objective == "gee" else "_feasible_prefix"
    rows_of = getattr(oracle, name)

    def count(*args):
        rows = rows_of(*args)
        counted.append(rows.size)
        return rows

    with mock.patch.object(oracle, name, count):
        for seed in range(1, 21):
            assert cli.main(["verify", "--objective", objective, "--dims", "3", "--seed", str(seed), "--trials", "1"]) == 0
    capsys.readouterr()
    assert len(counted) == 20
    assert max(counted) <= 0.1 * 301**2


def test_budget_must_be_a_number():
    pcs = [1.0] * 2
    grid = GridSpec(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="budget"):
        grid_argmax("sumrate", [1.0, 2.0], pcs, grid, budget=math.nan)
    # a budget above every grid sum keeps every point, however large
    for objective in ("sumrate", "wpee"):
        free = grid_argmax(objective, [1.0, 2.0], pcs, grid)
        for budget in (math.inf, 1e300):
            alloc = grid_argmax(objective, [1.0, 2.0], pcs, grid, budget)
            assert alloc.objective == free.objective
            np.testing.assert_array_equal(alloc.powers, free.powers)
    # except for gee, which takes none
    for budget in (math.inf, 1e300):
        with pytest.raises(ValueError, match="budget"):
            grid_argmax("gee", [1.0, 2.0], pcs, grid, budget)


def test_gee_takes_no_budget():
    pcs = [1.0] * 3
    for budget in (0.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="gee takes no budget"):
            grid_argmax("gee", [1.0, 2.0], pcs[:2], GridSpec(0.0, 1.0, 11), budget)
    # checked up front, before the grid's size
    with pytest.raises(ValueError, match="gee takes no budget"):
        grid_argmax("gee", [1.0] * 3, pcs, GridSpec(0.0, 1.0, 1000), 1.0)


def test_gain_that_overflows_on_the_grid_is_rejected():
    pcs = [1.0] * 2
    for objective in ("wpee", "sumrate", "wsee", "gee"):
        with pytest.raises(ValueError, match="gain of link 0 overflows"):
            grid_argmax(objective, [1e308, 0.5], pcs, GridSpec(0.0, 10.0, 11))
    with pytest.raises(ValueError, match="gain of link 1 overflows"):
        grid_argmax("sumrate", [0.5, 1e300], pcs, GridSpec(0.0, 1e10, 11), budget=1.0)
    # the largest gain whose product with p_max is finite is searched
    alloc = grid_argmax("sumrate", [0.5, 1.7e308], pcs, GridSpec(0.0, 1.0, 11))
    assert math.isfinite(alloc.objective)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(-0.1, 1.0, 10)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    # a non-finite end, whose axis linspace would fill with NaN
    for p_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^p_max must be finite, got (inf|nan)$"):
            GridSpec(0.0, p_max, 5)
    with pytest.raises(ValueError, match=r"^p_min must be finite, got inf$"):
        GridSpec(math.inf, math.inf, 5)
    # a non-integer count of points, which linspace would reject
    for steps in (2.5, 3.0):
        with pytest.raises(ValueError, match="steps must be an integer"):
            GridSpec(0.0, 1.0, steps)


def test_ee_siso_argmax_near_closed_form():
    # one link's EE is the one-link wsee
    alloc = grid_argmax("wsee", [1.0], [1.0], GridSpec(0.0, 5.0, 5001))
    assert abs(alloc.powers[0] - (E - 1.0)) <= 1e-3
    assert alloc.objective <= 1.0 / E + 1e-12


def test_gee_single_dimension_equals_ee_siso():
    grid = GridSpec(0.0, 5.0, 5001)
    a = grid_argmax("wsee", [1.0], [1.0], grid)
    b = grid_argmax("gee", [1.0], [1.0], grid)
    assert a.powers[0] == b.powers[0]
    assert a.objective == pytest.approx(b.objective, abs=1e-15)


def test_sumrate_budget_matches_wpa():
    gains = [1.0, 2.0]
    wf = wpa(gains, 0.25)
    grid = GridSpec(0.0, 1.0, 1001)
    alloc = grid_argmax("sumrate", gains, [1.0] * 2, grid, budget=0.5)
    spacing = (grid.p_max - grid.p_min) / (grid.steps - 1)
    np.testing.assert_allclose(alloc.powers, wf.powers, atol=spacing + 1e-12)


def test_refining_grid_never_decreases_best_value():
    gains = [1.0, 2.0]
    pcs = [1.0, 0.5]
    coarse = grid_argmax("wsee", gains, pcs, GridSpec(0.0, 2.0, 101), budget=1.5)
    fine = grid_argmax("wsee", gains, pcs, GridSpec(0.0, 2.0, 201), budget=1.5)
    assert fine.objective >= coarse.objective


def test_repeat_calls_are_identical():
    gains = [0.7, 1.3]
    pcs = [0.9, 1.1]
    a = grid_argmax("wmee", gains, pcs, GridSpec(0.0, 2.0, 301), budget=1.0)
    b = grid_argmax("wmee", gains, pcs, GridSpec(0.0, 2.0, 301), budget=1.0)
    np.testing.assert_array_equal(a.powers, b.powers)
    assert a.objective == b.objective


def test_tie_break_toward_smallest_power():
    # zero gain makes the sum rate flat; smallest grid point must win
    alloc = grid_argmax("sumrate", [0.0], [1.0], GridSpec(0.0, 1.0, 11))
    assert alloc.powers[0] == 0.0
    alloc = grid_argmax("sumrate", [0.0, 0.0], [1.0] * 2, GridSpec(0.0, 1.0, 11))
    np.testing.assert_array_equal(alloc.powers, [0.0, 0.0])


@pytest.mark.parametrize("budget", [None, 2.5])
@pytest.mark.parametrize("block", [11 * 11, 3 * 11 * 11, oracle._BLOCK])
def test_tie_break_across_row_blocks(budget, block):
    pcs = [1.0] * 3
    with mock.patch.object(oracle, "_BLOCK", block):
        flat = grid_argmax("sumrate", [0.0] * 3, pcs, GridSpec(0.2, 1.0, 11), budget)
        # link 0's EE exceeds the other links' best from p0 = 0.1 on, so the
        # max-min value is the same float on rows 1..10 of the first axis
        # (1..5 under the budget)
        plateau = grid_argmax("wmee", [100.0, 0.1, 0.1], pcs, GridSpec(0.0, 1.0, 11), budget)
    np.testing.assert_array_equal(flat.powers, [0.2, 0.2, 0.2])
    assert flat.objective == 0.0
    np.testing.assert_array_equal(plateau.powers, [0.1, 1.0, 1.0])
    value, _ = reference_argmax("wmee", [100.0, 0.1, 0.1], pcs, GridSpec(0.0, 1.0, 11), budget)
    assert plateau.objective == value


def test_three_dimension_search():
    gains = [0.5, 1.0, 2.0]
    pcs = [1.0] * 3
    grid = GridSpec(0.0, 3.0, 61)
    alloc = grid_argmax("sumrate", gains, pcs, grid, budget=3.0)
    wf = wpa(gains, 1.0)
    assert alloc.objective <= wf.objective + 1e-12
    spacing = (grid.p_max - grid.p_min) / (grid.steps - 1)
    np.testing.assert_allclose(alloc.powers, wf.powers, atol=2 * spacing)


def test_guards():
    with pytest.raises(ValueError):
        grid_argmax("sumrate", [1.0] * 4, [1.0] * 4, GridSpec(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        grid_argmax("gee", [1.0] * 3, [1.0] * 3, GridSpec(0.0, 1.0, 1000))
    # the one-link EE is "wsee"; the oracle has no objective of its own for it
    with pytest.raises(ValueError, match="unknown objective 'ee_siso'"):
        grid_argmax("ee_siso", [1.0], [1.0], GridSpec(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        grid_argmax("nonsense", [1.0], [1.0], GridSpec(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        grid_argmax("sumrate", [], [], GridSpec(0.0, 1.0, 11))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gains must be finite and non-negative"):
            grid_argmax("sumrate", [1.0, bad], [1.0] * 2, GridSpec(0.0, 2.0, 11))
    # one positive, finite circuit power per gain
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^circuit powers must be positive and finite, got "):
            grid_argmax("wsee", [1.0, 2.0], [1.0, bad], GridSpec(0.0, 2.0, 11))
    for pcs in ([1.0], [1.0] * 3, 1.0):
        with pytest.raises(ValueError, match="^got 2 gains but circuit powers of shape"):
            grid_argmax("wsee", [1.0, 2.0], pcs, GridSpec(0.0, 2.0, 11))


def test_empty_feasible_set_raises():
    with pytest.raises(InfeasibleError):
        grid_argmax("sumrate", [1.0, 1.0], [1.0] * 2, GridSpec(1.0, 2.0, 11), budget=0.5)


def test_wpee_objective_on_grid():
    gains = [1.0, 2.0]
    pcs = [1.0, 0.5]
    alloc = grid_argmax("wpee", gains, pcs, GridSpec(0.0, 1.0, 201), budget=1.0)
    # product objective needs both powers strictly positive at the optimum
    assert np.all(alloc.powers > 0.0)
    p0, p1 = alloc.powers
    val = (math.log1p(p0) / (1.0 + p0)) * (math.log1p(2 * p1) / (0.5 + p1))
    assert alloc.objective == pytest.approx(val, rel=1e-12)
