import contextlib
import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from eepower import cli, oracle
from eepower.allocator import eepa, wpa
from eepower.errors import InfeasibleError
from eepower.oracle import _EPS, _GEE_MARGIN, OBJECTIVES, GridSpec, _fold, grid_argmax
from numpy_dispatch import numpy_dispatch_groups, without_each_group

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


def reference_screen(term, combine, identity, top, axis, slack):
    """Indices of the rows that can hold the best value within the budget
    (see the module docstring).

    A row's feasible prefix is at least lo and at most hi points long, less
    its index sum; combined with top (the best last-link term over each
    prefix, from the empty one on) at those lengths, its head bounds its best
    feasible value from below and above. The rows returned are those whose
    upper bound reaches the largest lower bound."""
    n, steps = term.shape
    h = (axis[-1] - axis[0]) / (steps - 1)
    # every grid sum is below 2 n p_max, so a larger slack changes no mask
    slack = min(slack, 2.0 * n * float(axis[-1]))
    # a grid sum is within err of n p_min + m h, m the sum of its indices:
    # each of its n points is within dev of p_min + i h plus rounding, and
    # n - 1 additions round; x rounds too, and d adds one index of headroom
    with np.errstate(all="ignore"):  # an axis of subnormal or huge powers
        dev = np.abs(axis - (axis[0] + np.arange(steps) * h)).max()
        err = n * (dev + 8 * _EPS * axis[-1]) + 2 * _EPS * (abs(slack) + n * axis[0])
        x = (slack - n * axis[0]) / h
        d = 1.0 + err / h + 4 * _EPS * abs(x)
        lo, hi = x - d, x + d
    if not lo <= hi:  # NaN where the spacing underflows or the sums overflow
        lo, hi = -np.inf, np.inf
    index_sum = np.arange((n - 1) * (steps - 1) + 1)
    # a vector over index sums as seen from the rows: [i, j] -> v[i + j]
    by_sum = {1: lambda v: v[0], 2: lambda v: v, 3: lambda v: sliding_window_view(v, steps)}[n]
    everywhere = np.indices((steps,) * (n - 1), sparse=True)

    def bound(reach):
        length = np.clip(np.floor(reach) + 1.0 - index_sum, 0, steps).astype(np.intp)
        # in place: a second row-sized array costs more in fresh pages than
        # the pass itself
        head = _fold(combine, identity, term, everywhere)
        return combine(head, by_sum(top[length]), out=head)

    best = bound(lo).max()
    upper = bound(hi)
    return np.flatnonzero(upper >= best if best > -np.inf else upper > best)


def reference_gee_candidates(se, axis, pc, value_at):
    """Indices of the rows that can hold the largest gee value, without a budget.

    se holds the links' rates, (n, steps), and value_at(point) is the grid
    value at a point of per-axis indices. Dinkelbach steps on the separable
    surrogate raise the level L through exact grid values until it stops
    rising; a row is kept unless its surrogate at L is below -_GEE_MARGIN
    times the grid's largest magnitudes (see the module docstring)."""
    n = se.shape[0]
    level = 0.0
    while True:
        c = se - level * axis
        value = value_at(c.argmax(axis=1))
        if not value > level:
            break
        level = value
    scale = se.max(axis=1).sum() + level * (pc + n * axis[-1])
    floor = level * pc - c[-1].max() - _GEE_MARGIN * scale
    surrogate = _fold(np.add, -0.0, c, np.indices((axis.size,) * (n - 1), sparse=True))
    return np.flatnonzero(surrogate >= floor)


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


_LOG1P = np.log1p


def log1p_off_by_an_ulp(x):
    """np.log1p moved an ulp up, an ulp down or not at all by the input's bits
    (0 stays 0): a log1p within 2 ulps that falls by up to 2 ulps from one
    input to a larger one, where a faithfully rounded one may fall by one."""
    x = np.asarray(x, dtype=float)
    y = _LOG1P(x)
    turn = x.view(np.uint64) % 3
    return np.where((turn == 0) | (y == 0.0), y, np.nextafter(y, np.where(turn == 1, np.inf, -np.inf)))


@st.composite
def axis_instances(draw):
    objective = draw(st.sampled_from(OBJECTIVES))
    # up to the 40 001 points of `eepower verify --dims 1`, often at or next
    # to a multiple of the cell size
    cells = st.tuples(st.integers(1, 40_000 // oracle._CELL), st.integers(-1, 1))
    steps = draw(st.integers(2, 40_001) | cells.map(lambda c: c[0] * oracle._CELL + c[1]))
    # a zero gain now and then, where every value is 0 and the first point wins
    gain = 0.0 if draw(st.integers(0, 15)) == 15 else 10.0 ** draw(st.floats(-15.0, 15.0))
    pc = 10.0 ** draw(st.floats(-6.0, 6.0))
    # p_max on a fixed range, or around the EE-optimal power, so that the
    # maximum is often inside the axis
    peak = float(eepa(gain, pc)) if gain > 0.0 else 1.0
    p_max = draw(st.floats(-2.0, 2.0).map(lambda e: 10.0**e) | st.floats(-0.3, 1.0).map(lambda e: peak * 10.0**e))
    # p_min at 0, inside the range, or so close to p_max that neighbouring
    # points (and their values) are equal or an ulp or a few apart
    narrow = st.floats(-15.0, -9.0).map(lambda e: p_max * (1.0 - 10.0**e))
    p_min = draw(st.one_of(*(st.just(f * p_max) for f in (0.0, 0.1, 0.5)), narrow))
    grid = GridSpec(p_min, p_max, steps)
    axis = grid.axis()
    k = draw(st.integers(0, steps - 2))
    # below p_min (at p_min = 0, only the first point), on a grid point,
    # between two, subnormal, or above every point
    budgets = [math.inf, p_min / 2, float(axis[k]), float((axis[k] + axis[k + 1]) / 2), 5e-324, 2 * p_max]
    budget = None if objective == "gee" else draw(st.none() | st.sampled_from(budgets))
    return objective, gain, pc, grid, budget, draw(st.booleans())


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(axis_instances())
# the EE peak e - 1 lies past the middle of its cell, so the next cell's
# first point beats this cell's: a bound from the first points alone drops
# the cell that holds the maximum
@example(("wsee", 1.0, 1.0, GridSpec(0.0, 5.0, 4001), None, False))
# 66 and 83 points within 1e-14 of p_max, where the wobbled se of a cell's
# last point falls below that of an earlier point that holds the maximum:
# a bound without the margin drops that cell
@example(("sumrate", 206.8, 0.48, GridSpec(0.899999999999991, 0.9, 66), None, True))
@example(("wsee", 6.71, 6.19, GridSpec(0.2399999999999976, 0.24, 83), None, True))
def test_axis_argmax_is_bitwise_the_per_point_search(case):
    # one link: the cells of the axis bound its values, and the result is
    # the per-point search's bit for bit, also under a log1p that falls by
    # up to 2 ulps from one point to the next (wobble)
    objective, gain, pc, grid, budget, wobble = case
    with mock.patch.object(np, "log1p", log1p_off_by_an_ulp) if wobble else contextlib.nullcontext():
        try:
            alloc = grid_argmax(objective, [gain], [pc], grid, budget)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                reference_argmax(objective, [gain], [pc], grid, budget)
            return
        value, powers = reference_argmax(objective, [gain], [pc], grid, budget)
    assert alloc.objective.hex() == value.hex()
    np.testing.assert_array_equal(alloc.powers, powers)


@functools.cache
def _axis_test_without_each_dispatch_group():
    """{group: (exit code, output)} of the one-link bitwise test without each dispatch group."""
    return without_each_group("import test_oracle as t\nt.test_axis_argmax_is_bitwise_the_per_point_search()")


@pytest.mark.parametrize("group", numpy_dispatch_groups()[0])
def test_axis_argmax_is_bitwise_the_per_point_search_without(group):
    # the cell bounds lean on log1p's last bit, which differs between the
    # AVX-512, AVX2 and baseline kernels
    runs = _axis_test_without_each_dispatch_group()
    if group not in runs:
        pytest.skip(f"numpy reports no {group} on this CPU (absent or already disabled), so no run disables it")
    assert runs[group][0] == 0, runs[group][1]


def test_one_link_search_builds_no_term_array():
    # a 10**6-point axis is 8 MB; the search builds neither it nor a term
    # array, with or without a budget
    grid = GridSpec(0.0, 100.0, 1_000_001)
    for objective, budget in [("wsee", None), ("gee", None), ("sumrate", 50.0)]:
        tracemalloc.start()
        try:
            grid_argmax(objective, [1.0], [1.0], grid, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.steps, objective


# steps 2, 3, 301, 40 001 and 10**6; p_min 0 and > 0; a huge p_max; a
# spacing below an ulp of p_min; and steps that underflow to 0, which
# np.linspace forms as (i / div) * delta
AXIS_GRIDS = [
    GridSpec(0.0, 1.0, 2),
    GridSpec(0.3, 2.0, 3),
    GridSpec(0.0, 4.0, 301),
    GridSpec(1e-3, 1e300, 301),
    GridSpec(1.0, 1.0 + 2**-45, 301),
    GridSpec(0.1, 0.75, 4001),
    GridSpec(0.0, 4.0, 40_001),
    GridSpec(0.0, 5e-322, 301),
    GridSpec(0.0, 100.0, 10**6),
    GridSpec(0.0, 5e-324, 3),
    GridSpec(5e-324, 2e-323, 3),
]


def _sampled(steps):
    """Every index of a grid up to 40 001 steps; about 3000 of a larger one,
    its ends included."""
    return range(steps) if steps <= 40_001 else sorted({*range(0, steps, 331), *range(steps - 5, steps)})


@pytest.mark.parametrize("grid", AXIS_GRIDS, ids=str)
def test_axis_points_are_the_axis_bit_for_bit(grid):
    axis = grid.axis()
    index = np.arange(grid.steps)
    assert np.array_equal(oracle._axis_points(grid, index).view(np.int64), axis.view(np.int64))
    assert oracle._axis_points(grid, index[1::7]).tobytes() == axis[1::7].tobytes()
    for i in _sampled(grid.steps):
        point = oracle._axis_points(grid, i)
        assert type(point) is float and point.hex() == float(axis[i]).hex(), i


@pytest.mark.parametrize("grid", AXIS_GRIDS, ids=str)
def test_axis_prefix_is_the_feasible_prefix_of_the_axis(grid):
    # slacks at each (sampled) grid point and 1-2 ulps either side of it,
    # below p_min, above p_max, infinite and NaN (a budget of -inf gives a
    # NaN slack, whose prefix is empty)
    axis = grid.axis()
    slacks = [-1.0, -0.0, -math.inf, math.inf, math.nan, 2 * grid.p_max, math.nextafter(grid.p_min, -math.inf)]
    for i in _sampled(grid.steps):
        p = float(axis[i])
        below, above = math.nextafter(p, -math.inf), math.nextafter(p, math.inf)
        slacks += [math.nextafter(below, -math.inf), below, p, above, math.nextafter(above, math.inf)]
    expected = oracle._feasible_prefix(axis, -0.0, -0.0, np.array(slacks))
    assert [oracle._axis_prefix(grid, slack) for slack in slacks] == expected.tolist()
    assert oracle._axis_prefix(grid, math.nan) == 0
    assert oracle._axis_prefix(grid, math.inf) == grid.steps
    with pytest.raises(InfeasibleError):
        grid_argmax("sumrate", [1.0], [1.0], grid, -math.inf)


@pytest.mark.parametrize(
    "objective, gains, grid, budget",
    [
        ("wsee", [0.7], GridSpec(0.0, 4.0, 40_001), None),
        ("gee", [0.7], GridSpec(0.0, 4.0, 40_001), None),
        ("sumrate", [0.7], GridSpec(0.0, 0.5, 40_001), 0.5),
        ("wsee", [0.7], GridSpec(0.0, 0.75, 40_001), 0.75),
        ("wpee", [0.7], GridSpec(0.0, 0.75, 40_001), 0.75),
        ("wmee", [0.7], GridSpec(0.0, 0.75, 40_001), 0.75),
        ("gee", [0.7, 2.4], GridSpec(0.0, 4.0, 2001), None),
        ("sumrate", [0.7, 2.4], GridSpec(0.0, 1.0, 2001), 1.0),
        ("gee", [0.7, 2.4, 1.1], GridSpec(0.0, 4.0, 101), None),
        ("sumrate", [0.7, 2.4, 1.1], GridSpec(0.0, 1.5, 101), 1.5),
        ("wsee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
        ("wpee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
        ("wmee", [0.7, 2.4, 1.1], GridSpec(0.0, 2.25, 101), 2.25),
    ],
    ids=[
        "ee_siso-dims1", "gee-dims1", "sumrate-dims1", "wsee-dims1", "wpee-dims1", "wmee-dims1",
        "gee", "sumrate", "gee-dims3", "sumrate-dims3", "wsee-dims3", "wpee-dims3", "wmee-dims3",
    ],
)
def test_verify_size_grid_is_bitwise_the_per_point_search(objective, gains, grid, budget):
    # the grids `eepower verify --dims 1` and `--dims 2` search (ee_siso's is
    # the one-link wsee without a budget), and at dims 3 the verify grids with
    # a third of their steps
    pcs = [1.3, 0.8, 1.1][: len(gains)]
    alloc = grid_argmax(objective, gains, pcs, grid, budget)
    value, powers = reference_argmax(objective, gains, pcs, grid, budget)
    assert alloc.objective == value
    np.testing.assert_array_equal(alloc.powers, powers)


@st.composite
def dims3_screens(draw):
    objective = draw(st.sampled_from(OBJECTIVES))
    steps = draw(st.integers(2, 120))
    gains = [draw(st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e)) for _ in range(3)]
    pcs = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    p_max = 10.0 ** draw(st.floats(-2.0, 2.0))
    p_min = draw(st.sampled_from([0.0, 0.1, 0.5])) * p_max
    budget = None if objective == "gee" else draw(st.floats(0.1, 1.2)) * 3 * p_max
    # from one row per cell to one cell per axis-0 index
    cell = draw(st.integers(1, steps + 1))
    return objective, gains, pcs, GridSpec(p_min, p_max, steps), budget, cell


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(dims3_screens())
# the dims-3 examples of test_grid_argmax_is_bitwise_the_per_point_search:
# the seed-5 sumrate grid, whose row with the largest upper bound has no
# feasible point
@example(("sumrate", [0.7589964250758349, 1.7010341640555473, 0.3228188687382762],
          [0.5311270256485778, 0.6849325902073293, 1.3474897353633186],
          GridSpec(0.0, 1.5, 101), 1.5, 16))
# a zero last-link gain: every wpee value is 0, and so is every bound
@example(("wpee", [0.9, 1.3, 0.0], [1.0, 0.5, 2.0], GridSpec(0.1, 1.0, 13), 1.2, 4))
# p_min > 0 and a slack equal to a grid sum to the last bit
@example(("sumrate", [7.4, 7.4, 4.8], [1.0] * 3, GridSpec(0.27, 0.9, 8), 1.43999999999756, 3))
# every value is 0; a zero-gain first link makes every wpee value 0
@example(("sumrate", [0.0, 0.0, 0.0], [1.0] * 3, GridSpec(0.1, 1.0, 5), 2.0, 2))
@example(("wpee", [0.0, 1.5, 0.7], [1.0, 0.5, 2.0], GridSpec(0.0, 1.0, 9), 1.5, 16))
# the best power sum rounds differently as p0 + (p1 + p2)
@example(("gee", [2.8, 2.3, 2.1], [1.1] * 3, GridSpec(0.0, 1.0, 20), None, 7))
def test_dims3_screens_keep_the_rows_of_the_full_screens(case):
    # the cell screens return the rows the per-row screens return, bit for
    # bit; grid_argmax supplies their arguments
    objective, gains, pcs, grid, budget, cell = case
    name, reference = ("_gee_candidates", reference_gee_candidates) if budget is None else ("_screen", reference_screen)
    screen = getattr(oracle, name)
    seen = []

    def compare(*args):
        rows = screen(*args)
        seen.append(rows)
        assert np.array_equal(rows, reference(*args))
        return rows

    with mock.patch.object(oracle, "_CELL", cell), mock.patch.object(oracle, name, compare):
        try:
            grid_argmax(objective, gains, pcs, grid, budget)
        except InfeasibleError:
            pass
    assert len(seen) == 1
    assert np.all(np.diff(seen[0]) > 0)


@pytest.mark.parametrize("objective", ["gee", "sumrate", "wsee", "wpee", "wmee"])
def test_screen_keeps_few_rows_of_the_verify_grids(objective, capsys):
    # over the dims-3 grids `eepower verify` searches at seeds 1-20 (301
    # steps), the rows whose feasible prefix is found exactly or, for gee
    # (no budget), the rows the Dinkelbach steps keep; and the rows whose
    # exact bound or surrogate the cell screens form (every row without the
    # cells)
    counted, bounded = [], []
    name = "_gee_candidates" if objective == "gee" else "_feasible_prefix"
    rows_of = getattr(oracle, name)
    heads_of = oracle._row_heads

    def count(*args):
        rows = rows_of(*args)
        counted.append(rows.size)
        return rows

    def count_heads(*args):
        heads = heads_of(*args)
        bounded.append(heads.size)
        return heads

    with mock.patch.object(oracle, name, count), mock.patch.object(oracle, "_row_heads", count_heads):
        for seed in range(1, 21):
            assert cli.main(["verify", "--objective", objective, "--dims", "3", "--seed", str(seed), "--trials", "1"]) == 0
    capsys.readouterr()
    assert len(counted) == len(bounded) == 20
    assert max(counted) <= 0.1 * 301**2
    assert max(bounded) <= 301**2 / 5
    assert np.median(bounded) <= 301**2 / 20


def test_budget_must_be_a_number():
    pcs = [1.0] * 2
    grid = GridSpec(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="budget"):
        grid_argmax("sumrate", [1.0, 2.0], pcs, grid, budget=math.nan)
    # a budget above every grid sum keeps every point, however large
    for objective, dims in itertools.product(("sumrate", "wsee", "wpee", "wmee"), (1, 2, 3)):
        gains, pcs_d = [1.0, 2.0, 0.5][:dims], [1.0, 0.7, 1.3][:dims]
        free = grid_argmax(objective, gains, pcs_d, grid)
        for budget in (math.inf, 1e300):
            alloc = grid_argmax(objective, gains, pcs_d, grid, budget)
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
