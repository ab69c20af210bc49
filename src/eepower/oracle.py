"""Brute-force verification by exhaustive grid search.

Finds the best point of a rectangular power grid for any of the supported
objectives, as an independent check on the closed-form and iterative
solvers. A total-power budget may filter the grid for every objective but
"gee", which takes none; no budget is an unlimited one. The result is the
first maximum in row-major order of the per-point values, bit for bit.

Every objective combines per-link terms that depend on that link's own power
only (the SE or the EE of `link_terms`), folded from the first link on; one
link's EE is "wsee" at n == 1.

- Dims 1. Every objective's value at a point is, bit for bit, the link's SE
  (sum rate) or EE (the rest; "gee" is se / (pc + p), and the fold adds
  -0.0, multiplies by 1.0 or takes the minimum with inf). No axis is
  built: each point read is formed from its index with np.linspace's own
  arithmetic, which gives the axis's bits. The feasible points are a prefix
  of the axis (p <= slack, exactly as the per-point search tests it), found
  by bisection on that formula and split into cells of _CELL consecutive
  points. A cell's value at its first point bounds its best value from
  below. Its se at its last point, raised by the margin 1 + 8 eps, over pc
  plus its first power (the raised se alone for the sum rate) bounds it
  from above, because multiply, add and divide are monotone under rounding
  and log1p nearly is: it is only faithfully rounded, so se may fall by an
  ulp from one point to a later one, and the margin, at least 7 ulps,
  covers any log1p within 2 ulps of the exact value. (Where se is
  subnormal, log1p(x) is x or the float below it, which cannot fall.) The
  points from the first to the last cell whose upper bound reaches the
  largest lower bound are evaluated in ascending order. Every other cell's
  values lie below a value that some point has, so the first maximum of
  that span is the first maximum of the axis.

At dims 2 and 3 a row is one point of axes 0..n-2 with the last link's axis
as its contents, so a row's values are combine(head, t_k) for its head value
and the last link's terms t_k (for "gee", divided by pc + (P + p_k) with P
the head's power sum). The rows are bounded first (at dims 3, cells of rows
before rows), and only the rows that can hold the maximum are evaluated
point by point. At most one array over every row is alive at a time: a
second one costs more in fresh pages than the pass that fills it.

- Sum rate, WSEE, WPEE, WMEE. add, multiply (the terms are >= 0) and
  minimum are monotone under rounding, so combine(head, max of t_k over a
  prefix) is exactly the best value of the row's points in that prefix.
- Budget. The mask p0 + (p1 + ... + p_last) <= budget is monotone in the
  last power, because rounding is monotone and the axis is nondecreasing,
  so each row's feasible points are a prefix of length K. The screen
  assumes a uniform axis, p_min + i*h up to a few ulps of p_max as linspace
  makes it, and measures how far the axis strays from that. So a grid sum
  is within err of n*p_min + m*h, m the sum of its indices, where err adds
  that deviation and the rounding of the axis points and of the n - 1
  additions. With x = (slack - n*p_min)/h, slack the budget plus its
  1e-12 tolerance (inf without a budget; capped at 2*n*p_max, above every
  grid sum), and d = err/h + 1 (err also covers the rounding of x;
  the 1 is headroom), every point with m <= x - d is within the budget and
  none with m > x + d is. So a row with index sum s has K between K_lo - s
  and K_hi - s, clipped to the axis, with K_lo - 1 = floor(x - d) and
  K_hi - 1 = floor(x + d); K_hi - K_lo is 2 or 3 while err is below h. The
  row's head combined with the best term over each of those two prefixes
  bounds its best feasible value from below and from above. Both bounds
  read one vector over the index sums. A
  row with an empty prefix gets combine(head, floor), with floor -inf (0 for
  WPEE, whose -inf times a zero head would be NaN), which is no larger than
  any grid value. The rows whose upper bound reaches the largest lower
  bound then get their exact K (searchsorted, corrected by the mask's own
  arithmetic) and exact bound, and the candidate rows are those whose bound
  equals the largest. A row with the largest exact bound always passes the
  screen: its upper bound is at least that bound, which, when any point is
  feasible, is at least every lower bound. On an axis far from uniform d
  only grows, and the screen keeps more rows. A one-sided screen (upper
  bounds against the exact value of the best one) does not do: the row with
  the largest upper bound can have no feasible point.
- GEE. Dinkelbach steps: for a level L, the surrogate of a point, sum
  over links of (t_a - L*p_a) minus L*pc, is separable up to rounding, so
  it is largest at the per-axis maxima, and that point is evaluated
  exactly. Each new L is that value, so every L is the value of a grid
  point, and the steps stop when L stops rising. A point whose value
  reaches L makes the surrogate of its row (the head's links at the row's
  powers, the last one at its per-axis maximum) at least -(a few ulps) of
  the grid's largest magnitudes, so the rows whose surrogate is at or above
  -1e-9 of them hold every point at or above L, the maximum among them;
  these are the candidate rows.
- Cells. At dims 3 the rows form a 2-D index grid (i, j), and the screens
  bound cells of _CELL consecutive j of one i before they bound rows (the
  last cell is padded with copies of the last j, whose rows are dropped). A
  row's head is combine(H_i, t_j), H_i axis 0's head, and its prefix shrinks
  as j grows, so the best last-link term over it shrinks too. So a cell's
  H_i combined with its largest t_j and with the best term over its first
  row's K_hi prefix, the longest any of its rows has, is at least the upper
  bound of each of its rows: add, multiply on terms >= 0 and minimum are
  monotone under rounding. The bar is the largest exact lower bound of the
  cells' first rows, no larger than the largest lower bound of all rows. A
  cell whose bound does not reach the bar holds no row whose upper bound
  reaches that largest lower bound, and the cell holding the row that sets
  it does reach the bar. Exact row bounds are formed only in the cells that
  reach it, so the candidate rows are those of a screen of every row, bit
  for bit. For gee a cell's bound is H_i plus its largest c_1 (the
  surrogate's terms at L) against the fixed threshold.

The candidate rows are evaluated in row-major order, in blocks of about
_BLOCK points, each masked to its feasible prefix (the whole axis for gee
and without a budget), with the per-point arithmetic (sums from the first
link on) and a strict > across blocks, so the value and the tie-break are
those of a search over every point whatever the block size.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .allocator import Allocation, link_terms

OBJECTIVES = ("gee", "wsee", "wpee", "wmee", "sumrate")

_MAX_POINTS = 10**8
# grid values evaluated per block of candidate rows (about 1 MB of float64)
_BLOCK = 2**17
# how per-link terms combine into the objective (the rest sum them), and the
# value each row's fold starts from: combine(identity, t) == t bit for bit;
# sums start from -0.0, which keeps the sign of a zero t
_COMBINE = {"wpee": np.multiply, "wmee": np.minimum}
_IDENTITY = {"wpee": 1.0, "wmee": np.inf}
# a last-link term that makes combine(head, it) no larger than any grid value
# (grid values are >= 0); -inf would make a NaN with a zero wpee head
_FLOOR = {"wpee": 0.0}
# a gee row whose surrogate falls below -_GEE_MARGIN times its magnitudes
# cannot reach the best value found; rounding moves a surrogate by ~1e-15
_GEE_MARGIN = 1e-9
# consecutive axis-1 indices per cell of a dims-3 grid's rows, and
# consecutive points per cell of a one-link axis
_CELL = 16
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension power grid: steps equally spaced points on [p_min, p_max]."""

    p_min: float
    p_max: float
    steps: int

    def __post_init__(self) -> None:
        if not self.p_min >= 0.0:
            raise ValueError(f"p_min must be >= 0, got {self.p_min}")
        for name in ("p_min", "p_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p_max > self.p_min:
            raise ValueError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")
        if not isinstance(self.steps, numbers.Integral) or isinstance(self.steps, bool):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    def axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.steps)


def grid_argmax(objective: str, gains, pc, grid: GridSpec, budget: float | None = None) -> Allocation:
    """Best grid point for the named objective.

    budget, when given, keeps only points whose summed power is at most the
    budget; no budget is an unlimited one. A NaN budget, or any budget for
    "gee", is a ValueError. Gains must be finite and non-negative, one to
    three of them (grid search only), and g*p_max must not overflow. pc
    holds one positive, finite circuit power per gain; "gee" takes pc[0] as
    the shared one.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    g, pc = np.asarray(gains, dtype=float), np.asarray(pc, dtype=float)
    n = g.size
    if pc.shape != g.shape:
        raise ValueError(f"got {n} gains but circuit powers of shape {pc.shape}")
    if not np.all(np.isfinite(pc) & (pc > 0.0)):
        raise ValueError(f"circuit powers must be positive and finite, got {pc}")
    if not 1 <= n <= 3:
        raise ValueError(f"grid search supports 1 to 3 dimensions, got {n}")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    for i, gi in enumerate(g.tolist()):  # Python floats overflow to inf silently
        if math.isinf(gi * float(grid.p_max)):
            raise ValueError(f"gain of link {i} overflows on the grid: {gi:g} * p_max {grid.p_max:g} is not finite")
    if budget is not None and objective == "gee":
        raise ValueError(f"gee takes no budget, got budget {budget}")
    if budget is not None and math.isnan(budget):
        raise ValueError(f"budget must be a number, got {budget}")
    if grid.steps**n > _MAX_POINTS:
        raise ValueError(f"grid too large: {grid.steps}**{n} points exceeds {_MAX_POINTS}")
    # no budget is an unlimited one
    slack = math.inf if budget is None else budget + 1e-12 * (1.0 + abs(budget))

    if n == 1:
        return _axis_argmax(objective, g[0], pc[0], grid, slack)

    steps = grid.steps
    axis = grid.axis()

    # each link's term depends on its own power only: evaluate it once per
    # axis point, (n, steps)
    se, ee = link_terms(g[:, None], axis, pc[:, None])
    term = se if objective in ("sumrate", "gee") else ee
    combine = _COMBINE.get(objective, np.add)
    identity = _IDENTITY.get(objective, -0.0)
    t_last = term[-1]
    # the rows are the points of axes 0..n-2, in row-major order
    shape = (steps,) * (n - 1)

    def coords_of(rows):
        """The axis-0..n-2 indices of the given rows."""
        return np.unravel_index(rows, shape)

    def row_values(coords):
        """The grid values of the rows at coords, (..., steps), each point
        folded from the first link on: the head value combined with the last
        link's term and, for gee, divided by pc0 + (P + p_last), P the head's
        power sum."""
        value = combine(_fold(combine, identity, term, coords)[..., None], t_last)
        if objective == "gee":
            value = value / (pc[0] + (_fold(np.add, -0.0, [axis] * n, coords)[..., None] + axis))
        return value

    def value_at(point):
        """The grid value at a point of per-axis indices."""
        return row_values(tuple(point[:-1]))[point[-1]]

    if objective == "gee":
        rows = _gee_candidates(se, axis, pc[0], value_at)
        # every row's feasible prefix is the whole axis
        length = np.full(rows.size, steps)
    else:
        # the best last-link term over each prefix, from the empty one on: a
        # row without feasible points gets combine(head, floor), which is no
        # larger than any grid value
        top = np.concatenate(([_FLOOR.get(objective, -np.inf)], np.maximum.accumulate(t_last)))
        rows = _screen(term, combine, identity, top, axis, slack)
        # the budget sum at a point is first + (mid + p_last), as the
        # per-point search adds it
        coords = coords_of(rows)
        mid = axis[coords[1]] if n > 2 else -0.0
        length = _feasible_prefix(axis, axis[coords[0]], mid, slack)
        if not length.any():
            raise InfeasibleError("no grid point satisfies the budget")
        bound = combine(_fold(combine, identity, term, coords), top[length])
        keep = bound == bound.max()
        rows, length = rows[keep], length[keep]

    # the candidate rows, in row-major order; the strict > keeps the first
    # maximum across blocks
    per_block = max(1, _BLOCK // steps)
    best_val = -np.inf
    best_row = best_k = 0
    for start in range(0, rows.size, per_block):
        block = rows[start:start + per_block]
        value = row_values(coords_of(block))
        value = np.where(np.arange(steps) < length[start:start + per_block, None], value, -np.inf)
        k = int(np.argmax(value))
        if value.flat[k] > best_val:
            best_val = float(value.flat[k])
            r, best_k = divmod(k, steps)
            best_row = block[r]
    if best_val == -np.inf:
        raise InfeasibleError("no grid point satisfies the budget")
    return Allocation(np.append(axis[list(np.unravel_index(best_row, shape))], axis[best_k]), best_val)


def _axis_argmax(objective, g, pc, grid, slack):
    """Best point of a one-link grid within the slack: its cells bounded from
    their end points, and only the span of those that can hold the maximum
    evaluated (see "Dims 1" in the module docstring). No axis is built: the
    points read are formed from their indices, bit for bit as on the axis."""
    size = _axis_prefix(grid, slack)
    if size == 0:
        raise InfeasibleError("no grid point satisfies the budget")

    def values(points):
        se, ee = link_terms(g, points, pc)
        return se if objective == "sumrate" else ee

    first = np.arange(0, size, _CELL)
    last = first + (_CELL - 1)
    last[-1] = size - 1
    at_first = _axis_points(grid, first)
    # the margin: at least 7 ulps above se at the cell's last point
    top = link_terms(g, _axis_points(grid, last), pc)[0] * (1.0 + 8 * _EPS)
    upper = top if objective == "sumrate" else top / (pc + at_first)
    cells = np.flatnonzero(_reaches(upper, values(at_first).max()))
    points = _axis_points(grid, np.arange(first[cells[0]], min(first[cells[-1]] + _CELL, size)))
    value = values(points)
    k = int(np.argmax(value))
    return Allocation(points[[k]], float(value[k]))


def _axis_points(grid, index):
    """grid.axis()[index] for an int or an int array index, bit for bit,
    without the axis: np.linspace's index * step + p_min, with
    (index / div) * delta + p_min where the step delta / div underflows to
    0, and p_max itself at the last index."""
    div = grid.steps - 1
    p_min, p_max = float(grid.p_min), float(grid.p_max)
    delta = p_max - p_min
    step = delta / div
    points = (index * step if step else index / div * delta) + p_min
    if isinstance(points, float):
        return points if index < div else p_max
    return np.where(index < div, points, p_max)


def _axis_prefix(grid, slack):
    """The number of grid.axis() points p with p <= slack (none for a NaN
    slack), by bisection on `_axis_points`: the axis is nondecreasing, so
    they are a prefix."""
    if math.isnan(slack):  # bisect_right would place it after every point
        return 0
    return bisect.bisect_right(range(grid.steps), slack, key=functools.partial(_axis_points, grid))


def _fold(combine, value, vectors, coords):
    """value combined with vectors[a][coords[a]] for each axis a of coords in
    turn, as at a single point; open-grid coords give every row."""
    for v, c in zip(vectors, coords):
        value = combine(value, v[c])
    return np.asarray(value)


def _screen(term, combine, identity, top, axis, slack):
    """Indices of the rows that can hold the best value within the budget
    (see the module docstring).

    A row's feasible prefix is at least lo and at most hi points long, less
    its index sum; combined with top (the best last-link term over each
    prefix, from the empty one on) at those lengths, its head bounds its best
    feasible value from below and above. The rows returned are those whose
    upper bound reaches the largest lower bound; at dims 3 only the rows of
    the cells that can reach it are bounded."""
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

    def by_sum(reach, sums):
        """The best last-link term over the prefix of each index sum below
        sums, at the given reach; nonincreasing in the index sum."""
        length = np.clip(np.floor(reach) + 1.0 - np.arange(sums), 0, steps).astype(np.intp)
        return top[length]

    head = combine(identity, term[0])
    if n == 2:
        best = combine(head, by_sum(lo, steps)).max()
        return np.flatnonzero(_reaches(combine(head, by_sum(hi, steps)), best))
    cells = _cells(term[1])
    first = np.arange(0, cells.size, _CELL)
    # the padded cells reach index sums up to steps - 1 + cells.size - 1
    low, high = by_sum(lo, steps - 1 + cells.size), by_sum(hi, steps - 1 + cells.size)
    # the first row of each cell bounds the best row from below; a cell's
    # rows share axis 0's head, and its largest axis-1 term with the prefix
    # of its first row, the longest, bounds each of them from above
    at_first = np.arange(steps)[:, None] + first
    bar = combine(combine(head[:, None], cells[:, 0]), low[at_first]).max()
    upper = combine(combine(head[:, None], cells.max(axis=1)), high[at_first])
    ci, cc = np.nonzero(_reaches(upper, bar))
    row_head = _row_heads(combine, head, cells, ci, cc)
    # the index sums of the rows of the bounded cells
    window = (ci + first[cc])[:, None] + np.arange(_CELL)
    lower = low[window]
    best = combine(row_head, lower, out=lower).max(initial=-np.inf)
    # three arrays over the bounded rows at a time: the heads, the index
    # sums and one gather
    del lower
    upper = combine(row_head, high[window], out=row_head)
    return _cell_rows(_reaches(upper, best), ci, cc, steps)


def _reaches(bound, bar):
    """Where bound reaches bar: bound >= bar, or bound > bar where bar is
    -inf (a bound of -inf belongs to a row with no feasible point)."""
    return bound >= bar if bar > -np.inf else bound > bar


def _cells(inner):
    """inner, axis 1's terms, split into cells of _CELL consecutive entries,
    (cells, _CELL); the last cell is padded with copies of the last entry."""
    return np.append(inner, np.full(-inner.size % _CELL, inner[-1])).reshape(-1, _CELL)


def _row_heads(combine, head, cells, ci, cc):
    """The heads of the rows in the cells (ci, cc) of a dims-3 grid,
    (cells, _CELL): axis 0's head at ci combined with the axis-1 terms of
    cell cc, as at a single point."""
    return combine(head[ci, None], cells[cc])


def _cell_rows(keep, ci, cc, steps):
    """Ascending indices of the rows of the cells (ci, cc) where keep,
    (cells, _CELL), holds; the rows that pad the last cell are dropped."""
    k, b = np.nonzero(keep)
    j = cc[k] * _CELL + b
    return (ci[k] * steps + j)[j < steps]


def _feasible_prefix(axis, first, mid, slack):
    """Per row, the number of leading axis points p with first + (mid + p) <= slack.

    The sum is nondecreasing in p under monotone rounding, so the feasible
    points are a prefix; the searchsorted estimate is moved to where that
    exact mask changes (the mask of a NaN slack is empty)."""
    est = (slack - first) - mid
    length = np.where(np.isnan(est), 0, np.searchsorted(axis, est, side="right"))
    del est
    top = axis.size - 1
    while True:
        grow = (length <= top) & (first + (mid + axis[np.minimum(length, top)]) <= slack)
        shrink = (length > 0) & ~(first + (mid + axis[np.maximum(length - 1, 0)]) <= slack)
        if not (grow.any() or shrink.any()):
            return length
        length += grow
        length -= shrink


def _gee_candidates(se, axis, pc, value_at):
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
    head = -0.0 + c[0]
    if n == 2:
        return np.flatnonzero(head >= floor)
    # a cell's surrogates are at most axis 0's head plus its largest c_1
    cells = _cells(c[1])
    ci, cc = np.nonzero(head[:, None] + cells.max(axis=1) >= floor)
    return _cell_rows(_row_heads(np.add, head, cells, ci, cc) >= floor, ci, cc, axis.size)
