"""Brute-force verification by exhaustive grid search.

Finds the best point of a rectangular power grid (optionally filtered by a
total-power budget) for any of the supported objectives, as an independent
check on the closed-form and iterative solvers. The result is the first
maximum in row-major order of the per-point values, bit for bit.

Every objective combines per-link terms that depend on that link's own power
only (log1p(g*p), or w*log1p(g*p)/(pc+p)), folded from the first link on.
A row is one point of axes 0..n-2 with the last link's axis as its contents
(one row when n == 1), so a row's values are combine(head, t_k) for its head
value and the last link's terms t_k (for "gee", divided by pc + (P + p_k)
with P the head's power sum). The rows are bounded first, and only the rows
that can hold the maximum are evaluated point by point. At most one
row-sized array is alive at a time: a second one costs more in fresh pages
than the pass that fills it.

- Sum rate, WSEE, WPEE, WMEE, EE. add, multiply (the terms are >= 0) and
  minimum are monotone under rounding, so combine(head, max of t_k over a
  prefix) is exactly the best value of the row's points in that prefix.
  Without a budget the candidate rows are those whose bound over the whole
  axis equals the largest.
- Budget. The mask p0 + (p1 + ... + p_last) <= budget is monotone in the
  last power, because rounding is monotone and the axis is nondecreasing,
  so each row's feasible points are a prefix of length K. The screen
  assumes a uniform axis, p_min + i*h up to a few ulps of p_max as linspace
  makes it, and measures how far the axis strays from that. So a grid sum
  is within err of n*p_min + m*h, m the sum of its indices, where err adds
  that deviation and the rounding of the axis points and of the n - 1
  additions. With x = (slack - n*p_min)/h, slack the budget plus its
  1e-12 tolerance, and d = err/h + 1 (err also covers the rounding of x;
  the 1 is headroom), every point with m <= x - d is within the budget and
  none with m > x + d is. So a row with index sum s has K between K_lo - s
  and K_hi - s, clipped to the axis, with K_lo - 1 = floor(x - d) and
  K_hi - 1 = floor(x + d); K_hi - K_lo is 2 or 3 while err is below h. The
  row's head combined with the best term over each of those two prefixes
  bounds its best feasible value from below and from above. Both bounds
  read one vector over the 2*steps - 1 index sums through a Hankel view. A
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
- GEE without a budget. Dinkelbach steps: for a level L, the surrogate of a
  point, sum over links of (t_a - L*p_a) minus L*pc, is separable up to
  rounding, so it is largest at the per-axis maxima, and that point is
  evaluated exactly. Each new L is that value, so every L is the value of a
  grid point, and the steps stop when L stops rising. A point whose value
  reaches L makes the surrogate of its row (the head's links at the row's
  powers, the last one at its per-axis maximum) at least -(a few ulps) of
  the grid's largest magnitudes, so the rows whose surrogate is at or above
  -1e-9 of them hold every point at or above L, the maximum among them;
  these are the candidate rows.
- GEE with a budget. The same steps run over the rows, each over its exact
  feasible prefix: a row's surrogate is S - L*(pc + P) + max over the
  prefix of (t_k - L*p_k), S the head's rate sum, and its maximising point
  is evaluated exactly; each new L is the best such value, and the rows are
  kept by the same margin, of their own magnitudes.

The candidate rows are evaluated in row-major order, in blocks of about
_BLOCK points, with the per-point arithmetic (sums from the first link on)
and a strict > across blocks, so the value and the tie-break are those of a
search over every point whatever the block size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InfeasibleError
from .allocator import Allocation

OBJECTIVES = ("ee_siso", "gee", "wsee", "wpee", "wmee", "sumrate")

_MAX_POINTS = 10**8
# grid values evaluated per block of candidate rows (about 1 MB of float64)
_BLOCK = 2**17
# how per-link terms combine into the objective (the rest sum them), and the
# value each row's fold starts from (the whole head of a one-link grid's
# single row): combine(identity, t) == t bit for bit; sums start from -0.0,
# which keeps the sign of a zero t
_COMBINE = {"wpee": np.multiply, "wmee": np.minimum}
_IDENTITY = {"wpee": 1.0, "wmee": np.inf}
# a last-link term that makes combine(head, it) no larger than any grid value
# (grid values are >= 0); -inf would make a NaN with a zero wpee head
_FLOOR = {"wpee": 0.0}
# a gee row whose surrogate falls below -_GEE_MARGIN times its magnitudes
# cannot reach the best value found; rounding moves a surrogate by ~1e-15
_GEE_MARGIN = 1e-9
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


def grid_argmax(objective: str, gains, cfgs, grid: GridSpec, budget: float | None = None) -> Allocation:
    """Best grid point for the named objective.

    budget, when given, keeps only points whose summed power is at most the
    budget. Gains must be finite and non-negative, one to three of them
    (grid search only), and g*p_max must not overflow. For "gee" the shared
    circuit power is taken from the first config.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    g = np.asarray(gains, dtype=float)
    cfgs = list(cfgs)
    n = g.size
    if n != len(cfgs):
        raise ValueError(f"got {n} gains but {len(cfgs)} configs")
    if objective == "ee_siso" and n != 1:
        raise ValueError("ee_siso is a single-dimension objective")
    if not 1 <= n <= 3:
        raise ValueError(f"grid search supports 1 to 3 dimensions, got {n}")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    for i, gi in enumerate(g.tolist()):  # Python floats overflow to inf silently
        if math.isinf(gi * float(grid.p_max)):
            raise ValueError(f"gain of link {i} overflows on the grid: {gi:g} * p_max {grid.p_max:g} is not finite")
    if budget is not None and math.isnan(budget):
        raise ValueError(f"budget must be a number, got {budget}")
    if grid.steps**n > _MAX_POINTS:
        raise ValueError(f"grid too large: {grid.steps}**{n} points exceeds {_MAX_POINTS}")

    steps = grid.steps
    axis = grid.axis()
    pc = np.array([c.pc for c in cfgs])
    w = np.array([c.weight for c in cfgs])

    # each link's term depends on its own power only: evaluate it once per
    # axis point, (n, steps)
    se = np.log1p(g[:, None] * axis)
    term = se if objective in ("sumrate", "gee") else w[:, None] * se / (pc[:, None] + axis)
    combine = _COMBINE.get(objective, np.add)
    identity = _IDENTITY.get(objective, -0.0)
    t_last = term[-1]
    # the rows are the points of axes 0..n-2, in row-major order
    shape = (steps,) * (n - 1)

    def coords_of(rows):
        """The axis-0..n-2 indices of the given rows."""
        return np.unravel_index(rows, shape) if n > 1 else ()

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

    length = None  # every row's feasible prefix is the whole axis
    if budget is None and objective == "gee":
        rows = _gee_candidates(se, axis, pc[0], value_at)
    elif budget is None:
        head = _fold(combine, identity, term, np.indices(shape, sparse=True))
        bound = combine(head, t_last.max(), out=head)
        rows = np.flatnonzero(bound == bound.max())
    else:
        slack = budget + 1e-12 * (1.0 + abs(budget))
        # the best last-link term over each prefix, from the empty one on: a
        # row without feasible points gets combine(head, floor), which is no
        # larger than any grid value
        top = np.concatenate(([_FLOOR.get(objective, -np.inf)], np.maximum.accumulate(t_last)))
        if objective == "gee":
            rows = np.arange(steps ** (n - 1))
        else:
            rows = _screen(term, combine, identity, top, axis, slack)
        # the budget sum at a point is first + (mid + p_last), as the
        # per-point search adds it
        coords = coords_of(rows)
        first = axis[coords[0]] if n > 1 else np.full(rows.size, -0.0)
        mid = axis[coords[1]] if n > 2 else -0.0
        length = _feasible_prefix(axis, first, mid, slack)
        if not length.any():
            raise InfeasibleError("no grid point satisfies the budget")
        head = _fold(combine, identity, term, coords)
        if objective == "gee":
            power = _fold(np.add, -0.0, [axis] * n, coords)
            keep = _budget_gee_candidates(head, power, pc[0], t_last, axis, length)
        else:
            bound = combine(head, top[length])
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
        if length is not None:
            value = np.where(np.arange(steps) < length[start:start + per_block, None], value, -np.inf)
        k = int(np.argmax(value))
        if value.flat[k] > best_val:
            best_val = float(value.flat[k])
            r, best_k = divmod(k, steps)
            best_row = block[r]
    if best_val == -np.inf:
        raise InfeasibleError("no grid point satisfies the budget")
    return Allocation(np.append(axis[list(np.unravel_index(best_row, shape))], axis[best_k]), best_val)


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
    surrogate = _fold(np.add, -0.0, c, np.indices((axis.size,) * (n - 1), sparse=True))
    return np.flatnonzero(surrogate >= floor)


def _budget_gee_candidates(rate, power, pc, t, p, length):
    """Indices of the rows that can hold the largest gee value.

    Row r's values are (rate[r] + t[k]) / (pc + (power[r] + p[k])) for
    k < length[r]. Dinkelbach steps raise the level L through exact grid
    values until it stops rising; a row is kept unless its surrogate at L
    is below -_GEE_MARGIN times its magnitudes (see the module docstring)."""
    live = length > 0
    last = length - 1  # -1 on a row without feasible points, masked by live
    idx = np.arange(t.size)
    level = 0.0
    while True:
        c = t - level * p
        c_max = np.maximum.accumulate(c)
        k = np.maximum.accumulate(np.where(c == c_max, idx, 0))[last]
        # (rate + t[k]) / (pc + (power + p[k])), in place so that the peak
        # memory stays at a few row-sized arrays
        value = t[k]
        value += rate
        den = p[k]
        den += power
        den += pc
        value /= den
        del k, den
        best = value.max(where=live, initial=-np.inf)
        if not best > level:
            break
        level = best
    del value
    surrogate = rate - level * (pc + power) + c_max[last]
    scale = rate + level * (pc + power) + t.max() + level * p[-1]
    return np.flatnonzero(live & (surrogate >= -_GEE_MARGIN * scale))
