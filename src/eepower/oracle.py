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
with P the head's power sum). Each row is bounded in O(1) first, and only
the rows that can hold the maximum are evaluated point by point:

- Budget. The mask p0 + (p1 + ... + p_last) <= budget is monotone in the
  last power, because rounding is monotone and the axis is nondecreasing,
  so each row's feasible points are a prefix of length K. searchsorted
  estimates K and the mask's own arithmetic corrects it.
- Sum rate, WSEE, WPEE, WMEE, EE. add, multiply (the terms are >= 0) and
  minimum are monotone under rounding, so combine(head, max of t_k over the
  prefix) is exactly the row's best value. The candidate rows are those
  whose bound equals the largest bound.
- GEE. Dinkelbach steps over the rows: for a level L, a row's surrogate is
  S - L*(pc + P) + max over the prefix of (t_k - L*p_k), with S the head's
  rate sum, and its maximising point is evaluated exactly. Each new L is the
  best such value, so every L is the value of a feasible grid point, and the
  steps stop when L stops rising. A point whose value reaches L makes its
  row's surrogate at least -(a few ulps) of the row's magnitudes, so the
  rows whose surrogate is at or above -1e-9 of them hold every point at or
  above L, the maximum among them; these are the candidate rows.

The candidate rows are evaluated in row-major order, in blocks of about
_BLOCK points, with the per-point arithmetic (sums from the first link on)
and a strict > across blocks, so the value and the tie-break are those of a
search over every point whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# a gee row whose surrogate falls below -_GEE_MARGIN times its magnitudes
# cannot reach the best value found; rounding moves a surrogate by ~1e-15
_GEE_MARGIN = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension power grid: steps equally spaced points on [p_min, p_max]."""

    p_min: float
    p_max: float
    steps: int

    def __post_init__(self) -> None:
        if not self.p_min >= 0.0:
            raise ValueError(f"p_min must be >= 0, got {self.p_min}")
        if not self.p_max > self.p_min:
            raise ValueError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")
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
    t_last = term[-1]

    # per row, shaped as the grid of axes 0..n-2 and folded from the first
    # link on as at a single point: the head value and, for gee, the head's
    # power sum P (the denominator is pc0 + (P + p_last))
    shape = (steps,) * (n - 1)
    head = np.asarray(_IDENTITY.get(objective, -0.0))
    power = np.asarray(-0.0)
    for t in term[:-1]:
        head = combine(head[..., None], t)
        if objective == "gee":
            power = power[..., None] + axis

    if budget is None:
        length = np.full(shape, steps)
    else:
        # the budget sum p0 + (mid + p_last), mid = p1 + ... + p_{n-2}
        first = axis.reshape((steps,) + (1,) * (n - 2)) if n > 1 else np.asarray(-0.0)
        mid = np.asarray(-0.0)
        for _ in range(n - 2):
            mid = mid[..., None] + axis
        slack = budget + 1e-12 * (1.0 + abs(budget))
        length = _feasible_prefix(axis, first, mid, slack)
    head, power, length = head.ravel(), power.ravel(), length.ravel()
    if not length.any():
        raise InfeasibleError("no grid point satisfies the budget")
    if objective == "gee":
        rows = _gee_candidates(head, power, pc[0], t_last, axis, length)
    else:
        bound = np.where(length > 0, combine(head, np.maximum.accumulate(t_last)[length - 1]), -np.inf)
        rows = np.flatnonzero(bound == bound.max())

    # the candidate rows, in row-major order; the strict > keeps the first
    # maximum across blocks
    per_block = max(1, _BLOCK // steps)
    best_val = -np.inf
    best_row = best_k = 0
    for start in range(0, rows.size, per_block):
        block = rows[start:start + per_block]
        value = combine(head[block, None], t_last)
        if objective == "gee":
            value = value / (pc[0] + (power[block, None] + axis))
        if budget is not None:
            value = np.where(np.arange(steps) < length[block, None], value, -np.inf)
        k = int(np.argmax(value))
        if value.flat[k] > best_val:
            best_val = float(value.flat[k])
            r, best_k = divmod(k, steps)
            best_row = block[r]
    if best_val == -np.inf:
        raise InfeasibleError("no grid point satisfies the budget")
    return Allocation(np.append(axis[list(np.unravel_index(best_row, shape))], axis[best_k]), best_val)


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


def _gee_candidates(rate, power, pc, t, p, length):
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
