"""Brute-force verification by exhaustive grid search.

Evaluates any of the supported objectives on every point of a rectangular
power grid (optionally filtered by a total-power budget) and returns the best
point, as an independent check on the closed-form and iterative solvers.

Every objective combines per-link terms that depend on that link's own power
only (log1p(g*p), or w*log1p(g*p)/(pc+p)), so each term is evaluated once per
axis point and the grid values are formed by broadcasting over row blocks of
the first axis. The arithmetic runs in the per-point order (sums from the
first link on), so every grid value is bitwise the one a per-point evaluation
gives, and ties break toward the lexicographically smallest power vector
whatever the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .allocator import Allocation

OBJECTIVES = ("ee_siso", "gee", "wsee", "wpee", "wmee", "sumrate")

_MAX_POINTS = 10**8
# grid values combined per row block of the first axis (about 1 MB of float64)
_BLOCK = 2**17
# how per-link terms combine into the objective (the rest sum them)
_COMBINE = {"wpee": np.multiply, "wmee": np.minimum}


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

    @property
    def step(self) -> float:
        return (self.p_max - self.p_min) / (self.steps - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.steps)


def grid_argmax(objective: str, gains, cfgs, grid: GridSpec, budget: float | None = None) -> Allocation:
    """Best grid point for the named objective.

    budget, when given, keeps only points whose summed power is at most the
    budget. Gains must be finite and non-negative, one to three of them
    (grid search only). For "gee" the shared circuit power is taken from the
    first config.
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
    if grid.steps**n > _MAX_POINTS:
        raise ValueError(f"grid too large: {grid.steps}**{n} points exceeds {_MAX_POINTS}")

    axis = grid.axis()
    pc = np.array([c.pc for c in cfgs])
    w = np.array([c.weight for c in cfgs])
    budget_slack = None if budget is None else budget + 1e-12 * (1.0 + abs(budget))

    # each link's term depends on its own power only: evaluate it once per
    # axis point, (n, steps), then gather the tail links' terms and powers
    # over the row-major index grid of axes 1..n-1 (one point when n == 1)
    se = np.log1p(g[:, None] * axis)
    term = se if objective in ("sumrate", "gee") else w[:, None] * se / (pc[:, None] + axis)
    tail_idx = np.indices((grid.steps,) * (n - 1)).reshape(n - 1, grid.steps ** (n - 1))
    tail_term = np.take_along_axis(term[1:], tail_idx, axis=1)
    tail_p = axis[tail_idx]
    tail_sum = sum(tail_p, np.zeros(tail_idx.shape[1]))
    combine = _COMBINE.get(objective, np.add)

    # sums run from the first link on, as at a single point, so the values
    # are bitwise the per-point ones; the strict > keeps the first maximum in
    # row-major order across blocks
    rows = max(1, _BLOCK // tail_sum.size)
    best_val = -np.inf
    best_idx = (0, 0)
    for start in range(0, grid.steps, rows):
        p0 = axis[start:start + rows, None]
        value = term[0][start:start + rows, None]
        for t in tail_term:
            value = combine(value, t)
        if objective == "gee":
            value = value / (pc[0] + sum(tail_p, p0))
        if budget_slack is not None:
            value = np.where(p0 + tail_sum <= budget_slack, value, -np.inf)
        k = int(np.argmax(value))
        if value.flat[k] > best_val:
            best_val = float(value.flat[k])
            r, j = divmod(k, value.shape[1])
            best_idx = (start + r, j)
    if best_val == -np.inf:
        raise InfeasibleError("no grid point satisfies the budget")
    i, j = best_idx
    powers = np.concatenate(([axis[i]], tail_p[:, j]))
    return Allocation(powers, best_val)
