"""Power-allocation schemes.

Covers the classic water-filling allocation (rate-optimal under an average
power budget), the closed-form single-link energy-efficiency optimum, a
Dinkelbach solver for the global-EE ratio over parallel channels, and
budgeted multi-link solvers for the sum, product, and max-min weighted-EE
objectives.

Water-filling levels come from one exact sort-and-threshold rule
(`water_level`), and the Dinkelbach solver runs on a (rows, n) gain array
with one price per row (`gee_dinkelbach_rows`); `gee_dinkelbach` is its
one-row call. The Lambert W function gives both a link's EE peak (`eepa`)
and its power at a given EE level (`_rising_power`), so `wmee_maxmin`
bisects only on the common level; the sum and product solvers start from
the per-link peaks and only trade power between pairs of links.

Conventions: rates are in nats (natural log); converting to bits is a
reporting concern, never a solver concern. Noise power is normalized to 1,
so a channel gain is the SNR delivered by 1 W of transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError
from .numerics import lambert_w0

# Unused here: perfbench/child.py wraps this name on this module when it
# traces a run, so it must stay importable from it.
from .numerics import bisect  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Water level used for the very first Dinkelbach subproblem (price zero) when
# no total-power cap bounds it.
_FREE_LEVEL_SCALE = 1e3
_DINKELBACH_MAX_ITER = 1000


@dataclass(frozen=True)
class LinkConfig:
    """Per-link constants: circuit power, optional power cap, weight."""

    pc: float
    p_max: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pc) and self.pc > 0.0):
            raise ValueError(f"circuit power must be positive and finite, got {self.pc}")
        if self.p_max is not None and not (math.isfinite(self.p_max) and self.p_max > 0.0):
            raise ValueError(f"p_max must be positive and finite, got {self.p_max}")
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ValueError(f"weight must be positive and finite, got {self.weight}")


@dataclass
class Allocation:
    """Per-dimension transmit powers plus the objective value they achieve."""

    powers: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        self.powers = np.asarray(self.powers, dtype=float)


@dataclass
class GeeProblem:
    """Global-EE maximization instance: parallel gains sharing one circuit power."""

    gains: np.ndarray
    pc: float
    p_max_total: float | None = None

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=float)
        if self.gains.ndim != 1 or self.gains.size < 1:
            raise ValueError("gains must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.gains)) or np.any(self.gains < 0.0):
            raise ValueError("gains must be finite and non-negative")
        if not np.any(self.gains > 0.0):
            raise InfeasibleError("at least one gain must be positive")
        if not (math.isfinite(self.pc) and self.pc > 0.0):
            raise ValueError(f"circuit power must be positive and finite, got {self.pc}")
        if self.p_max_total is not None and not (math.isfinite(self.p_max_total) and self.p_max_total > 0.0):
            raise ValueError(f"p_max_total must be positive and finite, got {self.p_max_total}")


def se_of(gamma: float, p: float) -> float:
    """Spectral efficiency ln(1 + gamma * p) in nats/s/Hz."""
    if p < 0.0:
        raise ValueError(f"power must be non-negative, got {p}")
    return math.log1p(gamma * p)


def ee_of(gamma: float, p: float, cfg: LinkConfig) -> float:
    """Energy efficiency se / (pc + p) in nats/J."""
    return se_of(gamma, p) / (cfg.pc + p)


def eepa(gamma: float, cfg: LinkConfig) -> float:
    """Transmit power maximizing the link energy efficiency.

    Closed form: (exp(1 + W((gamma * pc - 1) / e)) - 1) / gamma with W the
    principal Lambert branch. The EE is pseudo-concave in the power, so when
    a cap is present the capped optimum is simply the clipped value. A zero
    gain yields zero power.
    """
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gain must be finite and non-negative, got {gamma}")
    if not cfg.pc > 0.0:
        raise ValueError(f"circuit power must be positive, got {cfg.pc}")
    if gamma == 0.0:
        return 0.0
    arg = (gamma * cfg.pc - 1.0) / math.e
    p = (math.exp(1.0 + lambert_w0(arg)) - 1.0) / gamma
    p = max(p, 0.0)
    if cfg.p_max is not None:
        p = min(p, cfg.p_max)
    return p


def wpa(gains, p_avg: float) -> Allocation:
    """Water-filling power allocation: maximizes the sum rate at mean power p_avg.

    Powers are max(0, level - 1/gain) with the water level at which the
    powers sum to p_avg * n (see `water_level`). The reported objective is the
    achieved sum rate.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gains must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    if not (math.isfinite(p_avg) and p_avg > 0.0):
        raise ValueError(f"p_avg must be positive and finite, got {p_avg}")
    if not np.any(g > 0.0):
        raise InfeasibleError("water-filling needs at least one positive gain")
    powers = np.maximum(0.0, water_level(g, p_avg * g.size) - _inverse(g))
    rate = float(np.log1p(g * powers).sum())
    return Allocation(powers, rate)


def _inverse(g: np.ndarray) -> np.ndarray:
    """1/g elementwise, +inf for a zero gain (a dead channel never fills)."""
    with np.errstate(divide="ignore"):
        return 1.0 / g


def water_level(gains, total):
    """Water level w with sum_i max(0, w - 1/g_i) = total, per row of gains.

    gains has shape (..., n) with at least one positive entry per row; total
    is positive and broadcasts against the rows. Exact up to rounding: with
    the floors 1/g sorted ascending into s, the k cheapest channels are active
    at level (total + s_1 + ... + s_k) / k, and the active count is the
    largest k whose floor s_k lies below that level.
    """
    floors = np.sort(_inverse(np.asarray(gains, dtype=float)), axis=-1)
    count = np.arange(1, floors.shape[-1] + 1)
    levels = (np.asarray(total, dtype=float)[..., None] + np.cumsum(floors, axis=-1)) / count
    active = np.count_nonzero(floors < levels, axis=-1)
    return np.take_along_axis(levels, active[..., None] - 1, axis=-1)[..., 0]


def gee_dinkelbach(prob: GeeProblem, tol: float) -> Allocation:
    """Maximize the global EE  sum_i ln(1 + g_i p_i) / (pc + sum_i p_i).

    The one-row call of `gee_dinkelbach_rows`.
    """
    powers, objective = gee_dinkelbach_rows(prob.gains[None, :], prob.pc, tol, prob.p_max_total)
    return Allocation(powers[0], float(objective[0]))


def gee_dinkelbach_rows(gains, pc: float, tol: float, p_max_total: float | None = None):
    """Global-EE maximization for every row of a (rows, n) gain array.

    Row r solves max sum_i ln(1 + g_ri p_ri) / (pc + sum_i p_ri); the circuit
    power pc and the optional total-power cap are shared by all rows.
    Dinkelbach iteration, one price eta per row: at price eta the subproblem
    max R(p) - eta * sum(p) is water-filling with level 1/eta (cut back to the
    cap-saturating level when that overshoots the cap); eta is then refreshed
    to the achieved ratio. A row stops once R - eta_prev * (pc + sum p) <=
    tol * R (relative to its rate R) and leaves the working set. The first
    subproblem (eta = 0) uses either the cap-saturating level or a large
    fallback level of 1e3 / min positive gain.

    Returns (powers, objective) of shapes (rows, n) and (rows,). Errors name
    the first failing row in the message and in the error's `row`.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"gains must be a non-empty (rows, n) array, got shape {g.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    if not (math.isfinite(pc) and pc > 0.0):
        raise ValueError(f"circuit power must be positive and finite, got {pc}")
    if p_max_total is not None and not (math.isfinite(p_max_total) and p_max_total > 0.0):
        raise ValueError(f"p_max_total must be positive and finite, got {p_max_total}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    dead = ~np.any(g > 0.0, axis=1)
    if dead.any():
        row = int(np.argmax(dead))
        raise InfeasibleError(f"row {row}: at least one gain must be positive", row=row)

    # level at price zero; with a cap it is also the level a row is cut back to
    if p_max_total is None:
        first = _FREE_LEVEL_SCALE / np.where(g > 0.0, g, np.inf).min(axis=1)
    else:
        first = water_level(g, p_max_total)
    powers = np.empty_like(g)
    objective = np.empty(g.shape[0])
    # working set: rows still iterating, with their gains, floors and price
    rows = np.arange(g.shape[0])
    g_w, inv_w, eta = g, _inverse(g), np.zeros(g.shape[0])
    for _ in range(_DINKELBACH_MAX_ITER):
        level = first[rows]
        priced = eta > 0.0
        level[priced] = 1.0 / eta[priced]
        p = np.maximum(0.0, level[:, None] - inv_w)
        if p_max_total is not None:
            over = p.sum(axis=1) > p_max_total * (1.0 + 1e-12)
            p[over] = np.maximum(0.0, first[rows[over], None] - inv_w[over])
        rate = np.log1p(g_w * p).sum(axis=1)
        total = pc + p.sum(axis=1)
        done = rate - eta * total <= tol * rate
        powers[rows[done]] = p[done]
        objective[rows[done]] = rate[done] / total[done]
        going = ~done
        if not going.any():
            return powers, objective
        rows, g_w, inv_w, eta = rows[going], g_w[going], inv_w[going], (rate / total)[going]
    row = int(rows[0])
    raise NumericalError(
        f"row {row}: gee_dinkelbach: no convergence after {_DINKELBACH_MAX_ITER} iterations", row=row
    )


def wmee_maxmin(gains, cfgs, p_total: float) -> Allocation:
    """Maximize the minimum weighted link EE under a total power budget.

    Bisection on the common level t: for each link the minimal power reaching
    weight * EE = t sits on the rising branch of the (unimodal) EE curve and
    has a Lambert-W closed form (`_rising_power`); t is feasible when those
    powers fit the budget. The returned level is the feasible end of the
    final bracket, so the powers never exceed the budget, and all weighted
    EEs are equalized whenever the budget binds.
    """
    g, cfgs = _check_links(gains, cfgs, p_total)
    n = g.size
    peaks = np.array([eepa(g[i], cfgs[i]) for i in range(n)])
    tops = np.array([cfgs[i].weight * ee_of(g[i], peaks[i], cfgs[i]) for i in range(n)])
    t_hi = float(tops.min())
    if t_hi <= 0.0:
        return Allocation(np.zeros(n), 0.0)

    def powers_at(t: float) -> np.ndarray:
        if t <= 0.0:
            return np.zeros(n)
        return np.array([_rising_power(g[i], cfgs[i], t, peaks[i]) for i in range(n)])

    p_hi = powers_at(t_hi)
    if p_hi.sum() <= p_total:
        return Allocation(p_hi, t_hi)
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if powers_at(mid).sum() <= p_total:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * t_hi:
            break
    return Allocation(powers_at(lo), lo)


def _rising_power(gamma: float, cfg: LinkConfig, t: float, peak: float) -> float:
    """Smallest p with weight * ln(1 + gamma p) = t (pc + p), clipped to [0, peak].

    With a = t / weight, c = a / gamma and x = 1 + gamma p, the smaller root
    of ln x = a pc + c (x - 1) is x = -W0(-c e^(a pc - c)) / c. As x - 1
    cancels for small gamma p, y = gamma p takes one Newton step on
    log1p(y) = a pc + c y, kept only at a positive slope and a step no larger
    than that cancellation.
    """
    a = t / cfg.weight
    c = a / gamma
    y = -lambert_w0(-c * math.exp(a * cfg.pc - c)) / c - 1.0
    slope = 1.0 / (1.0 + y) - c
    if slope > 0.0:
        step = (math.log1p(y) - a * cfg.pc - c * y) / slope
        if abs(step) <= 1e-12 * (1.0 + y):
            y -= step
    return min(max(y / gamma, 0.0), peak)


def wsee_ascent(gains, cfgs, p_total: float) -> Allocation:
    """Maximize the weighted sum of link EEs under a total power budget.

    Each link's EE rises up to its peak (`eepa`, clipped to its cap), so the
    capped peaks are optimal whenever they fit the budget. Otherwise they are
    scaled onto the budget face and improved by golden-section line searches
    along pairwise power transfers, sweep after sweep until the objective
    stops rising. The objective is nonconvex; the result is a stationary
    point, cross-checked against a grid oracle in tests.
    """
    return _budget_ascent(gains, cfgs, p_total, log_terms=False)


def wpee_ascent(gains, cfgs, p_total: float) -> Allocation:
    """Maximize the weighted product of link EEs under a total power budget.

    Works on the monotone transform sum_i log(w_i EE_i); the reported
    objective is the product itself. Any link with zero gain collapses the
    product identically to zero, so such instances are rejected.
    """
    return _budget_ascent(gains, cfgs, p_total, log_terms=True)


def _check_links(gains, cfgs, p_total: float):
    g = np.asarray(gains, dtype=float)
    cfgs = list(cfgs)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gains must be a non-empty 1-D sequence")
    if len(cfgs) != g.size:
        raise ValueError(f"got {g.size} gains but {len(cfgs)} link configs")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    if not (math.isfinite(p_total) and p_total > 0.0):
        raise ValueError(f"p_total must be positive and finite, got {p_total}")
    return g, cfgs


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
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


def _budget_ascent(gains, cfgs, p_total: float, log_terms: bool) -> Allocation:
    g, cfgs = _check_links(gains, cfgs, p_total)
    if log_terms and np.any(g == 0.0):
        raise InfeasibleError("product objective is degenerate when a link has zero gain")
    n = g.size
    peaks = np.array([eepa(g[i], cfgs[i]) for i in range(n)])
    caps = np.array([c.p_max if c.p_max is not None else math.inf for c in cfgs])

    def term(i: int, p: float) -> float:
        v = cfgs[i].weight * ee_of(g[i], max(p, 0.0), cfgs[i])
        if log_terms:
            return math.log(v) if v > 0.0 else -math.inf
        return v

    def total(p: np.ndarray) -> float:
        return sum(term(i, p[i]) for i in range(n))

    # every term rises on [0, peak], so min(peak, cap) maximizes each
    # coordinate; scaled onto the budget face, each coordinate's best point
    # within its remaining budget is its current power, and only pairwise
    # transfers along the face can still raise the objective
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

                def shifted(t: float, i=i, j=j) -> float:
                    return term(i, p[i] + t) + term(j, p[j] - t)

                # coarse scan to bracket the best basin, then refine
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
