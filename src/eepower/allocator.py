"""Power-allocation schemes.

Covers the classic water-filling allocation (rate-optimal under an average
power budget), the closed-form single-link energy-efficiency optimum, the
closed-form global-EE optimum over parallel channels, and budgeted
multi-link solvers for the sum, product, and max-min weighted-EE objectives.

Water-filling levels come from one exact sort-and-threshold rule
(`water_level`). The global-EE optimum is water-filling at a Lambert-W level
found without iteration, for every row of a (rows, n) gain array at once
(`gee_rows`); `gee_dinkelbach` is its one-row call, and at one link it is
`eepa`'s formula. The Lambert W function also gives a link's power at a
given EE level, so the max-min solver bisects only on each row's common
level (`wmee_rows`); the sum and product solvers start from the per-link
peaks and only trade power between pairs of links.

Conventions: rates are in nats (natural log); converting to bits is a
reporting concern, never a solver concern. Noise power is normalized to 1,
so a channel gain is the SNR delivered by 1 W of transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .numerics import lambert_w0_from_offset, lambert_w0_offset

# Unused here: perfbench/child.py wraps these names on this module when it
# traces a run, so they must stay importable from it.
from .numerics import bisect, lambert_w0  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_positive(name: str, value, optional: bool = False) -> None:
    """ValueError naming `name` unless value (a number or an array) is
    positive and finite throughout (or None when the parameter is optional)."""
    if optional and value is None:
        return
    if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class LinkConfig:
    """Per-link constants: circuit power, optional power cap, weight."""

    pc: float
    p_max: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("circuit power", self.pc)
        _check_positive("p_max", self.p_max, optional=True)
        _check_positive("weight", self.weight)


@dataclass
class Allocation:
    """Per-dimension transmit powers plus the objective value they achieve."""

    powers: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        self.powers = np.asarray(self.powers, dtype=float)


@dataclass
class GeeProblem:
    """Global-EE maximization instance (`gee_dinkelbach` checks its values)."""

    gains: np.ndarray
    pc: float
    p_max_total: float | None = None

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=float)
        if self.gains.ndim != 1 or self.gains.size < 1:
            raise ValueError("gains must be a non-empty 1-D sequence")


def se_of(gamma: float, p: float) -> float:
    """Spectral efficiency ln(1 + gamma * p) in nats/s/Hz."""
    if p < 0.0:
        raise ValueError(f"power must be non-negative, got {p}")
    return math.log1p(gamma * p)


def ee_of(gamma: float, p: float, cfg: LinkConfig) -> float:
    """Energy efficiency se / (pc + p) in nats/J."""
    return se_of(gamma, p) / (cfg.pc + p)


def eepa(gamma, cfg: LinkConfig):
    """Transmit power maximizing the link energy efficiency, per gain in
    gamma (a number or an array).

    Closed form: (exp(1 + W((gamma * pc - 1) / e)) - 1) / gamma with W the
    principal Lambert branch, as expm1(v) / gamma with v = 1 + W at the offset
    gamma * pc / e from the branch point, where no digit cancels. The EE is
    pseudo-concave in the power, so a cap clips it. A zero gain gets 0 W.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError(f"gain must be finite and non-negative, got {gamma}")
    return _peaks(g, cfg.pc, cfg.p_max or math.inf)[()]


def _peaks(g, pc, cap):
    """`eepa`'s powers for gains, circuit powers and caps (inf for none)."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero gain's 0 / 0
        p = np.where(g > 0.0, np.expm1(lambert_w0_offset(g * pc / math.e)) / g, 0.0)
    return np.minimum(p, cap)


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
    _check_positive("p_avg", p_avg)
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


def gee_dinkelbach(prob: GeeProblem) -> Allocation:
    """Maximize the global EE  sum_i ln(1 + g_i p_i) / (pc + sum_i p_i).

    The one-row call of `gee_rows`.
    """
    powers, objective = gee_rows(prob.gains[None, :], prob.pc, prob.p_max_total)
    return Allocation(powers[0], float(objective[0]))


def gee_rows(gains, pc, p_max_total: float | None = None):
    """Global-EE maximization for every row of a (rows, n) gain array.

    Row r solves max sum_i ln(1 + g_ri p_ri) / (pc_r + sum_i p_ri), with one
    circuit power pc for all rows or one per row and an optional shared cap.
    The optimum is water-filling at the level w where R(w) = (pc + P(w)) / w
    (Miao, Himayat & Li, IEEE TCOM 2010). With the floors s = 1/g sorted
    ascending and delta_j = s_j / s_1 - 1, R - (pc + P) / w rises in w, so
    the active links are the k floors where it is negative. With m the mean
    of log1p(delta) over them, w = s_1 exp(m + v), v = 1 + W0(-1/e + d) and
    d = (pc / s_1 - sum delta + k expm1(m)) / (k e e^m); the powers are
    s_1 (expm1(m + v) - delta_i), w - s_i without its cancellation (none for
    a zero gain, whose floor is infinite). The EE is unimodal in the total
    power, so a row over the cap is cut back to `water_level(g, cap)`.

    Returns (powers, objective) of shapes (rows, n) and (rows,). Errors name
    the first failing row in the message and in the error's `row`.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"gains must be a non-empty (rows, n) array, got shape {g.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    if np.ndim(pc) == 0:
        _check_positive("circuit power", pc)
    else:
        pcs = np.asarray(pc, dtype=float)
        bad = ~(np.isfinite(pcs) & (pcs > 0.0))
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"row {row}: circuit power must be positive and finite, got {pcs[row]}")
    _check_positive("p_max_total", p_max_total, optional=True)
    dead = ~np.any(g > 0.0, axis=1)
    if dead.any():
        row = int(np.argmax(dead))
        raise InfeasibleError(f"row {row}: at least one gain must be positive", row=row)

    inv = _inverse(g)
    s1 = inv.min(axis=1, keepdims=True)
    scaled_pc = pc / s1[:, 0]
    delta = np.sort(inv, axis=1) / s1 - 1.0
    cum_delta = np.cumsum(delta, axis=1)
    j = np.arange(1, g.shape[1] + 1)
    # R - (pc + P) / w at w = s_j is j logs - cum_log - spill, formed in an
    # order that keeps few (rows, n) arrays alive; an infinite floor gives NaN,
    # which never counts
    with np.errstate(invalid="ignore"):
        spill = (j * delta + scaled_pc[:, None] - cum_delta) / (1.0 + delta)
        logs = np.log1p(delta)
        del delta
        cum_log = np.cumsum(logs, axis=1)
        logs *= j
        k = np.count_nonzero(logs - cum_log < spill, axis=1)
    del logs, spill
    m = np.take_along_axis(cum_log, k[:, None] - 1, axis=1)[:, 0] / k
    sum_delta = np.take_along_axis(cum_delta, k[:, None] - 1, axis=1)[:, 0]
    del cum_log, cum_delta
    d = (scaled_pc - sum_delta + k * np.expm1(m)) / (k * math.e * np.exp(m))
    rise = np.expm1(m + lambert_w0_offset(d))
    powers = np.maximum(0.0, s1 * (rise[:, None] - (inv / s1 - 1.0)))
    if p_max_total is not None:
        over = powers.sum(axis=1) > p_max_total
        powers[over] = np.maximum(0.0, water_level(g[over], p_max_total)[:, None] - inv[over])
    return powers, np.log1p(g * powers).sum(axis=1) / (pc + powers.sum(axis=1))


def wmee_maxmin(gains, cfgs, p_total: float) -> Allocation:
    """Maximize the minimum weighted link EE under a total power budget: the
    one-row call of `wmee_rows`, with the common level as the objective."""
    g, cfgs = _check_links(gains, cfgs, p_total)
    pc, weight, cap = np.array([[c.pc, c.weight, c.p_max or math.inf] for c in cfgs]).T
    powers, level = wmee_rows(g[None, :], pc, weight, cap, p_total)
    return Allocation(powers[0], float(level[0]))


def wmee_rows(gains, pc, weight, cap, budget: float):
    """Max-min weighted link EE (Zappone & Jorswieck, FnT 2015) under a total
    power budget, for every row of a (rows, n) gain array.

    pc, weight and cap (inf for none) are per-link constants that broadcast
    against the gains. Each row bisects its common level t below its lowest
    capped peak EE, where t is feasible when the least powers reaching
    weight * EE = t (`_rising_powers`) fit the budget, until its bracket is at
    most 1e-13 of the top wide; it takes the feasible end, so the weighted EEs
    are equal whenever the budget binds. A zero gain gives a zero level.

    Returns (powers, level) of shapes (rows, n) and (rows,). A bad value
    names the first row that holds it.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"gains must be a non-empty (rows, n) array, got shape {g.shape}")
    pc, weight, cap = (np.broadcast_to(np.asarray(v, dtype=float), g.shape) for v in (pc, weight, cap))
    ok = np.isfinite(g) & np.isfinite(pc) & np.isfinite(weight) & (g >= 0.0) & (pc > 0.0) & (weight > 0.0) & (cap > 0.0)
    if not ok.all():
        r = int(np.argmax(~ok.all(axis=1)))
        raise ValueError(f"row {r}: need finite g >= 0, pc, weight > 0, cap > 0: {g[r]}, {pc[r]}, {weight[r]}, {cap[r]}")
    _check_positive("budget", budget)

    peaks = _peaks(g, pc, cap)
    t_hi = (weight * np.log1p(g * peaks) / (pc + peaks)).min(axis=1)
    going = _rising_powers(g, pc, weight, peaks, t_hi).sum(axis=1) > budget
    # a row whose top level fits is done at it
    lo, hi = np.where(going, 0.0, t_hi), t_hi
    for _ in range(200):
        if not going.any():
            break
        mid = 0.5 * (lo + hi)
        fits = _rising_powers(g, pc, weight, peaks, mid).sum(axis=1) <= budget
        lo = np.where(going & fits, mid, lo)
        hi = np.where(going & ~fits, mid, hi)
        going &= hi - lo > 1e-13 * t_hi
    return _rising_powers(g, pc, weight, peaks, lo), lo


def _rising_powers(g, pc, weight, peaks, t):
    """Smallest p with weight * ln(1 + g p) = t (pc + p) per link, clipped to
    [0, peak], for (rows, n) link constants and the (rows,) levels t.

    With a = t / weight, c = a / g and x = 1 + g p, the smaller root of
    ln x = a pc + c (x - 1) is x = -W0(-c e^(a pc - c)) / c, the argument
    also taken as -1/e + d, d = -expm1(ln c + 1 + a pc - c) / e. As x - 1
    cancels for small g p, y = g p takes one Newton step on log1p(y) =
    a pc + c y, kept at a positive slope if at most 1e-12 (1 + y) long.
    """
    a = t[:, None] / weight
    # a zero level or a zero gain makes y NaN, which fmax takes to 0 W
    with np.errstate(divide="ignore", invalid="ignore"):
        c = a / g
        rest = a * pc - c
        d = np.maximum(-np.expm1(np.log(c) + 1.0 + rest) / math.e, 0.0)
        y = -lambert_w0_from_offset(d, -c * np.exp(rest)) / c - 1.0
        slope = 1.0 / (1.0 + y) - c
        step = (np.log1p(y) - a * pc - c * y) / slope
        y = np.where((slope > 0.0) & (np.abs(step) <= 1e-12 * (1.0 + y)), y - step, y)
        return np.minimum(np.fmax(y / g, 0.0), peaks)


def wsee_ascent(gains, cfgs, p_total: float) -> Allocation:
    """Maximize the weighted sum of link EEs under a total power budget.

    Each link's EE rises up to its peak (`eepa`, clipped to its cap), so the
    capped peaks are optimal whenever they fit the budget. Otherwise they are
    scaled onto the budget face and improved by golden-section line searches
    along pairwise power transfers, sweep after sweep. Each link term is
    concave on [0, min(peak, cap)] and no optimum puts a link above that
    bound, so this is a concave program and a point no pairwise transfer
    improves is its global optimum. The sweeps stop once a whole sweep raises
    the objective by at most an absolute 1e-9, not a relative amount, so an
    instance whose objective is far below 1 can stop early. Cross-checked
    against a grid oracle in tests.
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
    _check_positive("p_total", p_total)
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
    # the sweeps evaluate thousands of terms per instance, so they run on
    # Python floats with each link's constants read once; a term is
    # w * (log1p(g x) / (pc + x)) at the clamped power x, the operations of
    # w * ee_of(g, max(p, 0), cfg), so every value is ee_of's to the bit
    pc, weight, caps = np.array([[c.pc, c.weight, c.p_max or math.inf] for c in cfgs]).T
    gs, pcs, ws, cap = g.tolist(), pc.tolist(), weight.tolist(), caps.tolist()
    log, log1p, inf = math.log, math.log1p, math.inf

    def term(i: int, x: float) -> float:
        if x < 0.0:
            x = 0.0
        v = ws[i] * (log1p(gs[i] * x) / (pcs[i] + x))
        if log_terms:
            return log(v) if v > 0.0 else -inf
        return v

    def total(p: list) -> float:
        # left to right from link 0 on every Python version (from 3.12 on,
        # sum() compensates float sums and would round differently)
        s = 0.0
        for i in range(n):
            s += term(i, p[i])
        return s

    # every term rises on [0, peak], so min(peak, cap) maximizes each
    # coordinate; scaled onto the budget face, each coordinate's best point
    # within its remaining budget is its current power, and only pairwise
    # transfers along the face can still raise the objective
    p = _peaks(g, pc, caps)
    s = float(p.sum())
    if s <= p_total:
        obj = total(p.tolist())
        return Allocation(p, math.exp(obj) if log_terms else obj)
    p *= p_total / s
    p = p.tolist()
    obj = total(p)
    for _ in range(500):
        for i in range(n):
            for j in range(i + 1, n):
                pi, pj = p[i], p[j]
                t_lo = max(-pi, pj - cap[j])
                t_hi = min(pj, cap[i] - pi)
                if t_hi - t_lo <= 1e-12:
                    continue

                def shifted(t, pi=pi, pj=pj, gi=gs[i], gj=gs[j], ci=pcs[i], cj=pcs[j], wi=ws[i], wj=ws[j]):
                    x = pi + t
                    if x < 0.0:
                        x = 0.0
                    y = pj - t
                    if y < 0.0:
                        y = 0.0
                    u = wi * (log1p(gi * x) / (ci + x))
                    v = wj * (log1p(gj * y) / (cj + y))
                    if log_terms:
                        u = log(u) if u > 0.0 else -inf
                        v = log(v) if v > 0.0 else -inf
                    return u + v

                # coarse scan to bracket the best basin, then refine; the scan
                # points are np.linspace(t_lo, t_hi, 33)'s, k * step + t_lo
                # with the end point exact
                step = (t_hi - t_lo) / 32
                ts = [k * step + t_lo for k in range(32)]
                ts.append(t_hi)
                vals = [shifted(t) for t in ts]
                k = vals.index(max(vals))
                t_star, best = _golden_max(shifted, ts[max(k - 1, 0)], ts[min(k + 1, 32)])
                if best > term(i, pi) + term(j, pj):
                    p[i] = pi + t_star
                    p[j] = pj - t_star
        new = total(p)
        if new - obj <= 1e-9:
            obj = max(obj, new)
            break
        obj = new
    return Allocation(np.maximum(p, 0.0), math.exp(obj) if log_terms else obj)
