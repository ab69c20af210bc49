"""Power-allocation schemes.

Covers the classic water-filling allocation (rate-optimal under an average
power budget), the closed-form single-link energy-efficiency optimum, the
closed-form global-EE optimum over parallel channels, and budgeted
multi-link solvers for the sum, product, and max-min of the link EEs.

Water-filling levels come from one exact sort-and-threshold rule
(`water_level`). The global-EE optimum is water-filling at a Lambert-W level
found without iteration, for every row of a (rows, n) gain array and every
circuit power at once (`gee_rows`), or for blocks of several n with one
Lambert-W stage over all of them (`_gee_solve`); `gee_dinkelbach` is its
one-row call. Which links are active is a test on the gains alone against
pc / s_1 (s_1 the smallest floor 1/g). At the level w = s_1 e^(m + v), with
v = 1 + W and m the mean log1p of the k active floors' offsets
delta = s / s_1 - 1, each active link has 1 + g p = w / s, so the rate is
the sum of m + v - log1p(delta) over them: k v nats, and the total power
s_1 (k expm1(m + v) - sum delta). The objective is formed from these per-row
values, so the (rows, n) powers are built only where a caller keeps them or
a row's total is over the cap.
The Lambert W function also gives a link's power at a given EE level, so the
max-min solver finds only each row's common level t, by bracketed Halley
steps in s = sqrt(T - t) below the row's top level T, in which the budget
equation is smooth, written in t so that T - s^2 is never formed
(`wmee_rows`); the sum and product solvers (`wsee_rows`, `wpee_rows`) start
from the per-link peaks and only trade power between pairs of links, row by
row, each trade placed by bracketed Newton steps that stop once the last
step's predicted error is within 1e-15 of the smaller power, without a
further slope evaluation to confirm it.

The three budgeted solvers share one interface: (rows, n) gains, per-link
circuit powers that broadcast against them, and one total budget, checked by
one validator that names the first bad row; each returns (powers, objective)
per row. Every link has unit weight and no power cap of its own.
`wsee_ascent`, `wpee_ascent` and `wmee_maxmin` are their one-row calls, with
one circuit power per link.

A link's SE ln(1 + g p) and EE SE / (pc + p) over arrays come from
`link_terms`; `ee_of` and the WSEE/WPEE ascent form them on Python floats.

The package exports the row solvers only: `GeeProblem`, `gee_dinkelbach`,
`wsee_ascent`, `wpee_ascent`, `wmee_maxmin` and `ee_of` stay importable here
because the benchmark tracer wraps them and the tests import them, until the
ROADMAP's tracer item ("the tracer finds what it wraps") frees them and its
deletion pass ("one array API, no shims") removes them.

Conventions: rates are in nats (natural log); converting to bits is a
reporting concern, never a solver concern. Noise power is normalized to 1,
so a channel gain is the SNR delivered by 1 W of transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import InfeasibleError, PowerControlError
from .numerics import lambert_w0_from_offset, lambert_w0_offset

# Unused here: perfbench/child.py wraps these names on this module when it
# traces a run, so they must stay importable from it.
from .numerics import bisect, lambert_w0  # noqa: F401

def _check_positive(name: str, value) -> None:
    """ValueError naming `name` unless value (a number or an array) is
    positive and finite throughout."""
    if not np.all(np.isfinite(value) & (np.asarray(value) > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


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


def link_terms(gains, powers, pc):
    """Spectral efficiency ln(1 + g p) in nats/s/Hz and energy efficiency
    se / (pc + p) in nats/J of links whose gains, powers and circuit powers
    broadcast together: the one array form of the link formula."""
    se = np.log1p(gains * powers)
    return se, se / (pc + powers)


def ee_of(gamma: float, p: float, pc: float) -> float:
    """Energy efficiency ln(1 + gamma * p) / (pc + p) of one link in nats/J,
    on Python floats (`link_terms` is the array form)."""
    if p < 0.0:
        raise ValueError(f"power must be non-negative, got {p}")
    return math.log1p(gamma * p) / (pc + p)


def eepa(gamma, pc):
    """Transmit power maximizing the link energy efficiency, per gain in
    gamma (a number or an array) at circuit power pc (one, or one per gain).

    Closed form: (exp(1 + W((gamma * pc - 1) / e)) - 1) / gamma with W the
    principal Lambert branch, as expm1(v) / gamma with v = 1 + W at the offset
    gamma * pc / e from the branch point, where no digit cancels. A zero gain
    gets 0 W. A ValueError names the first gain and pc whose power is not
    finite: gamma * pc from about 1.78e308 on, where the Lambert stage
    overflows, 1 % short of the float range's end.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError(f"gain must be finite and non-negative, got {gamma}")
    _check_positive("circuit power", pc)
    peaks = _peaks(g, pc)
    bad = ~np.isfinite(peaks)
    if bad.any():
        i = np.argmax(bad)
        g_bad, pc_bad = (float(np.broadcast_to(v, bad.shape).flat[i]) for v in (g, pc))
        raise ValueError(f"gain times circuit power overflows the EE-optimal power: gain {g_bad!r}, pc {pc_bad!r}")
    return peaks[()]


def _peaks(g, pc):
    """`eepa`'s powers for gains and circuit powers; NaN where g * pc
    overflows the Lambert stage."""
    # a zero gain's 0 / 0, and g * pc near or past the float range
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(g > 0.0, np.expm1(lambert_w0_offset(g * pc / math.e)) / g, 0.0)


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
    largest k whose floor s_k lies below that level, at least 1: a total
    below the rounding of s_1 gets the level s_1, which fills no power.
    Where the total is that small beside the floors, the level's rounding
    can fill up to about twice the total; a level whose powers
    max(0, w - s_i) sum to more than total (1 + 1e-13) steps down an ulp at
    a time until they fit, and never below s_1.
    """
    floors = np.sort(_inverse(np.asarray(gains, dtype=float)), axis=-1)
    count = np.arange(1, floors.shape[-1] + 1)
    total = np.asarray(total, dtype=float)
    levels = (total[..., None] + np.cumsum(floors, axis=-1)) / count
    active = np.maximum(np.count_nonzero(floors < levels, axis=-1), 1)
    level = np.take_along_axis(levels, active[..., None] - 1, axis=-1)[..., 0]
    while True:
        spent = np.maximum(0.0, level[..., None] - floors).sum(axis=-1)
        over = (spent > total * (1.0 + 1e-13)) & (level > floors[..., 0])
        if not over.any():
            return level
        level = np.where(over, np.nextafter(level, -np.inf), level)


def gee_dinkelbach(prob: GeeProblem) -> Allocation:
    """Maximize the global EE  sum_i ln(1 + g_i p_i) / (pc + sum_i p_i).

    The one-row call of `gee_rows`.
    """
    powers, objective = gee_rows(prob.gains[None, :], prob.pc, prob.p_max_total)
    return Allocation(powers[0], float(objective[0]))


def gee_rows(gains, pc, p_max_total: float | None = None):
    """Global-EE maximization for every row of a (rows, n) gain array.

    Row r solves max sum_i ln(1 + g_ri p_ri) / (pc_r + sum_i p_ri), with one
    circuit power pc for all rows or one per row and an optional shared cap;
    leading axes of pc, such as a (P, 1) column, solve for many at once.
    The optimum is water-filling at the level w where R(w) = (pc + P(w)) / w
    (Miao, Himayat & Li, IEEE TCOM 2010). With the floors s = 1/g sorted
    ascending and delta_j = s_j / s_1 - 1, R - (pc + P) / w rises in w, so
    the active links are the k floors where it is negative. With m the mean
    of log1p(delta) over them, w = s_1 exp(m + v), v = 1 + W0(-1/e + d) and
    d = (pc / s_1 - sum delta + k expm1(m)) / (k e e^m); the powers are
    s_1 (expm1(m + v) - delta_i), w - s_i without its cancellation (none for
    a zero gain, whose floor is infinite). On an active link
    1 + g_i p_i = w / s_i = e^(m + v) / (1 + delta_i), and k m is the sum of
    log1p(delta) over the active links, so the rate is k v nats and the
    total power s_1 (k expm1(m + v) - sum delta): the objective is formed
    from these, not from the powers. The EE is unimodal in the total power,
    so a row whose total is over the cap is cut back to
    `water_level(g, cap)`, and its rate and total are summed from those
    powers. The one-block call of `_gee_solve`.

    Returns (powers, objective) of shapes (..., rows, n) and (..., rows), with
    pc's leading axes. The input is checked here, once, in this order: a
    ValueError for gains that are not a non-empty (rows, n) array, or not
    finite and non-negative; for a pc that is not positive and finite (a
    scalar's message names the value, an array's the first row holding a
    bad one and that row's values); and for a p_max_total that is neither
    None nor positive and finite. The solve's own errors then name the
    first failing row, also in their `row`: an InfeasibleError for a row
    with no positive gain, and a PowerControlError where pc times the row's
    largest gain overflows, or where its optimum is not finite (its rate, or
    pc plus its total power).
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"gains must be a non-empty (rows, n) array, got shape {g.shape}")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gains must be finite and non-negative")
    if np.ndim(pc) == 0:
        _check_positive("circuit power", pc)
    else:
        pcs = np.broadcast_to(np.asarray(pc, dtype=float), np.broadcast_shapes(np.shape(pc), g.shape[:1]))
        bad = ~(np.isfinite(pcs) & (pcs > 0.0))
        if bad.any():
            row = int(np.argmax(bad.any(axis=tuple(range(bad.ndim - 1)))))
            raise ValueError(f"row {row}: circuit power must be positive and finite, got {pcs[..., row]}")
    if p_max_total is not None:
        _check_positive("p_max_total", p_max_total)
    objective, _, (powers,) = _gee_solve([(g, pc)], p_max_total, keep_powers=True)
    return powers, objective


def _gee_solve(blocks, p_max_total: float | None, keep_powers: bool = False):
    """`gee_rows` for a list of (gains, pc) blocks, which may differ in n but
    share pc's leading axes, in stages: each block's dead-row check, sorted
    floor offsets, active count k, m and sum delta; then the level d, the
    Lambert W, expm1(m + v) and every row's closed-form rate k v and total
    power once over every block's rows; then each block's capped rows and
    objective. Every stage is elementwise or reduces each row on its own,
    so a block gets the bits of its own one-block call. Only (..., rows)
    arrays outlive a block's stage, so no block's (rows, n) work arrays are
    alive while the next is built.

    A block's (..., rows, n) powers are built only if keep_powers; without
    it, only the rows over the cap are, as (rows over, n) water-filled
    powers. A scaling sweep thus forms no power or rate array of its pcs.

    It trusts its input as `gee_rows` checks it: each block's gains a
    non-empty (rows, n) float array of finite non-negative values, pc and
    p_max_total positive and finite (or None). Its callers guarantee that:
    `gee_rows` by its checks, and `experiments._scaling_stats` by drawing
    the gains (`draw_gain_rows`, or `svd_gains` of finite matrices) and
    taking pc and the budget from a checked `ExperimentSpec`.

    Returns (objective, rate sum, powers): the first two with every block's
    rows concatenated along the last axis, the rate sum being the numerator
    of each row's objective (k v, or the sum of log1p(g p) over a capped
    row's powers); powers is the list of each block's powers if keep_powers,
    else empty. Errors name a row of the first block with a dead row or an
    overflowing pc times gain, else the first row of the first block whose
    optimum is not finite, each counted within its block.
    """
    parts = [_gee_floors(g, pc) for g, pc in blocks]
    s1, scaled_pc, sum_delta, k, m = (np.concatenate(part, axis=-1) for part in zip(*parts))
    del parts
    d = (scaled_pc - sum_delta + k * np.expm1(m)) / (k * math.e * np.exp(m))
    v = lambert_w0_offset(d)
    levels = np.expm1(m + v)
    rate_sums = k * v
    # a level that overflows gives an infinite or NaN total, refused below
    with np.errstate(over="ignore"):
        totals = s1 * (k * levels - sum_delta)
    del scaled_pc, sum_delta, m, d, v
    objectives, kept = [], []
    stop = 0
    for g, pc in blocks:
        start, stop = stop, stop + g.shape[0]
        rate, total = rate_sums[..., start:stop], totals[..., start:stop]
        if keep_powers:
            # s_1 (expm1(m + v) - delta_i), the offsets delta_i = s_i / s_1 - 1
            # formed in place on the floors, C-ordered whatever the layout of
            # g, as the powers are; a floor over 1e308 times s_1 is an
            # infinite offset, which fills no power, as a zero gain's does
            s1_rows = s1[start:stop, None]
            offsets = np.ascontiguousarray(_inverse(g))
            with np.errstate(over="ignore"):
                offsets /= s1_rows
            offsets -= 1.0
            powers = levels[..., start:stop, None] - offsets
            del offsets
            powers *= s1_rows
            np.maximum(0.0, powers, out=powers)
            kept.append(powers)
        if p_max_total is not None:
            over = total > p_max_total
            if over.any():
                g_over = np.broadcast_to(g, over.shape + g.shape[1:])[over]
                capped = np.maximum(0.0, water_level(g_over, p_max_total)[:, None] - _inverse(g_over))
                rate[over] = np.log1p(g_over * capped).sum(axis=-1)
                total[over] = capped.sum(axis=-1)
                if keep_powers:
                    powers[over] = capped
        # finite pc and total may overflow their sum near the float range's
        # end, where the EE would read 0
        with np.errstate(over="ignore"):
            spent = pc + total
        _finite_rows("the optimum is not finite", rate, spent)
        objectives.append(rate / spent)
    return np.concatenate(objectives, axis=-1), rate_sums, kept


def _gee_floors(g, pc):
    """The (s_1, scaled pc / s_1, sum delta, k, m) of the (..., rows)
    problems of one block's (rows, n) gains g. Like `_gee_solve`, it trusts
    g and pc as `gee_rows` checks them; it raises only for a row with no
    positive gain and for pc / s_1 overflowing.

    The floors 1/g are sorted before they are scaled into delta, which
    gives the bits of scaling and then sorting, as the map is monotone. The
    active count k is the number of floors j where the residual
    R - (pc + P) / w at w = s_j is negative; multiplied by (1 + delta_j)
    that is B_j < pc / s_1, with B_j = (1 + delta_j) (j log1p(delta_j) -
    cum_log_j) - (j delta_j - cum_delta_j) a function of the gains alone,
    so only the comparison spans pc's leading axes.
    """
    dead = ~np.any(g > 0.0, axis=1)
    if dead.any():
        row = int(np.argmax(dead))
        raise InfeasibleError(f"row {row}: at least one gain must be positive", row=row)

    delta = _inverse(g)
    delta.sort(axis=1)
    s1 = delta[:, 0].copy()
    with np.errstate(over="ignore"):
        scaled_pc = pc / s1
        # a floor over 1e308 times s_1 is an infinite offset, as a zero
        # gain's is; neither ever counts
        delta /= s1[:, None]
    _finite_rows("circuit power times the largest gain overflows", scaled_pc)
    delta -= 1.0
    cum_delta = np.cumsum(delta, axis=1)
    j = np.arange(1, g.shape[1] + 1)
    # B_j formed in an order that keeps few arrays alive; an infinite floor
    # gives NaN or +inf, and a huge finite one may overflow to either
    with np.errstate(over="ignore", invalid="ignore"):
        logs = np.log1p(delta)
        cum_log = np.cumsum(logs, axis=1)
        logs *= j
        logs -= cum_log
        logs *= 1.0 + delta
        delta *= j
        delta -= cum_delta
        logs -= delta
        del delta
        k = (logs < scaled_pc[..., None]).sum(axis=-1)
    del logs
    row = np.arange(g.shape[0])
    return s1, scaled_pc, cum_delta[row, k - 1], k, cum_log[row, k - 1] / k


def _finite_rows(what: str, *arrays) -> None:
    """A PowerControlError "row r: what" for the first row r (an index on
    the last axis) where a value of one of arrays is not finite."""
    bad = ~reduce(np.logical_and, map(np.isfinite, arrays))
    if bad.any():
        row = int(np.argmax(bad.any(axis=tuple(range(bad.ndim - 1)))))
        raise PowerControlError(f"row {row}: {what}", row=row)


def wmee_maxmin(gains, pc, p_total: float) -> Allocation:
    """Maximize the minimum link EE under a total power budget: the one-row
    call of `wmee_rows`, with the common level as the objective."""
    return _one_row(wmee_rows, gains, pc, p_total)


def _one_row(solve, gains, pc, p_total: float) -> Allocation:
    """The budgeted row solver `solve` on one row of gains, with one circuit
    power per link (`_link_rows` checks the values)."""
    g, pc = np.asarray(gains, dtype=float), np.asarray(pc, dtype=float)
    if g.ndim != 1 or g.size < 1 or pc.shape != g.shape:
        raise ValueError(f"need a non-empty 1-D gain sequence and one pc per gain, got shapes {g.shape}, {pc.shape}")
    powers, objective = solve(g[None, :], pc, p_total)
    return Allocation(powers[0], float(objective[0]))


def _link_rows(gains, pc, budget: float):
    """The (rows, n) gains of a budgeted row solver, its per-link circuit
    powers broadcast against them and each link's peak power (`eepa`). A
    bad value names the first row that holds it, as does a g * pc that
    overflows the peak."""
    g = np.asarray(gains, dtype=float)
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError(f"gains must be a non-empty (rows, n) array, got shape {g.shape}")
    pc = np.broadcast_to(np.asarray(pc, dtype=float), g.shape)
    ok = np.isfinite(g) & np.isfinite(pc) & (g >= 0.0) & (pc > 0.0)
    if not ok.all():
        r = int(np.argmax(~ok.all(axis=1)))
        raise ValueError(f"row {r}: need finite gains g >= 0 and circuit powers pc > 0: g {g[r]}, pc {pc[r]}")
    _check_positive("budget", budget)
    peaks = _peaks(g, pc)
    finite = np.isfinite(peaks).all(axis=1)
    if not finite.all():
        r = int(np.argmax(~finite))
        raise ValueError(f"row {r}: gain times circuit power overflows the EE-optimal power: g {g[r]}, pc {pc[r]}")
    return g, pc, peaks


def wmee_rows(gains, pc, budget: float):
    """Max-min link EE (Zappone & Jorswieck, FnT 2015) under a total power
    budget, for every row of a (rows, n) gain array.

    pc holds per-link circuit powers that broadcast against the gains. Each
    row finds its common level t below its top level T, its lowest peak EE,
    where t is feasible when the least powers reaching EE = t
    (`_rising_powers`) fit the budget, by bracketed steps on
    F(t) = sum_i p_i(t) - budget from t = 0. F is increasing; with
    r = g / (1 + g p_i) and D = r - t, a link below its peak has
    p_i' = (pc + p_i) / D and p_i'' = p_i' (2 + r^2 p_i') / D (both 0 at its
    peak). The link that sets T has a square-root singularity there (p'
    grows without bound), so Newton steps in t overshoot T; in
    s = sqrt(T - t), G(s) = F(T - s^2) is smooth, and each step is Halley's
    on G, written in t: with gap = T - t, F1 = sum p', F2 = sum p'' and
    X = ds / s = -4 F F1 / (8 gap F1^2 + 2 F F1 - 4 F gap F2), the next
    level is t - gap X (X - 2). T - s^2 is never formed: at a level many
    decades below T (a tiny budget) it would lose the level to cancellation.
    X > 1 puts s - ds past T; that step is reflected below T and kept to at
    most s / 2 (X at most 1.5), since near X = 2 the reflection returns
    almost to t. A step that would leave the bracket, or is not finite,
    bisects it, except that one from a feasible level (F < 0) to or past the
    infeasible end hi lands 0.5e-13 hi inside that end (or at the middle, if
    that is higher): a root within half the stop width of hi then closes the
    bracket in one call, not in a bisection's many. One shorter than
    0.5e-13 t is lengthened by that much, so it lands across the root and
    the bracket closes: half the stop width at t, whichever end of the
    bracket t is, so also where the root lies many decades below the top
    level (a tiny budget); the first step, from t = 0, is never lengthened.
    A step that rounds to no move (at a subnormal level, where 0.5e-13 t
    underflows) moves one float toward the root instead. The bracket stops
    at most 1e-13 of its upper end wide, or once no float lies strictly
    between its ends, and the row takes its feasible end, so the link EEs
    are equal whenever the budget binds. A zero gain gives a zero level.

    Returns (powers, level) of shapes (rows, n) and (rows,). A bad value
    names the first row that holds it.
    """
    g, pc, peaks = _link_rows(gains, pc, budget)
    t_hi = link_terms(g, peaks, pc)[1].min(axis=1)
    top = _rising_powers(g, pc, peaks, t_hi)
    going = top.sum(axis=1) > budget
    # a row whose top level fits is done at it; the others start from t = 0,
    # where every power is 0 and F = -budget
    lo, hi = np.where(going, 0.0, t_hi), t_hi
    p_lo = np.where(going[:, None], 0.0, top)
    t, p, excess = lo, p_lo, np.full_like(lo, -budget)
    for _ in range(200):
        if not going.any():
            break
        # a link at its peak (or a zero gain's 0 W peak) divides 0 by 0 and
        # overflows here; a non-finite step bisects below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = g / (1.0 + g * p)
            dist = r - t[:, None]
            d1 = (pc + p) / dist
            d2 = d1 * (2.0 + r * r * d1) / dist
            below = p < peaks
            f1 = np.where(below, d1, 0.0).sum(axis=1)
            f2 = np.where(below, d2, 0.0).sum(axis=1)
            gap = t_hi - t
            x = -4.0 * excess * f1 / (8.0 * gap * f1 * f1 + 2.0 * excess * f1 - 4.0 * excess * gap * f2)
            # past T (x > 1) the step reflects below it, to at most s / 2
            x = np.minimum(x, 1.5)
            step = gap * x * (x - 2.0)
        half = 0.5e-13 * t
        nxt = t - np.where(np.abs(step) < half, step + np.where(excess > 0.0, half, -half), step)
        nxt = np.where(nxt == t, np.nextafter(t, np.where(excess > 0.0, -np.inf, np.inf)), nxt)
        mid = 0.5 * (lo + hi)
        jump = np.where((nxt >= hi) & (excess < 0.0), np.maximum(hi - 0.5e-13 * hi, mid), mid)
        t = np.where(going, np.where((lo < nxt) & (nxt < hi), nxt, jump), t)
        p = _rising_powers(g, pc, peaks, t)
        excess = p.sum(axis=1) - budget
        fits = going & (excess <= 0.0)
        lo = np.where(fits, t, lo)
        hi = np.where(going & ~fits, t, hi)
        p_lo = np.where(fits[:, None], p, p_lo)
        going &= (hi - lo > 1e-13 * hi) & (np.nextafter(lo, hi) < hi)
    return p_lo, lo


def _rising_powers(g, pc, peaks, t):
    """Smallest p with ln(1 + g p) = t (pc + p) per link, clipped to
    [0, peak], for (rows, n) link constants and the (rows,) levels t.

    With a the row's level t, c = a / g and x = 1 + g p, the smaller root of
    ln x = a pc + c (x - 1) is x = -W0(-c e^(a pc - c)) / c, the argument
    also taken as -1/e + d, d = -expm1(ln c + 1 + a pc - c) / e. As x - 1
    cancels for small g p, y = g p takes one Newton step on log1p(y) =
    a pc + c y, kept at a positive slope if at most 1e-12 (1 + y) long.
    """
    a = t[:, None]
    # a zero level or a zero gain makes y NaN, which fmax takes to 0 W
    with np.errstate(divide="ignore", invalid="ignore"):
        c = a / g
        apc = a * pc
        rest = apc - c
        d = np.maximum(-np.expm1(np.log(c) + 1.0 + rest) / math.e, 0.0)
        y = -lambert_w0_from_offset(d, -c * np.exp(rest)) / c - 1.0
        slope = 1.0 / (1.0 + y) - c
        step = (np.log1p(y) - apc - c * y) / slope
        y = np.where((slope > 0.0) & (np.abs(step) <= 1e-12 * (1.0 + y)), y - step, y)
        return np.minimum(np.fmax(y / g, 0.0), peaks)


def wsee_ascent(gains, pc, p_total: float) -> Allocation:
    """Maximize the sum of link EEs under a total power budget: the one-row
    call of `wsee_rows`."""
    return _one_row(wsee_rows, gains, pc, p_total)


def wpee_ascent(gains, pc, p_total: float) -> Allocation:
    """Maximize the product of link EEs under a total power budget: the
    one-row call of `wpee_rows`."""
    return _one_row(wpee_rows, gains, pc, p_total)


def wsee_rows(gains, pc, budget: float):
    """Maximize the sum of link EEs under a total power budget, for every row
    of a (rows, n) gain array; pc holds per-link circuit powers that
    broadcast against the gains.

    Each link's EE rises up to its peak (`eepa`), so the peaks are optimal
    whenever they fit the budget. Otherwise they are scaled onto the budget
    face and improved by pairwise power transfers, sweep after sweep, each
    kept only if it raises the objective. Each transfer is placed by
    bracketed Newton steps (`_pair_step`) whose last step, predicted to land
    within 1e-15 of the smaller power, is not confirmed by a further slope
    evaluation. A transfer's objective rises while the giving link is above
    its peak, is concave while both are in [0, peak] and falls once the
    taking link passes its peak. Each link term is concave on [0, peak]
    and no optimum puts a link above its peak, so this is a concave program
    and a point no pairwise transfer improves is its global optimum. Each
    row sweeps on its own, and stops once a whole sweep raises its objective
    by at most an absolute 1e-9, not a relative amount, so a row whose
    objective is far below 1 can stop early. Cross-checked against a grid
    oracle in tests.

    Returns (powers, objective) of shapes (rows, n) and (rows,). A bad value
    names the first row that holds it.
    """
    return _budget_ascent(gains, pc, budget, log_terms=False)


def wpee_rows(gains, pc, budget: float):
    """Maximize the product of link EEs under a total power budget, for
    every row, as `wsee_rows` does the sum.

    Works on the monotone transform sum_i log(EE_i); the reported objective
    is the product itself. Any link with zero gain collapses the product
    identically to zero, so the first row holding one is rejected.
    """
    return _budget_ascent(gains, pc, budget, log_terms=True)


def _pair_step(gi, ci, gj, cj, pi: float, pj: float, log_terms: bool) -> float:
    """The transfer t in [-pi, pj] maximizing T_i(pi + t) + T_j(pj - t), for
    links (gain, pc) i = (gi, ci) and j = (gj, cj).

    phi'(t) = T_i'(pi + t) - T_j'(pj - t) is positive left of the optimum and
    negative right of it; [a, b] keeps that sign bracket from t = 0 on. A
    Newton step is taken where phi'' < 0 and it lands inside the bracket, a
    step past an end of the interval tries that end once, and any other step
    bisects. Stops at a Newton step or bracket of at most 1e-15 (pi + pj), or
    once a Newton step s that follows an in-bracket Newton step s_prev has a
    predicted error s^3 / s_prev^2 (Newton converges quadratically) of at
    most 1e-15 times the smaller of the two links' current powers: that step
    is returned without evaluating the slopes again to confirm it. An end try
    or a bisection resets s_prev. The predicted error is held to the smaller
    power, not to the interval: a step from far off can land near an end,
    where the next steps creep, and a prediction held to the interval would
    stop there off by up to the smaller power itself.
    """
    log1p, inf = math.log1p, math.inf
    tol, a, b, t, s_prev = 1e-15 * (pi + pj), -pi, pj, 0.0, 0.0
    a_open = b_open = True
    for _ in range(100):
        # T', T'' of each link's term L / D or its log, L = log1p(g x) and
        # D = pc + x; a log term's T' is +inf where L = 0
        xi, xj = pi + t, pj - t
        d, rate, e1 = ci + xi, log1p(gi * xi), gi / (1.0 + gi * xi)
        if not log_terms:
            rise = e1 * d - rate
            d1i, d2i = rise / (d * d), -(e1 * e1 * d * d + 2.0 * rise) / (d * d * d)
        elif rate > 0.0:
            r = e1 / rate
            d1i, d2i = r - 1.0 / d, -r * r - e1 * e1 / rate + 1.0 / (d * d)
        else:
            d1i, d2i = inf, -inf
        d, rate, e1 = cj + xj, log1p(gj * xj), gj / (1.0 + gj * xj)
        if not log_terms:
            rise = e1 * d - rate
            d1j, d2j = rise / (d * d), -(e1 * e1 * d * d + 2.0 * rise) / (d * d * d)
        elif rate > 0.0:
            r = e1 / rate
            d1j, d2j = r - 1.0 / d, -r * r - e1 * e1 / rate + 1.0 / (d * d)
        else:
            d1j, d2j = inf, -inf
        d1 = d1i - d1j
        if d1 > 0.0:
            a, a_open = t, False
        elif d1 < 0.0:
            b, b_open = t, False
        if d1 == 0.0 or b - a <= tol:
            return t
        d2 = d2i + d2j
        step = t - d1 / d2 if d2 < 0.0 else math.nan
        s = abs(step - t)
        if s <= tol or s * s * s <= 1e-15 * (xi if xi < xj else xj) * s_prev * s_prev:
            return min(max(step, a), b)
        if a < step < b:
            s_prev = s
        else:
            s_prev = 0.0
            step = b if step >= b and b_open else a if step <= a and a_open else 0.5 * (a + b)
        t = step
    return t


def _budget_ascent(gains, pc, budget: float, log_terms: bool):
    g, pc, peaks = _link_rows(gains, pc, budget)
    dead = np.any(g == 0.0, axis=1) & log_terms
    if dead.any():
        row = int(np.argmax(dead))
        raise InfeasibleError(f"row {row}: product objective is degenerate when a link has zero gain", row=row)
    # every term rises on [0, peak], so the peak maximizes each coordinate;
    # scaled onto the budget face, each coordinate's best point within its
    # remaining budget is its current power, and only pairwise transfers
    # along the face can still raise the objective. A row within the budget
    # keeps its peaks (budget / budget is exactly 1)
    sums = peaks.sum(axis=1)
    start = peaks * (budget / np.maximum(sums, budget))[:, None]
    pairs = [(i, j) for i in range(g.shape[1]) for j in range(i + 1, g.shape[1])]
    log, log1p, exp, inf = math.log, math.log1p, math.exp, math.inf
    powers, objective = [], []
    # the sweeps run on Python floats, each row's constants from one list per
    # array; a term is ee_of(g, x, pc) (no transfer leaves [-pi, pj], so no
    # power goes below 0) or its log, inline. Each link's current term is
    # kept in `terms`, and a total adds them from link 0 on (from Python 3.12
    # on, sum() compensates float sums and would round differently)
    for gs, pcs, p, over in zip(g.tolist(), pc.tolist(), start.tolist(), (sums > budget).tolist()):
        terms = [log1p(gi * x) / (c + x) for gi, c, x in zip(gs, pcs, p)]
        if log_terms:
            terms = [log(v) if v > 0.0 else -inf for v in terms]
        obj = reduce(add, terms, 0.0)
        for _ in range(500 if over else 0):
            for i, j in pairs:
                pi, pj = p[i], p[j]
                # the transfer interval [-pi, pj] is too short to move
                if pi + pj <= 1e-12:
                    continue
                gi, ci, gj, cj = gs[i], pcs[i], gs[j], pcs[j]
                t = _pair_step(gi, ci, gj, cj, pi, pj, log_terms)
                xi, xj = pi + t, pj - t
                ui, uj = log1p(gi * xi) / (ci + xi), log1p(gj * xj) / (cj + xj)
                if log_terms:
                    ui, uj = log(ui) if ui > 0.0 else -inf, log(uj) if uj > 0.0 else -inf
                if ui + uj > terms[i] + terms[j]:
                    p[i], p[j], terms[i], terms[j] = xi, xj, ui, uj
            new = reduce(add, terms, 0.0)
            if new - obj <= 1e-9:
                obj = new if new > obj else obj
                break
            obj = new
        powers.append(p)
        objective.append(exp(obj) if log_terms else obj)
    return np.array(powers), np.array(objective)
