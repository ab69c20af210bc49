"""Figures of merit for a given allocation: per-link EE, the four aggregate
EE definitions (global / weighted sum / weighted product / weighted minimum),
Jain's fairness index, and the parametric EE-SE curve traced by the
energy-efficient power as the channel gain varies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import LinkConfig, eepa


@dataclass
class MultiLinkReport:
    """Aggregate EE metrics and fairness for one multi-link allocation."""

    per_link_ee: np.ndarray
    gee: float
    wsee: float
    wpee: float
    wmee: float
    jain: float


def jain_index(values) -> float:
    """Jain's fairness index (sum x)^2 / (N sum x^2), defined as 1 for all-zero input."""
    v = np.asarray(values, dtype=float)
    sq = float((v * v).sum())
    if sq == 0.0:
        return 1.0
    s = float(v.sum())
    return s * s / (v.size * sq)


def evaluate(gains, cfgs, powers) -> MultiLinkReport:
    """Evaluate all aggregate EE definitions for given per-link powers."""
    g = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    cfgs = list(cfgs)
    if not (g.size == p.size == len(cfgs)):
        raise ValueError(f"length mismatch: {g.size} gains, {p.size} powers, {len(cfgs)} configs")
    if np.any(p < 0.0):
        raise ValueError("powers must be non-negative")
    pc = np.array([c.pc for c in cfgs])
    w = np.array([c.weight for c in cfgs])
    se = np.log1p(g * p)
    ee = se / (pc + p)
    weighted = w * ee
    return MultiLinkReport(
        per_link_ee=ee,
        gee=float(se.sum() / (pc.sum() + p.sum())),
        wsee=float(weighted.sum()),
        wpee=float(np.prod(weighted)),
        wmee=float(weighted.min()),
        jain=jain_index(ee),
    )


def trace_ee_se(cfg: LinkConfig, gamma_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EE-optimal power, SE and EE at that power, one array entry per gain in
    the grid.

    A pure pointwise map: an ascending gain grid yields the parametric EE-SE
    curve, along which both coordinates increase together.
    """
    gammas = np.asarray(gamma_grid, dtype=float)
    p = eepa(gammas, cfg)
    se = np.log1p(gammas * p)
    return p, se, se / (cfg.pc + p)
