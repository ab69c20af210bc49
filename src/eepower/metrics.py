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
    """Per-link EE, aggregate EE metrics and fairness of an allocation: one
    value per row of links (a scalar for one vector of links)."""

    per_link_ee: np.ndarray
    gee: np.ndarray
    wsee: np.ndarray
    wpee: np.ndarray
    wmee: np.ndarray
    jain: np.ndarray


def jain_index(values):
    """Jain's fairness index (sum x)^2 / (N sum x^2) over the last axis,
    defined as 1 for all-zero input."""
    v = np.asarray(values, dtype=float)
    s, sq = v.sum(axis=-1), (v * v).sum(axis=-1)
    zero = sq == 0.0
    return np.where(zero, 1.0, s * s / (v.shape[-1] * np.where(zero, 1.0, sq)))[()]


def evaluate(gains, pc, powers, weight=1.0) -> MultiLinkReport:
    """Evaluate all aggregate EE definitions for given per-link powers, of
    one vector of links or of each row of (rows, n) arrays. The circuit
    powers pc and the weights broadcast against the gains and powers."""
    g, pc, p, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (gains, pc, powers, weight)))
    if np.any(p < 0.0):
        raise ValueError("powers must be non-negative")
    se = np.log1p(g * p)
    ee = se / (pc + p)
    weighted = w * ee
    return MultiLinkReport(
        per_link_ee=ee,
        gee=se.sum(axis=-1) / (pc.sum(axis=-1) + p.sum(axis=-1)),
        wsee=weighted.sum(axis=-1),
        wpee=np.prod(weighted, axis=-1),
        wmee=weighted.min(axis=-1),
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
