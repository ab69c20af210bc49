"""Figures of merit for a given allocation: per-link EE, the four aggregate
EE definitions (global, and the sum / product / minimum of the link EEs,
the weighted forms at unit weights), Jain's fairness index, and the
parametric EE-SE curve traced by the energy-efficient power as the channel
gain varies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import eepa, link_terms


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


def evaluate(gains, pc, powers) -> MultiLinkReport:
    """Evaluate all aggregate EE definitions for given per-link powers, of
    one vector of links or of each row of (rows, n) arrays. The circuit
    powers pc broadcast against the gains and powers."""
    g, pc, p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (gains, pc, powers)))
    if np.any(p < 0.0):
        raise ValueError("powers must be non-negative")
    se, ee = link_terms(g, p, pc)
    return MultiLinkReport(
        per_link_ee=ee,
        gee=se.sum(axis=-1) / (pc.sum(axis=-1) + p.sum(axis=-1)),
        wsee=ee.sum(axis=-1),
        wpee=np.prod(ee, axis=-1),
        wmee=ee.min(axis=-1),
        jain=jain_index(ee),
    )


def trace_ee_se(pc, gamma_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EE-optimal power, SE and EE at that power at circuit power pc, one
    array entry per gain in the grid.

    A pure pointwise map: an ascending gain grid yields the parametric EE-SE
    curve, along which both coordinates increase together.
    """
    gammas = np.asarray(gamma_grid, dtype=float)
    p = eepa(gammas, pc)
    return (p, *link_terms(gammas, p, pc))
