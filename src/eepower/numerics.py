"""Array and small-matrix numerical kernels.

Self-contained building blocks: the principal branch of the Lambert W
function for the allocation solvers, over arrays of offsets from the branch
point (`lambert_w0_offset` for 1 + W, `lambert_w0_from_offset` for W; the
scalar `lambert_w0` calls the latter), the squared singular values of stacks
of complex matrices (the eigen-channel power gains of MIMO links), and a
plain bisection root finder that no solver calls. The package exports only
`svd_gains`: `bisect` and the scalar `lambert_w0` stay here for their tests
and for the benchmark tracer, which wraps them, until the ROADMAP's tracer
item frees them and its deletion pass removes them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_E = math.exp(-1.0)
_BRANCH_SLACK = 1e-12

# Taylor coefficients of 1 + W0(-1/e + p^2 / (2e)) in p, from p^6 down to p
_BRANCH_SERIES = (-221.0 / 8505.0, 769.0 / 17280.0, -43.0 / 540.0, 11.0 / 72.0, -1.0 / 3.0, 1.0)

# Singular values smaller than this fraction of the largest one are snapped
# to exactly zero so near-null eigen-channels never enter an allocation.
_SV_TRUNCATION = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: the w with w * e**w = x.

    The scalar call of `lambert_w0_from_offset`, for finite x >= -1/e (up to
    1e-12 below the branch point is clamped onto it; else ValueError).
    """
    if not (x >= -_INV_E - _BRANCH_SLACK and math.isfinite(x)):
        raise ValueError(f"lambert_w0: argument must be finite and >= -1/e, got {x!r}")
    x = max(float(x), -_INV_E)
    return float(lambert_w0_from_offset(x + _INV_E, x))


def lambert_w0_from_offset(d, x) -> np.ndarray:
    """W0(x) elementwise, given x = -1/e + d in both forms (d >= 0).

    W is `lambert_w0_offset(d)` - 1, which cancels as W nears 0. Where
    W > -1/2, one Newton step on w - x e^-w = 0, written as the product
    t (1 + w) / (1 + t) with t = x e^-w, takes the digits back from x: its
    error and its rounding both scale with w (within 3e-16 relative of
    mpmath for x from 1e-300 to 1e300).
    """
    w = lambert_w0_offset(d) - 1.0
    t = x * np.exp(-w)
    with np.errstate(divide="ignore", invalid="ignore"):  # 1 + w = 1 + t = 0 at the branch point
        return np.where(w > -0.5, t * (1.0 + w) / (1.0 + t), w)


def lambert_w0_offset(d) -> np.ndarray:
    """v = 1 + W0(-1/e + d) elementwise, for offsets d >= 0 from the branch point.

    Taking the offset keeps the digits that forming -1/e + d, or 1 + W from
    W, would cancel. With p = sqrt(2 e d), v is the branch-point series in p
    (Corless et al., "On the Lambert W function", 1996, §4) below p = 1e-2,
    where its truncation error (0.016 p^6 relative) is under the rounding of
    the residual (v e^v - expm1(v)) / e - d (1e-16 / p). Elsewhere four Halley
    steps on that residual polish a start from the series (p < 1) or from
    Winitzki's log approximation. Within 3e-14 relative of mpmath for d from
    1e-300 to 1e300. Where 2 e d overflows (d above 3.3e307) p is +inf,
    which only picks the log start; from about d = 6.55e307 on, v e^v
    overflows and v is NaN.
    """
    d = np.asarray(d, dtype=float)
    # an element takes one branch's value; the other branches may overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = np.sqrt(2.0 * math.e * d)
        series = 0.0
        for coef in _BRANCH_SERIES:
            series = (series + coef) * p
        log = np.log1p(d - _INV_E)
        v = np.where(p < 1.0, series, 1.0 + log * (1.0 - np.log1p(log) / (2.0 + log)))
        for _ in range(4):
            ev = np.exp(v)
            # Newton step, then Halley's correction with f''/f' = (1 + v) / v
            step = ((v * ev - np.expm1(v)) / math.e - d) / (v * ev / math.e)
            v = v - step / (1.0 - step * (1.0 + v) / (2.0 * v))
    return np.where(p < 1e-2, series, v)


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by bisection.

    f(lo) and f(hi) must have opposite (or zero) signs; returns the bracket
    midpoint once the bracket is narrower than tol.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"bisect: need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"bisect: tol must be positive, got {tol}")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bisect: f(lo) and f(hi) have the same sign")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def svd_gains(h: np.ndarray) -> np.ndarray:
    """Squared singular values of complex matrices, sorted descending.

    h is one matrix (rows, cols) or a stack (..., rows, cols); the result has
    shape (..., min(rows, cols)). These are the power gains of the parallel
    scalar channels obtained by diagonalizing each link: every value is >= 0
    and each row sums to the squared Frobenius norm of its matrix. They are
    the eigenvalues of the smaller Gram matrix, from LAPACK's Hermitian
    eigenvalue solver (numpy.linalg.eigvalsh) applied to the whole stack.
    """
    h = np.atleast_2d(np.asarray(h, dtype=np.complex128))
    if h.shape[-2] < 1 or h.shape[-1] < 1:
        raise ValueError(f"svd_gains: need matrices with rows, cols >= 1, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("svd_gains: matrix entries must be finite")
    hh = np.conj(np.swapaxes(h, -1, -2))
    gram = hh @ h if h.shape[-1] <= h.shape[-2] else h @ hh
    vals = np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0)
    tiny = np.sqrt(vals) < _SV_TRUNCATION * np.sqrt(vals[..., :1])
    vals[tiny] = 0.0
    return vals
