"""Seeded unit-mean Rayleigh channel realizations for Monte-Carlo experiments.

Randomness policy: every draw builds a fresh PCG64 generator from the seed
plus an integer stream key, so each call is a pure function of its arguments
and trials indexed by stream can run in any order (or in parallel) with
bit-identical results. All variates are derived from uniform draws only
(inverse CDF for gains, Box-Muller for complex Gaussians), which keeps the
sequences stable across numpy releases.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 generator for a (seed, stream key) pair."""
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def stream_uniforms(seed: int, trials: int, size: int) -> np.ndarray:
    """The leading `size` uniforms of streams 0 .. trials-1, one row per stream.

    Every draw on stream t that consumes at most `size` uniforms reads a
    prefix of row t, so slices of this block reproduce draw_gains and
    draw_matrix bit for bit while each stream's generator is opened once.
    """
    out = np.empty((trials, size))
    for t in range(trials):
        out[t] = rng_for(seed, t).random(size)
    return out


def _exponential(u: np.ndarray) -> np.ndarray:
    """Unit-mean exponential variates from uniforms (inverse CDF)."""
    return -np.log1p(-u)


def draw_gains(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. unit-mean exponential channel power gains: the |h|^2 of a
    circularly-symmetric complex Gaussian h (Rayleigh fading). For a fixed
    (seed, n, stream) the sequence is always identical, and shorter draws
    are prefixes of longer ones from the same stream.
    """
    if n < 1:
        raise ValueError(f"draw_gains: n must be >= 1, got {n}")
    return _exponential(rng_for(seed, stream).random(n))


def draw_gain_rows(seed: int, trials: int, n: int) -> np.ndarray:
    """(trials, n) gains whose row t is draw_gains(seed, n, stream=t).

    By the prefix property the first k columns are the k-gain draws, so one
    block serves every dimension count up to n.
    """
    return _exponential(stream_uniforms(seed, trials, n))


def draw_matrix(seed: int, rows: int, cols: int, stream: int = 0) -> np.ndarray:
    """rows x cols matrix of i.i.d. circularly-symmetric complex Gaussians
    with E[|entry|^2] = 1."""
    if rows < 1 or cols < 1:
        raise ValueError(f"draw_matrix: need rows, cols >= 1, got {rows}x{cols}")
    return matrices_from_uniforms(rng_for(seed, stream).random(2 * rows * cols), rows, cols)


def matrices_from_uniforms(u: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrices (..., rows, cols) built as draw_matrix builds
    them from the leading 2 * rows * cols uniforms of each row of u: the first
    rows * cols set the radii, the next rows * cols the phases (Box-Muller).
    stream_uniforms(seed, trials, 2 * rows * cols) thus yields the stacked
    draw_matrix draws of streams 0 .. trials-1."""
    k = rows * cols
    if u.shape[-1] < 2 * k:
        raise ValueError(f"matrices_from_uniforms: need {2 * k} uniforms per matrix, got {u.shape[-1]}")
    shape = u.shape[:-1] + (rows, cols)
    radius = np.sqrt(_exponential(u[..., :k].reshape(shape)))
    return radius * np.exp(2j * np.pi * u[..., k : 2 * k].reshape(shape))
