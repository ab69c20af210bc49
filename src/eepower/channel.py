"""Seeded unit-mean Rayleigh channel realizations for Monte-Carlo experiments.

Randomness policy: every draw reads a PCG64 stream seeded from the seed plus
an integer stream key, so each call is a pure function of its arguments and
trials indexed by stream can run in any order (or in parallel) with
bit-identical results. Single draws build the generator with numpy's own
SeedSequence (rng_for). Per-trial blocks (stream_uniforms) compute the same
SeedSequence hash for all their streams at once and set one PCG64's state per
stream, so each row is still a pure function of (seed, key) with the bits of
rng_for. All variates are derived from uniform draws only (inverse CDF for
gains, Box-Muller for complex Gaussians), which keeps the sequences stable
across numpy releases.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence (4-word pool) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _checked_seed(seed: int) -> int:
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 generator for a (seed, stream key) pair."""
    ss = np.random.SeedSequence(entropy=_checked_seed(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def _words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int: 32 bits each,
    least significant first, and [0] for 0."""
    if n < 0:
        raise ValueError(f"stream key must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


# The hash steps take Python ints or uint64 arrays of 32-bit values. Every
# product of two 32-bit values fits in 64 bits and is masked at once, and
# the mix adds the 32-bit residue of -R*y instead of subtracting, so no step
# wraps around.
def _hashmix(value, const: int):
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    out = (((_MIX_MULT_L * x) & _MASK32) + (((2**32 - _MIX_MULT_R) * y) & _MASK32)) & _MASK32
    return out ^ (out >> 16)


def _pcg64_states(seed: int, trials: int, *key: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of rng_for(seed, t, *key) for t = 0 .. trials-1:
    numpy's SeedSequence(entropy=seed, spawn_key=(t, *key)).generate_state(4,
    uint64), hashed for all t at once, then PCG64's seeding. The stream index
    is one 32-bit entropy word, as it is for any t < 2**32."""
    seed = _checked_seed(seed)
    head = _words(seed)
    head += [0] * (4 - len(head))  # SeedSequence pads the seed to the pool when a spawn key follows
    tail = [w for k in key for w in _words(int(k))]
    # mix the entropy into the pool; only the stream word and what follows it
    # differ between streams
    const = _INIT_A
    pool = []
    for word in head[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in head[4:] + [np.arange(trials, dtype=np.uint64)] + tail:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    const = _INIT_B
    hashed = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        hashed.append(value ^ (value >> 16))
    seed_words = [(hashed[2 * i] | (hashed[2 * i + 1] << 32)).tolist() for i in range(4)]
    # PCG64 seeding: inc = 2 initseq + 1, then two LCG steps from state 0
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*seed_words):
        inc = (((q_hi << 64 | q_lo) << 1) | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def stream_uniforms(seed: int, trials: int, size: int, *key: int) -> np.ndarray:
    """The leading `size` uniforms of streams (t, *key) for t = 0 .. trials-1,
    one row per stream: row t equals rng_for(seed, t, *key).random(size).

    Every draw on stream t that consumes at most `size` uniforms reads a
    prefix of row t, so slices of this block reproduce draw_gains and
    draw_matrix bit for bit. One PCG64 fills every row, set to each
    stream's state in turn.
    """
    out = np.empty((trials, size))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for t, (state, inc) in enumerate(_pcg64_states(seed, trials, *key)):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full_state
        generator.random(out=out[t])
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
