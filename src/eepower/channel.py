"""Seeded unit-mean Rayleigh channel realizations for Monte-Carlo experiments.

Randomness policy: every draw reads a PCG64 stream seeded from the seed plus
an integer stream key, so each call is a pure function of its arguments and
trials indexed by stream can run in any order (or in parallel) with
bit-identical results. Single draws build the generator with numpy's own
SeedSequence (rng_for). Per-trial blocks (stream_uniforms) compute the same
SeedSequence hash for all their streams at once and fill each stream from its
PCG64 state, so each row is still a pure function of (seed, key) with the bits
of rng_for. Three fills give those bits, and the block's size n = trials *
size picks one (see stream_uniforms): up to _SMALL_BLOCK uniforms, PCG64's
128-bit step and XSL-RR output on Python ints, about 1 us per uniform; up to
_VECTOR_BLOCK, the same step as one uint64 array program over all streams,
whose columns double by LCG jump-ahead, about 0.1 ms plus 25 us per doubling
plus 25-55 ns per uniform; above that, one reused numpy PCG64, about 6 ns
per uniform. Only the last pays the 10-20 ms import that the first use of
numpy.random costs a process, so `fairness`, `verify`, `ofdm` and `mimo` at
the benchmark's trial counts never import it. All variates are derived from
uniform draws only (inverse CDF for gains, Box-Muller for complex
Gaussians), which keeps the sequences stable across numpy releases.
"""

from __future__ import annotations

import numbers

import numpy as np

# numpy's SeedSequence (4-word pool) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK53 = (1 << 53) - 1

# the most uniforms (trials * size) a block is filled with in Python, and
# with uint64 arrays: the measured crossovers (see stream_uniforms)
_SMALL_BLOCK = 256
_VECTOR_BLOCK = 2**17

# uint64 operands of the vector fill, so no array op depends on numpy's
# casting of Python ints (value-based before numpy 2, NEP 50 since)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(b) for b in (1, 11, 32, 58, 63, 64))


def _checked_count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 generator for a (seed, stream key) pair."""
    entropy = _checked_count("seed", seed)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(_checked_count("stream key", k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def _words(n: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int: 32 bits each,
    least significant first, and [0] for 0."""
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


def _seed_words(seed: int, trials: int, *key: int) -> list[np.ndarray]:
    """numpy's SeedSequence(entropy=seed, spawn_key=(t, *key)).generate_state(4,
    uint64) for t = 0 .. trials-1, hashed for all t at once: four uint64
    arrays, the high and low words of PCG64's seed state and then of its
    initseq. The stream index is one 32-bit entropy word, as it is for any
    t < 2**32."""
    head = _words(_checked_count("seed", seed))
    head += [0] * (4 - len(head))  # SeedSequence pads the seed to the pool when a spawn key follows
    tail = [w for k in key for w in _words(_checked_count("stream key", k))]
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
    return [hashed[2 * i] | (hashed[2 * i + 1] << 32) for i in range(4)]


def _pcg64_states(seed: int, trials: int, *key: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of rng_for(seed, t, *key) for t = 0 .. trials-1,
    as Python ints."""
    # PCG64 seeding: inc = 2 initseq + 1, then two LCG steps from state 0
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(w.tolist() for w in _seed_words(seed, trials, *key))):
        inc = (((q_hi << 64 | q_lo) << 1) | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _python_fill(states: list[tuple[int, int]], size: int) -> np.ndarray:
    """numpy's PCG64 random() on Python ints: per (state, inc), `size` LCG
    steps state = state * M + inc (mod 2**128), each giving the XSL-RR word
    (the xor of the state's halves rotated right by its top 6 bits) shifted
    right by 11, times 2**-53. The rotated word is read off the word doubled
    into 128 bits, so one shift by rot + 11 and a 53-bit mask give its top
    53 bits."""
    words = []
    for state, inc in states:
        for _ in range(size):
            state = (state * _PCG64_MULT + inc) & _MASK128
            word = (state >> 64) ^ (state & _MASK64)
            words.append(((word << 64 | word) >> ((state >> 122) + 11)) & _MASK53)
    return np.array(words, dtype=float).reshape(len(states), size) * 2.0**-53


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 on (hi, lo) uint64 words, at least one operand an
    array, so that every product wraps as an array op and none warns. The
    high word of a_lo * b_lo is summed from its 32-bit limb products, none of
    whose partial sums exceeds 64 bits; the cross terms only reach the high
    word, so they may wrap."""
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    t = a1 * b0 + ((a0 * b0) >> _U32)
    u = a0 * b1 + (t & _LOW32)
    hi = a1 * b1 + (t >> _U32) + (u >> _U32) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _words128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and low uint64 words of Python ints below 2**128."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def _vector_fill(words: list[np.ndarray], size: int) -> np.ndarray:
    """The same rows from _seed_words as one uint64 array program. PCG64's
    seeding and each draw are the same LCG step S -> M S + inc from S =
    inc + seed state, so column 0 is two steps on: M**2 S + (M + 1) inc.
    Once m columns are known, the next m follow by the jump S[j + m] =
    A S[j] + C inc with A = M**m and C = M**0 + .. + M**(m-1) (mod 2**128);
    doubling m gives C += A C, A = A**2. A and C stay Python ints and only
    the arrays wrap; the C inc terms of all rounds are one (trials, rounds)
    product."""
    s_hi, s_lo, q_hi, q_lo = (w[:, None] for w in words)
    i_hi, i_lo = (q_hi << _U1) | (q_lo >> _U63), (q_lo << _U1) | _U1
    start_lo = s_lo + i_lo
    start_hi = s_hi + i_hi + (start_lo < s_lo)
    mults, adds = [(_PCG64_MULT * _PCG64_MULT) & _MASK128], [_PCG64_MULT + 1]
    mult, add = _PCG64_MULT, 1
    for _ in range((size - 1).bit_length()):
        mults.append(mult)
        adds.append(add)
        mult, add = (mult * mult) & _MASK128, (add + mult * add) & _MASK128
    y_hi, y_lo = _mul128(i_hi, i_lo, *_words128(adds))
    hi = np.empty((len(s_hi), size), dtype=np.uint64)
    lo = np.empty_like(hi)
    m = 0
    for r, (a_hi, a_lo) in enumerate(zip(*_words128(mults))):
        # columns [m, m + k) from the first k, column 0 from the start state
        k = max(min(m, size - m), 1)
        x_hi, x_lo = _mul128(*((hi[:, :k], lo[:, :k]) if m else (start_hi, start_lo)), a_hi, a_lo)
        lo[:, m : m + k] = x_lo + y_lo[:, r : r + 1]
        hi[:, m : m + k] = x_hi + y_hi[:, r : r + 1] + (lo[:, m : m + k] < x_lo)
        m += k
    # XSL-RR: the xor of the halves rotated right by the state's top 6 bits;
    # next_double's 53 bits convert exactly, and faster from int64
    lo ^= hi
    hi >>= _U58
    word = (lo >> hi) | (lo << ((_U64 - hi) & _U63))
    return (word >> _U11).view(np.int64).astype(float) * 2.0**-53


def _numpy_fill(states: list[tuple[int, int]], size: int) -> np.ndarray:
    """The same rows from one numpy PCG64, set to each stream's state in turn."""
    out = np.empty((len(states), size))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for t, (state, inc) in enumerate(states):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full_state
        generator.random(out=out[t])
    return out


def stream_uniforms(seed: int, trials: int, size: int, *key: int) -> np.ndarray:
    """The leading `size` uniforms of streams (t, *key) for t = 0 .. trials-1,
    one row per stream: row t equals rng_for(seed, t, *key).random(size).

    Every draw on stream t that consumes at most `size` uniforms reads a
    prefix of row t, so slices of this block reproduce draw_gains and
    draw_matrix bit for bit. Each fill gives the same bits; the block's size
    n = trials * size picks the fastest, by crossovers measured with numpy 2.4
    on 2 vCPUs (each fill after the seed hash, medians of best-of-5 times):

    - n <= _SMALL_BLOCK: _python_fill, about 1 us per uniform. The array fill
      costs about 0.1 ms plus 25 us per doubling of the row length, so the
      two cross near 64-180 uniforms in rows of 1-4 (40 x 4: 0.19 against
      0.20 ms), 256 in rows of 8 and 480-512 in rows of 64 and single rows
      (1 x 512: 0.31 against 0.31 ms). 256 lies between: the Python fill
      loses at most 0.2-0.4 ms below it (256 x 1), the array fill at most
      0.1 ms above it (1 x 320).
    - n <= _VECTOR_BLOCK: _vector_fill. numpy's fill is faster per uniform,
      but its first use in a process imports numpy.random, 9.6-15.4 ms
      (median 13.7 ms). In rows of 2048 the array fill costs 2.7 ms more
      than numpy's fill at 2**17 uniforms, 9.4 ms more at 2**18 and 22 ms
      more at 2**19; above 2**17 its arrays leave the cache and its cost per
      uniform quadruples. 2**17 is the largest power of two at which it
      beats numpy's fill plus even the fastest import measured.
    - larger blocks: _numpy_fill, at about 6 ns per uniform.
    """
    trials = _checked_count("trials", trials)
    size = _checked_count("size", size)
    n = trials * size
    if _SMALL_BLOCK < n <= _VECTOR_BLOCK:
        return _vector_fill(_seed_words(seed, trials, *key), size)
    fill = _python_fill if n <= _SMALL_BLOCK else _numpy_fill
    return fill(_pcg64_states(seed, trials, *key), size)


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
