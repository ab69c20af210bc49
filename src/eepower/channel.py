"""Seeded unit-mean Rayleigh channel realizations for Monte-Carlo experiments.

Randomness policy: every draw reads a PCG64 stream seeded from the seed plus
an integer stream key, so each call is a pure function of its arguments and
trials indexed by stream can run in any order (or in parallel) with
bit-identical results. Every command draws through stream_uniforms, one row
per stream; rng_for (numpy's own SeedSequence and PCG64), draw_gains and
draw_matrix draw one stream at a time and are kept as the per-stream
references its rows equal bit for bit (the package does not export them:
they stay here for the tests and the benchmark tracer, which wraps them,
until the ROADMAP's tracer item frees them and its deletion pass moves them
into the tests). stream_uniforms computes the same SeedSequence hash,
stream by stream on Python ints for up to _INT_STREAMS streams (about
20-25 us each) and for all streams at once on uint64 arrays above that
(about 80-100 us), and fills each stream from its PCG64 state, so
each row is still a pure function of (seed, key) with the bits of rng_for.
Three fills give those bits, and the block's size n = trials * size picks
one (see stream_uniforms): up to _SMALL_BLOCK uniforms, PCG64's 128-bit step
and XSL-RR output on Python ints, about 1 us per uniform; up to
_VECTOR_BLOCK, the same step as one uint64 array program over all streams,
whose columns double by LCG jump-ahead in contiguous (size, trials) row
blocks, about 0.1-0.15 ms plus 15-25 us per doubling plus 20-50 ns per
uniform;
above that, one reused numpy PCG64, about 6 ns per uniform. Only the last
pays the 10-20 ms import that the first use of numpy.random costs a
process, so `fairness`, `verify`, `ofdm` and `mimo` at the benchmark's
trial counts and `siso-profiles` at its default never import it. All
variates are derived from uniform draws only (inverse CDF for gains,
Box-Muller for complex Gaussians), which keeps the sequences stable across
numpy releases.
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
# the most streams whose seeds are hashed one by one on Python ints
_INT_STREAMS = 3

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


def _seed_words(seed: int, streams, *key: int) -> list:
    """numpy's SeedSequence(entropy=seed, spawn_key=(t, *key)).generate_state(4,
    uint64) for a stream index t < 2**32, a Python int, or for every t of a
    uint64 array at once: four ints or uint64 arrays, the high and low words
    of PCG64's seed state and then of its initseq. The stream index is one
    32-bit entropy word, as it is for any t < 2**32."""
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
    for word in head[4:] + [streams] + tail:
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
    # a few streams hash faster one by one on Python ints; an empty block
    # still checks the seed and keys on the array path
    if 0 < trials <= _INT_STREAMS:
        words = [_seed_words(seed, t, *key) for t in range(trials)]
    else:
        words = zip(*(w.tolist() for w in _seed_words(seed, np.arange(trials, dtype=np.uint64), *key)))
    # PCG64 seeding: inc = 2 initseq + 1, then two LCG steps from state 0
    states = []
    for s_hi, s_lo, q_hi, q_lo in words:
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
    array, so that every product wraps as an array op and none warns; a and
    b broadcast, as a (trials,) row against a (rounds, 1) column. The high
    word of a_lo * b_lo is summed from its 32-bit limb products, none of
    whose partial sums exceeds 64 bits; the cross terms only reach the high
    word, so they may wrap. Three arrays of the product's shape hold every
    partial sum, each product written into one with out=."""
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    # t = a1 b0 + (a0 b0 >> 32), u = a0 b1 + (t & 2**32 - 1)
    t = a0 * b0
    t >>= _U32
    u = a1 * b0
    t += u
    np.multiply(a0, b1, out=u)
    hi = t >> _U32
    t &= _LOW32
    u += t
    u >>= _U32
    # hi = a1 b1 + (t >> 32) + (u >> 32) + a_lo b_hi + a_hi b_lo
    hi += u
    for x, y in ((a1, b1), (a_lo, b_hi), (a_hi, b_lo)):
        hi += np.multiply(x, y, out=u)
    return hi, np.multiply(a_lo, b_lo, out=t)


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
    the arrays wrap; the C inc terms of all rounds are one (rounds, trials)
    product. The columns are held as rows of (size, trials) arrays, so each
    round reads and writes contiguous blocks. A round writes A times the
    first k rows plus its C inc row into rows [m, m + k) with out= and adds
    the low word's carry in place, so it allocates only the product's words
    and the carry flags. The XSL-RR output word is formed in one array, the
    state's words reused for the rest, and the block is transposed once, as
    its words convert to floats. Every operand is a uint64 array or one of
    the uint64 constants above, never a Python int, so numpy 1.24's
    value-based casting and numpy 2's NEP 50 give the same dtypes."""
    s_hi, s_lo, q_hi, q_lo = words
    i_hi, i_lo = (q_hi << _U1) | (q_lo >> _U63), (q_lo << _U1) | _U1
    start_lo = s_lo + i_lo
    start_hi = s_hi + i_hi + (start_lo < s_lo)
    mults, adds = [(_PCG64_MULT * _PCG64_MULT) & _MASK128], [_PCG64_MULT + 1]
    mult, add = _PCG64_MULT, 1
    for _ in range((size - 1).bit_length()):
        mults.append(mult)
        adds.append(add)
        mult, add = (mult * mult) & _MASK128, (add + mult * add) & _MASK128
    y_hi, y_lo = _mul128(i_hi, i_lo, *(w[:, None] for w in _words128(adds)))
    hi = np.empty((size, len(s_hi)), dtype=np.uint64)
    lo = np.empty_like(hi)
    m = 0
    for r, (a_hi, a_lo) in enumerate(zip(*_words128(mults))):
        # columns [m, m + k) from the first k, column 0 from the start state
        k = max(min(m, size - m), 1)
        x_hi, x_lo = _mul128(*((hi[:k], lo[:k]) if m else (start_hi, start_lo)), a_hi, a_lo)
        new_hi, new_lo = hi[m : m + k], lo[m : m + k]
        np.add(x_lo, y_lo[r], out=new_lo)
        np.add(x_hi, y_hi[r], out=new_hi)
        new_hi += new_lo < x_lo
        m += k
    # XSL-RR: the xor of the halves rotated right by the state's top 6 bits
    # (hi becomes the right shift, then the left shift 64 - rot mod 64, and
    # lo the word shifted left by it); next_double's 53 bits convert
    # exactly, and faster from int64
    lo ^= hi
    hi >>= _U58
    word = lo >> hi
    np.subtract(_U64, hi, out=hi)
    hi &= _U63
    lo <<= hi
    word |= lo
    word >>= _U11
    out = word.view(np.int64).T.astype(float, order="C")
    return np.multiply(out, 2.0**-53, out=out)


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
    on 2 vCPUs (each fill with its seed hash, medians of best-of-5 times; the
    host's speed drifted by up to 2x between runs, so the ranges are wide;
    the array fill's figures are those of its in-place rounds):

    - n <= _SMALL_BLOCK: _python_fill, 0.5-1.5 us per uniform. The array
      fill costs about 0.15 ms plus 15-25 us per doubling of the row
      length, so in rows of 1-8 it already wins at 160-256 uniforms (40 x 4:
      0.18 against 0.19 ms, 256 x 1: 0.16 against 0.40 ms), in rows of 64
      the two cross near 256-512 (4 x 64: 0.49 against 0.39 ms, 8 x 64: 0.50
      against 0.61 ms), and a single row, whose seed is hashed on Python
      ints, stays faster in Python past 640 (1 x 640: 0.31 against 0.34 ms).
      256 lies between: the Python fill loses at most 0.24 ms below it
      (256 x 1), the array fill at most 0.15 ms above it (1 x 320; 0.06 ms
      at 1 x 512).
    - n <= _VECTOR_BLOCK: _vector_fill. numpy's fill is faster per uniform,
      but its first use in a process imports numpy.random, 9.6-15.4 ms
      (medians 13.7 and 10.1 ms in two sets). In rows of 2048 the array
      fill costs 2.0-4.2 ms more than numpy's fill at 2**17 uniforms,
      9.8-10.1 ms more at 2**18 and 24 ms more at 2**19, at 40-50 ns per
      uniform once its arrays leave the cache (21 ns at 500 x 64). 2**17 is
      the largest power of two at which it beats numpy's fill plus even the
      fastest import measured; at 2**18 it still loses to it, by 0.2-0.5 ms.
    - larger blocks: _numpy_fill, at about 5 ns per uniform.
    """
    trials = _checked_count("trials", trials)
    size = _checked_count("size", size)
    n = trials * size
    if _SMALL_BLOCK < n <= _VECTOR_BLOCK:
        return _vector_fill(_seed_words(seed, np.arange(trials, dtype=np.uint64), *key), size)
    fill = _python_fill if n <= _SMALL_BLOCK else _numpy_fill
    return fill(_pcg64_states(seed, trials, *key), size)


def _exponential(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-mean exponential variates from uniforms (inverse CDF): -log1p(-u),
    into out (u itself, for a block no caller holds) or a new array."""
    out = np.negative(u, out=out)
    return np.negative(np.log1p(out, out=out), out=out)


def draw_gains(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. unit-mean exponential channel power gains: the |h|^2 of a
    circularly-symmetric complex Gaussian h (Rayleigh fading). For a fixed
    (seed, n, stream) the sequence is always identical, and shorter draws
    are prefixes of longer ones from the same stream.
    """
    if _checked_count("n", n) < 1:
        raise ValueError(f"draw_gains: n must be >= 1, got {n}")
    return _exponential(rng_for(seed, stream).random(n))


def draw_gain_rows(seed: int, trials: int, n: int) -> np.ndarray:
    """(trials, n) gains whose row t is draw_gains(seed, n, stream=t).

    By the prefix property the first k columns are the k-gain draws, so one
    block serves every dimension count up to n. The freshly drawn uniforms
    are turned into gains in place.
    """
    u = stream_uniforms(seed, _checked_count("trials", trials), _checked_count("n", n))
    return _exponential(u, out=u)


def draw_matrix(seed: int, rows: int, cols: int, stream: int = 0) -> np.ndarray:
    """rows x cols matrix of i.i.d. circularly-symmetric complex Gaussians
    with E[|entry|^2] = 1."""
    if _checked_count("rows", rows) < 1 or _checked_count("cols", cols) < 1:
        raise ValueError(f"draw_matrix: need rows, cols >= 1, got {rows}x{cols}")
    return matrices_from_uniforms(rng_for(seed, stream).random(2 * rows * cols), rows, cols)


def matrices_from_uniforms(u: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrices (..., rows, cols) built as draw_matrix builds
    them from the leading 2 * rows * cols uniforms of each row of u: the first
    rows * cols set the radii, the next rows * cols the phases (Box-Muller).
    stream_uniforms(seed, trials, 2 * rows * cols) thus yields the stacked
    draw_matrix draws of streams 0 .. trials-1."""
    k = _checked_count("rows", rows) * _checked_count("cols", cols)
    if u.shape[-1] < 2 * k:
        raise ValueError(f"matrices_from_uniforms: need {2 * k} uniforms per matrix, got {u.shape[-1]}")
    shape = u.shape[:-1] + (rows, cols)
    radius = np.sqrt(_exponential(u[..., :k].reshape(shape)))
    return radius * np.exp(2j * np.pi * u[..., k : 2 * k].reshape(shape))
