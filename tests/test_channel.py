import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eepower.channel import (
    _MASK128,
    _PCG64_MULT,
    _SMALL_BLOCK,
    _VECTOR_BLOCK,
    _mul128,
    _pcg64_states,
    _seed_words,
    _vector_fill,
    _exponential,
    _words128,
    draw_gain_rows,
    draw_gains,
    draw_matrix,
    matrices_from_uniforms,
    rng_for,
    stream_uniforms,
)


def test_rayleigh_seeded_repeatability():
    a = draw_gains(123, 1000)
    b = draw_gains(123, 1000)
    np.testing.assert_array_equal(a, b)


def test_rayleigh_streams_are_distinct():
    a = draw_gains(123, 100, stream=0)
    b = draw_gains(123, 100, stream=1)
    assert not np.array_equal(a, b)


def test_rayleigh_prefix_property():
    short = draw_gains(9, 3, stream=5)
    long = draw_gains(9, 64, stream=5)
    np.testing.assert_array_equal(short, long[:3])


def test_rayleigh_law_of_large_numbers():
    g = draw_gains(2024, 1_000_000)
    assert np.all(g >= 0.0)
    assert abs(g.mean() - 1.0) < 0.01


def test_gains_nonnegative_and_finite():
    g = draw_gains(5, 10_000)
    assert np.all(np.isfinite(g))
    assert np.all(g >= 0.0)


def test_matrix_seeded_repeatability():
    a = draw_matrix(77, 2, 2)
    b = draw_matrix(77, 2, 2)
    np.testing.assert_array_equal(a, b)


def test_matrix_frobenius_moment():
    # the draw_matrix(31, 4, 4, stream=t) draws of streams 0 .. 29 999, as
    # one block (test_uniform_block_matrices_equal_per_stream_draws)
    stack = matrices_from_uniforms(stream_uniforms(31, 30_000, 2 * 4 * 4), 4, 4)
    fro2 = np.sum(np.abs(stack) ** 2, axis=(1, 2))
    assert abs(np.mean(fro2) - 16.0) < 0.01 * 16.0


def test_matrix_entry_moment():
    # 100 independent 100x100 draws give 1e6 entry samples
    sq = [np.abs(draw_matrix(8, 100, 100, stream=t)) ** 2 for t in range(100)]
    assert abs(float(np.mean(sq)) - 1.0) < 0.01
    # and the 1x1 special case draws the same way
    scalars = [abs(draw_matrix(8, 1, 1, stream=t)[0, 0]) ** 2 for t in range(2_000)]
    assert abs(float(np.mean(scalars)) - 1.0) < 0.1


def test_gain_rows_slices_equal_per_stream_draws():
    block = draw_gain_rows(12, 6, 16)
    assert block.shape == (6, 16)
    for t in range(6):
        for n in (1, 2, 5, 16):
            assert np.all(block[t, :n] == draw_gains(12, n, stream=t))
    # the uniforms of the Python, array and numpy fills turn into gains in
    # place, with the bits of the transform into a new array
    for trials, n in ((6, 16), (500, 64), (2, _VECTOR_BLOCK // 2 + 1)):
        block = draw_gain_rows(12, trials, n)
        assert block.tobytes() == _exponential(stream_uniforms(12, trials, n)).tobytes()


def test_uniform_block_matrices_equal_per_stream_draws():
    block = stream_uniforms(21, 5, 2 * 8**2)
    # the caller's uniforms are never written to
    before = block.copy()
    for n in (1, 2, 3, 8):
        stack = matrices_from_uniforms(block, n, n)
        assert stack.shape == (5, n, n)
        for t in range(5):
            assert np.all(stack[t] == draw_matrix(21, n, n, stream=t))
    # rectangular draws read the same prefix
    assert np.all(matrices_from_uniforms(block, 3, 7)[2] == draw_matrix(21, 3, 7, stream=2))
    with pytest.raises(ValueError):
        matrices_from_uniforms(block, 9, 9)
    assert block.tobytes() == before.tobytes()


_SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**130)


def _per_stream_rows(seed, trials, size, key):
    return np.stack([rng_for(seed, t, *key).random(size) for t in range(trials)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**140)),
    trials=st.integers(1, 600),
    size=st.integers(1, 2048),
    key=st.lists(st.integers(0, 2**70), max_size=1),
)
@example(seed=0, trials=1, size=1, key=[])
@example(seed=2**32 - 1, trials=600, size=3, key=[1])
@example(seed=2**32, trials=600, size=2048, key=[])
@example(seed=2**64 + 5, trials=17, size=64, key=[2**32])
@example(seed=2**130, trials=300, size=8, key=[0])
# blocks of at most _SMALL_BLOCK uniforms are filled in Python, those of at
# most _VECTOR_BLOCK with uint64 arrays, larger ones by numpy's PCG64: n = T
# and T + 1 at each threshold T, as one row (the most doubling rounds), one
# column (none) and in between
@example(seed=2**130, trials=1, size=_SMALL_BLOCK, key=[2**32])
@example(seed=2**130, trials=1, size=_SMALL_BLOCK + 1, key=[2**32])
@example(seed=2**130, trials=_SMALL_BLOCK, size=1, key=[2**32])
@example(seed=2**130, trials=_SMALL_BLOCK + 1, size=1, key=[2**32])
@example(seed=2**130, trials=_SMALL_BLOCK // 4, size=4, key=[])
@example(seed=2**130, trials=_SMALL_BLOCK // 4 + 1, size=4, key=[])
@example(seed=2**130, trials=1, size=_VECTOR_BLOCK, key=[2**32])
@example(seed=2**130, trials=1, size=_VECTOR_BLOCK + 1, key=[2**32])
@example(seed=2**130, trials=_VECTOR_BLOCK, size=1, key=[2**32])
@example(seed=2**130, trials=_VECTOR_BLOCK + 1, size=1, key=[2**32])
@example(seed=2**130, trials=_VECTOR_BLOCK // 2048, size=2048, key=[])
@example(seed=2**130, trials=_VECTOR_BLOCK // 2048 + 1, size=2048, key=[])
def test_stream_block_equals_per_stream_generators(seed, trials, size, key):
    block = stream_uniforms(seed, trials, size, *key)
    assert np.array_equal(block, _per_stream_rows(seed, trials, size, key))


_MUL128_EDGES = [0, 1, 2**64 - 1, 2**64, _MASK128, _PCG64_MULT]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.lists(st.integers(0, _MASK128), max_size=8),
    b=st.one_of(st.sampled_from(_MUL128_EDGES), st.integers(0, _MASK128)),
)
@example(a=[], b=0)
@example(a=[], b=1)
@example(a=[], b=2**64 - 1)
@example(a=[], b=2**64)
@example(a=[], b=_MASK128)
@example(a=[], b=_PCG64_MULT)
def test_mul128_is_the_product_mod_2_128(a, b):
    a = _MUL128_EDGES + a
    b_hi, b_lo = _words128([b])
    column = [b, *_MUL128_EDGES]
    # b as numpy scalars, as the jump constants enter, as an array like a,
    # and as a (k, 1) column against the row a, as the C inc terms enter:
    # one row of products per value of b
    for bs, b_words in (
        ([b], (b_hi[0], b_lo[0])),
        ([b], _words128([b] * len(a))),
        (column, tuple(w[:, None] for w in _words128(column))),
    ):
        hi, lo = _mul128(*_words128(a), *b_words)
        assert hi.dtype == lo.dtype == np.uint64
        assert hi.shape == lo.shape == ((len(bs), len(a)) if len(bs) > 1 else (len(a),))
        words = zip(np.atleast_2d(hi).tolist(), np.atleast_2d(lo).tolist())
        assert [[h << 64 | l for h, l in zip(*row)] for row in words] == [[(x * y) & _MASK128 for x in a] for y in bs]


@pytest.mark.parametrize(
    "trials, size, name, bad",
    [
        (-1, 3, "trials", "-1"),
        (3, -1, "size", "-1"),
        # blocks that the array fill (4097 uniforms) and numpy's PCG64 would
        # fill, were their counts allowed
        (-1, -4097, "trials", "-1"),
        (-1, -(_VECTOR_BLOCK + 1), "trials", "-1"),
        (2.0, 3, "trials", "2.0"),
        (2, 1.5, "size", "1.5"),
        (2, True, "size", "True"),
    ],
)
def test_stream_block_rejects_a_count_that_is_not_a_non_negative_integer(trials, size, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {bad}$"):
        stream_uniforms(1, trials, size)
    # draw_gain_rows names its own parameters, (trials, n)
    name = {"size": "n"}.get(name, name)
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {bad}$"):
        draw_gain_rows(1, trials, size)


_BAD_COUNTS = [(2.0, "2.0"), (True, "True"), (-1, "-1")]


@pytest.mark.parametrize("bad, text", _BAD_COUNTS)
def test_draw_gains_rejects_a_count_that_is_not_a_non_negative_integer(bad, text):
    with pytest.raises(ValueError, match=f"^n must be a non-negative integer, got {text}$"):
        draw_gains(1, bad)


@pytest.mark.parametrize("bad, text", _BAD_COUNTS)
def test_draw_matrix_rejects_a_count_that_is_not_a_non_negative_integer(bad, text):
    with pytest.raises(ValueError, match=f"^rows must be a non-negative integer, got {text}$"):
        draw_matrix(1, bad, 2)
    with pytest.raises(ValueError, match=f"^cols must be a non-negative integer, got {text}$"):
        draw_matrix(1, 2, bad)


@pytest.mark.parametrize("bad, text", _BAD_COUNTS)
def test_draw_gain_rows_rejects_a_count_that_is_not_a_non_negative_integer(bad, text):
    with pytest.raises(ValueError, match=f"^trials must be a non-negative integer, got {text}$"):
        draw_gain_rows(1, bad, 2)
    with pytest.raises(ValueError, match=f"^n must be a non-negative integer, got {text}$"):
        draw_gain_rows(1, 2, bad)


@pytest.mark.parametrize("bad, text", _BAD_COUNTS)
def test_matrices_from_uniforms_rejects_a_count_that_is_not_a_non_negative_integer(bad, text):
    u = stream_uniforms(1, 2, 8)
    with pytest.raises(ValueError, match=f"^rows must be a non-negative integer, got {text}$"):
        matrices_from_uniforms(u, bad, 2)
    with pytest.raises(ValueError, match=f"^cols must be a non-negative integer, got {text}$"):
        matrices_from_uniforms(u, 2, bad)


def test_stream_block_takes_numpy_integer_counts_and_empty_blocks():
    assert np.array_equal(stream_uniforms(5, np.int64(3), np.uint8(4)), stream_uniforms(5, 3, 4))
    assert stream_uniforms(5, 0, 3).shape == (0, 3)
    assert stream_uniforms(5, 3, 0).shape == (3, 0)


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("key", [(), (1,), (7, 2**33)])
def test_block_seeding_derives_each_streams_pcg64_state(seed, key):
    states = []
    for t in range(4):
        state = rng_for(seed, t, *key).bit_generator.state["state"]
        states.append((state["state"], state["inc"]))
    assert _pcg64_states(seed, 4, *key) == states


@pytest.mark.parametrize("seed", [0, 2**130])
@pytest.mark.parametrize("key", [(), (7,), (3, 2**33)])
def test_streams_seeded_on_python_ints_equal_the_array_path_and_rng_for(seed, key):
    for trials in range(1, 9):
        arrays = [a.tolist() for a in _seed_words(seed, np.arange(trials, dtype=np.uint64), *key)]
        assert [_seed_words(seed, t, *key) for t in range(trials)] == [list(w) for w in zip(*arrays)]
        states = [rng_for(seed, t, *key).bit_generator.state["state"] for t in range(trials)]
        assert _pcg64_states(seed, trials, *key) == [(state["state"], state["inc"]) for state in states]


@pytest.mark.parametrize("trials, size", [(3, 65), (17, 1000), (500, 64), (64, 2048), (1, 10000)])
def test_two_dimensional_blocks_equal_per_stream_generators(trials, size):
    # the doubling rounds fill contiguous row blocks of (size, trials) arrays
    # and the block is transposed once; 65 and 1000 columns end mid-round;
    # (1, 10000) is the one stream that siso-profiles draws by default
    rows = _per_stream_rows(2**130, trials, size, [7])
    assert np.array_equal(stream_uniforms(2**130, trials, size, 7), rows)
    block = _vector_fill(_seed_words(2**130, np.arange(trials, dtype=np.uint64), 7), size)
    assert block.flags.c_contiguous and np.array_equal(block, rows)


@pytest.mark.parametrize(
    "seed, key, name, bad",
    [
        (1.5, (), "seed", "1.5"),
        (True, (), "seed", "True"),
        ("1", (), "seed", "'1'"),
        (1, (1.7,), "stream key", "1.7"),
        (1, (False,), "stream key", "False"),
        (1, (2, "3"), "stream key", "'3'"),
        (1, (-1,), "stream key", "-1"),
    ],
)
def test_seed_and_stream_key_must_be_non_negative_integers(seed, key, name, bad):
    message = f"^{name} must be a non-negative integer, got {bad}$"
    with pytest.raises(ValueError, match=message):
        rng_for(seed, *key)
    # one block per fill
    for trials, size in ((2, 3), (_SMALL_BLOCK + 1, 1), (_VECTOR_BLOCK + 1, 1)):
        with pytest.raises(ValueError, match=message):
            stream_uniforms(seed, trials, size, *key)


def test_seed_and_stream_key_take_numpy_integers():
    assert np.array_equal(rng_for(np.uint64(3), np.int32(2)).random(4), rng_for(3, 2).random(4))
    assert np.array_equal(stream_uniforms(np.int64(3), 2, 3, np.uint8(2)), stream_uniforms(3, 2, 3, 2))


def test_stream_block_rejects_a_negative_seed_as_rng_for_does():
    with pytest.raises(ValueError) as single:
        rng_for(-1)
    with pytest.raises(ValueError) as block:
        stream_uniforms(-1, 2, 3)
    assert str(block.value) == str(single.value) == "seed must be a non-negative integer, got -1"


def test_rng_for_is_deterministic_per_key():
    a = rng_for(4, 1, 2).random(5)
    b = rng_for(4, 1, 2).random(5)
    c = rng_for(4, 1, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_validation():
    with pytest.raises(ValueError):
        draw_gains(1, 0)
    with pytest.raises(ValueError):
        draw_matrix(1, 0, 2)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        draw_gains(-1, 3)
