import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eepower.channel import (
    _pcg64_states,
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


def test_uniform_block_matrices_equal_per_stream_draws():
    block = stream_uniforms(21, 5, 2 * 8**2)
    for n in (1, 2, 3, 8):
        stack = matrices_from_uniforms(block, n, n)
        assert stack.shape == (5, n, n)
        for t in range(5):
            assert np.all(stack[t] == draw_matrix(21, n, n, stream=t))
    # rectangular draws read the same prefix
    assert np.all(matrices_from_uniforms(block, 3, 7)[2] == draw_matrix(21, 3, 7, stream=2))
    with pytest.raises(ValueError):
        matrices_from_uniforms(block, 9, 9)


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
def test_stream_block_equals_per_stream_generators(seed, trials, size, key):
    block = stream_uniforms(seed, trials, size, *key)
    assert np.array_equal(block, _per_stream_rows(seed, trials, size, key))


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("key", [(), (1,), (7, 2**33)])
def test_block_seeding_derives_each_streams_pcg64_state(seed, key):
    states = []
    for t in range(4):
        state = rng_for(seed, t, *key).bit_generator.state["state"]
        states.append((state["state"], state["inc"]))
    assert _pcg64_states(seed, 4, *key) == states


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
