import numpy as np
import pytest

from eepower.channel import (
    FadingSpec,
    draw_gain_rows,
    draw_gains,
    draw_matrix,
    matrices_from_uniforms,
    rng_for,
    stream_uniforms,
)


def test_deterministic_gains():
    spec = FadingSpec(kind="deterministic", mean_gain=2.0, seed=0)
    np.testing.assert_array_equal(draw_gains(spec, 3), [2.0, 2.0, 2.0])


def test_rayleigh_seeded_repeatability():
    spec = FadingSpec(kind="rayleigh", mean_gain=1.0, seed=123)
    a = draw_gains(spec, 1000)
    b = draw_gains(spec, 1000)
    np.testing.assert_array_equal(a, b)


def test_rayleigh_streams_are_distinct():
    spec = FadingSpec(seed=123)
    a = draw_gains(spec, 100, stream=0)
    b = draw_gains(spec, 100, stream=1)
    assert not np.array_equal(a, b)


def test_rayleigh_prefix_property():
    spec = FadingSpec(seed=9)
    short = draw_gains(spec, 3, stream=5)
    long = draw_gains(spec, 64, stream=5)
    np.testing.assert_array_equal(short, long[:3])


def test_rayleigh_law_of_large_numbers():
    spec = FadingSpec(mean_gain=1.0, seed=2024)
    g = draw_gains(spec, 1_000_000)
    assert np.all(g >= 0.0)
    assert abs(g.mean() - 1.0) < 0.01


def test_gains_nonnegative_and_finite():
    spec = FadingSpec(mean_gain=0.3, seed=5)
    g = draw_gains(spec, 10_000)
    assert np.all(np.isfinite(g))
    assert np.all(g >= 0.0)


def test_matrix_seeded_repeatability():
    spec = FadingSpec(mean_gain=1.0, seed=77)
    a = draw_matrix(spec, 2, 2)
    b = draw_matrix(spec, 2, 2)
    np.testing.assert_array_equal(a, b)


def test_matrix_frobenius_moment():
    spec = FadingSpec(mean_gain=1.0, seed=31)
    fro2 = [float(np.sum(np.abs(draw_matrix(spec, 4, 4, stream=t)) ** 2)) for t in range(30_000)]
    assert abs(np.mean(fro2) - 16.0) < 0.01 * 16.0


def test_matrix_entry_moment_scaled():
    spec = FadingSpec(mean_gain=0.5, seed=8)
    # 100 independent 100x100 draws give 1e6 entry samples
    sq = [np.abs(draw_matrix(spec, 100, 100, stream=t)) ** 2 for t in range(100)]
    assert abs(float(np.mean(sq)) - 0.5) < 0.01 * 0.5
    # and the 1x1 special case draws the same way
    scalars = [abs(draw_matrix(spec, 1, 1, stream=t)[0, 0]) ** 2 for t in range(2_000)]
    assert abs(float(np.mean(scalars)) - 0.5) < 0.05


@pytest.mark.parametrize("kind", ["rayleigh", "deterministic"])
def test_gain_rows_slices_equal_per_stream_draws(kind):
    spec = FadingSpec(kind=kind, mean_gain=0.7, seed=12)
    block = draw_gain_rows(spec, 6, 16)
    assert block.shape == (6, 16)
    for t in range(6):
        for n in (1, 2, 5, 16):
            assert np.all(block[t, :n] == draw_gains(spec, n, stream=t))


def test_uniform_block_matrices_equal_per_stream_draws():
    spec = FadingSpec(mean_gain=0.5, seed=21)
    block = stream_uniforms(spec, 5, 2 * 8**2)
    for n in (1, 2, 3, 8):
        stack = matrices_from_uniforms(spec, block, n, n)
        assert stack.shape == (5, n, n)
        for t in range(5):
            assert np.all(stack[t] == draw_matrix(spec, n, n, stream=t))
    # rectangular draws read the same prefix
    assert np.all(matrices_from_uniforms(spec, block, 3, 7)[2] == draw_matrix(spec, 3, 7, stream=2))
    with pytest.raises(ValueError):
        matrices_from_uniforms(spec, block, 9, 9)


def test_rng_for_is_deterministic_per_key():
    a = rng_for(4, 1, 2).random(5)
    b = rng_for(4, 1, 2).random(5)
    c = rng_for(4, 1, 3).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_validation():
    with pytest.raises(ValueError):
        FadingSpec(kind="nakagami")
    with pytest.raises(ValueError):
        FadingSpec(mean_gain=0.0)
    with pytest.raises(ValueError):
        draw_gains(FadingSpec(), 0)
    with pytest.raises(ValueError):
        draw_matrix(FadingSpec(), 0, 2)
