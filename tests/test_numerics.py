import math

import numpy as np
import pytest

from eepower.numerics import bisect, lambert_w0, lambert_w0_offset, svd_gains

INV_E = math.exp(-1.0)


def _omega_by_bisection():
    # independent oracle: solve w * e**w = 1 on [0, 1] without lambert_w0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lambert_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w0(-INV_E) == -1.0


def test_lambert_omega_constant():
    expected = _omega_by_bisection()
    assert expected == pytest.approx(0.5671432904097838, abs=1e-12)
    assert lambert_w0(1.0) == pytest.approx(expected, abs=1e-12)


def test_lambert_clamps_just_below_branch_point():
    assert lambert_w0(-INV_E - 1e-13) == -1.0


@pytest.mark.parametrize("bad", [-INV_E - 1e-9, math.nan, math.inf, -math.inf])
def test_lambert_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        lambert_w0(bad)


def test_lambert_round_trip_residual_across_domain():
    xs = np.concatenate([[-INV_E], -INV_E + np.logspace(-15, np.log10(1e6 + INV_E), 10_000)])
    for x in xs:
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))
        assert w >= -1.0


# (x, W0(x)), computed once with mpmath at 80 digits; near x = 0 the offset
# form 1 + W cancels, so these catch a W taken as lambert_w0_offset - 1
LAMBERT_PINS = [
    (1e-300, 1e-300),
    (1e-12, 9.9999999999899998e-13),
    (-1e-10, -1.0000000001e-10),
    (1e-05, 9.9999000014999742e-6),
    (0.3, 0.23675531078855931),
    (1000.0, 5.2496028524015962),
    (1e300, 684.24720862976085),
]


@pytest.mark.parametrize("x, expected", LAMBERT_PINS)
def test_lambert_matches_mpmath_pins(x, expected):
    assert lambert_w0(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_lambert_nondecreasing():
    xs = np.concatenate([[-INV_E], -INV_E + np.logspace(-12, 6, 2_000)])
    ws = [lambert_w0(x) for x in xs]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


# (d, 1 + W0(-1/e + d)), computed once with mpmath at 340 digits, so that
# -1/e + d keeps every digit of d down to 1e-300
W_OFFSET_PINS = [
    (1e-300, 2.3316439815971243e-150),
    (1e-200, 2.331643981597124e-100),
    (1e-100, 2.3316439815971244e-50),
    (1e-30, 2.3316439815971225e-15),
    (1e-16, 2.3316439634752455e-08),
    (1e-10, 2.3316258599119286e-05),
    (1e-07, 0.0007371494098766271),
    (1e-06, 0.002329833727992111),
    (1.8e-05, 0.009859855379639538),
    (2e-05, 0.010391357408231352),
    (0.0001, 0.023137134425578087),
    (0.001, 0.07197984994543295),
    (0.01, 0.21677080101870322),
    (0.1, 0.6006175474602192),
    (0.18, 0.761521554098765),
    (0.2, 0.7936441879526912),
    (0.5, 1.117476501748948),
    (1.0, 1.4167039988177659),
    (2.0, 1.7618654453880513),
    (10.0, 2.7217577109761715),
    (1000.0, 6.249293782013268),
    (100000.0, 10.284568107521958),
    (10000000000.0, 21.028685413269912),
    (1e30, 65.90463377004612),
    (1e100, 225.8431064451185),
    (1e200, 455.398045033714),
    (1e300, 685.2472086297608),
]


def test_lambert_offset_matches_mpmath_pins():
    # the pins straddle the series/Halley switch at p = sqrt(2 e d) = 1e-2
    # (d = 1.84e-5) and the switch of the Halley start at p = 1 (d = 0.184)
    d, expected = np.array(W_OFFSET_PINS).T
    v = lambert_w0_offset(d)
    np.testing.assert_allclose(v, expected, rtol=1e-13, atol=0.0)
    for x, want in zip(d, v):
        assert lambert_w0_offset(x) == want


def test_lambert_offset_agrees_with_scalar_and_is_nondecreasing():
    assert lambert_w0_offset(0.0) == 0.0
    d = np.logspace(-12, 12, 2_001)
    v = lambert_w0_offset(d)
    assert np.all(np.diff(v) > 0.0)
    # away from the branch point the scalar lambert_w0 keeps its digits
    far = d >= 1e-3
    scalar = np.array([1.0 + lambert_w0(x - INV_E) for x in d[far]])
    np.testing.assert_allclose(v[far], scalar, rtol=1e-13)
    assert lambert_w0_offset(d.reshape(3, 667)).shape == (3, 667)


def test_bisect_linear():
    assert bisect(lambda x: x - 2.0, 0.0, 10.0, 1e-9) == pytest.approx(2.0, abs=1e-9)


def test_bisect_sqrt2():
    assert bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-9) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_bisect_log():
    assert bisect(math.log, 0.1, 3.0, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(ValueError):
        bisect(lambda x: x + 5.0, 0.0, 1.0, 1e-9)
    with pytest.raises(ValueError):
        bisect(lambda x: x, 1.0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        bisect(lambda x: x, -1.0, 1.0, 0.0)


def test_svd_gains_identity():
    np.testing.assert_allclose(svd_gains(np.eye(2, dtype=complex)), [1.0, 1.0])


def test_svd_gains_diagonal_sorted():
    np.testing.assert_allclose(svd_gains(np.diag([3.0, 4.0]).astype(complex)), [16.0, 9.0])


def _eigvals_by_char_poly(g):
    # independent oracle for a 3x3 Hermitian matrix: roots of the
    # characteristic polynomial built from trace identities
    t1 = np.trace(g).real
    t2 = np.trace(g @ g).real
    e2 = (t1 * t1 - t2) / 2.0
    e3 = np.linalg.det(g).real
    roots = np.roots([1.0, -t1, e2, -e3])
    return np.sort(roots.real)[::-1]


def test_svd_gains_random_3x3_vs_char_poly_oracle():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    expected = _eigvals_by_char_poly(h.conj().T @ h)
    np.testing.assert_allclose(svd_gains(h), expected, rtol=1e-8)


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (4, 4), (1, 3), (6, 6)])
def test_svd_gains_shape_and_frobenius(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gains = svd_gains(h)
    assert gains.shape == (min(shape),)
    assert np.all(gains >= 0.0)
    assert np.all(np.diff(gains) <= 0.0)
    fro2 = float(np.sum(np.abs(h) ** 2))
    assert abs(gains.sum() - fro2) <= 1e-9 * fro2


def test_svd_gains_unit_modulus_invariance():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    base = svd_gains(h)
    for theta in (0.3, 1.7, -2.5):
        np.testing.assert_allclose(svd_gains(np.exp(1j * theta) * h), base, rtol=1e-10)


def test_svd_gains_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(40):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        h = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        ref = np.sort(np.linalg.svd(h, compute_uv=False) ** 2)[::-1]
        np.testing.assert_allclose(svd_gains(h), ref, rtol=1e-8, atol=1e-10 * max(1.0, ref[0]))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (3, 5), (7, 2)])
def test_svd_gains_stacked_equals_per_matrix_calls(shape):
    rng = np.random.default_rng(sum(shape))
    stack = rng.normal(size=(2, 3, *shape)) + 1j * rng.normal(size=(2, 3, *shape))
    gains = svd_gains(stack)
    assert gains.shape == (2, 3, min(shape))
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(gains[i, j], svd_gains(stack[i, j]))
    ref = np.linalg.svd(stack, compute_uv=False) ** 2
    np.testing.assert_allclose(gains, ref, rtol=1e-8, atol=1e-10 * ref.max())


def test_svd_gains_zero_and_rank_deficient():
    np.testing.assert_allclose(svd_gains(np.zeros((3, 2), dtype=complex)), [0.0, 0.0])
    # duplicated column: second singular value must be snapped to exactly 0
    col = np.array([1.0 + 1j, 2.0 - 0.5j, 0.25j])
    h = np.stack([col, col], axis=1)
    gains = svd_gains(h)
    assert gains[1] == 0.0


def test_svd_gains_rejects_bad_input():
    with pytest.raises(ValueError):
        svd_gains(np.array([[np.inf + 0j]]))
