import math

import numpy as np
import pytest

from eepower.allocator import eepa
from eepower.metrics import evaluate, jain_index, trace_ee_se

E = math.e


def test_evaluate_identical_links():
    report = evaluate([1.0, 1.0], 1.0, [0.7, 0.7])
    assert report.jain == pytest.approx(1.0, abs=1e-12)
    assert report.wmee == pytest.approx(report.wsee / 2.0, abs=1e-12)
    assert report.gee == pytest.approx(report.per_link_ee[0], abs=1e-12)


def test_evaluate_one_hot_ee_vector():
    # second link has zero gain, so its EE is 0 whatever the power
    report = evaluate([1.0, 0.0], [1.0, 1.0], [E - 1.0, 0.5])
    assert report.per_link_ee[1] == 0.0
    assert report.jain == pytest.approx(0.5, abs=1e-12)
    assert report.wpee == 0.0
    assert report.wmee == 0.0


def test_evaluate_direct_arithmetic():
    p = E - 1.0
    report = evaluate([1.0, 2.0], [1.0, 1.0], [p, p])
    assert report.per_link_ee[0] == pytest.approx(1.0 / E, abs=1e-12)
    assert report.per_link_ee[1] == pytest.approx(math.log1p(2.0 * p) / E, abs=1e-12)
    assert report.wsee == pytest.approx(sum(report.per_link_ee), abs=1e-12)
    assert report.wpee == pytest.approx(report.per_link_ee[0] * report.per_link_ee[1], abs=1e-12)
    assert report.gee == pytest.approx((1.0 + math.log1p(2.0 * p)) / (2.0 + 2.0 * p), abs=1e-12)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate([1.0, 2.0], [1.0, 1.0, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        evaluate([[1.0, 2.0]] * 3, 1.0, [[0.1, 0.2]] * 2)
    with pytest.raises(ValueError):
        evaluate([1.0], 1.0, [-0.1])


def test_evaluate_rows_equal_one_vector_calls():
    # every field of a row of a (rows, n) call is that row's own call, bit
    # for bit; a zero gain or a zero power makes a zero EE
    rng = np.random.default_rng(3)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, (9, 5))
    gains[2, 1] = 0.0
    pc = rng.uniform(0.25, 2.0, (9, 5))
    powers = rng.uniform(0.0, 2.0, (9, 5))
    powers[4] = 0.0
    rows = evaluate(gains, pc, powers)
    assert rows.per_link_ee.shape == (9, 5) and rows.jain.shape == (9,)
    assert rows.jain[4] == 1.0 and rows.wmee[2] == 0.0
    for r in range(9):
        alone = evaluate(gains[r], pc[r], powers[r])
        np.testing.assert_array_equal(alone.per_link_ee, rows.per_link_ee[r])
        for field in ("gee", "wsee", "wpee", "wmee", "jain"):
            assert getattr(alone, field) == getattr(rows, field)[r]
        assert jain_index(rows.per_link_ee[r]) == rows.jain[r]


def test_jain_bounds_and_scaling():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        v = rng.random(n) + 0.01
        j = jain_index(v)
        assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
        assert jain_index(10.0 * v) == pytest.approx(j, rel=1e-12)
    assert jain_index([0.0, 0.0]) == 1.0
    np.testing.assert_array_equal(jain_index([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]), [1.0, 1.0, 0.5])


def test_gee_between_min_and_max_ee_for_symmetric_costs():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        gains = 10.0 ** rng.uniform(-1, 1, n)
        p = float(rng.uniform(0.1, 2.0))
        report = evaluate(gains, 0.8, [p] * n)
        assert report.per_link_ee.min() - 1e-12 <= report.gee <= report.per_link_ee.max() + 1e-12


def test_n_wmee_below_wsee_for_unit_weights():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        gains = 10.0 ** rng.uniform(-1, 1, n)
        pc = rng.uniform(0.3, 2.0, n)
        powers = rng.uniform(0.0, 2.0, n)
        report = evaluate(gains, pc, powers)
        assert n * report.wmee <= report.wsee + 1e-12


def test_trace_single_point():
    p, se, ee = trace_ee_se(1.0, [1.0])
    assert len(p) == len(se) == len(ee) == 1
    assert p[0] == pytest.approx(E - 1.0, abs=1e-12)
    assert se[0] == pytest.approx(1.0, abs=1e-12)
    assert ee[0] == pytest.approx(1.0 / E, abs=1e-12)


def test_trace_jointly_increasing():
    grid = np.logspace(-2, 2, 100)
    _p, se, ee = trace_ee_se(1.0, grid)
    assert all(b > a for a, b in zip(se, se[1:]))
    assert all(b > a for a, b in zip(ee, ee[1:]))


def test_trace_reversed_grid_maps_pointwise():
    grid = np.logspace(-1, 1, 20)
    fwd = trace_ee_se(0.5, grid)
    rev = trace_ee_se(0.5, grid[::-1])
    for a, b in zip(fwd, rev):
        assert b.tolist() == a.tolist()[::-1]


@pytest.mark.parametrize("pc", [0.25, 1.0, 4.0])
def test_trace_no_tradeoff_over_wide_grid(pc):
    grid = np.logspace(-2, 4, 120)
    _p, se, ee = trace_ee_se(pc, grid)
    assert np.all(np.diff(se) > 0.0)
    assert np.all(np.diff(ee) > 0.0)


def test_trace_matches_eepa_pointwise():
    grid = np.logspace(-1, 1, 10)
    p_trace, se, _ee = trace_ee_se(2.0, grid)
    for gamma, p_t, se_t in zip(grid, p_trace, se):
        p = eepa(gamma, 2.0)
        assert p_t == p
        assert se_t == pytest.approx(math.log1p(gamma * p), abs=1e-14)
