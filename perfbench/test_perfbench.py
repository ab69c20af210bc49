"""Tests of the benchmark's own arithmetic: spans and self time, medians and
quartile spreads, the ok/failed accounting, and the reference comparison."""

import hashlib
from pathlib import Path

import pytest

from benchlib import (
    REL_TOL,
    Tracer,
    check_csv,
    check_manifest,
    check_outputs,
    layer_metrics,
    median,
    ok_frac,
    quartile_spread,
    self_times,
)

HERE = Path(__file__).resolve().parent
CSV = b"n,ee_mean_bits_per_J\n1,0.25\n2,0.5\n"


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiments.run", 1.0, 9.0, 0, None],
        ["allocator.gee_dinkelbach", 2.0, 5.0, 1, None],
        ["numerics.bisect", 3.0, 4.0, 2, None],
        ["allocator.gee_dinkelbach", 6.0, 7.0, 1, None],
    ]
    assert self_times(spans) == {
        "cli.main": 2.0,
        "experiments.run": 4.0,
        "allocator.gee_dinkelbach": 2.0 + 1.0,
        "numerics.bisect": 1.0,
    }


def test_tracer_records_nesting_details_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counter("leaf.calls", lambda x: x + 1)
    inner = tracer.span("inner", lambda x: leaf(x), detail=lambda args, kwargs, result: result * 10)
    outer = tracer.span("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert [(name, parent, detail) for name, _s, _e, parent, detail in tracer.spans] == [
        ("outer", -1, None),
        ("inner", 0, 20),
        ("inner", 0, 30),
    ]
    assert tracer.counts == {"leaf.calls": 2}
    assert self_times(tracer.spans) == {"outer": 5.0 - 2.0, "inner": 2.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("grid too large")

    with pytest.raises(ValueError):
        tracer.span("oracle.grid_argmax", boom, detail=lambda a, k, r: 1)()
    name, start, end, parent, detail = tracer.spans[0]
    assert end >= start and parent == -1 and detail is None
    assert tracer.span("next", lambda: None)() is None
    assert tracer.spans[1][3] == -1


def test_layer_metrics_derives_rates_from_spans():
    spans = [
        ["numerics.svd_gains", 0.0, 0.002, -1, 4],
        ["numerics.svd_gains", 1.0, 1.004, -1, 4],
        ["numerics.svd_gains", 2.0, 2.066, -1, 32],
        ["oracle.grid_argmax", 3.0, 5.0, -1, 1000],
        ["oracle.grid_argmax", 6.0, 6.001, -1, None],  # raised: no points
        ["channel.draw_gains", 7.0, 7.5, -1, 80],
    ]
    m = layer_metrics(spans, {"allocator.ee_of.calls": 7})
    assert m["numerics.svd_gains.calls"] == 3
    assert m["numerics.svd_gains.ms_per_call.n4"] == pytest.approx(3.0)
    assert m["numerics.svd_gains.ms_per_call.n32"] == pytest.approx(66.0)
    assert m["numerics.svd_gains.ms_per_call.n8"] == 0.0
    assert m["oracle.grid_argmax.calls"] == 2
    assert m["oracle.grid_points"] == 1000
    assert m["oracle.points_per_s"] == pytest.approx(500.0)
    assert m["channel.bytes_drawn.computed"] == 80
    assert m["allocator.ee_of.calls"] == 7
    assert m["channel.draw_gains.calls"] == 1
    assert m["channel.draw_gains.self_s"] == pytest.approx(0.5)
    assert m["allocator.gee_dinkelbach.us_per_call"] == 0.0
    # names of spans and counters that never occurred are left to the caller
    assert "numerics.lambert_w0.calls" not in m
    assert "allocator.gee_dinkelbach.calls" not in m


def test_median_and_quartile_spread():
    values = [float(v) for v in range(1, 11)]
    assert median(values) == 5.5
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([2.0] * 10) == 0.0


def test_end_to_end_times_are_in_reference_work_units():
    from run import Sample, end_to_end

    def sample(wall_s, ref_s, setup_s):
        result = {"invocations": [{"wall_s": wall_s}], "setup_s": setup_s, "ref_s": ref_s, "maxrss_kb": 2048}
        return Sample(result, [10], ["ok"], 0, 0.0)

    # the second child ran while the host was half as fast: same wall_ref
    m = end_to_end([sample(1.0, 0.05, 0.1), sample(2.0, 0.1, 0.2), sample(1.5, 0.05, 0.3)], 3, 0)
    assert m["wall_ref"] == pytest.approx(20.0)
    assert m["inst_per_ref"] == pytest.approx(0.5)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["peak_rss_mb"] == 2.0
    assert m["ok_frac"] == 1.0


def test_ok_frac_counts_failures_against_attempts():
    assert ok_frac(11, 2) == pytest.approx(9 / 11)
    assert ok_frac(3, 0) == 1.0
    with pytest.raises(ValueError):
        ok_frac(0, 0)


def test_check_csv_tolerance_passes_last_digit_drift_and_fails_wrong_values():
    assert check_csv(CSV, CSV, compare_values=True) == []
    drift = b"n,ee_mean_bits_per_J\n1,0.250000000001\n2,0.5\n"
    assert check_csv(drift, CSV, compare_values=True) == []
    wrong = b"n,ee_mean_bits_per_J\n1,0.2501\n2,0.5\n"
    assert len(check_csv(wrong, CSV, compare_values=True)) == 1
    assert 0.0001 / 0.25 > REL_TOL
    # other seeds: shape and finiteness only
    assert check_csv(wrong, CSV, compare_values=False) == []
    assert check_csv(b"n,ee_mean_bits_per_J\n1,nan\n2,0.5\n", CSV, compare_values=False)
    assert check_csv(b"n,ee_mean_bits_per_J\n1,0.25\n", CSV, compare_values=False)
    assert check_csv(b"n,ee_mean_nats_per_J\n1,0.25\n2,0.5\n", CSV, compare_values=False)


def _write_run(outdir: Path, data: bytes, digest: str | None = None) -> None:
    outdir.mkdir()
    (outdir / "a.csv").write_bytes(data)
    digest = digest or hashlib.sha256(data).hexdigest()
    (outdir / "manifest.txt").write_text(f"command: x\nfile: a.csv sha256={digest}\n")


def test_check_outputs_against_reference(tmp_path):
    ref = tmp_path / "ref"
    _write_run(ref, CSV)
    same = tmp_path / "same"
    _write_run(same, CSV)
    assert check_outputs(same, ref, compare_values=True) == ([], 1)

    drifted = tmp_path / "drifted"
    _write_run(drifted, CSV.replace(b"0.5", b"0.500000000001"))
    assert check_outputs(drifted, ref, compare_values=True) == ([], 0)

    tampered = tmp_path / "tampered"
    _write_run(tampered, CSV, digest="0" * 64)
    problems, _ = check_outputs(tampered, ref, compare_values=True)
    assert any("sha256" in p for p in problems)

    extra = tmp_path / "extra"
    _write_run(extra, CSV)
    (extra / "b.csv").write_bytes(CSV)
    problems, _ = check_outputs(extra, ref, compare_values=True)
    assert any("not in the manifest" in p for p in problems)


def test_committed_references_are_consistent():
    for refdir in sorted(p for p in (HERE / "reference").iterdir() if p.is_dir()):
        assert check_manifest(refdir) == []
        for path in refdir.glob("*.csv"):
            # also rejects non-finite values
            assert check_csv(path.read_bytes(), path.read_bytes(), compare_values=True) == []
