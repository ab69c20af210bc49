import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eepower import cli, experiments
from eepower.cli import build_parser, load_config, main
from eepower.errors import InfeasibleError


def read_all_bytes(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_siso_ee_se_writes_curves_and_manifest(tmp_path):
    out = tmp_path / "d"
    rc = main(["siso-ee-se", "--pc", "1,2", "--out", str(out)])
    assert rc == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["manifest.txt", "siso_ee_se_pc1.csv", "siso_ee_se_pc2.csv"]
    manifest = (out / "manifest.txt").read_text()
    assert "seed:" not in manifest  # the curves draw nothing
    assert manifest.count("sha256=") == 2


def test_siso_ee_se_keeps_the_curve_at_tiny_circuit_power(tmp_path):
    # at pc = 1e-13 every g pc sits within 1e-11 of the Lambert branch point;
    # the SE must still rise with the gain, from about sqrt(2 g pc) / ln 2
    # (mpmath: 6.45192826827945e-08 bits/s/Hz at g = 0.01)
    assert main(["siso-ee-se", "--pc", "1e-13", "--out", str(tmp_path)]) == 0
    se = np.loadtxt(tmp_path / "siso_ee_se_pc1e-13.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.diff(se) > 0.0)
    assert se[0] == pytest.approx(6.45192826827945e-08, rel=1e-10, abs=0.0)


# every experiment command at small trials, with only the flags it reads
SMALL_RUNS = {
    "siso-profiles": ["--trials", "50", "--seed", "7"],
    "siso-ee-se": ["--pc", "1,2"],
    "pc-sweep": ["--pc", "1,2"],
    "ofdm-sweep": ["--pc", "1", "--n", "1,2", "--trials", "20", "--seed", "7"],
    "mimo-sweep": ["--pc", "1", "--n", "1,2", "--trials", "5", "--budget", "3", "--seed", "7"],
    "fairness": ["--trials", "4", "--seed", "7"],
    "table1": ["--trials", "5", "--seed", "7"],
}


def test_rerun_is_byte_identical(tmp_path):
    for command, flags in SMALL_RUNS.items():
        out = tmp_path / command
        args = [command, *flags, "--out", str(out)]
        assert main(args) == 0
        first = read_all_bytes(out)
        assert main(args) == 0
        second = read_all_bytes(out)
        assert first == second, command


def test_siso_profiles_calibrates_on_exactly_the_trials_it_records(tmp_path):
    # the water level comes from exactly --trials draws, so 1 and 2 differ
    csvs = []
    for trials in ("1", "2"):
        out = tmp_path / trials
        assert main(["siso-profiles", "--trials", trials, "--out", str(out)]) == 0
        csvs.append((out / "siso_profiles_pc1.csv").read_bytes())
    assert csvs[0] != csvs[1]


# the manifest's parameter lines: exactly the fields each experiment reads,
# at the values in effect for SMALL_RUNS (a budget left unset shows the
# experiment's own)
MANIFEST_PARAMETERS = {
    "siso-profiles": ["seed: 7", "pc: 1", "trials: 50", "budget: 1"],
    "siso-ee-se": ["pc: 1,2"],
    "pc-sweep": ["pc: 1,2"],
    "ofdm-sweep": ["seed: 7", "pc: 1", "n: 1,2", "trials: 20", "budget: -"],
    "mimo-sweep": ["seed: 7", "pc: 1", "n: 1,2", "trials: 5", "budget: 3"],
    "fairness": ["seed: 7", "trials: 4", "budget: 2"],
    "table1": ["seed: 7", "trials: 5", "budget: -"],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_manifest_lists_exactly_the_fields_the_experiment_reads(tmp_path, command):
    out = tmp_path / "d"
    assert main([command, *SMALL_RUNS[command], "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["command", "version", "experiment"]
    units = lines.index("units: bits")
    assert lines[3:units] == MANIFEST_PARAMETERS[command]
    assert all(line.startswith("file: ") for line in lines[units + 1 :])


def test_manifest_records_floats_that_g_would_round_in_full(tmp_path):
    out = tmp_path / "d"
    flags = ["--trials", "2", "--n", "1", "--pc", "0.5,1.0000001", "--budget", "2.0000001"]
    assert main(["ofdm-sweep", *flags, "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[3:8] == ["seed: 1", "pc: 0.5,1.0000001", "n: 1", "trials: 2", "budget: 2.0000001"]


def test_manifest_digests_match_files(tmp_path):
    import hashlib

    out = tmp_path / "d"
    assert main(["siso-profiles", "--trials", "50", "--seed", "3", "--out", str(out)]) == 0
    for line in (out / "manifest.txt").read_text().splitlines():
        if line.startswith("file: "):
            name, digest = line[len("file: "):].split(" sha256=")
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_units_conversion(tmp_path):
    nats_dir = tmp_path / "nats"
    bits_dir = tmp_path / "bits"
    base = ["table1", "--trials", "15", "--seed", "5"]
    assert main(base + ["--units", "nats", "--out", str(nats_dir)]) == 0
    assert main(base + ["--units", "bits", "--out", str(bits_dir)]) == 0

    def load(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return header, rows

    h_nats, r_nats = load(nats_dir / "table1.csv")
    h_bits, r_bits = load(bits_dir / "table1.csv")
    k_ee_nats = h_nats.index("ofdm_ee_nats_per_J")
    k_ee_bits = h_bits.index("ofdm_ee_bits_per_J")
    np.testing.assert_allclose(r_bits[:, k_ee_bits], r_nats[:, k_ee_nats] / math.log(2.0), rtol=1e-9)
    # dimensionless gain columns are unchanged by the unit flag
    k_gain = h_nats.index("ofdm_ee_gain")
    np.testing.assert_allclose(r_bits[:, k_gain], r_nats[:, k_gain], rtol=1e-12)


def test_csv_values_have_12_significant_digits(tmp_path):
    out = tmp_path / "d"
    assert main(["siso-ee-se", "--pc", "1", "--out", str(out)]) == 0
    line = (out / "siso_ee_se_pc1.csv").read_text().splitlines()[5]
    for cell in line.split(",")[1:]:
        mantissa = cell.lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) <= 12


def test_fairness_writes_summary(tmp_path):
    out = tmp_path / "d"
    assert main(["fairness", "--trials", "8", "--seed", "2", "--out", str(out)]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["fairness_summary.csv", "fairness_trials.csv", "manifest.txt"]
    summary = (out / "fairness_summary.csv").read_text().splitlines()
    assert summary[0].startswith("trials,median_jain_gee")


def test_fairness_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call, about 15 ms per process
    # (numpy before 2 imports it with numpy itself, so there is nothing to see)
    code = (
        "import sys; from eepower import cli; before = 'numpy.ma' in sys.modules; "
        f"assert cli.main(['fairness', '--trials', '3', '--out', {str(tmp_path)!r}]) == 0; "
        "assert before or 'numpy.ma' not in sys.modules, 'numpy.ma imported'"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}, capture_output=True)


# the verify cases of perfbench's `verify` workload, as (objective, dims)
VERIFY_CASES = [("ee_siso", 1)] + [(o, d) for o in ("gee", "sumrate", "wsee", "wpee", "wmee") for d in (2, 3)]


def test_small_draws_do_not_import_numpy_random(tmp_path):
    # numpy.random is imported on first use, 10-20 ms per process; blocks of
    # at most channel._VECTOR_BLOCK uniforms are filled without it, larger
    # ones by numpy's PCG64 (numpy before 2 imports it with numpy itself, so
    # there is nothing to see)
    verify = [["verify", "--objective", o, "--dims", str(d), "--trials", "1"] for o, d in VERIFY_CASES]
    runs = [
        ["fairness", "--out", str(tmp_path / "f")],
        *verify,
        # the benchmark's ofdm (500 x 64) and mimo (10 x 2048) blocks
        ["ofdm-sweep", "--trials", "500", "--out", str(tmp_path / "o")],
        ["mimo-sweep", "--trials", "10", "--out", str(tmp_path / "m10")],
        # one stream of 10 000 gains
        ["siso-profiles", "--out", str(tmp_path / "s")],
    ]
    code = (
        "import sys; from eepower import channel, cli; before = 'numpy.random' in sys.modules; "
        f"assert all(cli.main(argv) == 0 for argv in {runs!r}); "
        "assert before or 'numpy.random' not in sys.modules, 'numpy.random imported'; "
        # mimo-sweep draws 2048 uniforms per trial
        "trials = str(channel._VECTOR_BLOCK // 2048 + 1); "
        f"assert cli.main(['mimo-sweep', '--trials', trials, '--out', {str(tmp_path / 'm')!r}]) == 0; "
        "assert 'numpy.random' in sys.modules"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}, capture_output=True)


def test_build_parser_builds_one_parser_per_process():
    assert build_parser() is build_parser()


# one process's calls on the one parser: each sets other options than the
# call before it, or fails, and must leave nothing behind for the next
REUSED_PARSER_CALLS = [
    ["verify", "--objective", "gee", "--dims", "3", "--trials", "2"],
    ["verify", "--objective", "gee", "--trials", "2"],
    ["fairness", "--budget", "3", "--trials", "3"],
    ["fairness", "--trials", "3"],
    ["verify", "--objective", "gee", "--bogus", "1"],
    ["verify", "--objective", "wmee", "--trials", "2"],
]


def test_reused_parser_runs_each_call_as_a_fresh_one(tmp_path, monkeypatch, capsys):
    dims = []
    verify_instance = cli._verify_instance

    def record_dims(objective, gains, pcs):
        dims.append(len(gains))
        return verify_instance(objective, gains, pcs)

    monkeypatch.setattr(cli, "_verify_instance", record_dims)

    def run_calls(name):
        results = []
        for i, argv in enumerate(REUSED_PARSER_CALLS):
            out = tmp_path / name / str(i)
            rc = main(argv + (["--out", str(out)] if argv[0] == "fairness" else []))
            captured = capsys.readouterr()
            # an experiment's stderr line holds its wall time
            err = captured.err if argv[0] == "verify" else ""
            results.append((rc, captured.out, err, read_all_bytes(out) if out.exists() else {}))
        return results

    reused = run_calls("reused")
    assert [rc for rc, *_ in reused] == [0, 0, 0, 0, 1, 0]
    assert dims == [3, 3, 2, 2, 2, 2]
    assert "budget: 3\n" in reused[2][3]["manifest.txt"].decode()
    assert "budget: 2\n" in reused[3][3]["manifest.txt"].decode()
    assert "unrecognized arguments: --bogus 1" in reused[4][2]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert run_calls("fresh") == reused


def test_verify_exit_codes():
    assert main(["verify", "--objective", "gee", "--dims", "2", "--seed", "7", "--trials", "3"]) == 0
    assert main(["verify", "--objective", "ee_siso", "--dims", "1", "--seed", "3", "--trials", "3"]) == 0


@pytest.mark.parametrize("objective", ["gee", "sumrate"])
def test_verify_unbudgeted_objectives_at_three_dimensions(objective, capsys):
    assert main(["verify", "--objective", objective, "--dims", "3", "--seed", "1", "--trials", "1"]) == 0
    assert capsys.readouterr().out.endswith(" ok\n")


def test_verify_failure_names_worst_trial_and_replay_command(monkeypatch, capsys):
    shortfalls = [0.0, 0.5, 0.2]
    seen = []

    def fake_instance(objective, gains, pcs):
        seen.append((gains.tolist(), pcs.tolist()))
        return shortfalls[len(seen) - 1]

    monkeypatch.setattr("eepower.cli._verify_instance", fake_instance)
    assert main(["verify", "--objective", "wsee", "--dims", "2", "--seed", "4", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "verify wsee: max objective shortfall 5.000e-01 (tolerance 1.0e-03) FAIL\n"
    gains, pcs = seen[1]
    assert captured.err == (
        f"verify wsee: worst trial 1 (seed=4): gains {gains!r}, pcs {pcs!r}; "
        "replay: eepower verify --objective wsee --dims 2 --seed 4 --trials 2\n"
    )
    # the replay command ends on the same instance and reports it again
    seen.clear()
    assert main(["verify", "--objective", "wsee", "--dims", "2", "--seed", "4", "--trials", "2"]) == 2
    assert capsys.readouterr().err == captured.err


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["siso-ee-se", "--bogus-flag", "1"]) == 1
    assert "eepower: error: unrecognized arguments: --bogus-flag 1\n" in capsys.readouterr().err
    assert main([]) == 1
    assert main(["siso-ee-se", "--pc", "zero", "--out", str(tmp_path)]) == 1
    assert main(["siso-ee-se", "--pc", "-1", "--out", str(tmp_path)]) == 1
    assert main(["verify", "--objective", "gee", "--dims", "9"]) == 1
    assert main(["verify", "--objective", "ee_siso", "--dims", "3"]) == 1
    assert main(["verify", "--objective", "gee", "--trials", "0"]) == 1
    assert "--trials must be >= 1, got 0" in capsys.readouterr().err
    assert main(["verify", "--objective", "gee", "--seed", "-1", "--trials", "1"]) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert main(["ofdm-sweep", "--n", "1.5", "--out", str(tmp_path)]) == 1
    assert "list of integers, got '1.5'" in capsys.readouterr().err
    assert main(["fairness", "--seed", "-1", "--out", str(tmp_path / "d")]) == 1
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


# every (command, flag) pair whose spec field the experiment does not read
UNREAD_INPUTS = [
    ("fairness", "--pc", "7,9"),
    ("fairness", "--n", "5"),
    ("siso-profiles", "--n", "5"),
    ("siso-ee-se", "--n", "5"),
    ("pc-sweep", "--n", "5"),
    ("table1", "--n", "5"),
    ("table1", "--pc", "2"),
    ("siso-ee-se", "--trials", "7"),
    ("siso-ee-se", "--budget", "5"),
    ("pc-sweep", "--trials", "7"),
    ("pc-sweep", "--budget", "5"),
    ("siso-ee-se", "--seed", "3"),
    ("pc-sweep", "--seed", "3"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_INPUTS)
def test_flag_the_command_does_not_read_exits_1(tmp_path, capsys, command, flag, value):
    rc = main([command, flag, value, "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err == f"eepower {command}: {command} does not read {flag}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command, flag, value", UNREAD_INPUTS)
def test_config_key_the_command_does_not_read_exits_1(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"units=bits\n{flag[2:]}={value}\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err == f"{cfg}:2: {command} does not read key {flag[2:]!r}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["pc-sweep", "--pc", "1"], "pc_sweep needs at least two pc values, got (1.0,)"),
        (["ofdm-sweep", "--n", "4,2"], "n values must be non-empty and strictly ascending, got (4, 2)"),
        (["mimo-sweep", "--n", "2,2"], "n values must be non-empty and strictly ascending, got (2, 2)"),
        (["siso-profiles", "--pc", "1,2"], "siso_profiles reads exactly one pc value, got (1.0, 2.0)"),
        (["table1", "--pc", "2"], "eepower table1: table1 does not read --pc"),
        (
            ["ofdm-sweep", "--trials", "3", "--n", "1,2", "--pc", "1,1.0000001"],
            "pc values 1.0 and 1.0000001 would write the same files (label pc1)",
        ),
        (["pc-sweep", "--pc", "1,1.0000001,2"], "pc values 1.0 and 1.0000001 would write the same files (label pc1)"),
    ],
    ids=[
        "pc-sweep-one-pc",
        "ofdm-sweep-descending-n",
        "mimo-sweep-repeated-n",
        "siso-profiles-two-pc",
        "table1-pc",
        "ofdm-sweep-pc-label-clash",
        "pc-sweep-pc-label-clash",
    ],
)
def test_input_the_experiment_cannot_take_exits_1(tmp_path, capsys, args, message):
    rc = main([*args, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "flag, bad, name", [("--budget", "inf", "budget"), ("--budget", "nan", "budget"), ("--pc", "1,inf", "pc values")]
)
def test_non_finite_parameter_exits_1_naming_it(tmp_path, capsys, flag, bad, name):
    rc = main(["ofdm-sweep", "--trials", "2", flag, bad, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{name} must be positive and finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_circuit_power_that_overflows_exits_2_with_a_replay(tmp_path, capsys):
    # pc times a trial's largest gain overflows: the run names the trial and
    # the command that replays it, and writes nothing
    rc = main(["ofdm-sweep", "--trials", "2", "--pc", "1e308", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("eepower: numerical error: ofdm trial ")
    assert "circuit power times the largest gain overflows; replay: eepower ofdm-sweep --seed 1 --n " in err
    assert not (tmp_path / "d").exists()
    replay = err.rstrip("\n").rpartition("replay: eepower ")[2].split()
    assert main([*replay, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == err
    # a circuit power just below that still gives finite rows
    assert main(["ofdm-sweep", "--trials", "2", "--pc", "1e300", "--out", str(tmp_path / "e")]) == 0
    rows = (tmp_path / "e" / "ofdm_scaling_pc1e+300.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize(
    "args, names",
    [
        (["siso-ee-se", "--pc", "1e307"], "pc 1e+307"),
        (["siso-profiles", "--pc", "1e307", "--trials", "2"], "pc 1e+307"),
        (["pc-sweep", "--pc", "1,1e307"], "pc 1e+307"),
        (["mimo-sweep", "--n", "1,2,32", "--pc", "1e307"], "pc 1e+307 times n=32"),
    ],
    ids=["siso-ee-se", "siso-profiles", "pc-sweep", "mimo-sweep"],
)
def test_pc_that_overflows_the_solved_inputs_exits_1_naming_it(tmp_path, capsys, args, names):
    rc = main([*args, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"eepower {args[0]}: pc values (--pc) ")
    assert names in err
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_budget_below_every_floor_gives_zero_ee_at_every_n(tmp_path):
    # a cap far below the rounding of every link's floor 1/g fills no power,
    # so no n gets EE or SE above 0
    assert main(["ofdm-sweep", "--trials", "3", "--budget", "1e-300", "--out", str(tmp_path / "d")]) == 0
    for pc in ("1", "2"):
        lines = (tmp_path / "d" / f"ofdm_scaling_pc{pc}.csv").read_text().splitlines()
        assert [row.split(",")[1:] for row in lines[1:]] == [["0"] * 4] * 7


@pytest.mark.parametrize("budget", ["1e-300", "1e-200"])
def test_table1_with_zero_single_dimension_ee_exits_2_with_a_replay(tmp_path, capsys, budget):
    # the gain columns divide by the n = 1 EE, which a cap that fills no power
    # leaves at 0
    rc = main(["table1", "--trials", "2", "--budget", budget, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"eepower: numerical error: table1 (seed=1, budget={float(budget)!r}): ")
    assert "--budget" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()
    replay = err.rstrip("\n").rpartition("replay: eepower ")[2].split()
    assert replay == ["table1", "--seed", "1", "--trials", "2", "--budget", repr(float(budget))]
    assert main([*replay, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == err


def test_mimo_pc_whose_scaled_power_overflows_exits_2_with_a_replay(tmp_path, capsys):
    # 32 pc is finite, but pc / s_1 overflows at n = 32: the staged solve over
    # every n still names that n and its first trial, and the replay repeats it
    rc = main(["mimo-sweep", "--trials", "3", "--n", "1,2,32", "--pc", "5e306", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("eepower: numerical error: mimo trial 0 (n=32, pc=5e+306, seed=1): ")
    assert not (tmp_path / "d").exists()
    replay = err.rstrip("\n").rpartition("replay: eepower ")[2].split()
    assert replay == ["mimo-sweep", "--seed", "1", "--n", "32", "--pc", "5e+306", "--trials", "1"]
    assert main([*replay, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("trials, budget", [("1", "1e307"), ("3", "1.7e308"), ("10000", "1e305")])
def test_siso_profiles_budget_whose_water_filling_overflows_exits_2_with_a_replay(tmp_path, capsys, trials, budget):
    # the water level times the largest grid gain (100) overflows g p, also
    # where the level itself is finite, so the run writes nothing
    rc = main(["siso-profiles", "--trials", trials, "--budget", budget, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (
        f"eepower: numerical error: siso-profiles (seed=1, budget={float(budget)!r}): the water-filling power "
        "times the largest grid gain overflows under --budget; replay: eepower siso-profiles --seed 1 --pc 1.0 "
        f"--trials {trials} --budget {float(budget)!r}\n"
    )
    assert not (tmp_path / "d").exists()
    replay = err.rstrip("\n").rpartition("replay: eepower ")[2].split()
    assert main([*replay, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("trials, budget", [("1", "1e306"), ("10000", "1e304")])
def test_siso_profiles_budget_just_below_the_overflow_gives_finite_rows(tmp_path, trials, budget):
    assert main(["siso-profiles", "--trials", trials, "--budget", budget, "--out", str(tmp_path)]) == 0
    cells = np.loadtxt(tmp_path / "siso_profiles_pc1.csv", delimiter=",", skiprows=1)
    assert cells.shape == (200, 7)
    assert np.all(np.isfinite(cells))


# the robustness sweep: every experiment command at each of these values of
# each of --budget and --pc that it reads, at 1-3 trials where it draws
EXTREMES = ("1e-300", "1e-150", "1e300", "1e306", "1e307", "1.7e308")
SWEEP_TRIALS = {"siso-profiles": "1", "ofdm-sweep": "2", "mimo-sweep": "2", "fairness": "3", "table1": "2"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", SMALL_RUNS)
def test_every_command_at_extreme_budgets_and_pcs_exits_by_the_contract(tmp_path, capsys, command):
    # each run exits 0 with every cell finite, 1 naming the flag, or 2 with
    # a replay command that exits 2 again
    trials = ["--trials", SWEEP_TRIALS[command]] if command in SWEEP_TRIALS else []
    flags = [flag for flag in ("budget", "pc") if flag in cli._command_options(command)]
    assert flags
    for flag in flags:
        for value in EXTREMES:
            # pc-sweep reads at least two pc values
            args = [command, *trials, f"--{flag}", f"1,{value}" if command == "pc-sweep" else value]
            out = tmp_path / f"{flag}{value}"
            rc = main([*args, "--out", str(out)])
            err = capsys.readouterr().err
            if rc == 0:
                for csv in out.glob("*.csv"):
                    cells = [v for line in csv.read_text().splitlines()[1:] for v in line.split(",")]
                    assert all(math.isfinite(float(v)) for v in cells), (args, csv.name)
            elif rc == 1:
                assert f"--{flag}" in err, (args, err)
            else:
                assert rc == 2, (args, err)
                replay = shlex.split(err.rstrip("\n").rpartition("; replay: eepower ")[2])
                assert replay, (args, err)
                assert main([*replay, "--out", str(tmp_path / "replay")]) == 2, (args, err)
                assert capsys.readouterr().err == err
    if command == "fairness":
        # every link EE scales with a budget this small, so the Jain indices
        # stay those of --budget 1e-150
        tiny, small = (np.loadtxt(tmp_path / f"budget{b}" / "fairness_trials.csv", delimiter=",", skiprows=1)
                       for b in ("1e-300", "1e-150"))
        assert np.array_equal(tiny[:, 1:5], small[:, 1:5])


def test_numerical_errors_exit_2(tmp_path, monkeypatch):
    def boom(spec):
        raise InfeasibleError("synthetic failure")

    monkeypatch.setattr("eepower.cli.run", boom)
    rc = main(["siso-ee-se", "--pc", "1", "--out", str(tmp_path / "d")])
    assert rc == 2


@pytest.mark.parametrize("budget_flag, budget", [([], "2.0"), (["--budget", "1.5"], "1.5")])
def test_fairness_failure_names_trial_and_replay_command(tmp_path, monkeypatch, capsys, budget_flag, budget):
    calls = []

    def fail_on_trial_2(gains, pc, budget):
        # one call solves every trial; its row 2 fails
        calls.append(gains.shape[0])
        raise InfeasibleError("synthetic failure", row=2)

    monkeypatch.setattr(experiments, "wsee_rows", fail_on_trial_2)
    rc = main(["fairness", "--trials", "5", "--seed", "3", *budget_flag, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (
        f"eepower: numerical error: fairness trial 2 (seed=3, budget={budget}): synthetic failure; "
        f"replay: eepower fairness --seed 3 --trials 3{' --budget 1.5' if budget_flag else ''}\n"
    )
    assert not (tmp_path / "d").exists()
    # the replay command ends on the same trial and reports it again
    assert main(["fairness", "--seed", "3", "--trials", "3", *budget_flag, "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == err
    assert calls == [5, 3]


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\npc=1,2\nunits=nats\n")
    out = tmp_path / "d"
    rc = main(["siso-ee-se", "--config", str(cfg), "--pc", "4", "--out", str(out)])
    assert rc == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["manifest.txt", "siso_ee_se_pc4.csv"]
    manifest = (out / "manifest.txt").read_text()
    assert "pc: 4\n" in manifest
    assert "units: nats\n" in manifest


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pc=zero\n")
    with pytest.raises(Exception) as err:
        load_config(str(bad), "siso-ee-se")
    assert ":1:" in str(err.value)
    bad.write_text("pc=2\nunits=furlongs\n")
    with pytest.raises(Exception, match=":2: bad value for 'units': 'furlongs'"):
        load_config(str(bad), "siso-ee-se")
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mystery=1\n")
    with pytest.raises(Exception) as err:
        load_config(str(unknown), "siso-ee-se")
    assert "unknown key" in str(err.value)
    assert main(["siso-ee-se", "--config", str(unknown), "--out", str(tmp_path / "d")]) == 1


def test_empty_config_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert load_config(str(cfg), "siso-ee-se") == {}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("eepower ")]


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_example_parses(line):
    # each example is parsed with the real flags, not run
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]
