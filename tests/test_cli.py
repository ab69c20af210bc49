import math

import numpy as np
import pytest

from eepower import experiments
from eepower.cli import load_config, main
from eepower.errors import NumericalError


def read_all_bytes(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_siso_ee_se_writes_curves_and_manifest(tmp_path):
    out = tmp_path / "d"
    rc = main(["siso-ee-se", "--pc", "1,2", "--seed", "42", "--out", str(out)])
    assert rc == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["manifest.txt", "siso_ee_se_pc1.csv", "siso_ee_se_pc2.csv"]
    manifest = (out / "manifest.txt").read_text()
    assert "seed: 42" in manifest
    assert manifest.count("sha256=") == 2


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "d"
    args = ["ofdm-sweep", "--pc", "1", "--n", "1,2", "--trials", "20", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    first = read_all_bytes(out)
    assert main(args) == 0
    second = read_all_bytes(out)
    assert first == second


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
    assert main(["siso-ee-se", "--pc", "1", "--seed", "1", "--out", str(out)]) == 0
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


def test_verify_exit_codes():
    assert main(["verify", "--objective", "gee", "--dims", "2", "--seed", "7", "--trials", "3"]) == 0
    assert main(["verify", "--objective", "ee_siso", "--dims", "1", "--seed", "3", "--trials", "3"]) == 0


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["siso-ee-se", "--bogus-flag", "1"]) == 1
    assert main([]) == 1
    assert main(["siso-ee-se", "--pc", "zero", "--out", str(tmp_path)]) == 1
    assert main(["siso-ee-se", "--pc", "-1", "--out", str(tmp_path)]) == 1
    assert main(["verify", "--objective", "gee", "--dims", "9"]) == 1
    assert main(["ofdm-sweep", "--n", "1.5", "--out", str(tmp_path)]) == 1
    assert "list of integers, got '1.5'" in capsys.readouterr().err


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


def test_numerical_errors_exit_2(tmp_path, monkeypatch):
    def boom(spec):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("eepower.cli.run", boom)
    rc = main(["siso-ee-se", "--pc", "1", "--out", str(tmp_path / "d")])
    assert rc == 2


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\npc=1,2\ntrials=9\n")
    out = tmp_path / "d"
    rc = main(["siso-ee-se", "--config", str(cfg), "--pc", "4", "--out", str(out)])
    assert rc == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["manifest.txt", "siso_ee_se_pc4.csv"]
    assert "pc: 4\n" in (out / "manifest.txt").read_text()


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pc=zero\n")
    with pytest.raises(Exception) as err:
        load_config(str(bad))
    assert ":1:" in str(err.value)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mystery=1\n")
    with pytest.raises(Exception) as err:
        load_config(str(unknown))
    assert "unknown key" in str(err.value)
    assert main(["siso-ee-se", "--config", str(unknown), "--out", str(tmp_path / "d")]) == 1


def test_empty_config_gives_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert load_config(str(cfg)) == {}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
