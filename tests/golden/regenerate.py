"""Rewrite the golden outputs that tests/test_golden.py checks.

    python tests/golden/regenerate.py

Runs every entry of RUNS through `eepower.cli.main` at the default seed 1 and
writes its manifest.txt, which holds a sha256 per CSV, as <name>.manifest.txt
here, and the stdout lines of the VERIFY cases as verify.txt. platform.txt
records the Python, numpy and platform the goldens were made with. A change
that moves outputs on purpose runs this script and lists every rewritten file
in CHANGES.md; every other change leaves the goldens alone.
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent

# name -> argv: each command at seed 1, at its defaults and with trial counts
# that cross every fill threshold of channel.stream_uniforms (256 and 2**17
# uniforms), and a budget run of each scaling command and of fairness
RUNS = {
    # fairness draws 4 uniforms per trial on each of two streams: 64 trials
    # take the Python fill, 65 the array fill
    "fairness-64": ["fairness", "--trials", "64"],
    "fairness-65": ["fairness", "--trials", "65"],
    "fairness-64-budget-3": ["fairness", "--trials", "64", "--budget", "3"],
    # the `fairness` benchmark workload
    "fairness-40": ["fairness", "--trials", "40"],
    # the run whose bytes are most sensitive to where the WSEE/WPEE
    # transfers land
    "fairness-2000": ["fairness", "--trials", "2000"],
    "ofdm-sweep-500": ["ofdm-sweep", "--trials", "500"],
    "ofdm-sweep-50-budget-2": ["ofdm-sweep", "--trials", "50", "--budget", "2"],
    "mimo-sweep-10": ["mimo-sweep", "--trials", "10"],
    # 65 x 2048 uniforms: numpy's fill
    "mimo-sweep-65": ["mimo-sweep", "--trials", "65"],
    "mimo-sweep-5-budget-1": ["mimo-sweep", "--trials", "5", "--budget", "1"],
    "table1-5": ["table1", "--trials", "5"],
    # one stream of 10 000 gains (the array fill) and of 2 (the Python fill)
    "siso-profiles": ["siso-profiles"],
    "siso-profiles-2": ["siso-profiles", "--trials", "2"],
    "siso-ee-se": ["siso-ee-se"],
    "pc-sweep": ["pc-sweep"],
    # the datasets at the commands' defaults
    "ofdm-sweep": ["ofdm-sweep"],
    "mimo-sweep": ["mimo-sweep"],
    "table1": ["table1"],
    "fairness": ["fairness"],
}
# the (objective, dims) cases of `eepower verify --trials 1`
VERIFY = [("ee_siso", 1)] + [(o, d) for o in ("gee", "sumrate", "wsee", "wpee", "wmee") for d in (1, 2, 3)]


def _main(argv: list[str]) -> str:
    """stdout of `eepower <argv>`, which must exit 0."""
    from eepower import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"eepower {' '.join(argv)} exited {rc}: {err.getvalue()}")
    return out.getvalue()


def outputs(workdir: Path) -> dict[str, bytes]:
    """The golden file name -> the bytes the current code writes for it,
    with the runs' outputs in workdir."""
    found = {}
    for name, argv in RUNS.items():
        _main([*argv, "--out", str(workdir / name)])
        found[f"{name}.manifest.txt"] = (workdir / name / "manifest.txt").read_bytes()
    lines = [_main(["verify", "--objective", o, "--dims", str(d), "--trials", "1"]) for o, d in VERIFY]
    found["verify.txt"] = "".join(lines).encode()
    return found


def platform_record() -> str:
    return f"python {platform.python_version()}, numpy {numpy.__version__}, {platform.system()} {platform.machine()}\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        found = outputs(Path(workdir))
    for name, data in found.items():
        (HERE / name).write_bytes(data)
    (HERE / "platform.txt").write_text(platform_record())
    print(f"wrote {len(found)} golden files and platform.txt to {HERE}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
