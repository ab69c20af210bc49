import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# eepower runs through the wrapped names: the oracle's grid-point detail, the
# counted eepa/ee_of calls of ee_siso, and the fairness row solvers
TRACED_RUN = """
import sys
import child
from benchlib import Tracer
from eepower import cli

tracer = Tracer()
child.install(tracer)
for argv in (
    ["verify", "--objective", "wsee", "--dims", "2", "--trials", "1"],
    ["verify", "--objective", "ee_siso", "--dims", "1", "--trials", "1"],
    ["fairness", "--trials", "2", "--out", sys.argv[1]],
):
    assert cli.main(argv) == 0, argv
grid = [detail for name, *_, detail in tracer.spans if name == "oracle.grid_argmax"]
assert grid == [1001**2, 40_001], grid
assert tracer.counts["allocator.eepa.calls"] == tracer.counts["allocator.ee_of.calls"] == 1, tracer.counts
"""


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/child.py wraps eepower functions at the names their callers
    # bound at import (`--trace 1`); a name src/ drops makes install raise,
    # and a signature its wrappers read wrong makes a traced run fail.
    # A subprocess keeps the wrappers out of this test process.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    argv = [sys.executable, "-c", TRACED_RUN, str(tmp_path / "fairness")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
