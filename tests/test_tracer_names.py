import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/child.py wraps eepower functions at the names their callers
    # bound at import (`--trace 1`); a name src/ drops makes install raise.
    # A subprocess keeps the wrappers out of this test process.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import child; from benchlib import Tracer; child.install(Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
