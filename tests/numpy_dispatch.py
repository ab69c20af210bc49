"""Rerun a test under each of numpy's dispatched CPU feature groups.

numpy picks a kernel per CPU feature group (AVX-512, AVX2, baseline), and the
last bits of results such as log1p differ between them, so a test whose
exactness leans on those bits is also run with the higher groups disabled.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import eepower


def numpy_dispatch_groups():
    """numpy's dispatched CPU feature groups, lowest first, and this CPU's features."""
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath  # numpy.core before numpy 2
    return list(umath.__cpu_dispatch__), umath.__cpu_features__


def without_each_group(code):
    """{group: (exit code, output)} of the Python code run in a child process
    per dispatch group this CPU has, with that group and every higher one
    disabled, one per core; the tests and eepower are importable there."""
    groups, has = numpy_dispatch_groups()
    present = [group for group in groups if has.get(group)]
    path = os.pathsep.join(str(d) for d in (Path(__file__).resolve().parent, Path(eepower.__file__).resolve().parents[1]))

    def run(group):
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(present[present.index(group) :])}
        child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env, capture_output=True, text=True)
        return child.returncode, child.stdout + child.stderr

    with ThreadPoolExecutor(os.cpu_count()) as pool:
        return dict(zip(present, pool.map(run, present)))
