"""Importing qcorr before numpy loads OpenBLAS with a short idle spin.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads it, so each test
runs a fresh child, started with two OpenBLAS threads and without the
variable. The package sets it only around its own `import numpy`: these tests
check that `os.environ` and child processes see the caller's environment, that
a caller's value or a numpy loaded first is left alone, and that OpenBLAS's
idle worker then stops spinning after a threaded call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcorr
from qcorr.correlation import _SET_BLAS_THREADS

SRC = Path(qcorr.__file__).resolve().parent.parent
VAR = "OPENBLAS_THREAD_TIMEOUT"

#: Prints the variable after `import qcorr`, whether `os.environ` is as it
#: was before, and the variable as a child process started after it sees it.
ENVIRONMENT = """
import json, os, subprocess, sys
{first}
before = dict(os.environ)
import qcorr
child = subprocess.run(
    [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"],
    capture_output=True, text=True, check=True,
)
print(json.dumps([os.environ.get("OPENBLAS_THREAD_TIMEOUT"), dict(os.environ) == before,
                  child.stdout.strip()]))
"""

#: Prints each write that `import qcorr` makes to `os.environ`.
WRITES = """
import json, os
{first}
writes = []

class Recording(dict):
    def __setitem__(self, key, value):
        writes.append(["set", key, value])
        super().__setitem__(key, value)

    def __delitem__(self, key):
        writes.append(["del", key])
        super().__delitem__(key)

os.environ = Recording(os.environ)
import qcorr
print(json.dumps(writes))
"""

#: Prints the CPU time the process uses over a 0.3 s sleep that follows a
#: threaded 600 x 600 product.
IDLE_CPU = """
import time
import qcorr
import numpy as np
a = np.random.default_rng(0).standard_normal((600, 600))
a @ a
start = time.process_time()
time.sleep(0.3)
print(time.process_time() - start)
"""


def _child(code, **env):
    """The stdout of a fresh interpreter running `code` on two OpenBLAS
    threads, with OPENBLAS_THREAD_TIMEOUT unset unless `env` sets it."""
    base = {k: v for k, v in os.environ.items() if k != VAR}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2", **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


#: The child's extra environment, the code it runs before `import qcorr`, the
#: variable after the import, and the import's writes to `os.environ`.
CASES = {
    "unset": ({}, "", None, [["set", VAR, "20"], ["del", VAR]]),
    "caller_value": ({VAR: "28"}, "", "28", []),
    "numpy_first": ({}, "import numpy", None, []),
}


@pytest.mark.parametrize("env, first, value, writes", CASES.values(), ids=list(CASES))
def test_import_leaves_the_environment_as_the_caller_set_it(env, first, value, writes):
    got = json.loads(_child(ENVIRONMENT.format(first=first), **env))
    assert got == [value, True, str(value)]


@pytest.mark.parametrize("env, first, value, writes", CASES.values(), ids=list(CASES))
def test_the_timeout_is_set_only_around_numpys_first_import(env, first, value, writes):
    assert json.loads(_child(WRITES.format(first=first), **env)) == writes


@pytest.mark.skipif(_SET_BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS setter")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_openblas_workers_stop_spinning_after_a_threaded_call():
    # OpenBLAS's default idle spin used about 0.12 s of CPU over the sleep.
    assert float(_child(IDLE_CPU)) < 0.02
