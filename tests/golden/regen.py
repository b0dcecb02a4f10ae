"""Regenerate the golden CLI outputs from `commands.txt`.

Run from the repository root after a change that is meant to alter CLI
output, then review the diff of `expected.json` and `stdout/`:

    PYTHONPATH=src python tests/golden/regen.py

Each command runs in process through `qcorr.cli.main`, with argparse's
help formatted 80 columns wide. `expected.json` records the build the
outputs came from, the Python version the `--help` text came from and, per
command, its exit code, its stderr and the file under `stdout/` that holds
its stdout (none when stdout is empty) or, for a 12-qubit state, the
stdout's sha256 and line count.
`tests/test_golden.py` reads the same files through this module.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from qcorr import cli, lapack

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "expected.json"
STDOUT = HERE / "stdout"

#: The amplitude files that `file:@NAME` names: qubits, complex, seed.
STATES = {
    "real6": (6, False, 6),
    "complex6": (6, True, 7),
    "real8": (8, False, 8),
    "complex8": (8, True, 9),
    "real12": (12, False, 12),
    "complex12": (12, True, 13),
}

HASHED = "[sha256] "

#: The LAPACK routines qcorr looks up in numpy's OpenBLAS (`qcorr.lapack`).
LAPACK = ("zhetrd", "dsterf", "dstebz", "zstein", "zunmtr")


def read_commands() -> list[tuple[str, bool]]:
    """(command, stored as a hash) for each command line of `commands.txt`."""
    out = []
    for line in COMMANDS.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            hashed = line.startswith(HASHED)
            out.append((line.removeprefix(HASHED), hashed))
    return out


def write_states(folder: Path) -> None:
    """Write each of `STATES` to `folder` as NAME.json.

    The amplitudes come from `random.Random(seed).random()`, whose sequence
    Python keeps fixed across versions, and are normalised in Python floats,
    so the files do not depend on the numpy build.
    """
    for name, (n, is_complex, seed) in STATES.items():
        rng = random.Random(seed)
        raw = [
            (rng.random() - 0.5, rng.random() - 0.5 if is_complex else 0.0) for _ in range(1 << n)
        ]
        norm = math.sqrt(math.fsum(re * re + im * im for re, im in raw))
        doc = {"n_qubits": n, "amplitudes": [[re / norm, im / norm] for re, im in raw]}
        (folder / f"{name}.json").write_text(json.dumps(doc))


def is_help(command: str) -> bool:
    """Whether the command prints argparse's help, whose wording follows
    the Python version rather than the numpy build."""
    return "--help" in shlex.split(command)


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def run(command: str, folder: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, with `file:@NAME` read
    from `folder`."""
    argv = [
        f"file:{folder / arg.removeprefix('file:@')}.json" if arg.startswith("file:@") else arg
        for arg in shlex.split(command)
    ]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help to the terminal's width, which it reads from COLUMNS
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build() -> dict:
    """What the outputs' last bits depend on: numpy's version, the
    configuration of its OpenBLAS (version and the CPU kernels it chose) and
    the LAPACK routines qcorr found there."""
    config = getattr(lapack._OPENBLAS, "scipy_openblas_get_config64_", None)
    if config is not None:
        config.restype = ctypes.c_char_p
    return {
        "numpy": np.__version__,
        "openblas": config().decode() if config is not None else None,
        "lapack": [name for name in LAPACK if getattr(lapack, f"_{name.upper()}") is not None],
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    outputs = []
    for old in STDOUT.glob("*.txt"):
        old.unlink()
    STDOUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        write_states(Path(folder))
        for i, (command, hashed) in enumerate(read_commands()):
            code, out, err = run(command, Path(folder))
            entry = {"command": command, "exit": code, "stderr": err}
            if hashed:
                entry.update(stdout_sha256=digest(out), stdout_lines=out.count("\n"))
            elif out:
                entry["stdout"] = f"stdout/{i:02d}.txt"
                (HERE / entry["stdout"]).write_text(out)
            outputs.append(entry)
    doc = {"build": build(), "python": python_version(), "outputs": outputs}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(outputs)} commands recorded in {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
