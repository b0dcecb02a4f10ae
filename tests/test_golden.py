"""CLI output against the committed golden files in `tests/golden/`.

Each command of `tests/golden/commands.txt` runs in process through
`qcorr.cli.main` and must give its recorded exit code and stderr exactly.
On the build the outputs were recorded on (`regen.build()`), stdout must
match byte for byte, or by sha256 and line count for a 12-qubit state. On
another numpy or OpenBLAS build the last bits of a solve may move, so a
full stdout must match outside its numbers, and each number must lie
within 1e-11 of the recorded one relative to max(1, |value|), or within one
unit in its last printed digit; a hashed stdout must keep its line count.
`PYTHONPATH=src python tests/golden/regen.py` rewrites the files.
"""

import json
import re

import pytest

from golden import regen

DOC = json.loads(regen.EXPECTED.read_text())
SAME_BUILD = DOC["build"] == regen.build()
OUTPUTS = DOC["outputs"]

#: A decimal number as the CLI prints one; an integer token has no '.' or 'e'.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _unit(token: str) -> float:
    """One unit in the last printed digit of a number token."""
    mantissa, _, exponent = token.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def same_up_to_build(got: str, want: str) -> bool:
    """`got` equals the recorded `want` outside its numbers, integers are
    equal, and every other number is within the module docstring's bound."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        if not any(c in b for c in ".eE"):
            if a != b:
                return False
            continue
        x, y = float(a), float(b)
        if abs(x - y) > max(1e-11 * max(1.0, abs(x), abs(y)), 1.01 * _unit(b)):
            return False
    return True


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden-states")
    regen.write_states(folder)
    return folder


def test_every_listed_command_is_recorded():
    assert [e["command"] for e in OUTPUTS] == [c for c, _ in regen.read_commands()]


@pytest.mark.parametrize("entry", OUTPUTS, ids=[e["command"] for e in OUTPUTS])
def test_cli_output_is_the_recorded_output(entry, state_files):
    code, out, err = regen.run(entry["command"], state_files)
    assert (code, err) == (entry["exit"], entry["stderr"])
    if "stdout_sha256" in entry:
        assert out.count("\n") == entry["stdout_lines"]
        if SAME_BUILD:
            assert regen.digest(out) == entry["stdout_sha256"]
        return
    want = (regen.HERE / entry["stdout"]).read_text() if "stdout" in entry else ""
    if SAME_BUILD:
        assert out == want
    else:
        assert same_up_to_build(out, want)


def test_another_build_may_move_numbers_but_not_text():
    want = '{"n_qubits": 4, "external": 0.69314718056, "residual": 2.2e-16}\nab|cd  1.386294361\n'
    assert same_up_to_build(want, want)
    moved = want.replace("0.69314718056", "0.693147180565").replace("2.2e-16", "-4.4e-16")
    assert same_up_to_build(moved.replace("1.386294361", "1.386294362"), want)
    for old, new in [
        ("0.69314718056", "0.6931471806"),
        ("1.386294361", "1.386294363"),
        ('"n_qubits": 4', '"n_qubits": 5'),
        ("ab|cd", "ac|bd"),
        ("1.386294361\n", "1.386294361 \n"),
    ]:
        assert not same_up_to_build(want.replace(old, new), want), new
