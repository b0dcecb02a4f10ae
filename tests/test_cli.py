"""Command-line interface: subcommands, output formats, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr
import qcorr.cli
from qcorr import ghz, save_state_file
from qcorr.cli import main

LN2 = math.log(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_table(capsys):
    code, out, err = run(capsys, "analyze", "--state", "ghz:4", "--partition", "ab|cd")
    assert code == 0
    assert "ab|cd" in out
    assert "Classical" in out
    assert err == ""


def test_analyze_json_values(capsys):
    code, out, _ = run(
        capsys, "analyze", "--state", "ghz:4", "--partition", "ab|cd,ac|bd", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_qubits"] == 4
    assert len(doc["partitions"]) == 2
    for entry in doc["partitions"]:
        assert entry["external"] == pytest.approx(2 * LN2, abs=1e-9)
    assert doc["units"] == "nats"


def test_analyze_repeatable_partition_flag(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--state", "bellpairs:2",
        "--partition", "ab|cd", "--partition", "0,2|1,3", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    labels = [e["partition"] for e in doc["partitions"]]
    assert labels == ["ab|cd", "ac|bd"]
    assert doc["partitions"][0]["product_across"] is True
    assert doc["partitions"][1]["product_across"] is False


def test_analyze_units_bits(capsys):
    code, out, _ = run(
        capsys, "analyze", "--state", "ue:4", "--partition", "ab|cd", "--units", "bits"
    )
    assert code == 0
    assert "4.000000000" in out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "--state", "ghz:6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["partitions"]) == 31
    externals = {e["external"] for e in doc["partitions"]}
    assert externals == {float(f"{2 * LN2:.12g}")}


def test_sweep_size_alpha(capsys):
    code, out, _ = run(capsys, "sweep", "--state", "ghz:4", "--size-alpha", "1", "--json")
    assert code == 0
    assert [e["partition"] for e in json.loads(out)["partitions"]] == [
        "a|bcd", "abc|d", "abd|c", "acd|b",
    ]


def test_entropy_command(capsys):
    code, out, _ = run(capsys, "entropy", "--state", "ghz:4", "--subset", "ab")
    assert code == 0
    assert "0.69314718056" in out
    assert "1 bits" in out or "1.0 bits" in out


def test_purify_command_json(capsys):
    code, out, _ = run(capsys, "purify", "--state", "ghz:4", "--subset", "ab", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ancilla_qubits"] == 1
    assert doc["maximally_correlated"] is True
    assert doc["n_qubits"] == 3
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert np.max(np.abs(amps - ghz(3).amplitudes)) < 1e-9


def test_purify_command_text(capsys):
    code, out, _ = run(capsys, "purify", "--state", "ue:4", "--subset", "ab")
    assert code == 0
    assert "ancilla qubits needed: 2" in out


def test_purify_json_reads_back_as_a_state_file(tmp_path, capsys):
    # `purify --json` writes the amplitude format of `save_state_file`, so
    # `file:` reads the purified state back bit for bit.
    code, out, _ = run(capsys, "purify", "--state", "ue:6", "--subset", "ace", "--json")
    assert code == 0
    doc = json.loads(out)
    path = tmp_path / "purified.json"
    path.write_text(out)
    state = qcorr.parse_state_spec(f"file:{path}")
    want = qcorr.purify(qcorr.reduced_operator(qcorr.uniform_entangled(3), (0, 2, 4))).purified
    assert state.n_qubits == doc["n_qubits"] == want.n_qubits == 6
    assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
    written = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert state.amplitudes.tobytes() == written.tobytes()


def test_file_state_round_trip(tmp_path, capsys):
    path = tmp_path / "s.json"
    save_state_file(ghz(4), str(path))
    code_a, out_a, _ = run(capsys, "analyze", "--state", f"file:{path}", "--partition", "ab|cd", "--json")
    code_b, out_b, _ = run(capsys, "analyze", "--state", "ghz:4", "--partition", "ab|cd", "--json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "--state", "ue:5", "--partition", "ab|cd")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spec, need", [("ue:0", "at least 2"), ("ue:1", "even"), ("ue:3", "even")])
def test_ue_count_errors_name_the_total_qubit_count(capsys, spec, need):
    code, out, err = run(capsys, "sweep", "--state", spec)
    assert (code, out) == (2, "")
    got = spec.split(":")[1]
    assert err == f"error: 'ue' takes the total qubit count, which must be {need}; got {got}\n"


@pytest.mark.parametrize("cap", [None, 7])
def test_max_qubits_help_names_the_default_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(qcorr.cli, "DEFAULT_MAX_QUBITS", cap)
    parser = qcorr.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for sub in commands.values():
        (action,) = [a for a in sub._actions if a.dest == "max_qubits"]
        assert action.help == f"override the {cap or 12}-qubit size cap"


def test_exit_code_bad_partition(capsys):
    code, _, err = run(capsys, "analyze", "--state", "ghz:4", "--partition", "ab|c")
    assert code == 2
    assert "error" in err


def test_exit_code_size_cap(capsys):
    code, _, err = run(capsys, "sweep", "--state", "ghz:20")
    assert code == 3
    assert "cap" in err


#: Runs `qcorr.cli` in a child whose address space is capped at 1 GiB; the
#: limit is set by the child itself, before the CLI is imported.
LIMITED_CLI = (
    "import resource, runpy; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "runpy.run_module('qcorr.cli', run_name='__main__')"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "argv, size",
    [
        (["entropy", "--state", "ghz:27", "--subset", "a"], "2.00 GiB"),
        (["sweep", "--state", "ghz:27"], "2.00 GiB"),
        (["purify", "--state", "ue:26", "--subset", "a"], "1.00 GiB"),
    ],
    ids=["entropy", "sweep", "purify"],
)
def test_a_refused_allocation_exits_3_with_one_line(argv, size):
    # Past the size cap, an amplitude vector larger than the child's 1 GiB
    # address space is refused by numpy.
    src = str(Path(qcorr.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *argv, "--max-qubits", "30"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: Unable to allocate {size} ")
    assert result.stderr.count("\n") == 1


def test_a_stdout_closed_early_exits_1_and_writes_no_error():
    # A reader that stops after one byte, as `| head -c 1` does: the rest of a
    # 12-qubit sweep's JSON, far more than a pipe holds, meets a closed pipe.
    # That is not bad input (exit 2), and the flush at exit stays quiet too.
    src = str(Path(qcorr.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "qcorr.cli", "sweep", "--state", "ue:12", "--json"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        first = child.stdout.read(1)
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert (first, code, err) == (b"{", 1, b"")


def test_a_memory_error_without_a_message_still_says_what_failed(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(qcorr.cli, "_cmd_sweep", out_of_memory)
    code, out, err = run(capsys, "sweep", "--state", "ghz:3")
    assert (code, out, err) == (3, "", "error: out of memory\n")


@pytest.mark.parametrize("spec", ["ghz:100000", "ue:20000"])
def test_huge_named_state_hits_the_size_cap(capsys, spec):
    code, out, err = run(capsys, "entropy", "--state", spec, "--subset", "a")
    assert code == 3
    assert out == ""
    n = spec.split(":")[1]
    assert err == f"error: {n} qubits exceeds the size cap of 12 (dense dimension 2^{n})\n"


@pytest.mark.parametrize(
    "spec, position", [("ghz:4_0", 5), ("ghz: 4", 4), ("ghz:+4", 4), ("ghz:\u0664", 4)]
)
def test_spec_parameter_other_than_ascii_digits_exits_2(capsys, spec, position):
    code, out, err = run(capsys, "entropy", "--state", spec, "--subset", "a")
    assert code == 2
    assert out == ""
    tail = spec.split(":")[1]
    want = f"parameter for 'ghz' must be digits 0-9, got {tail!r} (at position {position})"
    assert err == f"error: {want}\n"


def test_spec_count_too_long_for_int_exits_3(capsys):
    code, out, err = run(capsys, "entropy", "--state", "ghz:" + "9" * 5000, "--subset", "a")
    assert code == 3
    assert out == ""
    assert err == "error: parameter for 'ghz' has 5000 digits, above the size cap\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_qubits_below_one_exits_2(capsys, cap):
    code, out, err = run(
        capsys, "entropy", "--state", "ghz:4", "--subset", "a", "--max-qubits", cap
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --max-qubits must be at least 1, got {cap}\n"


def test_huge_state_file_hits_the_size_cap_before_reading_amplitudes(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n_qubits": 100000000, "amplitudes": []}')
    code, out, err = run(capsys, "entropy", "--state", f"file:{path}", "--subset", "a")
    assert code == 3
    assert out == ""
    assert "100000000 qubits exceeds the size cap of 12 (dense dimension 2^100000000)" in err


def test_max_qubits_override(capsys):
    code, out, _ = run(
        capsys, "entropy", "--state", "ghz:13", "--subset", "a", "--max-qubits", "13"
    )
    assert code == 0
    assert "0.69314718056" in out


def test_missing_file_is_reported(capsys):
    code, _, err = run(
        capsys, "analyze", "--state", "file:/nonexistent.json", "--partition", "a|b"
    )
    assert code == 2
    assert "error" in err


def test_argparse_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "analyze", "--state", "ghz:4")  # missing --partition
    assert code == 2


def test_entropy_of_pure_qubit_prints_positive_zero(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
    code, out, _ = run(capsys, "entropy", "--state", f"file:{path}", "--subset", "a")
    assert code == 0
    assert out == "S(a) = 0.0 nats (0.0 bits)\n"


def test_bool_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text('{"n_qubits": true, "amplitudes": [[true, 0], [0, 0]]}')
    code, _, err = run(capsys, "entropy", "--state", f"file:{path}", "--subset", "a")
    assert code == 2
    assert "n_qubits" in err


def test_state_file_whose_norm_overflows_exits_2(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text('{"n_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [1e308, 1e308]]}')
    code, out, err = run(capsys, "sweep", "--state", f"file:{path}")
    assert code == 2
    assert out == ""
    assert f"{path}: squared norm is nan" in err


def test_multi_letter_subset_token_exits_2(capsys):
    code, out, err = run(capsys, "entropy", "--state", "ghz:4", "--subset", "bc,d")
    assert code == 2
    assert out == ""
    assert "bad qubit token 'bc'" in err


@pytest.mark.parametrize("command", ["entropy", "purify"])
@pytest.mark.parametrize("subset", ["", " ", "\t "])
def test_blank_subset_is_an_empty_subset(capsys, command, subset):
    code, out, err = run(capsys, command, "--state", "ghz:4", "--subset", subset)
    assert code == 2
    assert out == ""
    assert err == "error: empty subset (at position 0)\n"


def test_empty_partition_side_keeps_its_message(capsys):
    code, _, err = run(capsys, "analyze", "--state", "ghz:4", "--partition", "ab|")
    assert code == 2
    assert err == "error: empty partition side (at position 3)\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (
            b'{"n_qubits": 1, "amplitudes": [[1, 0], [1' + b"0" * 400 + b", 0]]}",
            "amplitude 1 is too large for a float",
        ),
        (b"[" * 100_000, "not valid JSON (maximum recursion depth exceeded"),
        (b'{"n_qubits": 1' + b"0" * 5000 + b"}", "not valid JSON (Exceeds the limit (4300 digits)"),
        (b"\xff\xfe{", "not valid JSON ('utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["huge-integer", "deep-nesting", "too-many-digits", "not-utf-8"],
)
def test_unreadable_state_file_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "entropy", "--state", f"file:{path}", "--subset", "a")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-3, 3),
    st.integers(10**300, 10**400),  # past float's range
    st.floats(),  # NaN and Infinity are written as json's literals
)


@st.composite
def _state_file_bytes(draw):
    """A state-file document, well formed or not, as bytes."""
    # one_of flattens nested one_ofs into equal branches, so weights are drawn
    kinds = [st.integers(1, 3)] * 3 + [st.integers(-1, 0), st.integers(13, 10**400), _JSON_VALUES]
    n = draw(st.sampled_from(kinds).flatmap(lambda kind: kind))
    small = isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 3
    count = (1 << n) + draw(st.sampled_from([0, 0, 0, -1, 1])) if small else draw(st.integers(0, 4))
    amplitudes = [[1, 0]] + [[0, 0]] * (count - 1)  # a valid state if the count is right
    if amplitudes and draw(st.booleans()):
        at = draw(st.integers(0, len(amplitudes) - 1))
        pair = st.lists(_JSON_VALUES, min_size=2, max_size=2)
        amplitudes[at] = draw(
            st.sampled_from([pair, pair, st.lists(_JSON_VALUES, max_size=3), _JSON_VALUES])
            .flatmap(lambda kind: kind)
        )
    if draw(st.integers(0, 3)) == 0:
        amplitudes = draw(_JSON_VALUES)
    doc = {"n_qubits": n, "amplitudes": amplitudes}
    doc = draw(st.sampled_from([doc] * 4 + [{"n_qubits": n}, [n]]))
    text = json.dumps(doc).encode()
    depth = draw(st.sampled_from([0] * 8 + [50, 100_000]))
    text = b"[" * depth + text + b"]" * draw(st.sampled_from([0, depth]))
    bad = draw(st.sampled_from([b""] * 8 + [b"\xff", b"\xed\xa0\x80"]))  # not UTF-8
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + bad + text[cut:]


@settings(max_examples=150, deadline=None)
@given(content=_state_file_bytes())
def test_any_state_file_exits_0_2_or_3_with_at_most_one_error_line(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed-state.json"
    path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["entropy", "--state", f"file:{path}", "--subset", "a"])
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue().startswith("S(a) = ")


#: The counts each named kind takes, up to 8 qubits, and its qubits at each:
#: every state built is small enough to purify more than half of.
_KINDS = {
    "ghz": ([2, 3, 4, 5, 6, 7, 8], lambda count: count),
    "ue": ([2, 4, 6, 8], lambda count: count),
    "bellpairs": ([1, 2, 3, 4], lambda count: 2 * count),
    "ghzblocks": ([2, 3, 4], lambda count: 2 * count),
}

#: Specs that name no state: counts a kind refuses, negative, huge, spaced
#: and non-ASCII ones, a missing colon, an unknown kind and bad files.
_BAD_SPECS = st.one_of(
    st.sampled_from([*_KINDS, "bogus"]).flatmap(
        lambda kind: st.sampled_from(
            ["0", "1", "3", "13", "-1", "+4", " 4", "4 ", "4_0", "٤", "４", "", "x", "9" * 30]
        ).map(lambda count: f"{kind}:{count}")
    ),
    st.sampled_from(["ghz4", "", "file:", "file:no-such-state.json"]),
)


def _refused(q: int) -> st.SearchStrategy[str]:
    """Spellings of qubit q that int() reads, as q or as another number, or
    does not read at all; the grammar refuses every one."""
    digits = str(q)
    arabic = "".join(chr(0x660 + int(d)) for d in digits)
    fullwidth = "".join(chr(0xFF10 + int(d)) for d in digits)
    return st.sampled_from([f"+{q}", f"0_{q}", arabic, fullwidth, "-1", "1 0", "²", "9" * 5000])


@st.composite
def _side(draw, qubits, refuse=False):
    """Qubits spelled as comma-free letters or as indices with spaces; with
    `refuse`, one index spelled as `_refused` gives."""
    if not refuse and draw(st.booleans()):
        return "".join("abcdefgh"[q] for q in qubits)
    tokens = [str(q) for q in qubits]
    if refuse:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(_refused(qubits[at]))
    pad = st.sampled_from(["", "", " "])
    return ",".join(draw(pad) + token + draw(pad) for token in tokens)


@st.composite
def _argv(draw):
    """A command line from the spec, subset and partition grammar with every
    option, mostly well formed, and whether it holds a refused qubit token."""
    command = draw(st.sampled_from(["analyze", "sweep", "entropy", "purify"]))
    if draw(st.integers(0, 4)):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        counts, qubits = _KINDS[kind]
        count = draw(st.sampled_from(counts))
        spec, n = f"{kind}:{count}", qubits(count)
    else:
        spec, n = draw(_BAD_SPECS), 4
    options, bad = [], False
    if draw(st.integers(0, 19)):
        options.append(["--state", spec])
    if command == "analyze":
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 0]))):
            refuse = draw(st.integers(0, 4)) == 0
            order = draw(st.permutations(range(n)))
            k = draw(st.integers(1, n - 1))
            sides = [draw(_side(order[:k], refuse)), draw(_side(order[k:]))]
            text = draw(st.sampled_from(["|".join(sides), "|".join(sides[::-1]), "ab|c"]))
            if "," not in text and draw(st.booleans()):
                text += ",ab|" + "cdefgh"[: n - 2]  # a list of two partitions
            options.append(["--partition", text])
            bad |= refuse and text != "ab|c"
    if command in ("entropy", "purify") and draw(st.integers(0, 19)):
        if draw(st.integers(0, 9)):
            bad = draw(st.integers(0, 3)) == 0
            order = draw(st.permutations(range(n)))
            text = draw(_side(order[: draw(st.integers(1, n))], bad))
        else:
            text = draw(st.sampled_from(["", " ", "i", "a,,b", "ab,c", "aa", "8", "a|b", "0,0"]))
        options.append(["--subset", text])
    if command in ("analyze", "sweep") and draw(st.booleans()):
        options.append(["--units", draw(st.sampled_from(["nats", "bits", "furlongs"]))])
    if command == "sweep" and draw(st.booleans()):
        size = st.one_of(st.integers(1, n - 1), st.sampled_from([-1, 0, n, 10**30]))
        options.append(["--size-alpha", draw(size.map(str) | st.sampled_from(["x", " 2"]))])
    if command != "entropy" and draw(st.booleans()):
        options.append(["--json"])
    if draw(st.integers(0, 3)) == 0:
        cap = ["12", "8", "5", "1", "0", "-1", "x", "9" * 5000]
        options.append(["--max-qubits", draw(st.sampled_from(cap))])
    if draw(st.integers(0, 19)) == 0:  # an option the command does not take
        own = {"analyze": "--partition", "sweep": "--size-alpha"}.get(command, "--subset")
        foreign = ["--bogus", *{"--partition", "--size-alpha", "--subset"} - {own}]
        options.append([draw(st.sampled_from(sorted(foreign))), "1"])
    options = draw(st.permutations(options))
    return [command, *(arg for option in options for arg in option)], bad


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_any_command_line_exits_0_2_or_3_with_one_error_line(drawn):
    argv, bad = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if bad:
        # a refused qubit token exits 2, unless the state is over its cap first
        assert code == 2 or (code == 3 and "size cap" in err), err
    if code == 0:
        assert out and err == ""
        if "--json" in argv:
            doc = json.loads(out)
            if argv[0] == "purify":
                assert doc["n_qubits"] == doc["system_qubits"] + doc["ancilla_qubits"]
                norm = sum(re * re + im * im for re, im in doc["amplitudes"])
                assert abs(norm - 1.0) <= 1e-9
            else:  # I = I_int(alpha) + I_int(beta) + I_ext on every row
                for row in doc["partitions"]:
                    parts = row["internal_alpha"] + row["internal_beta"] + row["external"]
                    assert abs(parts - doc["total_nats"]) <= 1e-9, row
        return
    assert out == ""
    assert err.count("error: ") == 1 and err.endswith("\n")
    if err.startswith("usage: "):  # argparse's own: its usage text, then one error line
        assert err.splitlines()[-1].startswith(("qcorr: error: ", f"qcorr {argv[0]}: error: "))
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_entry_freezes_the_heap_after_main_and_exits_with_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(qcorr.cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(qcorr.cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        qcorr.cli.entry()
    assert exit_info.value.code == 3
    assert events == ["main", "freeze"]
