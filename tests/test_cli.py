"""Command-line interface: subcommands, output formats, exit codes."""

import json
import math

import numpy as np
import pytest

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


def test_exit_code_bad_partition(capsys):
    code, _, err = run(capsys, "analyze", "--state", "ghz:4", "--partition", "ab|c")
    assert code == 2
    assert "error" in err


def test_exit_code_size_cap(capsys):
    code, _, err = run(capsys, "sweep", "--state", "ghz:20")
    assert code == 3
    assert "cap" in err


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
