"""State specs, amplitude files, and the analyze/sweep report layer."""

import json
import math
import re

import numpy as np
import pytest

from qcorr import (
    NotNormalizedError,
    PureState,
    Region,
    SizeCapError,
    SpecParseError,
    StateFileError,
    analyze,
    bell_product,
    decompose,
    enumerate_bipartitions,
    ghz,
    ghz_block_product,
    load_state_file,
    parse_partition,
    parse_partition_list,
    parse_state_spec,
    parse_subset,
    save_state_file,
    sweep,
    to_density,
    uniform_entangled,
    von_neumann_entropy,
)
from qcorr.report import FILE_NORM_TOL, render_table, report_to_dict
from qcorr.states import NORM_TOL
from helpers import random_pure

LN2 = math.log(2)


def test_parse_state_spec_examples(tmp_path):
    # Each kind gives its constructor's state bit for bit; `ue` counts all qubits.
    for text, want in [
        ("ghz:4", ghz(4)),
        ("ue:4", uniform_entangled(2)),
        ("bellpairs:2", bell_product(2)),
        ("ghzblocks:3", ghz_block_product(3)),
    ]:
        state = parse_state_spec(text)
        assert state.n_qubits == want.n_qubits
        assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
    path = tmp_path / "x.json"
    save_state_file(PureState(3, random_pure(np.random.default_rng(7), 3)), str(path))
    state = parse_state_spec(f"file:{path}")
    assert state.amplitudes.tobytes() == load_state_file(str(path)).amplitudes.tobytes()


def test_parse_state_spec_rejects_odd_ue():
    with pytest.raises(ValueError):
        parse_state_spec("ue:5")


@pytest.mark.parametrize(
    "text, what, need",
    [
        ("bellpairs:0", "number of Bell pairs", "at least 1"),
        ("ghzblocks:0", "number of qubits per block", "at least 2"),
        ("ghzblocks:1", "number of qubits per block", "at least 2"),
        ("ue:0", "total qubit count", "at least 2"),
        ("ue:1", "total qubit count", "even"),
    ],
)
def test_a_count_below_its_kind_is_named_in_spec_terms(text, what, need):
    # not in the constructor's terms, such as "pairs must be >= 1"
    kind, count = text.split(":")
    with pytest.raises(ValueError) as err:
        parse_state_spec(text)
    assert str(err.value) == f"{kind!r} takes the {what}, which must be {need}; got {count}"


def test_parse_state_spec_errors_carry_position():
    with pytest.raises(SpecParseError) as err:
        parse_state_spec("xyz:4")
    assert err.value.position == 0
    with pytest.raises(SpecParseError) as err:
        parse_state_spec("ghz:four")
    assert err.value.position == 4
    with pytest.raises(SpecParseError):
        parse_state_spec("ghz4")
    with pytest.raises(SpecParseError):
        parse_state_spec("")


@pytest.mark.parametrize(
    "text, position",
    [
        ("ghz:4_0", 5),
        ("ghz: 4", 4),
        ("ghz:+4", 4),
        ("ghz:\u0664", 4),  # ARABIC-INDIC DIGIT FOUR, which int() reads as 4
        ("ghz:-3", 4),
        ("ghz:4 ", 5),
        ("ghz:", 4),
        ("bellpairs:3x", 11),
    ],
)
def test_spec_parameters_are_ascii_digits(text, position):
    with pytest.raises(SpecParseError) as err:
        parse_state_spec(text)
    assert err.value.position == position


def test_spec_count_too_long_for_int_is_over_the_size_cap():
    with pytest.raises(SizeCapError, match="5000 digits"):
        parse_state_spec("ghz:" + "9" * 5000)
    state = parse_state_spec("ghz:" + "0" * 5000 + "4")
    assert state.amplitudes.tobytes() == ghz(4).amplitudes.tobytes()


def test_load_state_file_plus_state(tmp_path):
    path = tmp_path / "plus.json"
    path.write_text(
        '{"n_qubits": 1, "amplitudes": [[0.7071067811865476, 0], [0.7071067811865476, 0]]}'
    )
    s = load_state_file(str(path))
    assert s.n_qubits == 1
    assert np.allclose(s.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)


def test_load_state_file_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0], [0, 0]]}')
    with pytest.raises(StateFileError):
        load_state_file(str(path))
    path.write_text('{"amplitudes": [[1, 0], [0, 0]]}')
    with pytest.raises(StateFileError):
        load_state_file(str(path))
    path.write_text('{"n_qubits": 1, "amplitudes": [[1, 0], "x"]}')
    with pytest.raises(StateFileError):
        load_state_file(str(path))
    path.write_text("not json")
    with pytest.raises(StateFileError):
        load_state_file(str(path))


def test_load_state_file_norm_error(tmp_path):
    path = tmp_path / "unnorm.json"
    path.write_text('{"n_qubits": 1, "amplitudes": [[1, 0], [1, 0]]}')
    with pytest.raises(NotNormalizedError):
        load_state_file(str(path))


def _write_amplitudes(path, amps):
    pairs = [[float(a.real), float(a.imag)] for a in amps]
    path.write_text(json.dumps({"n_qubits": int(amps.size).bit_length() - 1, "amplitudes": pairs}))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("scale, ok", [(0.99, True), (1.01, False)])
def test_state_file_norm_tolerance_edge(tmp_path, scale, ok, sign):
    path = tmp_path / "edge.json"
    amps = random_pure(np.random.default_rng(23), 3) * math.sqrt(1 + sign * scale * FILE_NORM_TOL)
    _write_amplitudes(path, amps)
    if ok:
        loaded = load_state_file(str(path))
        assert abs(float(np.vdot(loaded.amplitudes, loaded.amplitudes).real) - 1) <= NORM_TOL
    else:
        with pytest.raises(NotNormalizedError, match=re.escape(str(path))):
            load_state_file(str(path))


def test_state_file_round_trip_bit_exact(tmp_path):
    path = tmp_path / "ghz4.json"
    s = ghz(4)
    save_state_file(s, str(path))
    loaded = load_state_file(str(path))
    assert loaded.n_qubits == 4
    assert np.array_equal(loaded.amplitudes, s.amplitudes)
    # and an arbitrary complex state
    rng = np.random.default_rng(5)
    from qcorr import PureState

    s2 = PureState(3, random_pure(rng, 3))
    save_state_file(s2, str(path))
    assert np.array_equal(load_state_file(str(path)).amplitudes, s2.amplitudes)
    # a squared norm off 1 by less than NORM_TOL is kept, not renormalised
    for sign in (1, -1):
        s3 = PureState(3, random_pure(rng, 3) * math.sqrt(1 + sign * 0.99 * NORM_TOL))
        save_state_file(s3, str(path))
        assert np.array_equal(load_state_file(str(path)).amplitudes, s3.amplitudes)


def test_parse_partition_syntaxes():
    p = parse_partition("ab|cd", 4)
    assert (p.alpha, p.beta) == ((0, 1), (2, 3))
    p = parse_partition("0,2|1,3", 4)
    assert (p.alpha, p.beta) == ((0, 2), (1, 3))
    p = parse_partition("a,c|b,d", 4)
    assert (p.alpha, p.beta) == ((0, 2), (1, 3))
    with pytest.raises(SpecParseError):
        parse_partition("ab|cd|e", 5)
    with pytest.raises(SpecParseError):
        parse_partition("ab", 2)
    with pytest.raises(SpecParseError):
        parse_partition("a!|b", 2)


def test_parse_partition_list():
    parts = parse_partition_list("ab|cd,ac|bd", 4)
    assert [p.alpha for p in parts] == [(0, 1), (0, 2)]
    parts = parse_partition_list("0,2|1,3", 4)
    assert [p.alpha for p in parts] == [(0, 2)]
    with pytest.raises(SpecParseError):
        parse_partition_list("0,2|1,3,ab|cd", 4)


def test_parse_partition_list_errors_give_their_position_in_the_list():
    cases = [
        ("ab|cd,ac|bd,d", 12, "comma-free"),
        ("ab|cd,ac|b", 6, "covers 3 qubits"),
        ("ab|cd, ac|b", 7, "covers 3 qubits"),
        ("ab|cd,ac|b!", 9, "bad partition side"),
        ("ab|cd,,ac|bd", 6, "comma-free"),
    ]
    for text, position, message in cases:
        with pytest.raises(SpecParseError, match=message) as err:
            parse_partition_list(text, 4)
        assert err.value.position == position, text


def test_a_qubit_named_twice_or_out_of_range_gives_its_entry_position():
    cases = [
        ("ab|cd,aa|bc", 6, "alpha=(0, 0), beta=(1, 2)"),
        ("ab|cd, ac|ba", 7, "alpha=(0, 2), beta=(1, 0)"),
        ("ab|ce", 0, "alpha=(0, 1), beta=(2, 4)"),
        ("0,1|2,9", 0, "alpha=(0, 1), beta=(2, 9)"),
    ]
    for text, position, sides in cases:
        with pytest.raises(SpecParseError) as err:
            parse_partition_list(text, 4)
        assert str(err.value) == (
            f"sides must be disjoint and cover 0..3, got {sides} (at position {position})"
        )
        assert err.value.position == position, text


def test_a_comma_free_value_with_two_bars_is_one_bad_partition():
    for text in ("a|b|c", "ab|c|d"):
        with pytest.raises(SpecParseError, match="exactly one '\\|'") as err:
            parse_partition_list(text, 4)
        assert err.value.position == text.rindex("|"), text


def test_parse_subset():
    assert parse_subset("ab", 4) == (0, 1)
    assert parse_subset("0,3", 4) == (0, 3)
    with pytest.raises(SpecParseError):
        parse_subset("az", 4)
    with pytest.raises(SpecParseError):
        parse_subset("aa", 4)


@pytest.mark.parametrize("text", [None, 3, ("a",)])
def test_parse_subset_names_text_that_is_not_a_str(text):
    with pytest.raises(TypeError, match=f"^subset text must be a str, got {re.escape(repr(text))}$"):
        parse_subset(text, 3)


def test_analyze_ghz4_natural_cut():
    report = analyze(parse_state_spec("ghz:4"), parse_partition_list("ab|cd", 4))
    assert report.n_qubits == 4
    assert abs(report.total_nats - 4 * LN2) < 1e-9
    e = report.entries[0]
    assert abs(e.external - 2 * LN2) < 1e-9
    assert abs(e.internal_alpha - LN2) < 1e-9
    # boundary value classifies into the closed classical region
    assert e.region_external is Region.CLASSICAL
    assert not e.product_across


def test_analyze_bell_product_crossed_cut():
    report = analyze(parse_state_spec("bellpairs:2"), parse_partition_list("ac|bd", 4))
    e = report.entries[0]
    assert abs(e.external - 4 * LN2) < 1e-9
    assert abs(e.internal_alpha) < 1e-9
    assert e.region_external is Region.QUANTUM
    assert not e.product_across


def test_analyze_bell_product_natural_cut_is_product():
    report = analyze(parse_state_spec("bellpairs:2"), parse_partition_list("ab|cd", 4))
    e = report.entries[0]
    assert e.product_across
    assert abs(e.external) < 1e-9
    assert e.region_internal_alpha is Region.QUANTUM


def test_analyze_units_bits():
    report = analyze(parse_state_spec("ue:4"), parse_partition_list("ab|cd", 4), units="bits")
    e = report.entries[0]
    assert abs(e.external / LN2 - 4.0) < 1e-9
    assert report.units == "bits"
    # stored values stay in nats; the table renders bits
    table = render_table(report)
    assert "4.000000000" in table
    assert "bits" in table


def test_analyze_matches_decompose():
    rng = np.random.default_rng(11)
    from qcorr import PureState

    for n in (2, 3, 4, 5, 6):
        s = PureState(n, random_pure(rng, n))
        report = analyze(s, enumerate_bipartitions(n))
        rho = to_density(s)
        for part, entry in zip(enumerate_bipartitions(n), report.entries):
            d = decompose(rho, part)
            assert abs(entry.internal_alpha - d.internal_alpha) < 1e-8
            assert abs(entry.internal_beta - d.internal_beta) < 1e-8
            assert abs(entry.external - d.external) < 1e-8
            assert abs(report.total_nats - d.total) < 1e-8


def test_sweep_ghz6_cut_invariant():
    report = sweep(parse_state_spec("ghz:6"))
    assert len(report.entries) == 31
    for e in report.entries:
        assert abs(e.external - 2 * LN2) < 1e-8


def test_sweep_single_bell_pair():
    report = sweep(parse_state_spec("bellpairs:1"))
    assert len(report.entries) == 1
    assert abs(report.entries[0].external - 2 * LN2) < 1e-9


def test_sweep_ue4_externals_match_brute_force():
    report = sweep(parse_state_spec("ue:4"))
    rho = to_density(uniform_entangled(2))
    by_label = {e.partition: e for e in report.entries}
    assert abs(by_label["ab|cd"].external - 4 * LN2) < 1e-9
    for part in enumerate_bipartitions(4):
        d = decompose(rho, part)
        assert abs(by_label[part.label()].external - d.external) < 1e-8


def test_sweep_size_alpha_filter():
    report = sweep(parse_state_spec("ghz:4"), size_alpha=2)
    assert [e.partition for e in report.entries] == ["ab|cd", "ac|bd", "ad|bc"]


def test_report_totals_partition_invariant():
    report = sweep(parse_state_spec("ghzblocks:2"))
    assert report.total_nats == pytest.approx(4 * LN2, abs=1e-9)
    # the total is a single per-state number, identical for every entry by
    # construction; decomposition identity then pins each entry's sum
    for e in report.entries:
        assert abs(
            e.internal_alpha + e.internal_beta + e.external - report.total_nats
        ) < 1e-8


def test_report_json_dict_shape_and_digits():
    report = analyze(parse_state_spec("ghz:4"), parse_partition_list("ab|cd", 4), units="bits")
    doc = report_to_dict(report)
    assert doc["units"] == "bits"
    assert doc["n_qubits"] == 4
    assert doc["total_nats"] == float(f"{4 * LN2:.12g}")
    entry = doc["partitions"][0]
    assert entry["partition"] == "ab|cd"
    assert entry["region_external"] == "Classical"
    assert isinstance(entry["product_across"], bool)
    assert doc["bounds"]["araki_lieb_ok"] is True
    json.dumps(doc)  # must be serializable as-is


def test_round_trip_file_report_identical(tmp_path):
    path = tmp_path / "state.json"
    save_state_file(ghz(4), str(path))
    direct = analyze(parse_state_spec("ghz:4"), parse_partition_list("ab|cd", 4))
    via_file = analyze(parse_state_spec(f"file:{path}"), parse_partition_list("ab|cd", 4))
    assert report_to_dict(direct) == report_to_dict(via_file)


def test_subset_entropy_values():
    ghz4, ue4 = parse_state_spec("ghz:4"), parse_state_spec("ue:4")
    assert abs(von_neumann_entropy(ghz4, parse_subset("ab", 4)) - LN2) < 1e-9
    assert abs(von_neumann_entropy(ue4, parse_subset("ab", 4)) - 2 * LN2) < 1e-9
    assert von_neumann_entropy(ghz4, parse_subset("abcd", 4)) < 1e-12


def test_analyze_rejects_bad_units():
    with pytest.raises(ValueError):
        analyze(parse_state_spec("ghz:4"), parse_partition_list("ab|cd", 4), units="trits")

def test_analyze_all_partitions_token():
    report = sweep(parse_state_spec("ghz:4"))
    assert len(report.entries) == 7
    assert {e.partition for e in report.entries} == {
        p.label() for p in enumerate_bipartitions(4)
    }


def test_load_state_file_rejects_bools(tmp_path):
    path = tmp_path / "bools.json"
    for text in [
        '{"n_qubits": true, "amplitudes": [[true, 0], [0, 0]]}',
        '{"n_qubits": true, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n_qubits": 1, "amplitudes": [[true, 0], [0, 0]]}',
        '{"n_qubits": 1, "amplitudes": [[1, false], [0, 0]]}',
    ]:
        path.write_text(text)
        with pytest.raises(StateFileError):
            load_state_file(str(path))


def test_zero_entropies_and_correlations_are_positive_zero():
    basis = PureState(1, np.array([1.0, 0.0], dtype=complex))
    assert math.copysign(1.0, von_neumann_entropy(basis, (0,))) == 1.0
    report = analyze(ghz(2), parse_partition_list("a|b", 2))
    assert math.copysign(1.0, report.entries[0].internal_alpha) == 1.0
    assert math.copysign(1.0, report.entries[0].internal_beta) == 1.0


@pytest.mark.parametrize("text", ["b,", ",b", "a,,c", "bc,d", "ab,1"])
def test_parse_subset_rejects_multi_letter_and_empty_tokens(text):
    with pytest.raises(SpecParseError, match="bad qubit token"):
        parse_subset(text, 4)


def test_parse_subset_errors_name_the_subset():
    with pytest.raises(SpecParseError, match=r"\(0, 0\)"):
        parse_subset("aa", 4)
    with pytest.raises(SpecParseError, match=r"\(9,\)"):
        parse_subset("9", 4)


def test_parse_partition_rejects_multi_letter_and_empty_tokens():
    assert parse_partition("c,b|a", 3) == parse_partition("cb|a", 3)
    for text in ["cd,b|a", "c,b|a,", "a|bc,d"]:
        with pytest.raises(SpecParseError, match="bad qubit token"):
            parse_partition(text, 3)


def test_bad_comma_token_position_is_its_offset_in_the_raw_text():
    cases = [
        ("a,  b,X|c,d", 6, "X"),
        ("  a,X|b,c,d", 4, "X"),
        ("a,b|c,  X", 8, "X"),
        ("b, |a,c,d", 2, ""),
        ("0,1|2,-1", 6, "-1"),
    ]
    for text, position, token in cases:
        with pytest.raises(SpecParseError, match=f"bad qubit token {token!r}") as err:
            parse_partition(text, 4)
        assert err.value.position == position, text
    with pytest.raises(SpecParseError) as err:
        parse_subset(" a, Q", 4)
    assert err.value.position == 4


#: Qubit tokens int() reads but the grammar does not: a sign, an underscore,
#: spaces inside, non-ASCII digits, and more digits than int() converts.
REFUSED_QUBIT_TOKENS = ["+1", "-1", "1_0", "1 0", "\u0663", "\uff11", "\u00b2", "9" * 5000]


@pytest.mark.parametrize("token", REFUSED_QUBIT_TOKENS, ids=range(len(REFUSED_QUBIT_TOKENS)))
def test_qubit_indices_are_ascii_digits(token):
    # a side of one index, then a token of a comma list, at its offset
    for text, message, position in [
        (token, f"bad partition side {token!r}", 0),
        (f"0, {token}", f"bad qubit token {token!r}", 3),
    ]:
        with pytest.raises(SpecParseError) as err:
            parse_subset(text, 12)
        assert str(err.value) == f"{message} (at position {position})"
    with pytest.raises(SpecParseError) as err:
        parse_partition(f"0,1|2,{token}", 12)
    assert str(err.value) == f"bad qubit token {token!r} (at position 6)"
    # leading zeros and surrounding spaces stay part of the grammar
    assert parse_subset(" 010 ", 12) == (10,)
    assert parse_subset("0, 03 ", 12) == (0, 3)


def test_analyze_of_no_partition_raises():
    with pytest.raises(ValueError) as raised:
        analyze(ghz(2), [])
    assert str(raised.value) == "need at least one partition"
