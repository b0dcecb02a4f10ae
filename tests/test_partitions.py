"""Partition type, internal/external decomposition, product detection."""

import math

import numpy as np
import pytest

from qcorr import (
    Partition,
    PartitionError,
    PreconditionError,
    PureState,
    bell_product,
    decompose,
    enumerate_bipartitions,
    ghz,
    ghz_block_product,
    is_product_across,
    permute_qubits,
    pure_state_decomposition_identities,
    to_density,
    tradeoff_delta,
    uniform_entangled,
    validate_density,
)
from qcorr.report import analyze, parse_partition
from helpers import (
    brute_index_of_correlation,
    brute_reduced,
    brute_total_correlation,
    random_density,
    random_pure,
)

LN2 = math.log(2)


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition((), (0, 1))
    with pytest.raises(PartitionError):
        Partition((0, 1), (1, 2))
    with pytest.raises(PartitionError):
        Partition((0,), (2,))
    p = Partition.complement((0, 2), 4)
    assert p.beta == (1, 3)
    assert p.label() == "ac|bd"


def test_decompose_ghz4():
    d = decompose(to_density(ghz(4)), Partition((0, 1), (2, 3)))
    assert abs(d.internal_alpha - LN2) < 1e-9
    assert abs(d.internal_beta - LN2) < 1e-9
    assert abs(d.external - 2 * LN2) < 1e-9
    assert abs(d.total - 4 * LN2) < 1e-9


def test_decompose_bell_product_natural_cut():
    d = decompose(to_density(bell_product(2)), Partition((0, 1), (2, 3)))
    assert abs(d.internal_alpha - 2 * LN2) < 1e-9
    assert abs(d.internal_beta - 2 * LN2) < 1e-9
    assert abs(d.external) < 1e-9
    assert abs(d.total - 4 * LN2) < 1e-9


def test_decompose_uniform_entangled():
    d = decompose(to_density(uniform_entangled(2)), Partition((0, 1), (2, 3)))
    assert abs(d.internal_alpha) < 1e-9
    assert abs(d.internal_beta) < 1e-9
    assert abs(d.external - 4 * LN2) < 1e-9
    assert abs(d.total - 4 * LN2) < 1e-9


def test_decompose_rejects_mismatched_partition():
    with pytest.raises(PartitionError):
        decompose(to_density(ghz(4)), Partition((0,), (1,)))


def test_text_where_partitions_belong_raises_type_error_naming_the_entry():
    # Text iterates as characters, so analyze meets 'a' first.
    calls = [
        (lambda: decompose(to_density(ghz(4)), "ab|cd"), "'ab|cd'"),
        (lambda: analyze(ghz(4), "ab|cd"), "'a'"),
        (lambda: analyze(ghz(4), [parse_partition("ab|cd", 4), "ac|bd"]), "'ac|bd'"),
    ]
    for call, bad in calls:
        with pytest.raises(TypeError, match="parse_partition_list") as info:
            call()
        assert f"got {bad} in" in str(info.value)


def test_decompose_additivity_random():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        rho = validate_density(random_density(rng, n), n)
        for part in enumerate_bipartitions(n):
            d = decompose(rho, part)
            assert abs(d.internal_alpha + d.internal_beta + d.external - d.total) < 1e-8


def test_total_invariant_across_partitions():
    rng = np.random.default_rng(53)
    rho = validate_density(random_density(rng, 4), 4)
    totals = {round(decompose(rho, p).total, 10) for p in enumerate_bipartitions(4)}
    assert len(totals) == 1


def test_external_invariant_under_within_side_permutations():
    rng = np.random.default_rng(59)
    for _ in range(5):
        s = PureState(5, random_pure(rng, 5))
        part = Partition((0, 1, 2), (3, 4))
        base = decompose(to_density(s), part).external
        # permute within each side only
        alpha_perm = rng.permutation(3).tolist()
        beta_perm = (3 + rng.permutation(2)).tolist()
        perm = [0] * 5
        for old, new in zip((0, 1, 2), alpha_perm):
            perm[old] = new
        for old, new in zip((3, 4), beta_perm):
            perm[old] = new
        moved = permute_qubits(s, perm)
        got = decompose(to_density(moved), part).external
        assert abs(got - base) < 1e-8


def test_swap_between_sides_maximizes_external_for_bell_product():
    s = permute_qubits(bell_product(2), (0, 2, 1, 3))  # swap qubits b and c
    d = decompose(to_density(s), Partition((0, 1), (2, 3)))
    assert abs(d.external - 4 * LN2) < 1e-9
    assert abs(d.internal_alpha) < 1e-9


def test_identities_ghz6_equal_cuts():
    s = ghz(6)
    for alpha in ((0, 1, 2), (0, 2, 4)):
        d = pure_state_decomposition_identities(s, Partition.complement(alpha, 6))
        assert abs(d.external - 2 * LN2) < 1e-8
        assert abs(d.internal_alpha - 2 * LN2) < 1e-8
        assert abs(d.internal_beta - 2 * LN2) < 1e-8


def test_identities_uniform_entangled_natural_cut():
    d = pure_state_decomposition_identities(
        uniform_entangled(3), Partition((0, 1, 2), (3, 4, 5))
    )
    assert abs(d.external - 6 * LN2) < 1e-8
    assert abs(d.internal_alpha) < 1e-8
    assert abs(d.internal_beta) < 1e-8


def test_identities_ghz_block_product_block_cut():
    d = pure_state_decomposition_identities(
        ghz_block_product(3), Partition((0, 1, 2), (3, 4, 5))
    )
    assert abs(d.external) < 1e-8
    assert abs(d.internal_alpha - 3 * LN2) < 1e-8
    assert abs(d.internal_beta - 3 * LN2) < 1e-8


def test_identities_reject_unequal_sides():
    with pytest.raises(PreconditionError):
        pure_state_decomposition_identities(ghz(4), Partition((0,), (1, 2, 3)))


def test_identities_reject_non_maximal_state():
    rng = np.random.default_rng(61)
    s = PureState(4, random_pure(rng, 4))
    with pytest.raises(PreconditionError):
        pure_state_decomposition_identities(s, Partition((0, 1), (2, 3)))


def test_enumerate_counts():
    assert len(enumerate_bipartitions(4)) == 7
    assert len(enumerate_bipartitions(2)) == 1
    assert len(enumerate_bipartitions(6)) == 31


def test_enumerate_size_two_of_four():
    parts = enumerate_bipartitions(4, size_alpha=2)
    assert [p.alpha for p in parts] == [(0, 1), (0, 2), (0, 3)]
    assert all(0 in p.alpha for p in enumerate_bipartitions(5))


def test_enumerate_unique_unordered():
    parts = enumerate_bipartitions(5)
    seen = {frozenset(map(frozenset, (p.alpha, p.beta))) for p in parts}
    assert len(seen) == len(parts) == 15


def test_enumerate_rejects_bad_size():
    with pytest.raises(ValueError):
        enumerate_bipartitions(4, size_alpha=4)
    with pytest.raises(ValueError):
        enumerate_bipartitions(4, size_alpha=0)


def test_product_across_bell_product_cuts():
    rho = to_density(bell_product(2))
    assert is_product_across(rho, Partition((0, 1), (2, 3)))
    assert not is_product_across(rho, Partition((0, 2), (1, 3)))


def test_product_across_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, 2)
    assert is_product_across(rho, Partition((0,), (1,)))


def test_product_across_matches_zero_external_for_pure_states():
    rng = np.random.default_rng(67)
    for _ in range(5):
        # product case: alpha qubits (0,1), beta qubits (2,3)
        amps = np.kron(random_pure(rng, 2), random_pure(rng, 2))
        rho = to_density(PureState(4, amps))
        part = Partition((0, 1), (2, 3))
        d = decompose(rho, part)
        assert is_product_across(rho, part)
        assert d.external < 1e-9
        # generic entangled case
        s = PureState(4, random_pure(rng, 4))
        rho2 = to_density(s)
        d2 = decompose(rho2, part)
        assert d2.external > 1e-6
        assert not is_product_across(rho2, part)


def test_tradeoff_bell_product_vs_uniform_entangled():
    part = Partition((0, 1), (2, 3))
    d1 = decompose(to_density(bell_product(2)), part)
    d2 = decompose(to_density(uniform_entangled(2)), part)
    assert abs(tradeoff_delta(d1, d2) - 4 * LN2) < 1e-8


def test_tradeoff_self_is_zero():
    d = decompose(to_density(ghz(4)), Partition((0, 1), (2, 3)))
    assert tradeoff_delta(d, d) == 0.0


def test_tradeoff_ghz_vs_bell_product():
    part = Partition((0, 1), (2, 3))
    d_ghz = decompose(to_density(ghz(4)), part)
    d_bp = decompose(to_density(bell_product(2)), part)
    assert abs(tradeoff_delta(d_bp, d_ghz) - 2 * LN2) < 1e-8
    assert abs(tradeoff_delta(d_ghz, d_bp) + 2 * LN2) < 1e-8


def test_tradeoff_rejects_different_totals():
    part = Partition((0, 1), (2, 3))
    d1 = decompose(to_density(ghz(4)), part)
    rng = np.random.default_rng(71)
    d2 = decompose(validate_density(random_density(rng, 4), 4), part)
    with pytest.raises(PreconditionError):
        tradeoff_delta(d1, d2)


def test_decompose_matches_brute_force_oracle_on_unsorted_cuts():
    rng = np.random.default_rng(61)
    for n in (3, 4):
        m = random_density(rng, n)
        rho = validate_density(m, n)
        for _ in range(3):
            order = [int(q) for q in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            alpha, beta = tuple(order[:cut]), tuple(order[cut:])
            d = decompose(rho, Partition(alpha, beta))
            m_a = brute_reduced(m, n, alpha)
            m_b = brute_reduced(m, n, beta)
            assert d.internal_alpha == pytest.approx(
                brute_total_correlation(m_a, len(alpha)), abs=1e-10
            )
            assert d.internal_beta == pytest.approx(
                brute_total_correlation(m_b, len(beta)), abs=1e-10
            )
            assert d.external == pytest.approx(
                brute_index_of_correlation(m, n, alpha, beta), abs=1e-10
            )
            assert d.total == pytest.approx(brute_total_correlation(m, n), abs=1e-10)


def test_label_falls_back_to_index_syntax_past_26_qubits():
    part = Partition(range(20), range(20, 30))
    label = part.label()
    assert label == ",".join(map(str, range(20))) + "|" + ",".join(map(str, range(20, 30)))
    assert parse_partition(label, 30) == part
    shuffled = Partition((29, 3), tuple(q for q in range(30) if q not in (29, 3)))
    assert parse_partition(shuffled.label(), 30) == shuffled
    # up to 26 qubits the letter syntax is unchanged
    assert Partition(range(13), range(13, 26)).label() == (
        "abcdefghijklm|nopqrstuvwxyz"
    )
    assert Partition((25,), range(25)).label() == "z|abcdefghijklmnopqrstuvwxy"


def test_partition_rejects_non_integer_qubits():
    with pytest.raises(PartitionError):
        Partition((0.5,), (1,))
    with pytest.raises(PartitionError):
        Partition((0,), (1.0,))
    with pytest.raises(PartitionError):
        Partition.complement((1.5,), 3)
