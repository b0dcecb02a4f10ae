"""Entropy, total correlation, bounds, and region classification."""

import math

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    Partition,
    PartitionError,
    Region,
    araki_lieb_check,
    classify_region,
    correlation_bounds,
    ghz,
    index_of_correlation,
    kron,
    max_total_correlation,
    partial_trace,
    to_density,
    total_correlation,
    uniform_entangled,
    validate_density,
    von_neumann_entropy,
)
from helpers import (
    brute_index_of_correlation,
    brute_total_correlation,
    random_density,
    random_pure,
    random_unitary,
)

LN2 = math.log(2)


def _op(m, n):
    return DensityOperator(n, m)


def test_entropy_maximally_mixed_qubit():
    assert abs(von_neumann_entropy(_op(np.eye(2) / 2, 1)) - LN2) < 1e-12


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(to_density(ghz(3))) < 1e-9


def test_entropy_quarter_three_quarters():
    # -0.25 ln 0.25 - 0.75 ln 0.75, evaluated directly
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(expected - 0.5623351446188083) < 1e-15
    got = von_neumann_entropy(_op(np.diag([0.25, 0.75]).astype(complex), 1))
    assert abs(got - expected) < 1e-12


def test_total_correlation_ghz4():
    assert abs(total_correlation(to_density(ghz(4))) - 4 * LN2) < 1e-9


def test_total_correlation_product_of_pure_qubits_is_zero():
    rng = np.random.default_rng(5)
    amps = random_pure(rng, 1)
    for _ in range(2):
        amps = np.kron(amps, random_pure(rng, 1))
    from qcorr import PureState

    assert total_correlation(to_density(PureState(3, amps))) < 1e-9


def test_total_correlation_bell_pair():
    assert abs(total_correlation(to_density(ghz(2))) - 2 * LN2) < 1e-9


def test_index_of_correlation_bell_pair():
    got = index_of_correlation(to_density(ghz(2)), Partition((0,), (1,)))
    assert abs(got - 2 * LN2) < 1e-9


def test_index_of_correlation_product_cut_is_zero():
    rng = np.random.default_rng(9)
    m = kron(random_density(rng, 1), random_density(rng, 2))
    got = index_of_correlation(_op(m, 3), Partition((0,), (1, 2)))
    assert got < 1e-9


def test_index_of_correlation_uniform_entangled():
    got = index_of_correlation(to_density(uniform_entangled(2)), Partition((0, 1), (2, 3)))
    assert abs(got - 4 * LN2) < 1e-9


def test_index_of_correlation_rejects_mismatched_partition():
    with pytest.raises(PartitionError):
        index_of_correlation(to_density(ghz(4)), Partition((0,), (1,)))


def test_max_total_correlation():
    assert max_total_correlation(4) == 4 * LN2
    assert max_total_correlation(1) == LN2
    assert max_total_correlation(10) == 10 * LN2


def test_bounds_equal_maximal_qubits():
    b = correlation_bounds([LN2] * 4)
    assert b.classical_upper == 3 * LN2
    assert b.quantum_upper == 4 * LN2
    assert b.gap_bound == LN2


def test_bounds_single_zero_entry():
    b = correlation_bounds([0.0])
    assert (b.classical_upper, b.quantum_upper, b.gap_bound) == (0.0, 0.0, 0.0)


def test_bounds_direct_arithmetic():
    b = correlation_bounds([1.0, 0.5, 0.2])
    assert abs(b.classical_upper - 0.7) < 1e-15
    assert abs(b.quantum_upper - 1.7) < 1e-15
    assert b.gap_bound == 1.0


def test_bounds_reject_negative():
    with pytest.raises(ValueError):
        correlation_bounds([0.5, -0.1])


def test_classify_region_examples():
    caps = [LN2, LN2]
    assert classify_region(0.5 * LN2, caps) is Region.CLASSICAL
    assert classify_region(1.5 * LN2, caps) is Region.QUANTUM
    assert classify_region(3.0 * LN2, caps) is Region.UNATTAINABLE


def test_classify_region_boundaries():
    caps = [LN2, 2 * LN2]
    assert classify_region(LN2, caps) is Region.CLASSICAL  # closed lower region
    assert classify_region(2 * LN2, caps) is Region.QUANTUM
    assert classify_region(2 * LN2 + 1e-6, caps) is Region.UNATTAINABLE


def test_classify_region_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_region(0.1, [])
    with pytest.raises(ValueError):
        classify_region(-0.1, [LN2])


def test_araki_lieb_random_states():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        rho = _op(random_density(rng, n), n)
        k = int(rng.integers(1, n))
        alpha = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        res = araki_lieb_check(rho, Partition.complement(alpha, n))
        assert res.ok


def test_araki_lieb_ghz_slacks():
    res = araki_lieb_check(to_density(ghz(4)), Partition((0,), (1, 2, 3)))
    assert res.ok
    assert abs(res.lower_slack) < 1e-9
    assert abs(res.upper_slack - 2 * LN2) < 1e-9


def test_araki_lieb_pure_product():
    rng = np.random.default_rng(25)
    amps = np.kron(random_pure(rng, 1), random_pure(rng, 1))
    from qcorr import PureState

    res = araki_lieb_check(to_density(PureState(2, amps)), Partition((0,), (1,)))
    assert res.ok
    assert abs(res.lower_slack) < 1e-9
    assert abs(res.upper_slack) < 1e-9


def test_additivity_over_random_operators():
    rng = np.random.default_rng(33)
    for _ in range(25):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a, b = random_density(rng, n1), random_density(rng, n2)
        lhs = total_correlation(_op(kron(a, b), n1 + n2))
        rhs = total_correlation(_op(a, n1)) + total_correlation(_op(b, n2))
        assert abs(lhs - rhs) < 1e-8


def test_nonnegativity_over_random_operators():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        rho = _op(random_density(rng, n), n)
        assert total_correlation(rho) >= 0.0


def test_local_unitary_invariance():
    rng = np.random.default_rng(41)
    rho = to_density(ghz(3)).matrix
    base = total_correlation(_op(rho, 3))
    for _ in range(10):
        u = random_unitary(rng, 2)
        for q in range(1, 3):
            u = np.kron(u, random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(total_correlation(validate_density(rotated, 3)) - base) < 1e-8


def test_pure_state_bipartition_entropies_equal():
    rng = np.random.default_rng(43)
    from qcorr import PureState

    for _ in range(10):
        rho = to_density(PureState(4, random_pure(rng, 4)))
        for alpha in ((0,), (0, 1), (0, 2), (1, 3)):
            part = Partition.complement(alpha, 4)
            sa = von_neumann_entropy(_op(partial_trace(rho.matrix, 4, part.alpha), len(part.alpha)))
            sb = von_neumann_entropy(_op(partial_trace(rho.matrix, 4, part.beta), len(part.beta)))
            assert abs(sa - sb) < 1e-9


def test_against_brute_force_oracle():
    from qcorr import enumerate_bipartitions

    rng = np.random.default_rng(47)
    cases = [(to_density(ghz(3)).matrix, 3), (np.eye(8) / 8, 3)]
    cases += [(random_density(rng, 3), 3) for _ in range(5)]
    cases += [(to_density(ghz(4)).matrix, 4)]
    cases += [(random_density(rng, 4), 4) for _ in range(2)]
    for m, n in cases:
        rho = _op(m, n)
        assert abs(total_correlation(rho) - brute_total_correlation(m, n)) < 1e-9
        for part in enumerate_bipartitions(n):
            got = index_of_correlation(rho, part)
            want = brute_index_of_correlation(m, n, part.alpha, part.beta)
            assert abs(got - max(want, 0.0)) < 1e-9


def test_clamped_zeros_are_positive():
    from qcorr import PureState
    from qcorr.correlation import clamp_nonneg, entropy_from_probs

    for x in (-0.0, 0.0, -1e-17):
        assert math.copysign(1.0, clamp_nonneg(x)) == 1.0
    assert clamp_nonneg(0.25) == 0.25
    assert math.isnan(clamp_nonneg(float("nan")))
    assert math.copysign(1.0, entropy_from_probs(np.array([1.0]))) == 1.0
    basis = to_density(PureState(2, np.array([1, 0, 0, 0], dtype=complex)))
    assert math.copysign(1.0, total_correlation(basis)) == 1.0
    assert math.copysign(1.0, index_of_correlation(basis, Partition((0,), (1,)))) == 1.0
