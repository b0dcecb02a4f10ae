"""Named state constructors and density-operator validation."""

import math

import numpy as np
import pytest

from qcorr import (
    NotHermitianError,
    NotNormalizedError,
    NotPositiveError,
    PureState,
    SizeCapError,
    TraceError,
    bell_product,
    ghz,
    ghz_block_product,
    to_density,
    uniform_entangled,
    validate_density,
)
from helpers import brute_reduced, entropy_oracle

LN2 = math.log(2)
SQRT_HALF = math.sqrt(0.5)


def test_ghz_four_qubits():
    s = ghz(4)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[15] = SQRT_HALF
    assert np.array_equal(s.amplitudes, expected)


def test_ghz_two_is_bell_pair():
    assert np.array_equal(ghz(2).amplitudes, np.array([SQRT_HALF, 0, 0, SQRT_HALF]))


def test_ghz_single_qubit_reductions_are_maximally_mixed():
    rho = to_density(ghz(6)).matrix
    for k in range(6):
        s_k = entropy_oracle(brute_reduced(rho, 6, [k]))
        assert abs(s_k - LN2) < 1e-9


def test_ghz_rejects_small_n():
    with pytest.raises(ValueError):
        ghz(1)


def test_uniform_entangled_two_per_side():
    s = uniform_entangled(2)
    expected = np.zeros(16, dtype=complex)
    for k in range(4):
        expected[k * 4 + k] = 0.5
    assert np.array_equal(s.amplitudes, expected)


def test_uniform_entangled_one_is_bell_pair():
    assert np.array_equal(uniform_entangled(1).amplitudes, ghz(2).amplitudes)


def test_uniform_entangled_reductions_are_maximally_mixed():
    rho = to_density(uniform_entangled(3)).matrix
    for side in (range(3), range(3, 6)):
        out = brute_reduced(rho, 6, list(side))
        assert np.max(np.abs(out - np.eye(8) / 8)) < 1e-12


def test_uniform_entangled_size_cap():
    with pytest.raises(SizeCapError):
        uniform_entangled(8)


def test_bell_product_pair_layout():
    s = bell_product(2)
    nz = {i: a for i, a in enumerate(s.amplitudes) if abs(a) > 0}
    assert set(nz) == {0b0000, 0b0011, 0b1100, 0b1111}
    assert all(abs(a - 0.5) < 1e-15 for a in nz.values())


def test_bell_product_one_is_bell_pair():
    assert np.array_equal(bell_product(1).amplitudes, ghz(2).amplitudes)


def test_bell_product_total_correlation_three_pairs():
    from qcorr import total_correlation

    assert abs(total_correlation(to_density(bell_product(3))) - 6 * LN2) < 1e-8


def test_ghz_block_product_two_equals_bell_product():
    assert np.array_equal(ghz_block_product(2).amplitudes, bell_product(2).amplitudes)


def test_ghz_block_product_total_correlation():
    from qcorr import total_correlation

    assert abs(total_correlation(to_density(ghz_block_product(3))) - 6 * LN2) < 1e-8


def test_to_density_basis_state():
    s = PureState(1, np.array([1.0, 0.0], dtype=complex))
    assert np.array_equal(to_density(s).matrix, np.diag([1.0, 0.0]))


def test_to_density_bell_corners():
    m = to_density(ghz(2)).matrix
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 0.5
    assert np.max(np.abs(m - expected)) < 1e-15


def test_to_density_pure_states_have_zero_entropy():
    assert entropy_oracle(to_density(ghz(4)).matrix) < 1e-9
    assert entropy_oracle(to_density(uniform_entangled(2)).matrix) < 1e-9


def test_to_density_rank_one_unit_trace():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = PureState(3, z / np.linalg.norm(z))
    m = to_density(s).matrix
    assert abs(np.trace(m) - 1.0) < 1e-12
    vals = np.linalg.eigvalsh(m)
    assert np.sum(vals > 1e-10) == 1


def test_validate_density_accepts_maximally_mixed():
    op = validate_density(np.eye(4) / 4, 2)
    assert op.n_qubits == 2


def test_validate_density_trace_error():
    with pytest.raises(TraceError):
        validate_density(np.diag([0.5, 0.6]).astype(complex), 1)


def test_validate_density_positivity_error():
    with pytest.raises(NotPositiveError):
        validate_density(np.diag([1.1, -0.1]).astype(complex), 1)


def test_validate_density_hermiticity_error():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitianError):
        validate_density(m, 1)


def test_validate_density_tolerates_tiny_negative_eigenvalue():
    m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    validate_density(m, 1)


def test_constructors_pass_validation():
    for s in (ghz(4), uniform_entangled(2), bell_product(2), ghz_block_product(3)):
        validate_density(to_density(s).matrix, s.n_qubits)


def test_bell_product_density_equals_kron_of_pairs():
    from qcorr import kron

    pair = to_density(ghz(2)).matrix
    m = to_density(bell_product(3)).matrix
    assert np.max(np.abs(m - kron(kron(pair, pair), pair))) < 1e-12


def test_pure_state_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        PureState(1, np.array([1.0, 1.0], dtype=complex))
    # finite amplitudes whose squared norm overflows: vdot gives nan
    with pytest.raises(NotNormalizedError, match="nan"):
        PureState(2, np.array([1.0, 0.0, 0.0, 1e308 + 1e308j]))
