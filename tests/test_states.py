"""Named state constructors and density-operator validation."""

import math
import re

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
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
from qcorr.states import NORM_TOL, POSITIVITY_TOL
from helpers import brute_reduced, entropy_oracle, random_pure

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


def test_a_kept_matrix_is_read_only_so_cached_entropies_cannot_go_stale():
    m = np.eye(4, dtype=complex) / 4
    op = validate_density(m, 2)
    assert op.matrix is m
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0.5
    copied = validate_density(np.eye(4) / 4, 2)  # float input: a private copy
    with pytest.raises(ValueError, match="read-only"):
        copied.matrix[0, 0] = 0.5


@pytest.mark.parametrize("scale, ok", [(0.99, True), (1.01, False)])
def test_positivity_tolerance_edge(scale, ok):
    low = -scale * POSITIVITY_TOL
    m = np.diag([0.5 - low, 0.5, 0.0, low]).astype(complex)
    if ok:
        assert validate_density(m, 2).spectrum[0] == pytest.approx(low, rel=1e-6)
    else:
        with pytest.raises(NotPositiveError, match=re.escape(f"{low:.3e}")):
            validate_density(m, 2)


@pytest.mark.parametrize("scale, ok", [(0.99, True), (1.01, False)])
@pytest.mark.parametrize("sign", [1, -1])
def test_pure_state_norm_tolerance_edge(scale, ok, sign):
    amps = random_pure(np.random.default_rng(17), 3) * math.sqrt(1 + sign * scale * NORM_TOL)
    if ok:
        PureState(3, amps)
    else:
        with pytest.raises(NotNormalizedError, match="squared norm"):
            PureState(3, amps)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PureState(0, [1.0]), "n_qubits must be >= 1, got 0"),
        (lambda: PureState(2, [1.0, 0.0]), "amplitude vector must have length 4, got shape (2,)"),
        (
            lambda: PureState(1, [[1.0, 0.0]]),
            "amplitude vector must have length 2, got shape (1, 2)",
        ),
        (lambda: PureState(1, [np.nan, 1.0]), "amplitudes must be finite"),
        (lambda: PureState(1, [1.0, complex(0.0, np.inf)]), "amplitudes must be finite"),
        (lambda: DensityOperator(0, [[1.0]]), "n_qubits must be >= 1, got 0"),
        (lambda: DensityOperator(1, np.eye(4) / 4), "matrix must be 2x2, got shape (4, 4)"),
        (lambda: DensityOperator(1, [0.5, 0.5]), "matrix must be 2x2, got shape (2,)"),
        (lambda: DensityOperator(1, [[np.inf, 0], [0, 0.5]]), "matrix entries must be finite"),
        # the constructors word their own parameters; `parse_state_spec`
        # words a spec's count
        (lambda: uniform_entangled(0), "n_per_side must be >= 1, got 0"),
        (lambda: bell_product(0), "pairs must be >= 1, got 0"),
        (lambda: ghz_block_product(1), "n_per_block must be >= 2, got 1"),
    ],
)
def test_malformed_construction_raises_value_error_naming_the_fault(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        # checked before any 2**n_qubits is built or printed
        (lambda: PureState(10**6, [1.0, 0.0]), "n_qubits must be <= 62, got 1000000"),
        (lambda: DensityOperator(10**6, [[1.0]]), "n_qubits must be <= 62, got 1000000"),
        (lambda: PureState(1.0, [1.0, 0.0]), "n_qubits must be an integer, got 1.0"),
        (lambda: DensityOperator(1.0, np.eye(2) / 2), "n_qubits must be an integer, got 1.0"),
        (lambda: PureState(True, [1.0, 0.0]), "n_qubits must be an integer, got True"),
        (lambda: DensityOperator(True, np.eye(2) / 2), "n_qubits must be an integer, got True"),
        (lambda: PureState("1", [1.0, 0.0]), "n_qubits must be an integer, got 1"),
    ],
)
def test_a_qubit_count_that_is_no_integer_or_too_large_is_named(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_an_integer_like_qubit_count_is_stored_as_an_int():
    state = PureState(np.int64(1), [1.0, 0.0])
    rho = DensityOperator(np.int64(1), np.eye(2) / 2)
    assert type(state.n_qubits) is int and type(rho.n_qubits) is int
