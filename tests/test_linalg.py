"""Kronecker product, partial trace, qubit permutation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.linalg
from qcorr import (
    PureState,
    SizeCapError,
    bell_product,
    ghz,
    kron,
    partial_trace,
    permute_qubits,
    reduced_operator,
    to_density,
    uniform_entangled,
    validate_density,
)
from qcorr.linalg import tridiagonal_form
from qcorr.purification import RANK_THRESHOLD
from helpers import ZHEEVR, projector, random_density, random_of_rank, random_pure, zheevr_top

#: Whether numpy's OpenBLAS has every routine of `linalg.tridiagonal_form`.
TRIDIAGONAL = tridiagonal_form(np.eye(2, dtype=complex)) is not None

I2 = np.eye(2, dtype=complex)
BELL_RHO = to_density(ghz(2)).matrix


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_basis_projectors():
    out = kron(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_of_bell_pairs_matches_bell_product_state():
    direct = to_density(bell_product(2)).matrix
    assert np.max(np.abs(kron(BELL_RHO, BELL_RHO) - direct)) < 1e-12


def test_kron_associative_and_trace_multiplicative():
    rng = np.random.default_rng(7)
    # bit-exact associativity on dyadic entries, where products do not round
    dyadic = [
        (np.round(rng.standard_normal((2, 2)) * 8) / 8).astype(complex) for _ in range(3)
    ]
    a, b, c = dyadic
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    for _ in range(10):
        a = random_density(rng, 1)
        b = random_density(rng, 2)
        c = random_density(rng, 1)
        lhs, rhs = kron(kron(a, b), c), kron(a, kron(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-15
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_size_cap():
    big = np.zeros((256, 256), dtype=complex)
    with pytest.raises(SizeCapError):
        kron(big, big)


def test_partial_trace_bell_pair():
    out = partial_trace(BELL_RHO, 2, (0,))
    assert np.max(np.abs(out - I2 / 2)) < 1e-12


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(rng, 1)
        sigma = random_density(rng, 2)
        out = partial_trace(kron(rho, sigma), 3, (0,))
        assert np.max(np.abs(out - rho)) < 1e-12


def test_partial_trace_uniform_entangled_half_is_maximally_mixed():
    from qcorr import uniform_entangled

    rho = to_density(uniform_entangled(2)).matrix
    out = partial_trace(rho, 4, (0, 1))
    assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(19)
    m = random_density(rng, 3)
    out = partial_trace(m, 3, (1, 2))
    assert abs(np.trace(out) - np.trace(m)) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_partial_trace_all_qubits_gives_trace():
    rng = np.random.default_rng(23)
    m = random_density(rng, 2)
    out = partial_trace(m, 2, ())
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_keep_order_is_respected():
    rng = np.random.default_rng(29)
    m = random_density(rng, 3)
    forward = partial_trace(m, 3, (0, 2))
    swapped = partial_trace(m, 3, (2, 0))
    # swapping the keep list conjugates by the 2-qubit swap
    sw = np.zeros((4, 4))
    sw[0, 0] = sw[3, 3] = sw[1, 2] = sw[2, 1] = 1.0
    assert np.max(np.abs(swapped - sw @ forward @ sw)) < 1e-12


def test_partial_trace_rejects_bad_keep():
    with pytest.raises(IndexError):
        partial_trace(BELL_RHO, 2, (2,))
    with pytest.raises(IndexError):
        partial_trace(BELL_RHO, 2, (0, 0))


def test_permute_identity_is_noop():
    s = bell_product(2)
    out = permute_qubits(s, (0, 1, 2, 3))
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_permute_symmetric_label_fixed_point():
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = 1.0
    out = permute_qubits(PureState(4, amps), (0, 2, 1, 3))
    assert np.array_equal(out.amplitudes, amps)


def test_permute_bit_semantics_against_integer_oracle():
    # qubit k moves to position perm[k]; check amplitude mapping by hand
    amps = (np.arange(8) + 1.0).astype(complex)
    amps /= np.linalg.norm(amps)
    out = permute_qubits(PureState(3, amps), (1, 2, 0))
    for j in range(8):
        j0, j1, j2 = (j >> 2) & 1, (j >> 1) & 1, j & 1
        i = 4 * j1 + 2 * j2 + j0
        assert out.amplitudes[j] == amps[i]


def test_permute_inverse_round_trip_bit_exact():
    rng = np.random.default_rng(31)
    perm = [3, 0, 4, 1, 2]
    inverse = [perm.index(i) for i in range(5)]
    s = PureState(5, random_pure(rng, 5))
    out = permute_qubits(permute_qubits(s, perm), inverse)
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_permute_rejects_malformed():
    s = ghz(3)
    with pytest.raises(ValueError):
        permute_qubits(s, (0, 1, 1))
    with pytest.raises(ValueError):
        permute_qubits(s, (0, 1))


def test_permute_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        permute_qubits(ghz(3), (0.5, 1, 2))


def _operator(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """An n-qubit density matrix: a random one of full or of exact rank, a
    normalised projector onto basis states, or a reduction of Bell pairs or
    of `uniform_entangled` onto random qubits; the last three have
    degenerate spectra."""
    dim = 1 << n
    if kind == "random":
        return random_density(rng, n)
    if kind == "rank":
        return random_of_rank(rng, n, int(rng.integers(1, dim + 1)))
    if kind == "eye":
        return projector(n, int(rng.integers(1, dim + 1)))
    pairs = int(rng.integers((n + 1) // 2, 7))  # 12 qubits at most
    state = bell_product(pairs) if kind == "bellpairs" else uniform_entangled(pairs)
    keep = rng.permutation(2 * pairs)[:n]
    return reduced_operator(state, [int(q) for q in keep]).matrix


@pytest.mark.skipif(
    ZHEEVR is None or not TRIDIAGONAL,
    reason="numpy's LAPACK lacks zheevr or a routine of the tridiagonal route",
)
@settings(deadline=None, max_examples=30)
@given(
    kind=st.sampled_from(["random", "rank", "eye", "bellpairs", "ue"]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="rank", n=10, seed=32)
@example(kind="ue", n=10, seed=0)
def test_one_reduction_gives_eigvalsh_and_zheevr_bit_for_bit(kind, n, seed):
    # One zhetrd feeds both: its dsterf spectrum must be np.linalg.eigvalsh's
    # (zheevd), and its top r pairs a zheevr RANGE='I' call's, at r the rank
    # or half the dimension, whichever is smaller. The pairs come unsorted,
    # so they are compared as a set of (value, vector) bytes.
    m = _operator(kind, n, np.random.default_rng(seed))
    sym = (m + m.conj().T) / 2
    spectrum = np.linalg.eigvalsh(sym)
    r = max(1, min(int(np.count_nonzero(spectrum > RANK_THRESHOLD)), len(m) // 2))
    want = zheevr_top(sym, r)
    form = tridiagonal_form(sym.copy())
    assert form.eigenvalues().tobytes() == spectrum.tobytes()
    got = form.top_eigenpairs(r)
    pairs = [
        sorted(values[i].tobytes() + vectors[:, i].tobytes() for i in range(len(values)))
        for values, vectors in (got, want)
    ]
    assert len(got[0]) == r and pairs[0] == pairs[1]


@pytest.mark.skipif(not TRIDIAGONAL, reason="numpy's LAPACK lacks a tridiagonal routine")
def test_the_tridiagonal_route_declines_what_lapack_would_scale():
    # zheevr scales a matrix whose largest entry exceeds about 8e76, or lies
    # below about 1e-146, before its reduction; such a matrix gets no
    # reduction here, so its callers fall back on eigvalsh and eigh.
    huge = np.array([[0.5, 1e80], [1e80, 0.5]], dtype=complex)
    inside = np.array([[0.5, 1e70], [1e70, 0.5]], dtype=complex)
    tiny = np.diag([1e-150, 1e-150]).astype(complex)
    assert tridiagonal_form(huge) is None
    assert tridiagonal_form(tiny) is None
    assert tridiagonal_form(inside) is not None


def test_kron_and_partial_trace_reject_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError) as raised:
        kron(np.ones((2, 3)), I2)
    assert str(raised.value) == "expected a square matrix, got shape (2, 3)"
    with pytest.raises(ValueError) as raised:
        partial_trace(BELL_RHO, 3, (0,))
    assert str(raised.value) == "matrix shape (4, 4) does not match 3 qubits (dim 8)"


@pytest.mark.skipif(not TRIDIAGONAL, reason="numpy's LAPACK lacks a tridiagonal routine")
def test_a_lapack_error_or_short_count_raises_linalg_error(monkeypatch):
    # Stand-ins for the routines report what LAPACK would on failure: a
    # nonzero INFO from dsterf, and dstebz finding one eigenvalue fewer.
    a = validate_density(random_density(np.random.default_rng(31), 3), 3).matrix

    def failing_dsterf(n, d, e, info):
        info._obj.value = 2

    monkeypatch.setattr(qcorr.linalg, "_DSTERF", failing_dsterf)
    with pytest.raises(np.linalg.LinAlgError, match=r"^dsterf returned info 2$"):
        tridiagonal_form(a.copy()).eigenvalues()
    real_dstebz = qcorr.linalg._DSTEBZ

    def short_dstebz(*args):
        real_dstebz(*args)
        args[10]._obj.value -= 1  # M, the count found

    monkeypatch.setattr(qcorr.linalg, "_DSTEBZ", short_dstebz)
    with pytest.raises(np.linalg.LinAlgError, match=r"^dstebz found 2 of 3 eigenvalues$"):
        tridiagonal_form(a.copy()).top_eigenpairs(3)
