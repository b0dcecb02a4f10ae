"""A low-rank operator's cut entropies and purification from its one
reduction.

An operator is reduced to tridiagonal form once, when its spectrum is first
read. If its rank r is at most 2^floor(n/2) and every other eigenvalue lies
within `ENTROPY_EIG_FLOOR` of 0, it keeps its r largest eigenpairs as its
factor. Its spectral purification is then a table of amplitudes on
n + ceil(log2 r) qubits, and each reduction's spectrum is a cut of that
table, solved as a pure state's cuts are; `purify` reads the same pairs.
These tests check:
- those cuts, descending, against the dense oracle in `helpers`;
- the rule on each side of `ENTROPY_EIG_FLOOR` and `RANK_THRESHOLD`, and at
  each of them exactly;
- that one LAPACK zhetrd serves a whole validate, decompose and purify
  sequence.
"""

import itertools

import numpy as np
import pytest

import qcorr.correlation
import qcorr.lapack
from qcorr import (
    DensityOperator,
    bell_product,
    decompose_rows,
    enumerate_bipartitions,
    ghz,
    purify,
    reduced_operator,
    spectral_rank,
    uniform_entangled,
    validate_density,
    von_neumann_entropy,
)
from qcorr.correlation import _cut_spectra
from qcorr.lapack import TridiagonalForm
from qcorr.states import ENTROPY_EIG_FLOOR, RANK_THRESHOLD
from helpers import (
    block_reduced,
    brute_reduced,
    entropy_oracle,
    random_of_rank,
    random_unitary,
    spy,
)

TOL = 1e-12

#: Whether numpy's OpenBLAS has every routine of `lapack.tridiagonal_form`;
#: without one, no operator keeps a factor.
TRIDIAGONAL = qcorr.lapack.tridiagonal_form(np.eye(2, dtype=complex)) is not None
needs_lapack = pytest.mark.skipif(not TRIDIAGONAL, reason="numpy's LAPACK lacks a routine")


def _of_spectrum(seed: int, n: int, values) -> np.ndarray:
    """u diag(values) u^dagger for a random unitary u, made Hermitian."""
    u = random_unitary(np.random.default_rng(seed), 2**n)
    padded = np.zeros(2**n)
    padded[: len(values)] = values
    m = (u * padded) @ u.conj().T
    return (m + m.conj().T) / 2


def _with_edge(seed: int, edge: float) -> np.ndarray:
    """A 6-qubit operator of four eigenvalues well above `RANK_THRESHOLD`
    and a fifth, `edge`, that the rule must place."""
    return _of_spectrum(seed, 6, [0.4, 0.3, 0.2, 0.1 - edge, edge])


#: id: (matrix maker, whether the operator keeps a factor). Exact ranks 1,
#: 2, 2^floor(n/2), 2^floor(n/2) + 1 and 2^n; degenerate spectra; and one
#: eigenvalue at half and at twice each tolerance of the rule.
CASES = {
    **{
        f"n{n}r{r}": (lambda n=n, r=r: random_of_rank(600 + 10 * n + r, n, r), r <= 1 << (n // 2))
        for n in (3, 5, 8)
        for r in sorted({1, 2, 1 << (n // 2), (1 << (n // 2)) + 1, 1 << n})
    },
    "flat8-n6": (lambda: _of_spectrum(611, 6, np.full(8, 1 / 8)), True),
    "flat9-n6": (lambda: _of_spectrum(612, 6, np.full(9, 1 / 9)), False),
    "two-levels-n7": (lambda: _of_spectrum(613, 7, [0.3, 0.3, 0.2, 0.2]), True),
    "ue3-abcd": (lambda: reduced_operator(uniform_entangled(3), (0, 1, 2, 3)).matrix, True),
    "ghz6-abcd": (lambda: reduced_operator(ghz(6), (0, 1, 2, 3)).matrix, True),
    "bellpairs4-abce": (lambda: reduced_operator(bell_product(4), (0, 1, 2, 4)).matrix, True),
    "floor-half": (lambda: _with_edge(621, 0.5 * ENTROPY_EIG_FLOOR), True),
    "floor-twice": (lambda: _with_edge(622, 2 * ENTROPY_EIG_FLOOR), False),
    "threshold-half": (lambda: _with_edge(623, 0.5 * RANK_THRESHOLD), False),
    "threshold-twice": (lambda: _with_edge(624, 2 * RANK_THRESHOLD), True),
    # a negative eigenvalue past the floor moves the reductions as much
    "negative-floor-twice": (lambda: _with_edge(625, -2 * ENTROPY_EIG_FLOOR), False),
}


def _subsets(n: int) -> list[tuple[int, ...]]:
    """Every nonempty proper subset up to 6 qubits; past that, every one of
    1, 2, n-2 and n-1 qubits and 8 seeded ones of each other size."""
    rng = np.random.default_rng(630 + n)
    out = []
    for k in range(1, n):
        sized = list(itertools.combinations(range(n), k))
        if n > 6 and 2 < k < n - 2:
            sized = [sized[i] for i in rng.choice(len(sized), 8, replace=False)]
        out += [tuple(rng.permutation(subset).tolist()) for subset in sized]
    return out


def test_the_block_oracle_is_the_brute_oracle():
    m = random_of_rank(640, 4, 3)
    for subset in [(0,), (2, 1), (3, 0, 2), ()]:
        assert np.max(np.abs(block_reduced(m, 4, subset) - brute_reduced(m, 4, subset))) <= 1e-15


@needs_lapack
@pytest.mark.parametrize("case", CASES)
def test_every_cut_matches_the_dense_oracle(case, monkeypatch):
    make, keeps_factor = CASES[case]
    m = make()
    n = len(m).bit_length() - 1
    rho = validate_density(m, n)
    assert (rho._factor is not None) == keeps_factor
    traced = spy(monkeypatch, qcorr.correlation, "partial_trace")
    subsets = _subsets(n)
    got = _cut_spectra(rho, subsets)
    assert (not traced) == keeps_factor  # the factor route traces nothing
    for subset, (values, entropy) in zip(subsets, got):
        reduced = block_reduced(rho.matrix, n, sorted(subset))
        want = np.linalg.eigvalsh((reduced + reduced.conj().T) / 2)
        # descending; a cut of the factor's table holds 2^min(|A|, n + a - |A|)
        # values, the rest of the dense spectrum being 0
        assert len(values) <= len(want) and np.all(np.diff(values) <= 0), subset
        padded = np.zeros(len(want))
        padded[: len(values)] = values
        assert np.max(np.abs(padded[::-1] - want)) <= TOL, subset
        assert abs(entropy - entropy_oracle(reduced)) <= TOL, subset


@needs_lapack
def test_the_factor_is_read_only_and_the_form_is_not_kept():
    rho = validate_density(random_of_rank(641, 6, 3), 6)
    values, vectors = rho._factor
    assert values.shape == (3,) and vectors.shape == (64, 3)
    assert not values.flags.writeable and not vectors.flags.writeable
    assert not any(isinstance(v, TridiagonalForm) for v in vars(rho).values())


@needs_lapack
def test_the_whole_register_is_reduced_first_and_one_cut_alone_is_traced(monkeypatch):
    # A call that reads the whole register fills the factor before its cuts,
    # so an uncached operator's rows trace nothing; a lone subset of an
    # uncached operator is traced, not bought with a full reduction.
    n, m = 6, random_of_rank(642, 6, 4)
    traced = spy(monkeypatch, qcorr.correlation, "partial_trace")
    decompose_rows(DensityOperator(n, m), enumerate_bipartitions(n))
    assert traced == []
    rho = DensityOperator(n, m)
    von_neumann_entropy(rho, (0, 2))
    assert len(traced) == 1 and "spectrum" not in vars(rho)


def _count_solves(monkeypatch) -> dict[str, list]:
    """zhetrd's solves (all its calls but the workspace query, whose ninth
    argument, LWORK, is -1), `TridiagonalForm.top_eigenpairs` and
    `np.linalg.eigh` calls, from here on."""
    return {
        "zhetrd": spy(monkeypatch, qcorr.lapack, "_ZHETRD", lambda *a: a[8]._obj.value != -1),
        "pairs": spy(monkeypatch, TridiagonalForm, "top_eigenpairs", lambda *a: True),
        "eigh": spy(monkeypatch, np.linalg, "eigh", lambda *a: True),
    }


def _counts(calls) -> dict[str, int]:
    return {name: sum(seen) for name, seen in calls.items()}


@needs_lapack
def test_validate_decompose_and_purify_share_one_reduction(monkeypatch):
    n, m = 8, random_of_rank(643, 8, 4)
    calls = _count_solves(monkeypatch)
    rho = validate_density(m, n)
    decompose_rows(rho, enumerate_bipartitions(n))
    result = purify(rho)
    assert result.ancilla_qubits == 2
    assert _counts(calls) == {"zhetrd": 1, "pairs": 1, "eigh": 0}


@needs_lapack
@pytest.mark.parametrize("r", [1, 2, 7, 8, 9, 16, 31, 32, 33, 64])
def test_an_uncached_purify_reduces_once_at_every_rank(r, monkeypatch):
    # 6 qubits: a factor up to r = 8; above it, up to 2r = 64, purify reads
    # its pairs from the reduction that gave the spectrum, then eigh
    m = random_of_rank(650 + r, 6, r)
    calls = _count_solves(monkeypatch)
    purify(DensityOperator(6, m))
    subset = 2 * r <= 64
    assert _counts(calls) == {"zhetrd": 1, "pairs": int(subset), "eigh": int(not subset)}


@pytest.mark.parametrize("r", [1, 3, 8, 9, 32, 64])
def test_purify_after_validation_is_purify_of_a_fresh_operator_bit_for_bit(r):
    m = random_of_rank(660 + r, 6, r)
    validated, fresh = purify(validate_density(m, 6)), purify(DensityOperator(6, m))
    assert validated.purified.amplitudes.tobytes() == fresh.purified.amplitudes.tobytes()
    assert validated.residual == fresh.residual
    assert validated.ancilla_qubits == fresh.ancilla_qubits


@needs_lapack
@pytest.mark.parametrize("offset", [-0.99e-10, 0.99e-10])
def test_a_trace_off_one_within_tolerance_keeps_its_factor_unrenormalised(offset):
    # The factor's purification keeps the operator's trace as its norm,
    # which PureState would refuse beyond NORM_TOL; the route builds none.
    n = 6
    m = random_of_rank(670, n, 4) * (1 + offset)
    rho = validate_density(m, n)
    assert rho._factor is not None
    subsets = _subsets(n)
    for subset, (_, entropy) in zip(subsets, _cut_spectra(rho, subsets)):
        assert abs(entropy - entropy_oracle(block_reduced(m, n, sorted(subset)))) <= TOL
    decompose_rows(rho, enumerate_bipartitions(n))
    # purify renormalises, so its residual is the trace's offset, halved
    assert purify(rho).residual <= abs(offset)


def test_an_eigenvalue_exactly_at_the_rank_threshold_is_not_counted():
    # "at or below this threshold" is noise: the rank counts 1, not 2
    rho = DensityOperator(1, np.diag([1 - RANK_THRESHOLD, RANK_THRESHOLD]))
    assert rho.spectrum.tolist() == [RANK_THRESHOLD, 1 - RANK_THRESHOLD]
    assert spectral_rank(rho) == 1


@needs_lapack
def test_an_eigenvalue_exactly_at_the_rank_threshold_keeps_no_factor():
    # Not counted in the rank (3), and beyond the floor, so the three pairs
    # would drop it: no factor. Counted (rank 4 <= 2^2), it would leave zeros.
    values = np.zeros(16)
    values[:4] = [0.5, 0.3, 0.2 - RANK_THRESHOLD, RANK_THRESHOLD]
    rho = DensityOperator(4, np.diag(values))
    assert RANK_THRESHOLD in rho.spectrum and spectral_rank(rho) == 3
    assert rho._factor is None


@needs_lapack
def test_an_eigenvalue_exactly_at_the_entropy_floor_keeps_the_factor():
    # "at or below this floor contribute nothing": the rank-2 factor may drop it
    rho = DensityOperator(2, np.diag([0.5, 0.5 - ENTROPY_EIG_FLOOR, ENTROPY_EIG_FLOOR, 0]))
    assert ENTROPY_EIG_FLOOR in rho.spectrum
    assert rho._factor is not None and len(rho._factor[0]) == 2
