"""The one entropy entry point, `von_neumann_entropy(state, subset)`.

Pure states are reduced through their Schmidt probabilities and operators
through the partial trace; these tests check that both routes agree with
each other and with the brute-force oracle in `helpers`, that subsets are
validated on both, and that an operator's memo diagonalises each reduction
once and gives a subset's entropy the same in any qubit order.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr import (
    DensityOperator,
    Partition,
    PureState,
    araki_lieb_check,
    decompose,
    ghz,
    index_of_correlation,
    is_product_across,
    spectral_rank,
    subset_entropy,
    to_density,
    total_correlation,
    validate_density,
    von_neumann_entropy,
)
from helpers import brute_reduced, entropy_oracle, random_density

TOL = 1e-10


@st.composite
def pure_states(draw, min_qubits=1, max_qubits=4):
    """Pure states from arbitrary real and imaginary parts, zeros included."""
    n = draw(st.integers(min_qubits, max_qubits))
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    re = np.array(draw(st.lists(parts, min_size=1 << n, max_size=1 << n)))
    im = np.array(draw(st.lists(parts, min_size=1 << n, max_size=1 << n)))
    amps = re + 1j * im
    norm = float(np.linalg.norm(amps))
    assume(norm > 1e-3)
    return PureState(n, amps / norm)


@st.composite
def subsets(draw, n, min_size=0, max_size=None):
    """A qubit subset of 0..n-1 in random (often unsorted) order."""
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(min_size, n if max_size is None else max_size))
    return tuple(order[:size])


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_pure_and_dense_routes_match_the_oracle(data):
    s = data.draw(pure_states())
    subset = data.draw(subsets(s.n_qubits))
    rho = to_density(s)
    got_pure = von_neumann_entropy(s, subset)
    got_dense = von_neumann_entropy(rho, subset)
    want = entropy_oracle(brute_reduced(rho.matrix, s.n_qubits, subset))
    assert abs(got_pure - got_dense) <= TOL
    assert abs(got_pure - want) <= TOL


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_operator_route_matches_the_oracle(n, seed, data):
    m = random_density(np.random.default_rng(seed), n)
    subset = data.draw(subsets(n))
    got = von_neumann_entropy(DensityOperator(n, m), subset)
    assert abs(got - entropy_oracle(brute_reduced(m, n, subset))) <= TOL


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_decompose_pure_matches_decompose_dense(data):
    s = data.draw(pure_states(min_qubits=2))
    alpha = data.draw(subsets(s.n_qubits, 1, s.n_qubits - 1))
    part = Partition.complement(alpha, s.n_qubits)
    got, want = decompose(s, part), decompose(to_density(s), part)
    for field in ("internal_alpha", "internal_beta", "external", "total"):
        assert abs(getattr(got, field) - getattr(want, field)) <= TOL, field


@pytest.mark.parametrize("bad", [(0, 0, 1, 1), (0, 0), (4,), (-1,)])
def test_bad_subsets_raise_index_error_naming_the_subset(bad):
    s = ghz(4)
    calls = [
        lambda: subset_entropy(s, bad),
        lambda: von_neumann_entropy(s, bad),
        lambda: von_neumann_entropy(to_density(s), bad),
    ]
    for call in calls:
        with pytest.raises(IndexError, match=re.escape(str(bad))):
            call()


def test_whole_register_in_any_order_is_the_total_entropy():
    s = ghz(4)
    assert von_neumann_entropy(s, (3, 1, 0, 2)) == von_neumann_entropy(s) == 0.0
    m = random_density(np.random.default_rng(5), 3)
    rho = DensityOperator(3, m)
    assert abs(von_neumann_entropy(rho, (2, 0, 1)) - von_neumann_entropy(rho)) <= TOL


def test_each_operator_is_diagonalised_once(monkeypatch):
    n = 6
    m = random_density(np.random.default_rng(61), n)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho = validate_density(m, n)
    cut = Partition((4, 1), (0, 2, 3, 5))
    decompose(rho, cut)
    decompose(rho, Partition((5, 0, 3), (1, 2, 4)))
    index_of_correlation(rho, cut)
    araki_lieb_check(rho, cut)
    total_correlation(rho)
    is_product_across(rho, cut)
    spectral_rank(rho)
    # the whole operator, six single qubits and each side of the two cuts
    assert sorted(shapes) == sorted(
        [(64, 64)] + [(2, 2)] * n + [(4, 4), (16, 16)] + [(8, 8)] * 2
    )


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_operator_memo_matches_the_oracle_in_any_order(n, seed, data):
    m = random_density(np.random.default_rng(seed), n)
    rho = DensityOperator(n, m)
    subsets = [
        tuple(data.draw(st.permutations([q for q in range(n) if mask >> q & 1])))
        for mask in range(1 << n)
    ]
    for i in data.draw(st.permutations(range(len(subsets)))):
        subset = subsets[i]
        got = von_neumann_entropy(rho, subset)
        assert abs(got - entropy_oracle(brute_reduced(m, n, subset))) <= 1e-12, subset
        # a fresh operator traces the sorted subset, not a memo hit
        assert got == von_neumann_entropy(DensityOperator(n, m), sorted(subset)), subset


def test_non_integer_qubits_are_rejected_not_truncated():
    s = ghz(3)
    for state in (s, to_density(s)):
        with pytest.raises(IndexError, match=re.escape("(0.5,)")):
            von_neumann_entropy(state, (0.5,))
