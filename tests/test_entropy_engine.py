"""The one entropy entry point, `von_neumann_entropy(state, subset)`.

A pure state, and a low-rank operator through its factor's purification,
are reduced as cuts of one table of amplitudes; other operators through the
partial trace. These tests check that the routes agree with each other and
with the brute-force oracle in `helpers`, that subsets are validated on
both state types, that a rank-1 operator shares one solve between a cut's
two sides as a pure state does, and that an operator's memo diagonalises
each reduction once and gives a subset's entropy the same in any qubit
order.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.correlation
import qcorr.lapack
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
    to_density,
    total_correlation,
    validate_density,
    von_neumann_entropy,
)
from qcorr.correlation import _cut_spectra
from helpers import (
    brute_reduced,
    entropy_oracle,
    pure_states,
    random_density,
    random_pure,
    spy,
    subsets,
)

TOL = 1e-10


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
    # The whole operator is reduced once: by zhetrd where numpy's LAPACK
    # has it (its workspace query, LWORK -1 in the ninth argument, is no
    # solve), by eigvalsh where not. A full-rank operator keeps no factor,
    # so each cut is traced and solved once too.
    n = 6
    m = random_density(np.random.default_rng(61), n)
    shapes = spy(monkeypatch, np.linalg, "eigvalsh", lambda a, *_, **__: a.shape)
    reductions = []
    if qcorr.lapack._ZHETRD is not None:
        spy(monkeypatch, qcorr.lapack, "_ZHETRD", lambda *a: a[8]._obj.value != -1, reductions)
    rho = validate_density(m, n)
    cut = Partition((4, 1), (0, 2, 3, 5))
    decompose(rho, cut)
    decompose(rho, Partition((5, 0, 3), (1, 2, 4)))
    index_of_correlation(rho, cut)
    araki_lieb_check(rho, cut)
    total_correlation(rho)
    is_product_across(rho, cut)
    spectral_rank(rho)
    assert sum(reductions) + shapes.count((64, 64)) == 1
    # six single qubits and each side of the two cuts
    assert sorted(shape for shape in shapes if shape != (64, 64)) == sorted(
        [(2, 2)] * n + [(4, 4), (16, 16)] + [(8, 8)] * 2
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


@pytest.mark.skipif(qcorr.lapack._ZHETRD is None, reason="numpy's LAPACK lacks zhetrd")
def test_a_rank_one_operator_solves_a_cut_and_its_complement_once(monkeypatch):
    # to_density(psi) is its own factor with no ancilla, so a cut and its
    # complement share one key and one level solve, as on psi
    rho = to_density(PureState(5, random_pure(np.random.default_rng(90), 5)))
    rho.spectrum
    assert rho._factor is not None
    solves = spy(monkeypatch, qcorr.correlation, "_level_probs", lambda amps, n, sides: len(sides))
    assert von_neumann_entropy(rho, (0, 3)) == von_neumann_entropy(rho, (1, 2, 4))
    assert solves == [1]


@pytest.mark.parametrize("n", range(1, 9))
def test_a_pure_state_and_its_density_agree_at_every_cut(n):
    psi = PureState(n, random_pure(np.random.default_rng(91 + n), n))
    every = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    pure, dense = _cut_spectra(psi, every), _cut_spectra(to_density(psi), every)
    for subset, (p, s_pure), (v, s_dense) in zip(every, pure, dense):
        assert abs(s_pure - s_dense) <= 1e-12, subset
        # both descending; the longer entry's tail is zero
        short, long = sorted([p, v], key=len)
        assert np.max(np.abs(long[: len(short)] - short)) <= 1e-12, subset
        assert np.max(np.abs(long[len(short) :]), initial=0.0) <= 1e-12, subset
