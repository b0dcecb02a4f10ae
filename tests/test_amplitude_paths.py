"""Pure-state reductions computed from the amplitudes, checked against dense paths.

`reduced_operator`, the product-across flag of the report, the purification
residual and the maximally-correlated flag never build the 4^n density
operator of a pure state. These tests compare each with the brute-force
oracle in `helpers` or with the dense mixed-state API.
"""

import math

import numpy as np
import pytest

import qcorr
import qcorr.purification
import qcorr.report
import qcorr.states
from qcorr import (
    DensityOperator,
    Partition,
    PureState,
    bell_product,
    enumerate_bipartitions,
    ghz,
    ghz_block_product,
    is_maximally_correlated_purification,
    is_product_across,
    permute_qubits,
    purify,
    reduced_operator,
    subsystem_entropies,
    to_density,
    total_correlation,
    uniform_entangled,
    validate_density,
)
from qcorr.cli import main
from qcorr.partitions import _product_flags
from helpers import brute_reduced, random_density, random_pure, svd_schmidt_probs

LN2 = math.log(2)


def test_reduced_operator_matches_brute_force_unsorted_subsets():
    rng = np.random.default_rng(101)
    for n in range(1, 7):
        s = PureState(n, random_pure(rng, n))
        dense = to_density(s).matrix
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            subset = tuple(int(q) for q in rng.permutation(n)[:size])
            got = reduced_operator(s, subset)
            assert got.n_qubits == size
            want = brute_reduced(dense, n, subset)
            assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_reduced_operator_rejects_bad_subsets():
    s = ghz(3)
    for bad in [(0, 0), (3,), (-1,)]:
        with pytest.raises(IndexError):
            reduced_operator(s, bad)


def _all_cuts_agree(s: PureState) -> None:
    rho = to_density(s)
    for part in enumerate_bipartitions(s.n_qubits):
        for alpha, beta in [(part.alpha, part.beta), (part.beta[::-1], part.alpha)]:
            probs = svd_schmidt_probs(s.amplitudes, s.n_qubits, alpha)
            assert _product_flags([probs])[0] == is_product_across(rho, Partition(alpha, beta))


def test_product_flag_agrees_with_dense_check_on_named_states():
    _all_cuts_agree(bell_product(3))
    _all_cuts_agree(ghz_block_product(3))
    # the block cut is the only product cut of two GHZ blocks
    s = ghz_block_product(3)
    flags = _product_flags(
        [svd_schmidt_probs(s.amplitudes, 6, p.alpha) for p in enumerate_bipartitions(6)]
    )
    assert sum(flags) == 1


def test_product_flag_agrees_with_dense_check_on_random_and_permuted_states():
    rng = np.random.default_rng(103)
    for n in range(2, 6):
        _all_cuts_agree(PureState(n, random_pure(rng, n)))
    # random product states with their qubits shuffled across the register
    for n_a, n_b in [(1, 2), (2, 2), (2, 3)]:
        amps = np.kron(random_pure(rng, n_a), random_pure(rng, n_b))
        n = n_a + n_b
        s = permute_qubits(PureState(n, amps), [int(q) for q in rng.permutation(n)])
        _all_cuts_agree(s)


def _marginal_total_correlation(rho: DensityOperator, result) -> float:
    """Total correlation of a purification from dense single-qubit marginals.

    The purified state is pure, so its total correlation is the sum of the
    single-qubit entropies of the system (marginals of rho) and of the
    ancilla register, whose reduction is T^T conj(T) for the amplitude
    table T (system index by ancilla index).
    """
    n, k = rho.n_qubits, result.ancilla_qubits
    table = result.purified.amplitudes.reshape(1 << n, 1 << k)
    anc = DensityOperator(k, table.T @ table.conj())
    return sum(subsystem_entropies(rho)) + sum(subsystem_entropies(anc))


def test_purify_seven_qubit_rank_32_operator():
    rng = np.random.default_rng(107)
    # reduction of a random 12-qubit state onto 7 qubits: rank 32
    random_op = reduced_operator(PureState(12, random_pure(rng, 12)), range(7))
    # maximally mixed on 5 qubits times a Bell pair: rank 32, every marginal I/2
    mixed_bell = validate_density(
        np.kron(np.eye(32) / 32, to_density(ghz(2)).matrix), 7
    )
    for rho, maximal in [(random_op, False), (mixed_bell, True)]:
        result = purify(rho)
        assert result.ancilla_qubits == 5
        assert result.purified.n_qubits == 12
        assert result.residual <= 1e-10
        flag = is_maximally_correlated_purification(result)
        dense = _marginal_total_correlation(rho, result)
        assert flag == (abs(dense - 12 * LN2) <= qcorr.purification.MAXCORR_TOL)
        assert flag is maximal


def test_maximal_flag_matches_dense_total_correlation():
    rng = np.random.default_rng(109)
    inputs = [
        reduced_operator(ghz(4), (0, 1)),
        reduced_operator(uniform_entangled(2), (1, 0)),
        validate_density(np.eye(4) / 4, 2),
        to_density(ghz(3)),
        validate_density(random_density(rng, 2), 2),
        reduced_operator(PureState(5, random_pure(rng, 5)), (4, 1, 2)),
    ]
    for rho in inputs:
        result = purify(rho)
        dense = total_correlation(to_density(result.purified))
        n_total = result.purified.n_qubits
        want = abs(dense - n_total * LN2) <= qcorr.purification.MAXCORR_TOL
        assert is_maximally_correlated_purification(result) == want


@pytest.mark.parametrize("state", ["bellpairs:3", "ghzblocks:3"])
def test_cli_pure_paths_build_no_density_operator(monkeypatch, capsys, state):
    def refuse(*args, **kwargs):
        raise AssertionError("to_density called on a CLI path")

    for module in (qcorr.states, qcorr.report, qcorr.purification):
        monkeypatch.setattr(module, "to_density", refuse, raising=False)
    runs = [
        ["purify", "--state", state, "--subset", "ab", "--json"],
        ["purify", "--state", state, "--subset", "0,3,5"],
        ["sweep", "--state", state, "--json"],
        ["sweep", "--state", state],
        ["analyze", "--state", state, "--partition", "abc|def", "--json"],
        ["analyze", "--state", state, "--partition", "ab|cdef,ac|bdef"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
