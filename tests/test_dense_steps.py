"""Dense operator steps: one working matrix each, the same bits as before.

Each step below once built two or three temporaries the size of the
matrix. The peaks are traced with `tracemalloc`, which sees numpy's
allocations, on a 10-qubit operator (16 MiB); the values are compared bit
for bit with the plain expressions the steps replaced.
"""

import re
import tracemalloc

import numpy as np
import pytest

from qcorr import DensityOperator, NotHermitianError, Partition, is_product_across, partial_trace
from qcorr.states import _symmetrize
from helpers import random_density

N = 10


@pytest.fixture(scope="module")
def rho10():
    return random_density(np.random.default_rng(1010), N)


def traced_peak(call):
    """Peak of traced allocations while `call` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_symmetrize_allocates_one_matrix(rho10):
    peak, out = traced_peak(lambda: _symmetrize(rho10))
    assert peak < 1.25 * rho10.nbytes  # (m + m^dagger) / 2 took 2 matrices
    assert out.shape == rho10.shape


def test_density_operator_check_allocates_one_matrix_and_a_half(rho10):
    m = rho10.copy()
    peak, _ = traced_peak(lambda: DensityOperator(N, m))
    assert peak < 1.75 * m.nbytes  # |m - m^dagger| took 2.5 matrices


def test_product_check_allocates_one_matrix(rho10):
    rho = DensityOperator(N, rho10.copy())
    part = Partition.complement((7, 2, 4), N)
    peak, _ = traced_peak(lambda: is_product_across(rho, part))
    assert peak < 1.25 * rho10.nbytes  # the permuted outer product took 3


def test_symmetrize_and_its_solves_keep_their_bits():
    rng = np.random.default_rng(256)
    m = random_density(rng, 8)
    m = m + 1e-13 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    before = (m + m.conj().T) / 2.0
    after = _symmetrize(m)
    assert np.array_equal(after, before)
    assert np.array_equal(np.linalg.eigvalsh(after), np.linalg.eigvalsh(before))
    for got, want in zip(np.linalg.eigh(after), np.linalg.eigh(before)):
        assert np.array_equal(got, want)


def test_product_distance_keeps_its_bits():
    n, a, b = 6, (4, 1), (0, 2, 3, 5)
    m = random_density(np.random.default_rng(66), n)
    rho = DensityOperator(n, m)
    # The distance as computed before: the outer product permuted back into
    # rho's axis order, then subtracted from rho.
    rho_a = partial_trace(m, n, a).reshape((2,) * (2 * len(a)))
    rho_b = partial_trace(m, n, b).reshape((2,) * (2 * len(b)))
    held = [*a, *(n + q for q in a), *b, *(n + q for q in b)]
    product = np.multiply.outer(rho_a, rho_b).transpose(np.argsort(held))
    distance = float(np.linalg.norm(m - product.reshape(m.shape)))
    assert distance > 1e-3
    part = Partition(a, b)
    assert is_product_across(rho, part, tol=distance)
    assert not is_product_across(rho, part, tol=np.nextafter(distance, 0.0))


def test_hermiticity_defect_is_reported_as_before():
    m = random_density(np.random.default_rng(3), 3)
    m[5, 2] += 3.7e-9
    want = float(np.max(np.abs(m - m.conj().T)))
    with pytest.raises(NotHermitianError, match=re.escape(f"is {want:.3e},")):
        DensityOperator(3, m)


def test_partial_trace_never_aliases_its_input():
    m = random_density(np.random.default_rng(4), 3)
    for keep in [(0, 1, 2), (2, 0, 1), (1,), (2, 0), ()]:
        assert not np.shares_memory(partial_trace(m, 3, keep), m), keep
