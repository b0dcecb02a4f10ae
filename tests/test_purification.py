"""Spectral rank, minimum ancilla count, and explicit purification."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import qcorr.linalg
import qcorr.purification
from qcorr import (
    DensityOperator,
    Partition,
    bell_product,
    decompose,
    ghz,
    is_maximally_correlated_purification,
    min_purifying_qubits,
    partial_trace,
    purify,
    reduced_operator,
    spectral_rank,
    to_density,
    total_correlation,
    uniform_entangled,
    validate_density,
    von_neumann_entropy,
)
from helpers import (
    projector,
    random_density,
    random_of_rank,
    random_unitary,
    reference_purification_table,
    spy,
    tilted_four_qubit,
)
from qcorr import PureState
from qcorr.purification import (
    LEAD_CUTOFF,
    MAXCORR_TOL,
    RANK_THRESHOLD,
    PurificationResult,
    top_eigenpairs,
)
from qcorr.states import hermitian_spectrum

LN2 = math.log(2)

#: The two solver routes of `purification.top_eigenpairs`.
ROUTES = ("eigh", "subset")

#: The LAPACK routines of `linalg.tridiagonal_form`, as numpy's OpenBLAS
#: exports them; without any one, `purify` takes `eigvalsh` and `eigh`.
TRIDIAGONAL_ROUTINES = ("_ZHETRD", "_DSTERF", "_DSTEBZ", "_ZSTEIN", "_ZUNMTR")
LAPACK_MISSING = [name for name in TRIDIAGONAL_ROUTINES if getattr(qcorr.linalg, name) is None]


def ghz_reduction():
    return reduced_operator(ghz(4), (0, 1))


def ue_reduction():
    return reduced_operator(uniform_entangled(2), (0, 1))


def test_spectral_rank_pure():
    assert spectral_rank(to_density(ghz(3))) == 1


def test_spectral_rank_ghz_reduction():
    assert spectral_rank(ghz_reduction()) == 2


def test_spectral_rank_maximally_mixed():
    assert spectral_rank(validate_density(np.eye(4) / 4, 2)) == 4


def test_min_purifying_qubits():
    assert min_purifying_qubits(ghz_reduction()) == 1
    assert min_purifying_qubits(ue_reduction()) == 2
    assert min_purifying_qubits(to_density(ghz(2))) == 0


def test_purify_ghz_reduction_gives_three_qubit_ghz():
    result = purify(ghz_reduction())
    assert result.ancilla_qubits == 1
    assert result.residual <= 1e-9
    # ancilla entropy equals the input entropy ln 2
    anc = partial_trace(to_density(result.purified).matrix, 3, (2,))
    assert abs(von_neumann_entropy(DensityOperator(1, anc)) - LN2) < 1e-9
    assert np.max(np.abs(result.purified.amplitudes - ghz(3).amplitudes)) < 1e-12


def test_purify_pure_input_returns_itself():
    bell = ghz(2)
    result = purify(to_density(bell))
    assert result.ancilla_qubits == 0
    assert np.max(np.abs(result.purified.amplitudes - bell.amplitudes)) < 1e-12
    assert result.residual <= 1e-9


def test_purify_maximally_mixed_two_qubits():
    result = purify(validate_density(np.eye(4) / 4, 2))
    assert result.ancilla_qubits == 2
    d = decompose(to_density(result.purified), Partition((0, 1), (2, 3)))
    assert abs(d.external - 4 * LN2) < 1e-8


def test_purify_round_trip_random():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = validate_density(random_density(rng, n), n)
        result = purify(rho)
        back = partial_trace(
            to_density(result.purified).matrix, result.purified.n_qubits, range(n)
        )
        assert np.max(np.abs(back - rho.matrix)) < 1e-9
        assert result.residual <= 1e-9


def test_purify_ancilla_entropy_matches_input_entropy():
    rng = np.random.default_rng(79)
    for _ in range(5):
        rho = validate_density(random_density(rng, 2), 2)
        result = purify(rho)
        n, k = 2, result.ancilla_qubits
        anc = partial_trace(
            to_density(result.purified).matrix, n + k, range(n, n + k)
        )
        s_anc = von_neumann_entropy(DensityOperator(k, anc))
        assert abs(s_anc - von_neumann_entropy(rho)) < 1e-8


def test_purify_is_deterministic():
    rng = np.random.default_rng(83)
    rho = validate_density(random_density(rng, 2), 2)
    a = purify(rho).purified.amplitudes
    b = purify(rho).purified.amplitudes
    assert np.array_equal(a, b)


def test_ancilla_count_tracks_rank():
    rng = np.random.default_rng(89)
    seen = set()
    for _ in range(20):
        # mix a random pure projector with noise to hit assorted ranks
        n = int(rng.integers(1, 3))
        lam = float(rng.uniform(0, 1))
        m = lam * random_density(rng, n) + (1 - lam) * np.eye(2**n) / 2**n
        rho = validate_density(m, n)
        rank = spectral_rank(rho)
        seen.add(rank)
        expected = 0 if rank == 1 else math.ceil(math.log2(rank))
        assert min_purifying_qubits(rho) == expected
        assert (min_purifying_qubits(rho) == 1) == (rank == 2)
    psi = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    assert spectral_rank(to_density(psi)) == 1
    rank2 = validate_density(np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex), 2)
    assert min_purifying_qubits(rank2) == 1
    rank3 = validate_density(np.diag([0.2, 0.3, 0.5, 0.0]).astype(complex), 2)
    assert min_purifying_qubits(rank3) == 2


def test_maximally_correlated_flags():
    assert is_maximally_correlated_purification(purify(ghz_reduction()))
    assert is_maximally_correlated_purification(purify(to_density(ghz(2))))
    # a non-boundary quantum-region reduction purifies to a non-maximal state
    tilted = PureState(4, tilted_four_qubit(math.pi / 8))
    red = reduced_operator(tilted, (0, 1))
    assert min_purifying_qubits(red) == 1
    assert not is_maximally_correlated_purification(purify(red))


@pytest.mark.parametrize(
    "make",
    [
        lambda: validate_density(np.eye(8) / 8, 3),
        lambda: reduced_operator(ghz(6), (0, 3)),
        lambda: reduced_operator(bell_product(4), (0, 2, 4)),
        lambda: validate_density(random_of_rank(101, 2, 2), 2),
        lambda: validate_density(random_of_rank(102, 3, 5), 3),
        lambda: validate_density(random_of_rank(103, 5, 32), 5),
        lambda: validate_density(random_of_rank(104, 7, 100), 7),
        lambda: validate_density(random_of_rank(105, 8, 256), 8),
        lambda: validate_density(random_of_rank(106, 9, 3), 9),
        lambda: validate_density(random_of_rank(107, 10, 1024), 10),
    ],
    ids=[
        "eye8", "ghz6-tie", "bellpairs4", "n2r2", "n3r5", "n5full", "n7r100",
        "n8full", "n9r3", "n10full",
    ],
)
def test_purify_matches_the_per_vector_sort_bit_for_bit(make):
    rho = make()
    got = purify(rho).purified.amplitudes
    assert got.tobytes() == reference_purification_table(rho.matrix).tobytes()


def _solved_as_given(monkeypatch, route, values, vectors):
    """(purify's amplitudes, the reference's) on an operator of rank r =
    len(values) whose solver on `route` returns `values` and `vectors`.

    "eigh" takes I/r, of rank r = dim, and patches `np.linalg.eigh`;
    "subset" takes diag(1/r, ..., 0, ...) of dimension 2r, puts a reduction
    that gives its spectrum and those pairs in place of
    `linalg.tridiagonal_form`, and pads each vector with r zero rows. The
    other solver raises, so the input must reach the patched one."""
    r = len(values)

    def other_solver(*args):
        raise AssertionError(f"{route} input reached the other solver")

    if route == "eigh":
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (values, vectors))
        monkeypatch.setattr(qcorr.linalg.TridiagonalForm, "top_eigenpairs", other_solver)
        rho = validate_density(np.eye(r) / r, r.bit_length() - 1)
    else:
        padded = np.vstack([vectors, np.zeros_like(vectors)])
        diag = np.concatenate([np.full(r, 1 / r), np.zeros(r)])
        given = SimpleNamespace(  # present on any BLAS
            eigenvalues=lambda: np.sort(diag), top_eigenpairs=lambda k: (values, padded)
        )
        monkeypatch.setattr(qcorr.purification, "tridiagonal_form", lambda a: given)
        monkeypatch.setattr(np.linalg, "eigh", other_solver)
        rho = validate_density(np.diag(diag).astype(complex), r.bit_length())
    return purify(rho).purified.amplitudes, reference_purification_table(rho.matrix)


def test_purify_breaks_full_ties_by_the_entries_as_the_reference_does(monkeypatch):
    # Four equal eigenvalues of unit eigenvectors whose leading entries have
    # assorted phases. Three have leading magnitude 0.5, so only their other
    # (re, im) entries can order them; the fourth, 1e-6, must still count
    # as leading. A solver rarely returns such exact ties, so each route's
    # is made to.
    top = np.array([0.5j, -0.5, 0.5 * np.exp(1j), 1e-6j])
    rng = np.random.default_rng(102)
    rest = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    rest *= np.sqrt(1 - np.abs(top) ** 2) / np.linalg.norm(rest, axis=0)
    vectors = np.vstack([top, rest])
    for route in ROUTES:
        got, want = _solved_as_given(monkeypatch, route, np.full(4, 0.25), vectors)
        assert got.tobytes() == want.tobytes(), route


def test_purify_fixes_any_leading_phase_as_the_reference_does(monkeypatch):
    # eigh's eigenvectors have a real first entry, so a general complex phase
    # is divided out only when that entry is 0 and the leading one lies below
    # it, here in rows 1 to 3. The phase must be computed as the reference's
    # scalar v[lead] / abs(v[lead]), bit for bit, at any such phase, on
    # either solver's route.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for col, lead in enumerate(rng.integers(1, 4, size=8)):
            vectors[:lead, col] = 0
        vectors /= np.linalg.norm(vectors, axis=0)
        values = np.sort(rng.random(8))
        values /= values.sum()
        for route in ROUTES:
            got, want = _solved_as_given(monkeypatch, route, values, vectors)
            assert got.tobytes() == want.tobytes(), (seed, route)


def _fifth_eigenvalue_at_the_threshold(rng):
    """A 3-qubit operator of rank 5 whose smallest nonzero eigenvalue lies
    within 1e-15 of `RANK_THRESHOLD`, where eigh and eigvalsh may disagree."""
    values = np.zeros(8)
    values[4] = 1e-10 * (1 + rng.uniform(-1e-5, 1e-5))
    values[:4] = rng.random(4)
    values[:4] *= (1 - values[4]) / values[:4].sum()
    u = random_unitary(rng, 8)
    return (u * values) @ u.conj().T


@pytest.mark.parametrize("spectrum_first", [False, True])
def test_purify_and_min_purifying_qubits_share_one_rank(spectrum_first):
    # Four of these 600 seeds (169, 177, 487, 534) put eigh and eigvalsh on
    # opposite sides of the threshold, so a rank from each gives 2 ancillas
    # against 3.
    for seed in range(600):
        rho = DensityOperator(3, _fifth_eigenvalue_at_the_threshold(np.random.default_rng(seed)))
        if spectrum_first:
            want = min_purifying_qubits(rho)
            result = purify(rho)
        else:
            result = purify(rho)
            want = min_purifying_qubits(rho)
        assert result.ancilla_qubits == want, seed
        assert result.purified.n_qubits == 3 + want, seed


def test_purify_orders_separate_tie_groups_by_their_entries(monkeypatch):
    # Eight unit eigenvectors, shuffled: three tie on (value, lead) = (0.2, 0),
    # one shares only the value (0.2, 1), two tie on (0.1, 2), and two share
    # only the value (0.05, 2) and (0.05, 3). Only the two tie groups are
    # ordered by their entries, so a run that starts or stops one column
    # off moves a vector. Leading magnitudes fall with the column, so each
    # group's order is the reverse of the solver's. Each leading entry's
    # phase is a power of i, which the vectorised phase fix and the
    # reference's per-vector one both divide out exactly.
    rng = np.random.default_rng(103)
    keys = [(0.2, 0), (0.1, 2), (0.05, 3), (0.2, 1), (0.2, 0), (0.05, 2), (0.1, 2), (0.2, 0)]
    vectors = np.zeros((8, 8), dtype=np.complex128)
    for col, (_, lead) in enumerate(keys):
        top = 0.9 - 0.1 * col
        rest = rng.standard_normal(7 - lead) + 1j * rng.standard_normal(7 - lead)
        vectors[lead, col] = top * 1j**col
        vectors[lead + 1 :, col] = rest * math.sqrt(1 - top * top) / np.linalg.norm(rest)
    values = np.array([value for value, _ in keys])
    for route in ROUTES:
        got, want = _solved_as_given(monkeypatch, route, values, vectors)
        assert got.tobytes() == want.tobytes(), route


#: Operators of rank at most half their dimension, and above it: random,
#: of exact rank, and with degenerate spectra.
ROUTE_CASES = {
    "eye8": lambda: validate_density(np.eye(8) / 8, 3),
    "eye-rank4-of16": lambda: validate_density(projector(4, 4), 4),
    "ghz6-a": lambda: reduced_operator(ghz(6), (0,)),
    "ghz6-abcd": lambda: reduced_operator(ghz(6), (0, 1, 2, 3)),
    "bellpairs3-abc": lambda: reduced_operator(bell_product(3), (0, 1, 2)),
    "bellpairs4-abce": lambda: reduced_operator(bell_product(4), (0, 1, 2, 4)),
    "bellpairs3-ace": lambda: reduced_operator(bell_product(3), (0, 2, 4)),
    "ue3-abcd": lambda: reduced_operator(uniform_entangled(3), (0, 1, 2, 3)),
    "ue2-ab": lambda: reduced_operator(uniform_entangled(2), (0, 1)),
    "n4r3": lambda: validate_density(random_of_rank(111, 4, 3), 4),
    "n6r32": lambda: validate_density(random_of_rank(112, 6, 32), 6),
    "n6r33": lambda: validate_density(random_of_rank(113, 6, 33), 6),
    "n7r100": lambda: validate_density(random_of_rank(114, 7, 100), 7),
    "n8r1": lambda: validate_density(random_of_rank(115, 8, 1), 8),
}


@pytest.mark.skipif(bool(LAPACK_MISSING), reason=f"numpy's LAPACK lacks {LAPACK_MISSING}")
@pytest.mark.parametrize("make", ROUTE_CASES.values(), ids=ROUTE_CASES.keys())
def test_the_subset_solve_and_eigh_purify_alike(make, monkeypatch):
    rho = make()
    n = rho.n_qubits
    results, values = [], []
    for hide in (False, True):  # the subset route where 2r <= dim, then eigh
        if hide:
            monkeypatch.setattr(qcorr.linalg, "_ZHETRD", None)
        values.append(top_eigenpairs(DensityOperator(n, rho.matrix))[0])
        results.append(purify(rho))
    # each route returns its pairs in its own order
    assert np.max(np.abs(np.sort(values[0]) - np.sort(values[1]))) <= 1e-14
    subset, full = results
    assert subset.ancilla_qubits == full.ancilla_qubits
    flags = [is_maximally_correlated_purification(x) for x in results]
    assert flags[0] == flags[1]
    grams = []
    for x in results:
        table = x.purified.amplitudes.reshape(1 << n, -1)
        grams.append(table @ table.conj().T)
    assert np.max(np.abs(grams[0] - grams[1])) <= 1e-13
    assert subset.residual <= 1e-12 and full.residual <= 1e-12


@pytest.mark.parametrize("hide", [False, True], ids=["symbol", "no-symbol"])
def test_the_subset_solve_runs_exactly_when_2r_fits_the_dimension(hide, monkeypatch):
    if hide:
        monkeypatch.setattr(qcorr.linalg, "_ZHETRD", None)
    elif LAPACK_MISSING:
        pytest.skip(f"numpy's LAPACK lacks {LAPACK_MISSING}")
    calls = []
    spy(monkeypatch, qcorr.linalg.TridiagonalForm, "top_eigenpairs", lambda *_: "subset", calls)
    spy(monkeypatch, np.linalg, "eigh", lambda *_: "eigh", calls)
    cases = [*ROUTE_CASES.values(), lambda: validate_density(random_of_rank(116, 10, 32), 10)]
    for make in cases:
        rho = make()
        r = spectral_rank(rho)
        calls.clear()
        assert purify(rho).residual <= 1e-12
        subset = 2 * r <= rho.dim and not hide
        assert calls == (["subset"] if subset else ["eigh"]), (rho.n_qubits, r)


def _count_solves(monkeypatch) -> dict[str, list[bool]]:
    """By name, whether each zhetrd, dsterf, `np.linalg.eigvalsh` and
    `np.linalg.eigh` call from here on is a solve: all are but zhetrd's
    workspace query, whose ninth argument, LWORK, is -1."""
    calls = {"zhetrd": spy(monkeypatch, qcorr.linalg, "_ZHETRD", lambda *a: a[8]._obj.value != -1)}
    for owner, name in [(qcorr.linalg, "_DSTERF"), (np.linalg, "eigvalsh"), (np.linalg, "eigh")]:
        calls[name.strip("_").lower()] = spy(monkeypatch, owner, name, lambda *a: True)
    return calls


def _counts(calls: dict[str, list[bool]]) -> dict[str, int]:
    return {name: sum(seen) for name, seen in calls.items()}


@pytest.mark.skipif(bool(LAPACK_MISSING), reason=f"numpy's LAPACK lacks {LAPACK_MISSING}")
def test_an_uncached_purify_reduces_its_operator_once(monkeypatch):
    # The spectrum and the 32 pairs both come from one zhetrd; the one
    # eigvalsh left is the residual's.
    m = random_of_rank(117, 10, 32)
    calls = _count_solves(monkeypatch)
    rho = DensityOperator(10, m)
    result = purify(rho)
    assert _counts(calls) == {"zhetrd": 1, "dsterf": 1, "eigvalsh": 1, "eigh": 0}
    spectrum = rho.spectrum
    assert _counts(calls) == {"zhetrd": 1, "dsterf": 1, "eigvalsh": 1, "eigh": 0}
    assert not spectrum.flags.writeable
    assert spectrum.tobytes() == hermitian_spectrum(rho.matrix).tobytes()
    assert min_purifying_qubits(rho) == result.ancilla_qubits == 5

    rho = validate_density(m, 10)  # its spectrum's eigvalsh is cached
    for seen in calls.values():
        seen.clear()
    assert purify(rho).purified.amplitudes.tobytes() == result.purified.amplitudes.tobytes()
    assert _counts(calls) == {"zhetrd": 1, "dsterf": 0, "eigvalsh": 1, "eigh": 0}


def test_a_rank_zero_operator_raises(monkeypatch):
    # No eigenvalue above the threshold: from a cached spectrum of zeros, and
    # from an uncached operator under a threshold above its spectrum.
    rho = validate_density(np.eye(4) / 4, 2)
    zeros = np.zeros(4)
    zeros.setflags(write=False)
    vars(rho)["spectrum"] = zeros
    with pytest.raises(ValueError, match="cannot solve for 0 eigenpairs"):
        purify(rho)
    monkeypatch.setattr(qcorr.purification, "RANK_THRESHOLD", 1.0)
    with pytest.raises(ValueError, match="cannot solve for 0 eigenpairs"):
        purify(DensityOperator(2, np.eye(4) / 4))


def test_an_operator_lapack_would_scale_takes_eigvalsh_and_eigh(monkeypatch):
    # A trace-one Hermitian matrix, not positive, whose largest entry lies
    # above LAPACK's unscaled range: no reduction, the spectrum by eigvalsh.
    rho = DensityOperator(1, np.array([[0.5, 1e80], [1e80, 0.5]], dtype=complex))
    calls = _count_solves(monkeypatch)
    result = purify(rho)
    assert _counts(calls) == {"zhetrd": 0, "dsterf": 0, "eigvalsh": 2, "eigh": 1}
    assert result.ancilla_qubits == min_purifying_qubits(rho) == 0
    assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()


#: (qubits, eigenvalues well above `RANK_THRESHOLD`) beside one at its edge:
#: a rank of 5 or 4 on the subset route, of 5 (eigh) or 4 (subset) across
#: both, of 8 or 7 on eigh, and of 3 or 2 on the subset route.
EDGE_CASES = {"subset-16-4": (4, 4), "across-8-4": (3, 4), "eigh-8-7": (3, 7), "subset-8-2": (3, 2)}


@pytest.mark.parametrize("order", ["validated", "purify-first", "rank-first"])
@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_rank_threshold_from_both_sides(case, factor, order):
    # One eigenvalue at 0.99 or 1.01 times RANK_THRESHOLD: purify's ancillas,
    # min_purifying_qubits and the eigvalsh count above the threshold agree,
    # whether the spectrum was cached first, by purify, or by the rank.
    n, above = case
    dim = 1 << n
    rng = np.random.default_rng(above * 100 + n)
    values = np.zeros(dim)
    values[above] = factor * RANK_THRESHOLD
    values[:above] = rng.random(above) + 0.1
    values[:above] *= (1 - values[above]) / values[:above].sum()
    u = random_unitary(rng, dim)
    m = (u * values) @ u.conj().T
    count = int(np.count_nonzero(np.linalg.eigvalsh((m + m.conj().T) / 2) > RANK_THRESHOLD))
    assert count == above + (factor > 1)
    if order == "validated":
        rho = validate_density(m, n)
        result, k = purify(rho), min_purifying_qubits(rho)
    elif order == "purify-first":
        rho = DensityOperator(n, m)
        result, k = purify(rho), min_purifying_qubits(rho)
    else:
        rho = DensityOperator(n, m)
        k = min_purifying_qubits(rho)
        result = purify(rho)
    assert spectral_rank(rho) == count
    assert result.ancilla_qubits == k == (count - 1).bit_length()
    assert result.purified.n_qubits == n + k
    # A dropped eigenvalue, and the renormalisation it forces, stay in the residual.
    assert result.residual <= 2 * RANK_THRESHOLD


@pytest.mark.parametrize("deficit, maximal", [(0.5e-8, True), (2e-8, False)])
def test_maxcorr_verdict_flips_at_its_tolerance(deficit, maximal):
    # cos t|00> + sin t|11> carries 2 H(cos^2 t) = 2 ln 2 - 4 d^2 - O(d^4)
    # with d = cos^2 t - 1/2, so d = sqrt(deficit)/2 puts its total
    # correlation `deficit` below the two-qubit maximum.
    c2 = 0.5 + math.sqrt(deficit) / 2
    amps = np.array([math.sqrt(c2), 0, 0, math.sqrt(1 - c2)], dtype=complex)
    state = PureState(2, amps)
    assert abs(2 * LN2 - total_correlation(state) - deficit) < 1e-3 * MAXCORR_TOL
    given = PurificationResult(ancilla_qubits=1, purified=state, residual=0.0)
    assert is_maximally_correlated_purification(given) is maximal
    # the same state as the purification of its one-qubit reduction
    result = purify(DensityOperator(1, np.diag([c2, 1 - c2]).astype(complex)))
    assert result.ancilla_qubits == 1
    assert np.allclose(result.purified.amplitudes, amps, rtol=0, atol=1e-15)
    assert is_maximally_correlated_purification(result) is maximal


@pytest.mark.parametrize("rank", [2, 3], ids=["subset", "eigh"])  # 2r <= 4, 2r > 4
@pytest.mark.parametrize("ratio, lead", [(0.5, 1), (2.0, 0)])
def test_the_phase_pivot_moves_past_lead_cutoff(ratio, lead, rank):
    # The top eigenvector's first entry is `ratio` x LEAD_CUTOFF of its
    # largest, 0.8; the entries have distinct phases, so only the pivot, the
    # first entry above the cutoff, comes out real positive.
    top = np.array([ratio * LEAD_CUTOFF * 0.8j, 0.8 * np.exp(0.7j), 0.36, 0.48j])
    rng = np.random.default_rng(113)
    basis, _ = np.linalg.qr(np.column_stack([top, rng.standard_normal((4, 3))]))
    values = np.array([0.6, 0.4, 0.0, 0.0]) if rank == 2 else np.array([0.5, 0.3, 0.2, 0.0])
    rho = validate_density((basis * values) @ basis.conj().T, 2)
    table = purify(rho).purified.amplitudes.reshape(4, -1)
    pivot, other = table[lead, 0], table[1 - lead, 0]
    assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * pivot.real
    assert abs(other.imag) > 0.1 * abs(other)
    assert table.tobytes() == reference_purification_table(rho.matrix).tobytes()

