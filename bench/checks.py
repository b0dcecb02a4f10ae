"""Checks of qcorr's outputs against `reference` and the paper's properties.

Each check raises CheckFailed naming the first thing that is wrong; the
benchmark then counts the operation as failed and the run as not correct.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from reference import LN2, StateReference, ancillas_for_rank, entropy

#: JSON values carry 12 significant digits, so 1e-9 covers their rounding.
VALUE_TOL = 1e-9
#: The table prints 9 decimals.
TABLE_TOL = 1e-8
#: I_int(alpha) + I_int(beta) + I_ext = I.
IDENTITY_TOL = 1e-8
#: Araki-Lieb slacks must be >= -SLACK_TOL.
SLACK_TOL = 1e-9
#: Edge of the region bands, as the paper's labels are closed below.
REGION_TOL = 1e-9
#: Purified state's reduction against the input, in trace distance.
TRACE_DISTANCE_TOL = 1e-10
#: Shortfall of the single-qubit entropies from (n + k) ln 2 that still
#: counts as a maximally correlated purification.
MAXCORR_TOL = 1e-8
#: Mutual information at or below this means a product across the cut.
PRODUCT_TOL = 1e-9

LETTERS = string.ascii_lowercase


class CheckFailed(Exception):
    """An output disagrees with the reference or breaks a property."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(what: str, got: float, want: float, tol: float) -> None:
    expect(
        isinstance(got, (int, float)) and abs(float(got) - want) <= tol,
        f"{what}: got {got!r}, want {want!r} (tol {tol})",
    )


def region(value: float, caps: Sequence[float]) -> str:
    """Classical up to the smallest cap, Quantum up to twice it, then Unattainable."""
    low = min(caps)
    if value <= low + REGION_TOL:
        return "Classical"
    if value <= 2.0 * low + REGION_TOL:
        return "Quantum"
    return "Unattainable"


def parse_label(label: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    left, right = label.split("|")
    return tuple(LETTERS.index(c) for c in left), tuple(LETTERS.index(c) for c in right)


def canonical_cuts(n: int) -> set[frozenset]:
    """Every alpha that holds qubit 0 and is not the whole register."""
    full = (1 << n) - 1
    return {
        frozenset(q for q in range(n) if mask >> q & 1)
        for mask in range(1, full, 2)
    }


@dataclass
class Row:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    internal_alpha: float
    internal_beta: float
    external: float
    region_alpha: str
    region_beta: str
    region_external: str
    product: bool


@dataclass
class Report:
    """A sweep or analyze report, from JSON or from the table, in nats."""

    n_qubits: int
    units: str
    total: float
    bounds: tuple[float, float, float]
    rows: list[Row]
    single: list[float] | None = None
    araki_lieb_ok: bool | None = None


def report_from_json(text: str) -> Report:
    doc = json.loads(text)
    b = doc["bounds"]
    rows = [
        Row(
            *parse_label(p["partition"]),
            p["internal_alpha"],
            p["internal_beta"],
            p["external"],
            p["region_internal_alpha"],
            p["region_internal_beta"],
            p["region_external"],
            p["product_across"],
        )
        for p in doc["partitions"]
    ]
    return Report(
        n_qubits=doc["n_qubits"],
        units=doc["units"],
        total=doc["total_nats"],
        bounds=(b["classical_upper"], b["quantum_upper"], b["gap_bound"]),
        rows=rows,
        single=doc["subsystem_entropies_nats"],
        araki_lieb_ok=b["araki_lieb_ok"],
    )


_TOTAL = re.compile(r"total correlation: (\S+) (nats|bits)")
_BOUNDS = re.compile(
    r"bounds \((nats|bits)\): classical <= (\S+), quantum <= (\S+), gap <= (\S+)"
)


def report_from_table(text: str) -> Report:
    lines = text.splitlines()
    head = re.fullmatch(r"n_qubits: (\d+)", lines[0])
    total = _TOTAL.fullmatch(lines[1])
    bounds = _BOUNDS.fullmatch(lines[2])
    expect(bool(head and total and bounds), "table header does not parse")
    units = total.group(2)
    scale = LN2 if units == "bits" else 1.0
    rows = []
    for line in lines[5:]:
        label, ia, ib, ext, reg_ext, reg_int, product = line.split()
        reg_a, reg_b = reg_int.split("/")
        rows.append(
            Row(
                *parse_label(label),
                float(ia) * scale,
                float(ib) * scale,
                float(ext) * scale,
                reg_a,
                reg_b,
                reg_ext,
                {"yes": True, "no": False}[product],
            )
        )
    return Report(
        n_qubits=int(head.group(1)),
        units=units,
        total=float(total.group(1)) * scale,
        bounds=tuple(float(bounds.group(i)) * scale for i in (2, 3, 4)),
        rows=rows,
    )


def check_report(
    rep: Report,
    ref: StateReference,
    units: str,
    cuts: Sequence[tuple[tuple[int, ...], tuple[int, ...]]] | None,
    tol: float,
) -> None:
    """Check a pure-state report; `cuts` None means every canonical cut."""
    n = ref.n
    expect(rep.n_qubits == n, f"n_qubits {rep.n_qubits}, want {n}")
    expect(rep.units == units, f"units {rep.units!r}, want {units!r}")
    single = ref.single()
    total = sum(single)  # S of the whole pure state is 0
    close("total correlation", rep.total, total, tol)
    want_bounds = (total - max(single), total, max(single))
    for name, got, want in zip(("classical", "quantum", "gap"), rep.bounds, want_bounds):
        close(f"{name} bound", got, want, tol)
    if rep.single is not None:
        expect(len(rep.single) == n, "wrong number of subsystem entropies")
        for q, (got, want) in enumerate(zip(rep.single, single)):
            close(f"S of qubit {q}", got, want, tol)
    if rep.araki_lieb_ok is not None:
        expect(rep.araki_lieb_ok is True, "araki_lieb_ok is not true")

    got_cuts = [(r.alpha, r.beta) for r in rep.rows]
    if cuts is None:
        expect(len(got_cuts) == (1 << (n - 1)) - 1, f"{len(got_cuts)} cuts in a sweep")
        expect(
            {frozenset(a) for a, _ in got_cuts} == canonical_cuts(n),
            "sweep cuts are not the canonical bipartitions",
        )
        for a, b in got_cuts:
            expect(b == tuple(q for q in range(n) if q not in set(a)), f"beta of {a}")
    else:
        expect(got_cuts == list(cuts), "report cuts differ from the requested ones")

    for r in rep.rows:
        label = "".join(LETTERS[q] for q in r.alpha) + "|" + "".join(
            LETTERS[q] for q in r.beta
        )
        s_cut = ref.entropy(r.alpha)  # = S(beta) for a pure state
        ia = sum(single[q] for q in r.alpha) - s_cut
        ib = sum(single[q] for q in r.beta) - s_cut
        ext = 2.0 * s_cut
        close(f"{label} internal_alpha", r.internal_alpha, ia, tol)
        close(f"{label} internal_beta", r.internal_beta, ib, tol)
        close(f"{label} external", r.external, ext, tol)
        close(
            f"{label} identity I_int(a)+I_int(b)+I_ext-I",
            r.internal_alpha + r.internal_beta + r.external - rep.total,
            0.0,
            IDENTITY_TOL,
        )
        expect(
            r.region_alpha == region(ia, [LN2] * len(r.alpha))
            and r.region_beta == region(ib, [LN2] * len(r.beta))
            and r.region_external
            == region(ext, [len(r.alpha) * LN2, len(r.beta) * LN2]),
            f"{label} region labels {r.region_alpha}/{r.region_beta}/{r.region_external}",
        )
        expect(
            r.product == (ref.rank(r.alpha) == 1),
            f"{label} product_across {r.product}, Schmidt rank {ref.rank(r.alpha)}",
        )
        if rep.single is not None:
            # Araki-Lieb slacks from the reported numbers alone.
            s_all = sum(rep.single) - rep.total
            s_a = sum(rep.single[q] for q in r.alpha) - r.internal_alpha
            s_b = sum(rep.single[q] for q in r.beta) - r.internal_beta
            lower, upper = s_all - abs(s_a - s_b), s_a + s_b - s_all
            expect(
                lower >= -SLACK_TOL and upper >= -SLACK_TOL,
                f"{label} Araki-Lieb slacks {lower}, {upper}",
            )


def check_report_json(text, ref, units="nats", cuts=None) -> None:
    check_report(report_from_json(text), ref, units, cuts, VALUE_TOL)


def check_report_table(text, ref, units="nats", cuts=None) -> None:
    check_report(report_from_table(text), ref, units, cuts, TABLE_TOL)


def check_purification(
    amps: np.ndarray, n_system: int, ancillas: int, rho: np.ndarray, maximal: bool | None
) -> None:
    """The purified state's reduction must be rho, and the maximal flag, if
    given, must agree with the single-qubit marginals of the purified state."""
    n_total = n_system + ancillas
    expect(amps.shape == (1 << n_total,), f"purified state has {amps.size} amplitudes")
    mat = amps.reshape(1 << n_system, 1 << ancillas)
    diff = mat @ mat.conj().T - rho
    distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
    close("trace distance of the reduction", distance, 0.0, TRACE_DISTANCE_TOL)
    if maximal is None:
        return
    t = amps.reshape((2,) * n_total)
    shortfall = 0.0
    for q in range(n_total):
        m = np.moveaxis(t, q, 0).reshape(2, -1)
        shortfall += LN2 - entropy(np.linalg.eigvalsh(m @ m.conj().T))
    expect(
        maximal == (shortfall <= MAXCORR_TOL),
        f"maximally_correlated {maximal}, single-qubit shortfall {shortfall:.3e}",
    )


def check_purify_json(text, ref: StateReference, subset: Sequence[int], subset_text: str) -> None:
    doc = json.loads(text)
    s = len(subset)
    k = ancillas_for_rank(ref.rank(subset))
    expect(doc["subset"] == subset_text, f"subset echo {doc['subset']!r}")
    expect(doc["system_qubits"] == s, f"system_qubits {doc['system_qubits']}, want {s}")
    expect(doc["ancilla_qubits"] == k, f"ancilla_qubits {doc['ancilla_qubits']}, want {k}")
    expect(doc["n_qubits"] == s + k, f"n_qubits {doc['n_qubits']}, want {s + k}")
    close("residual", doc["residual"], 0.0, TRACE_DISTANCE_TOL)
    amps = np.array([complex(re_, im) for re_, im in doc["amplitudes"]])
    check_purification(amps, s, k, ref.reduced(subset), doc["maximally_correlated"])


def check_mixed(res: dict, ref: StateReference, n: int, cuts, rho: np.ndarray) -> None:
    """Check one mixed operator's call sequence; `ref` is its purifier."""
    s_all = ref.entropy(range(n))
    single = [ref.entropy((q,)) for q in range(n)]
    total = sum(single) - s_all
    op = res["validated"]
    expect(op.n_qubits == n and np.array_equal(op.matrix, rho), "validate_density changed the operator")
    for (a, b), d in zip(cuts, res["decompositions"], strict=True):
        s_a, s_b = ref.entropy(a), ref.entropy(b)
        close(f"decompose {a} internal_alpha", d.internal_alpha, sum(single[q] for q in a) - s_a, VALUE_TOL)
        close(f"decompose {a} internal_beta", d.internal_beta, sum(single[q] for q in b) - s_b, VALUE_TOL)
        close(f"decompose {a} external", d.external, s_a + s_b - s_all, VALUE_TOL)
        close(f"decompose {a} total", d.total, total, VALUE_TOL)
        close(
            f"decompose {a} identity",
            d.internal_alpha + d.internal_beta + d.external - d.total,
            0.0,
            IDENTITY_TOL,
        )
    a, b = cuts[0]
    s_a, s_b = ref.entropy(a), ref.entropy(b)
    mutual = s_a + s_b - s_all
    close("index_of_correlation", res["index"], mutual, VALUE_TOL)
    al = res["araki_lieb"]
    close("Araki-Lieb lower slack", al.lower_slack, s_all - abs(s_a - s_b), VALUE_TOL)
    close("Araki-Lieb upper slack", al.upper_slack, mutual, VALUE_TOL)
    expect(
        al.ok and al.lower_slack >= -SLACK_TOL and al.upper_slack >= -SLACK_TOL,
        f"Araki-Lieb check {al}",
    )
    close("total_correlation", res["total"], total, VALUE_TOL)
    expect(res["product"] == (mutual <= PRODUCT_TOL), f"is_product_across {res['product']}, I(a:b) {mutual:.3e}")
    if "purified" in res:
        check_purified_operator(res["purified"], res["maximal"], ref, n, rho)


def check_purified_operator(result, maximal: bool | None, ref: StateReference, n: int, rho) -> None:
    k = ancillas_for_rank(ref.rank(range(n)))
    expect(result.ancilla_qubits == k, f"ancilla_qubits {result.ancilla_qubits}, want {k}")
    close("purify residual", result.residual, 0.0, TRACE_DISTANCE_TOL)
    check_purification(result.purified.amplitudes, n, k, rho, maximal)
