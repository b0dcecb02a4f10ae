"""State specs, amplitude files, and correlation reports.

This layer turns a state spec (`ghz:4`, `ue:4`, `bellpairs:2`, `ghzblocks:3`,
`file:PATH`) into a pure state and produces per-partition reports: internal
and external correlation, region labels, product-across flags, and the
entropy bounds. All stored values are in nats; `units` only affects
presentation.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .correlation import (
    LN2,
    BoundsReport,
    Region,
    _decomposition,
    _regions,
    clamp_nonneg,
    correlation_bounds,
)
from .errors import NotNormalizedError, PartitionError, SizeCapError, SpecParseError, StateFileError
from .partitions import _product_flags, enumerate_bipartitions
from .states import (
    NORM_TOL,
    Partition,
    PureState,
    _check_cap,
    _check_subset,
    bell_product,
    ghz,
    ghz_block_product,
    # Re-exported for the CLI; bench/tracing.py also times it under this module.
    reduced_operator,
    uniform_entangled,
)

#: The constructor of each named kind, called with the spec's count; a
#: `ue` spec counts all its qubits, half of them on each side.
_CONSTRUCTORS = {
    "ghz": ghz,
    "ue": lambda total, max_qubits: uniform_entangled(total // 2, max_qubits=max_qubits),
    "bellpairs": bell_product,
    "ghzblocks": ghz_block_product,
}

STATE_KINDS = (*_CONSTRUCTORS, "file")

#: What a kind's count means and its least value (`ghz`'s constructor words its own).
_COUNTS = {
    "ue": ("total qubit count", 2),
    "bellpairs": ("number of Bell pairs", 1),
    "ghzblocks": ("number of qubits per block", 2),
}

FILE_NORM_TOL = 1e-8


@dataclass(frozen=True)
class PartitionAnalysis:
    """One partition's row in a correlation report. Values in nats."""

    partition: str
    internal_alpha: float
    internal_beta: float
    external: float
    region_internal_alpha: Region
    region_internal_beta: Region
    region_external: Region
    product_across: bool


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation figures for one state over one or more partitions."""

    n_qubits: int
    units: str
    total_nats: float
    subsystem_entropies: tuple[float, ...]
    bounds: BoundsReport
    entries: tuple[PartitionAnalysis, ...]


def parse_state_spec(text: str, max_qubits: int | None = None) -> PureState:
    """The pure state 'kind:parameter' names, built under the size cap
    `max_qubits` (default `states.DEFAULT_MAX_QUBITS`).

    A parameter other than a file path is ASCII digits only. Raises
    SpecParseError (with the offset of the first bad character) for
    malformed input, ValueError for a count its kind does not take, and
    SizeCapError for one too long for int().
    """
    if not text:
        raise SpecParseError("empty state spec", 0)
    head, sep, tail = text.partition(":")
    if not sep:
        raise SpecParseError(f"expected 'kind:parameter', got {text!r}", len(text))
    if head not in STATE_KINDS:
        raise SpecParseError(
            f"unknown state kind {head!r} (expected one of {', '.join(STATE_KINDS)})", 0
        )
    if head == "file":
        if not tail:
            raise SpecParseError("missing file path", len(head) + 1)
        return load_state_file(tail, max_qubits)
    bad = len(tail) - len(tail.lstrip(string.digits))  # offset of the first non-digit
    if not tail or bad < len(tail):
        raise SpecParseError(
            f"parameter for {head!r} must be digits 0-9, got {tail!r}", len(head) + 1 + bad
        )
    digits = tail.lstrip("0") or "0"
    try:
        value = int(digits)
    except ValueError:  # more digits than int() converts: larger than any cap
        raise SizeCapError(
            f"parameter for {head!r} has {len(digits)} digits, above the size cap"
        ) from None
    what, least = _COUNTS.get(head, ("", 0))
    if value < least or head == "ue" and value % 2:
        need = "even" if head == "ue" and value % 2 else f"at least {least}"
        raise ValueError(f"{head!r} takes the {what}, which must be {need}; got {value}")
    return _CONSTRUCTORS[head](value, max_qubits=max_qubits)


def load_state_file(path: str, max_qubits: int | None = None) -> PureState:
    """Read a JSON amplitude file: {'n_qubits': n, 'amplitudes': [[re, im], ...]}.

    Amplitude index = big-endian bit string with qubit 0 most significant.
    The squared norm must be within 1e-8 of 1; amplitudes are renormalized
    only when needed to meet the PureState invariant, so files produced by
    `save_state_file` round-trip bit-exactly. An `n_qubits` above the size
    cap raises SizeCapError before any amplitude is checked or stored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as e:  # also bad UTF-8, deep nesting, huge integers
            raise StateFileError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    n = doc.get("n_qubits")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateFileError(f"{path}: 'n_qubits' must be a positive integer")
    _check_cap(n, max_qubits)
    raw = doc.get("amplitudes")
    if not isinstance(raw, list):
        raise StateFileError(f"{path}: 'amplitudes' must be an array")
    if len(raw) != 1 << n:
        raise StateFileError(
            f"{path}: expected {1 << n} amplitudes for {n} qubits, got {len(raw)}"
        )
    amps = np.empty(1 << n, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFileError(f"{path}: amplitude {i} must be a [re, im] pair, got {pair!r}")
        try:
            amps[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise StateFileError(f"{path}: amplitude {i} is too large for a float") from None
    nrm2 = float(np.vdot(amps, amps).real)
    if not abs(nrm2 - 1.0) <= FILE_NORM_TOL:  # also a NaN from overflow
        raise NotNormalizedError(
            f"{path}: squared norm is {nrm2!r}, outside 1 +/- {FILE_NORM_TOL}"
        )
    if abs(nrm2 - 1.0) > NORM_TOL:
        amps = amps / math.sqrt(nrm2)
    return PureState(n, amps)


def _state_doc(state: PureState) -> dict:
    """The amplitude-file object of a state: n_qubits, then [re, im] pairs."""
    pairs = state.amplitudes.view(np.float64).reshape(-1, 2).tolist()
    return {"n_qubits": state.n_qubits, "amplitudes": pairs}


def save_state_file(state: PureState, path: str) -> None:
    """Write the amplitude-file JSON for a state (round-trips bit-exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_state_doc(state), fh)
        fh.write("\n")


def _qubit_index(token: str) -> int:
    """The qubit index `token` spells in ASCII digits 0-9. Raises ValueError
    for any other token, as int() does for one of more digits than it
    converts."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def _parse_side(text: str, offset: int) -> tuple[int, ...]:
    """Qubits of one partition side or subset; `offset` is where `text`
    starts in the user's input, so errors point into that input."""
    letters = string.ascii_lowercase
    side = text.strip()
    if not side:
        raise SpecParseError("empty partition side", offset)
    if "," in side:
        qubits = []
        pos = offset + len(text) - len(text.lstrip())
        for raw in side.split(","):
            token = raw.strip()
            if len(token) == 1 and token in letters:
                qubits.append(letters.index(token))
            else:
                try:
                    qubits.append(_qubit_index(token))
                except ValueError:
                    at = pos + len(raw) - len(raw.lstrip())
                    raise SpecParseError(f"bad qubit token {token!r}", at) from None
            pos += len(raw) + 1
        return tuple(qubits)
    if all(ch in letters for ch in side):
        return tuple(letters.index(ch) for ch in side)
    try:
        return (_qubit_index(side),)
    except ValueError:
        raise SpecParseError(f"bad partition side {side!r}", offset) from None


def parse_partition(text: str, n_qubits: int) -> Partition:
    """Parse 'ab|cd' or '0,2|1,3' into a Partition over n_qubits.

    Letters a, b, c, ... alias indices 0, 1, 2, ...; a side given without
    commas is read one letter per qubit. The two sides must cover all qubits.
    """
    return _parse_partition(text, n_qubits, 0)


def _parse_partition(text: str, n_qubits: int, offset: int) -> Partition:
    """`parse_partition` of `text`, which starts at `offset` in the user's
    input, so errors point into that input."""
    if text.count("|") != 1:
        raise SpecParseError(
            f"partition must contain exactly one '|', got {text!r}",
            offset + (text.find("|", text.find("|") + 1) if "|" in text else len(text)),
        )
    left, right = text.split("|")
    alpha = _parse_side(left, offset)
    beta = _parse_side(right, offset + len(left) + 1)
    try:
        part = Partition(alpha, beta)
    except PartitionError as e:  # a qubit named twice or out of range
        raise SpecParseError(str(e), offset) from None
    if part.n_qubits != n_qubits:
        raise SpecParseError(
            f"partition {text!r} covers {part.n_qubits} qubits, state has "
            f"{n_qubits}",
            offset,
        )
    return part


def parse_partition_list(text: str, n_qubits: int) -> list[Partition]:
    """Parse a comma-separated list of partitions.

    A value with a single '|' or no comma is one partition (commas inside it
    separate qubits, as in '0,2|1,3'). A multi-partition list must use the
    comma-free letter syntax for each entry, e.g. 'ab|cd,ac|bd'. Errors give
    their position in `text`.
    """
    if text.count("|") <= 1 or "," not in text:
        return [parse_partition(text, n_qubits)]
    parts = []
    pos = 0
    for raw in text.split(","):
        chunk = raw.strip()
        at = pos + len(raw) - len(raw.lstrip())
        if chunk.count("|") != 1:
            raise SpecParseError(
                "multi-partition lists must be comma-free per entry, e.g. "
                f"'ab|cd,ac|bd'; got chunk {chunk!r}",
                at,
            )
        parts.append(_parse_partition(chunk, n_qubits, at))
        pos += len(raw) + 1
    return parts


def parse_subset(text: str, n_qubits: int) -> tuple[int, ...]:
    """Parse a qubit subset like 'ab' or '0,2'; must be nonempty and in range."""
    if not text.strip():
        raise SpecParseError("empty subset", 0)
    try:
        return _check_subset(_parse_side(text, 0), n_qubits)
    except IndexError as e:
        raise SpecParseError(str(e), 0) from None


def _analyze_pure(
    state: PureState, parts: Sequence[Partition], units: str
) -> CorrelationReport:
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")
    # The rows' one engine pass also gives the single-qubit entropies, each
    # row's product flag (from its alpha spectrum) and the total entropy.
    rows, cuts = _decomposition(state, parts)
    n, m = state.n_qubits, len(parts)
    s_k = [entropy for _, entropy in cuts[:n]]
    # `classify_region` of every row at once; an internal part's caps are
    # ln 2 per qubit, the external part's |alpha| ln 2 and |beta| ln 2.
    sizes = np.array([len(part.alpha) for part in parts])
    values = [rows.internal_alpha, rows.internal_beta, rows.external]
    caps = [LN2, LN2, np.minimum(sizes, n - sizes) * LN2]
    regions = [_regions(*column).tolist() for column in zip(values, caps)]
    flags = _product_flags([probs for probs, _ in cuts[n : n + m]]).tolist()
    entries = tuple(
        PartitionAnalysis(part.label(), *row)
        for part, *row in zip(parts, *(v.tolist() for v in values), *regions, flags)
    )
    total = float(clamp_nonneg(sum(s_k) - cuts[-1][1]))
    bounds = replace(correlation_bounds(s_k), araki_lieb_ok=bool(rows.araki_lieb_ok.all()))
    return CorrelationReport(n, units, total, tuple(s_k), bounds, entries)


def analyze(
    state: PureState, partitions: Sequence[Partition], units: str = "nats"
) -> CorrelationReport:
    """Correlation report for explicit partitions of one state; `sweep`
    covers every bipartition. Text goes through `parse_state_spec` and
    `parse_partition_list` first."""
    parts = list(partitions)
    if not parts:
        raise ValueError("need at least one partition")
    return _analyze_pure(state, parts, units)


def sweep(
    state: PureState, size_alpha: int | None = None, units: str = "nats"
) -> CorrelationReport:
    """Correlation report covering every canonical bipartition, solved as
    `correlation.von_neumann_entropy` is (see there for OpenBLAS's threads)."""
    parts = enumerate_bipartitions(state.n_qubits, size_alpha)
    return _analyze_pure(state, parts, units)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _in_units(x: float, units: str) -> float:
    return x / LN2 if units == "bits" else x


def report_to_dict(report: CorrelationReport) -> dict:
    """JSON-ready dict; values are nats at 12 significant digits."""
    return {
        "n_qubits": report.n_qubits,
        "units": report.units,
        "total_nats": _sig12(report.total_nats),
        "subsystem_entropies_nats": [_sig12(v) for v in report.subsystem_entropies],
        "bounds": {
            "classical_upper": _sig12(report.bounds.classical_upper),
            "quantum_upper": _sig12(report.bounds.quantum_upper),
            "gap_bound": _sig12(report.bounds.gap_bound),
            "araki_lieb_ok": report.bounds.araki_lieb_ok,
        },
        "partitions": [
            {
                "partition": e.partition,
                "internal_alpha": _sig12(e.internal_alpha),
                "internal_beta": _sig12(e.internal_beta),
                "external": _sig12(e.external),
                "region_internal_alpha": e.region_internal_alpha.value,
                "region_internal_beta": e.region_internal_beta.value,
                "region_external": e.region_external.value,
                "product_across": e.product_across,
            }
            for e in report.entries
        ],
    }


def render_table(report: CorrelationReport) -> str:
    """Fixed-width human-readable table in the report's display units."""
    u = report.units
    lines = [
        f"n_qubits: {report.n_qubits}",
        f"total correlation: {_in_units(report.total_nats, u):.9f} {u}",
        "bounds ({}): classical <= {:.9f}, quantum <= {:.9f}, gap <= {:.9f}".format(
            u,
            _in_units(report.bounds.classical_upper, u),
            _in_units(report.bounds.quantum_upper, u),
            _in_units(report.bounds.gap_bound, u),
        ),
    ]
    header = (
        f"{'partition':<14}{'int(alpha)':>13}{'int(beta)':>13}{'external':>13}"
        f"  {'ext region':<13}{'int regions':<27}{'product':<7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for e in report.entries:
        regions = f"{e.region_internal_alpha.value}/{e.region_internal_beta.value}"
        lines.append(
            f"{e.partition:<14}"
            f"{_in_units(e.internal_alpha, u):>13.9f}"
            f"{_in_units(e.internal_beta, u):>13.9f}"
            f"{_in_units(e.external, u):>13.9f}"
            f"  {e.region_external.value:<13}{regions:<27}"
            f"{'yes' if e.product_across else 'no':<7}"
        )
    return "\n".join(lines)
