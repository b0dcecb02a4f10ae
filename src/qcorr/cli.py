"""Command-line front end.

Subcommands: analyze, sweep, entropy, purify. States are given as specs
(`ghz:4`, `ue:4`, `bellpairs:2`, `ghzblocks:3`, `file:PATH`), partitions as
`ab|cd` or `0,2|1,3`. Exit codes: 0 success, 2 parse/validation error,
3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .correlation import LN2
from .errors import QcorrError, SizeCapError
from .purification import is_maximally_correlated_purification, purify
from .report import (
    analyze,
    build_state,
    parse_partition_list,
    parse_state_spec,
    parse_subset,
    reduced_operator,
    render_table,
    report_to_dict,
    subset_entropy,
    sweep,
    _sig12,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--state", required=True, help="state spec, e.g. ghz:4 or file:psi.json")
    sub.add_argument(
        "--max-qubits", type=int, default=None, help="override the 12-qubit size cap"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation information in N-qubit states.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="decompose chosen partitions")
    _add_common(p)
    p.add_argument(
        "--partition",
        required=True,
        action="append",
        help="partition(s), e.g. 'ab|cd' or 'ab|cd,ac|bd'; repeatable",
    )
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("sweep", help="decompose every canonical bipartition")
    _add_common(p)
    p.add_argument("--size-alpha", type=int, default=None, help="restrict |alpha|")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("entropy", help="entropy of a qubit subset")
    _add_common(p)
    p.add_argument("--subset", required=True, help="qubits, e.g. 'ab' or '0,2'")
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("purify", help="purify the reduction onto a qubit subset")
    _add_common(p)
    p.add_argument("--subset", required=True, help="qubits, e.g. 'ab' or '0,2'")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_purify)

    return parser


def _print_report(report, as_json: bool) -> None:
    print(json.dumps(report_to_dict(report), indent=2) if as_json else render_table(report))


def _state_and_subset(args):
    state = build_state(parse_state_spec(args.state), args.max_qubits)
    return state, parse_subset(args.subset, state.n_qubits)


def _cmd_analyze(args) -> int:
    spec = parse_state_spec(args.state)
    state = build_state(spec, args.max_qubits)
    parts = []
    for chunk in args.partition:
        parts.extend(parse_partition_list(chunk, state.n_qubits))
    _print_report(analyze(state, parts, units=args.units), args.json)
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_state_spec(args.state)
    report = sweep(spec, size_alpha=args.size_alpha, units=args.units, max_qubits=args.max_qubits)
    _print_report(report, args.json)
    return 0


def _cmd_entropy(args) -> int:
    state, subset = _state_and_subset(args)
    s = subset_entropy(state, subset)
    print(f"S({args.subset}) = {_sig12(s)} nats ({_sig12(s / LN2)} bits)")
    return 0


def _cmd_purify(args) -> int:
    state, subset = _state_and_subset(args)
    rho = reduced_operator(state, subset)
    result = purify(rho)
    maximal = is_maximally_correlated_purification(result)
    if args.json:
        doc = {
            "subset": args.subset,
            "system_qubits": len(subset),
            "ancilla_qubits": result.ancilla_qubits,
            "residual": _sig12(result.residual),
            "maximally_correlated": maximal,
            "n_qubits": result.purified.n_qubits,
            "amplitudes": [
                [float(a.real), float(a.imag)] for a in result.purified.amplitudes
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"subset: {args.subset} ({len(subset)} qubits)")
        print(f"ancilla qubits needed: {result.ancilla_qubits}")
        print(f"round-trip residual (trace distance): {result.residual:.3e}")
        print(f"purified state qubits: {result.purified.n_qubits}")
        print(f"maximally correlated purification: {'yes' if maximal else 'no'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if args.max_qubits is not None and args.max_qubits < 1:
        print(f"error: --max-qubits must be at least 1, got {args.max_qubits}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SizeCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (QcorrError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
