"""The three workloads: seeded inputs, the fixed operation list of a round,
and how each operation runs and is checked.

An operation runs in one of two ways. By default a CLI command is a fresh
`python -m qcorr.cli` process, as a user meets it; in-process replay calls
`qcorr.cli.main` instead, which the traced run needs. Library operations
always run in-process, and the oversized purification always runs in a
child process of its own (see oversize.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import reference as ref
from checks import CheckFailed

#: An operation that runs longer than this is stopped and counted as failed.
OP_TIMEOUT_S = 150

N_QUBITS = 12
#: The uniform entangled state whose half cut `purify` meets. At 12 qubits
#: the purified state's 4096-dimensional eigen-solve alone takes 14-21 s on
#: a 2-vCPU Xeon, one sample per run that does not repeat closely enough;
#: 10 qubits keeps the same path at a cost a run can repeat.
HALF_CUT_QUBITS = 10

# Cuts and subsets whose cost depends on their qubits are fixed, not drawn
# from the seed: when the kept qubits lead the register, as in alpha = (0, 1),
# `partial_trace` and `permute_matrix_qubits` return views instead of
# copying a 268 MB matrix, which changes time and peak RSS.

#: Product cuts of bellpairs:6 (whole pairs on alpha) for `analyze`.
PRODUCT_CUTS = (
    ((2, 3), (0, 1, 4, 5, 6, 7, 8, 9, 10, 11)),
    ((6, 7, 10, 11), (0, 1, 2, 3, 4, 5, 8, 9)),
)
#: Purified subsets: ghz:12, then bellpairs:6 (one qubit from each of three
#: pairs, so rank 8), then alternately the two random states.
PURIFY_SUBSETS = ((3, 8), (1, 4, 10), (6,), (9, 2), (7, 1, 10, 4), (11, 3, 0, 8, 5))


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    error: str | None = None  # the operation failed: error exit or exception
    wrong: str | None = None  # it finished, but its output failed a check
    spans: list = field(default_factory=list)  # from a traced child process


@dataclass
class Env:
    """Where the benchmark runs and what a child process is given."""

    root: str
    work: str
    child_env: dict


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], env: Env, out_path: str) -> tuple[int, float, float, float, str]:
    """Run a child to its end; return exit code, wall, CPU, peak RSS and stderr."""
    err_path = out_path + ".err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env.child_env, cwd=env.root)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            return -9, time.perf_counter() - start, 0.0, 0.0, "timed out"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        stderr,
    )


class CliOp:
    """One `qcorr` command and the check of its standard output."""

    def __init__(self, argv: list[str], check: Callable[[str], None]):
        self.argv = argv
        self.check = check
        self.name = " ".join(argv)

    def run(self, env: Env, inproc: bool, tracer) -> Outcome:
        if inproc:
            import qcorr.cli

            out, err = io.StringIO(), io.StringIO()
            start, cpu0 = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = qcorr.cli.main(list(self.argv))
                except Exception as e:  # what a fresh process would die of
                    code = 1
                    print(f"{type(e).__name__}: {e}", file=err)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
            result = Outcome(wall, cpu, _self_rss_mb())
            text, stderr = out.getvalue(), err.getvalue()
        else:
            out_path = os.path.join(env.work, "stdout.txt")
            code, wall, cpu, rss, stderr = run_child(
                [sys.executable, "-m", "qcorr.cli", *self.argv], env, out_path
            )
            result = Outcome(wall, cpu, rss)
            with open(out_path) as fh:
                text = fh.read()
        if code != 0:
            result.error = f"exit {code}: {stderr.strip()[-300:]}"
            return result
        try:
            self.check(text)
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as e:
            result.wrong = f"{type(e).__name__}: {e}"
        return result


class MixedOp:
    """The library call sequence on one seeded mixed operator.

    The operator is rho = M M^dagger, M a seeded random pure state on n
    system and m ancilla qubits; m sets the rank, min(2^n, 2^m).
    """

    def __init__(self, label: str, n: int, purifier: np.ndarray, cuts, purify: bool):
        self.name = label
        self.n = n
        self.rho = ref.density_of_system(purifier, n)
        self.ref = ref.StateReference(purifier, int(purifier.size).bit_length() - 1)
        self.cuts = cuts
        self.purify = purify

    def calls(self) -> dict:
        import qcorr as q

        res = {"validated": q.validate_density(self.rho, self.n)}
        rho = res["validated"]
        res["decompositions"] = [q.decompose(rho, q.Partition(a, b)) for a, b in self.cuts]
        first = q.Partition(*self.cuts[0])
        res["index"] = q.index_of_correlation(rho, first)
        res["araki_lieb"] = q.araki_lieb_check(rho, first)
        res["total"] = q.total_correlation(rho)
        res["product"] = q.is_product_across(rho, first)
        if self.purify:
            res["purified"] = q.purify(rho)
            res["maximal"] = q.is_maximally_correlated_purification(res["purified"])
        return res

    def run(self, env: Env, inproc: bool, tracer) -> Outcome:
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            res = self.calls()
        except Exception as e:  # a library error fails the operation
            return Outcome(
                time.perf_counter() - start,
                time.process_time() - cpu0,
                _self_rss_mb(),
                error=f"{type(e).__name__}: {e}",
            )
        result = Outcome(time.perf_counter() - start, time.process_time() - cpu0, _self_rss_mb())
        try:
            checks.check_mixed(res, self.ref, self.n, self.cuts, self.rho)
        except (CheckFailed, ValueError, AttributeError, TypeError) as e:
            result.wrong = f"{type(e).__name__}: {e}"
        return result


class OversizeOp:
    """`purify` of a 10-qubit rank-32 operator in a child process under an
    address-space limit; see oversize.py for the fault it meets today."""

    name = "purify 10-qubit rank-32 operator (child, 2 GiB address space)"

    def run(self, env: Env, inproc: bool, tracer) -> Outcome:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oversize.py")
        out_path = os.path.join(env.work, "oversize.txt")
        argv = [sys.executable, script, "--trace", "1" if tracer else "0"]
        code, wall, cpu, rss, stderr = run_child(argv, env, out_path)
        result = Outcome(wall, cpu, rss)
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        if code != 0 or not lines:
            result.error = f"exit {code}: {stderr.strip()[-300:]}"
            return result
        doc = json.loads(lines[-1])
        result.error, result.wrong, result.spans = doc["error"], doc["wrong"], doc["spans"]
        return result


def _qubits_text(qubits) -> str:
    return ",".join(str(q) for q in qubits)


def _random_cut(rng, n, size):
    perm = [int(q) for q in rng.permutation(n)]
    return tuple(perm[:size]), tuple(perm[size:])


def named(kind: str, parameter: int) -> tuple[str, ref.StateReference]:
    n, groups = ref.named_groups(kind, parameter)
    return f"{kind}:{parameter}", ref.StateReference(ref.group_state(n, groups), n, groups)


def random_file(rng, work: str, name: str, n: int = N_QUBITS) -> tuple[str, ref.StateReference]:
    amps = ref.random_state(rng, n)
    path = os.path.join(work, name)
    ref.write_state_file(path, amps)
    return f"file:{path}", ref.StateReference(amps, n)


def report_op(spec, sref, cuts=None, json_out=True, units="nats"):
    """`analyze` on the given cuts, or `sweep` when `cuts` is None."""
    argv = ["sweep" if cuts is None else "analyze", "--state", spec, "--units", units]
    for a, b in cuts or ():
        argv += ["--partition", f"{_qubits_text(a)}|{_qubits_text(b)}"]
    if json_out:
        argv.append("--json")
    check = checks.check_report_json if json_out else checks.check_report_table
    return CliOp(argv, lambda t: check(t, sref, units, cuts))


def sweep_ops(rng: np.random.Generator, work: str) -> list:
    r1, ref1 = random_file(rng, work, "random1.json")
    r2, ref2 = random_file(rng, work, "random2.json")
    ghz, ghz_ref = named("ghz", N_QUBITS)
    blocks, blocks_ref = named("ghzblocks", N_QUBITS // 2)
    pairs, pairs_ref = named("bellpairs", N_QUBITS // 2)
    n = N_QUBITS
    # An odd alpha splits a pair, so the third cut is never a product.
    pair_cuts = [*PRODUCT_CUTS, _random_cut(rng, n, 5)]
    return [
        report_op(r1, ref1),
        report_op(r2, ref2, json_out=False, units="bits"),
        report_op(r1, ref1, [_random_cut(rng, n, k) for k in (1, 3, 4, 6)]),
        report_op(r2, ref2, [_random_cut(rng, n, k) for k in (2, 5)], json_out=False),
        report_op(ghz, ghz_ref, [_random_cut(rng, n, k) for k in (1, 6)]),
        report_op(pairs, pairs_ref, pair_cuts, json_out=False),
        report_op(blocks, blocks_ref),
    ]


def purify_op(spec, sref, subset):
    text = _qubits_text(subset)
    argv = ["purify", "--state", spec, "--subset", text, "--json"]
    return CliOp(argv, lambda t: checks.check_purify_json(t, sref, subset, text))


def purify_ops(rng: np.random.Generator, work: str) -> list:
    r1, ref1 = random_file(rng, work, "random1.json")
    r2, ref2 = random_file(rng, work, "random2.json")
    ghz, ghz_ref = named("ghz", N_QUBITS)
    ue, ue_ref = named("ue", HALF_CUT_QUBITS)
    pairs, pairs_ref = named("bellpairs", N_QUBITS // 2)
    subsets = iter(PURIFY_SUBSETS)
    ops = [
        purify_op(ghz, ghz_ref, next(subsets)),
        purify_op(ue, ue_ref, tuple(range(HALF_CUT_QUBITS // 2))),
        purify_op(pairs, pairs_ref, next(subsets)),
    ]
    for i, subset in enumerate(subsets):
        spec, sref = (r1, ref1) if i % 2 else (r2, ref2)
        ops.append(purify_op(spec, sref, subset))
    return ops


#: (n system qubits, m ancilla qubits, purify?) of the random mixed operators
MIXED_SHAPES = ((8, 1, True), (8, 8, False), (9, 1, True), (10, 10, False))


def mixed_ops(rng: np.random.Generator, work: str) -> list:
    ops = []
    for n, m, purify in MIXED_SHAPES:
        purifier = ref.random_state(rng, n + m)
        cuts = [_random_cut(rng, n, k) for k in (1, n // 2)]
        ops.append(MixedOp(f"mixed n={n} rank={min(2**n, 2**m)}", n, purifier, cuts, purify))
    # rho_alpha (x) rho_beta, rank 4: is_product_across must say yes on cut 0.
    alpha, beta = _random_cut(rng, 8, 4)
    purifier = ref.product_purifier(rng, 8, alpha, 1, 1)
    cuts = [(alpha, beta), _random_cut(rng, 8, 3)]
    ops.append(MixedOp("mixed n=8 rank=4 product", 8, purifier, cuts, True))
    ops.append(OversizeOp())
    return ops


WORKLOADS = {"sweep": sweep_ops, "purify": purify_ops, "mixed": mixed_ops}
