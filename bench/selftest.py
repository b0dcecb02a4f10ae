"""Self-test of the benchmark's checks. Run from the repository root:

    python3 bench/selftest.py

It confirms that the closed forms for the named states agree with the Gram
route, that real qcorr outputs on small states pass the checks, and that
each deliberately corrupted output (an external value off by 1e-6, a wrong
ancilla count, a flipped product flag) counts its operation as failed. It
also confirms that BENCHMARK.json names exactly the metrics run.py prints.
Exits 0 when every case holds.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np

import reference as ref
import run
import workloads
from tracing import PER_LAYER


def corrupt(edit):
    """Turn an edit of the parsed JSON document into an edit of the text."""

    def apply(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    return apply


def shift_external(doc):
    doc["partitions"][-1]["external"] += 1e-6


def flip_product(doc):
    """Flip the first true product flag, or the first flag if none is true."""
    rows = doc["partitions"]
    row = next((r for r in rows if r["product_across"]), rows[0])
    row["product_across"] = not row["product_across"]


def bump_ancillas(doc):
    doc["ancilla_qubits"] += 1


def outcome(op, env, edit=None):
    if edit is not None:
        check = op.check
        op.check = lambda text: check(edit(text))
    try:
        return op.run(env, True, None)
    finally:
        if edit is not None:
            op.check = check


def main() -> int:
    problems = []

    for kind, parameter in (("ghz", 6), ("ue", 6), ("bellpairs", 3), ("ghzblocks", 3)):
        n, groups = ref.named_groups(kind, parameter)
        closed = ref.StateReference(ref.group_state(n, groups), n, groups)
        gram = ref.StateReference(closed.amps, n)
        for k in range(1, n):
            for subset in itertools.combinations(range(n), k):
                if abs(closed.entropy(subset) - gram.entropy(subset)) > 1e-12 or closed.rank(
                    subset
                ) != gram.rank(subset):
                    problems.append(f"{kind}:{parameter} closed form differs on {subset}")

    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    env = workloads.Env(run.ROOT, run.WORK, dict(os.environ, PYTHONPATH=run.SRC))
    rng = np.random.default_rng(0)
    random_spec, random_ref = workloads.random_file(rng, run.WORK, "selftest.json", 6)
    pairs_spec, pairs_ref = workloads.named("bellpairs", 3)
    cases = [
        ("random sweep", workloads.report_op(random_spec, random_ref), shift_external),
        ("random sweep", workloads.report_op(random_spec, random_ref), flip_product),
        ("bell-pair sweep", workloads.report_op(pairs_spec, pairs_ref), flip_product),
        ("random purify", workloads.purify_op(random_spec, random_ref, (4, 1, 2)), bump_ancillas),
        ("bell-pair purify", workloads.purify_op(pairs_spec, pairs_ref, (0, 3)), bump_ancillas),
    ]
    for label, op, edit in cases:
        clean = outcome(op, env)
        if clean.error or clean.wrong:
            problems.append(f"{label}: the true output fails: {clean.error or clean.wrong}")
        bad = outcome(op, env, corrupt(edit))
        if not bad.wrong:
            problems.append(f"{label}: {edit.__name__} was not caught")
        else:
            print(f"caught {edit.__name__} on {label}: {bad.wrong}")
    os.remove(os.path.join(run.WORK, "selftest.json"))

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {name: unit for name, (_, unit) in PER_LAYER.items()}
    printed["trace.overhead_s"] = "s"
    if declared != printed:
        problems.append(f"per_layer in BENCHMARK.json differs: {set(declared) ^ set(printed)}")
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        problems.append("end_to_end in BENCHMARK.json differs from run.py")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
