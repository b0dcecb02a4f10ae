"""One operation of the mixed workload, run as a child process of run.py.

It purifies a 10-qubit operator of rank 32 built from a fixed seed. The
purification has 15 qubits, 512 KB of amplitudes, but `purify` also builds
the 4^15-entry density matrix of its own output to compute the residual,
16 GiB that neither `purify` nor `PureState` checks against the size cap.
Under the 2 GiB address-space limit set here, on this process alone, the
allocation is refused at once with a MemoryError on any machine, instead
of paging the machine out. If `purify` one day succeeds, its result is
checked like every other purification.

Prints one JSON line: {"error": ..., "wrong": ..., "spans": [...]}.
Usage: python3 bench/oversize.py --trace 0|1
"""

import argparse
import json
import os
import resource
import sys

ADDRESS_SPACE_LIMIT = 2 << 30
#: Fixed, so the operation fails the same way whatever the workload seed.
SEED = 20121
N_SYSTEM, N_ANCILLA = 10, 5


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import numpy as np

    import checks
    import qcorr
    import reference as ref
    from tracing import Tracer

    purifier = ref.random_state(np.random.default_rng(SEED), N_SYSTEM + N_ANCILLA)
    rho = qcorr.DensityOperator(N_SYSTEM, ref.density_of_system(purifier, N_SYSTEM))
    tracer = Tracer()
    if args.trace:
        tracer.install()
    error = wrong = None
    try:
        result = qcorr.purify(rho)
    except (MemoryError, qcorr.QcorrError) as e:
        error = f"{type(e).__name__}: {e}"
    finally:
        tracer.uninstall()
    if error is None:
        sref = ref.StateReference(purifier, N_SYSTEM + N_ANCILLA)
        try:
            checks.check_purified_operator(result, None, sref, N_SYSTEM, rho.matrix)
        except checks.CheckFailed as e:
            wrong = str(e)
    print(json.dumps({"error": error, "wrong": wrong, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
