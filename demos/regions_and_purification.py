"""Classical/quantum regions of 2-qubit correlation, and purification cost.

A one-parameter family of 4-qubit pure states interpolates between GHZ
(u = 0) and the Bell-pair product (u = pi/4) while keeping the total
correlation at its maximum and every single qubit maximally mixed. The
internal correlation of the first pair then sweeps the band
[ln2, 2 ln2]: values above ln2 are unreachable by any classical state.
States in that quantum band can be purified with a single ancilla qubit;
in the classical band two ancillas are needed.
"""

import math

import numpy as np

from qcorr import (
    DensityOperator,
    PureState,
    classify_region,
    is_maximally_correlated_purification,
    min_purifying_qubits,
    purify,
    reduced_operator,
    total_correlation,
    uniform_entangled,
)

LN2 = math.log(2)


def tilted(u: float) -> PureState:
    amps = np.zeros(16, dtype=complex)
    c, s = math.cos(u) / math.sqrt(2), math.sin(u) / math.sqrt(2)
    amps[0b0000], amps[0b0011], amps[0b1100], amps[0b1111] = c, s, s, c
    return PureState(4, amps)


def first_pair(state: PureState) -> DensityOperator:
    return reduced_operator(state, (0, 1))


def main():
    print("internal correlation of qubits (a,b) along the GHZ -> Bell-product path\n")
    print(f"{'u/pi':>6} {'I_int/ln2':>10} {'region':>14} {'ancillas':>9} {'max corr purif':>15}")
    for frac in (0.0, 0.05, 0.125, 0.2, 0.25):
        u = frac * math.pi
        red = first_pair(tilted(u))
        internal = total_correlation(red)
        region = classify_region(internal, [LN2, LN2])
        result = purify(red)
        maximal = is_maximally_correlated_purification(result)
        print(
            f"{frac:>6.3f} {internal / LN2:>10.4f} {region.value:>14} "
            f"{result.ancilla_qubits:>9} {'yes' if maximal else 'no':>15}"
        )

    print("\nAt u = 0 (GHZ boundary) the single-ancilla purification is itself")
    print("maximally correlated; strictly inside the quantum band it is not.")

    print("\nThe classical-band extreme: the maximally mixed pair from the")
    print("uniformly entangled state needs two ancilla qubits:")
    red = first_pair(uniform_entangled(2))
    result = purify(red)
    print(
        f"    I_int = {total_correlation(red) / LN2:.4f} ln2, "
        f"ancillas = {min_purifying_qubits(red)}, "
        f"round-trip residual = {result.residual:.2e}"
    )


if __name__ == "__main__":
    main()
