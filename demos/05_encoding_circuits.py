"""Walk through the encoding circuits the loss analysis presumes.

One logical qutrit spreads over three physical qutrits; each qutrit maps to
two photonic qubits (six photons), or to one photon carrying a polarization
and a time-bin qubit (three multiplexed photons).  The multiplexed circuit
rebuilds every entangling gate from free mode relabelings around a single
branch-split polarization CNOT.
"""

import json

import numpy as np

from qnetagg import circuits as qc

alpha, beta, gamma = 1 / np.sqrt(3), 1j / np.sqrt(3), -1 / np.sqrt(3)

state = qc.qutrit_encode(alpha, beta, gamma)
target = qc.logical_qutrit_state(alpha, beta, gamma)
print(f"qutrit encoder fidelity:      {state.fidelity(target):.12f}")

six = qc.six_photon_encode(alpha, beta, gamma)
print(f"six-photon encoder fidelity:  "
      f"{six.fidelity(qc.logical_pair_state(alpha, beta, gamma)):.12f}")

mux = qc.multiplexed_encode(alpha, beta, gamma)
print(f"multiplexed vs six-photon:    {mux.fidelity(six):.12f}")

print("\ncross-DOF CNOT constructions (operator error vs ideal):")
for c in ("pol", "tb"):
    for t in ("pol", "tb"):
        err = np.max(np.abs(qc.table_cnot(c, t).matrix - qc.ideal_cnot16(c, t).matrix))
        print(f"  {c}1 -> {t}2: {err:.2e}")

err = np.max(
    np.abs(
        qc.toffoli_mode_split().matrix
        - qc.ideal_toffoli(3, controls=[(1, 1), (2, 1)], target=0).matrix
    )
)
print(f"\nbranch-split Toffoli vs ideal: {err:.2e}")

print("\nfull verification report:")
print(json.dumps(qc.verification_report(), indent=2, sort_keys=True))
