"""Mixed-radix state-vector simulation of the encoding constructions.

Verifies, at the logical level, that the encoding circuits produce the
intended states:

* a three-qutrit repetition-style encoder built from a subtract-control gate
  and two cyclic-add gates;
* the same encoder on qubit pairs (six photons), with the qutrit values
  mapped 0 -> HH, 1 -> VH, 2 -> VV;
* the multiplexed variant (three photons, polarization + time-bin qubits),
  where every entangling step is realized as free photon-internal mode
  relabelings around a single polarization-polarization CNOT applied on one
  time-bin branch;
* the swap-conjugated CNOT constructions between arbitrary degrees of
  freedom of two photons, and the branch-split Toffoli.

Every gate and oracle matrix is a basis permutation built by
:func:`permutation_matrix`, or a product of such (the swap-conjugated CNOTs,
the relabeled Toffolis), except the branch rotation and the mode-split
composite, which adds a late-branch CNOT to the early-branch identity.

Photonic mode elements (PBS, delay line, optical switch) are modeled as
unitaries on the (polarization, time-bin) qubits; there is no Fock-space
simulation.  Basis conventions: polarization H=0/V=1, time-bin S=0/L=1;
photon ``i`` owns qubits ``2i`` (pol) and ``2i+1`` (tb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

UNITARY_TOL = 1e-10


class NonNormalizedInput(ValueError):
    """Input amplitudes do not form a unit vector."""


@dataclass(frozen=True)
class PureState:
    """State vector over subsystems of the given radices."""

    radices: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = math.prod(self.radices)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(dim)
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2; insensitive to global phase."""
        if self.radices != other.radices:
            raise ValueError("radix mismatch")
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


def basis_state(radices: Sequence[int], digits: Sequence[int]) -> PureState:
    radices = tuple(radices)
    idx = 0
    for r, d in zip(radices, digits):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} outside radix {r}")
        idx = idx * r + d
    amp = np.zeros(math.prod(radices), dtype=complex)
    amp[idx] = 1.0
    return PureState(radices, amp)


def product_state(factors: Sequence[tuple[int, np.ndarray]]) -> PureState:
    """Tensor product of per-subsystem vectors given as (radix, amplitudes)."""
    amp = np.array([1.0 + 0j])
    radices = []
    for r, vec in factors:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (r,):
            raise ValueError(f"factor of radix {r} has {v.size} amplitudes")
        amp = np.kron(amp, v)
        radices.append(r)
    return PureState(tuple(radices), amp)


def assert_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    eye = np.eye(m.shape[0])
    if np.max(np.abs(m.conj().T @ m - eye)) > tol:
        raise ValueError("matrix is not unitary within tolerance")
    return m


def apply_unitary(
    state: PureState,
    matrix: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[tuple[int, int]] = (),
) -> PureState:
    """Apply ``matrix`` to the target subsystems, optionally value-controlled.

    ``controls`` lists ``(subsystem, value)`` pairs; the unitary acts only on
    the slice where every control subsystem holds its value, which keeps the
    overall operation unitary.
    """
    n = len(state.radices)
    targets = list(targets)
    ctrl_axes = [c for c, _ in controls]
    if len(set(targets) | set(ctrl_axes)) != len(targets) + len(ctrl_axes):
        raise ValueError("targets and controls must be distinct subsystems")
    matrix = assert_unitary(matrix)
    tdim = math.prod(state.radices[t] for t in targets)
    if matrix.shape != (tdim, tdim):
        raise ValueError(f"matrix shape {matrix.shape} does not match targets")

    psi = state.amplitudes.reshape(state.radices).copy()
    rest = [i for i in range(n) if i not in targets]
    perm = targets + rest
    moved = np.transpose(psi, perm)
    slicer: list = [slice(None)] * len(rest)
    for axis, value in controls:
        slicer[rest.index(axis)] = value
    full = (slice(None),) * len(targets) + tuple(slicer)
    block = moved[full]
    flat = block.reshape(tdim, -1)
    moved[full] = (matrix @ flat).reshape(block.shape)
    out = np.transpose(moved, np.argsort(perm)).reshape(-1)
    return PureState(state.radices, out)


@dataclass(frozen=True)
class Gate:
    """A unitary bound to target subsystems, with optional value controls."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", assert_unitary(self.matrix))

    def apply(self, state: PureState) -> PureState:
        return apply_unitary(state, self.matrix, self.targets, self.controls)


def run(state: PureState, gates: Sequence[Gate]) -> PureState:
    for g in gates:
        state = g.apply(state)
    return state


# --- elementary matrices -------------------------------------------------------


def permutation_matrix(size: int, image: Callable[[int], int]) -> np.ndarray:
    """The ``size``-square basis permutation sending ``|i>`` to ``|image(i)>``."""
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        m[image(i), i] = 1.0
    return m


X = permutation_matrix(2, lambda i: 1 - i)
SWAP2 = permutation_matrix(4, lambda i: (i & 1) << 1 | i >> 1)  # swap two qubits


def branch_rotation(theta: float) -> np.ndarray:
    """Reflection sending |1> to cos(t)|0> + sin(t)|1> (beam-splitter-like)."""
    return np.array(
        [[-math.sin(theta), math.cos(theta)], [math.cos(theta), math.sin(theta)]],
        dtype=complex,
    )


def qutrit_shift_gate(sign: int) -> np.ndarray:
    """|c, t> -> |c, t + sign*c mod 3> on two qutrits: +1 adds, -1 subtracts."""

    def image(idx: int) -> int:
        c, t = divmod(idx, 3)
        return 3 * c + (t + sign * c) % 3

    return permutation_matrix(9, image)


def pair_permutation(mapping: dict[int, int]) -> np.ndarray:
    """4x4 permutation of one photon's (pol, tb) basis H_S, H_L, V_S, V_L."""
    return permutation_matrix(4, lambda src: mapping.get(src, src))


# Mode swaps used by the cross-DOF CNOT constructions.  Basis index 2*pol+tb.
SWAP_HS_VL = pair_permutation({0: 3, 3: 0})  # H_S <-> V_L
SWAP_HL_VS = pair_permutation({1: 2, 2: 1})  # H_L <-> V_S


# --- logical codewords ---------------------------------------------------------

CODE_TRIPLES = {
    0: ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
    1: ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    2: ((0, 2, 1), (1, 0, 2), (2, 1, 0)),
}

PAIR_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1)}  # 0->HH, 1->VH, 2->VV


def logical_qutrit_state(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Direct construction of the encoded three-qutrit state (the oracle)."""
    amp = np.zeros(27, dtype=complex)
    for weight, value in ((alpha, 0), (beta, 1), (gamma, 2)):
        for a, b, c in CODE_TRIPLES[value]:
            amp[9 * a + 3 * b + c] += weight / math.sqrt(3)
    return PureState((3, 3, 3), amp)


def logical_pair_state(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Direct construction of the six-qubit encoded state (the oracle)."""
    amp = np.zeros(64, dtype=complex)
    for weight, value in ((alpha, 0), (beta, 1), (gamma, 2)):
        for triple in CODE_TRIPLES[value]:
            bits = []
            for digit in triple:
                bits.extend(PAIR_BITS[digit])
            idx = 0
            for b in bits:
                idx = 2 * idx + b
            amp[idx] += weight / math.sqrt(3)
    return PureState((2,) * 6, amp)


def _check_amplitudes(*amps: complex) -> None:
    if abs(sum(abs(a) ** 2 for a in amps) - 1.0) > 1e-9:
        raise NonNormalizedInput("the squared amplitude moduli must sum to 1")


# --- qutrit encoder ------------------------------------------------------------


def qutrit_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Encode one qutrit into three via subtract-control then two cyclic adds.

    Initialization: (alpha, beta, gamma) on qutrit 0, |0> on qutrit 1, the
    uniform superposition on qutrit 2.  The subtract gate maps
    |1>|0> -> |1>|2> and |2>|0> -> |2>|1>; the add gates fan qutrit 2's value
    onto qutrits 1 and 0.
    """
    _check_amplitudes(alpha, beta, gamma)
    state = product_state(
        [
            (3, np.array([alpha, beta, gamma])),
            (3, np.array([1.0, 0.0, 0.0])),
            (3, np.array([1.0, 1.0, 1.0]) / math.sqrt(3)),
        ]
    )
    state = apply_unitary(state, qutrit_shift_gate(-1), [0, 1])
    state = apply_unitary(state, qutrit_shift_gate(1), [2, 1])
    state = apply_unitary(state, qutrit_shift_gate(1), [2, 0])
    return state


# --- qubit-pair encoder (six photons) ------------------------------------------
#
# Pair arithmetic in the 0->00, 1->10, 2->11 encoding.  The +1 step on a pair
# (x, y) is [flip y if x] then [flip x if y=0]; both are involutions, and the
# value-controlled versions below condition them on one qubit of another pair.


def _controlled_increment(control: int, x: int, y: int) -> list[Gate]:
    return [
        Gate(X, (y,), ((control, 1), (x, 1))),
        Gate(X, (x,), ((control, 1), (y, 0))),
    ]


def _controlled_decrement(control: int, x: int, y: int) -> list[Gate]:
    return _controlled_increment(control, x, y)[::-1]


def _pair_encoder_gates() -> list[Gate]:
    """The pair-level circuit: subtract pair0 from pair1, add pair2 to both."""
    (x1, y1), (x2, y2), (x3, y3) = (0, 1), (2, 3), (4, 5)
    gates: list[Gate] = []
    # target <- target - control  (control pair 0 onto pair 1): -c = +2c
    gates += _controlled_decrement(x1, x2, y2)
    gates += _controlled_decrement(y1, x2, y2)
    # target <- target + control  (control pair 2 onto pairs 1 and 0)
    gates += _controlled_increment(x3, x2, y2)
    gates += _controlled_increment(y3, x2, y2)
    gates += _controlled_increment(x3, x1, y1)
    gates += _controlled_increment(y3, x1, y1)
    return gates


def _pair_input(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Checked six-qubit input: (alpha, beta, gamma) on pair 0 as 00, 10, 11,
    |00> on pair 1, the uniform superposition of the three words on pair 2.
    """
    _check_amplitudes(alpha, beta, gamma)
    pair1 = np.array([alpha, 0, beta, gamma], dtype=complex)
    pair3 = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex) / math.sqrt(3)
    init = product_state([(4, pair1), (4, np.array([1.0, 0, 0, 0])), (4, pair3)])
    return PureState((2,) * 6, init.amplitudes)


def six_photon_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Run the qubit-pair circuit on six polarization qubits.

    Output matches :func:`logical_pair_state`: e.g. (1,0,0) encodes to
    (|HHHHHH> + |VHVHVH> + |VVVVVV>)/sqrt(3).
    """
    return run(_pair_input(alpha, beta, gamma), _pair_encoder_gates())


# --- initial-state preparation circuits ----------------------------------------


def prepare_two_qubit_qutrit(alpha: complex, beta: complex, theta: float) -> PureState:
    """Two-photon qutrit preparation: CNOT, branch rotation, swap.

    Returns alpha|00> + beta cos(theta)|01> + beta sin(theta)|11>, built by
    the gate sequence rather than direct assignment: entangle with a CNOT,
    rotate the second qubit on the first qubit's |1> branch, then swap.
    """
    _check_amplitudes(alpha, beta)
    state = product_state([(2, np.array([alpha, beta])), (2, np.array([1.0, 0.0]))])
    state = apply_unitary(state, X, [1], controls=[(0, 1)])
    state = apply_unitary(state, branch_rotation(theta), [1], controls=[(0, 1)])
    state = apply_unitary(state, SWAP2, [0, 1])
    return state


def prepare_multiplexed_qutrit(alpha: complex, beta: complex, theta: float) -> PureState:
    """Single-photon qutrit preparation on (pol, tb).

    PBS plus delay sends V to the late bin (CNOT pol->tb); a rotation on the
    late branch splits the V amplitude; an optical-switch relabeling
    H_L <-> V_S recombines the modes, leaving
    alpha|H_S> + beta cos(theta)|V_S> + beta sin(theta)|V_L>.
    """
    _check_amplitudes(alpha, beta)
    state = product_state([(2, np.array([alpha, beta])), (2, np.array([1.0, 0.0]))])
    state = apply_unitary(state, X, [1], controls=[(0, 1)])
    state = apply_unitary(state, branch_rotation(theta), [0], controls=[(1, 1)])
    state = apply_unitary(state, SWAP_HL_VS, [0, 1])
    return state


# --- cross-DOF CNOT and branch Toffoli constructions ----------------------------


def _native_cnot16() -> np.ndarray:
    """CNOT from pol_1 onto pol_2 on two full photons (qubits pol1,tb1,pol2,tb2)."""
    return permutation_matrix(16, lambda idx: idx ^ 0b0010 if idx & 0b1000 else idx)


def ideal_cnot16(control_dof: str, target_dof: str) -> np.ndarray:
    """Plain CNOT between the chosen DOFs, identity elsewhere (the oracle)."""
    pos = {"pol1": 3, "tb1": 2, "pol2": 1, "tb2": 0}
    c = pos[f"{control_dof}1"]
    t = pos[f"{target_dof}2"]
    return permutation_matrix(16, lambda idx: idx ^ (1 << t) if idx >> c & 1 else idx)


def table_cnot(control_dof: str, target_dof: str) -> Gate:
    """Swap-conjugated CNOT between DOFs of photon 1 (control) and photon 2.

    The only photon-photon interaction is the native polarization CNOT;
    time-bin involvement is moved onto polarization by the mode swaps
    H_S <-> V_L (target side) and H_L <-> V_S (control side), applied before
    and after.
    """
    if control_dof not in ("pol", "tb") or target_dof not in ("pol", "tb"):
        raise ValueError("DOFs are 'pol' or 'tb'")
    eye4 = np.eye(4, dtype=complex)
    m = _native_cnot16()
    if target_dof == "tb":
        wb = np.kron(eye4, SWAP_HS_VL)
        m = wb @ m @ wb
    if control_dof == "tb":
        wa = np.kron(SWAP_HL_VS, eye4)
        m = wa @ m @ wa
    return Gate(m, targets=(0, 1, 2, 3), name=f"cnot[{control_dof}1->{target_dof}2]")


def ideal_toffoli(
    dim: int, controls: Sequence[tuple[int, int]], target: int
) -> np.ndarray:
    """Toffoli truth table on ``dim`` qubits: flip target iff controls match."""

    def image(idx: int) -> int:
        hit = all((idx >> (dim - 1 - c)) & 1 == v for c, v in controls)
        return idx ^ (1 << (dim - 1 - target)) if hit else idx

    return permutation_matrix(1 << dim, image)


def toffoli_mode_split() -> Gate:
    """Branch-split Toffoli on (pol_1; pol_2, tb_2).

    An optical switch routes photon 2 by time bin; the polarization CNOT from
    pol_2 onto pol_1 acts only on the late branch; the switch recombines.
    Modeled as P_L (x) CNOT + P_S (x) I on qubit order (pol1, pol2, tb2); the
    result equals the Toffoli with controls (pol2=1, tb2=1) and target pol1.
    """
    # control pol2 (low bit), target pol1 (high bit)
    cnot = permutation_matrix(4, lambda idx: idx ^ 0b10 if idx & 0b01 else idx)
    p_late = np.diag([0.0, 1.0]).astype(complex)
    p_short = np.diag([1.0, 0.0]).astype(complex)
    composite = np.kron(cnot, p_late) + np.kron(np.eye(4), p_short)
    return Gate(composite, targets=(0, 1, 2), name="toffoli[pol2,tb2=L -> pol1]")


def _dof(qubit: int) -> str:
    return "pol" if qubit % 2 == 0 else "tb"


_PAIR_RELABEL = {
    # (control_dof_of_B, control_value, target_dof_of_B) -> photon-B relabeling
    # that moves the split onto tb=1 and the CNOT target onto pol.
    ("tb", 1, "pol"): np.eye(4, dtype=complex),
    ("tb", 0, "pol"): pair_permutation({0: 1, 1: 0, 2: 3, 3: 2}),  # relabel S<->L
    ("pol", 1, "tb"): SWAP_HL_VS,
    ("pol", 0, "tb"): pair_permutation({0: 1, 1: 3, 2: 0, 3: 2}),  # 4-cycle of modes
}


def shared_photon_toffoli(
    control_a_dof: str, control_b: tuple[str, int], target_b_dof: str
) -> np.ndarray:
    """16x16 Toffoli between photons built from one branch-split CNOT.

    Control 1 is a DOF of photon A (active on value 1); control 2 and the
    target are the two DOFs of photon B.  Free mode relabelings on each
    photon move the configuration onto the canonical split (photon B routed
    by time bin, CNOT pol_A -> pol_B on the late branch); the composite is
    checked against the ideal Toffoli truth table at construction.
    """
    b_dof, b_value = control_b
    if {b_dof, target_b_dof} != {"pol", "tb"}:
        raise ValueError("photon-B control and target must be its two distinct DOFs")
    ra = np.eye(4, dtype=complex) if control_a_dof == "pol" else SWAP_HL_VS
    rb = _PAIR_RELABEL[(b_dof, b_value, target_b_dof)]

    # canonical split CNOT on (pol_A, tb_A, pol_B, tb_B): CNOT(pol_A -> pol_B)
    # applied on the tb_B = L branch only.
    canonical = permutation_matrix(
        16, lambda idx: idx ^ 0b0010 if idx & 0b1001 == 0b1001 else idx
    )

    conj = np.kron(ra, rb)
    composite = conj.conj().T @ canonical @ conj

    pos = {"pol": 0, "tb": 1}
    expected = ideal_toffoli(
        4,
        controls=[(pos[control_a_dof], 1), (2 + pos[b_dof], b_value)],
        target=2 + pos[target_b_dof],
    )
    if np.max(np.abs(composite - expected)) > UNITARY_TOL:
        raise AssertionError("branch-split construction does not reproduce the Toffoli")
    return composite


def multiplexed_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Run the pair circuit on three multiplexed photons.

    Photon ``i`` carries qubits (pol, tb) = (2i, 2i+1); initial states follow
    the single-photon preparation mapping H_S/V_S/V_L.  Every Toffoli of the
    pair circuit is applied through :func:`shared_photon_toffoli`, i.e. mode
    relabelings around one branch-split polarization CNOT, so the whole
    encoder uses three photon-photon interactions per cyclic step.  The
    output must match the six-photon encoding under the identification
    (pol_i, tb_i) = (qubit 2i, qubit 2i+1).
    """
    state = _pair_input(alpha, beta, gamma)
    for gate in _pair_encoder_gates():
        (control, _), (b_qubit, b_value) = gate.controls
        target = gate.targets[0]
        composite = shared_photon_toffoli(
            _dof(control), (_dof(b_qubit), b_value), _dof(target)
        )
        a0, b0 = 2 * (control // 2), 2 * (b_qubit // 2)
        state = apply_unitary(state, composite, [a0, a0 + 1, b0, b0 + 1])
    return state


# --- verification suite ---------------------------------------------------------

FIDELITY_LOSS = "1 - fidelity"
OPERATOR_ERROR = "operator error"


def _check(name: str, worst: float, metric: str) -> dict:
    """One report entry; a fidelity-loss entry also carries ``worst_fidelity``."""
    entry = {"name": name, "passed": worst <= UNITARY_TOL, "worst_error": worst, "metric": metric}
    if metric == FIDELITY_LOSS:
        entry["worst_fidelity"] = 1.0 - worst
    return entry


def _codeword_checks() -> list[dict]:
    cases = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        cases.append(tuple(v))
    checks = []
    for name, encoder, oracle in (
        ("qutrit-encoder", qutrit_encode, logical_qutrit_state),
        ("six-photon-encoder", six_photon_encode, logical_pair_state),
        ("multiplexed-encoder", multiplexed_encode, logical_pair_state),
    ):
        worst = 0.0
        for a, b, g in cases:
            worst = max(worst, 1.0 - encoder(a, b, g).fidelity(oracle(a, b, g)))
        checks.append(_check(name, worst, FIDELITY_LOSS))
    return checks


def _preparation_check() -> dict:
    worst = 0.0
    rng = np.random.default_rng(11)
    for theta in (0.0, math.pi / 2, math.pi / 4, 1.234):
        for _ in range(3):
            a = rng.uniform(0.1, 0.9)
            b = math.sqrt(1 - a * a)
            # want a|00> + b cos(theta)|x> + b sin(theta)|11>, x = 01 or V_S = 10
            for prepare, x in ((prepare_two_qubit_qutrit, 1), (prepare_multiplexed_qutrit, 2)):
                want = np.zeros(4, dtype=complex)
                want[0], want[x], want[3] = a, b * math.cos(theta), b * math.sin(theta)
                got = prepare(a, b, theta)
                worst = max(worst, 1.0 - got.fidelity(PureState((2, 2), want)))
    return _check("qutrit-preparation", worst, FIDELITY_LOSS)


def _cross_dof_cnot_check() -> dict:
    worst = 0.0
    for c in ("pol", "tb"):
        for t in ("pol", "tb"):
            got = table_cnot(c, t).matrix
            want = ideal_cnot16(c, t)
            worst = max(worst, float(np.max(np.abs(got - want))))
            twice = got @ got
            worst = max(worst, float(np.max(np.abs(twice - np.eye(16)))))
    return _check("cross-dof-cnot", worst, OPERATOR_ERROR)


def _toffoli_checks() -> list[dict]:
    got = toffoli_mode_split().matrix
    want = ideal_toffoli(3, controls=[(1, 1), (2, 1)], target=0)
    err = float(np.max(np.abs(got - want)))
    worst = 0.0
    for a_dof in ("pol", "tb"):
        for b_dof, t_dof in (("pol", "tb"), ("tb", "pol")):
            for v in (0, 1):
                try:
                    shared_photon_toffoli(a_dof, (b_dof, v), t_dof)
                except AssertionError:
                    worst = 1.0
    return [
        _check("branch-toffoli", err, OPERATOR_ERROR),
        _check("shared-photon-toffoli", worst, OPERATOR_ERROR),
    ]


def verification_report() -> dict:
    """Run every encoding/gate verification; returns a JSON-ready report."""
    checks = _codeword_checks()
    checks.append(_preparation_check())
    checks.append(_cross_dof_cnot_check())
    checks.extend(_toffoli_checks())
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
