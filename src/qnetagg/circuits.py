"""Encoding circuits of the multiplexed code, checked as exact basis maps.

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

Every gate but the branch rotation is a basis permutation (:class:`Gate`),
over a whole state space one index array, checked to be a bijection when
built; circuits, relabelings and conjugations compose such arrays, with no
matrix products.  By linearity a permutation's action on the basis decides
it for every amplitude vector, so six of the seven report checks are exact
verdicts; only ``qutrit-preparation``, with its dense rotation, is numeric.

Photonic mode elements (PBS, delay line, optical switch) are modeled as
unitaries on the (polarization, time-bin) qubits; there is no Fock-space
simulation.  Basis conventions: polarization H=0/V=1, time-bin S=0/L=1;
photon ``i`` owns qubits ``2i`` (pol) and ``2i+1`` (tb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    if len(digits) != len(radices):
        raise ValueError(f"{len(digits)} digits for {len(radices)} radices")
    for r, d in zip(radices, digits):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} outside radix {r}")
    amp = np.zeros(math.prod(radices), dtype=complex)
    amp[np.ravel_multi_index(tuple(digits), radices)] = 1.0
    return PureState(radices, amp)


def product_state(factors: Sequence[tuple[int, np.ndarray]]) -> PureState:
    """Tensor product of per-subsystem vectors given as (radix, amplitudes)."""
    amp = np.array([1.0 + 0j])
    for r, vec in factors:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (r,):
            raise ValueError(f"factor of radix {r} has {v.size} amplitudes")
        amp = np.outer(amp, v).ravel()
    return PureState(tuple(r for r, _ in factors), amp)


def assert_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    eye = np.eye(m.shape[0])
    if not np.max(np.abs(m.conj().T @ m - eye)) <= tol:  # NaN fails too
        raise ValueError("matrix is not unitary within tolerance")
    return m


def apply_unitary(
    state: PureState, matrix: np.ndarray, targets: Sequence[int], controls: Sequence = ()
) -> PureState:
    """Apply ``matrix`` to the target subsystems, optionally value-controlled.

    ``controls`` lists ``(subsystem, value)`` pairs; the unitary acts only on
    the slice where every control subsystem holds its value, which keeps the
    overall operation unitary.
    """
    matrix = assert_unitary(matrix)

    def act(block: np.ndarray) -> np.ndarray:
        if matrix.shape != (len(block),) * 2:
            raise ValueError(f"matrix shape {matrix.shape} does not match targets")
        return matrix @ block

    return PureState(state.radices, _act(state.amplitudes, state.radices, targets, controls, act))


def _act(values: np.ndarray, radices: tuple[int, ...], targets, controls, act) -> np.ndarray:
    """``values`` over the basis of ``radices``, ``act`` applied to their block on
    the targets (a row per joint target state) where every control holds."""
    n, targets = len(radices), list(targets)
    axes = [("target", t) for t in targets] + [("control", c) for c, _ in controls]
    for role, axis in axes:
        if not 0 <= axis < n:
            raise ValueError(f"{role} {axis} outside subsystems 0..{n - 1}")
    if len({axis for _, axis in axes}) != len(axes):
        raise ValueError("targets and controls must be distinct subsystems")
    order = targets + [i for i in range(n) if i not in targets]
    moved = np.transpose(values.reshape(radices).copy(), order)
    where = tuple(dict(controls).get(axis, slice(None)) for axis in order)
    block = moved[where]
    rows = math.prod(radices[t] for t in targets)
    moved[where] = act(block.reshape(rows, -1)).reshape(block.shape)
    return np.transpose(moved, np.argsort(order)).reshape(-1)


# --- basis permutations ---------------------------------------------------------


def _bijection(image: Sequence[int]) -> np.ndarray:
    """``image`` as a read-only index array, checked to permute ``0..n-1``."""
    img = np.array(image, dtype=np.intp)
    if not np.array_equal(np.sort(img), np.arange(img.size)):
        raise ValueError("basis map is not a bijection")
    img.setflags(write=False)
    return img


@dataclass(frozen=True)
class Gate:
    """A basis permutation of the target subsystems: ``image[j]`` is where their
    joint basis state ``j`` goes, on the slice where every control holds."""

    image: tuple[int, ...]
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()  # (subsystem, value) pairs

    @property
    def matrix(self) -> np.ndarray:
        """The dense unitary on the targets, controls left out: the one place a
        permutation is built as a matrix."""
        img = _bijection(self.image)
        m = np.zeros((img.size, img.size), dtype=complex)
        m[img, np.arange(img.size)] = 1.0
        return m


@lru_cache(maxsize=256)
def _index_map(gate: Gate, radices: tuple[int, ...]) -> np.ndarray:
    """``gate`` over the whole state space of ``radices``, as one index array."""
    image, basis = list(gate.image), np.arange(math.prod(radices))
    return _bijection(_act(basis, radices, gate.targets, gate.controls, lambda b: b[image]))


def run(state: PureState, gates: Sequence[Gate]) -> PureState:
    """``state`` through ``gates``, composed into one index array first."""
    image = np.arange(state.amplitudes.size)
    for gate in gates:
        image = _index_map(gate, state.radices)[image]
    out = np.empty_like(state.amplitudes)
    out[image] = state.amplitudes
    return PureState(state.radices, out)


# --- elementary gates ----------------------------------------------------------

_FLIP = (1, 0)


def branch_rotation(theta: float) -> np.ndarray:
    """Reflection sending |1> to cos(t)|0> + sin(t)|1> (beam-splitter-like)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[-s, c], [c, s]], dtype=complex)


def qutrit_shift_gate(sign: int, control: int, target: int) -> Gate:
    """|c, t> -> |c, t + sign*c mod 3> on qutrits (control, target): +1 adds,
    -1 subtracts."""
    image = tuple(3 * c + (t + sign * c) % 3 for c in range(3) for t in range(3))
    return Gate(image, (control, target))


# Mode swaps used by the cross-DOF CNOT constructions.  Basis index 2*pol+tb.
_IDENTITY4 = (0, 1, 2, 3)
_HS_VL = (3, 1, 2, 0)  # H_S <-> V_L
_HL_VS = (0, 2, 1, 3)  # H_L <-> V_S, also the swap of two qubits


# --- logical codewords ---------------------------------------------------------

CODE_TRIPLES = {
    0: ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
    1: ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    2: ((0, 2, 1), (1, 0, 2), (2, 1, 0)),
}


def _as_pairs(state: PureState) -> PureState:
    """A qutrit state on qubit pairs: values 0/1/2 become 00/10/11 (HH/VH/VV)."""
    index = np.zeros(1, dtype=int)
    for _ in state.radices:
        index = (4 * index[:, None] + [0b00, 0b10, 0b11]).ravel()
    amp = np.zeros(4 ** len(state.radices), dtype=complex)
    amp[index] = state.amplitudes
    return PureState((2,) * (2 * len(state.radices)), amp)


def logical_qutrit_state(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Direct construction of the encoded three-qutrit state (the oracle)."""
    amp = np.zeros(27, dtype=complex)
    for weight, value in ((alpha, 0), (beta, 1), (gamma, 2)):
        for a, b, c in CODE_TRIPLES[value]:
            amp[9 * a + 3 * b + c] += weight / math.sqrt(3)
    return PureState((3, 3, 3), amp)


def logical_pair_state(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """The six-qubit encoded state (the oracle): the qutrit one on pairs."""
    return _as_pairs(logical_qutrit_state(alpha, beta, gamma))


def _check_amplitudes(*amps: complex) -> None:
    if not abs(sum(abs(a) ** 2 for a in amps) - 1.0) <= 1e-9:  # NaN fails too
        raise NonNormalizedInput("the squared amplitude moduli must sum to 1")


# --- qutrit encoder ------------------------------------------------------------


def _qutrit_input(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Checked input of :func:`qutrit_encode`."""
    _check_amplitudes(alpha, beta, gamma)
    uniform = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    return product_state([(3, np.array([alpha, beta, gamma])), (3, np.eye(3)[0]), (3, uniform)])


def _qutrit_encoder_gates() -> list[Gate]:
    return [qutrit_shift_gate(-1, 0, 1), qutrit_shift_gate(1, 2, 1), qutrit_shift_gate(1, 2, 0)]


def qutrit_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Encode one qutrit into three via subtract-control then two cyclic adds.

    Initialization: (alpha, beta, gamma) on qutrit 0, |0> on qutrit 1, the
    uniform superposition on qutrit 2.  The subtract gate maps
    |1>|0> -> |1>|2> and |2>|0> -> |2>|1>; the add gates fan qutrit 2's value
    onto qutrits 1 and 0."""
    return run(_qutrit_input(alpha, beta, gamma), _qutrit_encoder_gates())


# --- qubit-pair encoder (six photons) ------------------------------------------
#
# Pair arithmetic in the 0->00, 1->10, 2->11 encoding.  The +1 step on a pair
# (x, y) is [flip y if x] then [flip x if y=0]; both are involutions, and the
# value-controlled versions below condition them on one qubit of another pair.


def _controlled_increment(control: int, x: int, y: int) -> list[Gate]:
    return [Gate(_FLIP, (y,), ((control, 1), (x, 1))), Gate(_FLIP, (x,), ((control, 1), (y, 0)))]


def _pair_encoder_gates() -> list[Gate]:
    """The pair-level circuit: subtract pair0 from pair1, add pair2 to both."""
    gates: list[Gate] = []
    # target <- target - control (pair 0 onto pair 1): -c = +2c; a decrement is
    # the increment's two gates reversed
    for control in (0, 1):
        gates += _controlled_increment(control, 2, 3)[::-1]
    # target <- target + control (pair 2 onto pairs 1 and 0)
    for x, y in ((2, 3), (0, 1)):
        for control in (4, 5):
            gates += _controlled_increment(control, x, y)
    return gates


def _pair_input(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """The qutrit encoder's input on qubit pairs."""
    return _as_pairs(_qutrit_input(alpha, beta, gamma))


def six_photon_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Run the qubit-pair circuit on six polarization qubits.

    Output matches :func:`logical_pair_state`: e.g. (1,0,0) encodes to
    (|HHHHHH> + |VHVHVH> + |VVVVVV>)/sqrt(3)."""
    return run(_pair_input(alpha, beta, gamma), _pair_encoder_gates())


# --- initial-state preparation circuits ----------------------------------------


def _prepare(
    alpha: complex, beta: complex, theta: float, rotated: int, swap: tuple[int, ...]
) -> PureState:
    """CNOT 0 -> 1, rotation of qubit ``rotated`` where the other is 1, then the
    two-qubit basis map ``swap``."""
    _check_amplitudes(alpha, beta)
    state = product_state([(2, np.array([alpha, beta])), (2, np.array([1.0, 0.0]))])
    state = run(state, [Gate(_FLIP, (1,), ((0, 1),))])
    state = apply_unitary(state, branch_rotation(theta), [rotated], controls=[(1 - rotated, 1)])
    return run(state, [Gate(swap, (0, 1))])


def prepare_two_qubit_qutrit(alpha: complex, beta: complex, theta: float) -> PureState:
    """Two-photon qutrit preparation: CNOT, branch rotation, swap.

    Returns alpha|00> + beta cos(theta)|01> + beta sin(theta)|11>, built by
    the gate sequence rather than direct assignment: entangle with a CNOT,
    rotate the second qubit on the first qubit's |1> branch, then swap.
    """
    return _prepare(alpha, beta, theta, 1, _HL_VS)


def prepare_multiplexed_qutrit(alpha: complex, beta: complex, theta: float) -> PureState:
    """Single-photon qutrit preparation on (pol, tb).

    PBS plus delay sends V to the late bin (CNOT pol->tb); a rotation on the
    late branch splits the V amplitude; an optical-switch relabeling
    H_L <-> V_S recombines the modes, leaving
    alpha|H_S> + beta cos(theta)|V_S> + beta sin(theta)|V_L>.
    """
    return _prepare(alpha, beta, theta, 0, _HL_VS)


# --- cross-DOF CNOT and branch Toffoli constructions ----------------------------


def ideal_toffoli(dim: int, controls: Sequence[tuple[int, int]], target: int) -> Gate:
    """Toffoli truth table over all ``dim`` qubits: flip target iff controls match."""
    flip = Gate(_FLIP, (target,), tuple((c, v) for c, v in controls))
    return Gate(tuple(_index_map(flip, (2,) * dim).tolist()), tuple(range(dim)))


_DOFS = ("pol", "tb")  # a photon's qubits in order


def _position(dof: str, role: str) -> int:
    """Qubit of ``dof`` within its photon; ``ValueError`` names the ``role``."""
    if dof not in _DOFS:
        raise ValueError(f"{role} DOF {dof!r}: DOFs are 'pol' or 'tb'")
    return _DOFS.index(dof)


def ideal_cnot16(control_dof: str, target_dof: str) -> Gate:
    """Plain CNOT from a DOF of photon 1 onto one of photon 2 on qubits
    (pol1, tb1, pol2, tb2), identity elsewhere (the oracle)."""
    control, target = _position(control_dof, "control"), _position(target_dof, "target")
    return ideal_toffoli(4, [(control, 1)], 2 + target)


def _relabeled(core: Gate, ra: Sequence[int], rb: Sequence[int]) -> Gate:
    """``core``, over photons (A, B), between mode relabelings: relabel A by
    ``ra`` and B by ``rb``, apply ``core``, undo the relabeling."""
    conj = (4 * np.asarray(ra)[:, None] + np.asarray(rb)).ravel()
    return Gate(tuple(np.argsort(conj)[np.asarray(core.image)[conj]].tolist()), core.targets)


def table_cnot(control_dof: str, target_dof: str) -> Gate:
    """Swap-conjugated CNOT between DOFs of photon 1 (control) and photon 2.

    The only photon-photon interaction is the native polarization CNOT; the
    mode swaps H_S <-> V_L (target side) and H_L <-> V_S (control side),
    applied before and after, move time-bin involvement onto polarization."""
    ra = _HL_VS if _position(control_dof, "control") else _IDENTITY4
    rb = _HS_VL if _position(target_dof, "target") else _IDENTITY4
    return _relabeled(ideal_toffoli(4, [(0, 1)], 2), ra, rb)


def toffoli_mode_split() -> Gate:
    """Branch-split Toffoli on (pol_1; pol_2, tb_2).

    An optical switch routes photon 2 by time bin; the polarization CNOT from
    pol_2 onto pol_1 acts only on the late branch (tb2 = L); the switch
    recombines.  The result equals the Toffoli (pol2=1, tb2=1) -> pol1."""
    late = Gate(ideal_toffoli(2, [(1, 1)], 0).image, (0, 1), ((2, 1),))  # pol2 onto pol1
    return Gate(tuple(_index_map(late, (2, 2, 2)).tolist()), (0, 1, 2))


_PAIR_RELABEL = {
    # (control_dof_of_B, control_value, target_dof_of_B) -> photon-B relabeling
    # that moves the split onto tb=1 and the CNOT target onto pol.
    ("tb", 1, "pol"): _IDENTITY4,
    ("tb", 0, "pol"): (1, 0, 3, 2),  # relabel S<->L
    ("pol", 1, "tb"): _HL_VS,
    ("pol", 0, "tb"): (1, 3, 0, 2),  # 4-cycle of modes
}


@lru_cache(maxsize=None)
def shared_photon_toffoli(control_a_dof: str, control_b: tuple, target_b_dof: str) -> Gate:
    """Toffoli on (pol_A, tb_A, pol_B, tb_B) built from one branch-split CNOT.

    Control 1 is a DOF of photon A (active on value 1); control 2 and the
    target are the two DOFs of photon B.  Free mode relabelings on each
    photon move the configuration onto the canonical split (photon B routed
    by time bin, CNOT pol_A -> pol_B on the late branch).  The report's
    ``shared-photon-toffoli`` check holds all eight exact."""
    ra = _HL_VS if _position(control_a_dof, "photon-A control") else _IDENTITY4
    rb = _PAIR_RELABEL.get((*control_b, target_b_dof))
    if rb is None:
        rule = "the control is one DOF of photon B at value 0 or 1, the target its other"
        raise ValueError(f"photon-B control {control_b!r} and target {target_b_dof!r}: {rule}")
    return _relabeled(ideal_toffoli(4, controls=[(0, 1), (3, 1)], target=2), ra, rb)


def _multiplexed_gates() -> list[Gate]:
    """The pair circuit's Toffolis as shared-photon composites on photons."""
    gates = []
    for gate in _pair_encoder_gates():
        (a, _), (b, b_value) = gate.controls
        target = _DOFS[gate.targets[0] % 2]
        shared = shared_photon_toffoli(_DOFS[a % 2], (_DOFS[b % 2], b_value), target)
        a0, b0 = a - a % 2, b - b % 2
        gates.append(Gate(shared.image, (a0, a0 + 1, b0, b0 + 1)))
    return gates


def multiplexed_encode(alpha: complex, beta: complex, gamma: complex) -> PureState:
    """Run the pair circuit on three multiplexed photons.

    Photon ``i`` carries qubits (pol, tb) = (2i, 2i+1); initial states follow
    the single-photon preparation mapping H_S/V_S/V_L.  Every Toffoli of the
    pair circuit is its :func:`shared_photon_toffoli` composite, mode
    relabelings around one branch-split polarization CNOT, so the encoder
    uses three photon-photon interactions per cyclic step.  The output must
    match the six-photon encoding with (pol_i, tb_i) = (qubit 2i, qubit 2i+1)."""
    return run(_pair_input(alpha, beta, gamma), _multiplexed_gates())


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
    """An encoder is a permutation, so by linearity the images of its inputs
    |v>|0>|t> (t = 0..2, the input's support for logical |v>) decide it: they
    must be ``CODE_TRIPLES[v]``, the oracle state's support."""
    checks = []
    for name, gates, prepare, oracle in (
        ("qutrit-encoder", _qutrit_encoder_gates(), _qutrit_input, logical_qutrit_state),
        ("six-photon-encoder", _pair_encoder_gates(), _pair_input, logical_pair_state),
        ("multiplexed-encoder", _multiplexed_gates(), _pair_input, logical_pair_state),
    ):
        exact = all(
            np.array_equal(run(prepare(*w), gates).amplitudes != 0, oracle(*w).amplitudes != 0)
            for w in np.eye(3)
        )
        checks.append(_check(name, float(not exact), FIDELITY_LOSS))
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
                worst = max(worst, 1.0 - prepare(a, b, theta).fidelity(PureState((2, 2), want)))
    return _check("qutrit-preparation", worst, FIDELITY_LOSS)


def _operator_checks() -> list[dict]:
    cnot = True
    for c, t in np.ndindex(2, 2):
        image = np.asarray(table_cnot(_DOFS[c], _DOFS[t]).image)
        cnot &= np.array_equal(image, ideal_toffoli(4, [(c, 1)], 2 + t).image)
        cnot &= np.array_equal(image[image], np.arange(16))  # an involution
    split = toffoli_mode_split().image == ideal_toffoli(3, [(1, 1), (2, 1)], 0).image
    shared = all(
        shared_photon_toffoli(_DOFS[a], (_DOFS[b], v), _DOFS[1 - b]).image
        == ideal_toffoli(4, [(a, 1), (2 + b, v)], 3 - b).image
        for a, b, v in np.ndindex(2, 2, 2)
    )
    verdicts = {"cross-dof-cnot": cnot, "branch-toffoli": split, "shared-photon-toffoli": shared}
    return [_check(name, float(not ok), OPERATOR_ERROR) for name, ok in verdicts.items()]


def verification_report() -> dict:
    """Run every encoding/gate verification; returns a JSON-ready report.

    ``qutrit-preparation`` is the worst fidelity loss over sampled inputs; each
    other entry is an exact verdict on index maps, ``worst_error`` 0.0 when
    they match and 1.0 when not, not a measured distance."""
    checks = _codeword_checks()
    checks.append(_preparation_check())
    checks.extend(_operator_checks())
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
