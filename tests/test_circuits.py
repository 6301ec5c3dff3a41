import math
import re

import numpy as np
import pytest

from qnetagg import circuits as qc
from qnetagg import cli

RNG = np.random.default_rng(123)


def random_qutrit_amplitudes():
    v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    return v / np.linalg.norm(v)


def test_qutrit_codewords():
    got = qc.qutrit_encode(1, 0, 0)
    want = np.zeros(27, dtype=complex)
    for idx in (0, 13, 26):  # 000, 111, 222
        want[idx] = 1 / math.sqrt(3)
    assert got.fidelity(qc.PureState((3, 3, 3), want)) >= 1 - 1e-10

    got = qc.qutrit_encode(0, 1, 0)
    want = np.zeros(27, dtype=complex)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        want[9 * a + 3 * b + c] = 1 / math.sqrt(3)
    assert got.fidelity(qc.PureState((3, 3, 3), want)) >= 1 - 1e-10

    got = qc.qutrit_encode(0, 0, 1)
    want = np.zeros(27, dtype=complex)
    for a, b, c in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        want[9 * a + 3 * b + c] = 1 / math.sqrt(3)
    assert got.fidelity(qc.PureState((3, 3, 3), want)) >= 1 - 1e-10


def test_qutrit_encode_random_inputs():
    for _ in range(10):
        a, b, g = random_qutrit_amplitudes()
        got = qc.qutrit_encode(a, b, g)
        assert got.fidelity(qc.logical_qutrit_state(a, b, g)) >= 1 - 1e-10
        assert abs(got.norm() - 1) < 1e-10


def test_qutrit_encode_rejects_non_normalized():
    with pytest.raises(qc.NonNormalizedInput):
        qc.qutrit_encode(1, 1, 0)


def test_codewords_orthonormal():
    for maker in (qc.logical_qutrit_state, qc.logical_pair_state):
        words = [maker(1, 0, 0), maker(0, 1, 0), maker(0, 0, 1)]
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                expected = 1.0 if i == j else 0.0
                assert wi.fidelity(wj) == pytest.approx(expected, abs=1e-12)


def test_encoding_is_isometry():
    # fidelities between encoded states equal fidelities between inputs
    for _ in range(5):
        u = random_qutrit_amplitudes()
        v = random_qutrit_amplitudes()
        inner = abs(np.vdot(u, v)) ** 2
        eu = qc.six_photon_encode(*u)
        ev = qc.six_photon_encode(*v)
        assert eu.fidelity(ev) == pytest.approx(inner, abs=1e-10)


# Each preparation with the basis index of its cos(theta) term: the
# two-photon one gives a|00> + b cos|01> + b sin|11>, the multiplexed one
# a|H_S> + b cos|V_S> + b sin|V_L> with H_S = 00, V_S = 10, V_L = 11.
PREPARATIONS = pytest.mark.parametrize(
    "prepare,cos_index",
    [(qc.prepare_two_qubit_qutrit, 1), (qc.prepare_multiplexed_qutrit, 2)],
    ids=["two-qubit", "multiplexed"],
)


@PREPARATIONS
def test_prepare_qutrit_special_angles(prepare, cos_index):
    a, b = 0.6, 0.8
    got = prepare(a, b, 0.0)
    want = np.zeros(4, dtype=complex)
    want[0], want[cos_index] = a, b  # theta = 0: only the cos term
    assert got.fidelity(qc.PureState((2, 2), want)) >= 1 - 1e-10

    got = prepare(a, b, math.pi / 2)
    want = np.array([a, 0, 0, b], dtype=complex)  # a|00> + b|11>
    assert got.fidelity(qc.PureState((2, 2), want)) >= 1 - 1e-10

    s = 1 / math.sqrt(2)
    got = prepare(s, s, math.pi / 4)
    want = np.array([s, 0, 0, 0.5], dtype=complex)
    want[cos_index] = 0.5
    assert np.allclose(got.amplitudes, want, atol=1e-10)


@PREPARATIONS
def test_prepare_qutrit_rejects_non_normalized(prepare, cos_index):
    with pytest.raises(qc.NonNormalizedInput):
        prepare(0.9, 0.9, 0.1)


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: qc.qutrit_encode(NAN, 0, 0),
        lambda: qc.six_photon_encode(0, NAN, 0),
        lambda: qc.multiplexed_encode(0, 0, NAN),
        lambda: qc.prepare_two_qubit_qutrit(NAN, 0.8, 0.1),
        lambda: qc.prepare_multiplexed_qutrit(0.6, NAN, 0.1),
    ],
    ids=["qutrit", "six-photon", "multiplexed", "prepare-two-qubit", "prepare-multiplexed"],
)
def test_nan_amplitude_is_not_normalized(call):
    # a NaN modulus sum compares false against the tolerance, and must still fail
    with pytest.raises(qc.NonNormalizedInput):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: qc.prepare_two_qubit_qutrit(0.6, 0.8, NAN),
        lambda: qc.prepare_multiplexed_qutrit(0.6, 0.8, NAN),
        lambda: qc.apply_unitary(qc.basis_state((2,), (0,)), np.full((2, 2), NAN), [0]),
    ],
    ids=["prepare-two-qubit-theta", "prepare-multiplexed-theta", "apply-unitary"],
)
def test_nan_matrix_is_not_unitary(call):
    with pytest.raises(ValueError, match="not unitary"):
        call()


@pytest.mark.parametrize("c", range(3))
@pytest.mark.parametrize("t", range(3))
def test_qutrit_shift_gate_adds_control(c, t):
    out = qc.run(qc.basis_state((3, 3), (c, t)), [qc.qutrit_shift_gate(1, 0, 1)])
    assert out.fidelity(qc.basis_state((3, 3), (c, (t + c) % 3))) == pytest.approx(1, abs=1e-12)


def test_qutrit_shift_gate_minus_is_inverse():
    product = qc.qutrit_shift_gate(-1, 0, 1).matrix @ qc.qutrit_shift_gate(1, 0, 1).matrix
    assert np.array_equal(product, np.eye(9))


def test_six_photon_codewords():
    # polarization spellings of the three logical words
    def bits(s):
        return [0 if ch == "H" else 1 for ch in s]

    def idx(s):
        out = 0
        for b in bits(s):
            out = 2 * out + b
        return out

    want0 = np.zeros(64, dtype=complex)
    for s in ("HHHHHH", "VHVHVH", "VVVVVV"):
        want0[idx(s)] = 1 / math.sqrt(3)
    assert qc.six_photon_encode(1, 0, 0).fidelity(qc.PureState((2,) * 6, want0)) >= 1 - 1e-10

    want1 = np.zeros(64, dtype=complex)
    for s in ("HHVHVV", "VHVVHH", "VVHHVH"):
        want1[idx(s)] = 1 / math.sqrt(3)
    assert qc.six_photon_encode(0, 1, 0).fidelity(qc.PureState((2,) * 6, want1)) >= 1 - 1e-10

    want2 = np.zeros(64, dtype=complex)
    for s in ("HHVVVH", "VHHHVV", "VVVHHH"):
        want2[idx(s)] = 1 / math.sqrt(3)
    assert qc.six_photon_encode(0, 0, 1).fidelity(qc.PureState((2,) * 6, want2)) >= 1 - 1e-10


def test_multiplexed_codewords():
    # time-bin spellings: H_S=00, V_S=10, V_L=11 per photon
    word = {"HS": (0, 0), "VS": (1, 0), "VL": (1, 1)}

    def state_for(spelling):
        amp = np.zeros(64, dtype=complex)
        for term in spelling:
            bits = []
            for mode in term:
                bits.extend(word[mode])
            i = 0
            for b in bits:
                i = 2 * i + b
            amp[i] = 1 / math.sqrt(3)
        return qc.PureState((2,) * 6, amp)

    got = qc.multiplexed_encode(1, 0, 0)
    want = state_for([("HS", "HS", "HS"), ("VS", "VS", "VS"), ("VL", "VL", "VL")])
    assert got.fidelity(want) >= 1 - 1e-10

    got = qc.multiplexed_encode(0, 1, 0)
    want = state_for([("HS", "VS", "VL"), ("VS", "VL", "HS"), ("VL", "HS", "VS")])
    assert got.fidelity(want) >= 1 - 1e-10


def test_multiplexed_equals_six_photon_under_relabeling():
    for _ in range(50):
        a, b, g = random_qutrit_amplitudes()
        mux = qc.multiplexed_encode(a, b, g)
        ref = qc.six_photon_encode(a, b, g)
        assert mux.fidelity(ref) >= 1 - 1e-10


@pytest.mark.parametrize("control", ["pol", "tb"])
@pytest.mark.parametrize("target", ["pol", "tb"])
def test_cross_dof_cnot_equals_ideal(control, target):
    got = qc.table_cnot(control, target).matrix
    want = qc.ideal_cnot16(control, target).matrix
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("control", ["pol", "tb"])
@pytest.mark.parametrize("target", ["pol", "tb"])
def test_ideal_cnot16_follows_bit_rule(control, target):
    # basis index 8 pol1 + 4 tb1 + 2 pol2 + tb2; the photon-1 control bit
    # flips the photon-2 target bit
    m = qc.ideal_cnot16(control, target).matrix
    for idx in range(16):
        values = (idx >> 3 & 1, idx >> 2 & 1, idx >> 1 & 1, idx & 1)
        bits = dict(zip(("pol1", "tb1", "pol2", "tb2"), values))
        if bits[control + "1"]:
            bits[target + "2"] ^= 1
        image = 8 * bits["pol1"] + 4 * bits["tb1"] + 2 * bits["pol2"] + bits["tb2"]
        want = np.zeros(16)
        want[image] = 1
        assert np.array_equal(m[:, idx], want)


def test_cross_dof_cnot_involutive():
    for c in ("pol", "tb"):
        for t in ("pol", "tb"):
            m = qc.table_cnot(c, t).matrix
            assert np.max(np.abs(m @ m - np.eye(16))) <= 1e-10


def test_mode_split_toffoli_equals_ideal():
    got = qc.toffoli_mode_split().matrix
    want = qc.ideal_toffoli(3, controls=[(1, 1), (2, 1)], target=0).matrix
    assert np.max(np.abs(got - want)) <= 1e-10


def test_mode_split_toffoli_action():
    # both controls active: pol1 flips
    state = qc.basis_state((2, 2, 2), (0, 1, 1))
    out = qc.run(state, [qc.toffoli_mode_split()])
    assert out.fidelity(qc.basis_state((2, 2, 2), (1, 1, 1))) >= 1 - 1e-12
    # early time bin: branch not taken
    state = qc.basis_state((2, 2, 2), (0, 1, 0))
    out = qc.run(state, [qc.toffoli_mode_split()])
    assert out.fidelity(state) >= 1 - 1e-12


def test_shared_photon_toffoli_all_cases():
    for a_dof in ("pol", "tb"):
        for b_dof, t_dof in (("pol", "tb"), ("tb", "pol")):
            for v in (0, 1):
                qc.assert_unitary(qc.shared_photon_toffoli(a_dof, (b_dof, v), t_dof).matrix)


def test_gates_preserve_norm():
    state = qc.product_state(
        [(2, np.array([0.6, 0.8])), (2, np.array([1, 0])), (2, np.array([0, 1]))]
    )
    for gate in (qc.toffoli_mode_split(),):
        out = qc.run(state, [gate])
        assert abs(out.norm() - 1) <= 1e-10


@pytest.mark.parametrize(
    "radices,digits",
    [((3, 3), (1,)), ((2, 2), (1, 0, 1))],
    ids=["too-few", "too-many"],
)
def test_basis_state_rejects_wrong_digit_count(radices, digits):
    with pytest.raises(ValueError, match="digits for"):
        qc.basis_state(radices, digits)


def test_apply_unitary_rejects_non_unitary():
    state = qc.basis_state((2, 2), (0, 0))
    with pytest.raises(ValueError):
        qc.apply_unitary(state, np.array([[1, 1], [0, 1]]), [0])


def test_verification_report_all_green():
    report = qc.verification_report()
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == {
        "qutrit-encoder",
        "six-photon-encoder",
        "multiplexed-encoder",
        "qutrit-preparation",
        "cross-dof-cnot",
        "branch-toffoli",
        "shared-photon-toffoli",
    }
    assert all(c["worst_error"] <= 1e-10 for c in report["checks"])
    fidelity_checks = {
        "qutrit-encoder", "six-photon-encoder", "multiplexed-encoder", "qutrit-preparation"
    }
    base = {"name", "passed", "worst_error", "metric"}
    for c in report["checks"]:
        if c["name"] in fidelity_checks:
            assert set(c) == base | {"worst_fidelity"}
            assert c["metric"] == "1 - fidelity"
        else:
            assert set(c) == base
            assert c["metric"] == "operator error"


# --- exact index maps ----------------------------------------------------------
#
# The dense oracles below are built here, independently of the module's index
# maps: literal permutations and the Kronecker-product constructions the
# circuits describe.


def dense(size, image):
    m = np.zeros((size, size))
    for i in range(size):
        m[image(i), i] = 1
    return m


def mode_permutation(mapping):
    return dense(4, lambda i: mapping.get(i, i))


def truth_table(dim, controls, target):
    def image(idx):
        hit = all((idx >> (dim - 1 - c)) & 1 == v for c, v in controls)
        return idx ^ (1 << (dim - 1 - target)) if hit else idx

    return dense(1 << dim, image)


HS_VL = mode_permutation({0: 3, 3: 0})
HL_VS = mode_permutation({1: 2, 2: 1})
EYE4 = np.eye(4)
RELABEL = {
    ("tb", 1, "pol"): EYE4,
    ("tb", 0, "pol"): mode_permutation({0: 1, 1: 0, 2: 3, 3: 2}),
    ("pol", 1, "tb"): HL_VS,
    ("pol", 0, "tb"): mode_permutation({0: 1, 1: 3, 2: 0, 3: 2}),
}
SHARED_CASES = [
    (a, (b, v), t) for a in ("pol", "tb") for b, t in (("pol", "tb"), ("tb", "pol")) for v in (0, 1)
]


def kron_table_cnot(c, t):
    m = truth_table(4, [(0, 1)], 2)
    if t == "tb":
        wb = np.kron(EYE4, HS_VL)
        m = wb @ m @ wb
    if c == "tb":
        wa = np.kron(HL_VS, EYE4)
        m = wa @ m @ wa
    return m


def kron_mode_split():
    late, short = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    return np.kron(truth_table(2, [(1, 1)], 0), late) + np.kron(EYE4, short)


def kron_shared_photon_toffoli(a, control_b, t):
    conj = np.kron(EYE4 if a == "pol" else HL_VS, RELABEL[(*control_b, t)])
    return conj.T @ truth_table(4, [(0, 1), (3, 1)], 2) @ conj


def permutation_cases():
    # (name, module index map, its public dense form or None, dense oracle)
    cases = [
        ("X", qc._FLIP, None, dense(2, lambda i: 1 - i)),
        # swapping two qubits exchanges |01> and |10>, the H_L <-> V_S map
        ("SWAP2", qc._HL_VS, None, dense(4, lambda i: (i & 1) << 1 | i >> 1)),
        ("SWAP_HS_VL", qc._HS_VL, None, HS_VL),
        ("SWAP_HL_VS", qc._HL_VS, None, HL_VS),
        ("toffoli_mode_split", qc.toffoli_mode_split().image, qc.toffoli_mode_split().matrix,
         kron_mode_split()),
    ]
    for sign in (1, -1):
        shift = dense(9, lambda i: 3 * (i // 3) + (i % 3 + sign * (i // 3)) % 3)
        gate = qc.qutrit_shift_gate(sign, 0, 1)
        cases.append((f"qutrit_shift_gate({sign})", gate.image, gate.matrix, shift))
    for key, want in RELABEL.items():
        cases.append((f"_PAIR_RELABEL{key}", qc._PAIR_RELABEL[key], None, want))
    for c in ("pol", "tb"):
        for t in ("pol", "tb"):
            gate = qc.table_cnot(c, t)
            cases.append((f"table_cnot({c}, {t})", gate.image, gate.matrix, kron_table_cnot(c, t)))
    for args in SHARED_CASES:
        gate = qc.shared_photon_toffoli(*args)
        cases.append((f"shared_photon_toffoli{args}", gate.image, gate.matrix,
                      kron_shared_photon_toffoli(*args)))
    return cases


@pytest.mark.parametrize(
    "name,image,public,want", permutation_cases(), ids=[c[0] for c in permutation_cases()]
)
def test_index_map_equals_dense_permutation(name, image, public, want):
    assert np.array_equal(qc.Gate(image, ()).matrix, want)
    if public is not None:
        assert np.array_equal(public, want)


def test_controlled_gate_maps_equal_apply_unitary():
    # every gate of the three encoders, as an index array over the whole
    # space, agrees with the dense value-controlled path on each basis state
    for radices, gates in (
        ((3, 3, 3), qc._qutrit_encoder_gates()),
        ((2,) * 6, qc._pair_encoder_gates() + qc._multiplexed_gates()),
    ):
        for gate in gates:
            image = qc._index_map(gate, radices)
            for i, digits in enumerate(np.ndindex(*radices)):
                moved = qc.apply_unitary(
                    qc.basis_state(radices, digits), gate.matrix, gate.targets, gate.controls
                )
                assert moved.amplitudes[image[i]] == 1


def test_index_maps_are_read_only_bijections():
    image = qc._index_map(qc._pair_encoder_gates()[0], (2,) * 6)
    assert np.array_equal(np.sort(image), np.arange(64))
    with pytest.raises(ValueError):
        image[0] = 1
    with pytest.raises(ValueError, match="not a bijection"):
        qc.Gate((0, 0), (0,)).matrix


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: qc.ideal_cnot16("x", "pol"), "control DOF 'x'"),
        (lambda: qc.ideal_cnot16("pol", "x"), "target DOF 'x'"),
        (lambda: qc.table_cnot("tb", "x"), "target DOF 'x'"),
        (lambda: qc.shared_photon_toffoli("x", ("pol", 1), "tb"), "photon-A control DOF 'x'"),
        (lambda: qc.shared_photon_toffoli("pol", ("pol", 2), "tb"), "photon-B control ('pol', 2)"),
        (lambda: qc.shared_photon_toffoli("pol", ("tb", 1), "tb"), "photon-B control ('tb', 1)"),
        (lambda: qc.ideal_toffoli(2, [(5, 1)], 0), "control 5 outside"),
        (lambda: qc.ideal_toffoli(2, [(0, 1)], 7), "target 7 outside"),
        (lambda: qc.ideal_toffoli(2, [(0, 1)], 0), "distinct subsystems"),
    ],
    ids=[
        "cnot16-control", "cnot16-target", "table-cnot-target", "shared-a-dof", "shared-b-value",
        "shared-b-same-dof", "toffoli-control", "toffoli-target", "toffoli-overlap",
    ],
)
def test_circuit_builders_name_bad_argument(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


# --- mutations fail the exact checks --------------------------------------------


@pytest.fixture
def fresh_maps():
    qc.shared_photon_toffoli.cache_clear()
    yield
    qc.shared_photon_toffoli.cache_clear()


def failing_checks(report):
    return {c["name"] for c in report["checks"] if not c["passed"]}


def assert_mutant_fails(named, capsys):
    report = qc.verification_report()
    assert named <= failing_checks(report)
    assert report["passed"] is False
    for check in report["checks"]:
        assert check["worst_error"] == (1.0 if check["name"] in named else 0.0)
    assert cli.main(["verify-circuits"]) == 5
    assert '"passed": false' in capsys.readouterr().out


def test_swapped_pair_encoder_gates_fail(monkeypatch, capsys, fresh_maps):
    original = qc._pair_encoder_gates

    def swapped():
        gates = original()
        gates[0], gates[1] = gates[1], gates[0]  # a decrement becomes an increment
        return gates

    monkeypatch.setattr(qc, "_pair_encoder_gates", swapped)
    assert_mutant_fails({"six-photon-encoder", "multiplexed-encoder"}, capsys)


def test_changed_pair_relabel_fails(monkeypatch, capsys, fresh_maps):
    monkeypatch.setitem(qc._PAIR_RELABEL, ("tb", 0, "pol"), (0, 1, 2, 3))
    qc.shared_photon_toffoli.cache_clear()
    assert_mutant_fails({"shared-photon-toffoli", "multiplexed-encoder"}, capsys)
