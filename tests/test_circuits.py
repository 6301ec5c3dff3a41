import math

import numpy as np
import pytest

from qnetagg import circuits as qc

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


@pytest.mark.parametrize("c", range(3))
@pytest.mark.parametrize("t", range(3))
def test_qutrit_shift_gate_adds_control(c, t):
    out = qc.apply_unitary(qc.basis_state((3, 3), (c, t)), qc.qutrit_shift_gate(1), [0, 1])
    assert out.fidelity(qc.basis_state((3, 3), (c, (t + c) % 3))) == pytest.approx(1, abs=1e-12)


def test_qutrit_shift_gate_minus_is_inverse():
    product = qc.qutrit_shift_gate(-1) @ qc.qutrit_shift_gate(1)
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
    want = qc.ideal_cnot16(control, target)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_cross_dof_cnot_involutive():
    for c in ("pol", "tb"):
        for t in ("pol", "tb"):
            m = qc.table_cnot(c, t).matrix
            assert np.max(np.abs(m @ m - np.eye(16))) <= 1e-10


def test_mode_split_toffoli_equals_ideal():
    got = qc.toffoli_mode_split().matrix
    want = qc.ideal_toffoli(3, controls=[(1, 1), (2, 1)], target=0)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_mode_split_toffoli_action():
    # both controls active: pol1 flips
    state = qc.basis_state((2, 2, 2), (0, 1, 1))
    out = qc.toffoli_mode_split().apply(state)
    assert out.fidelity(qc.basis_state((2, 2, 2), (1, 1, 1))) >= 1 - 1e-12
    # early time bin: branch not taken
    state = qc.basis_state((2, 2, 2), (0, 1, 0))
    out = qc.toffoli_mode_split().apply(state)
    assert out.fidelity(state) >= 1 - 1e-12


def test_shared_photon_toffoli_all_cases():
    for a_dof in ("pol", "tb"):
        for b_dof, t_dof in (("pol", "tb"), ("tb", "pol")):
            for v in (0, 1):
                m = qc.shared_photon_toffoli(a_dof, (b_dof, v), t_dof)
                qc.assert_unitary(m)


def test_gates_preserve_norm():
    state = qc.product_state(
        [(2, np.array([0.6, 0.8])), (2, np.array([1, 0])), (2, np.array([0, 1]))]
    )
    for gate in (qc.toffoli_mode_split(),):
        out = gate.apply(state)
        assert abs(out.norm() - 1) <= 1e-10


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
