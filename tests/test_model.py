from fractions import Fraction

import numpy as np
import pytest

from qnetagg.closed_form import ps_two_channel
from qnetagg.engine import block_evaluator, block_success
from qnetagg.model import (
    Channel,
    MAX_D,
    InvalidConfiguration,
    MultiplexConfiguration,
    Photon,
    QrsCode,
    SplitMismatch,
    check_code,
    check_probability,
    clamp_roundoff,
    config_from_dict,
    config_to_dict,
    photons_per_qudit,
    save_config,
    shared7_configuration,
    is_prime,
    uniform_configuration,
    validate,
    violations,
    withheld_violations,
)
from qnetagg.planner import two_channel_scenario

CH = Channel("ch", 0.96)
CH2 = Channel("ch2", 0.9)


def test_code_derived_quantities():
    code = QrsCode(7, 4)
    assert code.tolerance() == 3
    assert code.qubits_per_qudit() == 3
    assert code.logical_qudits() == 1
    assert QrsCode(3, 2).qubits_per_qudit() == 2
    assert QrsCode(11, 6).qubits_per_qudit() == 4
    assert QrsCode(43, 22).qubits_per_qudit() == 6
    assert QrsCode(211, 106).qubits_per_qudit() == 8


@pytest.mark.parametrize("n,prime", [(2, True), (3, True), (4, False), (43, True),
                                     (211, True), (221, False), (1, False)])
def test_is_prime(n, prime):
    assert is_prime(n) is prime


@pytest.mark.parametrize("value", [0, 1, Fraction(1, 2), np.array([0.0, 0.5, 1.0])])
def test_check_probability_accepts(value):
    check_probability("p", value)


@pytest.mark.parametrize(
    "value,shown",
    [
        (float("nan"), "nan"),
        (1.0000001, "1.0000001"),
        (-0.2, "-0.2"),
        (np.array([0.5, np.nan, 1.5]), "nan"),
        (np.array([[0.5, 1.5]]), "1.5"),
    ],
)
def test_check_probability_rejects_and_names_the_value(value, shown):
    with pytest.raises(ValueError, match=rf"^p={shown} outside \[0, 1\]$"):
        check_probability("p", value)


def test_clamp_roundoff_clamps_only_roundoff():
    assert clamp_roundoff(1 + 1e-13) == 1.0
    assert clamp_roundoff(-1e-13) == 0.0
    assert clamp_roundoff(np.array([-1e-13, 0.5, 1 + 1e-13])).tolist() == [0.0, 0.5, 1.0]
    exact = clamp_roundoff(Fraction(1, 3))
    assert isinstance(exact, Fraction) and exact == Fraction(1, 3)
    for bad in (1 + 1e-9, -1e-9, float("nan"), np.array([0.5, 1 + 1e-9]), Fraction(3, 2)):
        with pytest.raises(ArithmeticError, match="beyond roundoff"):
            clamp_roundoff(bad)


def test_validate_accepts_uniform_multiplexed():
    # 7 photons each carrying 3 qubits of distinct qudits, one channel
    config = uniform_configuration(QrsCode(7, 4), 3, [(CH, 7)])
    assert validate(config) is config
    assert len(config.photons) == 7
    assert all(ph.degree == 3 for ph in config.photons)


def test_validate_reports_qubit_count_mismatch():
    # one qudit receiving only 2 qubits
    photons = [Photon("ch", ((i, 3),)) for i in range(6)] + [Photon("ch", ((6, 2),))]
    config = MultiplexConfiguration(QrsCode(7, 4), (CH,), tuple(photons))
    with pytest.raises(InvalidConfiguration) as err:
        validate(config)
    kinds = {v.kind for v in err.value.violations}
    assert kinds == {"qubit-count-mismatch"}
    assert err.value.violations[0].subject == 6


def test_validate_reports_non_prime_d():
    config = uniform_configuration(QrsCode(4, 3), 1, [(CH, 4)])
    report = violations(config)
    assert any(v.kind == "non-prime-d" for v in report)


def test_code_beyond_max_d_is_rejected_before_primality():
    # trial division of this d would run ~5e8 steps; the bound answers at once
    code = QrsCode(1000000000000000003, 600000000000000000)
    (violation,) = code.check()
    assert violation.kind == "bad-code-parameters" and f"MAX_D={MAX_D}" in violation.message
    with pytest.raises(ValueError, match="exceeds MAX_D"):
        check_code(code)
    config = MultiplexConfiguration(code, (CH,), (Photon("ch", ((0, 1),)),))
    assert violations(config) == [violation]
    # 65537 = 2^16 + 1 is prime but past the bound; 65521 is the largest prime inside it
    assert MAX_D == 2**16 and is_prime(MAX_D + 1)
    assert [v.kind for v in QrsCode(MAX_D + 1, 32769).check()] == ["bad-code-parameters"]
    assert [v.kind for v in QrsCode(MAX_D, 32769).check()] == ["non-prime-d"]
    assert QrsCode(65521, 32761).check() == []


def test_validate_reports_unknown_channel_and_withheld():
    photons = (Photon("nope", ((0, 2),)), Photon("ch", ((0, 0),)))
    config = MultiplexConfiguration(QrsCode(3, 2), (CH,), photons, withheld=2)
    report = violations(config)
    kinds = {v.kind for v in report}
    assert "unknown-channel" in kinds
    assert "withheld-exceeds-tolerance" in kinds
    assert "bad-qubit-count" in kinds


def test_validate_collects_every_violation():
    photons = (Photon("nope", ((0, 1), (0, 1))),)
    config = MultiplexConfiguration(QrsCode(4, 4), (CH,), photons)
    report = violations(config)
    assert len(report) >= 4  # non-prime, bad k, unknown channel, duplicate, mismatch


@pytest.mark.parametrize(
    "d,k,q,expected_photons,expected_per_qudit",
    [(7, 4, 1, 21, 3), (43, 22, 4, 86, 2), (3, 2, 2, 3, 1)],
)
def test_uniform_configuration_photon_counts(d, k, q, expected_photons, expected_per_qudit):
    config = uniform_configuration(QrsCode(d, k), q, [(CH, d)])
    assert len(config.photons) == expected_photons
    per_qudit = {}
    for ph in config.photons:
        for qudit, _ in ph.carries:
            per_qudit[qudit] = per_qudit.get(qudit, 0) + 1
    assert set(per_qudit.values()) == {expected_per_qudit}
    validate(config)


def test_uniform_configuration_last_photon_short():
    # 4 qubits per qudit at q=4 except the remainder photon carries 2
    config = uniform_configuration(QrsCode(43, 22), 4, [(CH, 43)])
    degrees = sorted({ph.degree for ph in config.photons})
    assert degrees == [2, 4]


def test_uniform_configuration_split_mismatch():
    with pytest.raises(SplitMismatch):
        uniform_configuration(QrsCode(7, 4), 1, [(CH, 6)])


@pytest.mark.parametrize(
    "make, count",
    [
        # splits that total d, so no SplitMismatch: without the count rule they
        # built photons for qudits 0..8 and failed only at evaluation
        (lambda: uniform_configuration(QrsCode(7, 4), 1, [(CH, -2), (CH2, 9)]), -2),
        (lambda: uniform_configuration(QrsCode(7, 4), 1, [(CH, 9), (CH2, -2)]), 9),
        (lambda: two_channel_scenario(QrsCode(7, 4), 1, 8), 8),
        (lambda: two_channel_scenario(QrsCode(7, 4), 1, -1), -1),
        (lambda: ps_two_channel(QrsCode(7, 4), 1, 8, 0.9, 0.9), 8),
        (lambda: ps_two_channel(QrsCode(7, 4), 1, -1, 0.9, 0.9), -1),
    ],
    ids=[
        "negative-split", "split-above-d", "scenario-n-above-d", "negative-scenario-n",
        "closed-form-n-above-d", "negative-closed-form-n",
    ],
)
def test_every_count_takes_one_rule(make, count):
    # block_success's message (test_engine) at every entry point, naming the first
    # count that breaks the rule
    message = rf"^block of {count} qudits: counts must be >= 0 and total <= d=7$"
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "carries",
    [((0.7, 3),), (("2", 3),), ((2, 3.0),)],
    ids=["float-qudit", "str-qudit", "float-count"],
)
def test_photon_rejects_non_integer_carries(carries):
    # never truncated or parsed: 0.7 is no qudit 0, "2" no qudit 2
    with pytest.raises(TypeError):
        Photon("c", carries)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: QrsCode(7.0, 4), "d"),
        (lambda: QrsCode(7, 4.0), "k"),
        (lambda: photons_per_qudit(QrsCode(7, 4), 1.5), "q"),
        (lambda: QrsCode(True, 1), "d"),
        (lambda: QrsCode(3, True), "k"),
        (lambda: photons_per_qudit(QrsCode(7, 4), True), "q"),
        (lambda: MultiplexConfiguration(QrsCode(7, 4), (CH,), (), withheld=1.0), "withheld"),
        (lambda: uniform_configuration(QrsCode(7, 4), 1, [(CH, 6)], withheld=True), "withheld"),
        (lambda: two_channel_scenario(QrsCode(7, 4), 1, 3.0), "n"),
        (lambda: two_channel_scenario(QrsCode(7, 4), 1, True), "n"),
        (lambda: two_channel_scenario(QrsCode(7, 4), 1.0, 3), "q"),
        (lambda: block_success(QrsCode(7, 4), [(6, 0.9), (True, 0.9)]), "block count"),
        (lambda: block_success(QrsCode(7, 4), [(6.0, 0.9), (1, 0.9)]), "block count"),
        (lambda: block_evaluator(QrsCode(7, 4), [(6, 0.9)], 1.0), "block count"),
        (lambda: uniform_configuration(QrsCode(7, 4), 1, [(CH, 6), (CH2, True)]), "split count"),
        (lambda: uniform_configuration(QrsCode(7, 4), 1, [(CH, 6), (CH2, 1.0)]), "split count"),
    ],
    ids=[
        "float-d", "float-k", "float-q", "bool-d", "bool-k", "bool-q", "float-withheld",
        "bool-withheld", "float-n", "bool-n", "float-scenario-q", "bool-block-count",
        "float-block-count", "float-varying-count", "bool-split-count", "float-split-count",
    ],
)
def test_code_and_q_reject_non_integers(make, name):
    # never truncated: 7.0 would pass trial division as a prime, 1.5 would act as q = 2,
    # and a count True would index binomial_pmf's log table as a boolean mask
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, not "):
        make()


def test_numpy_integers_convert_to_int():
    config = MultiplexConfiguration(QrsCode(np.int64(7), np.int32(4)), (CH,), (), np.int64(1))
    assert [type(v) for v in (config.code.d, config.code.k, config.withheld)] == [int] * 3


def test_uniform_configuration_checks_q_before_the_split():
    with pytest.raises(ValueError, match="q must be >= 1"):
        uniform_configuration(QrsCode(7, 4), 0, [(CH, 6)])


def test_uniform_configuration_photon_lists():
    # each qudit's photons in order: q qubits each, the remainder last; blocks in split order
    a, b = Channel("a", 0.9), Channel("b", 0.95)
    config = uniform_configuration(QrsCode(7, 4), 2, [(a, 3), (b, 4)])
    assert config.channels == (a, b)
    assert config.photons == (
        Photon("a", ((0, 2),)), Photon("a", ((0, 1),)),
        Photon("a", ((1, 2),)), Photon("a", ((1, 1),)),
        Photon("a", ((2, 2),)), Photon("a", ((2, 1),)),
        Photon("b", ((3, 2),)), Photon("b", ((3, 1),)),
        Photon("b", ((4, 2),)), Photon("b", ((4, 1),)),
        Photon("b", ((5, 2),)), Photon("b", ((5, 1),)),
        Photon("b", ((6, 2),)), Photon("b", ((6, 1),)),
    )
    config = uniform_configuration(QrsCode(211, 106), 3, [(a, 100), (b, 105)], withheld=6)
    expected = [Photon("a", ((i, n),)) for i in range(100) for n in (3, 3, 2)]
    expected += [Photon("b", ((i, n),)) for i in range(100, 205) for n in (3, 3, 2)]
    assert config.photons == tuple(expected)
    validate(config)


@pytest.mark.parametrize("withheld, admitted", [(-1, False), (0, True), (3, True), (4, False)])
def test_withheld_rule_admits_zero_to_tolerance(withheld, admitted):
    # tolerance 3: validate and ps_single_withheld apply this one rule
    report = withheld_violations(QrsCode(7, 4), withheld)
    assert (report == []) == admitted
    assert all(v.kind == "withheld-exceeds-tolerance" for v in report)


def test_uniform_configuration_withheld():
    config = uniform_configuration(QrsCode(7, 4), 1, [(CH, 5)], withheld=2)
    validate(config)
    assert config.transmitted == 5
    assert len(config.photons) == 15


def test_total_qubit_accounting(rng):
    from conftest import random_configuration

    for _ in range(50):
        config = random_configuration(rng)
        total = sum(ph.degree for ph in config.photons)
        assert total == config.transmitted * config.code.qubits_per_qudit()


def test_shared7_configuration_shape():
    config = shared7_configuration(0.9, 0.95)
    validate(config)
    assert len(config.photons) == 6
    assert sorted(ph.degree for ph in config.photons) == [3, 3, 3, 4, 4, 4]
    assert sum(ph.degree for ph in config.photons) == 21
    # the shared qudit rides on every channel-2 photon
    shared_on = [ph for ph in config.photons if 6 in ph.qudits]
    assert len(shared_on) == 3
    assert {ph.channel_id for ph in shared_on} == {"ch2"}


def test_config_document_round_trip(tmp_path):
    config = shared7_configuration(0.9, 0.95)
    doc = config_to_dict(config)
    assert doc["code"] == {"d": 7, "k": 4}
    again = config_from_dict(doc)
    assert again == config


def test_failing_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "config.json"
    save_config(shared7_configuration(0.9, 0.95), str(path))
    before = path.read_bytes()
    unwritable = shared7_configuration(Fraction(9, 10), 0.95)  # a Fraction is no JSON number
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        save_config(unwritable, str(path))
    assert path.read_bytes() == before
