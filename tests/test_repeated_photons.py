"""Equal photons may be one object: uniform layouts, wiring classes and loaded
documents repeat one photon object where a layout repeats a photon.  A configuration
finds its runs of one object in consecutive slots once, when it is built
(``MultiplexConfiguration.runs``), and the validation and decomposition passes take
each run in one step.  Identity means nothing: every result equals that of the same
layout with each photon an object of its own (:func:`oracles.copied`), bit for bit."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import two_channel_layouts
from oracles import copied, runs
from qnetagg import engine, montecarlo, wiring
from qnetagg.model import (
    Channel,
    MultiplexConfiguration,
    Photon,
    QrsCode,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    uniform_configuration,
    violations,
)

A, B = Channel("a", 0.93), Channel("b", 0.91)
D43, D211 = QrsCode(43, 22), QrsCode(211, 106)


def distinct(config: MultiplexConfiguration) -> int:
    return len({id(ph) for ph in config.photons})


LAYOUTS = {
    "uniform q=1": uniform_configuration(D43, 1, [(A, 30), (B, 13)]),
    # 8 qubits a qudit in photons of 3, 3 and 2
    "uniform q=3": uniform_configuration(D211, 3, [(A, 150), (B, 61)]),
    "withheld=1": uniform_configuration(D43, 1, [(A, 20), (B, 22)], withheld=1),
    "fractions": uniform_configuration(
        QrsCode(11, 6), 1, [(Channel("a", Fraction(9, 10)), 7), (Channel("b", Fraction(1, 3)), 4)]
    ),
    "wiring": wiring.wiring_configuration((("path", 3), ("cycle", 4)), 0.93, 0.97),
    "document": config_from_dict(
        config_to_dict(uniform_configuration(D211, 1, [(A, 100), (B, 111)]))
    ),
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_shared_and_copied_photons_give_equal_results(name):
    shared = LAYOUTS[name]
    apart = copied(shared)
    assert distinct(apart) == len(apart.photons) > distinct(shared)
    assert apart == shared and config_to_dict(apart) == config_to_dict(shared)
    assert violations(apart) == violations(shared) == []
    got, want = engine.loss_distribution(shared), engine.loss_distribution(apart)
    if got.pmf.dtype == object:
        assert got == want and isinstance(got.pmf[0], Fraction)
    else:
        assert got.offset == want.offset and got.pmf.tobytes() == want.pmf.tobytes()
    assert engine.success_probability(shared) == engine.success_probability(apart)
    got, want = montecarlo.estimate(shared, 5000, 3), montecarlo.estimate(apart, 5000, 3)
    assert (got.mean.hex(), got.std_error.hex()) == (want.mean.hex(), want.std_error.hex())


@pytest.mark.parametrize("name", LAYOUTS)
def test_runs_are_the_slots_where_the_photon_object_changes(name):
    shared = LAYOUTS[name]
    for layout in (shared, copied(shared), replace(shared, photons=shared.photons[::-1])):
        assert layout.runs == runs(layout)
    assert len(shared.runs) == distinct(shared) + 1 < len(shared.photons) + 1
    assert copied(shared).runs == tuple(range(len(shared.photons) + 1))


def test_runs_are_recomputed_by_replace_and_left_out_of_equality_and_repr():
    config = LAYOUTS["uniform q=1"]  # six one-qubit photons a qudit, one object each
    shorter = replace(config, photons=list(config.photons[:-6]))
    assert shorter.runs == runs(shorter) == config.runs[:-1]
    apart = copied(config)
    assert apart.runs != config.runs
    assert apart == config and hash(apart) == hash(config) and repr(apart) == repr(config)
    assert "runs" not in repr(config)


@pytest.mark.parametrize("q,sizes", [(1, 1), (3, 2), (4, 1), (8, 1)])
def test_uniform_layout_holds_one_photon_per_qudit_and_qubit_count(q, sizes):
    # 8 qubits a qudit: photons of 1 (eight), 3 (3, 3, 2), 4 (4, 4) or 8 qubits
    config = uniform_configuration(D211, q, [(A, 100), (B, 105)], withheld=6)
    assert distinct(config) == 205 * sizes
    assert len(config.photons) == 205 * -(-8 // q)


def test_loaded_document_shares_equal_photons_in_document_order():
    config = uniform_configuration(D211, 1, [(A, 100), (B, 111)])
    loaded = config_from_dict(config_to_dict(config))
    assert distinct(loaded) == 211 and len(loaded.photons) == 211 * 8
    assert loaded == config
    # one object per channel and carries, whatever sits between two equal photons
    doc = config_to_dict(config)
    first = doc["photons"][0]
    other_channel = {"channel": "b", "carries": first["carries"]}
    doc["photons"] = [first, first, doc["photons"][8], other_channel, first]
    again = config_from_dict(doc)
    assert again.photons[0] is again.photons[1] is again.photons[4]
    assert again.photons[2] is not again.photons[0] and again.photons[3].channel_id == "b"


def test_free_qudit_halves_of_a_wiring_are_one_photon():
    config = wiring.wiring_configuration((("path", 7),), 0.9, 0.95)
    # a path of 7 edges covers qudits 0..7; qudits 8, 9, 10 are free
    for q in (8, 9, 10):
        halves = [ph for ph in config.photons if ph.carries == ((q, 2),)]
        assert len(halves) == 2 and halves[0] is halves[1]


def test_repeated_photon_breaking_a_rule_is_reported_at_every_index():
    # two qubits a qudit: qudit 0 receives 3 from the stray photon, qudit 2 receives 3
    stray = Photon("nowhere", ((0, 1),))
    photons = [stray] * 3 + [Photon("a", ((1, 1),))] * 2 + [Photon("a", ((2, 1),))] * 3
    config = MultiplexConfiguration(QrsCode(3, 2), (A,), photons)
    report = [(v.kind, v.subject) for v in violations(config)]
    assert report == [
        ("unknown-channel", 0), ("unknown-channel", 1), ("unknown-channel", 2),
        ("qubit-count-mismatch", 0), ("qubit-count-mismatch", 2),
    ]
    assert violations(config) == violations(copied(config))
    # a clean repeat past a broken one, and a broken one past a clean one
    bad = Photon("a", ((5, 1),))
    for photons in ([bad, bad, Photon("a", ((0, 2),))] * 2, [Photon("a", ((0, 1),)), bad] * 3):
        config = MultiplexConfiguration(QrsCode(3, 2), (A,), photons)
        assert violations(config) == violations(copied(config))
        assert sum(v.kind == "bad-qudit-index" for v in violations(config)) == photons.count(bad)


@st.composite
def repeated_photon_layouts(draw):
    """A drawn layout with one of its photons put in ``k`` slots as one object:
    its qubit counts divided by ``k`` where each divides, so the layout stays
    valid, else as drawn, so the repeat breaks the qubit totals.  The photon is
    one whose counts have a common divisor when there is one, and ``k`` is drawn
    from the divisors of its counts or from 2..4."""
    layout = draw(two_channel_layouts())
    common = [gcd(*(n for _, n in ph.carries)) for ph in layout.photons]
    i = draw(st.sampled_from([j for j, g in enumerate(common) if g > 1] or range(len(common))))
    ph, counts = layout.photons[i], common[i]
    k = draw(st.sampled_from([j for j in (1, 2, 3, 4) if counts % j == 0]) | st.integers(2, 4))
    if counts % k == 0:
        ph = Photon(ph.channel_id, tuple((q, n // k) for q, n in ph.carries))
    photons = layout.photons[:i] + (ph,) * k + layout.photons[i + 1 :]
    channels = (Channel("a", Fraction(2, 3)), Channel("b", Fraction(3, 5)))
    return MultiplexConfiguration(layout.code, channels, photons, layout.withheld)


@settings(max_examples=150)
@given(repeated_photon_layouts())
def test_a_repeated_photon_object_is_k_copies(config):
    apart = copied(config)
    assert config.runs == runs(config) and apart.runs == runs(apart)
    report = violations(config)
    assert report == violations(apart)
    if not report:
        assert engine.loss_distribution(config) == engine.loss_distribution(apart)
        assert engine.cluster_decompose(config) == engine.cluster_decompose(apart)


def merged(config: MultiplexConfiguration) -> MultiplexConfiguration:
    """``config`` with each photon equal to the one before it that very object."""
    photons = []
    for ph in config.photons:
        photons.append(photons[-1] if photons and photons[-1] == ph else ph)
    return replace(config, photons=tuple(photons))


def _mixed_sharing_layout() -> MultiplexConfiguration:
    """Eleven singleton qudits of four one-qubit photons each: qudit 0's are one
    object, the others' four objects, so the eleven clusters share one signature."""
    one = Photon("a", ((0, 1),))
    photons = [one] * 4 + [Photon("a", ((q, 1),)) for q in range(1, 11) for _ in range(4)]
    return MultiplexConfiguration(QrsCode(11, 6), (A, B), photons)


@settings(max_examples=60)
@given(repeated_photon_layouts(), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@example(_mixed_sharing_layout(), 0.93, 0.91)
def test_which_equal_photons_are_one_object_changes_no_float_bit(config, pa, pb):
    config = replace(config, channels=(Channel("a", pa), Channel("b", pb)))
    assume(not violations(config))
    want = engine.success_probability(config).hex(), engine.loss_distribution(config).pmf.tobytes()
    for twin in (copied(config), merged(config)):
        got = engine.loss_distribution(twin).pmf.tobytes()
        assert (engine.success_probability(twin).hex(), got) == want


def test_uniform_layout_at_max_d_is_small_and_exact():
    # the largest prime within MAX_D: 16 qubits a qudit, 1048336 photon slots
    code = QrsCode(65521, 64731)
    tracemalloc.start()
    try:
        config = uniform_configuration(code, 1, [(A, 32760), (B, 32761)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20  # 31 MB; a photon object per slot took 202 MB
    assert distinct(config) == 65521 and len(config.photons) == 16 * 65521
    # both pairs in one walk; an array entry equals its scalar evaluation bit for bit
    pa, pb = np.array([0.999, 0.9992]), np.array([0.9995, 0.9993])
    arrays = (Channel("a", pa), Channel("b", pb))
    got = engine.success_probability(MultiplexConfiguration(code, arrays, config.photons))
    want = engine.block_success(code, [(32760, pa**16), (32761, pb**16)])
    assert 0.1 < want.min() and want.max() < 0.9
    assert np.abs(got - want).max() <= 1e-13


def test_large_document_loads_back_equal_and_shared(tmp_path):
    # 15 qubits a qudit in photons of two qubits and one of one
    config = uniform_configuration(QrsCode(16411, 8300), 2, [(A, 8000), (B, 8411)])
    path = tmp_path / "d16411.json"
    save_config(config, str(path))
    loaded = load_config(str(path))
    assert loaded == config
    assert distinct(loaded) == 2 * 16411 and len(loaded.photons) == 8 * 16411


def test_success_probability_at_max_d_holds_one_cluster_per_signature_group():
    # 65521 singleton clusters in two signature groups: only each group's first
    # is built as a Cluster, so the evaluation holds no Cluster per qudit
    code = QrsCode(65521, 64731)
    pa, pb = 0.9992, 0.9993
    config = uniform_configuration(code, 1, [(Channel("a", pa), 32760), (Channel("b", pb), 32761)])
    tracemalloc.start()
    try:
        got = engine.success_probability(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # 36 MiB; a Cluster per qudit took 112 MiB
    want = engine.block_success(code, [(32760, pa**16), (32761, pb**16)])
    assert 0.1 < want < 0.9 and abs(got - want) <= 1e-13
