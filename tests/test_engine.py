import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_configuration, two_channel_layouts
from oracles import chain_loss_pmf, enumerate_success, pattern_counts, pgf_loss_pmf, pgf_success
from oracles import polynomial_table
from oracles import clusters as oracle_clusters
from qnetagg import closed_form, engine, planner
from qnetagg.engine import (
    BRUTE_FORCE_PHOTON_LIMIT,
    ClusterTooLarge,
    TooManyPhotons,
    _convolve_rows,
    binomial_pmf,
    block_success,
    brute_force,
    cluster_decompose,
    cluster_loss_pmf,
    loss_distribution,
    success_probability,
)
from qnetagg.model import (
    ArrayProbability,
    Channel,
    InvalidConfiguration,
    MultiplexConfiguration,
    Photon,
    QrsCode,
    shared7_configuration,
    uniform_configuration,
)


def test_cluster_decompose_uniform_is_singletons():
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9), 7)])
    clusters = cluster_decompose(config)
    assert len(clusters) == 7
    assert all(len(c.qudit_indices) == 1 for c in clusters)
    assert all(len(c.photon_indices) == 3 for c in clusters)
    assert [c.qudit_indices[0] for c in clusters] == list(range(7))


def test_cluster_decompose_shared_layout():
    clusters = cluster_decompose(shared7_configuration(0.9, 0.95))
    shapes = sorted((len(c.photon_indices), len(c.qudit_indices)) for c in clusters)
    assert shapes == [(1, 1), (1, 1), (1, 1), (3, 4)]
    big = max(clusters, key=lambda c: len(c.qudit_indices))
    assert set(big.qudit_indices) == {0, 1, 2, 6}


def test_cluster_decompose_empty():
    # nothing transmitted needs withheld > d - k, so it is an invalid layout, not no clusters
    config = MultiplexConfiguration(QrsCode(3, 2), (Channel("c", 0.9),), (), withheld=3)
    with pytest.raises(InvalidConfiguration, match="withheld-exceeds-tolerance"):
        cluster_decompose(config)


@pytest.mark.parametrize("qudit", [-1, 3], ids=["negative", "past-the-end"])
def test_cluster_decompose_rejects_bad_qudit_index(qudit):
    # a d=3 layout whose third photon carries the bad index instead of qudit 2
    photons = (Photon("c", ((0, 2),)), Photon("c", ((1, 2),)), Photon("c", ((qudit, 2),)))
    config = MultiplexConfiguration(QrsCode(3, 2), (Channel("c", 0.9),), photons)
    with pytest.raises(InvalidConfiguration, match=f"carries qudit {qudit}, outside 0..2"):
        cluster_decompose(config)


def _partition(config):
    return [(c.photon_indices, c.qudit_indices) for c in cluster_decompose(config)]


def test_cluster_decompose_equals_breadth_first_components(rng):
    for _ in range(200):
        config = random_configuration(rng)
        assert _partition(config) == oracle_clusters(config)
        reversed_twin = replace(config, photons=config.photons[::-1])
        assert _partition(reversed_twin) == oracle_clusters(reversed_twin)
    for q in (1, 8):
        config = uniform_configuration(
            QrsCode(211, 106), q, [(Channel("a", 0.97), 100), (Channel("b", 0.99), 111)]
        )
        assert _partition(config) == oracle_clusters(config)


def test_cluster_pmf_singleton():
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9), 7)])
    cluster = cluster_decompose(config)[0]
    pmf = cluster_loss_pmf(cluster, config)
    assert pmf[0] == pytest.approx(0.9**3, abs=1e-15)
    assert pmf[1] == pytest.approx(1 - 0.9**3, abs=1e-15)


def test_cluster_pmf_shared_qudit():
    # losing one channel-2 photon erases its own qudit plus the shared one
    p2 = 0.95
    config = shared7_configuration(0.3, p2)
    big = [c for c in cluster_decompose(config) if len(c.qudit_indices) == 4][0]
    pmf = cluster_loss_pmf(big, config)
    w = 1 - p2
    assert pmf[0] == pytest.approx(p2**3, abs=1e-12)
    assert pmf[1] == pytest.approx(0.0, abs=1e-15)
    assert pmf[2] == pytest.approx(3 * p2**2 * w, abs=1e-12)
    assert pmf[3] == pytest.approx(3 * p2 * w**2, abs=1e-12)
    assert pmf[4] == pytest.approx(w**3, abs=1e-12)


def test_cluster_pmf_lossless():
    config = shared7_configuration(1.0, 1.0)
    for cluster in cluster_decompose(config):
        pmf = cluster_loss_pmf(cluster, config)
        assert pmf[0] == pytest.approx(1.0, abs=1e-15)
        assert sum(pmf[1:]) == pytest.approx(0.0, abs=1e-15)


def _assert_pmf_matches(config, want):
    dist = loss_distribution(config)
    assert len(dist.pmf) == len(want)
    for got, ref in zip(dist.pmf, want):
        assert got == pytest.approx(ref, abs=1e-12)
    budget = config.code.tolerance() - config.withheld
    assert success_probability(config) == pytest.approx(sum(want[: budget + 1]), abs=1e-12)


def test_cluster_too_large():
    # a 30-photon chain over all 29 qudits (5 qubits each), past the old
    # 24-photon enumeration cap, now evaluates
    code = QrsCode(29, 15)
    ch = Channel("c", 0.9)
    photons = [Photon("c", ((i, 3), (i + 1, 2))) for i in range(28)]
    photons.append(Photon("c", ((0, 2),)))
    photons.append(Photon("c", ((28, 3),)))
    config = MultiplexConfiguration(code, (ch,), tuple(photons))
    _assert_pmf_matches(config, chain_loss_pmf([0.9] + [1.0] * 27 + [0.9], [0.9] * 28))

    # photons along the edges of a random 8-regular graph (4 disjoint
    # Hamiltonian cycles) over 131 qudits keep too many qudits open at once
    rng = random.Random(131)
    edges: set[frozenset] = set()
    for _ in range(4):
        while True:
            perm = list(range(131))
            rng.shuffle(perm)
            cycle = {frozenset((perm[i], perm[i - 1])) for i in range(131)}
            if not cycle & edges:
                edges |= cycle
                break
    pairs = sorted(tuple(sorted(e)) for e in edges)
    photons = tuple(Photon("c", ((u, 1), (v, 1))) for u, v in pairs)
    assert len(photons) == 524
    config = MultiplexConfiguration(QrsCode(131, 66), (ch,), photons)
    with pytest.raises(ClusterTooLarge):
        success_probability(config)


def test_long_path_matches_transfer_matrix():
    # 59 qudits (6 qubits each) chained by 58 shared photons plus one own
    # photon at each end: 60 photons in one cluster
    channels = (Channel("a", 0.93), Channel("b", 0.97), Channel("c", 0.99))
    ids = [ch.id for ch in channels]
    links = [Photon(ids[i % 3], ((i, 3), (i + 1, 3))) for i in range(58)]
    ends = [Photon("a", ((0, 3),)), Photon("b", ((58, 3),))]
    config = MultiplexConfiguration(QrsCode(59, 30), channels, tuple(links + ends))
    assert len(cluster_decompose(config)) == 1
    p = {ch.id: ch.p for ch in channels}
    own = [0.93] + [1.0] * 57 + [0.97]
    _assert_pmf_matches(config, chain_loss_pmf(own, [p[ph.channel_id] for ph in links]))


def test_long_ring_matches_transfer_matrix():
    # 40 transmitted qudits (6 qubits each) in a ring of 40 shared photons
    channels = (Channel("a", 0.95), Channel("b", 0.9))
    photons = tuple(Photon("ab"[i % 3 == 0], ((i, 3), ((i + 1) % 40, 3))) for i in range(40))
    config = MultiplexConfiguration(QrsCode(41, 21), channels, photons, withheld=1)
    (cluster,) = cluster_decompose(config)
    arrivals = [0.95 if ph.channel_id == "a" else 0.9 for ph in photons]
    want = chain_loss_pmf([1.0] * 40, arrivals, ring=True)
    assert cluster_loss_pmf(cluster, config) == pytest.approx(want.tolist(), abs=1e-12)
    _assert_pmf_matches(config, want)


def test_hub_last_star_evaluates():
    # 18 spoke qudits each share one qubit with a hub photon listed last;
    # walked in config order all 18 would stay open (2^18 states)
    channels = (Channel("spoke", 0.9), Channel("hub", 0.8))
    photons = [Photon("spoke", ((i, 4),)) for i in range(18)]
    photons.append(Photon("spoke", ((18, 5),)))
    photons.append(Photon("hub", tuple((i, 1) for i in range(18))))
    config = MultiplexConfiguration(QrsCode(19, 10), channels, tuple(photons))
    spokes = 0.8 * pgf_loss_pmf([0.1] * 18)
    spokes[18] += 0.2
    _assert_pmf_matches(config, np.convolve(spokes, [0.9, 0.1]))


def test_loss_distribution_normalized(rng):
    for _ in range(40):
        config = random_configuration(rng, max_photons=14)
        dist = loss_distribution(config)
        dist.check(tol=1e-12)
        assert len(dist.pmf) == config.transmitted + 1
        assert dist.offset == config.withheld


def test_withheld_shifts_distribution():
    ch = Channel("c", 0.9)
    shifted = loss_distribution(
        uniform_configuration(QrsCode(7, 4), 1, [(ch, 5)], withheld=2)
    )
    assert shifted.offset == 2
    assert len(shifted.pmf) == 6
    # entrywise equal to the unshifted 5-qudit distribution
    from oracles import pgf_loss_pmf

    plain = pgf_loss_pmf([1 - 0.9**3] * 5)
    for got, want in zip(shifted.pmf, plain):
        assert got == pytest.approx(want, abs=1e-12)
    assert shifted.probability_at_most(3) == pytest.approx(
        pgf_success([0.9**3] * 5, 1), abs=1e-12
    )


@pytest.mark.parametrize(
    "p", [0.9, np.array([0.9, 0.8]), Fraction(9, 10)], ids=["float", "array", "fraction"]
)
def test_probability_below_withheld_is_zero_of_the_pmf_kind(p):
    # fewer losses than the 2 withheld qudits: zero, typed like the value at 2
    dist = loss_distribution(
        uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", p), 5)], withheld=2)
    )
    at_offset = dist.probability_at_most(2)
    for losses in (1, 0, -3):
        below = dist.probability_at_most(losses)
        assert np.shape(below) == np.shape(at_offset) and np.all(below == 0)
        if isinstance(at_offset, Fraction):
            assert not isinstance(below, float)  # exact
        else:
            assert type(below) is type(at_offset) and below.dtype == at_offset.dtype


def test_success_matches_single_channel_closed_form():
    for d, k in [(3, 2), (5, 3), (7, 4), (11, 6)]:
        for q in (1, 2, 3, 8):
            for p in (0.3, 0.9, 0.96):
                config = uniform_configuration(QrsCode(d, k), q, [(Channel("c", p), d)])
                assert success_probability(config) == pytest.approx(
                    closed_form.ps_single(QrsCode(d, k), q, p), abs=1e-12
                )


def test_success_matches_two_channel_closed_form(rng):
    for _ in range(10):
        d, k = 11, 6
        n = rng.randrange(0, d + 1)
        pa, pb = rng.random(), rng.random()
        config = uniform_configuration(
            QrsCode(d, k), 2, [(Channel("a", pa), d - n), (Channel("b", pb), n)]
        )
        assert success_probability(config) == pytest.approx(
            closed_form.ps_two_channel(QrsCode(d, k), 2, n, pa, pb), abs=1e-12
        )


def test_engine_equals_ps6_on_shared7(rng):
    for _ in range(20):
        p1, p2 = rng.random(), rng.random()
        config = shared7_configuration(p1, p2)
        assert success_probability(config) == pytest.approx(
            closed_form.ps6(p1, p2), abs=1e-12
        )
    config = shared7_configuration(0.88, 0.96)
    assert brute_force(config) == pytest.approx(
        success_probability(config), abs=1e-12
    )


def test_engine_equals_brute_force_randomized(rng):
    for _ in range(60):
        config = random_configuration(rng, max_photons=13)
        exact = success_probability(config)
        oracle = brute_force(config)
        assert exact == pytest.approx(oracle, abs=1e-12)
        flat = enumerate_success(config)
        assert exact == pytest.approx(flat, abs=1e-12)


def test_brute_force_small_closed_form():
    # 3 photons carrying 2 qubits each, tolerance 1: p^3 + 3 p^2 (1-p)
    config = uniform_configuration(QrsCode(3, 2), 2, [(Channel("c", 0.9), 3)])
    assert brute_force(config) == pytest.approx(0.972, abs=1e-12)


def test_brute_force_at_photon_limit_equals_engine():
    # a ring of 20 photons over 10 sent qudits: photon 2i holds 2 qubits of
    # qudit i, photon 2i+1 one qubit each of qudits i and i+1
    photons = []
    for i in range(10):
        photons.append(Photon("a", ((i, 2),)))
        photons.append(Photon("b", ((i, 1), ((i + 1) % 10, 1))))
    channels = (Channel("a", 0.9), Channel("b", 0.8))
    config = MultiplexConfiguration(QrsCode(11, 6), channels, tuple(photons), withheld=1)
    assert len(config.photons) == BRUTE_FORCE_PHOTON_LIMIT
    assert brute_force(config) == pytest.approx(success_probability(config), abs=1e-12)


def _layout_of(rng: random.Random, n: int) -> MultiplexConfiguration:
    """A random valid layout of exactly ``n`` photons: the qubits of the sent
    qudits are dealt out so that each photon gets at least one."""
    qubits: list[int] = []
    while len(qubits) < n:
        code = QrsCode(*rng.choice([(3, 2), (5, 3), (7, 4), (11, 9)]))
        withheld = rng.randint(0, min(code.tolerance(), 2))
        qubits = [q for q in range(code.d - withheld) for _ in range(code.qubits_per_qudit())]
    rng.shuffle(qubits)
    owner = list(range(n)) + [rng.randrange(n) for _ in qubits[n:]]
    carries: list[dict[int, int]] = [{} for _ in range(n)]
    for q, i in zip(qubits, owner):
        carries[i][q] = carries[i].get(q, 0) + 1
    channels = tuple(Channel(f"c{j}", rng.uniform(0.05, 1.0)) for j in range(rng.randint(1, 3)))
    photons = tuple(Photon(rng.choice(channels).id, tuple(held.items())) for held in carries)
    return MultiplexConfiguration(code, channels, photons, withheld)


def test_brute_force_bit_identical_to_flat_enumeration(rng):
    # the oracle multiplies each pattern's weights in photon order from 1, as
    # brute_force does, so the floats agree exactly, not just within roundoff
    for n in range(1, BRUTE_FORCE_PHOTON_LIMIT + 1):
        for _ in range(3 if n <= 16 else 1):
            config = _layout_of(rng, n)
            assert len(config.photons) == n
            assert brute_force(config) == enumerate_success(config)


def test_brute_force_counts_losses_past_255_qudits():
    # one photon carries 256 of the 257 qudits: losing it alone must fail the
    # packet, so the loss count may not wrap at 8 bits
    code = QrsCode(257, 257)
    per = code.qubits_per_qudit()
    channels = (Channel("a", 0.3), Channel("b", 0.6))
    photons = (
        Photon("a", tuple((q, per) for q in range(256))),
        Photon("b", ((256, per),)),
    )
    config = MultiplexConfiguration(code, channels, photons)
    assert brute_force(config) == enumerate_success(config) == 0.3 * 0.6


def test_brute_force_rejects_many_photons():
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9), 7)])
    with pytest.raises(TooManyPhotons):
        brute_force(config)


def test_all_lost_is_zero_when_budget_insufficient():
    config = uniform_configuration(QrsCode(5, 3), 1, [(Channel("c", 0.0), 5)])
    assert success_probability(config) == 0.0
    assert brute_force(config) == 0.0


def test_exact_rational_mode(rng):
    for _ in range(5):
        config = random_configuration(rng, max_photons=10)
        exact_channels = tuple(
            Channel(c.id, Fraction(round(c.p * 1000), 1000)) for c in config.channels
        )
        exact_config = MultiplexConfiguration(
            config.code, exact_channels, config.photons, config.withheld
        )
        float_config = MultiplexConfiguration(
            config.code,
            tuple(Channel(c.id, float(c.p)) for c in exact_channels),
            config.photons,
            config.withheld,
        )
        exact = success_probability(exact_config)
        assert isinstance(exact, Fraction)
        assert abs(success_probability(float_config) - exact) < 1e-12


def test_brute_force_fraction_is_exact(rng):
    for _ in range(5):
        config = random_configuration(rng, max_photons=10)
        channels = tuple(
            Channel(c.id, Fraction(round(c.p * 1000), 1000)) for c in config.channels
        )
        exact = MultiplexConfiguration(config.code, channels, config.photons, config.withheld)
        oracle = brute_force(exact)
        value = success_probability(exact)
        assert isinstance(oracle, Fraction) and isinstance(value, Fraction)
        assert oracle == value


def _at(config, probabilities):
    """``config`` with its channel probabilities taken from ``probabilities``."""
    channels = tuple(Channel(ch.id, probabilities[ch.id]) for ch in config.channels)
    return MultiplexConfiguration(config.code, channels, config.photons, config.withheld)


def test_array_probabilities_equal_scalar_calls(rng):
    # one walk over arrays of probabilities gives, entry by entry, the
    # scalar walk's pmf and P_S bit for bit
    ring = tuple(Photon("ab"[i % 3 == 0], ((i, 2), ((i + 1) % 12, 2))) for i in range(12))
    configs = [
        MultiplexConfiguration(QrsCode(13, 7), (Channel("a", 0.5), Channel("b", 0.5)), ring, 1),
        shared7_configuration(0.5, 0.5),
    ]
    configs += [random_configuration(rng, max_photons=12) for _ in range(30)]
    assert sum(config.withheld > 0 for config in configs) >= 10
    for config in configs:
        grid = {c.id: np.array([rng.uniform(0.05, 1) for _ in range(5)]) for c in config.channels}
        dist = loss_distribution(_at(config, grid))
        dist.check()
        success = success_probability(_at(config, grid))
        assert dist.pmf.shape == (5, config.transmitted + 1) and success.shape == (5,)
        for g in range(5):
            scalar = _at(config, {cid: float(p[g]) for cid, p in grid.items()})
            assert np.array_equal(dist.pmf[g], loss_distribution(scalar).pmf)
            assert success[g] == success_probability(scalar)


def test_result_types_follow_probabilities():
    floats = shared7_configuration(0.9, 0.8)
    exact = shared7_configuration(Fraction(9, 10), Fraction(4, 5))
    # an array channel next to a scalar one broadcasts
    grid = shared7_configuration(np.linspace(0.1, 1.0, 6).reshape(2, 3), 0.8)
    assert loss_distribution(floats).pmf.dtype == np.float64
    assert type(success_probability(floats)) is float and type(brute_force(floats)) is float
    assert loss_distribution(exact).pmf.dtype == object
    assert isinstance(brute_force(exact), Fraction)
    assert brute_force(exact) == success_probability(exact)
    assert loss_distribution(grid).pmf.shape == (2, 3, 8)
    # equal distributions compare equal, arrays and all
    for config in (floats, exact, grid):
        assert loss_distribution(config) == loss_distribution(config)
    assert loss_distribution(floats) != loss_distribution(shared7_configuration(0.9, 0.7))
    values = success_probability(grid)
    assert values.shape == (2, 3)
    assert values[1, 2] == success_probability(shared7_configuration(1.0, 0.8))


def test_convolution_order_invariance_exact(rng):
    # convolving cluster pmfs in any order gives identical results, exactly
    config = shared7_configuration(Fraction(7, 10), Fraction(9, 10))
    clusters = cluster_decompose(config)
    pmfs = [cluster_loss_pmf(c, config) for c in clusters]
    for _ in range(5):
        order = list(range(len(pmfs)))
        rng.shuffle(order)
        forward = [1]
        for i in order:
            forward = np.convolve(forward, pmfs[i])
        backward = [1]
        for i in reversed(order):
            backward = np.convolve(backward, pmfs[i])
        assert forward.tolist() == backward.tolist()


def test_cluster_order_permutation_invariance(rng):
    # evaluating with photons listed in any order gives the same result
    for _ in range(10):
        config = random_configuration(rng, max_photons=12)
        photons = list(config.photons)
        rng.shuffle(photons)
        shuffled = MultiplexConfiguration(
            config.code, config.channels, tuple(photons), config.withheld
        )
        assert success_probability(shuffled) == pytest.approx(
            success_probability(config), abs=1e-12
        )


def test_monotone_in_channel_probability(rng):
    for _ in range(15):
        config = random_configuration(rng, max_photons=12)
        target = rng.choice(config.channels)
        bumped_channels = tuple(
            Channel(c.id, min(1.0, c.p + rng.uniform(0, 1 - c.p)))
            if c.id == target.id
            else c
            for c in config.channels
        )
        bumped = MultiplexConfiguration(
            config.code, bumped_channels, config.photons, config.withheld
        )
        assert success_probability(bumped) >= success_probability(config) - 1e-12


def test_block_success_matches_configuration_path():
    code = QrsCode(5, 3)
    blocks = [(2, 0.98**3), (2, 0.972**3), (1, 0.96**3)]
    split = [
        (Channel("a", 0.98), 2),
        (Channel("b", 0.972), 2),
        (Channel("c", 0.96), 1),
    ]
    config = uniform_configuration(code, 1, split)
    assert block_success(code, blocks) == pytest.approx(
        success_probability(config), abs=1e-12
    )
    assert block_success(code, blocks) == pytest.approx(0.9958, abs=5e-4)


def test_brute_force_rejects_array_probabilities():
    config = shared7_configuration(np.array([0.9, 0.8]), 0.95)
    with pytest.raises(
        ArrayProbability,
        match=r"^brute_force .* channel 'ch1' has p of shape \(2,\); .* success_probability or loss_distribution$",
    ):
        brute_force(config)
    # scalars and Fractions are unchanged
    floats = shared7_configuration(0.9, 0.95)
    assert brute_force(floats) == pytest.approx(closed_form.ps6(0.9, 0.95), abs=1e-12)
    exact = shared7_configuration(Fraction(9, 10), Fraction(19, 20))
    assert brute_force(exact) == success_probability(exact)


# --- one walk per distinct cluster signature ------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """The clusters :func:`loss_distribution` walks, in call order."""
    walked = []
    walk = engine.cluster_loss_pmf

    def counting(cluster, config):
        walked.append(cluster)
        return walk(cluster, config)

    monkeypatch.setattr(engine, "cluster_loss_pmf", counting)
    return walked


def _unmemoised(config):
    """The fold of one walk per cluster, in cluster order."""
    return reduce(_convolve_rows, [cluster_loss_pmf(c, config) for c in cluster_decompose(config)])


def _assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def test_uniform_layout_walks_one_cluster_per_channel(walks):
    config = uniform_configuration(
        QrsCode(211, 106), 1, [(Channel("a", 0.92), 105), (Channel("b", 0.93), 106)]
    )
    dist = loss_distribution(config)
    assert len(cluster_decompose(config)) == 211
    assert [config.photons[c.photon_indices[0]].channel_id for c in walks] == ["a", "b"]
    _assert_same_bits(dist.pmf, _unmemoised(config))


def test_ring_and_singletons_walk_twice(walks):
    # a ring of 19 photons over qudits 0..18 (2 + 3 qubits each), four singletons
    ring = [Photon("a", ((i, 2), ((i + 1) % 19, 3))) for i in range(19)]
    singles = [Photon("b", ((q, 5),)) for q in range(19, 23)]
    channels = (Channel("a", 0.95), Channel("b", 0.9))
    config = MultiplexConfiguration(QrsCode(23, 12), channels, tuple(ring + singles))
    dist = loss_distribution(config)
    assert sorted(len(c.photon_indices) for c in walks) == [1, 19]
    _assert_same_bits(dist.pmf, _unmemoised(config))


def _pairs(first: str, second: str) -> MultiplexConfiguration:
    """Two clusters of one shape: qudits 0, 1 on channel ``first``, 2, 3 on ``second``."""
    photons = []
    for q, channel in ((0, first), (2, second)):
        photons += [Photon(channel, ((q, 2), (q + 1, 1))), Photon(channel, ((q, 1), (q + 1, 2)))]
    channels = (Channel("a", 0.9), Channel("b", 0.8))
    return MultiplexConfiguration(QrsCode(5, 3), channels, tuple(photons), withheld=1)


def test_channel_is_part_of_the_signature(walks):
    loss_distribution(_pairs("a", "a"))
    assert len(walks) == 1
    walks.clear()
    config = _pairs("a", "b")
    dist = loss_distribution(config)
    assert [c.qudit_indices for c in walks] == [(0, 1), (2, 3)]
    _assert_same_bits(dist.pmf, _unmemoised(config))


def test_photon_order_is_part_of_the_signature(walks):
    # two 3-qudit paths; the second lists its photons in the other order
    def path(q):
        return [Photon("a", ((q, 3), (q + 1, 1))), Photon("a", ((q + 1, 2), (q + 2, 3)))]

    channels = (Channel("a", 0.9),)
    same = MultiplexConfiguration(QrsCode(7, 4), channels, tuple(path(0) + path(3)), withheld=1)
    loss_distribution(same)
    assert len(walks) == 1
    walks.clear()
    swapped = MultiplexConfiguration(
        QrsCode(7, 4), channels, tuple(path(0) + path(3)[::-1]), withheld=1
    )
    dist = loss_distribution(swapped)
    assert [c.qudit_indices for c in walks] == [(0, 1, 2), (3, 4, 5)]
    _assert_same_bits(dist.pmf, _unmemoised(swapped))


def test_memo_is_bit_identical_to_one_walk_per_cluster(rng, walks):
    # floats, Fractions and arrays of probabilities; a third of the layouts repeat a cluster
    repeated = 0
    for _ in range(30):
        config = random_configuration(rng, max_photons=14)
        exact = {c.id: Fraction(round(c.p * 1000), 1000) for c in config.channels}
        grid = {c.id: np.array([rng.uniform(0.05, 1) for _ in range(3)]) for c in config.channels}
        for variant in (config, _at(config, exact), _at(config, grid)):
            walks.clear()
            got = loss_distribution(variant).pmf
            repeated += len(walks) < len(cluster_decompose(variant))
            _assert_same_bits(got, _unmemoised(variant))
    assert repeated >= 15


def test_no_memo_survives_a_call(rng):
    # one layout shape at two probabilities: each call equals its own evaluation
    for _ in range(10):
        config = random_configuration(rng, max_photons=14)
        first = _at(config, {c.id: rng.uniform(0.05, 1) for c in config.channels})
        second = _at(config, {c.id: rng.uniform(0.05, 1) for c in config.channels})
        a, b = loss_distribution(first).pmf, loss_distribution(second).pmf
        assert a.tobytes() != b.tobytes()
        _assert_same_bits(a, _unmemoised(first))
        _assert_same_bits(b, _unmemoised(second))


# --- cluster signatures --------------------------------------------------------


def test_signature_is_channel_and_local_positions_per_photon(rng):
    for _ in range(30):
        config = random_configuration(rng)
        for cluster in cluster_decompose(config):
            want = tuple(
                (
                    config.photons[i].channel_id,
                    tuple(cluster.qudit_indices.index(q) for q in config.photons[i].qudits),
                )
                for i in cluster.photon_indices
            )
            assert cluster.signature == want


def _ring_at(start: int) -> MultiplexConfiguration:
    """A 19-photon ring on qudits ``start .. start + 18`` of d=23, singletons elsewhere."""
    ring = [Photon("a", ((start + i, 2), (start + (i + 1) % 19, 3))) for i in range(19)]
    singles = [Photon("b", ((q, 5),)) for q in range(23) if not start <= q < start + 19]
    channels = (Channel("a", 0.95), Channel("b", 0.9))
    return MultiplexConfiguration(QrsCode(23, 12), channels, tuple(ring + singles))


def test_ring_signature_and_walk_do_not_depend_on_placement():
    low, high = _ring_at(0), _ring_at(4)
    (a,) = [c for c in cluster_decompose(low) if len(c.photon_indices) == 19]
    (b,) = [c for c in cluster_decompose(high) if len(c.photon_indices) == 19]
    assert a.qudit_indices == tuple(range(19)) and b.qudit_indices == tuple(range(4, 23))
    assert a.signature == b.signature
    _assert_same_bits(cluster_loss_pmf(a, low), cluster_loss_pmf(b, high))


def test_relabelling_qudits_leaves_success_exact(rng):
    for _ in range(30):
        config = random_configuration(rng, max_photons=14)
        exact = _at(config, {c.id: Fraction(round(c.p * 1000), 1000) for c in config.channels})
        label = list(range(config.transmitted))
        rng.shuffle(label)
        photons = tuple(
            Photon(ph.channel_id, tuple((label[q], n) for q, n in ph.carries))
            for ph in exact.photons
        )
        relabelled = MultiplexConfiguration(exact.code, exact.channels, photons, exact.withheld)
        value = success_probability(exact)
        assert isinstance(value, Fraction)
        assert success_probability(relabelled) == value


# --- block path: log-space pmf, arrays, large codes -------------------------------


@pytest.mark.parametrize("d", [1031, 2003])
@pytest.mark.parametrize("p", [0.999, 0.94])
def test_block_success_large_codes(d, p):
    # float(comb(d, i)) overflows for d >= 1031; the log-space pmf does not
    code = QrsCode(d, (d + 1) // 2)
    P = p**11
    value = block_success(code, [(d, P)])
    assert np.isfinite(value)
    assert value == pytest.approx(pgf_success([P] * d, code.tolerance()), abs=1e-12)
    assert value == pytest.approx(closed_form.ps_single(code, 1, p), abs=1e-12)


def test_block_success_fraction_is_exact():
    code = QrsCode(7, 4)
    p = Fraction(96, 100)
    value = block_success(code, [(7, p**3)])
    assert isinstance(value, Fraction)
    assert value == closed_form.ps_single(code, 1, p)
    two = block_success(code, [(3, p**3), (4, Fraction(9, 10) ** 3)])
    assert isinstance(two, Fraction)
    assert two == closed_form.ps_two_channel(code, 1, 4, p, Fraction(9, 10))
    assert two == pytest.approx(block_success(code, [(3, 0.96**3), (4, 0.9**3)]), abs=1e-15)


def test_binomial_pmf_exact_at_zero_and_one():
    for n in (1, 5, 211, 2003):
        assert binomial_pmf(n, 0.0).tolist() == [1.0] + [0.0] * n
        assert binomial_pmf(n, 1.0).tolist() == [0.0] * n + [1.0]
    rows = binomial_pmf(4, np.array([0.0, 0.5, 1.0]))
    assert rows.shape == (3, 5)
    assert rows[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert rows[1] == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16], abs=1e-15)
    assert rows[2].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_binomial_pmf_normalized_at_large_n():
    pmf = binomial_pmf(2003, 0.3)
    assert np.isfinite(pmf).all()
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf.argmax() == int(0.3 * 2004)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_block_success_arrays_match_scalar_calls(n_blocks, rng):
    code = QrsCode(43, 22)
    counts = [rng.randint(1, 43 // n_blocks) for _ in range(n_blocks)]
    survivals = [np.array([rng.random() for _ in range(20)]) for _ in counts]
    survivals[0][:2] = (0.0, 1.0)
    values = block_success(code, list(zip(counts, survivals)))
    assert isinstance(values, np.ndarray) and values.shape == (20,)
    for g in range(20):
        blocks = [(c, float(P[g])) for c, P in zip(counts, survivals)]
        assert values[g] == pytest.approx(block_success(code, blocks), abs=1e-14)
        survivals_g = [float(P[g]) for c, P in zip(counts, survivals) for _ in range(c)]
        assert values[g] == pytest.approx(pgf_success(survivals_g, 21), abs=1e-12)


def test_block_success_broadcasts_a_float_block():
    code = QrsCode(43, 22)
    p1 = np.linspace(0.0, 1.0, 11)
    values = block_success(code, [(23, 0.99**6), (20, p1**6)])
    assert values.shape == (11,)
    for got, x in zip(values, p1):
        assert got == pytest.approx(block_success(code, [(23, 0.99**6), (20, x**6)]), abs=1e-14)


@pytest.mark.parametrize(
    "code,blocks,named",
    [
        (QrsCode(7, 4), [(3, 1.5), (4, 0.9)], r"survival=1.5 outside \[0, 1\]"),
        (QrsCode(7, 4), [(7, np.array([-0.2, 0.5]))], r"survival=-0.2 outside \[0, 1\]"),
        (QrsCode(7, 4), [(3, 0.9), (4, np.array([0.5, np.nan]))], r"survival=nan outside"),
        (QrsCode(7, 4), [(0, 1.5), (7, 0.9)], r"survival=1.5 outside \[0, 1\]"),
        (QrsCode(5, 7), [(5, 0.9)], r"d=5 k=7: bad-code-parameters: k=7 outside 1..d"),
        (QrsCode(9, 5), [(9, 0.9)], r"d=9 k=5: non-prime-d: d=9 is not prime"),
        (QrsCode(7, 4), [(-2, 0.9), (9, 0.9)], r"block of -2 qudits: counts must be >= 0"),
        (QrsCode(7, 4), [(20, 0.9)], r"block of 20 qudits: .* total <= d=7"),
    ],
    ids=[
        "float", "negative-entry", "nan-entry", "count-zero", "k-above-d", "non-prime-d",
        "negative-count", "counts-above-d",
    ],
)
def test_block_success_rejects_invalid_input(code, blocks, named):
    with pytest.raises(ValueError, match=named):
        block_success(code, blocks)


# --- count tables --------------------------------------------------------------


def walk_table(build, photons):
    """:func:`oracles.polynomial_table` of the Fraction walk over ``build(p1, p2)``."""
    return polynomial_table(lambda p1, p2: success_probability(build(p1, p2)), photons)


def two_channel_layout(rng: random.Random) -> MultiplexConfiguration:
    """A seeded layout of at most 14 photons, each photon moved to channel a or b."""
    config = random_configuration(rng, max_photons=14)
    photons = tuple(Photon(rng.choice("ab"), ph.carries) for ph in config.photons)
    channels = (Channel("a", 0.5), Channel("b", 0.5))
    return MultiplexConfiguration(config.code, channels, photons, config.withheld)


def test_count_table_equals_pattern_counts_on_seeded_layouts(rng):
    for _ in range(30):
        config = two_channel_layout(rng)
        on = tuple(sum(ph.channel_id == c for ph in config.photons) for c in "ab")

        def build(p1, p2, config=config):
            return MultiplexConfiguration(
                config.code, (Channel("a", p1), Channel("b", p2)), config.photons, config.withheld
            )

        table = walk_table(build, on)
        assert table.shape == (on[0] + 1, on[1] + 1)
        assert np.array_equal(table, pattern_counts(config))


def channel_counts(config: MultiplexConfiguration) -> tuple[int, int]:
    """Photons per channel, in ``config.channels`` order."""
    return tuple(sum(ph.channel_id == ch.id for ph in config.photons) for ch in config.channels)


def with_probabilities(config: MultiplexConfiguration, p1, p2) -> MultiplexConfiguration:
    """``config`` with its two channels at ``p1`` and ``p2``."""
    (a, b) = config.channels
    return replace(config, channels=(Channel(a.id, p1), Channel(b.id, p2)))


@settings(max_examples=150)
@given(two_channel_layouts())
def test_layout_table_equals_pattern_counts_and_the_fraction_walk(config):
    table = engine.layout_table(config)
    assert table.dtype == np.int64
    assert np.array_equal(table, pattern_counts(config))
    walk = walk_table(lambda p1, p2: with_probabilities(config, p1, p2), channel_counts(config))
    assert np.array_equal(table, walk)
    planner._check_monotone(table)


def test_layout_table_of_the_shared7_layout():
    table = engine.layout_table(shared7_configuration(0.9, 0.95))
    assert np.array_equal(table, walk_table(shared7_configuration, (3, 3)))
    # the channel probabilities are not read
    assert np.array_equal(table, engine.layout_table(shared7_configuration(0.0, 1.0)))


def test_layout_table_needs_two_channels_and_a_valid_layout():
    one = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9), 7)])
    with pytest.raises(ValueError, match="two channels"):
        engine.layout_table(one)
    bad = shared7_configuration(0.9, 0.95)
    bad = replace(bad, photons=bad.photons[:-1])  # a qudit left short of its qubits
    with pytest.raises(InvalidConfiguration):
        engine.layout_table(bad)


def test_count_table_keeps_exact_digits_beyond_int64():
    # 67 single-qudit photons on channel a: T[a, 0] = C(67, a) once a >= k = 34,
    # and C(67, 34) lies in [2^63, 2^64), next to entries as small as 1
    code = QrsCode(67, 34)
    config = uniform_configuration(code, 7, [(Channel("a", 0.5), 67), (Channel("b", 0.5), 0)])
    table = engine.layout_table(config)
    assert table.dtype == object and comb(67, 34) >> 63
    assert table[:, 0].tolist() == [comb(67, a) if a >= 34 else 0 for a in range(68)]
    assert all(type(x) is int for x in table.flat)
    small = [(Channel("a", 0.5), 5), (Channel("b", 0.5), 2)]
    assert engine.layout_table(uniform_configuration(QrsCode(7, 4), 1, small)).dtype == np.int64


def test_layout_table_of_many_photons_sums_to_its_success_probability():
    # 115 single-qubit photons, seven of them on channel b: entries pass 2^63
    code = QrsCode(23, 12)
    on_b = {(0, j) for j in range(5)} | {(1, 0), (1, 1)}
    photons = tuple(
        Photon("b" if (qudit, j) in on_b else "a", ((qudit, 1),))
        for qudit in range(23)
        for j in range(5)
    )
    config = MultiplexConfiguration(code, (Channel("a", 0.5), Channel("b", 0.5)), photons)
    table = engine.layout_table(config)
    assert table.shape == (109, 8) and table.dtype == object
    assert max(table.flat) >> 63 and all(type(x) is int for x in table.flat)
    p1, p2 = Fraction(7, 10), Fraction(9, 10)
    exact = success_probability(with_probabilities(config, p1, p2))
    assert engine.table_evaluator(table, p2)(p1) == exact


def test_count_table_of_ps6_is_the_shared7_table():
    table = engine.table_array(closed_form.PS6_TABLE)
    shared7 = engine.layout_table(shared7_configuration(0.5, 0.5))
    assert table.dtype == shared7.dtype == np.int64
    assert np.array_equal(table, shared7)
    assert np.array_equal(table, pattern_counts(shared7_configuration(0.5, 0.5)))
    assert np.array_equal(table, polynomial_table(closed_form.ps6, (3, 3)))
    assert np.count_nonzero(table) == len(closed_form.PS6_TABLE) == 7
    planner._check_monotone(table)


def test_count_table_rejects_what_is_no_table():
    # the oracle read refuses what no count table gives
    with pytest.raises(ArithmeticError):
        polynomial_table(lambda p1, p2: p1 / 3, (1, 1))
    with pytest.raises(ArithmeticError):  # integral, but with digits beyond the table
        polynomial_table(lambda p1, p2: 2**40, (1, 1))
    with pytest.raises(ArithmeticError):  # no count is negative
        polynomial_table(lambda p1, p2: -p1, (1, 1))


def test_table_evaluator_takes_floats_arrays_and_fractions(rng):
    table = walk_table(shared7_configuration, (3, 3))
    for _ in range(20):
        p1, p2 = rng.random(), rng.random()
        value = engine.table_evaluator(table, p2)(p1)
        assert value == pytest.approx(closed_form.ps6(p1, p2), abs=1e-15)
    p1 = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    values = engine.table_evaluator(table, 0.8 * np.ones((3, 4)))(p1)
    assert values.shape == (3, 4)
    assert values.tolist() == [[engine.table_evaluator(table, 0.8)(x) for x in row] for row in p1]
    exact = engine.table_evaluator(table, Fraction(4, 5))(Fraction(7, 10))
    assert exact == closed_form.ps6(Fraction(7, 10), Fraction(4, 5))
