import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_configuration
from oracles import chain_loss_pmf, enumerate_success, pgf_loss_pmf, pgf_success
from qnetagg import closed_form
from qnetagg.engine import (
    ClusterTooLarge,
    TooManyPhotons,
    binomial_pmf,
    block_success,
    brute_force,
    cluster_decompose,
    cluster_loss_pmf,
    loss_distribution,
    success_probability,
)
from qnetagg.model import (
    Channel,
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
    # degenerate: nothing transmitted, nothing to cluster
    config = MultiplexConfiguration(QrsCode(3, 2), (Channel("c", 0.9),), (), withheld=3)
    assert cluster_decompose(config) == []


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
    counts = [rng.randint(0, 43 // n_blocks) for _ in range(n_blocks)]
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
    assert block_success(code, [(43, p1)], withheld=22).tolist() == [0.0] * 11
