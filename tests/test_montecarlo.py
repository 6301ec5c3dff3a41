import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_configuration
from qnetagg import engine, montecarlo
from qnetagg.model import (
    ArrayProbability, Channel, MultiplexConfiguration, Photon, QrsCode, photons_per_qudit,
    shared7_configuration, uniform_configuration,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_lossless_channel_is_certain():
    config = uniform_configuration(QrsCode(5, 3), 1, [(Channel("c", 1.0), 5)])
    est = montecarlo.estimate(config, 5000, seed=1)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_zero_variance_estimate_agrees_with_exact():
    # every trial succeeds: mean 1.0, standard error 0, exact 1 - 2.8e-13
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9999), 7)])
    exact = engine.success_probability(config)
    est = montecarlo.estimate(config, 8 << 16, seed=7)
    assert est.mean == 1.0 and est.std_error == 0.0
    assert exact < 1.0
    assert est.agrees_with(exact, sigmas=4)
    # the interval still has a lower end: 1 - 1e-3 is far below it
    assert not est.agrees_with(1.0 - 1e-3, sigmas=4)


@pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "2**128"])
def test_seed_outside_philox_key_range_rejected(seed):
    config = shared7_configuration(0.9, 0.95)
    with pytest.raises(ValueError, match=rf"seed={seed} outside 0\.\.2\*\*128-1"):
        montecarlo.estimate(config, 10, seed=seed)


def test_seed_range_ends_accepted():
    config = shared7_configuration(0.9, 0.95)
    for seed in (0, (1 << 128) - 1):
        assert montecarlo.estimate(config, 10, seed=seed).seed == seed


def test_reproducible_under_fixed_seed():
    config = shared7_configuration(0.9, 0.95)
    a = montecarlo.estimate(config, 300_000, seed=42)
    b = montecarlo.estimate(config, 300_000, seed=42)
    assert a == b


def test_different_seeds_agree_statistically():
    config = shared7_configuration(0.9, 0.95)
    exact = engine.success_probability(config)
    for seed in (1, 2, 3):
        est = montecarlo.estimate(config, 200_000, seed=seed)
        assert est.agrees_with(exact, sigmas=5)


def test_shared_layout_against_closed_form():
    from qnetagg.closed_form import ps6

    config = shared7_configuration(0.9, 0.95)
    est = montecarlo.estimate(config, 1_000_000, seed=7)
    assert est.agrees_with(ps6(0.9, 0.95), sigmas=4)


def test_std_error_formula():
    config = shared7_configuration(0.7, 0.8)
    est = montecarlo.estimate(config, 100_000, seed=9)
    assert est.std_error == pytest.approx(
        (est.mean * (1 - est.mean) / est.samples) ** 0.5, rel=1e-12
    )


def test_randomized_agreement_with_engine(rng):
    reruns = 0
    for _ in range(6):
        config = random_configuration(rng, max_photons=12)
        exact = engine.success_probability(config)
        est = montecarlo.estimate(config, 200_000, seed=11)
        if not est.agrees_with(exact, sigmas=4):
            # documented flaky-test budget: one rerun with a fresh seed
            reruns += 1
            est = montecarlo.estimate(config, 200_000, seed=12)
            assert est.agrees_with(exact, sigmas=4)
    assert reruns <= 1


def test_withheld_counts_against_budget():
    config = uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9), 5)], withheld=2)
    exact = engine.success_probability(config)
    est = montecarlo.estimate(config, 400_000, seed=5)
    assert est.agrees_with(exact, sigmas=4)


def test_chunk_merge_is_order_free():
    # splitting the same seed across chunk boundaries must not change totals:
    # sample counts that are not chunk multiples exercise the tail chunk
    config = shared7_configuration(0.85, 0.9)
    est = montecarlo.estimate(config, montecarlo.CHUNK + 12345, seed=3)
    assert est.samples == montecarlo.CHUNK + 12345
    assert 0.9 < est.mean < 1.0


def test_array_probabilities_rejected():
    config = shared7_configuration(np.array([0.9, 0.8]), 0.95)
    with pytest.raises(
        ArrayProbability,
        match=r"^montecarlo\.estimate .* channel 'ch1' .*; .* success_probability or loss_distribution$",
    ):
        montecarlo.estimate(config, 1000, seed=1)
    # a Fraction draws the same samples as its float
    floats = montecarlo.estimate(shared7_configuration(0.9, 0.95), 1000, seed=1)
    exact = montecarlo.estimate(shared7_configuration(Fraction(9, 10), Fraction(19, 20)), 1000, seed=1)
    assert floats == exact


@pytest.mark.parametrize(
    "samples, seed, name",
    [(10, 1.5, "seed"), (True, 0, "samples"), (10.0, 0, "samples"), (10, True, "seed"),
     (10, "7", "seed")],
    ids=["float-seed", "bool-samples", "float-samples", "bool-seed", "str-seed"],
)
def test_non_integer_arguments_rejected(samples, seed, name):
    config = shared7_configuration(0.9, 0.95)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, not "):
        montecarlo.estimate(config, samples, seed=seed)


def test_numpy_integer_arguments_accepted():
    config = shared7_configuration(0.9, 0.95)
    est = montecarlo.estimate(config, np.int64(1000), seed=np.uint32(3))
    assert est == montecarlo.estimate(config, 1000, seed=3)
    assert type(est.samples) is int and type(est.seed) is int and type(est.mean) is float


@pytest.mark.parametrize("lost_qudits, mean", [(2, 1.0), (3, 0.0)])
def test_certain_and_impossible_channels_give_exact_mean(lost_qudits, mean):
    # p = 1 photons always arrive and p = 0 photons never do, at any word
    code = QrsCode(5, 3)
    split = [(Channel("on", 1.0), 5 - lost_qudits), (Channel("off", 0.0), lost_qudits)]
    est = montecarlo.estimate(uniform_configuration(code, 1, split), montecarlo.CHUNK + 999, seed=4)
    assert est.mean == mean and est.std_error == 0.0


def test_fraction_draws_same_samples_as_its_float(rng):
    for _ in range(4):
        config = random_configuration(rng, max_photons=12)
        channels = tuple(
            Channel(c.id, Fraction(rng.randint(1, 2999), 3000)) for c in config.channels
        )
        exact = MultiplexConfiguration(config.code, channels, config.photons, config.withheld)
        floats = MultiplexConfiguration(
            config.code,
            tuple(Channel(c.id, float(c.p)) for c in channels),
            config.photons,
            config.withheld,
        )
        assert montecarlo.estimate(exact, 20_000, seed=8) == montecarlo.estimate(
            floats, 20_000, seed=8
        )


def test_pinned_success_count():
    # any change to the draws or the arrival rule shows up here
    est = montecarlo.estimate(shared7_configuration(0.9, 0.95), 300_000, seed=42)
    assert round(est.mean * est.samples) == 298_290


def test_private_photons_draw_as_one_photon_per_qudit():
    # a qudit's m private photons arrive together with probability p**m: the
    # q = 1 layout draws the same samples as one photon per qudit at p**m
    code = QrsCode(7, 4)
    m = photons_per_qudit(code, 1)
    split = [(0.93, 3), (0.81, 4)]
    per_photon = uniform_configuration(code, 1, [(Channel(f"c{p}", p), n) for p, n in split])
    per_qudit = uniform_configuration(
        code, code.qubits_per_qudit(),
        [(Channel(f"c{p}", math.prod([p] * m)), n) for p, n in split],
    )
    assert len(per_photon.photons) == m * len(per_qudit.photons)
    assert montecarlo.estimate(per_photon, 50_000, seed=6) == montecarlo.estimate(
        per_qudit, 50_000, seed=6
    )


def _split_private_layout(on: float, off: float) -> MultiplexConfiguration:
    """d=5, k=3: qudits 0..2 each on two private photons, one per channel,
    and qudits 3 and 4 on one private photon each in ``on``."""
    photons = [Photon(ch, ((q, n),)) for q in range(3) for ch, n in (("on", 2), ("off", 1))]
    photons += [Photon("on", ((q, 3),)) for q in (3, 4)]
    return MultiplexConfiguration(
        QrsCode(5, 3), (Channel("on", on), Channel("off", off)), tuple(photons)
    )


def test_private_group_with_an_impossible_photon_is_always_lost():
    # 1.0 * 0.0 = 0: qudits 0..2 are lost in every trial, one past tolerance 2
    est = montecarlo.estimate(_split_private_layout(1.0, 0.0), montecarlo.CHUNK + 999, seed=4)
    assert est.mean == 0.0 and est.std_error == 0.0


def _mixed_unit_layout(pa, pb) -> MultiplexConfiguration:
    """d=5, k=3: qudit 0 has private photons in both channels plus a photon
    it shares with qudit 1; qudits 1..4 also have private photons."""
    photons = (
        Photon("a", ((0, 1),)),
        Photon("b", ((2, 3),)),
        Photon("b", ((0, 1),)),
        Photon("b", ((0, 1), (1, 1))),
        Photon("a", ((1, 2),)),
        Photon("a", ((3, 3),)),
        Photon("b", ((4, 2),)),
        Photon("a", ((4, 1),)),
    )
    return MultiplexConfiguration(QrsCode(5, 3), (Channel("a", pa), Channel("b", pb)), photons)


def test_private_groups_beside_a_shared_photon_agree_with_engine():
    config = _mixed_unit_layout(0.8, 0.7)
    exact = engine.success_probability(config)
    est = montecarlo.estimate(config, 400_000, seed=13)
    assert est.agrees_with(exact, sigmas=4)


def test_fraction_private_group_draws_same_samples_as_its_float():
    exact = _mixed_unit_layout(Fraction(4, 5), Fraction(7, 10))
    floats = _mixed_unit_layout(0.8, 0.7)
    assert montecarlo.estimate(exact, 100_000, seed=2) == montecarlo.estimate(
        floats, 100_000, seed=2
    )


def _shared_layout(seed: int, photons: int = 24) -> MultiplexConfiguration:
    """A seeded d=11, k=6 layout of ``photons`` photons on channels "a" and
    "b", built by merging the 40 one-qubit photons of the 10 sent qudits."""
    rng = random.Random(seed)
    carried = [{q: 1} for q in range(10) for _ in range(4)]
    while len(carried) > photons:
        i, j = sorted(rng.sample(range(len(carried)), 2))
        for q, c in carried.pop(j).items():
            carried[i][q] = carried[i].get(q, 0) + c
    built = tuple(Photon(rng.choice("ab"), tuple(sorted(c.items()))) for c in carried)
    return MultiplexConfiguration(
        QrsCode(11, 6), (Channel("a", 0.93), Channel("b", 0.81)), built, withheld=1
    )


# (layout, samples, seed, successes): any change to the draws, or to how the
# chunks are shared among threads, shows up in these counts.
CHUNKED_CASES = {
    # 43 one-unit qudits; the last chunk has odd length, so its rows straddle words
    "d43-odd-tail": (
        lambda: uniform_configuration(
            QrsCode(43, 22), 4, [(Channel("a", 0.99), 23), (Channel("b", 0.39), 20)]
        ),
        2 * montecarlo.CHUNK + 12345, 5, 142773,
    ),
    # qudit 0's private row is held until its shared photon is drawn
    "mixed-units": (lambda: _mixed_unit_layout(0.8, 0.7), 3 * montecarlo.CHUNK + 1, 6, 131344),
    "shared-24": (lambda: _shared_layout(24), 5 * montecarlo.CHUNK, 7, 222545),
}


@pytest.mark.parametrize("case", CHUNKED_CASES)
def test_pinned_success_counts_across_chunks(case):
    build, samples, seed, successes = CHUNKED_CASES[case]
    est = montecarlo.estimate(build(), samples, seed=seed)
    assert round(est.mean * est.samples) == successes


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("case", CHUNKED_CASES)
def test_estimate_is_the_same_on_any_cpu_count(case, cpus, monkeypatch):
    # chunks are shared among the CPUs and their counts added in any order
    build, samples, seed, _ = CHUNKED_CASES[case]
    config = build()
    default = montecarlo.estimate(config, samples, seed=seed)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    assert montecarlo.estimate(config, samples, seed=seed) == default


def test_one_chunk_starts_no_thread(monkeypatch):
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
    config = shared7_configuration(0.9, 0.95)
    montecarlo.estimate(config, montecarlo.CHUNK, seed=1)
    assert started == []
    # two chunks: one in the calling thread, one in a pool thread
    montecarlo.estimate(config, montecarlo.CHUNK + 1, seed=1)
    assert len(started) == 1


@pytest.mark.parametrize(
    "case, bytes_a_trial",
    [
        # 43 one-unit qudits, so no row is held across units: each thread draws
        # blocks of at most 22 rows, and the peak stays below one chunk's words
        # and flags, 43 rows of 4 + 1 bytes a trial
        ("d43-odd-tail", 43 * 5),
        # 18 units in blocks of 10 rows: each thread holds a block's words (10 rows
        # of 4 bytes a trial), a running row for each open qudit (at most the 10
        # sent) and 4 working rows (lost counts, a unit's flags, a new AND, its
        # negation), one byte a trial each
        ("shared-24", 2 * (10 * 4 + 10 + 4)),
    ],
    ids=["d43-odd-tail", "shared-24"],
)
def test_blocks_bound_the_memory_of_an_estimate(case, bytes_a_trial, monkeypatch):
    # On 2 CPUs each thread frees one block before it draws the next; the
    # bound does not depend on the host, because the CPU count is pinned.
    config = CHUNKED_CASES[case][0]()
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    montecarlo.estimate(config, 2 * montecarlo.CHUNK, seed=1)  # imports the pool first
    tracemalloc.start()
    try:
        montecarlo.estimate(config, 8 * montecarlo.CHUNK, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_a_trial * montecarlo.CHUNK


def _uniform(d: int, p: float) -> MultiplexConfiguration:
    """d one-unit qudits on one channel, q = 1."""
    return uniform_configuration(QrsCode(d, (d + 1) // 2), 1, [(Channel("a", p), d)])


@pytest.mark.parametrize("cpus", [1, 2])
def test_capped_blocks_draw_the_same_words(cpus, monkeypatch):
    # 211 units: blocks of 64 rows, or of 106 and 212 without the cap; consecutive
    # draws from one stream return one draw's words, so the estimate cannot move
    config = _uniform(211, 0.93)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    capped = montecarlo.estimate(config, 2 * montecarlo.CHUNK + 777, seed=3)
    assert 0 < capped.mean < 1
    monkeypatch.setattr(montecarlo, "MAX_BLOCK_ROWS", 1 << 30)
    assert montecarlo.estimate(config, 2 * montecarlo.CHUNK + 777, seed=3) == capped


def test_memory_of_an_estimate_does_not_grow_with_the_layout():
    # one chunk of CHUNK / 2 trials: a block of MAX_BLOCK_ROWS rows of 4-byte words
    # at d = 211 and at d = 2003 (uncapped, 212 and 2004 rows), beside a few rows of
    # one or two bytes a trial and the units' Python objects (~160 bytes each)
    samples = montecarlo.CHUNK // 2
    montecarlo.estimate(_uniform(211, 0.95), samples, seed=1)  # imports the pool first
    peaks = []
    for d in (211, 2003):
        config = _uniform(d, 0.95)
        tracemalloc.start()
        try:
            montecarlo.estimate(config, samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]
    assert peaks[1] < (4 * montecarlo.MAX_BLOCK_ROWS + 32) * samples


def test_estimate_at_the_largest_prime_code():
    # d = 65521, the largest prime within MAX_D: 65521 one-unit qudits in two
    # channels, so no row stays open across units.  Untraced, as tracemalloc
    # slows this call from ~1.2 s to ~6.5 s.
    code = QrsCode(65521, 32761)
    split = [(Channel("a", 0.9575), 32760), (Channel("b", 0.9577), 32761)]
    est = montecarlo.estimate(uniform_configuration(code, 1, split), 1 << 12, seed=5)
    exact = engine.block_success(code, [(32760, 0.9575**16), (32761, 0.9577**16)])
    assert 0.4 < exact < 0.6
    assert est.agrees_with(exact, sigmas=4)
    assert round(est.mean * est.samples) == 2034


def test_importing_qnetagg_imports_no_thread_pool():
    # concurrent.futures costs ~3 ms to import, which every CLI run would pay
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, qnetagg.cli; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
