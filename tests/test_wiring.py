import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from oracles import pattern_counts, polynomial_table
from qnetagg import closed_form, engine, planner, wiring
from qnetagg.closed_form import ps15
from qnetagg.model import validate
from qnetagg.wiring import (
    PROBE_PAIRS,
    SHARED_PHOTONS,
    SINGLE_PHOTONS,
    component_vertices,
    enumerate_wiring_classes,
    search_shared_photon_wiring,
    wiring_configuration,
)

CHERRY = (("path", 1), ("path", 2), ("path", 2), ("path", 2))


def brute_force_class_count() -> int:
    """Independent enumeration: integer partitions of 7 with parts labeled
    path or cycle, deduplicated as multisets, capped at 11 vertices."""
    partitions: list[tuple[int, ...]] = []

    def parts(remaining, max_part, acc):
        if remaining == 0:
            partitions.append(tuple(acc))
            return
        for nxt in range(min(max_part, remaining), 0, -1):
            parts(remaining - nxt, nxt, acc + [nxt])

    parts(7, 7, [])
    found: set = set()
    for partition in partitions:
        choices = [
            [("path", s)] if s < 2 else [("path", s), ("cycle", s)] for s in partition
        ]

        def assemble(idx, acc):
            if idx == len(partition):
                multiset = tuple(sorted(acc))
                if sum(component_vertices(c) for c in multiset) <= 11:
                    found.add(multiset)
                return
            for c in choices[idx]:
                assemble(idx + 1, acc + [c])

        assemble(0, [])
    return len(found)


def test_enumeration_matches_independent_count():
    classes = enumerate_wiring_classes()
    assert len(classes) == len(set(classes))
    assert len(classes) == brute_force_class_count()
    assert len(classes) == 40


def test_every_candidate_validates():
    for components in enumerate_wiring_classes():
        config = wiring_configuration(components, 0.9, 0.95)
        validate(config)
        assert sum(ph.degree for ph in config.photons) == 44
        degrees = sorted(ph.degree for ph in config.photons)
        assert degrees == [2] * 8 + [4] * 7


def test_wiring_configuration_rejects_a_probability_outside_0_1():
    with pytest.raises(ValueError, match="outside"):
        wiring_configuration(CHERRY, 1.5, 0.5)


def test_class_table_validates_its_layout_once(monkeypatch):
    calls = []
    validate = engine.validate
    monkeypatch.setattr(engine, "validate", lambda config: calls.append(1) or validate(config))
    wiring._class_table(CHERRY)
    assert len(calls) == 1


def three_matching_count(components) -> int:
    """3-subsets of channel-2 photons that erase six distinct qudits (the
    multigraph's 3-matchings): C(7, 3) less the class table's T[8, 4], the
    survivors of those losses with every channel-1 photon arriving."""
    return comb(SHARED_PHOTONS, 3) - int(wiring._class_table(components)[SINGLE_PHOTONS, 4])


def test_three_matching_counts():
    # the table entry checked against direct subset enumeration
    def direct(components):
        edges = []
        next_v = 0
        for kind, m in components:
            if kind == "path":
                vs = list(range(next_v, next_v + m + 1))
                edges += [(vs[i], vs[i + 1]) for i in range(m)]
            elif m == 2:
                vs = [next_v, next_v + 1]
                edges += [tuple(vs), tuple(vs)]
            else:
                vs = list(range(next_v, next_v + m))
                edges += [(vs[i], vs[(i + 1) % m]) for i in range(m)]
            next_v += len(vs)
        total = 0
        for trio in combinations(range(len(edges)), 3):
            vertices = set()
            for e in trio:
                vertices |= set(edges[e])
            if len(vertices) == 6:
                total += 1
        return total

    for components in enumerate_wiring_classes():
        assert three_matching_count(components) == direct(components)
    assert three_matching_count(CHERRY) == 20
    assert three_matching_count((("cycle", 7),)) == 7
    assert three_matching_count((("path", 7),)) == 10


def test_cherry_class_matches_only_the_pure_loss_terms():
    # with channel 2 lossless the cherry wiring reproduces the reference
    # polynomial's channel-1 tail exactly (single-qudit losses, coefficient
    # pattern up to C(8,5))
    rnd = random.Random(5)
    for _ in range(10):
        p1 = rnd.random()
        config = wiring_configuration(CHERRY, p1, 1.0)
        got = engine.success_probability(config)
        want = sum(
            comb(8, b) * p1 ** (8 - b) * (1 - p1) ** b for b in range(6)
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(ps15(p1, 1.0), abs=1e-12)


def test_search_reports_rather_than_asserts():
    result = search_shared_photon_wiring()
    assert result.candidates_tested == 40
    # the reference polynomial omits loss patterns every real wiring has
    # (e.g. non-fatal overlaps of one shared photon with four singles),
    # so no candidate matches; the closest is the three-cherries class.
    assert not result.found
    assert result.matched is None
    assert result.best == CHERRY
    assert result.best_deviation > 1e-10


def test_search_is_deterministic():
    a = search_shared_photon_wiring(seed=3)
    b = search_shared_photon_wiring(seed=3)
    assert a == b


def probe_pairs(seed: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [(rng.uniform(0.05, 0.999), rng.uniform(0.05, 0.999)) for _ in range(PROBE_PAIRS)]


def scalar_deviation(components, seed: int) -> float:
    """A class's score, one scalar walk per probe pair."""
    return max(
        abs(engine.success_probability(wiring_configuration(components, p1, p2)) - ps15(p1, p2))
        for p1, p2 in probe_pairs(seed)
    )


def test_one_walk_per_class_equals_scalar_walks():
    probe = probe_pairs(20260810)
    p1, p2 = np.array(probe).T
    for components in (CHERRY, (("cycle", 7),), (("path", 3), ("cycle", 4))):
        values = engine.success_probability(wiring_configuration(components, p1, p2))
        scalar = [
            engine.success_probability(wiring_configuration(components, *pair)) for pair in probe
        ]
        assert values.tolist() == scalar
        deviation = np.abs(values - ps15(p1, p2)).max()
        assert deviation == pytest.approx(scalar_deviation(components, 20260810), abs=1e-15)


@pytest.mark.parametrize(
    "seed,deviation",
    [
        (20260810, 0.06422494209786947),
        (1, 0.0764835954375705),
        (2, 0.07781059090927395),
        (3, 0.07186430192601911),
        (7, 0.07397865000143128),
    ],
)
def test_search_keeps_the_per_pair_results(seed, deviation):
    # best class and deviation found by walking one probe pair at a time
    result = search_shared_photon_wiring(seed)
    assert result.best == CHERRY and not result.found
    assert result.best_deviation == pytest.approx(deviation, abs=1e-15)
    # reported from the class's own table gap, within an ulp of the scalar walks
    assert result.best_deviation == class_gaps(seed)[CHERRY]
    assert result.best_deviation == pytest.approx(scalar_deviation(CHERRY, seed), abs=1e-15)


def class_gaps(seed: int) -> dict:
    """Each class's worst table difference over the probe pairs, by its own table sum."""
    p1, p2 = np.array(probe_pairs(seed)).T
    tables, ref = wiring._tables()
    return {c: abs(engine.table_evaluator(t - ref, p2)(p1)).max() for c, t in tables.items()}


@pytest.mark.parametrize("seed", [20260810, 1, 2, 3, 7])
def test_search_best_is_the_first_smallest_per_class_gap(seed):
    # each class scored by its own table sum, the first minimum in class order
    gaps = class_gaps(seed)
    first_best = min(gaps, key=gaps.__getitem__)
    assert search_shared_photon_wiring(seed).best == first_best


def test_search_walks_no_layout_and_no_closed_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search evaluated a layout or a closed form")

    for name in ("ps6", "ps15", "ps_single", "ps_single_withheld", "ps_two_channel"):
        monkeypatch.setattr(closed_form, name, forbidden)
    # a cold build walks each class once in integers and reads the reference table as written
    wiring._tables.cache_clear()
    classes, ref = wiring._tables()
    assert len(classes) == 40 and np.array_equal(ref, ps15_table())
    # once the tables are built, the verdict, ranking and deviation come from them alone
    monkeypatch.setattr(wiring, "wiring_configuration", forbidden)
    monkeypatch.setattr(engine, "success_probability", forbidden)
    for seed in (20260810, 1, 2, 3, 7):
        result = search_shared_photon_wiring(seed)
        assert result.best == CHERRY and result.matched is None


# --- count tables --------------------------------------------------------------


def ps15_table():
    return engine.table_array(closed_form.PS15_TABLE)


@pytest.mark.parametrize("components", [CHERRY, (("cycle", 7),), (("path", 3), ("cycle", 4))])
def test_class_table_equals_pattern_counts(components):
    config = wiring_configuration(components, 0.5, 0.5)
    assert np.array_equal(wiring._class_table(components), pattern_counts(config))


def test_class_tables_equal_the_fraction_walks_tables():
    # the integer read against the oracle read of the exact Fraction walk, all 40 classes
    tables, _ = wiring._tables()
    for components, table in tables.items():
        shared = sum(m for _, m in components)
        walk = polynomial_table(
            lambda p1, p2: engine.success_probability(wiring_configuration(components, p1, p2)),
            (2 * 11 - 2 * shared, shared),
        )
        assert table.dtype == walk.dtype == np.int64
        assert np.array_equal(table, walk)


def test_class_tables_and_ps15s_pass_the_monotonicity_certificate():
    tables, ref = wiring._tables()
    for table in [ref, *tables.values()]:
        planner._check_monotone(table)
    lowered = tables[CHERRY].copy()
    lowered[-1, -1] -= 1  # every photon arriving: the one pattern with nothing erased
    with pytest.raises(ArithmeticError, match="not monotone"):
        planner._check_monotone(lowered)


def test_ps15_table_facts():
    table = ps15_table()
    assert table.shape == (SINGLE_PHOTONS + 1, SHARED_PHOTONS + 1) and table.dtype == np.int64
    assert np.count_nonzero(table) == 15
    # the three corrected coefficients
    assert (table[8, 4], table[6, 5], table[7, 4]) == (15, 348, 72)
    # every entry, as the Fraction read of the hand-expanded polynomial gave it
    entries = {
        (3, 7): 56, (4, 7): 70, (5, 6): 392, (5, 7): 56, (6, 5): 348,
        (6, 6): 196, (6, 7): 28, (7, 4): 72, (7, 5): 168, (7, 6): 56,
        (7, 7): 8, (8, 4): 15, (8, 5): 21, (8, 6): 7, (8, 7): 1,
    }
    assert closed_form.PS15_TABLE == entries
    assert {ab: int(c) for ab, c in np.ndenumerate(table) if c} == entries
    # and the table sum reads back as its own table
    assert np.array_equal(polynomial_table(ps15, (SINGLE_PHOTONS, SHARED_PHOTONS)), table)


def test_no_class_table_equals_ps15s():
    reference = ps15_table()
    tables, ref = wiring._tables()
    assert np.array_equal(ref, reference)
    assert len(tables) == 40
    assert not any(np.array_equal(t, reference) for t in tables.values())


def test_search_verdict_is_exact_table_equality(monkeypatch):
    # a reference table some class does realise is found as that class
    target = (("path", 3), ("cycle", 4))
    realised = {ab: int(c) for ab, c in np.ndenumerate(wiring._class_table(target)) if c}
    monkeypatch.setattr(closed_form, "PS15_TABLE", realised)
    wiring._tables.cache_clear()
    try:
        result = search_shared_photon_wiring()
    finally:
        wiring._tables.cache_clear()
    assert result.found and result.matched == target == result.best
    assert result.best_deviation == 0.0
