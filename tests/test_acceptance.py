"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` (or ``-s``) to see the
per-criterion lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import random_configuration
from oracles import check_distribution, enumerate_success
from qnetagg import circuits as qc
from qnetagg import closed_form, engine, montecarlo, planner
from qnetagg.model import Channel, QrsCode, shared7_configuration, uniform_configuration
from qnetagg.wiring import search_shared_photon_wiring, wiring_configuration

TARGET = 0.995
D43 = QrsCode(43, 22)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({description}): PASS")


def test_criterion_1_single_channel_sufficiency():
    with criterion(1, "single-channel sufficiency triples"):
        cases = [(3, 2, 0.98, 0.99541), (5, 3, 0.972, 0.99503), (7, 4, 0.96, 0.99545)]
        for d, k, p, anchor in cases:
            code = QrsCode(d, k)
            value = closed_form.ps_single(code, 1, p)
            config = uniform_configuration(code, 1, [(Channel("c", p), d)])
            oracle = (
                engine.brute_force(config)
                if len(config.photons) <= 20
                else enumerate_success(config)
            )
            assert value == pytest.approx(oracle, abs=1e-12)
            assert value == pytest.approx(anchor, abs=1e-3)
            assert TARGET <= value < TARGET + 1e-3  # margin under 0.001


def test_criterion_2_aggregated_five_qudit_split():
    with criterion(2, "(2,2,1) aggregation with the 5-qudit code"):
        config = uniform_configuration(
            QrsCode(5, 3),
            1,
            [(Channel("blue", 0.98), 2), (Channel("red", 0.972), 2), (Channel("black", 0.96), 1)],
        )
        value = engine.success_probability(config)
        assert value == pytest.approx(engine.brute_force(config), abs=1e-12)
        assert value == pytest.approx(0.9958, abs=5e-4)
        assert value >= TARGET


def test_criterion_3_two_channel_seven_qudit_split():
    with criterion(3, "7-qudit 3@0.97/4@0.95 split"):
        config = uniform_configuration(
            QrsCode(7, 4),
            1,
            [(Channel("purple", 0.97), 3), (Channel("green", 0.95), 4)],
        )
        value = engine.success_probability(config)
        assert value == pytest.approx(enumerate_success(config), abs=1e-12)
        assert value == pytest.approx(0.99503, abs=5e-4)
        assert value >= TARGET


def test_criterion_4_threshold_anchors():
    with criterion(4, "43-qudit threshold and iso-curve anchors"):
        p1 = planner.solve_p1(planner.single_channel_scenario(D43, 1), 0.5)
        assert p1 == pytest.approx(0.94, abs=0.005)
        p4 = planner.solve_p1(planner.single_channel_scenario(D43, 4), 0.5)
        assert p4 == pytest.approx(0.83, abs=0.005)
        # 20-qudit block in the lower-probability (solved) channel
        t1 = planner.two_channel_scenario(D43, 1, 20)
        assert planner.solve_p1(t1, 0.99) == pytest.approx(0.81, abs=0.01)
        t4 = planner.two_channel_scenario(D43, 4, 20)
        assert planner.solve_p1(t4, 0.99) == pytest.approx(0.39, abs=0.01)
        # companion point: the 20-qudit block rides the raised channel here,
        # so the 23-qudit block is the one being solved
        t23 = planner.two_channel_scenario(D43, 4, 23)
        assert planner.solve_p1(t23, 0.9) == pytest.approx(0.757, abs=0.02)


def test_criterion_5_oracle_triangle():
    with criterion(5, "engine = brute force = closed forms; MC at 4 sigma"):
        rng = random.Random(55)
        for _ in range(200):
            config = random_configuration(rng, max_photons=20)
            assert engine.success_probability(config) == pytest.approx(
                engine.brute_force(config), abs=1e-12
            )
        # closed-form equalities on their own layouts
        for d, k in [(3, 2), (5, 3), (7, 4), (11, 6), (43, 22)]:
            for q in (1, 2, 3, 8):
                p = rng.random()
                config = uniform_configuration(QrsCode(d, k), q, [(Channel("c", p), d)])
                assert engine.success_probability(config) == pytest.approx(
                    closed_form.ps_single(QrsCode(d, k), q, p), abs=1e-12
                )
        for _ in range(10):
            n = rng.randrange(0, 44)
            pa, pb = rng.random(), rng.random()
            config = uniform_configuration(
                D43, 1, [(Channel("a", pa), 43 - n), (Channel("b", pb), n)]
            )
            assert engine.success_probability(config) == pytest.approx(
                closed_form.ps_two_channel(D43, 1, n, pa, pb), abs=1e-12
            )
        for _ in range(20):
            p1, p2 = rng.random(), rng.random()
            assert engine.success_probability(shared7_configuration(p1, p2)) == pytest.approx(
                closed_form.ps6(p1, p2), abs=1e-12
            )
        # Monte Carlo agreement on ten fixed scenarios
        scenarios = [
            uniform_configuration(QrsCode(3, 2), 1, [(Channel("c", 0.98), 3)]),
            uniform_configuration(QrsCode(5, 3), 1, [(Channel("c", 0.972), 5)]),
            uniform_configuration(QrsCode(7, 4), 3, [(Channel("c", 0.9), 7)]),
            uniform_configuration(
                QrsCode(5, 3), 1,
                [(Channel("b", 0.98), 2), (Channel("r", 0.972), 2), (Channel("k", 0.96), 1)],
            ),
            uniform_configuration(
                QrsCode(7, 4), 1, [(Channel("p", 0.97), 3), (Channel("g", 0.95), 4)]
            ),
            shared7_configuration(0.9, 0.95),
            shared7_configuration(0.7, 0.99),
            uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.95), 5)], withheld=2),
            wiring_configuration(
                (("path", 1), ("path", 2), ("path", 2), ("path", 2)), 0.9, 0.97
            ),
            uniform_configuration(
                D43, 4, [(Channel("a", 0.99), 23), (Channel("b", 0.39), 20)]
            ),
        ]
        for i, config in enumerate(scenarios):
            exact = engine.success_probability(config)
            est = montecarlo.estimate(config, 1_000_000, seed=100 + i)
            assert est.agrees_with(exact, sigmas=4), (i, exact, est)


def test_criterion_6_shared_photon_reconstruction():
    with criterion(6, "6-photon layout reproduces its polynomial; curve crossing"):
        rng = random.Random(66)
        for _ in range(20):
            p1, p2 = rng.random(), rng.random()
            assert engine.success_probability(shared7_configuration(p1, p2)) == pytest.approx(
                closed_form.ps6(p1, p2), abs=1e-12
            )
        ref = planner.solve_p1(planner.single_channel_scenario(QrsCode(7, 4), 3), 1.0)
        curve = planner.sweep_curve(
            planner.shared_photon_7_scenario(), planner.grid_points(0.9, 1.0, 0.002)
        )
        below = [p2 for p2, p1 in curve.points if p1 < ref]
        assert below, "no advantage region found"
        first_drop = min(below)
        assert first_drop > 0.95 - 0.01  # advantage only past ~0.95


def test_criterion_7_fifteen_photon_curve_crossing():
    with criterion(7, "15-photon curve crosses the 22-photon reference"):
        ref = planner.solve_p1(planner.single_channel_scenario(QrsCode(11, 6), 2), 1.0)
        curve = planner.sweep_curve(
            planner.shared_photon_11_scenario(), planner.grid_points(0.85, 1.0, 0.002)
        )
        diffs = [p1 - ref for _, p1 in curve.points]
        assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)


def test_criterion_8_high_dimensional_sweeps():
    with criterion(8, "211-qudit sweeps: monotone, common diagonal, < 10 s"):
        code = QrsCode(211, 106)
        p_star = planner.solve_p1(planner.single_channel_scenario(code, 8), 0.5)
        for n in (50, 80, 100):
            scenario = planner.two_channel_scenario(code, 8, n)
            start = time.perf_counter()
            curve = planner.sweep_curve(
                scenario, planner.grid_points(*planner.DEFAULT_GRID)
            )
            elapsed = time.perf_counter() - start
            assert elapsed < 10.0, f"n={n} sweep took {elapsed:.1f}s"
            p1s = [p1 for _, p1 in curve.points]
            assert all(a >= b - 1e-9 for a, b in zip(p1s, p1s[1:]))
            assert planner.solve_p1(scenario, p_star) == pytest.approx(p_star, abs=0.002)


def test_criterion_9_circuit_suite():
    with criterion(9, "encoding circuits and gate identities at 1e-10"):
        report = qc.verification_report()
        assert report["passed"], report
        assert all(c["worst_error"] <= 1e-10 for c in report["checks"])


def test_criterion_10_property_suites():
    with criterion(10, "monotonicity, pmf normalization, withheld threshold"):
        rng = random.Random(1010)
        evaluators = [
            lambda a, b: closed_form.ps_single(QrsCode(7, 4), 1, a),
            lambda a, b: closed_form.ps_single_withheld(QrsCode(7, 4), 1, a, 2),
            lambda a, b: closed_form.ps_two_channel(D43, 1, 20, a, b),
            closed_form.ps6,
            closed_form.ps15,
        ]
        for f in evaluators:
            for _ in range(50):
                a, b = rng.random(), rng.random()
                up_a = rng.uniform(a, 1.0)
                up_b = rng.uniform(b, 1.0)
                assert f(up_a, b) >= f(a, b) - 1e-12
                assert f(a, up_b) >= f(a, b) - 1e-12
        for _ in range(20):
            a, b = rng.random(), rng.random()
            config = shared7_configuration(a, b)
            bumped = shared7_configuration(rng.uniform(a, 1.0), b)
            assert engine.success_probability(bumped) >= (
                engine.success_probability(config) - 1e-12
            )
        for _ in range(50):
            config = random_configuration(rng, max_photons=14)
            dist = engine.loss_distribution(config)
            check_distribution(dist, tol=1e-12)

        def threshold(f):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if f(mid) >= TARGET:
                    hi = mid
                else:
                    lo = mid
            return hi

        t_withheld = threshold(
            lambda p: closed_form.ps_single_withheld(QrsCode(7, 4), 1, p, 2)
        )
        t_plain = threshold(lambda p: closed_form.ps_single(QrsCode(5, 3), 1, p))
        assert t_withheld > t_plain


def test_note_wiring_search_reports():
    # not an acceptance criterion: the 15-photon wiring search must report
    # its outcome rather than assert a match
    result = search_shared_photon_wiring()
    print(
        f"[acceptance] note: wiring search tested {result.candidates_tested} classes, "
        f"matched={result.found}, closest={result.best} "
        f"(max deviation {result.best_deviation:.3e})"
    )
    assert result.candidates_tested == 40
