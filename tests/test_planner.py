import io
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import bisect_60, enumerate_success, exhaustive_allocation, pgf_success
from qnetagg import closed_form, engine, planner
from qnetagg.model import (
    Channel,
    QrsCode,
    photons_per_qudit,
    shared7_configuration,
    uniform_configuration,
)
from qnetagg.planner import (
    AllocationProblem,
    ChannelSpec,
    EmptyCurve,
    Infeasible,
    Scenario,
    allocate,
    grid_points,
    single_channel_solutions,
    solve_p1,
    sweep_curve,
)

D43 = QrsCode(43, 22)


def test_solve_single_channel_thresholds():
    s1 = planner.single_channel_scenario(D43, 1)
    assert solve_p1(s1, 0.5) == pytest.approx(0.94, abs=0.005)
    s4 = planner.single_channel_scenario(D43, 4)
    assert solve_p1(s4, 0.5) == pytest.approx(0.83, abs=0.005)


def test_solve_trivial_target():
    s = planner.single_channel_scenario(QrsCode(7, 4), 3)
    assert solve_p1(s, 1.0, target=0.0) == 0.0


def test_solve_residual_bound():
    s = planner.two_channel_scenario(D43, 1, 20)
    p1 = solve_p1(s, 0.99)
    assert abs(s.evaluate(p1, 0.99) - 0.995) <= planner.RESIDUAL_BOUND


def test_solve_infeasible():
    s = planner.two_channel_scenario(D43, 1, 20)
    with pytest.raises(Infeasible):
        solve_p1(s, 0.3)


def test_two_channel_anchor_solutions():
    t1 = planner.two_channel_scenario(D43, 1, 20)
    assert solve_p1(t1, 0.99) == pytest.approx(0.81, abs=0.01)
    t4 = planner.two_channel_scenario(D43, 4, 20)
    assert solve_p1(t4, 0.99) == pytest.approx(0.39, abs=0.01)
    # companion point: here the 20-qudit block sits in the raised channel,
    # equivalently solve the 23-qudit block
    t23 = planner.two_channel_scenario(D43, 4, 23)
    assert solve_p1(t23, 0.9) == pytest.approx(0.757, abs=0.02)


def test_flat_reference_curve():
    s = planner.single_channel_scenario(QrsCode(7, 4), 3)
    curve = sweep_curve(s, grid_points(0.9, 1.0, 0.02))
    values = {p1 for _, p1 in curve.points}
    assert len(values) == 1
    assert values.pop() == pytest.approx(0.886, abs=0.005)


def test_shared7_curve_crossing():
    ref = solve_p1(planner.single_channel_scenario(QrsCode(7, 4), 3), 1.0)
    curve = sweep_curve(planner.shared_photon_7_scenario(), grid_points(0.9, 1.0, 0.002))
    below = [p2 for p2, p1 in curve.points if p1 < ref]
    assert below, "curve never drops below the single-channel reference"
    # benefit appears only once the better channel clears ~0.95
    assert min(below) > 0.95 - 0.01


def test_shared11_curve_crosses_reference():
    ref = solve_p1(planner.single_channel_scenario(QrsCode(11, 6), 2), 1.0)
    curve = sweep_curve(planner.shared_photon_11_scenario(), grid_points(0.85, 1.0, 0.002))
    signs = [p1 - ref for _, p1 in curve.points]
    assert any(s > 0 for s in signs) and any(s < 0 for s in signs)


def test_curve_monotone_and_target_monotone():
    s = planner.two_channel_scenario(D43, 4, 20)
    grid = grid_points(0.8, 1.0, 0.01)
    curve = sweep_curve(s, grid)
    p1s = [p1 for _, p1 in curve.points]
    assert all(a >= b - 1e-9 for a, b in zip(p1s, p1s[1:]))
    lower = sweep_curve(s, grid, target=0.99)
    for (p2, p1), (q2, q1) in zip(curve.points, lower.points):
        assert p2 == q2
        assert q1 <= p1 + 1e-9


def test_sweep_reports_infeasible_points():
    s = planner.two_channel_scenario(D43, 1, 20)
    curve = sweep_curve(s, grid_points(0.3, 1.0, 0.01))
    assert curve.infeasible
    assert max(curve.infeasible) < curve.points[0][0]


def test_sweep_empty_curve():
    s = planner.two_channel_scenario(D43, 1, 20)
    with pytest.raises(EmptyCurve):
        sweep_curve(s, grid_points(0.3, 0.5, 0.05))


def test_curve_csv_format():
    s = planner.single_channel_scenario(QrsCode(7, 4), 3)
    curve = sweep_curve(s, [0.9, 0.95])
    buf = io.StringIO()
    curve.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#") and "target=0.995" in lines[0]
    assert lines[1] == "p2,p1"
    assert len(lines) == 4


FIG2A = AllocationProblem(
    channels=(
        ChannelSpec("blue", 0.98, 3),
        ChannelSpec("red", 0.972, 5),
        ChannelSpec("black", 0.96, 7),
    ),
    codes=(QrsCode(3, 2), QrsCode(5, 3), QrsCode(7, 4)),
    q=1,
)


def test_single_channel_solutions_exact_set():
    solutions = single_channel_solutions(FIG2A)
    assert [(code.d, ch) for code, ch in solutions] == [
        (3, "blue"),
        (5, "red"),
        (7, "black"),
    ]


def test_aggregated_split_is_feasible():
    # 2 blue + 2 red + 1 black with the 5-qudit code clears the target
    value = engine.block_success(
        QrsCode(5, 3), [(2, 0.98**3), (2, 0.972**3), (1, 0.96**3)]
    )
    assert value >= 0.995
    assert value == pytest.approx(0.9958, abs=5e-4)


def test_allocate_minimal_choice():
    result = allocate(FIG2A)
    # with full capacities the 3-qudit code on the best channel wins outright
    assert result.code.d == 3
    assert result.split == (3, 0, 0)
    assert result.achieved >= 0.995


def test_allocate_partially_consumed_channels():
    # with blue and red mostly consumed the 5-qudit aggregation is minimal
    problem = AllocationProblem(
        channels=(
            ChannelSpec("blue", 0.98, 2),
            ChannelSpec("red", 0.972, 2),
            ChannelSpec("black", 0.96, 7),
        ),
        codes=FIG2A.codes,
        q=1,
    )
    result = allocate(problem)
    assert result.code.d == 5
    assert result.split == (2, 2, 1)
    assert result.total_qudits == 5
    assert result.total_photons == 15


def test_allocate_respects_capacity_and_recomputes(rng):
    problem = AllocationProblem(
        channels=(
            ChannelSpec("a", 0.97, 4),
            ChannelSpec("b", 0.95, 4),
        ),
        codes=(QrsCode(5, 3), QrsCode(7, 4)),
        q=1,
    )
    result = allocate(problem)
    assert all(c <= spec.capacity for c, spec in zip(result.split, problem.channels))
    # reported value must match a full engine evaluation of the same layout
    split = [
        (Channel(spec.id, spec.p), count)
        for spec, count in zip(problem.channels, result.split)
    ]
    config = uniform_configuration(result.code, 1, split)
    assert result.achieved == pytest.approx(
        engine.success_probability(config), abs=1e-12
    )


def test_allocate_infeasible_when_no_capacity():
    problem = AllocationProblem(
        channels=(ChannelSpec("a", 0.99, 0), ChannelSpec("b", 0.99, 0)),
        codes=(QrsCode(3, 2),),
        q=1,
    )
    with pytest.raises(Infeasible):
        allocate(problem)


def test_allocate_tie_break_lexicographic():
    # two equivalent channels: the lexicographically smallest split wins
    problem = AllocationProblem(
        channels=(ChannelSpec("a", 0.98, 3), ChannelSpec("b", 0.98, 3)),
        codes=(QrsCode(3, 2),),
        q=1,
    )
    result = allocate(problem)
    assert result.split == (0, 3)


def test_appendix_diagonal_crossings():
    code = QrsCode(211, 106)
    p_star = solve_p1(planner.single_channel_scenario(code, 8), 0.5)
    for n in (50, 80, 100):
        s = planner.two_channel_scenario(code, 8, n)
        assert solve_p1(s, p_star) == pytest.approx(p_star, abs=0.002)


# --- the batched bisection ----------------------------------------------------------


def _block_value(code, q, n, p1, p2):
    """P_S by the generating-function oracle: n qudits at p1, the rest at p2."""
    m = photons_per_qudit(code, q)
    return pgf_success([p2**m] * (code.d - n) + [p1**m] * n, code.tolerance())


@pytest.mark.parametrize("code,q,n", [(D43, 1, 20), (D43, 4, 12), (QrsCode(211, 106), 8, 50)])
def test_batched_sweep_points_meet_target(code, q, n):
    s = planner.two_channel_scenario(code, q, n)
    curve = sweep_curve(s, grid_points(*planner.DEFAULT_GRID))
    assert len(curve.points) + len(curve.infeasible) == 351
    for p2, p1 in curve.points:
        value = _block_value(code, q, n, p1, p2)
        if p1 == 0.0:
            assert value >= 0.995 - 1e-12
        else:
            assert abs(value - 0.995) <= 1e-9, (p2, p1, value)
    for p2 in curve.infeasible:
        assert _block_value(code, q, n, 1.0, p2) < 0.995


def test_batched_shared7_points_meet_target():
    curve = sweep_curve(planner.shared_photon_7_scenario(), grid_points(0.9, 1.0, 0.01))
    assert curve.points[-1] == (1.0, 0.0)
    for p2, p1 in curve.points[:-1]:
        value = enumerate_success(shared7_configuration(p1, p2))
        assert abs(value - 0.995) <= 1e-9, (p2, p1, value)


def test_infeasible_and_zero_points_follow_scalar_definition():
    s = planner.two_channel_scenario(D43, 4, 12)
    grid = grid_points(0.3, 1.0, 0.01)
    curve = sweep_curve(s, grid, target=0.99)
    zeros = [p2 for p2 in grid if s.evaluate(0.0, p2) >= 0.99]
    infeasible = [p2 for p2 in grid if s.evaluate(1.0, p2) < 0.99]
    assert zeros and infeasible
    assert list(curve.infeasible) == infeasible
    assert [p2 for p2, p1 in curve.points if p1 == 0.0] == zeros


def test_solve_p1_equals_sweep_point():
    for s in (
        planner.two_channel_scenario(D43, 1, 20),
        planner.two_channel_scenario(QrsCode(211, 106), 8, 50),
        planner.shared_photon_7_scenario(),
        planner.single_channel_scenario(QrsCode(11, 6), 2),
    ):
        # 141 points: the d=211 sweep bisects them in two chunks
        grid = grid_points(0.3, 1.0, 0.005)
        curve = sweep_curve(s, grid)
        solved = dict(curve.points)
        for p2 in grid:
            if p2 in solved:
                assert solve_p1(s, p2) == solved[p2]
            else:
                with pytest.raises(Infeasible):
                    solve_p1(s, p2)


def test_sweep_points_hold_callers_grid_and_floats():
    grid = grid_points(0.9, 1.0, 0.01)
    curve = sweep_curve(planner.shared_photon_11_scenario(), grid)
    assert [p2 for p2, _ in curve.points] == grid[len(grid) - len(curve.points) :]
    for (p2, p1), want in zip(curve.points, grid[len(grid) - len(curve.points) :]):
        assert p2 is want
        assert type(p1) is float


@pytest.mark.parametrize(
    "scenario",
    [
        planner.two_channel_scenario(D43, 1, 0),
        planner.two_channel_scenario(D43, 1, 20),
        planner.two_channel_scenario(D43, 1, 43),
        planner.two_channel_scenario(QrsCode(211, 106), 8, 50),
        planner.single_channel_scenario(D43, 1),
        planner.shared_photon_7_scenario(),
        planner.shared_photon_11_scenario(),
    ],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("target", [0.9, 0.995])
def test_sweep_equals_plain_bisection(scenario, target):
    grid = grid_points(*planner.DEFAULT_GRID)
    points, infeasible = bisect_60(scenario, grid, target)
    if not points:
        with pytest.raises(EmptyCurve):
            sweep_curve(scenario, grid, target)
        return
    curve = sweep_curve(scenario, grid, target)
    assert list(curve.points) == points
    assert list(curve.infeasible) == infeasible


def test_sweep_builds_fixed_block_once_per_chunk(monkeypatch):
    # d=211, q=8, n=50: the fixed block holds 161 qudits, p2 only
    code = QrsCode(211, 106)
    grid = grid_points(*planner.DEFAULT_GRID)
    chunks = -(-len(grid) // (planner._CHUNK_ENTRIES // (code.d + 1)))
    sizes = []
    pmf = engine.binomial_pmf

    def counted(n, loss_probability):
        sizes.append(n)
        return pmf(n, loss_probability)

    monkeypatch.setattr(engine, "binomial_pmf", counted)
    sweep_curve(planner.two_channel_scenario(code, 8, 50), grid)
    assert chunks > 1
    assert 0 < sizes.count(161) <= 2 * chunks


@pytest.mark.parametrize(
    "code,q", [(QrsCode(7, 4), 3), (D43, 1), (QrsCode(211, 106), 8)], ids=["d7", "d43", "d211"]
)
def test_single_channel_scenario_is_two_channel_at_n_equals_d(code, q):
    single = planner.single_channel_scenario(code, q)
    whole = planner.two_channel_scenario(code, q, code.d)
    grid = grid_points(*planner.DEFAULT_GRID)
    a, b = sweep_curve(single, grid), sweep_curve(whole, grid)
    assert a.points == b.points
    assert a.infeasible == b.infeasible
    assert single.describe() == {
        "scenario": f"single(d={code.d},k={code.k},q={q})",
        "photons": whole.photons,
        "qudits": code.d,
    }


every_scenario = pytest.mark.parametrize(
    "build",
    [
        lambda: planner.single_channel_scenario(D43, 1),
        lambda: planner.two_channel_scenario(D43, 1, 20),
        planner.shared_photon_7_scenario,
        planner.shared_photon_11_scenario,
    ],
    ids=["single", "two-channel", "shared7", "shared11"],
)


@every_scenario
def test_evaluate_rejects_p1_outside_unit_interval(build):
    with pytest.raises(ValueError, match=r"p1=1.5 outside \[0, 1\]"):
        build().evaluate(1.5, 0.9)


@every_scenario
@pytest.mark.parametrize("p2", [-0.5, 1.5])
def test_evaluate_rejects_p2_outside_unit_interval(build, p2):
    # the block scenarios see only p2**m, so unchecked, -0.5 would give a
    # value and 1.5 would be reported as survival=2.25
    with pytest.raises(ValueError, match=rf"p2={p2} outside \[0, 1\]"):
        build().evaluate(0.5, p2)


def test_residual_check_raises():
    # a step in p1: bisection converges on the jump, where the residual stays large
    step = Scenario("step", lambda p2: lambda p1: np.where(p1 >= 0.5, 1.0, 0.0), 1, 1)
    with pytest.raises(ArithmeticError):
        solve_p1(step, 0.9)
    with pytest.raises(ArithmeticError):
        sweep_curve(step, [0.8, 0.9])


@pytest.mark.parametrize(
    "lo,hi,step,named",
    [
        (0.0, float("inf"), 0.1, "finite"),
        (-float("inf"), 1.0, 0.1, "finite"),
        (0.0, 1.0, float("inf"), "finite"),
        (0.0, 1.0, float("nan"), "finite"),
        (0.0, 1.0, 1e-6, "more than 1000000 points"),
        (0.0, 1.0, 1e-12, "more than 1000000 points"),
        (-1e308, 1e308, 1.0, "more than 1000000 points"),
        (1.0, 0.0, 0.1, "ascending"),
        (0.0, 1.0, 0.0, "positive step"),
    ],
    ids=["inf-hi", "inf-lo", "inf-step", "nan-step", "1e6+1", "1e12+1", "overflow", "desc", "zero"],
)
def test_grid_points_rejects(lo, hi, step, named):
    with pytest.raises(ValueError, match=named):
        grid_points(lo, hi, step)


def test_grid_points_at_limit():
    assert len(grid_points(0.0, planner.MAX_GRID_POINTS - 1.0, 1.0)) == planner.MAX_GRID_POINTS


@pytest.mark.parametrize("lo,hi,step", [(0.09, 1.0, 0.07), (0.116, 1.0, 0.017)])
def test_grid_points_end_at_hi_exactly(lo, hi, step):
    # lo + i * step lands one ulp above hi at the last point; it is taken as hi
    points = grid_points(lo, hi, step)
    assert points[-1] == hi
    assert all(p <= hi for p in points)
    assert points == sorted(set(points))


def test_default_grid_is_unchanged_by_clamping():
    assert grid_points(*planner.DEFAULT_GRID) == [0.3 + i * 0.002 for i in range(351)]


@pytest.mark.parametrize("p2", [1.5, -0.1, float("nan")])
def test_p2_outside_unit_interval_rejected(p2):
    s = planner.two_channel_scenario(D43, 1, 20)
    with pytest.raises(ValueError, match=r"p2=.* outside \[0, 1\]"):
        solve_p1(s, p2)
    with pytest.raises(ValueError, match=r"p2=.* outside \[0, 1\]"):
        sweep_curve(s, [0.5, p2] if p2 > 0.5 else [p2, 0.5])


@pytest.mark.parametrize("target", [1.5, -0.1])
def test_target_outside_unit_interval_rejected(target):
    s = planner.two_channel_scenario(D43, 1, 20)
    with pytest.raises(ValueError, match=r"target=.* outside \[0, 1\]"):
        solve_p1(s, 0.99, target=target)
    with pytest.raises(ValueError, match=r"target=.* outside \[0, 1\]"):
        sweep_curve(s, [0.9, 0.99], target=target)
    with pytest.raises(ValueError, match=r"target=.* outside \[0, 1\]"):
        allocate(FIG2A, target=target)


@pytest.mark.parametrize(
    "code",
    [QrsCode(43, 50), QrsCode(42, 22), QrsCode(43, 10)],
    ids=["k-above-d", "d-not-prime", "no-logical-qudit"],
)
def test_scenarios_reject_invalid_codes(code):
    problem = AllocationProblem((ChannelSpec("a", 0.9, 50),), (code,), 1)
    with pytest.raises(ValueError) as expected:
        allocate(problem)
    assert str(expected.value).startswith(f"code d={code.d} k={code.k}: ")
    for build in (
        lambda: planner.single_channel_scenario(code, 1),
        lambda: planner.two_channel_scenario(code, 1, 20),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert not isinstance(info.value, Infeasible)
        assert str(info.value) == str(expected.value)


def test_large_code_sweep_is_finite_and_monotone():
    code = QrsCode(2003, 1002)
    s = planner.two_channel_scenario(code, 1, 600)
    curve = sweep_curve(s, grid_points(0.93, 1.0, 0.005))
    p1s = [p1 for _, p1 in curve.points]
    assert curve.points and all(np.isfinite(p1s))
    assert all(a >= b - 1e-9 for a, b in zip(p1s, p1s[1:]))
    p2, p1 = curve.points[0]
    assert abs(_block_value(code, 1, 600, p1, p2) - 0.995) <= 1e-9


# --- allocation input -----------------------------------------------------------------


@pytest.mark.parametrize(
    "channels,codes,names",
    [
        ((ChannelSpec("a", 1.7, 3),), (QrsCode(3, 2),), "channel 'a'"),
        ((ChannelSpec("a", 0.9, 3), ChannelSpec("b", 0.9, -1)), (QrsCode(3, 2),), "channel 'b'"),
        ((ChannelSpec("a", 0.9, 9),), (QrsCode(3, 2), QrsCode(4, 2)), "d=4 k=2"),
        (
            (ChannelSpec("a", 0.93, 5), ChannelSpec("a", 0.95, 5)),
            (QrsCode(7, 4),),
            "channel 'a': id appears more than once",
        ),
        ((), (QrsCode(3, 2),), "the problem lists no channels"),
        ((ChannelSpec("a", 0.9, 9),), (), "the problem lists no codes"),
        (
            (ChannelSpec("a", 0.95, 9),),
            (QrsCode(7, 4), QrsCode(3, 2), QrsCode(7, 4)),
            "code d=7 k=4: appears more than once",
        ),
    ],
    ids=[
        "probability", "capacity", "code", "repeated-id", "no-channels", "no-codes",
        "repeated-code",
    ],
)
def test_allocate_rejects_invalid_entries(channels, codes, names):
    problem = AllocationProblem(channels=channels, codes=codes, q=1)
    with pytest.raises(ValueError, match=names) as info:
        allocate(problem)
    assert not isinstance(info.value, Infeasible)
    with pytest.raises(ValueError, match=names):
        planner.single_channel_solutions(problem)


# --- allocation by greedy completion --------------------------------------------------

_VALID_CODES = [QrsCode(d, k) for d, k in ((3, 2), (5, 3), (5, 4), (7, 4), (7, 6), (11, 6))]


def _random_problem(rng: random.Random) -> tuple[AllocationProblem, float]:
    """1-5 channels drawing ``p`` from a short list (so equal ``p`` recur),
    capacities 0-6, 1-4 codes and q = 1-3."""
    levels = [0.9, 0.95, 0.97, 0.98, 0.99, 0.999]
    channels = tuple(
        ChannelSpec(f"c{j}", rng.choice(levels), rng.randint(0, 6))
        for j in range(rng.randint(1, 5))
    )
    codes = tuple(rng.sample(_VALID_CODES, rng.randint(1, 4)))
    target = rng.choice([0.9, 0.99, 0.995, 0.999])
    return AllocationProblem(channels, codes, rng.randint(1, 3)), target


def test_allocate_equals_exhaustive_search():
    rng = random.Random(7)
    outcomes = {"feasible": 0, "infeasible": 0}
    for _ in range(600):
        problem, target = _random_problem(rng)
        want = exhaustive_allocation(problem, target)
        if want is None:
            with pytest.raises(Infeasible):
                allocate(problem, target)
            outcomes["infeasible"] += 1
            continue
        result = allocate(problem, target)
        assert (result.code, result.split, result.achieved) == want, (problem, target)
        outcomes["feasible"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_allocate_evaluates_few_candidates(monkeypatch):
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    codes = tuple(QrsCode(d, (d + 1) // 2) for d in primes)
    channels = tuple(ChannelSpec(f"c{j}", 0.91 + 0.007 * j, 8) for j in range(6))
    problem = AllocationProblem(channels, codes, 1)
    calls = []
    evaluate = engine.block_success

    def counted(code, blocks):
        calls.append(code)
        return evaluate(code, blocks)

    monkeypatch.setattr(engine, "block_success", counted)
    result = allocate(problem, 0.99)
    assert len(calls) < 100
    monkeypatch.setattr(engine, "block_success", evaluate)
    assert (result.code, result.split, result.achieved) == exhaustive_allocation(problem, 0.99)


# --- shared-photon scenarios from count tables -----------------------------------

table_scenarios = pytest.mark.parametrize(
    "build,polynomial",
    [
        (planner.shared_photon_7_scenario, closed_form.ps6),
        (planner.shared_photon_11_scenario, closed_form.ps15),
    ],
    ids=["shared7", "shared11"],
)


@table_scenarios
def test_table_scenario_equals_its_polynomial(build, polynomial):
    scenario = build()
    rng = random.Random(44)
    for _ in range(20):
        p1, p2 = Fraction(rng.randrange(101), 100), Fraction(rng.randrange(101), 100)
        assert scenario.evaluate(p1, p2) == polynomial(p1, p2)
    p1, p2 = np.array([[rng.random() for _ in range(40)] for _ in range(2)])
    assert np.abs(scenario.evaluate(p1, p2) - polynomial(p1, p2)).max() <= 1e-15
    assert scenario.evaluate(1.0, 1.0) == 1.0


@table_scenarios
def test_table_scenario_reads_its_table_once(build, polynomial, monkeypatch):
    assert build() is build()
    calls = []
    for name in ("ps6", "ps15", "ps_single", "ps_single_withheld", "ps_two_channel"):
        monkeypatch.setattr(closed_form, name, lambda *args, name=name: calls.append(name))
    sweep_curve(build.__wrapped__(), grid_points(*planner.DEFAULT_GRID))
    # a cold build and sweep call no closed form: shared7 reads its layout's walk,
    # shared11 the table ps15 is written as
    assert calls == []


def test_table_scenarios_check_the_monotonicity_certificate():
    shared7 = engine.layout_table(shared7_configuration(0.9, 0.95))
    ps15 = engine.table_array(closed_form.PS15_TABLE)
    for table in (shared7, ps15):
        planner._check_monotone(table)
    scenario = planner._table_scenario("shared7", shared7, 7)
    assert scenario.photons == 6 and scenario.qudits == 7
    # every photon arriving is the one pattern with nothing erased: lowering it breaks both axes
    for table in (shared7, ps15):
        lowered = table.copy()
        lowered[-1, -1] -= 1
        with pytest.raises(ArithmeticError, match="not monotone"):
            planner._table_scenario("lowered", lowered, 7)
    # one photon: surviving its loss but not its arrival, on either channel
    for table in (np.array([[1], [0]]), np.array([[1, 0]])):
        with pytest.raises(ArithmeticError, match="not monotone"):
            planner._check_monotone(table)
