"""Seeded inputs, op lists and output checks of the three workloads.

Each builder turns a seed into a fixed list of ops.  An op is one call into
a public function of ``qnetagg`` (``call``) or one ``qnetagg`` subcommand
(``argv``).  The seed changes probabilities, targets, splits and random
wirings, never the shape of the work: sizes, photon counts, sample counts
and the number of ops of each kind are fixed, so every seed costs the same.

``judge`` checks an op's output against :mod:`reference` or against a
property the method must have, raising :class:`Mismatch` when it is wrong.
It returns False when the op failed in a way the program reports itself
(``McEstimate.agrees_with`` saying no).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref
from qnetagg import circuits, closed_form, engine, montecarlo, planner, wiring
from qnetagg.model import (
    Channel,
    MultiplexConfiguration,
    Photon,
    QrsCode,
    config_to_dict,
    shared7_configuration,
    uniform_configuration,
)

WORKLOADS = ("plan", "layouts", "crosscheck")
GRID = planner.grid_points(*planner.DEFAULT_GRID)
RESIDUAL = 1e-9  # the planner's promise at every solved point
EXACT = 1e-12  # agreement between exact evaluations


class Mismatch(Exception):
    """An op's output disagrees with a reference or breaks a property of the method."""


@dataclass
class Op:
    name: str
    judge: Callable[[object], bool]
    call: Callable[[], object] | None = None
    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()  # files a subcommand writes, read back for the judge


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    files: tuple[str, ...]


@dataclass
class Workload:
    ops: list[Op]
    documents: dict[str, dict]  # path -> JSON document a subcommand reads


def build(name: str, seed: int, work: str) -> Workload:
    """The op list of workload ``name`` for ``seed``; files go under ``work``."""
    rng = random.Random(f"{name}:{seed}")
    load = {"plan": _plan, "layouts": _layouts, "crosscheck": _crosscheck}[name](rng, work)
    # The order is the same for every seed: an op's time depends on what ran
    # before it (numpy's large temporaries are cheaper once the allocator has
    # grown its heap), so a seeded order would add spread between seeds.
    random.Random(name).shuffle(load.ops)
    return load


# --- shared checks -------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _close(got, want, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what}: got {got!r}, reference {want!r}")


def _photons_per_qudit(d: int, q: int) -> int:
    qubits = max(1, (d - 1).bit_length())
    return -(-qubits // q)


def _reference_pmf(config: MultiplexConfiguration) -> list:
    """Loss pmf of a layout: Poisson-binomial without shared photons, else flat enumeration."""
    by_id = {ch.id: ch.p for ch in config.channels}
    arrivals = [by_id[ph.channel_id] for ph in config.photons]
    owners = [tuple(q for q, _ in ph.carries) for ph in config.photons]
    n = config.code.d - config.withheld
    exact = any(isinstance(p, Fraction) for p in arrivals)
    if all(len(o) == 1 for o in owners) and not exact:
        survival = [1.0] * n
        for p, (q,) in zip(arrivals, owners):
            survival[q] *= float(p)
        return ref.poisson_binomial_pmf(survival).tolist()
    return ref.flat_loss_pmf(arrivals, owners, n)


def _tail(pmf, config: MultiplexConfiguration):
    budget = config.code.tolerance() - config.withheld
    return sum(pmf[: budget + 1]) if budget >= 0 else 0.0


def _check_distribution(dist, want_pmf, config, what: str) -> None:
    pmf = dist.pmf
    _require(dist.offset == config.withheld, f"{what}: offset {dist.offset}")
    _require(len(pmf) == len(want_pmf), f"{what}: pmf has {len(pmf)} entries")
    _require(all(x >= 0 for x in pmf), f"{what}: negative pmf entry")
    _close(sum(pmf), 1, EXACT, f"{what}: pmf total")
    for i, (got, want) in enumerate(zip(pmf, want_pmf)):
        _close(got, want, EXACT, f"{what}: pmf[{i}]")


def _judge_exact(config, reference_pmf, what: str, exact_type: bool = False):
    """Judge for success_probability / loss_distribution against ``reference_pmf()``."""

    def judge(result) -> bool:
        want_pmf = reference_pmf()
        if isinstance(result, engine.LossDistribution):
            _check_distribution(result, want_pmf, config, what)
            if exact_type:
                _require(list(result.pmf) == list(want_pmf), f"{what}: exact pmf differs")
        else:
            want = _tail(want_pmf, config)
            if exact_type:
                _require(result == want, f"{what}: {result!r} != exact {want!r}")
            else:
                _close(result, want, EXACT, what)
        return True

    return judge


# --- plan: sweeps and allocation searches --------------------------------------


def _block_evaluator(code: QrsCode, q: int, n: int | None):
    """Reference P_S(p1, p2): ``n`` qudits at p1, the rest at p2 (all at p1 if n is None)."""
    m = _photons_per_qudit(code.d, q)
    budget = code.tolerance()

    def evaluate(p1: float, p2: float) -> float:
        if n is None:
            survivals = [p1**m] * code.d
        else:
            survivals = [p2**m] * (code.d - n) + [p1**m] * n
        return ref.poisson_binomial_tail(survivals, budget)

    return evaluate


_SHARED7_OWNERS = [(0, 6), (1, 6), (2, 6), (3,), (4,), (5,)]  # paper's 7-qudit layout


def _shared7_evaluator(p1: float, p2: float) -> float:
    pmf = ref.flat_loss_pmf([p2, p2, p2, p1, p1, p1], _SHARED7_OWNERS, 7)
    return sum(pmf[:4])


def _check_curve(points, infeasible, evaluate, target: float, what: str) -> None:
    """Residual at every solved point, infeasibility, and monotonicity in p2."""
    _require(len(points) + len(infeasible) == len(GRID), f"{what}: lost grid points")
    p2s = [p2 for p2, _ in points]
    _require(p2s == sorted(p2s), f"{what}: points not ordered by p2")
    for p2, p1 in points:
        value = evaluate(p1, p2)
        if p1 == 0.0:
            _require(value >= target - EXACT, f"{what}: p1=0 short of target at p2={p2}")
        else:
            _close(value, target, RESIDUAL, f"{what}: residual at p2={p2}")
    for p2 in infeasible:
        _require(evaluate(1.0, p2) <= target + EXACT, f"{what}: p2={p2} was feasible")
    p1s = [p1 for _, p1 in points]
    _require(
        all(b <= a + RESIDUAL for a, b in zip(p1s, p1s[1:])),
        f"{what}: threshold curve rises with p2",
    )


def _sweep_op(name: str, scenario_factory, evaluate, target: float) -> Op:
    def judge(curve) -> bool:
        _check_curve(curve.points, curve.infeasible, evaluate, target, name)
        return True

    scenario = scenario_factory()
    return Op(name, judge, call=lambda: planner.sweep_curve(scenario, GRID, target))


def _allocation_op(name: str, channels, codes, q: int, target: float) -> Op:
    problem = planner.AllocationProblem(
        tuple(planner.ChannelSpec(cid, p, cap) for cid, p, cap in channels), tuple(codes), q
    )

    def judge(result) -> bool:
        code = result.code
        _require(code in codes, f"{name}: unknown code {code}")
        _require(sum(result.split) == code.d, f"{name}: split covers {sum(result.split)}")
        _require(
            all(0 <= s <= cap for s, (_, _, cap) in zip(result.split, channels)),
            f"{name}: split exceeds a capacity",
        )
        m = _photons_per_qudit(code.d, q)
        survivals = [p**m for (_, p, _), s in zip(channels, result.split) for _ in range(s)]
        value = ref.poisson_binomial_tail(survivals, code.tolerance())
        _close(result.achieved, value, EXACT, f"{name}: achieved")
        _require(value >= target, f"{name}: achieved {value} below target {target}")
        _require(result.total_photons == code.d * m, f"{name}: photon total")
        return True

    return Op(name, judge, call=lambda: planner.allocate(problem, target))


def _cli_sweep_op(name: str, work: str, index: int, d: int, k: int, q: int, n: int, target: float):
    out_csv = f"{work}/curve{index}.csv"
    out_json = f"{work}/curve{index}.json"
    evaluate = _block_evaluator(QrsCode(d, k), q, n)
    argv = (
        "sweep", "--d", str(d), "--k", str(k), "--q", str(q), "--n", str(n),
        "--target", repr(target), "--out", out_csv, "--summary", out_json,
    )

    def judge(result: CliResult) -> bool:
        _require(result.returncode == 0, f"{name}: exit {result.returncode}")
        csv_text, summary_text = result.files
        lines = csv_text.splitlines()
        _require(lines[0].startswith("# ") and lines[1] == "p2,p1", f"{name}: CSV header")
        points = [(float(a), float(b)) for a, b in csv.reader(lines[2:])]
        summary = json.loads(summary_text)
        _require(summary["points"] == len(points), f"{name}: summary point count")
        _require(summary["target"] == target, f"{name}: summary target")
        # CSV p2 is printed to 6 digits, the grid's own values to full precision
        grid = {round(p2, 6): p2 for p2 in GRID}
        points = [(grid[p2], p1) for p2, p1 in points]
        feasible = {p2 for p2, _ in points}
        infeasible = [p2 for p2 in GRID if p2 not in feasible]
        _require(summary["infeasible_points"] == len(infeasible), f"{name}: infeasible count")
        _check_curve(points, infeasible, evaluate, target, name)
        return True

    return Op(name, judge, argv=argv, outputs=(out_csv, out_json))


def _plan(rng: random.Random, work: str) -> Workload:
    ops: list[Op] = []
    # 60 closed-form shared-photon sweeps: the median op sits among them.
    for i in range(30):
        base = 0.95 + 0.04 * i / 29
        t7 = base + rng.uniform(-2e-4, 2e-4)
        t11 = base + rng.uniform(-2e-4, 2e-4)
        ops.append(
            _sweep_op(
                f"sweep shared7 t={t7:.5f}",
                planner.shared_photon_7_scenario,
                _shared7_evaluator,
                t7,
            )
        )
        ops.append(
            _sweep_op(
                f"sweep shared11 t={t11:.5f}",
                planner.shared_photon_11_scenario,
                lambda p1, p2: closed_form.ps15(p1, p2),
                t11,
            )
        )
    # 31 two-channel sweeps on the default grid and 5 single-channel sweeps;
    # the fourteen d=211 n=50 sweeps and the single-channel ones hold the p90.
    d43, d211 = QrsCode(43, 22), QrsCode(211, 106)
    two_channel = [(d43, 1, n) for n in (10, 12, 14, 16, 18, 20) * 2]
    two_channel += [(d43, 4, n) for n in (12, 14, 16)]
    two_channel += [(d211, 8, 50)] * 14 + [(d211, 8, 80), (d211, 8, 100)]
    for code, q, n in two_channel:
        target = 0.995 + rng.uniform(-5e-4, 5e-4)
        ops.append(
            _sweep_op(
                f"sweep d={code.d} q={q} n={n} t={target:.5f}",
                lambda code=code, q=q, n=n: planner.two_channel_scenario(code, q, n),
                _block_evaluator(code, q, n),
                target,
            )
        )
    for d, k, q in ((7, 4, 3), (11, 6, 2), (23, 12, 1), (43, 22, 1), (211, 106, 8)):
        code = QrsCode(d, k)
        target = 0.995 + rng.uniform(-5e-4, 5e-4)
        ops.append(
            _sweep_op(
                f"sweep single d={d} q={q} t={target:.5f}",
                lambda code=code, q=q: planner.single_channel_scenario(code, q),
                _block_evaluator(code, q, None),
                target,
            )
        )
    # 4 allocation searches that reject every code below d=13 first
    codes = [QrsCode(d, (d + 1) // 2) for d in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]
    for i, (lo, hi) in enumerate(((0.91, 0.945), (0.93, 0.945), (0.91, 0.945), (0.93, 0.945))):
        channels = [
            (f"c{j}", lo + (hi - lo) * j / 5 + rng.uniform(-5e-4, 5e-4), 8) for j in range(6)
        ]
        ops.append(_allocation_op(f"allocate 6ch cap8 #{i}", channels, codes, 1, 0.99))
    # the write side: `qnetagg sweep` to a CSV and a JSON summary
    for i in range(13):
        target = 0.995 + rng.uniform(-5e-4, 5e-4)
        ops.append(_cli_sweep_op(f"cli sweep d=43 n=20 #{i}", work, i, 43, 22, 1, 20, target))
    return Workload(ops, {})


# --- layouts: exact evaluation of shared-photon layouts --------------------------


def _ring_configuration(m: int, p_ring, p_single) -> MultiplexConfiguration:
    """A cycle of ``m`` photons over qudits 0..m-1, one photon per remaining qudit."""
    d = m
    while any(d % f == 0 for f in range(2, int(d**0.5) + 1)):
        d += 1
    code = QrsCode(d, (d + 1) // 2)
    qubits = max(1, (d - 1).bit_length())
    half = qubits // 2
    photons = [Photon("ring", ((i, half), ((i + 1) % m, qubits - half))) for i in range(m)]
    photons += [Photon("single", ((q, qubits),)) for q in range(m, d)]
    channels = (Channel("ring", p_ring), Channel("single", p_single))
    return MultiplexConfiguration(code, channels, tuple(photons), 0)


def _ring_reference(config: MultiplexConfiguration, m: int) -> list:
    by_id = {ch.id: ch.p for ch in config.channels}
    ring = ref.ring_loss_pmf([by_id[ph.channel_id] for ph in config.photons[:m]])
    rest = ref.poisson_binomial_pmf([by_id[ph.channel_id] for ph in config.photons[m:]])
    return np.convolve(ring, rest).tolist()


def random_shared_layout(rng: random.Random, photons: int, d: int, k: int, withheld: int, p):
    """A valid layout of exactly ``photons`` photons, built by merging one-qubit photons.

    ``p`` maps channel ids ("a", "b") to arrival probabilities.
    """
    qubits = max(1, (d - 1).bit_length())
    carried = [{q: 1} for q in range(d - withheld) for _ in range(qubits)]
    while len(carried) > photons:
        i, j = rng.sample(range(len(carried)), 2)
        for q, c in carried[j].items():
            carried[i][q] = carried[i].get(q, 0) + c
        carried.pop(j)
    ids = sorted(p)
    built = tuple(Photon(rng.choice(ids), tuple(sorted(c.items()))) for c in carried)
    channels = tuple(Channel(cid, p[cid]) for cid in ids)
    return MultiplexConfiguration(QrsCode(d, k), channels, built, withheld)


def _count_wiring_classes(edges: int = 7, vertices: int = 11) -> int:
    """Multisets of paths (e edges, e+1 vertices) and cycles (e >= 2 edges, e vertices)."""
    kinds = [(e, e + 1) for e in range(1, edges + 1)] + [(e, e) for e in range(2, edges + 1)]

    def count(start: int, e_left: int, v_left: int) -> int:
        if e_left == 0:
            return 1
        return sum(
            count(i, e_left - e, v_left - v)
            for i in range(start, len(kinds))
            for e, v in [kinds[i]]
            if e <= e_left and v <= v_left
        )

    return count(0, edges, vertices)


def _wiring_owners(components) -> list:
    """Photon -> qudits of a wiring class: shared photons on the edges, then the halves."""
    edges, nxt = [], 0
    for kind, m in components:
        size = m + 1 if kind == "path" else m
        v = list(range(nxt, nxt + size))
        if kind == "path":
            edges += [(v[i], v[i + 1]) for i in range(m)]
        elif m == 2:
            edges += [(v[0], v[1])] * 2
        else:
            edges += [(v[i], v[(i + 1) % m]) for i in range(m)]
        nxt += size
    halves = [2] * 11
    for a, b in edges:
        halves[a] -= 1
        halves[b] -= 1
    return edges, [(q,) for q in range(11) for _ in range(halves[q])]


WIRING_SEED = 20260810  # search_shared_photon_wiring's default probe seed


def _wiring_op(name: str, seed: int) -> Op:
    def judge(result) -> bool:
        classes = _count_wiring_classes()
        _require(result.candidates_tested == classes, f"{name}: tested {result.candidates_tested}")
        _require((result.best_deviation <= 1e-10) == result.found, f"{name}: match flag")
        # deviation of the best class at the search's first probe pair, by flat enumeration
        probe = random.Random(seed)
        p1, p2 = probe.uniform(0.05, 0.999), probe.uniform(0.05, 0.999)
        shared, single = _wiring_owners(result.best)
        arrivals = [p2] * len(shared) + [p1] * len(single)
        value = sum(ref.flat_loss_pmf(arrivals, shared + single, 11)[:6])
        _require(
            abs(value - closed_form.ps15(p1, p2)) <= result.best_deviation + EXACT,
            f"{name}: best deviation understated",
        )
        return True

    return Op(name, judge, call=lambda: wiring.search_shared_photon_wiring(seed=seed))


def _layouts(rng: random.Random, work: str) -> Workload:
    ops: list[Op] = []
    documents: dict[str, dict] = {}

    def evaluation(name, config, reference_pmf, index, exact_type=False):
        fn = "loss_distribution" if index % 2 else "success_probability"
        label = f"{fn} {name}"
        judge = _judge_exact(config, reference_pmf, label, exact_type)
        # looked up on the module at call time, so a traced run sees the call
        return Op(label, judge, call=lambda: getattr(engine, fn)(config))

    # rings: one of each size 13..23 and sixteen more of 19 photons
    for i, m in enumerate(list(range(13, 24)) + [19] * 16):
        config = _ring_configuration(m, rng.uniform(0.9, 0.99), rng.uniform(0.95, 0.999))
        want = lambda c=config, m=m: _ring_reference(c, m)  # noqa: E731
        ops.append(evaluation(f"ring m={m}", config, want, i))
    # uniform d=211 layouts through the general engine: 211 singleton clusters
    code = QrsCode(211, 106)
    for i in range(41):
        n = rng.randint(60, 150)
        a, b = Channel("a", rng.uniform(0.90, 0.94)), Channel("b", rng.uniform(0.90, 0.94))
        config = uniform_configuration(code, 1, [(a, code.d - n), (b, n)])
        want = lambda c=config: _reference_pmf(c)  # noqa: E731
        ops.append(evaluation(f"uniform d=211 n={n}", config, want, i))
    # seeded small shared layouts in floats, and in Fractions next to their float twins
    for i in range(8):
        d, k = rng.choice([(5, 3), (7, 4), (7, 5), (11, 6), (11, 8)])
        p = {"a": rng.uniform(0.8, 0.99), "b": rng.uniform(0.8, 0.99)}
        config = random_shared_layout(rng, rng.randint(6, 12), d, k, rng.randint(0, 1), p)
        want = lambda c=config: _reference_pmf(c)  # noqa: E731
        ops.append(evaluation(f"shared d={d} photons={len(config.photons)}", config, want, i))
    for i in range(8):
        d, k = rng.choice([(5, 3), (7, 4), (11, 6)])
        p = {"a": Fraction(rng.randint(80, 99), 100), "b": Fraction(rng.randint(80, 99), 100)}
        exact = random_shared_layout(rng, rng.randint(5, 8), d, k, rng.randint(0, 1), p)
        channels = tuple(Channel(c.id, float(c.p)) for c in exact.channels)
        floats = MultiplexConfiguration(exact.code, channels, exact.photons, exact.withheld)
        label = f"d={d} photons={len(exact.photons)}"
        want = lambda c=exact: _reference_pmf(c)  # noqa: E731
        ops.append(evaluation(f"fraction {label}", exact, want, i, exact_type=True))
        as_floats = lambda w=want: [float(x) for x in w()]  # noqa: E731
        ops.append(evaluation(f"float twin {label}", floats, as_floats, i))
    # the wiring search at its own probe seed: the seed sets how early each
    # class is dropped, and with it the cost
    for i in range(8):
        ops.append(_wiring_op(f"wiring search #{i}", WIRING_SEED))
    # the read side: `qnetagg success` on uniform d=211 documents
    for i in range(11):
        n = rng.randint(60, 150)
        a, b = Channel("a", rng.uniform(0.90, 0.94)), Channel("b", rng.uniform(0.90, 0.94))
        config = uniform_configuration(code, 1, [(a, code.d - n), (b, n)])
        path = f"{work}/layout{i}.json"
        documents[path] = config_to_dict(config)
        ops.append(_cli_success_op(f"cli success d=211 n={n}", path, config))
    return Workload(ops, documents)


def _cli_success_op(name: str, path: str, config, samples: int = 0, seed: int = 0) -> Op:
    argv = ("success", path) + (("--mc", str(samples), "--seed", str(seed)) if samples else ())

    def judge(result: CliResult) -> bool:
        _require(result.returncode == 0, f"{name}: exit {result.returncode}")
        want = _tail(_reference_pmf(config), config)
        fields = dict(line.split(" ", 1) for line in result.stdout.splitlines())
        _close(float(fields["success_probability"]), want, EXACT, name)
        if samples:
            _require(int(fields["mc_samples"]) == samples, f"{name}: sample count")
            hits = round(float(fields["mc_estimate"]) * samples)
            lo, hi = ref.wilson_interval(hits, samples)
            _require(lo <= want <= hi, f"{name}: exact {want} outside 4-sigma Wilson [{lo}, {hi}]")
        return True

    return Op(name, judge, argv=argv)


# --- crosscheck: the oracles a user validates with -------------------------------


def _mc_scenarios():
    """Criterion-5 scenarios with samples per estimate (chunks of 2^16) for ~150 ms each."""
    d43 = QrsCode(43, 22)
    return [
        (uniform_configuration(QrsCode(3, 2), 1, [(Channel("c", 0.98), 3)]), 21),
        (uniform_configuration(QrsCode(5, 3), 1, [(Channel("c", 0.972), 5)]), 11),
        (uniform_configuration(QrsCode(7, 4), 3, [(Channel("c", 0.9), 7)]), 21),
        (
            uniform_configuration(
                QrsCode(5, 3), 1,
                [(Channel("b", 0.98), 2), (Channel("r", 0.972), 2), (Channel("k", 0.96), 1)],
            ),
            15,
        ),
        (
            uniform_configuration(
                QrsCode(7, 4), 1, [(Channel("p", 0.97), 3), (Channel("g", 0.95), 4)]
            ),
            9,
        ),
        (shared7_configuration(0.9, 0.95), 32),
        (shared7_configuration(0.7, 0.99), 28),
        (uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.95), 5)], withheld=2), 14),
        (
            wiring.wiring_configuration(
                (("path", 1), ("path", 2), ("path", 2), ("path", 2)), 0.9, 0.97
            ),
            14,
        ),
        (uniform_configuration(d43, 4, [(Channel("a", 0.99), 23), (Channel("b", 0.39), 20)]), 2),
    ]


# A 7-qudit packet at p=0.9999 whose estimate has no variance: agrees_with
# says no against the exact 1 - 2.8e-13.  Fixed, so it fails on every run.
ZERO_VARIANCE = (uniform_configuration(QrsCode(7, 4), 1, [(Channel("c", 0.9999), 7)]), 8)


def _mc_op(name: str, config, samples: int, seed: int) -> Op:
    def judge(est) -> bool:
        want = _tail(_reference_pmf(config), config)
        exact = engine.success_probability(config)
        _close(exact, want, EXACT, f"{name}: engine vs reference")
        _require(est.samples == samples, f"{name}: sample count")
        lo, hi = ref.wilson_interval(round(est.mean * samples), samples)
        _require(lo <= want <= hi, f"{name}: exact {want} outside 4-sigma Wilson [{lo}, {hi}]")
        return est.agrees_with(exact, sigmas=4)

    return Op(name, judge, call=lambda: montecarlo.estimate(config, samples, seed))


def _brute_force_ops(name: str, config) -> list[Op]:
    def judge_brute(value) -> bool:
        _close(value, engine.success_probability(config), EXACT, f"brute_force {name}")
        return True

    def judge_engine(value) -> bool:
        _require(0.0 <= value <= 1.0, f"success_probability {name}: {value} outside [0, 1]")
        return True

    return [
        Op(f"brute_force {name}", judge_brute, call=lambda: engine.brute_force(config)),
        Op(
            f"success_probability {name}",
            judge_engine,
            call=lambda: engine.success_probability(config),
        ),
    ]


def _judge_report(name: str):
    def judge(report) -> bool:
        _require(report["passed"], f"{name}: suite failed")
        for check in report["checks"]:
            _require(check["passed"], f"{name}: {check['name']} failed")
            error = check["worst_error"]
            _require(error <= 1e-10, f"{name}: {check['name']} error {error}")
        return True

    return judge


def _crosscheck(rng: random.Random, work: str) -> Workload:
    ops: list[Op] = []
    documents: dict[str, dict] = {}
    # 30 seeded 18-photon layouts: brute force against the engine
    for i in range(30):
        k = rng.choice((4, 5, 6))
        p = {"a": rng.uniform(0.8, 0.99), "b": rng.uniform(0.8, 0.99)}
        config = random_shared_layout(rng, 18, 7, k, 0, p)
        ops += _brute_force_ops(f"#{i} d=7 k={k}", config)
    for i in range(10):
        judge = _judge_report(f"verification_report #{i}")
        ops.append(
            Op(f"verification_report #{i}", judge, call=lambda: circuits.verification_report())
        )
    # Monte Carlo seeds are fixed: a seeded 4-sigma check misses about once in
    # 16000 estimates, which would change the failed count between runs.
    scenarios = _mc_scenarios()
    for i, (config, chunks) in enumerate(scenarios):
        for seed in (100 + i, 110 + i, 120 + i):
            ops.append(_mc_op(f"estimate scenario {i} seed {seed}", config, chunks << 16, seed))
    config, chunks = ZERO_VARIANCE
    ops.append(_mc_op("estimate p=0.9999 (zero variance)", config, chunks << 16, 7))
    # subcommands: three seeded --mc evaluations, eight verify-circuits (the
    # median subcommand is a verify-circuits run)
    for idx in rng.sample(range(len(scenarios)), 3):
        config = scenarios[idx][0]
        path = f"{work}/scenario{idx}.json"
        documents[path] = config_to_dict(config)
        name = f"cli success --mc scenario {idx}"
        ops.append(_cli_success_op(name, path, config, 1 << 17, 200 + idx))
    for i in range(8):
        out = f"{work}/report{i}.json"
        judge_report = _judge_report(f"cli verify-circuits #{i}")

        def judge(result: CliResult, judge_report=judge_report) -> bool:
            _require(result.returncode == 0, f"cli verify-circuits: exit {result.returncode}")
            same = json.loads(result.files[0]) == json.loads(result.stdout)
            _require(same, "report file differs")
            return judge_report(json.loads(result.stdout))

        argv = ("verify-circuits", "--out", out)
        ops.append(Op(f"cli verify-circuits #{i}", judge, argv=argv, outputs=(out,)))
    return Workload(ops, documents)
