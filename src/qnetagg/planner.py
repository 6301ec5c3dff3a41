"""Threshold-curve solving and channel/qudit allocation search.

Iso-curves answer: given the better channel at ``p2``, how low may the other
channel's ``p1`` drop while the packet still succeeds with probability at
least the target (default 0.995)?  Every evaluator is monotone in ``p1``, so
plain bisection converges; the residual at every reported point is at most
1e-9.  A sweep bisects the points of its ``p2`` grid together (for large
codes, in chunks of grid points): the ``p2``-only part of ``P_S`` is built
once per chunk, then each step evaluates the ``p1`` part on numpy arrays,
until float resolution or 60 steps.  :func:`solve_p1` is the same bisection
on a one-point grid.

Scenarios bundle an evaluator ``P_S(p1, p2)`` with a descriptor.  The two
shared-photon scenarios of the paper's Fig. 4 sum the integer count table of
their polynomial, built once on first use (:func:`engine.layout_table` of the
``shared7`` layout, :data:`closed_form.PS15_TABLE` as written) and certified
monotone in integers before any bisection relies on it; neither calls a
closed form.  In the two-channel uniform scenario the ``n``-qudit block
travels in the adjustable channel (``p1``) and the remaining ``d - n`` qudits
in the reference channel (``p2``); the closed-form anchor points are only
consistent with that assignment, so it is fixed here rather than left to
callers; single-channel is its n = d case.  ``p1`` and ``p2`` are checked
where they enter (:meth:`Scenario.evaluate`, the sweep grid), not in a
bisection step.

:func:`allocate` builds the minimal split directly: success never falls when
a qudit moves to a channel of higher ``p``, so one pass over the channels,
each taking the smallest count whose best completion (the rest filled best
``p`` first) reaches the target, gives the first feasible split.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

import numpy as np

from . import closed_form, engine
from .model import (
    QrsCode, check_code, check_probability, clamp_roundoff, photons_per_qudit,
    shared7_configuration,
)

DEFAULT_TARGET = 0.995
DEFAULT_GRID = (0.3, 1.0, 0.002)
RESIDUAL_BOUND = 1e-9
_BISECTION_STEPS = 60
MAX_GRID_POINTS = 10**6
# A sweep bisects at most _CHUNK_ENTRIES // (qudits + 1) grid points at a
# time, so no (points, qudits + 1) block pmf exceeds 2^14 float64 entries
# (128 KiB): small codes bisect the default grid in one go, and the
# temporaries of large codes stay small.
_CHUNK_ENTRIES = 1 << 14


class Infeasible(ValueError):
    """No p1 in [0, 1] reaches the target at the given p2."""


class EmptyCurve(ValueError):
    """Every grid point of a sweep was infeasible."""


@dataclass(frozen=True)
class Scenario:
    """A named success evaluator ``P_S(p1, p2)``, curried in ``p2``.

    ``at(p2)`` does the work that depends on ``p2`` alone and returns the
    evaluator of ``p1``.  Both take floats or numpy arrays of one shape and
    the result has that shape; the planner passes arrays.
    """

    name: str
    at: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    photons: int
    qudits: int

    def evaluate(self, p1, p2):
        """``P_S(p1, p2)``; ``ValueError`` for a ``p1`` or ``p2`` outside [0, 1]."""
        check_probability("p1", p1)
        check_probability("p2", p2)
        return self.at(p2)(p1)

    def describe(self) -> dict:
        return {"scenario": self.name, "photons": self.photons, "qudits": self.qudits}


def single_channel_scenario(code: QrsCode, q: int) -> Scenario:
    """All qudits in the adjustable channel: the two-channel scenario at
    n = d, flat in p2.  Raises ``ValueError`` for an invalid code."""
    scenario = two_channel_scenario(code, q, code.d)
    return replace(scenario, name=f"single(d={code.d},k={code.k},q={q})")


def two_channel_scenario(code: QrsCode, q: int, n: int) -> Scenario:
    """n qudits in the adjustable channel, d - n in the reference channel.
    Raises ``ValueError`` for an invalid code or ``n`` outside 0..d."""
    check_code(code)
    if not (0 <= n <= code.d):
        raise ValueError(f"n={n} outside 0..{code.d}")
    m = photons_per_qudit(code, q)
    d = code.d

    def at(p2):
        success = engine.block_evaluator(code, [(d - n, p2**m)], n)
        return lambda p1: success(p1**m)

    return Scenario(
        name=f"uniform(d={d},k={code.k},q={q},n={n})",
        at=at,
        photons=d * m,
        qudits=d,
    )


def _check_monotone(table: np.ndarray) -> None:
    """``ArithmeticError`` unless ``T[a, b] / C(n1, a)`` never falls as ``a`` grows,
    nor ``T[a, b] / C(n2, b)`` as ``b`` grows, compared in integers by
    cross-multiplication.  An arrival never erases a qudit, so a layout's surviving
    patterns form an up-set and, by the normalized matching property of the Boolean
    lattice, its table passes; nondecreasing Bernstein coefficients then give a
    polynomial that never falls as ``p1`` or ``p2`` rises, the premise of
    :func:`_bisect`."""
    for t in (table, table.T):
        n = len(t) - 1
        row = np.array([comb(n, a) for a in range(n + 1)], object)[:, None]
        t = t.astype(object)
        if np.any(t[1:] * row[:-1] < t[:-1] * row[1:]):
            raise ArithmeticError("count table is not monotone: a success polynomial read wrongly")


def _table_scenario(name: str, table: np.ndarray, qudits: int) -> Scenario:
    """A two-channel scenario summed from its count ``table``, checked by
    :func:`_check_monotone` first."""
    _check_monotone(table)

    def at(p2):
        success = engine.table_evaluator(table, p2)
        return lambda p1: clamp_roundoff(success(p1))

    return Scenario(name=name, at=at, photons=sum(table.shape) - 2, qudits=qudits)


@lru_cache(maxsize=None)
def shared_photon_7_scenario() -> Scenario:
    """Six photons, seven qudits, one qudit spread over the better channel:
    the :func:`~qnetagg.engine.layout_table` of
    :func:`~qnetagg.model.shared7_configuration`."""
    return _table_scenario("shared7", engine.layout_table(shared7_configuration(0.5, 0.5)), 7)


@lru_cache(maxsize=None)
def shared_photon_11_scenario() -> Scenario:
    """Fifteen photons, eleven qudits, mixed multiplexing degrees: the table
    :data:`~qnetagg.closed_form.PS15_TABLE` of the paper's polynomial, which no
    wiring realises (:mod:`qnetagg.wiring`), so no layout can stand in."""
    return _table_scenario("shared11", engine.table_array(closed_form.PS15_TABLE), 11)


def _bisect(at: Callable, p2: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest p1 with P_S(p1, p2) >= target at every point of ``p2``, and feasibility.

    One bisection for all points, on the evaluator ``at`` builds for the
    points still being bisected.  Points where p1 = 1 falls short are
    infeasible; points where p1 = 0 already meets the target get 0.  ``lo``
    never meets the target and ``hi`` always does, so once every midpoint
    equals one of them no bracket can move.
    """
    evaluate = at(p2)
    feasible = evaluate(np.ones_like(p2)) >= target
    p1 = np.zeros_like(p2)
    todo = np.flatnonzero(feasible & (evaluate(p1) < target))
    if todo.size:
        p2 = p2[todo]
        evaluate = at(p2)
        lo, hi = np.zeros_like(p2), np.ones_like(p2)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if ((mid == lo) | (mid == hi)).all():
                break
            met = evaluate(mid) >= target
            hi = np.where(met, mid, hi)
            lo = np.where(met, lo, mid)
        off = np.abs(evaluate(hi) - target) > RESIDUAL_BOUND
        if off.any():
            raise ArithmeticError(
                f"bisection residual above {RESIDUAL_BOUND} at p2={p2[off][0]}"
            )
        p1[todo] = hi
    return p1, feasible


def _thresholds(
    scenario: Scenario, p2_grid: Sequence[float], target: float
) -> tuple[np.ndarray, np.ndarray]:
    """Validated inputs, then :func:`_bisect` over the grid chunk by chunk."""
    check_probability("target", target)
    p2 = np.array(p2_grid, dtype=float)
    check_probability("p2", p2)
    p1 = np.zeros_like(p2)
    feasible = np.zeros(p2.shape, dtype=bool)
    rows = max(1, _CHUNK_ENTRIES // (scenario.qudits + 1))
    for start in range(0, len(p2), rows):
        part = slice(start, start + rows)
        p1[part], feasible[part] = _bisect(scenario.at, p2[part], target)
    return p1, feasible


def solve_p1(scenario: Scenario, p2: float, target: float = DEFAULT_TARGET) -> float:
    """Smallest p1 with P_S(p1, p2) >= target, to residual 1e-9.

    Raises :class:`Infeasible` when even p1 = 1 falls short, and
    ``ValueError`` when ``p2`` or ``target`` lies outside [0, 1].
    """
    p1, feasible = _thresholds(scenario, [p2], target)
    if not feasible[0]:
        raise Infeasible(f"target {target} unreachable at p2={p2}")
    return float(p1[0])


@dataclass(frozen=True)
class ThresholdCurve:
    points: tuple[tuple[float, float], ...]  # (p2, p1), ordered by p2
    target: float
    scenario: dict
    infeasible: tuple[float, ...] = ()

    def to_csv(self, stream: io.TextIOBase) -> None:
        """CSV rows ``p2,p1`` with a descriptor comment header."""
        desc = ",".join(f"{k}={v}" for k, v in sorted(self.scenario.items()))
        stream.write(f"# {desc},target={self.target:.6g},residual<={RESIDUAL_BOUND:g}\n")
        stream.write("p2,p1\n")
        for p2, p1 in self.points:
            stream.write(f"{p2:.6f},{p1:.12f}\n")

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "target": self.target,
            "points": len(self.points),
            "infeasible_points": len(self.infeasible),
            "residual_bound": RESIDUAL_BOUND,
            "p2_range": [self.points[0][0], self.points[-1][0]] if self.points else None,
        }


def grid_points(lo: float, hi: float, step: float) -> list[float]:
    """``lo, lo + step, ...`` up to ``hi``, a point past it by roundoff taken as
    ``hi``; ``ValueError`` for a bound or step that is not finite, or not
    ascending, or over ``MAX_GRID_POINTS`` points."""
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError(f"grid {lo}:{hi}:{step} must be finite")
    if step <= 0 or hi < lo:
        raise ValueError("grid must be ascending with positive step")
    span = (hi - lo) / step  # inf when the division overflows
    if span >= MAX_GRID_POINTS - 0.5:  # round(span) + 1 points
        raise ValueError(f"grid {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points")
    n = int(round(span))
    pts = [lo + i * step for i in range(n + 1)]
    return [min(p, hi) for p in pts if p <= hi + 1e-12]


def sweep_curve(
    scenario: Scenario,
    p2_grid: Sequence[float],
    target: float = DEFAULT_TARGET,
) -> ThresholdCurve:
    """Solve p1 at every grid point; infeasible points are reported, not fatal.

    The points hold the caller's grid values.  Raises ``ValueError`` for an
    unsorted grid or a ``p2`` or ``target`` outside [0, 1].
    """
    grid = list(p2_grid)
    if grid != sorted(grid):
        raise ValueError("p2 grid must be sorted ascending")
    p1, feasible = _thresholds(scenario, grid, target)
    points = tuple(
        (p2, value) for p2, value, ok in zip(grid, p1.tolist(), feasible.tolist()) if ok
    )
    if not points:
        raise EmptyCurve(f"no feasible point for target {target}")
    infeasible = tuple(p2 for p2, ok in zip(grid, feasible.tolist()) if not ok)
    return ThresholdCurve(points, target, scenario.describe(), infeasible)


# --- allocation search ---------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    id: str
    p: float
    capacity: int


@dataclass(frozen=True)
class AllocationProblem:
    channels: tuple[ChannelSpec, ...]
    codes: tuple[QrsCode, ...]
    q: int = 1


@dataclass(frozen=True)
class AllocationResult:
    code: QrsCode
    split: tuple[int, ...]  # qudits per channel, aligned with problem.channels
    achieved: float
    total_qudits: int
    total_photons: int

    def summary(self, problem: AllocationProblem) -> dict:
        return {
            "code": {"d": self.code.d, "k": self.code.k},
            "split": {
                ch.id: count for ch, count in zip(problem.channels, self.split) if count
            },
            "achieved": self.achieved,
            "total_qudits": self.total_qudits,
            "total_photons": self.total_photons,
        }


def _allocation_success(problem: AllocationProblem, code: QrsCode, split) -> float:
    m = photons_per_qudit(code, problem.q)
    blocks = [(count, ch.p**m) for ch, count in zip(problem.channels, split)]
    return engine.block_success(code, blocks)


def _check_problem(problem: AllocationProblem, target: float) -> None:
    """Raise ``ValueError`` naming the first invalid entry of the problem, or an empty list."""
    check_probability("target", target)
    if not problem.channels or not problem.codes:
        raise ValueError(f"the problem lists no {'codes' if problem.channels else 'channels'}")
    for j, ch in enumerate(problem.channels):
        if ch.id in [other.id for other in problem.channels[:j]]:
            raise ValueError(f"channel {ch.id!r}: id appears more than once")
        check_probability(f"channel {ch.id!r}: p", ch.p)
        if ch.capacity < 0:
            raise ValueError(f"channel {ch.id!r}: capacity {ch.capacity} is negative")
    for j, code in enumerate(problem.codes):
        if code in problem.codes[:j]:
            raise ValueError(f"code d={code.d} k={code.k}: appears more than once")
        check_code(code)


def _best_completion(prefix: tuple[int, ...], caps, order, d: int) -> tuple[int, ...]:
    """``prefix``, then the rest of the ``d`` qudits filled into the later
    channels in ``order`` (best ``p`` first), each up to its capacity."""
    split = list(prefix) + [0] * (len(caps) - len(prefix))
    left = d - sum(prefix)
    for j in order:
        if j >= len(prefix):
            split[j] = min(caps[j], left)
            left -= split[j]
    return tuple(split)


def allocate(problem: AllocationProblem, target: float = DEFAULT_TARGET) -> AllocationResult:
    """Minimal feasible allocation: fewest qudits, then photons, then
    lexicographically smallest split.

    Success never falls when a qudit moves to a channel of higher ``p``, so
    a split prefix's best completion fills the remaining channels best ``p``
    first (ties by index), each to capacity.  Channel by channel, the split
    takes the smallest count whose best completion reaches the target; the
    previous step's completion is always a candidate, so nothing
    backtracks.  Raises :class:`Infeasible` when nothing reaches the target,
    and ``ValueError`` naming the entry when a channel probability, a
    capacity, a code or the target is invalid.
    """
    _check_problem(problem, target)
    caps = [ch.capacity for ch in problem.channels]
    order = sorted(range(len(caps)), key=lambda j: -problem.channels[j].p)
    ranked = sorted(
        problem.codes, key=lambda c: (c.d, c.d * photons_per_qudit(c, problem.q), c.k)
    )
    for code in ranked:
        if sum(caps) < code.d:
            continue
        split = _best_completion((), caps, order, code.d)
        achieved = _allocation_success(problem, code, split)
        if achieved < target:
            continue
        for i in range(len(caps)):
            fewest = code.d - sum(split[:i]) - sum(caps[i + 1 :])  # the rest must fit
            for count in range(max(fewest, 0), split[i]):
                candidate = _best_completion(split[:i] + (count,), caps, order, code.d)
                value = _allocation_success(problem, code, candidate)
                if value >= target:
                    split, achieved = candidate, value
                    break
        m = photons_per_qudit(code, problem.q)
        return AllocationResult(code, split, achieved, code.d, code.d * m)
    raise Infeasible(f"no allocation reaches target {target}")


def single_channel_solutions(
    problem: AllocationProblem, target: float = DEFAULT_TARGET
) -> list[tuple[QrsCode, str]]:
    """(code, channel) pairs where one channel alone fits and meets the target."""
    _check_problem(problem, target)
    out = []
    for code in sorted(problem.codes, key=lambda c: c.d):
        for ch in problem.channels:
            split = [code.d if other is ch else 0 for other in problem.channels]
            if code.d <= ch.capacity and _allocation_success(problem, code, split) >= target:
                out.append((code, ch.id))
    return out
