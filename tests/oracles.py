"""Independent reference implementations used only by the tests.

Deliberately structured differently from the package: plain pattern
enumeration with no clustering and generating-function convolution instead
of binomial formulas, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from qnetagg import engine
from qnetagg.model import MultiplexConfiguration, Photon, photons_per_qudit


def copied(config: MultiplexConfiguration) -> MultiplexConfiguration:
    """``config`` with every photon rebuilt as an object of its own, so no two
    slots hold one object: what a layout means must not depend on sharing."""
    photons = tuple(Photon(ph.channel_id, ph.carries) for ph in config.photons)
    return replace(config, photons=photons)


def runs(config: MultiplexConfiguration) -> tuple[int, ...]:
    """Each slot whose photon is not the very object in the slot before it, then the
    slot count, by a plain index loop: what ``MultiplexConfiguration.runs`` holds."""
    photons = config.photons
    starts = [i for i in range(len(photons)) if i == 0 or photons[i] is not photons[i - 1]]
    return (*starts, len(photons))


def check_distribution(dist: engine.LossDistribution, tol: float = 1e-12) -> None:
    """``ArithmeticError`` unless every pmf entry of ``dist`` is above -1e-15 and
    every pmf sums to 1 within ``tol``."""
    total = dist.pmf.sum(axis=-1)
    if np.any(dist.pmf < -1e-15):
        raise ArithmeticError("negative pmf entry beyond roundoff")
    if np.any(abs(total - 1) > tol):
        raise ArithmeticError(f"pmf sums to {total}, not 1")


def enumerate_success(config: MultiplexConfiguration) -> float:
    """Flat 2^N enumeration over all photons (numpy, no photon-count cap)."""
    probs = [float(p) for p in config.photon_probabilities()]
    n = len(probs)
    budget = config.code.tolerance() - config.withheld
    if budget < 0:
        return 0.0
    masks = [0] * config.transmitted
    for i, ph in enumerate(config.photons):
        for q in ph.qudits:
            masks[q] |= 1 << i
    patterns = np.arange(1 << n, dtype=np.uint64)
    weights = np.ones(1 << n)
    for i, p in enumerate(probs):
        bit = (patterns >> np.uint64(i)) & np.uint64(1)
        weights *= np.where(bit == 1, p, 1.0 - p)
    lost = np.zeros(1 << n, dtype=np.int64)
    for mask in masks:
        m = np.uint64(mask)
        lost += ((patterns & m) != m).astype(np.int64)
    return float(weights[lost <= budget].sum())


def pattern_counts(config: MultiplexConfiguration) -> np.ndarray:
    """Surviving photon-arrival patterns of a two-channel layout, tallied by
    arrivals: ``T[a, b]`` counts those with ``a`` arrivals on the first channel
    of ``config.channels`` and ``b`` on the second (flat 2^N enumeration)."""
    first, second = (ch.id for ch in config.channels)
    n = len(config.photons)
    budget = config.code.tolerance() - config.withheld
    patterns = np.arange(1 << n, dtype=np.int64)  # bit i set: photon i arrived
    masks = [0] * config.transmitted
    for i, ph in enumerate(config.photons):
        for q in ph.qudits:
            masks[q] |= 1 << i
    lost = sum(((patterns & mask) != mask).astype(np.int64) for mask in masks)
    arrivals = {first: np.zeros_like(patterns), second: np.zeros_like(patterns)}
    for i, ph in enumerate(config.photons):
        arrivals[ph.channel_id] += (patterns >> i) & 1
    on = [sum(ph.channel_id == c for ph in config.photons) for c in (first, second)]
    table = np.zeros((on[0] + 1, on[1] + 1), dtype=np.int64)
    survived = lost <= budget
    np.add.at(table, (arrivals[first][survived], arrivals[second][survived]), 1)
    return table


def polynomial_table(evaluate, photons: tuple[int, int]) -> np.ndarray:
    """Table ``T`` of ``evaluate(p1, p2)`` = sum T[a, b] p1^a (1-p1)^(n1-a) p2^b (1-p2)^(n2-b),
    ``photons = (n1, n2)``, from one exact Fraction call (Kronecker substitution).

    At p = x/(1+x), (1+x1)^n1 (1+x2)^n2 P_S = sum T[a, b] x1^a x2^b; with
    x1 = B = 2^(n1+n2+1) and x2 = B^(n1+1) each entry is one base-B digit.  A
    polynomial evaluation, unlike ``engine.layout_table``'s integer walk.
    int64 when every entry fits, else Python ints (object); ``ArithmeticError``
    if the scaled value is no integer, negative, or has more digits."""
    n1, n2 = photons
    bits, size = n1 + n2 + 1, (n1 + 1) * (n2 + 1)
    x1 = 1 << bits
    x2 = x1 ** (n1 + 1)
    value = Fraction(evaluate(Fraction(x1, 1 + x1), Fraction(x2, 1 + x2)))
    scaled = value * (1 + x1) ** n1 * (1 + x2) ** n2
    if scaled.denominator != 1 or scaled.numerator >> bits * size:  # -1 when negative
        raise ArithmeticError(f"P_S = {value} has no count table over {photons} photons")
    digits = [(scaled.numerator >> bits * i) & (x1 - 1) for i in range(size)]
    dtype = object if max(digits) >> 63 else np.int64
    return np.array(digits, dtype).reshape(n2 + 1, n1 + 1).T


def clusters(config: MultiplexConfiguration) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(photon indices, qudit indices)`` of each connected component of the
    photon-qudit incidence graph, by breadth-first search from each unreached
    qudit in index order, so components come by smallest qudit; both index
    tuples ascending."""
    holders: dict[int, list[int]] = {q: [] for q in range(config.transmitted)}
    for i, ph in enumerate(config.photons):
        for q in ph.qudits:
            holders[q].append(i)
    reached: set[int] = set()
    out = []
    for start in range(config.transmitted):
        if start in reached:
            continue
        reached.add(start)
        photons, qudits, queue = set(), {start}, deque([start])
        while queue:
            for i in holders[queue.popleft()]:
                if i not in photons:
                    photons.add(i)
                    fresh = [q for q in config.photons[i].qudits if q not in reached]
                    reached.update(fresh)
                    qudits.update(fresh)
                    queue.extend(fresh)
        out.append((tuple(sorted(photons)), tuple(sorted(qudits))))
    return out


def pgf_loss_pmf(loss_probs) -> np.ndarray:
    """Poisson-binomial pmf by iterative generating-function products."""
    pmf = np.array([1.0])
    for q in loss_probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - q)
        nxt[1:] += pmf * q
        pmf = nxt
    return pmf


def pgf_success(survivals, budget: int) -> float:
    """P(losses <= budget) for independent qudits with given survivals."""
    if budget < 0:
        return 0.0
    pmf = pgf_loss_pmf([1.0 - s for s in survivals])
    return float(pmf[: budget + 1].sum())


def _decimal(x) -> Decimal:
    """A float, taken exactly, or a Fraction, in the current ``decimal`` context."""
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / x.denominator
    return Decimal(x)


def _loss_terms(n: int, s: Decimal, upto: int) -> list[Decimal]:
    """P[Bin(n, 1 - s) = i] for i = 0..min(upto, n) in the current context: term
    i + 1 is term i times (n - i) / (i + 1) * (1 - s) / s, from s^n at i = 0."""
    if s == 0:
        return [Decimal(int(i == n)) for i in range(min(upto, n) + 1)]
    ratio = (1 - s) / s
    terms = [s**n]
    for i in range(min(upto, n)):
        terms.append(terms[-1] * (n - i) / (i + 1) * ratio)
    return terms


def binomial_tail(n: int, survival, budget: int) -> Decimal:
    """P[Bin(n, 1 - survival) <= budget], the chance that at most ``budget`` of ``n``
    qudits are lost when each survives with ``survival`` (a float, taken exactly, or
    a Fraction), to 50 significant digits.

    The loss terms come by their ratio from s^n (:func:`_loss_terms`), summed in
    ``decimal`` with an exponent range that holds s^n at any n: no logarithm and no
    binomial coefficient, unlike the engine's two forms."""
    with localcontext(Context(prec=50, Emin=MIN_EMIN, Emax=MAX_EMAX)):
        return sum(_loss_terms(n, _decimal(survival), budget), Decimal(0))


def two_block_tail(blocks, budget: int) -> Decimal:
    """P[L_1 + L_2 <= budget] to 50 significant digits, L_i the losses of the two
    independent ``blocks`` ``(qudits, survival)``: each loss term of the first block
    times the second block's tail up to the rest of the budget, every term by
    :func:`_loss_terms`'s ratios."""
    with localcontext(Context(prec=50, Emin=MIN_EMIN, Emax=MAX_EMAX)):
        (n1, s1), (n2, s2) = blocks
        tails = list(accumulate(_loss_terms(n2, _decimal(s2), budget)))
        first = _loss_terms(n1, _decimal(s1), budget)
        return sum(
            (x * tails[min(budget - i, len(tails) - 1)] for i, x in enumerate(first)), Decimal(0)
        )


def repeated_cluster_tail(cluster, count: int, singletons: int, survival, budget: int) -> Decimal:
    """P(at most ``budget`` qudits erased), to 30 digits or better, when ``count``
    copies of ``cluster`` and ``singletons`` qudits of one photon each are sent, every
    photon arriving with ``survival`` > 0.  ``cluster`` lists its photons, each as the
    positions of the cluster qudits it carries.

    The cluster's loss polynomial f comes from its 2^m photon patterns, and f^count
    by J. C. P. Miller's power-series recurrence, g_0 = f_0^N and
    m f_0 g_m = sum_{k=1..min(m, deg f)} ((N + 1) k - m) f_k g_(m-k): one pass over
    the coefficients, no convolution and no powering by squaring, unlike the
    engine's fold.  Each singleton then multiplies by s + (1 - s) x.  The recurrence
    subtracts, and can lose a hundred digits over tens of thousands of steps, so it
    runs at 80, 160 and 320 digits until two runs agree to 1e-30
    (``ArithmeticError`` if none do)."""
    previous = None
    for digits in (80, 160, 320):
        with localcontext(Context(prec=digits, Emin=MIN_EMIN, Emax=MAX_EMAX)):
            value = _miller_tail(cluster, count, singletons, _decimal(survival), budget)
        if previous is not None and abs(value - previous) <= Decimal("1e-30"):
            return value
        previous = value
    raise ArithmeticError("Miller's recurrence did not settle at 320 digits")


def _miller_tail(cluster, count: int, singletons: int, s: Decimal, budget: int) -> Decimal:
    """:func:`repeated_cluster_tail` at the current ``decimal`` precision."""
    width = 1 + max(q for photon in cluster for q in photon)
    f = [Decimal(0)] * (width + 1)
    for arrived in product((True, False), repeat=len(cluster)):
        weight = Decimal(1)
        erased = set()
        for ok, photon in zip(arrived, cluster):
            weight *= s if ok else 1 - s
            erased.update(() if ok else photon)
        f[len(erased)] += weight
    g = [f[0] ** count]
    for m in range(1, min(budget, width * count) + 1):
        terms = (((count + 1) * k - m) * f[k] * g[m - k] for k in range(1, min(m, width) + 1))
        g.append(sum(terms, Decimal(0)) / (m * f[0]))
    for _ in range(singletons):
        g = [s * x + (1 - s) * y for x, y in zip(g + [Decimal(0)], [Decimal(0)] + g)]
    return sum(g[: budget + 1], Decimal(0))


def chain_loss_pmf(own_survivals, link_arrivals, ring: bool = False) -> np.ndarray:
    """Loss pmf of qudits in a path or ring, by a two-state transfer matrix.

    Qudit ``i`` survives with probability ``own_survivals[i]`` on its own and
    is also erased when link ``i`` (to qudit ``i + 1``) or link ``i - 1`` is
    lost; link ``i`` arrives with probability ``link_arrivals[i]``.  A path
    has ``n - 1`` links, a ring ``n`` (the last joins qudit ``n - 1`` to 0).
    The state is whether the link on the left of the next qudit was lost.
    """
    n = len(own_survivals)
    total = np.zeros(n + 1)
    # a ring is the sum over the closing link's two states; a path has none
    closings = [(True, 1.0 - link_arrivals[-1]), (False, link_arrivals[-1])] if ring else [
        (False, 1.0)
    ]
    for closing_lost, closing_weight in closings:
        rows = {closing_lost: np.array([closing_weight]), not closing_lost: np.zeros(1)}
        for i, s in enumerate(own_survivals):
            if i < n - 1:
                rights = [(True, 1.0 - link_arrivals[i]), (False, link_arrivals[i])]
            else:
                rights = [(closing_lost, 1.0)]
            nxt = {True: np.zeros(i + 2), False: np.zeros(i + 2)}
            for left, row in rows.items():
                for right, w in rights:
                    if left or right:
                        nxt[right][1:] += w * row
                    else:
                        nxt[right][:-1] += w * s * row
                        nxt[right][1:] += w * (1.0 - s) * row
            rows = nxt
        total += rows[True] + rows[False]
    return total


def _capped_compositions(total: int, caps):
    """Splits of ``total`` over the channels, each within its cap, lexicographic."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(caps[0], total) + 1):
        for rest in _capped_compositions(total - first, caps[1:]):
            yield (first,) + rest


def exhaustive_allocation(problem, target: float):
    """``(code, split, achieved)`` of the first split, in code rank order and
    then lexicographic order, that reaches ``target``; ``None`` if none does.

    Every capped split of every code is evaluated with
    ``engine.block_success``, blocks in channel order.  Unlike the oracles
    above it shares the package's evaluator on purpose: exact equality with
    ``planner.allocate`` then tests the search alone.
    """
    caps = [ch.capacity for ch in problem.channels]
    for code in sorted(
        problem.codes, key=lambda c: (c.d, c.d * photons_per_qudit(c, problem.q), c.k)
    ):
        m = photons_per_qudit(code, problem.q)
        for split in _capped_compositions(code.d, caps):
            blocks = [(count, ch.p**m) for ch, count in zip(problem.channels, split)]
            value = engine.block_success(code, blocks)
            if value >= target:
                return code, split, value
    return None


def bernstein_lists(coefficients, p):
    """sum_j coefficients[..., j] p^j (1-p)^(n-j) over the last axis, j = 0..n, by
    ``engine._bernstein``'s former arithmetic, kept to check the current one bit for
    bit: powers built from 1 in lists, 1 - p formed anew for each power, and every
    term ``(c_j * p^j) * (1-p)^(n-j)`` added to an int 0, factors 1 included."""
    n = coefficients.shape[-1] - 1
    up, down = [1], [1]
    for _ in range(n):
        up, down = up + [up[-1] * p], down + [down[-1] * (1 - p)]
    return sum(coefficients[..., j] * up[j] * down[n - j] for j in range(n + 1))


def bisect_60(scenario, grid, target: float):
    """``(points, infeasible)`` of a sweep by a plain 60-step bisection.

    The whole grid is bisected at once through ``scenario.evaluate``: no
    chunks, no evaluator built once per chunk and no early stop, so exact
    equality with ``planner.sweep_curve`` tests those three alone.
    """
    p2 = np.array(grid, dtype=float)
    feasible = scenario.evaluate(np.ones_like(p2), p2) >= target
    zero = scenario.evaluate(np.zeros_like(p2), p2) >= target
    lo, hi = np.zeros_like(p2), np.ones_like(p2)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        met = scenario.evaluate(mid, p2) >= target
        hi = np.where(met, mid, hi)
        lo = np.where(met, lo, mid)
    p1 = np.where(zero, 0.0, hi)
    points = [(g, float(x)) for g, x, ok in zip(grid, p1, feasible) if ok]
    infeasible = [g for g, ok in zip(grid, feasible) if not ok]
    return points, infeasible
