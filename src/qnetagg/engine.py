"""Exact success probability for arbitrary photon/qudit/channel layouts.

The photon-qudit incidence graph splits into connected components
("clusters").  Loss counts in different clusters are independent, so the
packet-level loss distribution is the convolution of per-cluster
distributions; withheld qudits add a deterministic offset.

One pass over the runs of one photon object in consecutive slots (found once per
configuration, ``MultiplexConfiguration.runs``) groups the photons into clusters
and builds each cluster's signature: per photon, its channel and its qudits by
position in the cluster, run-length coded with equal neighbouring entries merged,
so equal signatures code alike whichever equal photons are one object.  Each
cluster is evaluated exactly by one walk over its signature (frontier-based
reliability, a form of bucket elimination), and one :func:`loss_distribution`
call groups the clusters by that code: clusters of one shape on the same
channels, such as the singleton qudits of a uniform layout, are one group.  Only
the group's first cluster is built as a :class:`Cluster` and walked, once, and
its pmf is raised to the group's count by binary powering, or is a binomial
block (below).  Photons are taken greedily, next the one sharing the most qudits
with those already touched.  A qudit is open from its first photon to its last;
a state is the set of open qudits already erased and carries the pmf of the
erased count among closed qudits.  The cost follows the number of states, not 2^photons:
paths and rings stay at a handful at any length, and
:class:`ClusterTooLarge` is raised when a step would hold more than
2^CLUSTER_STATE_BITS states (no cluster of at most 16 photons can).  The
walk reads only a weight per photon outcome on each channel (arrived, lost,
or either when its qudits are already erased), so the same arithmetic serves
floats, Fractions (exact results, powers included), numpy arrays of one shape
(one pmf per entry, each equal to its scalar evaluation bit for bit) and
Python ints.

Layouts where every photon holds one qudit have a fast path,
:func:`block_success`: qudits fail independently in blocks of equal
survival, and each block's loss count is binomial.  So is a group of more
than :data:`LOG_SPACE_BINOMIAL_MAX` one-qudit clusters in floats.  Powering's long
float convolutions drift in mass, 3.8e-17 a qudit in two-qudit clusters at p = 0.99,
so a float group of more multi-qudit clusters is divided by its sum once powered:
P_S within 2.3e-15 of a power-series oracle at d = 32771 and 65521.
:func:`binomial_pmf` forms every float binomial block from one cached
:func:`_binomial_row` per n (the last 32 kept): up to that size the row holds log
C(n, i) and the pmf is computed in log space, so it stays finite at any d; its three
logs grow with n and cancel, so above it the row holds Loader's stirlerr part and the
pmf takes Loader's saddle-point form, within 1e-14 of a 50-digit sum up to d = 65521.
Survivals may be numpy arrays, which lets the planner evaluate a whole grid
of channel qualities in one call; :func:`block_evaluator` builds all blocks
but one once, for a caller that varies one block.

A two-channel polynomial is also an integer table of surviving loss patterns.
:func:`layout_table` reads a layout's from the same walk and fold in integer
weights, a photon weighing x_c arriving and 1 lost, with x_1 and x_2 powers of
two far enough apart that the sum over the erased counts within budget holds
every entry as its own base-2^(n1+n2+1) digit (Kronecker substitution); no
Fraction is made.  :func:`table_array` lays out a table written as
``{(a, b): count}``, as the paper's polynomials are in :mod:`closed_form`, and
:func:`table_evaluator` sums a table.

Inputs follow the rules in :mod:`model` and are checked where they enter:
:func:`block_success` checks the code, counts and survivals, :func:`block_evaluator`
all but the varying survival.  Every probability passes
:func:`~qnetagg.model.clamp_roundoff`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat
from math import comb, log, pi, sqrt
from typing import NamedTuple

import numpy as np

from .model import (
    MultiplexConfiguration, QrsCode, check_code, check_counts, check_probability,
    check_scalar_channels, clamp_roundoff, validate,
)

CLUSTER_STATE_BITS = 16
BRUTE_FORCE_PHOTON_LIMIT = 20
LOG_SPACE_BINOMIAL_MAX = 1000  # binomial_pmf's log-space form up to this n, Loader's above


class ClusterTooLarge(ValueError):
    """A cluster's photon walk would hold more than 2^CLUSTER_STATE_BITS
    states: too many of its qudits are open at once."""


class TooManyPhotons(ValueError):
    """Brute-force oracle rejects configurations above its pattern budget."""


class Cluster(NamedTuple):
    """A connected component of the photon-qudit incidence graph.

    ``signature`` is all the walk reads: per photon of ``photon_indices``, its
    channel id and its qudits by position in ``qudit_indices``.  Clusters of one
    signature take the same walk step for step, wherever their qudits sit."""

    photon_indices: tuple[int, ...]
    qudit_indices: tuple[int, ...]
    signature: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class LossDistribution:
    """Distribution of the total number of erased qudits.

    ``pmf[..., i]`` is the probability that exactly ``offset + i`` qudits
    are erased; ``offset`` equals the withheld count, so the last axis has
    ``d - withheld + 1`` entries.  Array channel probabilities give the
    leading axes, one pmf per entry.
    """

    pmf: np.ndarray
    offset: int = 0

    def __eq__(self, other) -> bool:
        """Same offset and pmf entries; ``==`` on two arrays has no truth value."""
        return isinstance(other, LossDistribution) and (
            self.offset == other.offset and np.array_equal(self.pmf, other.pmf)
        )

    def probability_at_most(self, losses: int):
        """P(total erased qudits <= losses), withheld included, summed left to right;
        below ``offset``, zeros of the pmf's leading shape and dtype (an exact 0
        for Fractions)."""
        upto = losses - self.offset
        if upto < 0:
            return np.zeros_like(self.pmf[..., 0])[()]
        return np.cumsum(self.pmf[..., : upto + 1], axis=-1)[..., -1][()]


def _components(config: MultiplexConfiguration) -> list[tuple[list, list, list]]:
    """Connected components by smallest member qudit, as ``(runs, qudits, code)``, from
    one pass over the runs of one photon object (``config.runs``).

    ``runs`` holds the component's runs as flat ``first, end`` slot pairs and
    ``code`` its signature run-length coded, as flat ``entry, repeats`` pairs with
    equal neighbouring entries merged, so equal signatures code alike whichever
    equal photons are one object.  Validates ``config`` first
    (:class:`~qnetagg.model.InvalidConfiguration`).  Each run's ``carries`` is read
    once, and only photons of two or more qudits join components."""
    validate(config)
    photons, bounds = config.photons, config.runs
    carries = [photons[i].carries for i in bounds[:-1]]
    parent = list(range(config.transmitted))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for held in carries:  # ``carries``, not the tuple ``qudits`` builds per access
        if len(held) > 1:
            (first, _), *rest = held
            for other, _ in rest:
                union(first, other)

    components: dict[int, tuple[list, list, list]] = {}  # root: runs, qudits, code
    home, position = [], []  # per qudit: its component, its position in it
    for qudit in range(config.transmitted):
        members = components.setdefault(find(qudit), ([], [], []))
        home.append(members)
        position.append((len(members[1]),))
        members[1].append(qudit)
    for first, end, held in zip(bounds, bounds[1:], carries):
        qudit, channel = held[0][0], photons[first].channel_id
        runs, _, code = home[qudit]
        runs += first, end
        if len(held) == 1:  # a single-qudit photon reuses its qudit's ``(position,)``
            entry = (channel, position[qudit])
        else:
            entry = (channel, tuple([position[q][0] for q, _ in held]))
        if code and code[-2] == entry:
            code[-1] += end - first
        else:
            code += entry, end - first
    # a root is its component's smallest qudit, met first in qudit order, so the roots ascend
    return list(components.values())


def _cluster(runs: list, qudits: list, code: list) -> Cluster:
    """The :class:`Cluster` of a :func:`_components` entry, every run and repeat expanded."""
    photons = chain.from_iterable(map(range, runs[::2], runs[1::2]))
    signature = chain.from_iterable(map(repeat, code[::2], code[1::2]))
    return Cluster(tuple(photons), tuple(qudits), tuple(signature))


def cluster_decompose(config: MultiplexConfiguration) -> list[Cluster]:
    """Connected components and their signatures, by smallest member qudit; validates
    ``config`` first (:class:`~qnetagg.model.InvalidConfiguration`)."""
    return [_cluster(*component) for component in _components(config)]


def _photon_order(qudits: list[tuple[int, ...]]) -> list[int]:
    """Greedy walk order over the photons' qudits, by photon position: next the
    photon sharing the most qudits with those already touched, ties in config order."""
    holders: dict[int, list[int]] = {}
    for i, qs in enumerate(qudits):
        for q in qs:
            holders.setdefault(q, []).append(i)
    shared = dict.fromkeys(range(len(qudits)), 0)  # touched qudits per remaining photon
    order = []
    while shared:
        best = max(shared, key=shared.__getitem__)
        del shared[best]
        order.append(best)
        for q in qudits[best]:
            for j in holders.pop(q, ()):
                if j in shared:
                    shared[j] += 1
    return order


def _zeros(probabilities, length: int) -> np.ndarray:
    """Zeros of a pmf over ``probabilities``: float64, or object for Fractions."""
    lead = np.asarray(sum(probabilities))
    return np.zeros(lead.shape + (length,), object if lead.dtype == object else float)


def _walk(signature: tuple, weights: dict) -> list:
    """The frontier walk over a cluster ``signature``: entry j of the list sums, over
    the photon outcomes that erase j of its qudits, the product of their weights.

    ``weights`` maps a channel id to ``(arrive, lose, either)``: a photon's weight
    when it arrives, when it is lost, and when every qudit it carries is already
    erased, so its outcome changes nothing.  The photons are walked in
    :func:`_photon_order`; a state is the bitmask, over positions in the cluster,
    of the open qudits (touched, last photon not yet walked) that are already
    erased, and maps to the list of the erased count among closed qudits."""
    qudits = [positions for _, positions in signature]
    order = _photon_order(qudits)
    last = {q: step for step, i in enumerate(order) for q in qudits[i]}
    states = {0: [1]}
    for step, i in enumerate(order):
        arrive, lose, either = weights[signature[i][0]]
        hit = sum(1 << q for q in qudits[i])
        closing = sum(1 << q for q in qudits[i] if last[q] == step)
        walked: dict[int, list] = {}
        for mask, pmf in states.items():
            if mask & hit == hit:
                branches = ((mask, either),)
            else:
                branches = ((mask, arrive), (mask | hit, lose))
            for erased, weight in branches:
                shift = (erased & closing).bit_count()
                erased &= ~closing
                acc = walked.get(erased)
                if acc is None:
                    if len(walked) == 1 << CLUSTER_STATE_BITS:
                        raise ClusterTooLarge(
                            f"cluster of {len(order)} photons needs more than "
                            f"2^{CLUSTER_STATE_BITS} states at photon {step}"
                        )
                    walked[erased] = [0] * shift + [weight * x for x in pmf]
                    continue
                if len(acc) < shift + len(pmf):
                    acc.extend([0] * (shift + len(pmf) - len(acc)))
                for j, x in enumerate(pmf, shift):
                    acc[j] += weight * x
        states = walked
    (pmf,) = states.values()
    return pmf


def cluster_loss_pmf(cluster: Cluster, config: MultiplexConfiguration) -> np.ndarray:
    """Loss pmf over this cluster's qudits (last axis ``len(qudits) + 1``).

    The :func:`_walk` over the cluster's signature, a photon of channel ``p``
    weighing ``p`` arriving, ``1 - p`` lost and exactly 1 when its outcome
    changes nothing.  A qudit is erased when any of its photons is lost.
    """
    weights = {ch.id: (ch.p, 1 - ch.p, 1) for ch in config.channels}
    out = _zeros([ch.p for ch in config.channels], len(cluster.qudit_indices) + 1)
    # arrays may sit next to int zeros the walk never added to
    for j, x in enumerate(_walk(cluster.signature, weights)):
        out[..., j] = x
    return out


def _fold(config: MultiplexConfiguration, walk) -> np.ndarray:
    """The pmf of erased transmitted qudits.  The components are grouped by signature
    code (:func:`_components`) in order of first appearance; ``walk`` of each group's
    first :class:`Cluster` is raised to the group's count (:func:`_power`), and the
    groups' pmfs are convolved in that order.  :func:`_components` validates."""
    groups: dict[tuple, list] = {}  # signature code: [first component, count]
    for component in _components(config):
        groups.setdefault(tuple(component[2]), [component, 0])[1] += 1
    pmfs = [_power(walk(_cluster(*first)), count) for first, count in groups.values()]
    return reduce(_convolve_rows, pmfs)


def _power(pmf: np.ndarray, count: int) -> np.ndarray:
    """``pmf`` convolved with itself to ``count`` factors, by binary powering with
    :func:`_convolve_rows`, so Fractions and integers stay exact.  The long float
    convolutions of powering drift in mass (module docstring), so more than
    :data:`LOG_SPACE_BINOMIAL_MAX` factors in floats are rescaled: one qudit's are
    exactly a binomial, ``binomial_pmf(count, pmf[..., 1])``, within 1e-14, and a
    larger cluster's power is divided by its sum.  Fewer factors are left as
    powered, within 1e-14 of one walk per cluster."""
    rescale = count > LOG_SPACE_BINOMIAL_MAX and pmf.dtype != object
    if rescale and pmf.shape[-1] == 2:
        return binomial_pmf(count, pmf[..., 1])
    out = None
    while True:
        if count & 1:
            out = pmf if out is None else _convolve_rows(out, pmf)
        count >>= 1
        if not count:
            return out / out.sum(axis=-1, keepdims=True) if rescale else out
        pmf = _convolve_rows(pmf, pmf)


def loss_distribution(config: MultiplexConfiguration) -> LossDistribution:
    """Exact distribution of erased qudits; ``config`` is validated first."""
    pmf = _fold(config, lambda cluster: cluster_loss_pmf(cluster, config))
    return LossDistribution(pmf, offset=config.withheld)


def success_probability(config: MultiplexConfiguration):
    """P(total erased qudits <= d - k), exact up to double-precision roundoff."""
    dist = loss_distribution(config)
    return clamp_roundoff(dist.probability_at_most(config.code.tolerance()))


def layout_table(config: MultiplexConfiguration) -> np.ndarray:
    """Count table ``T`` of a two-channel layout, its success polynomial being
    sum T[a, b] p1^a (1-p1)^(n1-a) p2^b (1-p2)^(n2-b): the surviving loss patterns by
    arrivals a, b per channel, axes in ``config.channels`` order.  The
    :func:`loss_distribution` walk and fold with a photon weighing x arriving, 1 lost
    and x + 1 either way, at x1 = B = 2^(n1+n2+1) on the first channel and
    x2 = B^(n1+1) on the second, give each erased count's sum T[a, b] x1^a x2^b as
    one Python int; those within the budget are summed and their base-B digits read.
    int64 when every entry fits, else exact Python ints (object), never a float.  The
    channel probabilities are not read.  ``ValueError`` unless two channels."""
    if len(config.channels) != 2:
        raise ValueError(f"a count table needs two channels, not {len(config.channels)}")
    first, second = (ch.id for ch in config.channels)
    n1 = sum(ph.channel_id == first for ph in config.photons)
    n2 = len(config.photons) - n1
    bits = n1 + n2 + 1
    x1 = 1 << bits
    x2 = x1 ** (n1 + 1)
    weights = {first: (x1, 1, x1 + 1), second: (x2, 1, x2 + 1)}
    pmf = _fold(config, lambda cluster: np.array(_walk(cluster.signature, weights), object))
    value = sum(pmf[: config.code.tolerance() - config.withheld + 1])
    digits = [(value >> bits * i) & (x1 - 1) for i in range((n1 + 1) * (n2 + 1))]
    dtype = object if max(digits) >> 63 else np.int64
    return np.array(digits, dtype).reshape(n2 + 1, n1 + 1).T


def table_array(counts: dict) -> np.ndarray:
    """The int64 count table of ``counts`` = ``{(a, b): T[a, b]}``, such as
    :data:`~qnetagg.closed_form.PS15_TABLE`, 0 where it has no key; its largest
    key is ``(n1, n2)``, every photon arriving."""
    table = np.zeros(np.add(max(counts), 1), np.int64)
    table[tuple(zip(*counts))] = list(counts.values())
    return table


def _bernstein(coefficients, p):
    """sum_j coefficients[..., j] p^j (1-p)^(n-j) over the last axis, j = 0..n: each
    term (c_j p^j) (1-p)^(n-j) without its factors p^0 = (1-p)^0 = 1, summed left to
    right from the j = 0 term.  An all-zero sum is -0.0 exactly when every term is
    (a negative coefficient times powers that are 0)."""
    n = coefficients.shape[-1] - 1
    q = 1 - p
    up, down = [1, p], [1, q]
    for _ in range(n - 1):
        up.append(up[-1] * p)
        down.append(down[-1] * q)
    total = coefficients[..., 0] * down[n]  # at n = 0 times 1: a new value, not a view
    for j in range(1, n):
        total = total + coefficients[..., j] * up[j] * down[n - j]
    return total + coefficients[..., n] * up[n] if n else total


def table_evaluator(table: np.ndarray, p2):
    """``p1 -> P_S`` of a count table, its ``p2`` sums taken once, for floats,
    arrays of one shape or Fractions; unclamped, so a table difference works too."""
    rows = _bernstein(table, np.asarray(p2)[..., None])
    return lambda p1: _bernstein(rows, p1)


def brute_force(config: MultiplexConfiguration):
    """Independent oracle: one flat enumeration over all photons, no clustering.

    Pattern weights take the walk's dtype, so Fractions give an exact Fraction.
    Channel probabilities must be scalars (:class:`~qnetagg.model.ArrayProbability`).
    """
    validate(config)
    check_scalar_channels(config, "brute_force")
    n = len(config.photons)
    if n > BRUTE_FORCE_PHOTON_LIMIT:
        raise TooManyPhotons(
            f"{n} photons exceeds brute-force bound {BRUTE_FORCE_PHOTON_LIMIT}"
        )
    probs = config.photon_probabilities()
    budget = config.code.tolerance() - config.withheld
    masks = [0] * config.transmitted
    for i, ph in enumerate(config.photons):
        for q in ph.qudits:
            masks[q] |= 1 << i
    # doubling keeps photon i at bit i of the pattern index and each weight's
    # product in photon order: 1 * w_0 * w_1 * ...
    weights = np.ones(1, dtype=_zeros(probs, 0).dtype)
    for p in probs:
        weights = np.concatenate((weights * (1 - p), weights * p))
    # n <= BRUTE_FORCE_PHOTON_LIMIT photons fit a uint32 pattern index; one
    # photon may carry any number of qudits, so the loss count is sized by them
    patterns = np.arange(1 << n, dtype=np.uint32)
    lost = np.zeros(1 << n, dtype=np.min_scalar_type(config.transmitted))
    for mask in masks:
        lost += (patterns & mask) != mask
    return clamp_roundoff(weights[lost <= budget].sum())


# --- fast path for block-uniform layouts --------------------------------------


# stirlerr(k) = log k! - log(sqrt(2 pi k) (k/e)^k) for k = 0..15, 0 at k = 0
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(k):
    """stirlerr at the integers ``k`` (an int or an array): tabled to 15, Stirling's
    series above."""
    big = np.maximum(k, 16).astype(float)
    kk = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / big
    return np.where(k > 15, series, _STIRLERR_SMALL[np.minimum(k, 15)])


@lru_cache(maxsize=32)  # a plan round reads 25 rows; a row near MAX_D holds ~1.5 MiB
def _binomial_row(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(i, n - i, c)`` for i = 0..n: c is the part of
    :func:`binomial_pmf`'s log term that does not depend on the loss probability.

    Up to :data:`LOG_SPACE_BINOMIAL_MAX`, c is log C(n, i), ``math.log`` of the exact
    integer coefficient, so no entry overflows, and i and n - i are ints.  Above it,
    c is Loader's stirlerr(n) - stirlerr(i) - stirlerr(n - i) - log(2 pi i (n - i) / n) / 2,
    0 at i = 0, n, and i and n - i are floats."""
    i = np.arange(n + 1)
    if n <= LOG_SPACE_BINOMIAL_MAX:
        coefficients = accumulate(range(1, n + 1), lambda c, j: c * (n - j + 1) // j, initial=1)
        c = np.array([log(coefficient) for coefficient in coefficients])
    else:
        x = i[1:n]
        c = np.zeros(n + 1)
        c[1:n] = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
        c[1:n] -= 0.5 * (log(2 * pi) + np.log(x) + np.log1p(-x / n))
        i = i.astype(float)
    row = (i, n - i, c)
    for a in row:
        a.setflags(write=False)
    return row


def binomial_pmf(n: int, loss_probability, top: int | None = None) -> np.ndarray:
    """pmf of the number of losses among n independent qudits, terms 0..top.

    ``loss_probability`` q is a float or an array of them; the last axis of the
    result holds 0..top losses, ``top`` being n unless given.  Only those terms are
    formed, each by the same arithmetic as in the full row, so they equal its first
    top + 1 entries bit for bit.  Each term is exp of a log term built on
    :func:`_binomial_row`'s c.  Up to :data:`LOG_SPACE_BINOMIAL_MAX`, term i is
    exp(log C(n, i) + i log q + (n - i) log(1 - q)), so none overflows at any n;
    at q = 0 or 1 the one factor 0 * log(0) is taken as 0, which makes the pmf
    exact there.  Those three logs grow with n and cancel, rounding at n u (u the
    unit roundoff), so above
    it term i is Loader's saddle-point form (C. Loader 2000, "Fast and accurate
    computation of binomial probabilities"), exp(stirlerr(n) - stirlerr(i)
    - stirlerr(n - i) - bd0(i, nq) - bd0(n - i, np)) / sqrt(2 pi i (n - i) / n) with
    p = 1 - q, and the ends are exp(n log1p(-q)) and exp(n log q).  The deviance
    bd0(x, m) = x log(x / m) + m - x enters as a pair whose m - x parts cancel
    exactly, so with e = i - nq it is i log1p(e / nq) + (n - i) log1p(-e / np): two
    terms of size |e| that round at |e| u.  q = 0 or 1 gives the exact pmf.  By
    Pinsker's inequality term i is below exp(-2 e^2 / n), which is 0.0 in floats
    once e^2 > 376 n, so only the terms within that reach of some row's nq are
    computed; the rest are the zeros they would round to.  A Fraction gives an
    exact object array.
    """
    top = n if top is None else top
    if isinstance(loss_probability, Fraction):
        q = loss_probability
        return np.array([comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(top + 1)])
    i, rest, c = (a[: top + 1] for a in _binomial_row(n))  # so any window stops at top
    if n <= LOG_SPACE_BINOMIAL_MAX:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q = np.multiply.outer(np.log(loss_probability), i)
            log_p = np.multiply.outer(np.log1p(-loss_probability), rest)
        log_q[..., 0] = 0.0
        if top == n:
            log_p[..., n] = 0.0
        log_q += log_p
        log_q += c
        return np.exp(log_q, out=log_q)
    q = np.asarray(loss_probability, dtype=float)
    reach = sqrt(376 * n)
    window = slice(max(0, int(n * q.min() - reach)), min(n, int(n * q.max() + reach)) + 1)
    out = np.zeros(q.shape + (top + 1,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lost, kept = n * q[..., None], n * (1 - q[..., None])
        excess = i[window] - lost
        deviance = i[window] * np.log1p(excess / lost)
        deviance += rest[window] * np.log1p(-excess / kept)
        np.exp(c[window] - deviance, out=out[..., window])
        out[..., 0] = np.exp(n * np.log1p(-q))
        if top == n:
            out[..., n] = np.exp(n * np.log(q))
    return out


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution along the last axis, broadcast over the leading axes; each row
    is :func:`numpy.convolve`'s, so an array entry equals its scalar evaluation."""
    if a.ndim == b.ndim == 1:
        return np.convolve(a, b)
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    n = a.shape[-1] + b.shape[-1] - 1
    out = np.zeros(lead + (n,), np.result_type(a, b))
    rows = (np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1]) for x in (a, b))
    for row, x, y in zip(out.reshape(-1, n), *rows):
        row[:] = np.convolve(x, y)
    return out


def block_success(code: QrsCode, blocks):
    """Success probability when qudits fail independently in blocks.

    ``blocks`` is a sequence of ``(count, per_qudit_survival)`` pairs.  This
    bypasses photon-level enumeration for layouts where no photon spans two
    qudits.

    Survivals may be floats or numpy arrays of one shape (they broadcast);
    the result is then a float or an array of that shape.  Fraction
    survivals give an exact Fraction.  Raises ``ValueError`` for a survival
    outside [0, 1], an invalid code, a negative count or counts above d,
    ``TypeError`` for a count that is a bool or not an integer.
    """
    # a stable sort puts empty blocks first, so the last block with qudits varies
    *fixed, (count, survival) = sorted(blocks, key=lambda block: block[0] > 0) or [(0, 1.0)]
    check_probability("survival", survival)
    return block_evaluator(code, fixed, count)(survival)


def block_evaluator(code: QrsCode, fixed, count: int):
    """:func:`block_success` as ``success(survival)`` of a varying block of
    ``count`` qudits, its survival unchecked.  The code and the ``fixed``
    blocks are checked and convolved once, and the CDF entries the tail
    sum_i pmf[i] * CDF[budget - i] reads are gathered once; a call forms only the
    pmf terms i = 0..min(budget, count) that the tail reads.  The counts, all
    ``count`` included, follow :func:`~qnetagg.model.check_counts`."""
    check_code(code)
    for _, survival in fixed:
        check_probability("survival", survival)
    # as Python ints: a numpy count would overflow _binomial_row's integers
    *sizes, count = check_counts(code, [n for n, _ in fixed] + [count], "block count")
    budget = code.tolerance()
    pmfs = [binomial_pmf(n, 1 - P) for n, (_, P) in zip(sizes, fixed) if n]
    cdf = np.cumsum(reduce(_convolve_rows, pmfs), axis=-1) if pmfs else np.ones(1, dtype=int)
    top = min(budget, count)
    tail = cdf[..., np.minimum(budget - np.arange(top + 1), cdf.shape[-1] - 1)]

    def success(survival):
        pmf = binomial_pmf(count, 1 - survival, top=top)
        return clamp_roundoff((pmf * tail).sum(axis=-1))

    return success
