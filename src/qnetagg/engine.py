"""Exact success probability for arbitrary photon/qudit/channel layouts.

The photon-qudit incidence graph splits into connected components
("clusters").  Loss counts in different clusters are independent, so the
packet-level loss distribution is the convolution of per-cluster
distributions; withheld qudits add a deterministic offset.

The pass that groups a cluster's photons also builds its signature: per
photon, its channel and its qudits by position in the cluster.  Each cluster
is evaluated exactly by one walk over its signature (frontier-based
reliability, a form of bucket elimination), and one
:func:`loss_distribution` call walks each distinct signature once: clusters
of one shape on the same channels, such as the singleton qudits of a uniform
layout, share one walk and its pmf, keyed on the signature.  Photons are
taken greedily, next the one sharing the most qudits with those already
touched.  A qudit is open from its first photon to its last; a state is the
set of open qudits already erased and carries the pmf of the erased count
among closed qudits.  The cost follows the number of states, not 2^photons:
paths and rings stay at a handful at any length, and
:class:`ClusterTooLarge` is raised when a step would hold more than
2^CLUSTER_STATE_BITS states (no cluster of at most 16 photons can).  The
walk reads only a weight per photon outcome on each channel (arrived, lost,
or either when its qudits are already erased), so the same arithmetic serves
floats, Fractions (exact results), numpy arrays of one shape (one pmf per
entry, each equal to its scalar walk bit for bit) and Python ints.

Layouts where every photon holds one qudit have a fast path,
:func:`block_success`: qudits fail independently in blocks of equal
survival, each block's loss count is binomial, and the binomial pmf is
computed in log space from a cached row of log C(n, i), so it stays finite
at any d.  Survivals may be numpy arrays, which lets the planner evaluate a
whole grid of channel qualities in one call; :func:`block_evaluator` builds
all blocks but one once, for a caller that varies one block.

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
from math import comb, log

import numpy as np

from .model import (
    MultiplexConfiguration, QrsCode, check_code, check_probability, check_scalar_channels,
    clamp_roundoff, validate,
)

CLUSTER_STATE_BITS = 16
BRUTE_FORCE_PHOTON_LIMIT = 20


class ClusterTooLarge(ValueError):
    """A cluster's photon walk would hold more than 2^CLUSTER_STATE_BITS
    states: too many of its qudits are open at once."""


class TooManyPhotons(ValueError):
    """Brute-force oracle rejects configurations above its pattern budget."""


@dataclass(frozen=True)
class Cluster:
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

    def check(self, tol: float = 1e-12) -> None:
        total = self.pmf.sum(axis=-1)
        if np.any(self.pmf < -1e-15):
            raise ArithmeticError("negative pmf entry beyond roundoff")
        if np.any(abs(total - 1) > tol):
            raise ArithmeticError(f"pmf sums to {total}, not 1")


def cluster_decompose(config: MultiplexConfiguration) -> list[Cluster]:
    """Connected components and their signatures, by smallest member qudit.

    Validates ``config`` first (:class:`~qnetagg.model.InvalidConfiguration`).
    Each photon's ``carries`` is read once, and only photons of two or more
    qudits join components."""
    validate(config)
    carries = [ph.carries for ph in config.photons]
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

    clusters: dict[int, tuple[list, list, list]] = {}  # root: photons, qudits, signature
    home, position = [], []  # per qudit: its cluster's lists, its position in them
    for qudit in range(config.transmitted):
        members = clusters.setdefault(find(qudit), ([], [], []))
        home.append(members)
        position.append((len(members[1]),))
        members[1].append(qudit)
    for idx, (ph, held) in enumerate(zip(config.photons, carries)):
        first = held[0][0]
        photons, _, signature = home[first]
        photons.append(idx)
        if len(held) == 1:  # a single-qudit photon reuses its qudit's ``(position,)``
            signature.append((ph.channel_id, position[first]))
        else:
            signature.append((ph.channel_id, tuple([position[q][0] for q, _ in held])))
    return [Cluster(*map(tuple, clusters[root])) for root in sorted(clusters)]


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
    """The pmf of erased transmitted qudits: ``walk(cluster)`` of each distinct
    :attr:`Cluster.signature` once, reused for its other clusters, and the pmfs
    convolved in cluster order.  :func:`cluster_decompose` validates."""
    walked: dict[tuple, np.ndarray] = {}

    def pmf(cluster: Cluster) -> np.ndarray:
        out = walked.get(cluster.signature)  # one hash of the signature per cluster
        if out is None:
            out = walked[cluster.signature] = walk(cluster)
        return out

    return reduce(_convolve_rows, map(pmf, cluster_decompose(config)))


def loss_distribution(config: MultiplexConfiguration) -> LossDistribution:
    """Exact distribution of erased qudits; :func:`cluster_decompose` validates."""
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
    """sum_j coefficients[..., j] p^j (1-p)^(n-j) over the last axis, j = 0..n."""
    n = coefficients.shape[-1] - 1
    up, down = [1], [1]
    for _ in range(n):
        up, down = up + [up[-1] * p], down + [down[-1] * (1 - p)]
    return sum(coefficients[..., j] * up[j] * down[n - j] for j in range(n + 1))


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


@lru_cache(maxsize=None)
def _log_comb_row(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(log C(n, i), i, n - i)`` for i = 0..n.

    ``math.log`` takes the exact integer coefficients, so no entry overflows.
    """
    logs = [0.0] * (n + 1)
    c = 1
    for i in range(1, n + 1):
        c = c * (n - i + 1) // i
        logs[i] = log(c)
    i = np.arange(n + 1)
    row = (np.array(logs), i, n - i)
    for a in row:
        a.setflags(write=False)
    return row


def binomial_pmf(n: int, loss_probability) -> np.ndarray:
    """pmf of the number of losses among n independent qudits.

    ``loss_probability`` is a float or an array of them; the last axis of
    the result holds 0..n losses.  Each term is exp(log C(n, i) + i log q +
    (n - i) log(1 - q)), so none overflows at any n.  At q = 0 or 1 the one
    factor 0 * log(0) is taken as 0, which makes the pmf exact there.  A
    Fraction gives an exact object array.
    """
    if isinstance(loss_probability, Fraction):
        q = loss_probability
        return np.array([comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)])
    log_comb, i, rest = _log_comb_row(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.multiply.outer(np.log(loss_probability), i)
        log_p = np.multiply.outer(np.log1p(-loss_probability), rest)
    log_q[..., 0] = 0.0
    log_p[..., n] = 0.0
    log_q += log_p
    log_q += log_comb
    return np.exp(log_q, out=log_q)


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
    outside [0, 1], an invalid code, a negative count or counts above d.
    """
    # a stable sort puts empty blocks first, so the last block with qudits varies
    *fixed, (count, survival) = sorted(blocks, key=lambda block: block[0] > 0) or [(0, 1.0)]
    check_probability("survival", survival)
    return block_evaluator(code, fixed, count)(survival)


def block_evaluator(code: QrsCode, fixed, count: int):
    """:func:`block_success` as ``success(survival)`` of a varying block of
    ``count`` qudits, its survival unchecked.  The code and the ``fixed``
    blocks are checked and convolved once, and the CDF entries the tail
    sum_i pmf[i] * CDF[budget - i] reads are gathered once.  ``ValueError``
    names a block whose count is negative or brings the total above d."""
    check_code(code)
    for _, survival in fixed:
        check_probability("survival", survival)
    total = 0
    for n in [n for n, _ in fixed] + [count]:
        total += n
        if n < 0 or total > code.d:
            raise ValueError(f"block of {n} qudits: counts must be >= 0 and total <= d={code.d}")
    budget = code.tolerance()
    pmfs = [binomial_pmf(n, 1 - P) for n, P in fixed if n]
    cdf = np.cumsum(reduce(_convolve_rows, pmfs), axis=-1) if pmfs else np.ones(1, dtype=int)
    top = min(budget, count)
    tail = cdf[..., np.minimum(budget - np.arange(top + 1), cdf.shape[-1] - 1)]

    def success(survival):
        pmf = binomial_pmf(count, 1 - survival)
        return clamp_roundoff((pmf[..., : top + 1] * tail).sum(axis=-1))

    return success
