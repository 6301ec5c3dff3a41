"""Exact success probability for arbitrary photon/qudit/channel layouts.

The photon-qudit incidence graph splits into connected components
("clusters").  Loss counts in different clusters are independent, so the
packet-level loss distribution is the convolution of per-cluster
distributions; withheld qudits add a deterministic offset.  Single-qudit
clusters reduce to a Bernoulli survival (product of photon probabilities);
multi-qudit clusters are enumerated exhaustively over photon arrival
patterns, capped at 24 photons per cluster.

Floats run through vectorised numpy paths; Fraction-valued channel
probabilities fall back to pure-python arithmetic and stay exact.

Layouts where every photon holds one qudit have a fast path,
:func:`block_success`: qudits fail independently in blocks of equal
survival, each block's loss count is binomial, and the binomial pmf is
computed in log space from a cached row of log C(n, i), so it stays finite
at any d.  Survivals may be numpy arrays, which lets the planner evaluate a
whole grid of channel qualities in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, log

import numpy as np

from .model import MultiplexConfiguration, QrsCode, validate

CLUSTER_PHOTON_LIMIT = 24
BRUTE_FORCE_PHOTON_LIMIT = 20
_CHUNK_BITS = 20


class ClusterTooLarge(ValueError):
    """A connected photon cluster exceeds the exact-enumeration bound."""


class TooManyPhotons(ValueError):
    """Brute-force oracle rejects configurations above its pattern budget."""


@dataclass(frozen=True)
class Cluster:
    """A connected component of the photon-qudit incidence graph."""

    photon_indices: tuple[int, ...]
    qudit_indices: tuple[int, ...]


@dataclass(frozen=True)
class LossDistribution:
    """Distribution of the total number of erased qudits.

    ``pmf[i]`` is the probability that exactly ``offset + i`` qudits are
    erased; ``offset`` equals the withheld count, so the support covers
    ``offset .. offset + len(pmf) - 1`` and ``len(pmf) == d - withheld + 1``.
    """

    pmf: tuple
    offset: int = 0

    def probability_at_most(self, losses: int):
        """P(total erased qudits <= losses), withheld included."""
        upto = losses - self.offset
        if upto < 0:
            return 0.0
        return sum(self.pmf[: upto + 1])

    def check(self, tol: float = 1e-12) -> None:
        total = sum(self.pmf)
        if any(x < -1e-15 for x in self.pmf):
            raise ArithmeticError("negative pmf entry beyond roundoff")
        if abs(total - 1) > tol:
            raise ArithmeticError(f"pmf sums to {total}, not 1")


def _is_exact(probs) -> bool:
    return any(isinstance(p, Fraction) for p in probs)


def cluster_decompose(config: MultiplexConfiguration) -> list[Cluster]:
    """Connected components, ordered by smallest member qudit index."""
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

    for ph in config.photons:
        qs = ph.qudits
        for other in qs[1:]:
            union(qs[0], other)

    groups: dict[int, list[int]] = {}
    for qudit in range(config.transmitted):
        groups.setdefault(find(qudit), []).append(qudit)

    photon_groups: dict[int, list[int]] = {root: [] for root in groups}
    for idx, ph in enumerate(config.photons):
        photon_groups[find(ph.qudits[0])].append(idx)

    return [
        Cluster(tuple(photon_groups[root]), tuple(groups[root]))
        for root in sorted(groups)
    ]


def _enumerate_cluster_python(probs, owners, n_qudits: int):
    """Reference enumeration; also the exact path for Fraction probabilities."""
    m = len(probs)
    pmf = [0] * (n_qudits + 1)
    masks = [0] * n_qudits
    for i, qs in enumerate(owners):
        for q in qs:
            masks[q] |= 1 << i
    for pattern in range(1 << m):
        weight = 1
        for i, p in enumerate(probs):
            weight = weight * (p if pattern >> i & 1 else 1 - p)
        lost = sum(1 for mask in masks if pattern & mask != mask)
        pmf[lost] += weight
    return pmf


def _enumerate_cluster_numpy(probs, owners, n_qudits: int):
    m = len(probs)
    masks = [0] * n_qudits
    for i, qs in enumerate(owners):
        for q in qs:
            masks[q] |= 1 << i
    pmf = np.zeros(n_qudits + 1)
    p_arr = [float(p) for p in probs]
    for start in range(0, 1 << m, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), 1 << m)
        patterns = np.arange(start, stop, dtype=np.uint64)
        weights = np.ones(stop - start)
        for i, p in enumerate(p_arr):
            bit = (patterns >> np.uint64(i)) & np.uint64(1)
            weights *= np.where(bit == 1, p, 1.0 - p)
        lost = np.zeros(stop - start, dtype=np.int64)
        for mask in masks:
            m_u = np.uint64(mask)
            lost += ((patterns & m_u) != m_u).astype(np.int64)
        pmf += np.bincount(lost, weights=weights, minlength=n_qudits + 1)
    return pmf.tolist()


def cluster_loss_pmf(cluster: Cluster, config: MultiplexConfiguration):
    """Loss pmf over this cluster's qudits (length ``len(qudits) + 1``).

    Enumerates all 2^m photon arrival patterns; a qudit is erased when any
    of its photons is lost.
    """
    m = len(cluster.photon_indices)
    if m > CLUSTER_PHOTON_LIMIT:
        raise ClusterTooLarge(
            f"cluster has {m} photons, exact enumeration capped at {CLUSTER_PHOTON_LIMIT}"
        )
    all_probs = config.photon_probabilities()
    probs = [all_probs[i] for i in cluster.photon_indices]
    local = {q: i for i, q in enumerate(cluster.qudit_indices)}
    owners = [
        tuple(local[q] for q in config.photons[i].qudits) for i in cluster.photon_indices
    ]
    n_qudits = len(cluster.qudit_indices)

    if len(cluster.qudit_indices) == 1:
        # Single-qudit cluster: survives iff every photon arrives.
        survive = 1
        for p in probs:
            survive = survive * p
        return [survive, 1 - survive]

    if _is_exact(probs):
        return _enumerate_cluster_python(probs, owners, n_qudits)
    return _enumerate_cluster_numpy(probs, owners, n_qudits)


def _convolve(a, b):
    if isinstance(a, np.ndarray) or (
        a and b and isinstance(a[0], float) and isinstance(b[0], float)
    ):
        return np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float)).tolist()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def loss_distribution(config: MultiplexConfiguration) -> LossDistribution:
    """Exact distribution of erased qudits for a validated configuration."""
    validate(config)
    pmf = [1]
    for cluster in cluster_decompose(config):
        pmf = _convolve(pmf, cluster_loss_pmf(cluster, config))
    expected = config.transmitted + 1
    if len(pmf) < expected:
        pmf = list(pmf) + [0] * (expected - len(pmf))
    return LossDistribution(tuple(pmf), offset=config.withheld)


def success_probability(config: MultiplexConfiguration):
    """P(total erased qudits <= d - k), exact up to double-precision roundoff."""
    dist = loss_distribution(config)
    value = dist.probability_at_most(config.code.tolerance())
    if isinstance(value, float):
        return min(max(value, 0.0), 1.0)
    return value


def brute_force(config: MultiplexConfiguration):
    """Independent oracle: one flat enumeration over all photons, no clustering."""
    validate(config)
    n = len(config.photons)
    if n > BRUTE_FORCE_PHOTON_LIMIT:
        raise TooManyPhotons(
            f"{n} photons exceeds brute-force bound {BRUTE_FORCE_PHOTON_LIMIT}"
        )
    probs = config.photon_probabilities()
    owners = [ph.qudits for ph in config.photons]
    budget = config.code.tolerance() - config.withheld
    if budget < 0:
        return 0.0

    if _is_exact(probs):
        pmf = _enumerate_cluster_python(probs, owners, config.transmitted)
        return sum(pmf[: budget + 1])

    masks = [0] * config.transmitted
    for i, qs in enumerate(owners):
        for q in qs:
            masks[q] |= 1 << i
    total = 0.0
    p_arr = [float(p) for p in probs]
    for start in range(0, 1 << n, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), 1 << n)
        patterns = np.arange(start, stop, dtype=np.uint64)
        weights = np.ones(stop - start)
        for i, p in enumerate(p_arr):
            bit = (patterns >> np.uint64(i)) & np.uint64(1)
            weights *= np.where(bit == 1, p, 1.0 - p)
        lost = np.zeros(stop - start, dtype=np.int64)
        for mask in masks:
            m_u = np.uint64(mask)
            lost += ((patterns & m_u) != m_u).astype(np.int64)
        total += float(weights[lost <= budget].sum())
    return min(max(total, 0.0), 1.0)


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
    factor 0 * log(0) is taken as 0, which makes the pmf exact there.
    """
    log_comb, i, rest = _log_comb_row(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.multiply.outer(np.log(loss_probability), i)
        log_p = np.multiply.outer(np.log1p(-loss_probability), rest)
    log_q[..., 0] = 0.0
    log_p[..., n] = 0.0
    log_q += log_p
    log_q += log_comb
    return np.exp(log_q, out=log_q)


@lru_cache(maxsize=256)
def _scalar_binomial_pmf(n: int, loss_probability: float) -> np.ndarray:
    """Read-only :func:`binomial_pmf` for one float, kept for the allocation
    search, which evaluates the same few (count, channel) blocks thousands
    of times."""
    pmf = binomial_pmf(n, loss_probability)
    pmf.setflags(write=False)
    return pmf


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution along the last axis, broadcast over the leading axes."""
    if a.ndim == b.ndim == 1:
        return np.convolve(a, b)
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(lead + (a.shape[-1] + b.shape[-1] - 1,))
    for j in range(b.shape[-1]):
        out[..., j : j + a.shape[-1]] += a * b[..., j : j + 1]
    return out


def block_success(code: QrsCode, blocks, withheld: int = 0):
    """Success probability when qudits fail independently in blocks.

    ``blocks`` is a sequence of ``(count, per_qudit_survival)`` pairs.  This
    bypasses photon-level enumeration for layouts where no photon spans two
    qudits and is what the curve solvers call in their inner loop.

    Survivals may be floats or numpy arrays of one shape (they broadcast);
    the result is then a float or an array of that shape.  The tail is
    sum_i pmf_last[i] * CDF_rest[budget - i], where ``rest`` convolves every
    block but the last.  Fraction survivals give an exact Fraction.
    """
    blocks = [(count, P) for count, P in blocks if count]
    budget = code.tolerance() - withheld
    if budget < 0:
        shape = np.broadcast_shapes(*(np.shape(P) for _, P in blocks))
        return np.zeros(shape) if shape else 0.0
    if _is_exact(P for _, P in blocks):
        pmf = [1]
        for count, P in blocks:
            loss = 1 - P
            pmf = _convolve(
                pmf, [comb(count, i) * loss**i * P ** (count - i) for i in range(count + 1)]
            )
        return sum(pmf[: budget + 1])
    *rest_pmfs, last = [
        (_scalar_binomial_pmf if isinstance(P, float) else binomial_pmf)(count, 1.0 - P)
        for count, P in blocks
    ] or [np.ones(1)]
    rest = reduce(_convolve_rows, rest_pmfs) if rest_pmfs else np.ones(1)
    cdf = np.cumsum(rest, axis=-1)
    top = min(budget, last.shape[-1] - 1)
    index = np.minimum(budget - np.arange(top + 1), cdf.shape[-1] - 1)
    value = (last[..., : top + 1] * cdf[..., index]).sum(axis=-1)
    if value.ndim == 0:
        return min(max(float(value), 0.0), 1.0)
    return np.clip(value, 0.0, 1.0)
