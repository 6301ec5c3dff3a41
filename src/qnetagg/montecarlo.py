"""Seeded Monte Carlo estimate of packet success probability.

A statistical oracle, independent of the exact engine: photons arrive as
independent Bernoulli draws, a trial succeeds when erased plus withheld
qudits stay within tolerance.  Sampling is split into fixed-size chunks,
each driven by its own counter-based Philox stream derived from
``(seed, chunk index)`` (Salmon et al., SC'11), so the estimate is
reproducible bit for bit.  :func:`estimate` shares the chunks among
W = min(CPUs the process may use, chunks) threads: the calling thread takes
chunks 0, W, 2W, ... and W - 1 pool threads take the others.  The integer
success counts add up to the same total in any order, so the estimate is
the same for every W.

Trials draw one word per *unit*, not per photon.  A qudit's private group
(all its photons that carry no other qudit) is one unit: those photons
erase only that qudit, so their independent arrivals combine into one that
happens with the product of their ``p``, taken in floats in photon order so
a Fraction layout draws what its float twin draws.  Each shared photon
(carrying two or more qudits) is a unit of its own.  Units are numbered
private groups first, in qudit order, then shared photons in photon order.

A chunk of ``size`` trials takes ``n_units * size`` raw 32-bit Philox
words, one row of ``size`` words per unit; each 64-bit Philox output gives
its low half first, whatever the host's byte order.  A unit of arrival
probability ``P`` arrives when its word is below ``round(P * 2**32)``, so
it arrives with probability ``round(P * 2**32) / 2**32``: at most 2^-33
(about 1.2e-10) from ``P`` per unit, exact at P = 0 and P = 1.  A qudit
survives when every one of its units arrives.

A chunk draws its rows in blocks of ceil(n_units / W) rows, rounded up to
an even count so that a block is whole 64-bit words; consecutive draws from
one stream return the words of a single draw.  Each row becomes arrival
flags as soon as it is drawn and a qudit is judged when its last unit is
drawn, so only the flags of units whose qudits have more than one unit are
kept, one byte a trial.  A thread frees each block before it draws the next,
so the W threads together hold at most W blocks, n_units + 2W rows: about
one chunk's words when units outnumber threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from math import sqrt
from numbers import Integral

import numpy as np

from .model import MultiplexConfiguration, check_scalar_channels, validate

CHUNK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def agrees_with(self, exact: float, sigmas: float = 4.0) -> bool:
        """True when ``exact`` lies in the Wilson score interval at ``sigmas``.

        Unlike mean +- sigmas standard errors, the Wilson interval (Wilson,
        JASA 1927) keeps a nonzero width when every trial succeeds or every
        trial fails, so an estimate of 1.0 still agrees with 1 - 1e-13.
        """
        n, z2 = self.samples, sigmas * sigmas
        centre = (self.mean + z2 / (2 * n)) / (1 + z2 / n)
        half = sigmas / (1 + z2 / n) * sqrt(self.mean * (1 - self.mean) / n + z2 / (4 * n * n))
        return abs(exact - centre) <= half + 1e-15


def _check_int(name: str, value) -> int:
    """``value`` as an int; ``TypeError`` naming ``name`` for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def estimate(config: MultiplexConfiguration, samples: int, seed: int = 0) -> McEstimate:
    """Estimate success probability from ``samples`` independent trials;
    ``TypeError`` for a ``samples`` or ``seed`` that is a bool or not an
    integer, ``ValueError`` for ``samples`` < 1 or a ``seed`` outside
    0..2^128 - 1, :class:`~qnetagg.model.ArrayProbability` for an array
    channel probability."""
    samples, seed = _check_int("samples", samples), _check_int("seed", seed)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed={seed} outside 0..2**128-1")
    validate(config)
    check_scalar_channels(config, "montecarlo.estimate")
    # Units as (arrival probability, qudits erased): private groups in qudit
    # order, then shared photons in photon order.
    private: dict[int, float] = {}
    shared: list[tuple[float, tuple[int, ...]]] = []
    for p, ph in zip(config.photon_probabilities(), config.photons):
        if len(ph.carries) == 1:
            q = ph.carries[0][0]
            private[q] = private.get(q, 1.0) * float(p)
        else:
            shared.append((float(p), ph.qudits))
    units = [(private[q], (q,)) for q in sorted(private)] + shared
    thresholds = [round(p * 2**32) for p, _ in units]
    per_qudit: list[list[int]] = [[] for _ in range(config.transmitted)]
    for u, (_, qudits) in enumerate(units):
        for q in qudits:
            per_qudit[q].append(u)
    budget = config.code.tolerance() - config.withheld
    n_units = len(units)

    # A qudit is judged when its last unit is drawn, so only the flags of its
    # earlier units are kept until then.
    judged: list[list[list[int]]] = [[] for _ in units]
    for unit_ids in per_qudit:
        judged[unit_ids[-1]].append(unit_ids[:-1])
    keep = {u for unit_ids in per_qudit for u in unit_ids[:-1]}
    lost_type = np.min_scalar_type(config.transmitted)
    root = np.random.Philox(key=seed)
    chunks = -(-samples // CHUNK)
    workers = min(_cpu_count(), chunks)
    block = -(-n_units // workers)
    block += block % 2  # whole 64-bit words, even when a row has odd length

    # Runs in pool threads too, so it calls numpy alone: no qnetagg function,
    # which perfbench/tracing.py may wrap with its single span stack.
    def chunk_successes(index: int) -> int:
        size = min(CHUNK, samples - index * CHUNK)
        stream = root.jumped(index)
        lost = np.zeros(size, dtype=lost_type)
        flags: dict[int, np.ndarray] = {}
        for start in range(0, n_units, block):
            count = min(block, n_units - start)
            words = stream.random_raw(-(-count * size // 2)).astype("<u8", copy=False).view("<u4")
            for u in range(start, start + count):
                offset = (u - start) * size
                arrived = words[offset : offset + size] < thresholds[u]
                if u in keep:
                    flags[u] = arrived
                for others in judged[u]:  # a qudit is kept when all its units arrive
                    lost += ~reduce(np.logical_and, [flags[v] for v in others], arrived)
            del words  # this block is freed before the next one is drawn
        return int(np.count_nonzero(lost <= budget))

    def share(first: int) -> int:
        return sum(chunk_successes(i) for i in range(first, chunks, workers))

    if workers == 1:
        successes = share(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(share, w) for w in range(1, workers)]
            successes = share(0) + sum(f.result() for f in futures)

    mean = successes / samples
    return McEstimate(
        mean=mean,
        std_error=sqrt(mean * (1.0 - mean) / samples),
        samples=samples,
        seed=seed,
    )
