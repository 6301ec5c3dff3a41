"""Seeded Monte Carlo estimate of packet success probability.

A statistical oracle, independent of the exact engine: photons arrive as
independent Bernoulli draws, a trial succeeds when erased plus withheld
qudits stay within tolerance.  Sampling is split into fixed-size chunks,
each driven by its own counter-based Philox stream derived from
``(seed, chunk index)`` (Salmon et al., SC'11), so the estimate is
reproducible bit for bit and a parallel runner merging per-chunk success
counts in any order would obtain the identical result.

A chunk of ``size`` trials takes ``n_photons * size`` raw 32-bit Philox
words, one row of ``size`` words per photon; each 64-bit Philox output
gives its low half first, whatever the host's byte order.  A photon of arrival
probability ``p`` arrives when its word is below ``round(p * 2**32)``, so
it arrives with probability ``round(p * 2**32) / 2**32``: at most 2^-33
(about 1.2e-10) from ``p``, exact at p = 0 and p = 1.  A qudit survives
when every one of its photons arrives.
"""

from __future__ import annotations

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
    thresholds = [round(float(p) * 2**32) for p in config.photon_probabilities()]
    budget = config.code.tolerance() - config.withheld
    n_photons = len(thresholds)

    # Per-qudit photon lists for the loss count.
    per_qudit: list[list[int]] = [[] for _ in range(config.transmitted)]
    for i, ph in enumerate(config.photons):
        for q in ph.qudits:
            per_qudit[q].append(i)

    successes = 0
    root = np.random.Philox(key=seed)
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(CHUNK, samples - done)
        words = root.jumped(chunk_index).random_raw(-(-n_photons * size // 2))
        rows = words.astype("<u8", copy=False).view("<u4")[: n_photons * size]
        rows = rows.reshape(n_photons, size)
        arrived = [row < t for row, t in zip(rows, thresholds)]
        lost = np.zeros(size, dtype=np.min_scalar_type(config.transmitted))
        for photon_ids in per_qudit:  # a qudit is kept when all its photons arrive
            lost += ~reduce(np.logical_and, [arrived[i] for i in photon_ids])
        successes += int(np.count_nonzero(lost <= budget))
        done += size
        chunk_index += 1

    mean = successes / samples
    return McEstimate(
        mean=mean,
        std_error=sqrt(mean * (1.0 - mean) / samples),
        samples=samples,
        seed=seed,
    )
