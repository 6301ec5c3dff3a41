"""Seeded Monte Carlo estimate of packet success probability.

A statistical oracle, independent of the exact engine: photons arrive as
independent Bernoulli draws, a trial succeeds when erased plus withheld
qudits stay within tolerance.  Sampling is split into fixed-size chunks,
each driven by its own counter-based Philox stream derived from
``(seed, chunk index)``, so the estimate is reproducible bit for bit and a
parallel runner merging per-chunk success counts in any order would obtain
the identical result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

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


def estimate(config: MultiplexConfiguration, samples: int, seed: int = 0) -> McEstimate:
    """Estimate success probability from ``samples`` independent trials;
    ``ValueError`` for ``samples`` < 1 or a ``seed`` outside 0..2^128 - 1,
    :class:`~qnetagg.model.ArrayProbability` for an array channel probability."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed={seed} outside 0..2**128-1")
    validate(config)
    check_scalar_channels(config, "montecarlo.estimate")
    probs = np.array([float(p) for p in config.photon_probabilities()])
    budget = config.code.tolerance() - config.withheld
    n_photons = len(probs)

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
        rng = np.random.Generator(root.jumped(chunk_index))
        arrived = rng.random((size, n_photons)) < probs
        lost = np.zeros(size, dtype=np.int64)
        for photon_ids in per_qudit:
            lost += ~arrived[:, photon_ids].all(axis=1)
        successes += int((lost <= budget).sum())
        done += size
        chunk_index += 1

    mean = successes / samples
    return McEstimate(
        mean=mean,
        std_error=sqrt(mean * (1.0 - mean) / samples),
        samples=samples,
        seed=seed,
    )
