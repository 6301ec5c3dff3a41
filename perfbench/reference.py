"""Reference computations the benchmark checks `qnetagg` against.

Written apart from the package and without importing it: each function
takes plain numbers (per-qudit survivals, per-photon arrival probabilities,
photon-to-qudit incidence) and works by a different method than the engine.

- :func:`poisson_binomial_pmf` adds one qudit at a time (no binomial
  coefficients, no block convolution).
- :func:`ring_loss_pmf` runs a transfer matrix around a cycle of photons.
- :func:`flat_loss_pmf` walks every photon arrival pattern one by one in
  plain Python, with no clustering; it also accepts Fractions.
- :func:`wilson_interval` gives the Wilson score interval of a binomial
  count, which stays sound at zero or full success.
"""

from __future__ import annotations

from math import sqrt

import numpy as np


def poisson_binomial_pmf(survivals) -> np.ndarray:
    """pmf of the number of lost qudits when qudit ``i`` survives with ``survivals[i]``."""
    pmf = np.zeros(len(survivals) + 1)
    pmf[0] = 1.0
    for n, s in enumerate(survivals, start=1):
        lost = 1.0 - s
        pmf[1 : n + 1] = pmf[1 : n + 1] * s + pmf[:n] * lost
        pmf[0] *= s
    return pmf


def poisson_binomial_tail(survivals, budget: int) -> float:
    """P(at most ``budget`` of the independent qudits are lost)."""
    if budget < 0:
        return 0.0
    return float(poisson_binomial_pmf(survivals)[: budget + 1].sum())


def ring_loss_pmf(arrivals) -> list:
    """Loss-count pmf of a ring: photon ``i`` carries qudits ``i`` and ``i+1 mod m``.

    Qudit ``j`` is erased when photon ``j-1`` or photon ``j`` is lost.  The
    transfer matrix walks the photons in order, keeping the state of the
    first photon (it closes the ring) and of the previous one; each state
    holds a polynomial in the number of erased qudits.
    """
    m = len(arrivals)
    if m < 3:
        raise ValueError("a ring needs at least three photons")
    total = [0.0] * (m + 1)
    for first in (True, False):
        # poly[prev_arrived] = coefficients of erased-qudit counts so far
        start = arrivals[0] if first else 1 - arrivals[0]
        poly = {first: [start] + [0.0] * m, not first: [0.0] * (m + 1)}
        for i in range(1, m):
            nxt = {True: [0.0] * (m + 1), False: [0.0] * (m + 1)}
            for prev, coeffs in poly.items():
                for here in (True, False):
                    w = arrivals[i] if here else 1 - arrivals[i]
                    shift = 0 if (prev and here) else 1  # qudit i
                    row = nxt[here]
                    for c in range(m + 1 - shift):
                        row[c + shift] += coeffs[c] * w
            poly = nxt
        for last, coeffs in poly.items():
            shift = 0 if (last and first) else 1  # qudit 0 closes the ring
            for c in range(m + 1 - shift):
                total[c + shift] += coeffs[c]
    return total


def flat_loss_pmf(arrivals, owners, n_qudits: int) -> list:
    """Loss-count pmf by walking all 2^n photon patterns one at a time.

    ``owners[i]`` lists the qudits photon ``i`` carries.  Exact when the
    probabilities are Fractions.
    """
    n = len(arrivals)
    if n > 20:
        raise ValueError(f"{n} photons is too many for flat enumeration")
    pmf = [0] * (n_qudits + 1)
    for pattern in range(1 << n):
        weight = 1
        erased = set()
        for i in range(n):
            if pattern >> i & 1:
                weight *= arrivals[i]
            else:
                weight *= 1 - arrivals[i]
                erased.update(owners[i])
        pmf[len(erased)] += weight
    return pmf


def wilson_interval(successes: int, trials: int, z: float = 4.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at ``z`` standard deviations."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials and trials >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z / denom * sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)
