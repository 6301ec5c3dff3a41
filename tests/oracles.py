"""Independent reference implementations used only by the tests.

Deliberately structured differently from the package: plain pattern
enumeration with no clustering and generating-function convolution instead
of binomial formulas, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np

from qnetagg.model import MultiplexConfiguration


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
