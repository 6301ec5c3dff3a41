"""Search for a 15-photon wiring matching the fixed 11-qudit reference polynomial.

The family: d=11, k=6, four qubits per qudit.  Seven channel-2 photons carry
four qubits each, always split 2+2 across two distinct qudits; eight
channel-1 photons carry two qubits each (half of one qudit).  A wiring is
determined by the multigraph whose edges are the channel-2 photons and whose
vertices are qudits; every vertex has degree at most 2, and the channel-1
photons fill whatever halves remain.  The success polynomial depends only on
the isomorphism class of that multigraph, so candidates are enumerated as
multisets of paths and cycles with 7 edges on at most 11 vertices (a
two-vertex cycle is a doubled edge).

``search_shared_photon_wiring`` compares every class against :func:`ps15` at
random probability pairs, one frontier walk per class over arrays of all the
pairs, and reports either the matching class or the closest miss
(:func:`wiring_configuration` builds either at given probabilities, floats
or arrays).  A no-match outcome is a finding about the reference polynomial,
not a failure of the search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from . import engine
from .closed_form import ps15
from .model import Channel, MultiplexConfiguration, Photon, QrsCode, validate

FAMILY_CODE = QrsCode(11, 6)
SHARED_PHOTONS = 7  # channel-2, degree 4, spanning two qudits
SINGLE_PHOTONS = 8  # channel-1, degree 2, half of one qudit
PROBE_PAIRS = 50  # random (p1, p2) pairs each class is scored at
MATCH_TOL = 1e-10  # worst deviation from ps15 that still counts as a match

Component = tuple[str, int]  # ("path", edges) or ("cycle", edges)


def component_vertices(component: Component) -> int:
    kind, edges = component
    return edges + 1 if kind == "path" else edges


def enumerate_wiring_classes() -> list[tuple[Component, ...]]:
    """All multisets of paths/cycles with SHARED_PHOTONS edges on at most 11 vertices."""
    opts = [("path", m) for m in range(1, SHARED_PHOTONS + 1)]
    opts += [("cycle", m) for m in range(2, SHARED_PHOTONS + 1)]
    results: list[tuple[Component, ...]] = []

    def recurse(start: int, edges_left: int, vertices_left: int, acc: list[Component]):
        if edges_left == 0:
            results.append(tuple(acc))
            return
        for i in range(start, len(opts)):
            comp = opts[i]
            if comp[1] > edges_left or component_vertices(comp) > vertices_left:
                continue
            acc.append(comp)
            recurse(i, edges_left - comp[1], vertices_left - component_vertices(comp), acc)
            acc.pop()

    recurse(0, SHARED_PHOTONS, FAMILY_CODE.d, [])
    return results


def wiring_configuration(components: Sequence[Component], p1, p2) -> MultiplexConfiguration:
    """Concrete configuration for a multigraph class.

    Qudit indices are assigned component by component; channel-1 photons are
    attached to every half not covered by a channel-2 photon, including the
    isolated qudits outside all components.
    """
    d = FAMILY_CODE.d
    edges: list[tuple[int, int]] = []
    next_qudit = 0
    for kind, m in components:
        if kind == "path":
            verts = list(range(next_qudit, next_qudit + m + 1))
            edges += [(verts[i], verts[i + 1]) for i in range(m)]
        else:
            verts = list(range(next_qudit, next_qudit + m))
            if m == 2:
                edges += [(verts[0], verts[1]), (verts[0], verts[1])]
            else:
                edges += [(verts[i], verts[(i + 1) % m]) for i in range(m)]
        next_qudit += len(verts)
    if next_qudit > d:
        raise ValueError("components use more qudits than the code has")

    degree = [0] * d
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if any(g > 2 for g in degree):
        raise ValueError("a qudit has more than two shared-photon halves")

    photons = [Photon("ch2", ((a, 2), (b, 2))) for a, b in edges]
    for qudit in range(d):
        for _ in range(2 - degree[qudit]):
            photons.append(Photon("ch1", ((qudit, 2),)))

    config = MultiplexConfiguration(
        FAMILY_CODE,
        (Channel("ch1", p1), Channel("ch2", p2)),
        tuple(photons),
        0,
    )
    return validate(config)


def three_matching_count(components: Sequence[Component]) -> int:
    """Number of 3-subsets of channel-2 photons that erase six distinct qudits.

    These are exactly the 3-matchings of the multigraph: coefficient
    bookkeeping for the triple-loss term of the reference polynomial.
    """

    def matching_poly(component: Component) -> list[int]:
        kind, m = component
        if kind == "cycle" and m == 2:
            return [1, 2]  # parallel edges share both vertices
        counts = [1]
        k = 1
        while True:
            if kind == "path":
                c = comb(m - k + 1, k)
            else:
                c = m * comb(m - k - 1, k - 1) // k if m - k >= k else 0
            if c == 0:
                break
            counts.append(c)
            k += 1
        return counts

    total = [1]
    for comp in components:
        poly = matching_poly(comp)
        new = [0] * (len(total) + len(poly) - 1)
        for i, x in enumerate(total):
            for j, y in enumerate(poly):
                new[i + j] += x * y
        total = new
    return total[3] if len(total) > 3 else 0


@dataclass(frozen=True)
class WiringSearchResult:
    """Outcome of the wiring search.

    ``matched`` holds a probability-free descriptor of the matching class
    (``None`` when no class reproduces the reference polynomial).  The closest
    class and its worst deviation over the probe pairs are always reported.
    """

    matched: tuple[Component, ...] | None
    candidates_tested: int
    best: tuple[Component, ...]
    best_deviation: float

    @property
    def found(self) -> bool:
        return self.matched is not None


def search_shared_photon_wiring(seed: int = 20260810) -> WiringSearchResult:
    """Compare every wiring class against the reference polynomial.

    Each class is scored by its maximum absolute deviation from
    :func:`ps15` over ``PROBE_PAIRS`` random probability pairs drawn from
    ``seed``, in one frontier walk over arrays of all the pairs; the closest
    class is returned as the match when it lies within ``MATCH_TOL``.
    """
    rng = random.Random(seed)
    probe = [(rng.uniform(0.05, 0.999), rng.uniform(0.05, 0.999)) for _ in range(PROBE_PAIRS)]
    p1, p2 = np.array(probe).T
    reference = np.array([ps15(*pair) for pair in probe])  # numpy's array pow may differ by an ulp
    classes = enumerate_wiring_classes()
    walks = (engine.success_probability(wiring_configuration(c, p1, p2)) for c in classes)
    deviation = {c: float(abs(v - reference).max()) for c, v in zip(classes, walks)}
    best = min(classes, key=deviation.__getitem__)
    matched = best if deviation[best] <= MATCH_TOL else None
    return WiringSearchResult(matched, len(classes), best, deviation[best])
