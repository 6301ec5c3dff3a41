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

``search_shared_photon_wiring`` decides the match exactly: it compares each
class's integer count table (:func:`engine.layout_table`, one walk of its
layout in integer weights, built once per process) with the reference table
:data:`~qnetagg.closed_form.PS15_TABLE` as written.  The same table
differences, summed at random probability pairs, rank the classes and give
the closest miss's reported deviation, so a search walks no layout and
evaluates no closed form.  A no-match outcome is a finding about the
reference polynomial, not a failure of the search.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import closed_form, engine
from .model import Channel, MultiplexConfiguration, Photon, QrsCode

FAMILY_CODE = QrsCode(11, 6)
SHARED_PHOTONS = 7  # channel-2, degree 4, spanning two qudits
SINGLE_PHOTONS = 8  # channel-1, degree 2, half of one qudit
PROBE_PAIRS = 50  # random (p1, p2) pairs each class is scored at

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
    isolated qudits outside all components.  The layout is valid by
    construction and validated where it is evaluated (``Channel`` rejects a
    ``p`` outside [0, 1] with ``ValueError``).
    """
    d = FAMILY_CODE.d
    edges: list[tuple[int, int]] = []
    next_qudit = 0
    for kind, m in components:
        verts = list(range(next_qudit, next_qudit + component_vertices((kind, m))))
        edges += [(verts[i], verts[(i + 1) % len(verts)]) for i in range(m)]
        next_qudit += len(verts)
    if next_qudit > d:
        raise ValueError("components use more qudits than the code has")
    # paths and cycles on disjoint qudits cover each qudit at most twice
    halves = Counter(q for edge in edges for q in edge)
    photons = [Photon("ch2", ((a, 2), (b, 2))) for a, b in edges]
    photons += [Photon("ch1", ((q, 2),)) for q in range(d) for _ in range(2 - halves[q])]
    channels = (Channel("ch1", p1), Channel("ch2", p2))
    return MultiplexConfiguration(FAMILY_CODE, channels, tuple(photons), 0)


def _class_table(components: Sequence[Component]) -> np.ndarray:
    """The class's :func:`engine.layout_table` over (channel-1, channel-2) photons."""
    return engine.layout_table(wiring_configuration(components, 0.5, 0.5))


@lru_cache(maxsize=None)
def _tables() -> tuple[dict[tuple[Component, ...], np.ndarray], np.ndarray]:
    """Count tables of every class and the reference table, built on the first search."""
    classes = {c: _class_table(c) for c in enumerate_wiring_classes()}
    return classes, engine.table_array(closed_form.PS15_TABLE)


@dataclass(frozen=True)
class WiringSearchResult:
    """Outcome of the wiring search.

    ``matched`` holds a probability-free descriptor of the matching class
    (``None`` when no class reproduces the reference polynomial).  The closest
    class and its worst deviation over the probe pairs, read from the same
    table sum that ranks the classes, are always reported.
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

    A class matches when its count table equals the reference table, an exact verdict.
    The closest class has the smallest worst table difference over ``PROBE_PAIRS``
    pairs drawn from ``seed``, and that difference is its reported deviation.
    """
    rng = random.Random(seed)
    probe = [(rng.uniform(0.05, 0.999), rng.uniform(0.05, 0.999)) for _ in range(PROBE_PAIRS)]
    p1, p2 = np.array(probe).T
    tables, ref = _tables()
    # every class in one sum: entry [pair, c] takes class c's own scalar ops at that pair
    diffs = np.stack([t - ref for t in tables.values()])
    gap = abs(engine.table_evaluator(diffs, p2[:, None])(p1[:, None])).max(axis=0)
    best = list(tables)[int(np.argmin(gap))]  # the first smallest gap, in class order
    matched = best if np.array_equal(tables[best], ref) else None
    return WiringSearchResult(matched, len(tables), best, float(gap.min()))
