"""Which 15-photon wiring produces the fixed 11-qudit success polynomial?

Candidate wirings are multigraphs: 7 degree-4 photons each spanning two
qudits (edges), 8 degree-2 photons filling the remaining halves.  Up to
isomorphism there are 40 such wirings.  The search reads each class's success
polynomial as an integer count table (surviving loss patterns by arrivals per
channel) and compares it with the reference polynomial's table, so the
verdict is exact: none matches, because the reference form omits loss
patterns whose erasures overlap (for example one shared photon plus four
singles hitting only five distinct qudits).  The closest class, ranked by the
table differences at seeded probe pairs, is three "cherries" plus one
isolated pair, which does match the reference triple-loss bookkeeping
(C(7,3) - 20 = 15 survivable triples, one entry of its table).
"""

from qnetagg.wiring import (
    enumerate_wiring_classes,
    search_shared_photon_wiring,
    three_matching_count,
    wiring_configuration,
)
from qnetagg import success_probability, ps15

classes = enumerate_wiring_classes()
print(f"{len(classes)} wiring classes with 7 shared photons on 11 qudits\n")

result = search_shared_photon_wiring()
print(f"search over {result.candidates_tested} classes: "
      f"{'match found' if result.found else 'no exact match'}")
print(f"closest class: {result.best}")
print(f"  3-subsets of shared photons erasing 6 qudits: "
      f"{three_matching_count(result.best)} (reference coefficient implies 20)")
print(f"  worst deviation from the reference polynomial: {result.best_deviation:.3e}\n")

print("engine vs reference polynomial for the closest class:")
for p1, p2 in [(0.95, 0.99), (0.9, 0.97), (0.85, 0.95)]:
    config = wiring_configuration(result.best, p1, p2)
    exact = success_probability(config)
    reference = ps15(p1, p2)
    print(f"  (p1={p1}, p2={p2}): engine {exact:.6f}  reference {reference:.6f}  "
          f"diff {exact - reference:+.2e}")
