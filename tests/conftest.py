import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# Every @given test draws the same examples on every run and every Python:
# a failure reproduces, and a pass is not luck of the draw.  Per-test
# settings (such as max_examples) extend this profile.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from qnetagg.model import Channel, MultiplexConfiguration, Photon, QrsCode

CODE_CHOICES = [(3, 2), (5, 3), (5, 4), (7, 4), (7, 5), (7, 6), (11, 9), (11, 10)]


def random_configuration(rng: random.Random, max_photons: int = 20) -> MultiplexConfiguration:
    """Random valid configuration, including shared photons and withheld qudits."""
    while True:
        d, k = rng.choice(CODE_CHOICES)
        code = QrsCode(d, k)
        withheld = rng.randint(0, min(code.tolerance(), 2))
        sent = d - withheld
        qb = code.qubits_per_qudit()

        chunks: list[tuple[int, int]] = []
        for qudit in range(sent):
            remaining = qb
            while remaining:
                take = rng.randint(1, remaining)
                chunks.append((qudit, take))
                remaining -= take
        rng.shuffle(chunks)

        groups: list[list[tuple[int, int]]] = []
        i = 0
        while i < len(chunks):
            group = [chunks[i]]
            i += 1
            while (
                i < len(chunks)
                and len(group) < 3
                and rng.random() < 0.35
                and chunks[i][0] not in {g[0] for g in group}
            ):
                group.append(chunks[i])
                i += 1
            groups.append(group)
        if len(groups) > max_photons:
            continue

        channels = tuple(
            Channel(f"c{j}", rng.uniform(0.05, 1.0)) for j in range(rng.randint(1, 3))
        )
        photons = tuple(
            Photon(channels[rng.randrange(len(channels))].id, tuple(group))
            for group in groups
        )
        return MultiplexConfiguration(code, channels, photons, withheld)


@st.composite
def two_channel_layouts(draw, max_photons: int = 12) -> MultiplexConfiguration:
    """Valid layouts on channels "a" and "b" (both at p = 1/2) of at most
    ``max_photons`` photons and d <= 11.  Each sent qudit is held by a nonempty
    set of photon slots, which deal its qubits one each and the rest to the
    first; empty slots send no photon.  Shrinks toward fewer slots, so fewer
    photons, and toward the smallest code, so fewer qudits."""
    d, k = draw(st.sampled_from(CODE_CHOICES))
    code = QrsCode(d, k)
    withheld = draw(st.integers(0, min(code.tolerance(), 2)))
    slots = draw(st.integers(1, max_photons))
    qubits = code.qubits_per_qudit()
    carries: list[list[tuple[int, int]]] = [[] for _ in range(slots)]
    for qudit in range(d - withheld):
        holders = st.sets(st.integers(0, slots - 1), min_size=1, max_size=min(qubits, slots))
        first, *rest = sorted(draw(holders))
        carries[first].append((qudit, qubits - len(rest)))
        for slot in rest:
            carries[slot].append((qudit, 1))
    on = draw(st.lists(st.sampled_from("ab"), min_size=slots, max_size=slots))
    photons = tuple(Photon(c, tuple(held)) for c, held in zip(on, carries) if held)
    channels = (Channel("a", 0.5), Channel("b", 0.5))
    return MultiplexConfiguration(code, channels, photons, withheld)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
