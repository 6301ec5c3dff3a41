"""Domain model: erasure codes, lossy channels, and photon/qudit layouts.

A packet of ``d`` qudits (dimension ``d``, prime) survives transmission when
at most ``d - k`` qudits are erased.  Each qudit is physically carried by
``ceil(log2 d)`` qubits packed onto photons; losing a photon erases every
qudit it carries a qubit of.  A configuration records which photon carries
which qubits and which channel each photon travels through.

All types are immutable; instances can be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence


class SplitMismatch(ValueError):
    """Qudit counts of a channel split do not sum to the number sent."""


class InvalidConfiguration(ValueError):
    """Raised by :func:`validate`; carries the full violation report."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Violation:
    """One broken invariant.

    ``kind`` is one of ``non-prime-d``, ``bad-code-parameters``,
    ``qubit-count-mismatch``, ``duplicate-qudit``, ``unknown-channel``,
    ``duplicate-channel``, ``withheld-exceeds-tolerance``,
    ``bad-qudit-index``, ``bad-qubit-count``.  ``subject`` names the
    offending photon or qudit index where applicable.
    """

    kind: str
    message: str
    subject: int | None = None

    def __str__(self) -> str:
        if self.subject is None:
            return f"{self.kind}: {self.message}"
        return f"{self.kind} [{self.subject}]: {self.message}"


def is_prime(n: int) -> bool:
    """Trial-division primality; adequate for the desk-scale d used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class QrsCode:
    """Erasure-code parameters ``(d, k)``.

    ``d`` physical qudits of dimension ``d`` encode ``2k - d`` logical
    qudits and tolerate up to ``d - k`` erasures.  Parameter sanity beyond
    positivity (primality of ``d``, ``1 <= k <= d``, ``2k - d >= 1``) is
    reported by :func:`validate` so that malformed inputs can be diagnosed
    rather than rejected at construction.
    """

    d: int
    k: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.k < 1:
            raise ValueError("code parameters must be positive")

    def tolerance(self) -> int:
        """Maximum number of erased qudits the code recovers from."""
        return self.d - self.k

    def qubits_per_qudit(self) -> int:
        """ceil(log2(d)): qubits needed to hold one qudit."""
        if self.d == 1:
            return 1
        return max(1, (self.d - 1).bit_length())

    def logical_qudits(self) -> int:
        return 2 * self.k - self.d

    def check(self) -> list[Violation]:
        out = []
        if not is_prime(self.d):
            out.append(Violation("non-prime-d", f"d={self.d} is not prime"))
        if not (1 <= self.k <= self.d):
            out.append(Violation("bad-code-parameters", f"k={self.k} outside 1..d"))
        elif self.logical_qudits() < 1:
            out.append(
                Violation(
                    "bad-code-parameters",
                    f"2k-d={self.logical_qudits()} leaves no logical qudit",
                )
            )
        return out


@dataclass(frozen=True)
class Channel:
    """A lossy channel: each photon sent through it arrives with probability ``p``."""

    id: str
    p: float

    def __post_init__(self) -> None:
        if not (0 <= self.p <= 1):
            raise ValueError(f"channel {self.id!r}: p={self.p} outside [0, 1]")


@dataclass(frozen=True)
class Photon:
    """One photon: the channel it travels through and the qubits it carries.

    ``carries`` lists ``(qudit_index, qubit_count)`` pairs; the multiplexing
    degree is the total qubit count.  Losing the photon erases every listed
    qudit.
    """

    channel_id: str
    carries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "carries", tuple((int(a), int(b)) for a, b in self.carries))

    @property
    def degree(self) -> int:
        return sum(n for _, n in self.carries)

    @property
    def qudits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.carries)


@dataclass(frozen=True)
class MultiplexConfiguration:
    """Complete description of one transmission.

    ``withheld`` qudits (the top indices, by convention) are encoded but not
    sent; they consume erasure tolerance up front.  Transmitted qudit indices
    are ``0 .. d - withheld - 1``.
    """

    code: QrsCode
    channels: tuple[Channel, ...]
    photons: tuple[Photon, ...]
    withheld: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "photons", tuple(self.photons))

    @property
    def transmitted(self) -> int:
        return self.code.d - self.withheld

    def photon_probabilities(self) -> list[float]:
        """Arrival probability per photon, in photon order."""
        by_id = {ch.id: ch.p for ch in self.channels}
        return [by_id[ph.channel_id] for ph in self.photons]


def violations(config: MultiplexConfiguration) -> list[Violation]:
    """Collect every broken invariant of ``config`` (empty list if valid)."""
    out = list(config.code.check())
    d = config.code.d
    per_qudit = config.code.qubits_per_qudit()

    if config.withheld < 0:
        out.append(Violation("withheld-exceeds-tolerance", "withheld count is negative"))
    elif config.withheld > config.code.tolerance():
        out.append(
            Violation(
                "withheld-exceeds-tolerance",
                f"withheld={config.withheld} exceeds tolerance {config.code.tolerance()}",
            )
        )

    ids = [ch.id for ch in config.channels]
    dup = {i for i in ids if ids.count(i) > 1}
    for i in sorted(dup):
        out.append(Violation("duplicate-channel", f"channel id {i!r} appears more than once"))
    known = set(ids)

    transmitted = max(config.transmitted, 0)
    qubit_totals = [0] * transmitted
    for idx, ph in enumerate(config.photons):
        if ph.channel_id not in known:
            out.append(
                Violation("unknown-channel", f"photon {idx} uses channel {ph.channel_id!r}", idx)
            )
        if ph.degree < 1:
            out.append(Violation("bad-qubit-count", f"photon {idx} carries no qubits", idx))
        seen: set[int] = set()
        for qudit, count in ph.carries:
            if count < 1:
                out.append(
                    Violation("bad-qubit-count", f"photon {idx}: qubit count {count} < 1", idx)
                )
            if qudit in seen:
                out.append(
                    Violation("duplicate-qudit", f"photon {idx} lists qudit {qudit} twice", idx)
                )
            seen.add(qudit)
            if not (0 <= qudit < transmitted):
                out.append(
                    Violation(
                        "bad-qudit-index",
                        f"photon {idx} carries qudit {qudit}, outside 0..{transmitted - 1}",
                        idx,
                    )
                )
            else:
                qubit_totals[qudit] += count

    for qudit, total in enumerate(qubit_totals):
        if total != per_qudit:
            out.append(
                Violation(
                    "qubit-count-mismatch",
                    f"qudit {qudit} receives {total} qubits, needs {per_qudit}",
                    qudit,
                )
            )
    return out


def validate(config: MultiplexConfiguration) -> MultiplexConfiguration:
    """Return ``config`` unchanged if every invariant holds.

    Raises :class:`InvalidConfiguration` carrying the full report otherwise.
    """
    report = violations(config)
    if report:
        raise InvalidConfiguration(report)
    return config


def photons_per_qudit(code: QrsCode, q: int) -> int:
    """Photons needed per qudit when every photon carries up to ``q`` qubits."""
    if q < 1:
        raise ValueError("q must be >= 1")
    qb = code.qubits_per_qudit()
    return -(-qb // q)


def uniform_configuration(
    code: QrsCode,
    q: int,
    split: Sequence[tuple[Channel, int]],
    withheld: int = 0,
) -> MultiplexConfiguration:
    """Canonical layout: no photon spans two qudits.

    Each qudit is carried by exactly ``ceil(qubits_per_qudit / q)`` photons,
    all in that qudit's channel; the last photon of a qudit may carry fewer
    than ``q`` qubits so the per-qudit total is exact.  ``split`` assigns
    consecutive qudit blocks to channels and must cover all ``d - withheld``
    transmitted qudits.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    sent = code.d - withheld
    total = sum(count for _, count in split)
    if total != sent:
        raise SplitMismatch(f"split covers {total} qudits, expected {sent}")
    qb = code.qubits_per_qudit()
    photons: list[Photon] = []
    qudit = 0
    for channel, count in split:
        for _ in range(count):
            remaining = qb
            while remaining > 0:
                take = min(q, remaining)
                photons.append(Photon(channel.id, ((qudit, take),)))
                remaining -= take
            qudit += 1
    channels = tuple(ch for ch, _ in split)
    return MultiplexConfiguration(code, channels, tuple(photons), withheld)


def shared7_configuration(p1: float, p2: float) -> MultiplexConfiguration:
    """Seven-qudit layout with a shared qudit spread over the better channel.

    Six photons encode seven qudits (d=7, k=4).  Photons R1..R3 travel in
    channel 2 (probability ``p2``) and carry all three qubits of qudits
    0, 1, 2 plus one qubit each of the shared qudit 6.  Photons B1..B3
    travel in channel 1 (``p1``) and carry all three qubits of qudits
    3, 4, 5.  Losing any R photon erases its own qudit and the shared one.
    """
    ch1 = Channel("ch1", p1)
    ch2 = Channel("ch2", p2)
    photons = [
        Photon("ch2", ((0, 3), (6, 1))),
        Photon("ch2", ((1, 3), (6, 1))),
        Photon("ch2", ((2, 3), (6, 1))),
        Photon("ch1", ((3, 3),)),
        Photon("ch1", ((4, 3),)),
        Photon("ch1", ((5, 3),)),
    ]
    return MultiplexConfiguration(QrsCode(7, 4), (ch1, ch2), tuple(photons), 0)


# --- configuration documents -------------------------------------------------
#
# JSON schema consumed by the command-line tools:
# {"code": {"d": 7, "k": 4}, "withheld": 0,
#  "channels": [{"id": "ch1", "p": 0.96}],
#  "photons": [{"channel": "ch1", "carries": [{"qudit": 0, "qubits": 3}]}, ...]}

SCHEMA_VERSION = 1


def config_to_dict(config: MultiplexConfiguration) -> dict:
    return {
        "code": {"d": config.code.d, "k": config.code.k},
        "withheld": config.withheld,
        "channels": [{"id": ch.id, "p": ch.p} for ch in config.channels],
        "photons": [
            {
                "channel": ph.channel_id,
                "carries": [{"qudit": qd, "qubits": n} for qd, n in ph.carries],
            }
            for ph in config.photons
        ],
    }


def config_from_dict(doc: dict) -> MultiplexConfiguration:
    code = QrsCode(int(doc["code"]["d"]), int(doc["code"]["k"]))
    channels = tuple(Channel(str(c["id"]), float(c["p"])) for c in doc["channels"])
    photons = tuple(
        Photon(
            str(p["channel"]),
            tuple((int(c["qudit"]), int(c["qubits"])) for c in p["carries"]),
        )
        for p in doc["photons"]
    )
    return MultiplexConfiguration(code, channels, photons, int(doc.get("withheld", 0)))


def load_config(path: str) -> MultiplexConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(config: MultiplexConfiguration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")
