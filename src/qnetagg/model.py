"""Domain model: erasure codes, lossy channels, and photon/qudit layouts.

A packet of ``d`` qudits (dimension ``d``, prime) survives transmission when
at most ``d - k`` qudits are erased.  Each qudit is physically carried by
``ceil(log2 d)`` qubits packed onto photons; losing a photon erases every
qudit it carries a qubit of.  A configuration records which photon carries
which qubits and which channel each photon travels through.

The input and result rules of every module live here: :func:`check_int`,
:func:`check_code`, :func:`withheld_violations`, :func:`check_counts`,
:func:`check_probability` and :func:`check_scalar_channels` for inputs,
:func:`clamp_roundoff` for results.

All types are immutable; instances can be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, compress, count
from numbers import Integral
from operator import index, is_not
from typing import Sequence

import numpy as np

ROUNDOFF = 1e-12
# Largest code dimension d accepted: :func:`is_prime` is trial division, which
# would not finish for a huge d, and no evaluation at that scale is practical.
MAX_D = 2**16


class SplitMismatch(ValueError):
    """Qudit counts of a channel split do not sum to the number sent."""


class ArrayProbability(TypeError):
    """An oracle that takes one probability per channel was given an array."""


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


def _first_outside(value, lo: float, hi: float) -> tuple:
    """``(entry,)`` for the first entry of a number or numpy array outside
    [lo, hi] (NaN is never inside), ``()`` when every entry lies in it."""
    if isinstance(value, np.ndarray):
        if value.size == 0 or lo <= value.min() <= value.max() <= hi:  # NaN fails
            return ()
        return tuple(value[~((value >= lo) & (value <= hi))][:1])
    return () if lo <= value <= hi else (value,)


def check_int(name: str, value) -> int:
    """``value`` as an int; ``TypeError`` naming ``name`` for a bool or a non-integer
    (numpy integers convert).  Never truncated: 7.0 would pass trial division as a
    prime and ``True`` would index a numpy array as a mask."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return int(value)


def check_probability(name: str, value) -> None:
    """Raise ``ValueError`` naming ``value``, or its first bad entry, unless a
    number, a Fraction or every entry of a numpy array lies in [0, 1]."""
    for bad in _first_outside(value, 0, 1):
        raise ValueError(f"{name}={bad} outside [0, 1]")


def check_scalar_channels(config: "MultiplexConfiguration", oracle: str) -> None:
    """Raise :class:`ArrayProbability` naming the first channel whose ``p`` is
    an array; ``oracle`` names the caller in the message."""
    for ch in config.channels:
        if np.ndim(ch.p) != 0:
            raise ArrayProbability(
                f"{oracle} takes one probability per channel, but channel {ch.id!r} has "
                f"p of shape {np.shape(ch.p)}; evaluate arrays with "
                "success_probability or loss_distribution"
            )


def clamp_roundoff(value):
    """A computed probability: ``ArithmeticError`` more than ``ROUNDOFF``
    outside [0, 1]; floats and arrays clamped into it, exact values unchanged."""
    for bad in _first_outside(value, -ROUNDOFF, 1 + ROUNDOFF):
        raise ArithmeticError(f"probability {bad} outside [0, 1] beyond roundoff")
    if isinstance(value, np.ndarray):
        return value.clip(0.0, 1.0)
    return min(max(float(value), 0.0), 1.0) if isinstance(value, float) else value


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
    """Erasure-code parameters ``(d, k)``, integers (a bool or a float raises ``TypeError``).

    ``d`` physical qudits of dimension ``d`` encode ``2k - d`` logical
    qudits and tolerate up to ``d - k`` erasures.  Parameter sanity beyond
    positivity (``d <= MAX_D``, primality of ``d``, ``1 <= k <= d``,
    ``2k - d >= 1``) is reported by :func:`validate` so that malformed inputs
    can be diagnosed rather than rejected at construction.
    """

    d: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_int("d", self.d))
        object.__setattr__(self, "k", check_int("k", self.k))
        if self.d < 1 or self.k < 1:
            raise ValueError("code parameters must be positive")

    def tolerance(self) -> int:
        """Maximum number of erased qudits the code recovers from."""
        return self.d - self.k

    def qubits_per_qudit(self) -> int:
        """ceil(log2(d)), at least 1: qubits needed to hold one qudit."""
        return max(1, (self.d - 1).bit_length())

    def logical_qudits(self) -> int:
        return 2 * self.k - self.d

    def check(self) -> list[Violation]:
        out = []
        if self.d > MAX_D:  # before primality, which takes ~sqrt(d) steps
            out.append(Violation("bad-code-parameters", f"d={self.d} exceeds MAX_D={MAX_D}"))
        elif not is_prime(self.d):
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


def check_code(code: QrsCode) -> None:
    """Raise ``ValueError`` naming the code's first violation, if any."""
    violations = code.check()
    if violations:
        raise ValueError(f"code d={code.d} k={code.k}: {violations[0]}")


def withheld_violations(code: QrsCode, withheld: int) -> list[Violation]:
    """``[violation]`` for a ``withheld`` count outside 0..tolerance, else ``[]``."""
    if withheld < 0:
        return [Violation("withheld-exceeds-tolerance", "withheld count is negative")]
    if withheld > code.tolerance():
        message = f"withheld={withheld} exceeds tolerance {code.tolerance()}"
        return [Violation("withheld-exceeds-tolerance", message)]
    return []


def check_counts(code: QrsCode, counts, name: str) -> list[int]:
    """``counts``, qudits in consecutive blocks, as Python ints.  ``TypeError`` by
    :func:`check_int` naming ``name``, ``ValueError`` naming the first count that
    is negative or brings the running total above d."""
    out, total = [], 0
    for n in counts:
        n = check_int(name, n)
        total += n
        if n < 0 or total > code.d:
            raise ValueError(f"block of {n} qudits: counts must be >= 0 and total <= d={code.d}")
        out.append(n)
    return out


@dataclass(frozen=True)
class Channel:
    """A lossy channel: photons arrive with probability ``p``, a float, a Fraction
    (exact results) or, for the engine's walk, a numpy array (one per entry)."""

    id: str
    p: float

    def __post_init__(self) -> None:
        check_probability(f"channel {self.id!r}: p", self.p)


@dataclass(frozen=True)
class Photon:
    """One photon: the channel it travels through and the qubits it carries.

    ``carries`` lists ``(qudit_index, qubit_count)`` pairs of integers (numpy
    integers convert; a float or a string raises ``TypeError``); the
    multiplexing degree is the total qubit count.  Losing the photon erases
    every listed qudit.
    """

    channel_id: str
    carries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "carries", tuple((index(a), index(b)) for a, b in self.carries))

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
    are ``0 .. d - withheld - 1``.  A bool or non-integer ``withheld`` raises
    ``TypeError``.  ``runs``, found in one C-level pass when the configuration is
    built and outside ``==``, hashing and ``repr``, holds the first slot of each run
    of one photon object in consecutive slots, then ``len(photons)``, so
    ``zip(runs, runs[1:])`` yields each run's ``(first, end)``.
    """

    code: QrsCode
    channels: tuple[Channel, ...]
    photons: tuple[Photon, ...]
    withheld: int = 0
    runs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "photons", tuple(self.photons))
        object.__setattr__(self, "withheld", check_int("withheld", self.withheld))
        starts = compress(count(), map(is_not, self.photons, chain((None,), self.photons)))
        object.__setattr__(self, "runs", (*starts, len(self.photons)))

    @property
    def transmitted(self) -> int:
        return self.code.d - self.withheld

    def photon_probabilities(self) -> list[float]:
        """Arrival probability per photon, in photon order."""
        by_id = {ch.id: ch.p for ch in self.channels}
        return [by_id[ph.channel_id] for ph in self.photons]


def _photon_violations(ph: Photon, idx: int, known: set, transmitted: int) -> list[Violation]:
    """The rules photon ``ph`` breaks in slot ``idx``."""
    out = []
    if ph.channel_id not in known:
        message = f"photon {idx} uses channel {ph.channel_id!r}"
        out.append(Violation("unknown-channel", message, idx))
    mark, degree = len(out), 0  # summed here: the ``degree`` property re-sums per read
    seen = set() if len(ph.carries) > 1 else None  # one carry repeats no qudit
    for qudit, n in ph.carries:
        degree += n
        if n < 1:
            out.append(Violation("bad-qubit-count", f"photon {idx}: qubit count {n} < 1", idx))
        if seen is not None:
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
    if degree < 1:
        out.insert(mark, Violation("bad-qubit-count", f"photon {idx} carries no qubits", idx))
    return out


def violations(config: MultiplexConfiguration) -> list[Violation]:
    """Collect every broken invariant of ``config`` (empty list if valid).

    A run of one photon object (``config.runs``) adds its length times the photon's
    qubits to the totals in one step and is checked at its first slot.  A photon
    that breaks a rule is checked at each slot of its run, so the report is that of
    equal distinct photons.
    """
    out = list(config.code.check())
    if config.code.d > MAX_D:  # the layout of a code beyond the bound is not read
        return out
    per_qudit = config.code.qubits_per_qudit()

    out += withheld_violations(config.code, config.withheld)

    ids = [ch.id for ch in config.channels]
    dup = {i for i in ids if ids.count(i) > 1}
    for i in sorted(dup):
        out.append(Violation("duplicate-channel", f"channel id {i!r} appears more than once"))
    known = set(ids)

    transmitted = max(config.transmitted, 0)
    qubit_totals = [0] * transmitted
    for first, end in zip(config.runs, config.runs[1:]):
        ph = config.photons[first]
        for qudit, n in ph.carries:
            if 0 <= qudit < transmitted:
                qubit_totals[qudit] += (end - first) * n
        report = _photon_violations(ph, first, known, transmitted)
        if report:  # a photon that breaks a rule is reported at every slot of its run
            out += report
            for idx in range(first + 1, end):
                out += _photon_violations(ph, idx, known, transmitted)

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
    """Photons needed per qudit when every photon carries up to ``q`` qubits (an
    integer: a bool or a float raises ``TypeError``)."""
    if check_int("q", q) < 1:
        raise ValueError("q must be >= 1")
    return -(-code.qubits_per_qudit() // q)


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
    consecutive qudit blocks to channels (counts by :func:`check_counts`) and must
    cover all ``d - withheld`` transmitted qudits, else :class:`SplitMismatch`.  A
    qudit's photons of one qubit count are one object, repeated in each of their
    slots: photons are immutable, and which equal photons are one object means nothing.
    """
    m = photons_per_qudit(code, q)
    sent = code.d - withheld
    total = sum(check_counts(code, [count for _, count in split], "split count"))
    if total != sent:
        raise SplitMismatch(f"split covers {total} qudits, expected {sent}")
    sizes = [q] * (m - 1) + [code.qubits_per_qudit() - q * (m - 1)]
    owners = [channel.id for channel, count in split for _ in range(count)]
    photons, distinct = [], dict.fromkeys(sizes)
    for qudit, ch in enumerate(owners):
        one = {n: Photon(ch, ((qudit, n),)) for n in distinct}
        photons += [one[n] for n in sizes]
    return MultiplexConfiguration(code, tuple(ch for ch, _ in split), photons, withheld)


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
# One :func:`read_object` call reads each object of it (and of an allocation problem,
# ``planner.problem_from_dict``), naming every key the object may hold with its kind.

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


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number"}


def read_object(obj, where: str, **fields) -> list:
    """The values, in ``fields`` order, of the JSON object ``obj`` (``where`` names it):
    ``key=kind`` (``dict``, ``list``, ``str``, ``int`` or ``float``, any number read as a
    float) or ``key=(kind, default)``.  ``ValueError`` names a bad key or value."""
    if type(obj) is dict and len(obj) == len(fields):  # the common case: one type test a key
        values = []
        for key, kind in fields.items():
            value = obj.get(key)
            if type(value) is not kind:
                break
            values.append(value)
        else:
            return values
    if not isinstance(obj, dict):
        raise ValueError(f"malformed document: {type(obj).__name__} holds no {[*fields][0]!r}")
    if not obj.keys() <= fields.keys():
        unknown = min(obj.keys() - fields.keys())
        raise ValueError(f"malformed document: unknown key {unknown!r} in {where}")
    values = []
    for key, kind in fields.items():
        kind, default = kind if type(kind) is tuple else (kind, None)
        if key not in obj and default is None:  # a JSON null is a value, of the wrong kind
            raise ValueError(f"missing key {key!r}")
        value, accepted = obj.get(key, default), (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(
                f"malformed document: {key!r} must be {_KINDS[kind]}, not {type(value).__name__}"
            )
        try:
            values.append(float(value) if kind is float else value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"malformed document: {key!r} is too large a number") from None
    return values


def config_from_dict(doc: dict) -> MultiplexConfiguration:
    """The configuration of a JSON document; ``ValueError`` names a bad key or value.

    The code is read first, then the channels, then the photons and their carries in
    document order.  Photons of one channel and equal carries are one object."""
    code, channels, photons, withheld = read_object(
        doc, "the document", code=dict, channels=list, photons=list, withheld=(int, 0)
    )
    code = QrsCode(*read_object(code, "'code'", d=int, k=int))
    channels = tuple(Channel(*read_object(c, "a channel", id=str, p=float)) for c in channels)
    shared: dict[tuple, Photon] = {}  # (channel, carries): its one photon

    def photon(obj) -> Photon:
        channel, carries = read_object(obj, "a photon", channel=str, carries=list)
        held = tuple(tuple(read_object(c, "a carry", qudit=int, qubits=int)) for c in carries)
        key = channel, held
        if key not in shared:
            shared[key] = Photon(channel, held)
        return shared[key]

    return MultiplexConfiguration(code, channels, tuple(map(photon, photons)), withheld)


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; ``ValueError`` names a key it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise ValueError(f"malformed document: duplicate key {repeated!r} in one object")
    return obj


def read_document(path: str):
    """The JSON document at ``path``; ``ValueError`` names a key repeated in an object."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def load_config(path: str) -> MultiplexConfiguration:
    return config_from_dict(read_document(path))


def save_config(config: MultiplexConfiguration, path: str) -> None:
    text = json.dumps(config_to_dict(config), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
