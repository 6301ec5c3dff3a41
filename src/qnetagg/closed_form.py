"""Closed-form packet success probabilities for the standard layouts.

These are the closed-form evaluators: binomial tails for uniform single- and
two-channel layouts, plus the two fixed shared-photon polynomials for the
6-photon/7-qudit and 15-photon/11-qudit layouts, each written once as its
count table of surviving loss patterns by arrivals per channel and summed by
one evaluator.  Binomial coefficients are exact integers (``math.comb``).  A
float binomial term is computed from the logarithm of its exact coefficient,
so none overflows at any d; terms are summed left to right.  Passing
:class:`fractions.Fraction` probabilities keeps the arithmetic exact, which
the tests use to bound the double-precision roundoff.  The module is
independent of :mod:`engine`, so the two check each other.

``ps6`` and ``ps15`` also take numpy arrays of probabilities.  Inputs and
results follow the rules of :mod:`model`: every code passes ``check_code``,
every probability argument ``check_probability`` and every return value
``clamp_roundoff``.
"""

from __future__ import annotations

from math import comb, exp, log

from .model import QrsCode, check_code, check_probability, clamp_roundoff, photons_per_qudit


class WithheldExceedsTolerance(ValueError):
    """More withheld qudits than the code can absorb."""


class ToleranceMismatch(ValueError):
    """Two-channel closed form requires a single-logical-qudit code (2k - d = 1)."""


def qudit_survival(code: QrsCode, q: int, p):
    """Per-qudit survival p**m with m photons per qudit at degree q."""
    return p ** photons_per_qudit(code, q)


def _binomial_terms(n: int, P, upto: int) -> list:
    """C(n, j) P^(n-j) (1-P)^j for j = 0..min(upto, n).

    Fractions and ints stay exact.  A float term is exp(log C(n, j) +
    (n-j) log P + j log(1-P)): ``math.log`` takes the exact integer C(n, j),
    so no factor overflows at any n; a factor 0^0 counts as 1.
    """
    W = 1 - P
    if not isinstance(P, float):
        return [comb(n, j) * P ** (n - j) * W**j for j in range(min(upto, n) + 1)]
    terms = []
    c = 1
    for j in range(min(upto, n) + 1):
        if j:
            c = c * (n - j + 1) // j
        if (P == 0 and j < n) or (W == 0 and j > 0):
            terms.append(0.0)
            continue
        exponent = log(c)
        if j < n:
            exponent += (n - j) * log(P)
        if j:
            exponent += j * log(W)
        terms.append(exp(exponent))
    return terms


def ps_single(code: QrsCode, q: int, p):
    """Success probability with all d qudits in one channel.

    sum_{j=0}^{d-k} C(d, j) P^(d-j) (1-P)^j  with  P = p^ceil(log2(d)/q).
    """
    return ps_single_withheld(code, q, p, 0)


def ps_single_withheld(code: QrsCode, q: int, p, withheld: int):
    """Single-channel success when only d - withheld qudits are sent.

    The withheld qudits consume tolerance up front:
    sum_{j=0}^{d-k-l} C(d-l, j) P^(d-l-j) (1-P)^j.
    """
    check_code(code)
    check_probability("p", p)
    if withheld < 0:
        raise ValueError("withheld must be non-negative")
    if withheld > code.tolerance():
        raise WithheldExceedsTolerance(
            f"withheld={withheld} exceeds tolerance {code.tolerance()}"
        )
    P = qudit_survival(code, q, p)
    terms = _binomial_terms(code.d - withheld, P, code.tolerance() - withheld)
    return clamp_roundoff(sum(terms))


def ps_two_channel(code: QrsCode, q: int, n: int, p_a, p_b):
    """Success with n qudits in channel B and d - n in channel A.

    sum_{i=0}^{(d-1)/2} sum_{j=0}^{i} C(n, i-j) P_B^(n-(i-j)) (1-P_B)^(i-j)
                                    * C(d-n, j) P_A^(d-n-j) (1-P_A)^j

    The outer bound (d-1)/2 equals the tolerance only for codes with a single
    logical qudit (2k - d = 1); other codes are rejected.  Terms whose loss
    count exceeds a block size are zero and skipped.
    """
    check_code(code)
    check_probability("p_a", p_a)
    check_probability("p_b", p_b)
    if code.logical_qudits() != 1:
        raise ToleranceMismatch(f"2k-d={code.logical_qudits()}, need exactly 1")
    d = code.d
    if not (0 <= n <= d):
        raise ValueError(f"n={n} outside 0..{d}")
    top = (d - 1) // 2
    b = _binomial_terms(n, qudit_survival(code, q, p_b), top)
    a = _binomial_terms(d - n, qudit_survival(code, q, p_a), top)
    total = sum(
        b[i - j] * a[j]
        for i in range(top + 1)
        for j in range(i + 1)
        if i - j <= n and j <= d - n
    )
    return clamp_roundoff(total)


def _table_sum(table: dict, p1, p2):
    """sum T[a, b] p1^a (1-p1)^(n1-a) p2^b (1-p2)^(n2-b) over a count ``table``
    ``{(a, b): T[a, b]}`` in its order; its largest key is ``(n1, n2)``, every
    photon arriving."""
    check_probability("p1", p1)
    check_probability("p2", p2)
    n1, n2 = max(table)
    w1, w2 = 1 - p1, 1 - p2
    total = sum(
        c * p1**a * w1 ** (n1 - a) * p2**b * w2 ** (n2 - b) for (a, b), c in table.items()
    )
    return clamp_roundoff(total)


# Count table T[a, b] of the 6-photon/7-qudit layout: a of the three channel-1
# (degree-3) photons and b of the three channel-2 (degree-4) photons arrive.
PS6_TABLE = {  # by photons lost: 0, 1, 2, 3
    (3, 3): 1,
    (3, 2): comb(3, 1), (2, 3): comb(3, 1),
    (2, 2): comb(3, 1) * comb(3, 1), (3, 1): comb(3, 2), (1, 3): comb(3, 2),
    (0, 3): 1,
}

# Count table of the 15-photon/11-qudit layout: a of the eight channel-1
# (degree-2) photons and b of the seven channel-2 (degree-4) photons arrive.
PS15_TABLE = {  # by photons lost: 0, 1, 2, 3, 4, 5
    (8, 7): 1,
    (8, 6): comb(7, 1), (7, 7): comb(8, 1),
    (8, 5): comb(7, 2), (6, 7): comb(8, 2), (7, 6): comb(7, 1) * comb(8, 1),
    # of the C(7,3) three-subsets of channel-2 photons, 20 erase six distinct
    # qudits and are fatal
    (8, 4): comb(7, 3) - 20,
    (5, 7): comb(8, 3), (7, 5): comb(7, 2) * comb(8, 1), (6, 6): comb(7, 1) * comb(8, 2),
    (4, 7): comb(8, 4), (5, 6): comb(7, 1) * comb(8, 3),
    # the two mixed corrections subtract the analogous fatal combinations
    # with two or one channel-1 photons also lost
    (6, 5): comb(7, 2) * comb(8, 2) - 3 * (
        comb(2, 1) * comb(2, 1) * comb(6, 2) + comb(2, 1) * comb(1, 1) * comb(5, 2)
    ),
    (7, 4): comb(7, 3) * comb(8, 1) - (
        3 * (comb(2, 2) * comb(2, 1) * comb(5, 1) + comb(2, 2) * comb(1, 1) * comb(4, 2))
        + 20 * comb(8, 1)
    ),
    (3, 7): comb(8, 5),
}


def ps6(p1, p2):
    """Success polynomial of the 6-photon/7-qudit shared-photon layout.

    Channel 2 carries the three degree-4 photons (each holding one full qudit
    plus one qubit of the shared qudit); channel 1 carries the three degree-3
    photons.  Seven terms of :data:`PS6_TABLE`: every photon-loss pattern that
    erases at most three qudits.
    """
    return _table_sum(PS6_TABLE, p1, p2)


def ps15(p1, p2):
    """Success polynomial of the 15-photon/11-qudit mixed-degree layout.

    Channel 2 carries seven degree-4 photons, each spanning two qudits with
    2+2 qubits; channel 1 carries eight degree-2 photons, each holding half
    of one qudit.  Fifteen terms of :data:`PS15_TABLE`, whose corrected
    coefficients (C(7,3)-20 = 15, 348, 72) remove loss patterns that erase
    more than five qudits.
    """
    return _table_sum(PS15_TABLE, p1, p2)
