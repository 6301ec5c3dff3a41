"""Closed-form packet success probabilities for the standard layouts.

These are the closed-form evaluators: binomial tails for uniform single- and
two-channel layouts, plus the two fixed shared-photon polynomials for the
6-photon/7-qudit and 15-photon/11-qudit layouts, each written once as its
count table of surviving loss patterns by arrivals per channel and summed by
one evaluator.  Binomial coefficients are exact integers (``math.comb``).  A
float binomial term is computed from the logarithm of its exact coefficient,
so none overflows at any d.  The binomial tails are one sum over one or two
blocks, in one pass: one block's terms left to right, and each term of a first
block times a running sum of the second's.  Passing
:class:`fractions.Fraction` probabilities keeps the arithmetic exact, which
the tests use to bound the double-precision roundoff.  The module is
independent of :mod:`engine`, so the two check each other.

Float range: a float term's three logs grow with the number of qudits summed
over and cancel, so the binomial tails' error grows with it.  Against a 50-digit
sum at d = 4099, the worst error over survivals 0.45..0.70 in steps of 0.01 is
2.4e-13 for ``ps_single``, and 2.6e-13 for ``ps_two_channel`` over half those
steps for the second channel and n = d/5, d/3, d/2 and 4d/5; ``ps_single``'s
is 6.1e-13 at d = 8191 and 1.1e-12 at 16411.  A float tail over more than
:data:`FLOAT_BLOCK_MAX` = 4099 qudits (d - withheld, or d for two channels),
where 1e-12 still holds with a margin above 2, raises :class:`FloatBlockTooLarge`;
Fractions stay exact at any d, and ``engine.block_success`` holds 1e-13 up to
d = 65521.

``ps6`` and ``ps15`` also take numpy arrays of probabilities; the binomial
tails raise :class:`~qnetagg.model.ArrayProbability` for one.  Inputs and
results follow the rules of :mod:`model`: every code passes ``check_code``, the
withheld count ``withheld_violations`` and n ``check_counts``, every probability
argument ``check_probability`` and every return value ``clamp_roundoff``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, exp, log

import numpy as np

from .model import (
    ArrayProbability, QrsCode, check_code, check_counts, check_int, check_probability,
    clamp_roundoff, photons_per_qudit, withheld_violations,
)

FLOAT_BLOCK_MAX = 4099  # most qudits a float binomial tail sums over (module docstring)


class FloatBlockTooLarge(ValueError):
    """A float binomial tail over more than :data:`FLOAT_BLOCK_MAX` qudits."""


def qudit_survival(code: QrsCode, q: int, p):
    """Per-qudit survival p**m with m photons per qudit at degree q."""
    return p ** photons_per_qudit(code, q)


def _binomial_terms(n: int, P, upto: int) -> list:
    """C(n, j) P^(n-j) (1-P)^j for j = 0..min(upto, n).

    Fractions and ints stay exact.  Any other P, a numpy float32 too, is taken
    as the Python float it holds, and a float term is exp(log C(n, j) +
    (n-j) log P + j log(1-P)): ``math.log`` takes the exact integer C(n, j),
    so no factor overflows at any n; a factor 0^0 counts as 1.
    """
    if isinstance(P, (Fraction, int)):
        return [comb(n, j) * P ** (n - j) * (1 - P) ** j for j in range(min(upto, n) + 1)]
    P = float(P)
    W = 1 - P
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


def _tail(budget: int, *blocks):
    """P(at most ``budget`` qudits lost) over one or two blocks ``(qudits, survival)``:
    sum_i b[i] (a[0] + ... + a[budget - i]), b and a the blocks' :func:`_binomial_terms`,
    the second's running sums formed once.  One block is summed against the running
    sums [1] of an empty second, so term by term, left to right.

    :class:`~qnetagg.model.ArrayProbability` for an array survival, and else
    :class:`FloatBlockTooLarge` for an inexact one (any but a Fraction or an int, so a
    numpy float32 too) when the blocks hold more than :data:`FLOAT_BLOCK_MAX` qudits."""
    for _, survival in blocks:
        if isinstance(survival, np.ndarray):
            raise ArrayProbability(
                f"the binomial tails take one probability per channel, not an array of "
                f"shape {survival.shape}; evaluate arrays with engine.block_success"
            )
    qudits = sum(n for n, _ in blocks)
    for _, survival in blocks:
        if not isinstance(survival, (Fraction, int)) and qudits > FLOAT_BLOCK_MAX:
            raise FloatBlockTooLarge(
                f"a float tail over {qudits} qudits passes FLOAT_BLOCK_MAX={FLOAT_BLOCK_MAX}, "
                "above which it may miss 1e-12; pass Fractions or use engine.block_success"
            )
    (n_b, s_b), (n_a, s_a) = (*blocks, (0, 1))[:2]
    running = list(accumulate(_binomial_terms(n_a, s_a, budget)))
    terms = enumerate(_binomial_terms(n_b, s_b, budget))
    return clamp_roundoff(sum(x * running[min(budget - i, len(running) - 1)] for i, x in terms))


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
    for violation in withheld_violations(code, check_int("withheld", withheld)):
        raise ValueError(str(violation))
    block = (code.d - withheld, qudit_survival(code, q, p))
    return _tail(code.tolerance() - withheld, block)


def ps_two_channel(code: QrsCode, q: int, n: int, p_a, p_b):
    """Success with n qudits in channel B and d - n in channel A.

    sum_{i=0}^{d-k} C(n, i) P_B^(n-i) (1-P_B)^i
                    * sum_{j=0}^{d-k-i} C(d-n, j) P_A^(d-n-j) (1-P_A)^j,

    d - k being (d - 1)/2 for a code of one logical qudit (2k - d = 1), the paper's
    formula; the inner sums are one running sum.  Terms whose loss count exceeds a
    block size are zero and skipped.
    """
    check_code(code)
    check_probability("p_a", p_a)
    check_probability("p_b", p_b)
    (n,) = check_counts(code, [n], "n")
    blocks = (n, qudit_survival(code, q, p_b)), (code.d - n, qudit_survival(code, q, p_a))
    return _tail(code.tolerance(), *blocks)


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
