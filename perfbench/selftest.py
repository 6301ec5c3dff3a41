"""Hand-computable cases for the reference computations.

Run with ``python3 -m pytest -q perfbench/selftest.py``.  The file is not
named ``test_*.py`` so that the package's own suite does not collect it.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import (  # noqa: E402
    flat_loss_pmf,
    poisson_binomial_pmf,
    poisson_binomial_tail,
    ring_loss_pmf,
    wilson_interval,
)


def test_poisson_binomial_two_fair_qudits():
    assert poisson_binomial_pmf([0.5, 0.5]).tolist() == [0.25, 0.5, 0.25]


def test_poisson_binomial_mixed_survivals():
    # survivals 0.9 and 0.8: none lost 0.72, one lost 0.26, both 0.02
    assert poisson_binomial_pmf([0.9, 0.8]) == pytest.approx([0.72, 0.26, 0.02], abs=1e-15)
    assert poisson_binomial_tail([0.9, 0.8], 0) == pytest.approx(0.72, abs=1e-15)
    assert poisson_binomial_tail([0.9, 0.8], -1) == 0.0


def test_poisson_binomial_matches_binomial():
    # three qudits surviving with 0.9: C(3,j) 0.1^j 0.9^(3-j)
    want = [0.729, 0.243, 0.027, 0.001]
    assert poisson_binomial_pmf([0.9] * 3) == pytest.approx(want, abs=1e-15)


def test_ring_of_three():
    # Any lost photon erases its two qudits; two or more lost erase all three.
    p = 0.9
    w = 1 - p
    want = [p**3, 0.0, 3 * p**2 * w, 3 * p * w**2 + w**3]
    assert ring_loss_pmf([p, p, p]) == pytest.approx(want, abs=1e-15)


def test_ring_of_four_single_loss():
    # One lost photon of four erases exactly two qudits.
    p = 0.8
    pmf = ring_loss_pmf([p] * 4)
    assert pmf[0] == pytest.approx(p**4, abs=1e-15)
    assert pmf[1] == 0.0
    # two qudits: exactly one photon lost
    assert pmf[2] == pytest.approx(4 * p**3 * (1 - p), abs=1e-15)


def test_flat_single_shared_photon_is_exact():
    half = Fraction(1, 2)
    assert flat_loss_pmf([half], [(0, 1)], 2) == [half, 0, half]


def test_ring_matches_flat_enumeration():
    rng = random.Random(3)
    for m in range(3, 9):
        probs = [rng.uniform(0.5, 1.0) for _ in range(m)]
        owners = [(i, (i + 1) % m) for i in range(m)]
        assert ring_loss_pmf(probs) == pytest.approx(
            flat_loss_pmf(probs, owners, m), abs=1e-14
        )


def test_flat_matches_poisson_binomial_without_sharing():
    probs = [0.9, 0.7, 0.95]
    owners = [(0,), (1,), (2,)]
    assert flat_loss_pmf(probs, owners, 3) == pytest.approx(
        poisson_binomial_pmf(probs).tolist(), abs=1e-15
    )


def test_wilson_half_is_symmetric():
    lo, hi = wilson_interval(50, 100, z=2.0)
    assert lo + hi == pytest.approx(1.0, abs=1e-15)
    # z=2, n=100, phat=1/2: centre 0.5, half = (2/1.04) * sqrt(0.0025 + 0.0001)
    assert hi - 0.5 == pytest.approx(2 / 1.04 * (0.0026**0.5), abs=1e-15)


def test_wilson_zero_width_point_estimate_has_width():
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0
    # centre - half at phat=1: (1 + z2/2n - z2/2n) / (1 + z2/n) = n / (n + z2)
    assert lo == pytest.approx(1000 / 1016, abs=1e-15)
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi == pytest.approx(16 / 1016, abs=1e-15)


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
