import ast
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binomial_tail, pgf_success, two_block_tail
from qnetagg import closed_form
from qnetagg.closed_form import (
    FLOAT_BLOCK_MAX,
    FloatBlockTooLarge,
    ps6,
    ps15,
    ps_single,
    ps_single_withheld,
    ps_two_channel,
    qudit_survival,
)
from qnetagg.engine import block_success, success_probability
from qnetagg.model import ArrayProbability, Channel, QrsCode, uniform_configuration

D43 = QrsCode(43, 22)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def pgf_single(d, k, q, p):
    P = qudit_survival(QrsCode(d, k), q, p)
    return pgf_success([P] * d, d - k)


# --- ps_single -----------------------------------------------------------------


@pytest.mark.parametrize(
    "d,k,p,anchor",
    [(3, 2, 0.98, 0.99541), (5, 3, 0.972, 0.99503), (7, 4, 0.96, 0.99545)],
)
def test_ps_single_threshold_triples(d, k, p, anchor):
    value = ps_single(QrsCode(d, k), 1, p)
    assert value == pytest.approx(pgf_single(d, k, 1, p), abs=1e-12)
    assert value == pytest.approx(anchor, abs=1e-3)
    assert value >= 0.995


def test_ps_single_d3_exact_value():
    # independent oracle (generating-function convolution), frozen
    value = ps_single(QrsCode(3, 2), 1, 0.98)
    assert value == pytest.approx(0.995419718272, abs=1e-12)
    assert value >= 0.995


def test_ps_single_lossless():
    for d, k in [(3, 2), (7, 4), (43, 22)]:
        for q in (1, 2, 5):
            assert ps_single(QrsCode(d, k), q, 1.0) == 1.0


def test_ps_single_exact_rational_matches_float():
    value_f = ps_single(QrsCode(7, 4), 1, 0.96)
    value_x = ps_single(QrsCode(7, 4), 1, Fraction(96, 100))
    assert isinstance(value_x, Fraction)
    assert abs(value_f - value_x) < 1e-12


# --- ps_single_withheld ----------------------------------------------------------


def test_withheld_zero_is_identity():
    for p in (0.3, 0.9, 0.97):
        assert ps_single_withheld(QrsCode(7, 4), 1, p, 0) == ps_single(QrsCode(7, 4), 1, p)


def test_withheld_all_tolerance_lossless():
    assert ps_single_withheld(QrsCode(7, 4), 1, 1.0, 3) == 1.0


def test_withheld_threshold_above_smaller_code():
    # sending 5 of 7 encoded qudits demands a better channel than a plain
    # 5-qudit code: one unit of tolerance is pre-spent.
    def threshold(f):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if f(mid) >= 0.995:
                hi = mid
            else:
                lo = mid
        return hi

    t_withheld = threshold(lambda p: ps_single_withheld(QrsCode(7, 4), 1, p, 2))
    t_plain = threshold(lambda p: ps_single(QrsCode(5, 3), 1, p))
    assert t_withheld > t_plain + 1e-6


def test_withheld_rejects_excess():
    # the rule validate reports, raised with its message
    cases = [(4, "withheld=4 exceeds tolerance 3"), (-1, "withheld count is negative")]
    for withheld, message in cases:
        with pytest.raises(ValueError, match=f"^withheld-exceeds-tolerance: {message}$"):
            ps_single_withheld(QrsCode(7, 4), 1, 0.9, withheld)


@pytest.mark.parametrize(
    "code,named",
    [(QrsCode(9, 5), "non-prime-d"), (QrsCode(5, 7), "k=7 outside"), (QrsCode(7, 3), "2k-d")],
    ids=["non-prime", "k-above-d", "no-logical"],
)
def test_closed_forms_reject_invalid_codes(code, named):
    # checked before anything else: no value for a non-prime d, and no
    # complaint about withheld qudits nobody asked for
    for call in (
        lambda: ps_single(code, 1, 0.9),
        lambda: ps_single_withheld(code, 1, 0.9, 0),
        lambda: ps_two_channel(code, 1, 2, 0.9, 0.9),
    ):
        with pytest.raises(ValueError, match=named) as caught:
            call()
        assert "withheld" not in str(caught.value)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: ps_single_withheld(QrsCode(7, 4), 1, 0.9, True), "withheld"),
        (lambda: ps_single_withheld(QrsCode(7, 4), 1, 0.9, 1.0), "withheld"),
        (lambda: ps_two_channel(QrsCode(7, 4), 1, 3.0, 0.9, 0.95), "n"),
        (lambda: ps_two_channel(QrsCode(7, 4), 1, True, 0.9, 0.95), "n"),
    ],
    ids=["bool-withheld", "float-withheld", "float-n", "bool-n"],
)
def test_closed_forms_reject_non_integer_counts(make, name):
    # never read as a count: True is no 1 withheld qudit, and 3.0 no 3 qudits in channel B
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, not "):
        make()


# --- ps_two_channel --------------------------------------------------------------


def test_two_channel_equal_probabilities_reduce_to_single():
    for p in (0.5, 0.9, 0.99):
        for n in (0, 7, 20, 43):
            assert ps_two_channel(D43, 1, n, p, p) == pytest.approx(
                ps_single(D43, 1, p), abs=1e-12
            )


def test_two_channel_block_boundaries():
    assert ps_two_channel(D43, 1, 0, 0.93, 0.5) == pytest.approx(
        ps_single(D43, 1, 0.93), abs=1e-12
    )
    assert ps_two_channel(D43, 1, 43, 0.5, 0.93) == pytest.approx(
        ps_single(D43, 1, 0.93), abs=1e-12
    )


def test_two_channel_anchor_points():
    # 20-qudit block in the lower-probability channel; exact values frozen
    # from the generating-function oracle.
    v1 = ps_two_channel(D43, 1, 20, 0.99, 0.81)
    m = 6
    assert v1 == pytest.approx(
        pgf_success([0.99**m] * 23 + [0.81**m] * 20, 21), abs=1e-12
    )
    assert v1 == pytest.approx(0.9951, abs=5e-4)

    v2 = ps_two_channel(D43, 4, 20, 0.99, 0.39)
    m = 2
    assert v2 == pytest.approx(
        pgf_success([0.99**m] * 23 + [0.39**m] * 20, 21), abs=1e-12
    )
    assert v2 == pytest.approx(0.9955, abs=5e-4)


def test_two_channel_takes_codes_of_several_logical_qudits():
    # 2k - d = 3: the tail runs to the tolerance d - k = 2, not to (d - 1)/2 = 3
    code = QrsCode(7, 5)
    Pa, Pb = qudit_survival(code, 1, 0.9), qudit_survival(code, 1, 0.8)
    value = ps_two_channel(code, 1, 3, 0.9, 0.8)
    assert value == pytest.approx(pgf_success([Pa] * 4 + [Pb] * 3, 2), abs=1e-12)
    assert value < pgf_success([Pa] * 4 + [Pb] * 3, 3) - 0.01
    exact = ps_two_channel(code, 1, 3, Fraction(9, 10), Fraction(4, 5))
    assert exact == block_success(code, [(4, Fraction(9, 10) ** 3), (3, Fraction(4, 5) ** 3)])


PRIMES_TO_43 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
exact_probs = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(st.data(), st.integers(1, 3), exact_probs, exact_probs)
@settings(max_examples=200, deadline=None)
def test_binomial_tails_equal_the_engine_exactly(data, q, p_a, p_b):
    # the closed-form leg of engine = closed forms, as an exact relation, for every
    # valid code: 2k - d >= 1
    d = data.draw(st.sampled_from(PRIMES_TO_43), "d")
    code = QrsCode(d, data.draw(st.integers(d // 2 + 1, d), "k"))
    n = data.draw(st.integers(0, d), "n")
    Pa, Pb = qudit_survival(code, q, p_a), qudit_survival(code, q, p_b)
    assert ps_two_channel(code, q, n, p_a, p_b) == block_success(code, [(d - n, Pa), (n, Pb)])
    withheld = data.draw(st.integers(0, code.tolerance()), "withheld")
    layout = uniform_configuration(code, q, [(Channel("c", p_a), d - withheld)], withheld)
    assert ps_single_withheld(code, q, p_a, withheld) == success_probability(layout)


# --- ps6 --------------------------------------------------------------------------


def test_ps6_perfect_channels():
    assert ps6(1.0, 1.0) == 1.0


@pytest.mark.parametrize("p1", [0.0, 0.17, 0.5, 0.93, 1.0])
def test_ps6_perfect_channel2(p1):
    # the channel-2-lossless terms form the binomial expansion over channel 1
    assert ps6(p1, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ps6_anchor():
    assert ps6(0.882, 0.95) == pytest.approx(0.9924, abs=5e-4)


# --- ps15 -------------------------------------------------------------------------


def test_ps15_perfect_channels():
    assert ps15(1.0, 1.0) == 1.0


def test_ps15_channel1_lossless_tail():
    p2 = 0.99
    expected = (
        p2**7
        + 7 * p2**6 * (1 - p2)
        + 21 * p2**5 * (1 - p2) ** 2
        + 15 * p2**4 * (1 - p2) ** 3
    )
    assert ps15(1.0, p2) == pytest.approx(expected, abs=1e-12)


def test_ps15_corrected_coefficients():
    assert comb(7, 3) - 20 == 15
    assert comb(7, 2) * comb(8, 2) - 3 * (
        comb(2, 1) * comb(2, 1) * comb(6, 2) + comb(2, 1) * comb(1, 1) * comb(5, 2)
    ) == 348
    assert comb(7, 3) * comb(8, 1) - (
        3 * (comb(2, 2) * comb(2, 1) * comb(5, 1) + comb(2, 2) * comb(1, 1) * comb(4, 2))
        + 20 * comb(8, 1)
    ) == 72


@given(probs, probs)
@settings(max_examples=500, deadline=None)
def test_ps15_is_a_probability(p1, p2):
    assert 0.0 <= ps15(p1, p2) <= 1.0


def test_property_tests_draw_fixed_examples():
    # the profile tests/conftest.py loads; per-test settings keep it
    assert settings.default.derandomize and settings.default.deadline is None
    assert settings(max_examples=500).derandomize


def test_ps15_range_sweep():
    rnd = random.Random(42)
    for _ in range(1000):
        value = ps15(rnd.random(), rnd.random())
        assert 0.0 <= value <= 1.0


def test_ps6_ps15_take_arrays_elementwise():
    p1 = np.linspace(0.0, 1.0, 9)
    p2 = np.linspace(1.0, 0.2, 9)
    for f in (ps6, ps15):
        values = f(p1, p2)
        assert values.shape == (9,)
        assert values.tolist() == [f(float(a), float(b)) for a, b in zip(p1, p2)]
        with pytest.raises(ValueError):
            f(np.array([0.5, 1.5]), np.array([0.9, 0.9]))


# --- large codes ---------------------------------------------------------------------


@pytest.mark.parametrize("d", [1031, 2003])
def test_large_codes_match_oracle(d):
    # float(comb(d, j)) overflows for d >= 1031; each term comes from log(comb)
    code = QrsCode(d, (d + 1) // 2)
    budget = code.tolerance()
    for p in (0.999, 0.94):
        P = qudit_survival(code, 1, p)
        assert ps_single(code, 1, p) == pytest.approx(pgf_success([P] * d, budget), abs=1e-12)
        assert ps_single_withheld(code, 1, p, 3) == pytest.approx(
            pgf_success([P] * (d - 3), budget - 3), abs=1e-12
        )
    n = d // 3
    pa, pb = 0.95, 0.92
    Pa, Pb = qudit_survival(code, 1, pa), qudit_survival(code, 1, pb)
    value = ps_two_channel(code, 1, n, pa, pb)
    assert value == pytest.approx(pgf_success([Pa] * (d - n) + [Pb] * n, budget), abs=1e-12)
    assert 0.5 < value < 0.9


@pytest.mark.parametrize("d", [7, 1031])
def test_binomial_tails_reject_array_probabilities(d):
    # one probability per channel: an array neither takes the exact branch nor
    # overflows there
    code, p = QrsCode(d, (d + 1) // 2), np.array([0.999, 0.99])
    for call in (
        lambda: ps_single(code, 1, p),
        lambda: ps_single_withheld(code, 1, p, 1),
        lambda: ps_two_channel(code, 1, d // 3, p, 0.9),
        lambda: ps_two_channel(code, 1, d // 3, 0.9, p),
    ):
        with pytest.raises(ArrayProbability, match="engine.block_success"):
            call()


def test_float_tails_hold_1e_12_at_the_float_bound():
    # FLOAT_BLOCK_MAX = 4099 qudits summed over, d - withheld for ps_single_withheld;
    # q = 16 sends one photon a qudit, so the qudit survival is s itself
    assert FLOAT_BLOCK_MAX == 4099
    code, wider = QrsCode(4099, 2050), QrsCode(4111, 2056)
    budget = code.tolerance()
    for s in (0.47, 0.5, 0.53, 0.585):
        oracle = float(binomial_tail(4099, s, budget))
        assert abs(ps_single(code, 16, s) - oracle) <= 1e-12
        assert abs(ps_two_channel(code, 16, 1366, s, s) - oracle) <= 1e-12
        tail = float(binomial_tail(4099, s, wider.tolerance() - 12))
        assert abs(ps_single_withheld(wider, 16, s, 12) - tail) <= 1e-12


@pytest.mark.parametrize("d", [1031, 2003, 4099])
def test_two_channel_floats_hold_1e_12_against_a_two_block_tail(d):
    # unequal channels near s = 0.5, one photon a qudit: the one-pass tail sum
    # measured 2.3e-13 at worst here, the double loop it replaced 2.5e-13
    code = QrsCode(d, (d + 1) // 2)
    for n in (d // 5, d // 2):
        for pa, pb in ((0.5, 0.5), (0.49, 0.52), (0.53, 0.47), (0.51, 0.55)):
            oracle = float(two_block_tail(((n, pb), (d - n, pa)), code.tolerance()))
            assert abs(ps_two_channel(code, 16, n, pa, pb) - oracle) <= 1e-12


def test_float_tails_raise_above_the_float_bound():
    code = QrsCode(4111, 2056)
    for call in (
        lambda: ps_single(code, 16, 0.52),
        lambda: ps_single_withheld(code, 16, 0.52, 11),
        lambda: ps_two_channel(code, 16, 1370, Fraction(1, 2), 0.52),
        lambda: ps_single(QrsCode(65521, 32761), 16, 0.52),
    ):
        with pytest.raises(FloatBlockTooLarge, match="FLOAT_BLOCK_MAX=4099.*Fractions"):
            call()
    # Fractions stay exact past it
    exact = ps_single_withheld(code, 16, Fraction(1, 2), 11)
    assert isinstance(exact, Fraction)
    assert abs(float(exact) - float(binomial_tail(4100, Fraction(1, 2), 2044))) < 1e-15


def test_numpy_float32_takes_the_float_branch():
    # a float32 is no exact number: it is read as the float it holds, never summed
    # with exact integer coefficients (which overflowed at d = 1031)
    p = np.float32(0.9)
    value = ps_single(QrsCode(7, 4), 1, p)  # P = p^3, rounded to float32
    assert type(value) is float
    assert abs(value - ps_single(QrsCode(7, 4), 1, 0.9)) < 1e-6
    assert ps_single(QrsCode(7, 4), 3, p) == ps_single(QrsCode(7, 4), 3, float(p))  # P = p
    big, s = QrsCode(1031, 516), np.float32(0.52)
    assert ps_single(big, 11, s) == ps_single(big, 11, float(s))
    assert abs(ps_single(big, 11, s) - float(binomial_tail(1031, float(s), 515))) <= 1e-12
    assert ps_two_channel(big, 11, 300, s, s) == ps_two_channel(big, 11, 300, float(s), float(s))
    with pytest.raises(FloatBlockTooLarge, match="FLOAT_BLOCK_MAX=4099"):
        ps_single(QrsCode(4111, 2056), 16, s)
    with pytest.raises(FloatBlockTooLarge, match="FLOAT_BLOCK_MAX=4099"):
        ps_two_channel(QrsCode(4111, 2056), 16, 1370, Fraction(1, 2), s)


def test_closed_form_imports_no_engine():
    # criterion 5 checks the engine against these formulas, so they may not read it
    tree = ast.parse(Path(closed_form.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert names.isdisjoint({"engine", "planner", "montecarlo", "wiring"}), names


def test_endpoint_probabilities_give_exact_values():
    assert ps_single(QrsCode(7, 4), 1, 1) == 1
    assert ps_single(QrsCode(7, 4), 1, 0.0) == 0.0
    # the 20 qudits of the dead channel fit the tolerance of 21
    assert ps_two_channel(D43, 1, 20, 1.0, 0.0) == 1.0
    assert ps_two_channel(D43, 1, 23, 1.0, 0.0) == 0.0


# --- shared properties -------------------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [
        lambda a, b: ps_single(QrsCode(7, 4), 1, a),
        lambda a, b: ps_single_withheld(QrsCode(7, 4), 1, a, 2),
        lambda a, b: ps_two_channel(D43, 1, 20, a, b),
        ps6,
        ps15,
    ],
    ids=["single", "withheld", "two-channel", "ps6", "ps15"],
)
def test_monotone_in_every_argument(f, rng):
    for _ in range(60):
        a, b = rng.random(), rng.random()
        bump = rng.uniform(0.0, 1.0 - a)
        assert f(a + bump, b) >= f(a, b) - 1e-12
        bump = rng.uniform(0.0, 1.0 - b)
        assert f(a, b + bump) >= f(a, b) - 1e-12


def test_left_to_right_summation_vs_exact_rational(rng):
    # double-precision accumulation stays within 1e-12 of exact arithmetic
    for _ in range(20):
        pa = Fraction(rng.randrange(0, 1001), 1000)
        pb = Fraction(rng.randrange(0, 1001), 1000)
        exact = ps_two_channel(D43, 4, 20, pa, pb)
        approx = ps_two_channel(D43, 4, 20, float(pa), float(pb))
        assert abs(approx - exact) < 1e-12
        exact6 = ps6(pa, pb)
        assert abs(ps6(float(pa), float(pb)) - exact6) < 1e-12
