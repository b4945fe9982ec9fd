"""Exact-arithmetic contracts: factorials, binomials, powers, rationals."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fecount.arith import (
    NonIntegralError,
    as_natural,
    binomial,
    factorial,
    multinomial,
    parse_decimal,
    ratio_pow,
    render_decimal,
)


def iterated_factorial(n: int) -> int:
    """Independent oracle: multiply up one factor at a time."""
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(9) == iterated_factorial(9) == 362880


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values_and_conventions():
    assert binomial(6, 2) == 15
    assert binomial(6, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -2) == 0
    assert binomial(0, 0) == 1


@given(st.integers(min_value=0, max_value=30))
def test_binomial_row_sums_to_power_of_two(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_binomial_matches_factorial_ratio(n, k):
    if k <= n:
        assert binomial(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


def test_multinomial_matches_iterated_binomials():
    # shuffle three blocks = choose positions block by block
    assert multinomial([2, 2, 2]) == binomial(6, 2) * binomial(4, 2)
    assert multinomial([]) == 1
    assert multinomial([5]) == 1


@given(st.lists(st.integers(min_value=0, max_value=6), max_size=5))
def test_multinomial_positive_and_symmetric(parts):
    assert multinomial(parts) == multinomial(sorted(parts)) >= 1


def test_ratio_pow_handles_boundary_exponents():
    assert ratio_pow(1, -1) == 1
    assert ratio_pow(2, -2) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        ratio_pow(0, -1)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_fraction_invariants(a, b):
    # reciprocal product is exactly one; storage is lowest terms, positive denominator
    x = Fraction(a, b)
    assert x * Fraction(b, a) == 1
    assert x.denominator > 0
    from math import gcd

    assert gcd(x.numerator, x.denominator) == 1
    assert Fraction(x.numerator, x.denominator) == x  # normalization idempotent


def test_as_natural_accepts_integral_rationals():
    assert as_natural(Fraction(486, 3)) == 162
    assert as_natural(7) == 7
    assert as_natural(486, "p", 3) == 162


def test_as_natural_rejects_non_integral_and_negative():
    with pytest.raises(NonIntegralError):
        as_natural(Fraction(1, 2))
    with pytest.raises(NonIntegralError):
        as_natural(Fraction(-3, 1))
    with pytest.raises(NonIntegralError):
        as_natural(7, "p", 2)
    with pytest.raises(NonIntegralError):
        as_natural(-6, "p", 2)


def test_as_natural_formats_its_label_only_on_failure():
    class Unprintable:
        def __str__(self):
            raise AssertionError("label formatted on success")

    assert as_natural(486, "LL degree of %s", 3, Unprintable()) == 162
    with pytest.raises(NonIntegralError, match=r"^closed form for \(2,3,4\) is not an integer: 7/2$"):
        as_natural(7, "closed form for (%d,%d,%d)", 2, 2, 3, 4)


@given(st.integers(min_value=0, max_value=10**40))
def test_decimal_round_trip(n):
    assert parse_decimal(render_decimal(n)) == n


def test_decimal_round_trip_past_the_str_digit_limit():
    n = 7**6000  # 5071 digits
    text = render_decimal(n)
    assert len(text) == 5071
    assert int(text[:40]) == n // 10**5031 and int(text[-40:]) == n % 10**40
    assert parse_decimal(text) == n
    assert render_decimal(10**5000) == "1" + "0" * 5000


def test_parse_decimal_rejects_junk():
    # ASCII digits only: no sign, underscore, or digit from another script.
    for bad in ["", "-3", "1.5", "0x10", "12a", "+2", "2_0", "\u0668", "\u0661\u0662", "\u00b2"]:
        with pytest.raises(ValueError):
            parse_decimal(bad)
