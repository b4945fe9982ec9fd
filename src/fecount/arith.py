"""Exact arithmetic helpers shared by every counting module.

Counts are plain Python ints (arbitrary precision, no silent overflow) and
no float ever enters.  A rational formula is an integer numerator over an
integer denominator; :func:`as_natural`, the one exactness check, divides
them with ``divmod`` and raises instead of rounding.  :func:`ratio_pow`
gives boundary powers such as 1**(-1) as a ``Fraction``.
"""
from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable

class NonIntegralError(ValueError):
    """An exact rational that was required to be an integer is not one."""


def factorial(n: int) -> int:
    """n! for n >= 0.

    >>> factorial(0), factorial(5), factorial(9)
    (1, 120, 362880)
    """
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n = {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero outside 0 <= k <= n.

    The out-of-range convention makes boundary terms of the deletion
    recursions uniform (empty choices count as zero, not as errors).

    >>> binomial(6, 2), binomial(6, 0), binomial(4, 7), binomial(4, -1)
    (15, 1, 0, 0)
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part_i!): ways to shuffle disjoint ordered blocks.

    >>> multinomial([1, 1]), multinomial([2, 2, 2]), multinomial([])
    (2, 90, 1)
    """
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative block size in {parts}")
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)  # exact: every prefix quotient is integral
    return out


def ratio_pow(base: int, exp: int) -> Fraction:
    """base**exp as an exact rational; negative exponents allowed when base != 0.

    Closed formulas below occasionally produce terms like 1**(-1) at range
    boundaries; evaluating in Fraction keeps those exact.
    """
    if base == 0 and exp < 0:
        raise ZeroDivisionError("0 cannot be raised to a negative power")
    return Fraction(base) ** exp


def as_natural(value: Fraction | int, what: str = "value", den: int = 1, *args: object) -> int:
    """The quotient value/den (den > 0), which must be a non-negative integer.

    Raises :class:`NonIntegralError` otherwise; nothing is ever rounded.  As
    in a logging call, the label is ``what % args`` and is formatted only
    when the check fails.

    >>> as_natural(486, "LL degree", 3), as_natural(Fraction(162, 1))
    (162, 162)
    """
    n, rest = divmod(value, den)
    if rest or n < 0:
        problem = "not an integer" if rest else "negative"
        shown = value if den == 1 else f"{value}/{den}"
        raise NonIntegralError(f"{what % args if args else what} is {problem}: {shown}")
    return n


def render_decimal(n: int) -> str:
    """Decimal string for a count; the machine-output form of every value.

    Counts of any length are rendered.  Past the interpreter's limit on
    int-to-str conversion (``sys.get_int_max_str_digits``), the digits come
    from :class:`decimal.Decimal`, which has no such limit, so no
    process-wide setting is needed.

    >>> render_decimal(2551500000), len(render_decimal(10**5000))
    ('2551500000', 5001)
    """
    if n < 0:
        raise ValueError(f"counts are non-negative, got {n}")
    try:
        return str(n)
    except ValueError:  # past the int-to-str digit limit
        return str(Decimal(n))


def parse_decimal(text: str) -> int:
    """Inverse of :func:`render_decimal`: ASCII digits 0-9 only, with any
    surrounding whitespace ignored; no sign, underscore or other digit.

    >>> parse_decimal(" 46448640 "), parse_decimal(render_decimal(7**6000)) == 7**6000
    (46448640, True)
    """
    s = text.strip()
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a decimal count: {text!r}")
    try:
        return int(s)
    except ValueError:  # past the int-to-str digit limit
        return int(Decimal(s))
