"""Exact integer arithmetic helpers for rational thresholds and real powers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "floor_log2",
    "ceil_log2",
    "nth_root_floor",
    "nth_root_ceil",
    "pow_bounds",
    "ln3_bounds",
]


def _pow2_le(e: int, x: Fraction) -> bool:
    """2^e <= x, exactly."""
    num, den = x.numerator, x.denominator
    if e >= 0:
        return den << e <= num
    return den <= num << (-e)


def floor_log2(x: Fraction) -> int:
    """Largest e with 2^e <= x, for x > 0."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while not _pow2_le(e, x):
        e -= 1
    while _pow2_le(e + 1, x):
        e += 1
    return e


def ceil_log2(x: Fraction) -> int:
    """Smallest e with 2^e >= x, for x > 0."""
    e = floor_log2(x)
    return e if _pow2_le(e, x) and Fraction(2) ** e == x else e + 1


def nth_root_floor(value: int, n: int) -> int:
    """Largest r with r^n <= value, for value >= 0, n >= 1."""
    if value < 0 or n < 1:
        raise ValueError("nth_root_floor needs value >= 0 and n >= 1")
    if value == 0:
        return 0
    r = 1 << ((value.bit_length() + n - 1) // n)  # upper seed
    while True:
        nr = ((n - 1) * r + value // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > value:
        r -= 1
    while (r + 1) ** n <= value:
        r += 1
    return r


def nth_root_ceil(value: int, n: int) -> int:
    r = nth_root_floor(value, n)
    return r if r ** n == value else r + 1


def pow_bounds(base: int, exponent: Fraction, precision_bits: int = 32) -> tuple[Fraction, Fraction]:
    """Enclosing interval [lo, hi] of base**exponent with directed rounding.

    Exact (lo == hi) whenever base**exponent is rational with the given
    exponent denominator, e.g. perfect powers.
    """
    if base < 0 or exponent < 0:
        raise ValueError("pow_bounds needs base >= 0 and exponent >= 0")
    a, b = exponent.numerator, exponent.denominator
    if base == 0:
        zero = Fraction(0) if a else Fraction(1)
        return zero, zero
    power = base ** a
    root = nth_root_floor(power, b)
    if root ** b == power:
        exact = Fraction(root)
        return exact, exact
    scale = 1 << precision_bits
    scaled = power * scale ** b
    lo = nth_root_floor(scaled, b)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


@lru_cache(maxsize=16)
def ln3_bounds(precision_bits: int) -> tuple[Fraction, Fraction]:
    """Enclosing interval [lo, hi] of ln 3, no wider than 2^-precision_bits.

    Sums ln 3 = 2 atanh(1/2) = sum over k >= 0 of 1 / ((2k+1) 4^k) in
    fixed point.  Each of the `terms` floors loses under one unit and the
    tail beyond them is under 4^-terms, below one unit too.
    """
    if precision_bits < 0:
        raise ValueError("ln3_bounds needs precision_bits >= 0")
    work = precision_bits + precision_bits.bit_length() + 2
    terms = work // 2 + 1
    scale = 1 << work
    total = sum(scale // ((2 * k + 1) << (2 * k)) for k in range(terms))
    return Fraction(total, scale), Fraction(total + terms + 1, scale)
