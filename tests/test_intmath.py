import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from boolrel._intmath import (
    ceil_log2,
    floor_log2,
    ln3_bounds,
    nth_root_ceil,
    nth_root_floor,
    pow_bounds,
)


class TestLog2:
    def test_exact_powers(self):
        for e in range(-10, 11):
            x = Fraction(2) ** e
            assert floor_log2(x) == e
            assert ceil_log2(x) == e

    def test_floor_brackets(self):
        rng = random.Random(1)
        for _ in range(500):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            e = floor_log2(x)
            assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)

    def test_ceil_brackets(self):
        rng = random.Random(2)
        for _ in range(500):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            e = ceil_log2(x)
            assert Fraction(2) ** (e - 1) < x <= Fraction(2) ** e

    def test_domain(self):
        with pytest.raises(ValueError):
            floor_log2(Fraction(0))


class TestRoots:
    def test_perfect_powers(self):
        for base in (0, 1, 2, 3, 10, 123):
            for n in (1, 2, 3, 5):
                v = base**n
                assert nth_root_floor(v, n) == base
                assert nth_root_ceil(v, n) == base

    def test_bracketing(self):
        rng = random.Random(3)
        for _ in range(500):
            v = rng.randint(0, 10**12)
            n = rng.randint(1, 6)
            r = nth_root_floor(v, n)
            assert r**n <= v < (r + 1) ** n
            c = nth_root_ceil(v, n)
            assert (c - 1) ** n < v <= c**n or v == 0

    def test_big_values(self):
        v = 10**60 + 12345
        r = nth_root_floor(v, 7)
        assert r**7 <= v < (r + 1) ** 7


class TestPowBounds:
    def test_exact_when_perfect(self):
        lo, hi = pow_bounds(9, Fraction(1, 2))
        assert lo == hi == 3
        lo, hi = pow_bounds(8, Fraction(2, 3))
        assert lo == hi == 4

    def test_interval_encloses_truth(self):
        import math

        rng = random.Random(4)
        for _ in range(200):
            base = rng.randint(1, 500)
            expo = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            lo, hi = pow_bounds(base, expo)
            truth = math.pow(base, float(expo))
            assert float(lo) <= truth * (1 + 1e-9)
            assert float(hi) >= truth * (1 - 1e-9)
            assert hi - lo <= Fraction(1, 1 << 32) or lo == hi

    def test_tighter_with_precision(self):
        lo32, hi32 = pow_bounds(337, Fraction(1, 2), 32)
        lo64, hi64 = pow_bounds(337, Fraction(1, 2), 64)
        assert hi64 - lo64 <= hi32 - lo32
        assert lo32 <= lo64 and hi64 <= hi32

    def test_zero_base(self):
        assert pow_bounds(0, Fraction(1, 2)) == (0, 0)
        assert pow_bounds(0, Fraction(0)) == (1, 1)


class TestLn3Bounds:
    def test_encloses_ln3_within_width(self):
        with localcontext() as ctx:
            ctx.prec = 400
            ln3 = Fraction(Decimal(3).ln())
        for precision in (0, 1, 2, 7, 53, 64, 100, 257, 1000):
            lo, hi = ln3_bounds(precision)
            assert lo <= ln3 <= hi
            assert hi - lo <= Fraction(1, 1 << precision)
