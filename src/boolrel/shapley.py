"""Exact Shapley values for the conditional-expectation coalition game.

The characteristic function values a coalition S at the conditional mean of
the function given y_S = x_S, minus the unconditional mean.  Everything is
exponential-time and exact: the Shapley vector is an integer sum over the
coalition table with common denominator d! 2^d, so efficiency and the
relevance identity can be asserted with equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable

import numpy as np

from .counting import (
    TABLE_CAP,
    ConditionalEvaluator,
    _probability,
    coalition_counts,
    rank_sizes,
)
from .formula import (
    Assignment,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    Formula,
    SubsetMask,
    evaluate,
    table_bits,  # unused here; perfbench/tracing.py wraps shapley.table_bits
)

__all__ = [
    "CharacteristicEval",
    "ShapleyVector",
    "characteristic_value",
    "shapley_values",
    "relevance_from_characteristic",
    "DEFAULT_SINGLE_CAP",
]

DEFAULT_SINGLE_CAP = TABLE_CAP


@dataclass(frozen=True)
class CharacteristicEval:
    """nu(S) together with the pieces it is built from."""

    subset: SubsetMask
    value: Fraction
    expectation: Fraction
    value_at_x: int

    def agreement(self) -> Fraction:
        """P(f(y) = f(x) | y_S = x_S) recovered from the identity."""
        return 1 - abs(self.value + self.expectation - self.value_at_x)


@dataclass(frozen=True)
class ShapleyVector:
    """Per-variable attributions; denominators divide d! * 2^d."""

    values: tuple[Fraction, ...]
    grand_value: Fraction  # nu([d])

    def efficiency_gap(self) -> Fraction:
        return sum(self.values, Fraction(0)) - self.grand_value

    def is_efficient(self) -> bool:
        return self.efficiency_gap() == 0


def characteristic_value(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    enum_cap: int = DEFAULT_SINGLE_CAP,
) -> CharacteristicEval:
    """Exact conditional mean of f given y_S = x_S, minus E(f)."""
    mask = s if isinstance(s, SubsetMask) else SubsetMask.from_indices(s, f.arity)
    if f.arity > enum_cap:
        raise EnumerationCapExceeded(f.arity, enum_cap, "characteristic value")
    ev = ConditionalEvaluator(f, max(enum_cap, DEFAULT_ENUM_CAP))
    expectation = _probability(ev.count(), f.arity)
    conditional = _probability(ev.count(x.bits, mask.bits), f.arity - mask.size)
    return CharacteristicEval(
        subset=mask,
        value=conditional - expectation,
        expectation=expectation,
        value_at_x=evaluate(f, x),
    )


def shapley_values(f: Formula, x: Assignment) -> ShapleyVector:
    """phi_i = sum over S avoiding i of |S|!(d-|S|-1)!/d! (nu(S+i) - nu(S)).

    With c(S) = #{y : y_S = x_S, f(y) = 1} from the coalition table,
    nu(S) = c(S) / 2^(d-|S|) - E(f), so
    phi_i d! 2^d = sum over S avoiding i of |S|!(d-|S|-1)! 2^|S| (2c(S+i) - c(S)).
    The differences are summed per |S| in int64 (exact: |2c(S+i) - c(S)| <= 2^(d+1)
    over at most 2^(d-1) sets) and weighted by Python ints.
    """
    d = f.arity
    if d > TABLE_CAP:
        raise EnumerationCapExceeded(
            d, TABLE_CAP, "Shapley enumeration", raisable=False
        )
    if x.length != d:
        raise ValueError("assignment length does not match arity")
    counts = coalition_counts(f, x, 1)
    # Axis 1 of counts.reshape(-1, 2, 2^(d-i)) splits on x_i's bit: S at 0,
    # S + i at 1.  The other two axes, flattened, rank S without bit d - i,
    # so |S| is the popcount of that (d-1)-bit rank for every i: one sort by
    # popcount (a radix sort on uint8 keys) makes each size a contiguous
    # segment for all i.
    by_popcount = np.argsort(rank_sizes(max(d - 1, 0)), kind="stable")
    starts = np.cumsum([0] + [comb(d - 1, s) for s in range(d - 1)])
    weight = [factorial(s) * factorial(d - s - 1) << s for s in range(d)]
    denominator = factorial(d) << d
    values = []
    for i in range(1, d + 1):
        pairs = counts.reshape(-1, 2, 1 << (d - i))
        diff = 2 * pairs[:, 1].astype(np.int64) - pairs[:, 0]
        by_size = np.add.reduceat(diff.ravel()[by_popcount], starts)
        total = sum(w * int(t) for w, t in zip(weight, by_size))
        values.append(Fraction(total, denominator))
    grand = int(counts[-1]) - _probability(int(counts[0]), d)
    return ShapleyVector(tuple(values), grand_value=grand)


def relevance_from_characteristic(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    delta: Fraction,
    enum_cap: int = DEFAULT_SINGLE_CAP,
) -> bool:
    """delta-relevance decided through |nu(S) + E(f) - f(x)| <= 1 - delta.

    Contracted to agree with is_delta_relevant on every input.
    """
    return characteristic_value(f, x, s, enum_cap).agreement() >= Fraction(delta)
