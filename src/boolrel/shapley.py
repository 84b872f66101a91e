"""Exact Shapley values for the conditional-expectation coalition game.

The characteristic function values a coalition S at the conditional mean of
the function given y_S = x_S, minus the unconditional mean.  Everything is
exponential-time and exact: factorial weights are Fractions, so efficiency
and the relevance identity can be asserted with equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .counting import ConditionalEvaluator, DyadicProb
from .formula import (
    Assignment,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    Formula,
    SubsetMask,
    _var_pattern,
    evaluate,
    table_bits,
)

__all__ = [
    "CharacteristicEval",
    "ShapleyVector",
    "characteristic_value",
    "shapley_values",
    "relevance_from_characteristic",
    "DEFAULT_SINGLE_CAP",
    "DEFAULT_VECTOR_CAP",
]

DEFAULT_SINGLE_CAP = 16
DEFAULT_VECTOR_CAP = 12


@dataclass(frozen=True)
class CharacteristicEval:
    """nu(S) together with the pieces it is built from."""

    subset: SubsetMask
    value: Fraction
    expectation: DyadicProb
    value_at_x: int

    def agreement(self) -> Fraction:
        """P(f(y) = f(x) | y_S = x_S) recovered from the identity."""
        return 1 - abs(self.value + self.expectation.as_fraction() - self.value_at_x)


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
    expectation = ev.satisfaction({})
    conditional = ev.satisfaction({i: x.bit(i) for i in mask.indices()})
    return CharacteristicEval(
        subset=mask,
        value=conditional - expectation,
        expectation=DyadicProb.from_fraction(expectation),
        value_at_x=evaluate(f, x),
    )


def shapley_values(
    f: Formula, x: Assignment, vector_cap: int = DEFAULT_VECTOR_CAP
) -> ShapleyVector:
    """phi_i = sum over S avoiding i of |S|!(d-|S|-1)!/d! (nu(S+i) - nu(S))."""
    d = f.arity
    if d > vector_cap:
        raise EnumerationCapExceeded(d, vector_cap, "Shapley enumeration")
    if x.length != d:
        raise ValueError("assignment length does not match arity")
    size = 1 << d
    tt = table_bits(f.root, d)

    # Conditional satisfying counts for every coalition, by cube masking.
    full = (1 << size) - 1
    match = []
    for i in range(1, d + 1):
        pattern = _var_pattern(i, size)
        match.append(pattern if x.bit(i) else pattern ^ full)
    cube = [0] * (1 << d)
    cube[0] = full
    for m in range(1, 1 << d):
        low = m & -m
        cube[m] = cube[m ^ low] & match[low.bit_length() - 1]
    count = [(tt & cube[m]).bit_count() for m in range(1 << d)]

    expectation = Fraction(count[0], size)

    def nu(m: int) -> Fraction:
        free = d - m.bit_count()
        return Fraction(count[m], 1 << free) - expectation

    weight = [
        Fraction(1, 1)
        * _factorial(s)
        * _factorial(d - s - 1)
        / _factorial(d)
        for s in range(d)
    ]
    values = []
    for i in range(d):
        bit = 1 << i
        total = Fraction(0)
        for m in range(1 << d):
            if m & bit:
                continue
            total += weight[m.bit_count()] * (nu(m | bit) - nu(m))
        values.append(total)
    return ShapleyVector(tuple(values), grand_value=nu((1 << d) - 1))


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


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
    delta = Fraction(delta)
    ce = characteristic_value(f, x, s, enum_cap)
    deviation = abs(ce.value + ce.expectation.as_fraction() - ce.value_at_x)
    return deviation <= 1 - delta
