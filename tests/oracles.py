"""Naive reference oracles for tests.

Everything here enumerates assignments one at a time and never touches the
bit-parallel tables, the independence decomposition, or any search pruning,
so it stays an independent check of those paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from boolrel.formula import (
    Assignment,
    Formula,
    Node,
    and_,
    const,
    evaluate,
    not_,
    or_,
    var,
    xor,
)


def naive_count_ones(f: Formula) -> int:
    """Satisfying-assignment count by per-assignment evaluation."""
    return sum(
        evaluate(f, Assignment.from_index(j, f.arity)) for j in range(1 << f.arity)
    )


def naive_probability(f: Formula) -> Fraction:
    return Fraction(naive_count_ones(f), 1 << f.arity)


def naive_agreement(f: Formula, x: Assignment, s_indices) -> Fraction:
    """P(f(y) = f(x) | y_S = x_S) by enumerating the free variables."""
    s = set(s_indices)
    free = [i for i in range(1, f.arity + 1) if i not in s]
    target = evaluate(f, x)
    matches = 0
    for j in range(1 << len(free)):
        y = x
        for pos, i in enumerate(free):
            y = y.with_bit(i, (j >> pos) & 1)
        if evaluate(f, y) == target:
            matches += 1
    return Fraction(matches, 1 << len(free))


def naive_conditional_satisfaction(f: Formula, x: Assignment, s_indices) -> Fraction:
    """P(f(y) = 1 | y_S = x_S) by enumerating the free variables."""
    s = set(s_indices)
    free = [i for i in range(1, f.arity + 1) if i not in s]
    hits = 0
    for j in range(1 << len(free)):
        y = x
        for pos, i in enumerate(free):
            y = y.with_bit(i, (j >> pos) & 1)
        hits += evaluate(f, y)
    return Fraction(hits, 1 << len(free))


def random_formula_node(rng: random.Random, d: int, budget: int) -> Node:
    """Random AST over x1..xd with roughly `budget` operator nodes."""
    if budget <= 1:
        if rng.random() < 0.9:
            return var(rng.randint(1, d))
        return const(rng.randint(0, 1))
    kind = rng.choice(["not", "and", "or", "xor", "and", "or"])
    if kind == "not":
        return not_(random_formula_node(rng, d, budget - 1))
    if kind == "xor":
        half = budget // 2
        return xor(
            random_formula_node(rng, d, half),
            random_formula_node(rng, d, budget - half),
        )
    width = rng.randint(2, 3)
    parts = []
    remaining = budget - 1
    for i in range(width):
        share = max(1, remaining // (width - i))
        parts.append(random_formula_node(rng, d, share))
        remaining -= share
    return and_(*parts) if kind == "and" else or_(*parts)


def random_formula(rng: random.Random, d: int, budget: int = 12) -> Formula:
    """Random formula with explicit arity d (folding may drop variables)."""
    return Formula(random_formula_node(rng, d, budget), d)


def random_assignment(rng: random.Random, d: int) -> Assignment:
    return Assignment(rng.getrandbits(d) if d else 0, d)


def naive_draw_successes(
    f: Formula, x: Assignment, free, n: int, rng: random.Random, target: int
) -> int:
    """Reference sampler: one getrandbits(len(free)) word per draw (none when
    nothing is free), bit j of the word sets free[j], and each draw is
    evaluated on its own Assignment."""
    successes = 0
    for _ in range(n):
        word = rng.getrandbits(len(free)) if free else 0
        y = x
        for j, i in enumerate(free):
            y = y.with_bit(i, (word >> j) & 1)
        if evaluate(f, y) == target:
            successes += 1
    return successes
