"""Reference answers computed without boolrel.

Formulas are built here as small trees, so every expected answer comes from
the benchmark's own code: truth tables as Python big integers, an
all-subsets agreement table by a superset-sum transform in numpy, and exact
block products for formulas made of variable-disjoint parts.

Tree nodes: ("lit", index, polarity), ("and", [kids]), ("or", [kids]),
("xor", [kids]).  Variable x_i is bit i-1 of an assignment index.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


def lit(index: int, polarity: int = 1):
    return ("lit", index, polarity)


def block(node):
    """Mark a subtree whose variables are shared inside it; its conditional
    probabilities come from its own truth table."""
    return ("blk", node)


def text(node) -> str:
    """Formula text in the boolrel grammar, fully parenthesised."""
    if node[0] == "blk":
        return text(node[1])
    if node[0] == "lit":
        return ("x%d" if node[2] else "!x%d") % node[1]
    sep = {"and": " & ", "or": " | ", "xor": " ^ "}[node[0]]
    return "(" + sep.join(text(k) for k in node[1]) + ")"


def parse(source: str):
    """Tree of a formula text ('|' < '^' < '&' < '!'), for checking reports."""
    tokens = re.findall(r"x\d+|[01()!&^|]", source)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ""

    def level(ops):
        nonlocal pos
        if not ops:
            return unary()
        kids = [level(ops[1:])]
        while peek() == ops[0]:
            pos += 1
            kids.append(level(ops[1:]))
        name = {"|": "or", "^": "xor", "&": "and"}[ops[0]]
        return kids[0] if len(kids) == 1 else (name, kids)

    def unary():
        nonlocal pos
        tok = peek()
        pos += 1
        if tok == "!":
            inner = unary()
            if inner[0] != "lit":
                raise ValueError("negation of a compound is not used here")
            return ("lit", inner[1], 1 - inner[2])
        if tok == "(":
            node = level("|^&")
            pos += 1
            return node
        if tok in ("0", "1"):
            return ("and", []) if tok == "1" else ("or", [])
        return lit(int(tok[1:]))

    return level("|^&")


def variables(node) -> set:
    if node[0] == "blk":
        return variables(node[1])
    if node[0] == "lit":
        return {node[1]}
    out = set()
    for kid in node[1]:
        out |= variables(kid)
    return out


def evaluate(node, bits: int) -> int:
    if node[0] == "blk":
        return evaluate(node[1], bits)
    if node[0] == "lit":
        return int(((bits >> (node[1] - 1)) & 1) == node[2])
    vals = (evaluate(k, bits) for k in node[1])
    if node[0] == "and":
        return int(all(vals))
    if node[0] == "or":
        return int(any(vals))
    acc = 0
    for v in vals:
        acc ^= v
    return acc


# --------------------------------------------------------------------------
# Truth tables as big integers: bit j is the value at assignment index j.


def _column(index: int, d: int) -> int:
    """Table of x_index over 2^d assignments."""
    size = 1 << d
    half = 1 << (index - 1)
    pattern = ((1 << half) - 1) << half
    width = 2 * half
    while width < size:
        pattern |= pattern << width
        width *= 2
    return pattern


def table(node, d: int) -> int:
    full = (1 << (1 << d)) - 1
    columns = {}

    def walk(n) -> int:
        if n[0] == "blk":
            return walk(n[1])
        if n[0] == "lit":
            col = columns.get(n[1])
            if col is None:
                col = columns[n[1]] = _column(n[1], d)
            return col if n[2] else col ^ full
        if n[0] == "and":
            acc = full
            for k in n[1]:
                acc &= walk(k)
        elif n[0] == "or":
            acc = 0
            for k in n[1]:
                acc |= walk(k)
        else:
            acc = 0
            for k in n[1]:
                acc ^= walk(k)
        return acc

    return walk(node)


def conditional_count(tt: int, d: int, x: int, subset, value: int) -> int:
    """#{y : y_S = x_S and f(y) = value}."""
    full = (1 << (1 << d)) - 1
    mask = full
    for i in subset:
        col = _column(i, d)
        mask &= col if (x >> (i - 1)) & 1 else col ^ full
    target = tt if value else tt ^ full
    return (target & mask).bit_count()


def agreement(tt: int, d: int, x: int, subset) -> Fraction:
    fx = (tt >> x) & 1
    count = conditional_count(tt, d, x, subset, fx)
    return Fraction(count, 1 << (d - len(set(subset))))


# --------------------------------------------------------------------------
# All-subsets table: for every mask S, the number of y with y_S = x_S and
# f(y) = value, by a superset-sum (zeta) transform over difference patterns.


def _unpacked(tt: int, d: int) -> np.ndarray:
    raw = tt.to_bytes((1 << d) // 8 if d >= 3 else 1, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: 1 << d]


def subset_counts(tt: int, d: int, x: int, value: int) -> np.ndarray:
    # Axis a of the cube is variable d - a; flipping the axes of x's one
    # bits indexes the table by the difference pattern z = y ^ x.
    cube = _unpacked(tt, d).reshape((2,) * d)
    flips = tuple(d - 1 - i for i in range(d) if (x >> i) & 1)
    g = (np.flip(cube, flips) == value).astype(np.int32).reshape(-1)
    for i in range(d):
        view = g.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    # g[T] now counts differences inside T; fixing S leaves T = ~S free,
    # and ~S = 2^d - 1 - S reverses the order.
    return g[::-1]


def popcounts(d: int) -> np.ndarray:
    pc = np.zeros(1 << d, dtype=np.int8)
    for i in range(d):
        pc[1 << i: 2 << i] = pc[: 1 << i] + 1
    return pc


def mask_indices(mask: int) -> tuple:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def min_relevant(tt: int, d: int, x: int, delta: Fraction):
    """(k*, first witness) in size-then-lexicographic order."""
    counts = subset_counts(tt, d, x, (tt >> x) & 1)
    pc = popcounts(d)
    for size in range(d + 1):
        masks = np.flatnonzero(pc == size)
        ok = counts[masks].astype(np.int64) * delta.denominator >= (
            delta.numerator << (d - size))
        if ok.any():
            return size, min(mask_indices(int(m)) for m in masks[ok])
    raise AssertionError("the full set is always relevant")


def shapley(tt: int, d: int, x: int):
    """Exact Shapley values of nu(S) = P(f | y_S = x_S) - P(f)."""
    counts = subset_counts(tt, d, x, 1).astype(object)
    pc = popcounts(d)
    fact = [math.factorial(i) for i in range(d + 1)]
    # phi_i = sum over S without i of |S|!(d-|S|-1)!/d! (nu(S+i) - nu(S)),
    # and nu(S+i) - nu(S) = (2 c(S+i) - c(S)) / 2^(d-|S|) for the
    # conditional counts c, so every term is an integer over d! 2^d.
    weight = np.array([fact[s] * fact[d - s - 1] << s for s in range(d)],
                      dtype=object)
    masks = np.arange(1 << d)
    phi = []
    for i in range(d):
        without = masks[(masks & (1 << i)) == 0]
        gain = 2 * counts[without | (1 << i)] - counts[without]
        total = int(np.sum(weight[pc[without]] * gain))
        phi.append(Fraction(total, fact[d] << d))
    p = Fraction(int(counts[0]), 1 << d)
    nu_full = Fraction((tt >> x) & 1) - p
    return phi, nu_full


# --------------------------------------------------------------------------
# Formulas made of variable-disjoint parts: exact conditional probability
# by independence, which also covers XOR chains of hundreds of variables.


def cond_prob(node, fixed: dict) -> Fraction:
    """P(node = 1 | y_v = fixed[v]) when the children of every operator
    have pairwise disjoint variables."""
    if node[0] == "blk":
        return _block_prob(node[1], fixed)
    if node[0] == "lit":
        v = fixed.get(node[1])
        if v is None:
            return Fraction(1, 2)
        return Fraction(int(v == node[2]))
    probs = [cond_prob(k, fixed) for k in node[1]]
    if node[0] == "and":
        out = Fraction(1)
        for p in probs:
            out *= p
        return out
    if node[0] == "or":
        miss = Fraction(1)
        for p in probs:
            miss *= 1 - p
        return 1 - miss
    bias = Fraction(1)
    for p in probs:
        bias *= 1 - 2 * p
    return (1 - bias) / 2


def _renumber(node, local: dict):
    if node[0] == "lit":
        return ("lit", local[node[1]], node[2])
    return (node[0], [_renumber(k, local) for k in node[1]])


def _block_prob(node, fixed: dict) -> Fraction:
    order = sorted(variables(node))
    local = {v: i + 1 for i, v in enumerate(order)}
    m = len(order)
    tt = table(_renumber(node, local), m)
    subset = [local[v] for v in order if v in fixed]
    x = sum(1 << (local[v] - 1) for v in order if fixed.get(v))
    count = conditional_count(tt, m, x, subset, 1)
    return Fraction(count, 1 << (m - len(subset)))


def dyadic_text(p: Fraction) -> str:
    exp = p.denominator.bit_length() - 1
    return f"{p.numerator}/2^{exp}"


def sample_count(gamma: Fraction) -> int:
    return math.ceil(2.0 * math.log(3.0) / float(gamma * gamma))
