"""Naive reference oracles for tests.

The oracles evaluate formulas with their own loop over the AST and never
call boolrel's evaluators, bit-parallel tables, independence decomposition
or search pruning, so they stay an independent check of those paths.  Each
formula's truth table is built once (bit j is f at x_i = bit i-1 of j), and
every count and conditional probability is a masked count over it.

`reference_freshen` is the bottom-up XOR freshening that `counting._freshen`
replaced, kept as the reference for its result.  `reference_rewrite`,
`reference_parse` and `reference_render` are the rebuild of every node,
the character-by-character parser and the node-by-node renderer that
`formula.rewrite`, `formula.parse` and `formula.render` replaced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from boolrel.formula import (
    _BUILD,
    And,
    Assignment,
    Const,
    Formula,
    FormulaSyntaxError,
    Node,
    Not,
    Or,
    Var,
    Xor,
    _kids,
    _occurrences,
    _order,
    and_,
    const,
    not_,
    or_,
    var,
    xor,
)

_BLOCK_BITS = 12  # the table is built 2^12 positions at a time


def _value(root: Node, column, full: int) -> int:
    """root over a set of positions: bit p of the result is root's value at
    position p, where column(i) gives x_i's bits and full has every
    position's bit set."""
    value: dict[Node, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in value:
            stack.pop()
        elif isinstance(node, Var):
            value[node] = column(node.index)
        elif isinstance(node, Const):
            value[node] = full if node.value else 0
        else:
            if isinstance(node, Not):
                kids = [node.child]
            elif isinstance(node, Xor):
                kids = [node.left, node.right]
            else:
                kids = list(node.children)
            pending = [k for k in kids if k not in value]
            if pending:
                stack += pending
                continue
            vals = [value[k] for k in kids]
            if isinstance(node, Not):
                out = full ^ vals[0]
            elif isinstance(node, And):
                out = full
                for v in vals:
                    out &= v
            elif isinstance(node, Or):
                out = 0
                for v in vals:
                    out |= v
            else:
                out = vals[0] ^ vals[1]
            value[node] = out
    return value[root]


def _pattern(i: int, size: int) -> int:
    """Bits p < size (a power of two) with bit i-1 of p set: a run of
    2^(i-1) zeros then 2^(i-1) ones, repeated."""
    half = 1 << (i - 1)
    if 2 * half > size:
        return 0
    repeat = ((1 << size) - 1) // ((1 << 2 * half) - 1)
    return repeat * (((1 << half) - 1) << half)


@lru_cache(maxsize=64)
def _table(root: Node, d: int) -> int:
    """The 2^d-bit truth table of root over x1..xd, one block at a time:
    inside a block the low variables follow their pattern, and each high
    variable is constant."""
    low = min(d, _BLOCK_BITS)
    size = 1 << low
    full = (1 << size) - 1
    patterns = {i: _pattern(i, size) for i in range(1, low + 1)}
    table = 0
    for block in range(1 << (d - low)):
        def column(i):
            if i <= low:
                return patterns[i]
            return full if (block >> (i - 1 - low)) & 1 else 0
        table |= _value(root, column, full) << (block * size)
    return table


def _agreeing(d: int, x: Assignment, s_indices) -> tuple[int, int]:
    """(mask of the positions y with y_S = x_S, how many there are)."""
    full = (1 << (1 << d)) - 1
    mask = full
    s = set(s_indices)
    for i in s:
        col = _pattern(i, 1 << d)
        mask &= col if x.bit(i) else full ^ col
    return mask, 1 << (d - len(s))


def naive_count_ones(f: Formula) -> int:
    """Satisfying-assignment count, read off the truth table."""
    return _table(f.root, f.arity).bit_count()


def naive_probability(f: Formula) -> Fraction:
    return Fraction(naive_count_ones(f), 1 << f.arity)


def naive_conditional_satisfaction(f: Formula, x: Assignment, s_indices) -> Fraction:
    """P(f(y) = 1 | y_S = x_S): the table's ones among the agreeing points."""
    mask, points = _agreeing(f.arity, x, s_indices)
    return Fraction((_table(f.root, f.arity) & mask).bit_count(), points)


def naive_agreement(f: Formula, x: Assignment, s_indices) -> Fraction:
    """P(f(y) = f(x) | y_S = x_S): f(x) is the table's bit at x."""
    p1 = naive_conditional_satisfaction(f, x, s_indices)
    return p1 if (_table(f.root, f.arity) >> x.bits) & 1 else 1 - p1


def naive_coalition_counts(f: Formula, x: Assignment, value: int) -> np.ndarray:
    """c[r] = #{y : y_S = x_S, f(y) = value} for every S of rank r (x1 the
    top bit), as an int64 superset sum of the truth table: c[r] sums
    [f(y) = value] over every y that agrees with x on some superset of S."""
    d = f.arity
    table = _table(f.root, d).to_bytes(((1 << d) + 7) // 8, "little")
    values = np.unpackbits(np.frombuffer(table, np.uint8), bitorder="little")
    # agree[y] is the rank of the set where y and x agree; ys doubles as
    # the ranks below.
    ys = np.arange(1 << d)
    agree = np.zeros(1 << d, dtype=np.int64)
    for i in range(1, d + 1):
        agree |= (((ys >> (i - 1)) & 1) == x.bit(i)).astype(np.int64) << (d - i)
    counts = np.zeros(1 << d, dtype=np.int64)
    np.add.at(counts, agree, values[: 1 << d] == value)
    for b in range(d):
        lacking = ys[(ys >> b) & 1 == 0]
        counts[lacking] += counts[lacking | (1 << b)]
    return counts


def reference_freshen(root: Node):
    """(root', groups) as `counting._freshen` gives them, by one bottom-up
    rewrite: each Xor is rebuilt over its rebuilt operands, and a rebuilt
    chain whose leaves are distinct variables that each occur once in the
    whole formula becomes `var` of its smallest leaf."""
    occ = _occurrences(root)
    groups: dict[int, int] = {}

    def collapse(n, kids):
        if not isinstance(n, Xor):
            return None
        rebuilt = xor(*kids)
        if not isinstance(rebuilt, Xor):
            return rebuilt
        leaves, stack = [], [rebuilt]
        while stack:
            m = stack.pop()
            if isinstance(m, Xor):
                stack += (m.right, m.left)
            else:
                leaves.append(m)
        idxs = [leaf.index for leaf in leaves if isinstance(leaf, Var)]
        if (
            len(idxs) < len(leaves)
            or len(set(idxs)) < len(idxs)
            or any(occ.get(i, 0) != 1 for i in idxs)
        ):
            return rebuilt
        rep = min(idxs)
        merged = 0
        for i in idxs:
            merged |= groups.pop(i, 1 << (i - 1))
        groups[rep] = merged
        return var(rep)

    return reference_rewrite(root, collapse), groups


def reference_rewrite(root: Node, hook) -> Node:
    """Rebuild `root` bottom-up through the folding constructors, visiting
    every node once, after its children.  `hook(node, kids)` gets the node
    and its rebuilt children and returns the node's replacement, or None to
    rebuild it from `kids` (the node itself when none changed)."""
    new: dict[Node, Node] = {}
    for n in chain(_order(root), (root,)):
        old = _kids(n)
        kids = tuple(new[c] for c in old)
        out = hook(n, kids)
        if out is None:
            unchanged = all(k is c for k, c in zip(kids, old))
            out = n if unchanged else _BUILD[type(n)](*kids)
        new[n] = out
    return out


def reference_parse(text: str) -> Node:
    """The root node of formula text, read one character at a time.

    Operator precedence is resolved with one frame per open parenthesis: a
    frame holds the finished operands of its '|' level, the XOR chain so far
    and the operands of the current '&' group, plus the count of '!' that
    wait in front of the group's next operand.
    """
    frames: list[tuple] = []  # the enclosing groups, innermost last
    ors: list[Node] = []
    xored: Optional[Node] = None
    ands: list[Node] = []
    nots = 0
    pos = _skip_space(text, 0)
    while True:
        # An operand: '!' prefixes, then '(' or an atom.
        ch = text[pos] if pos < len(text) else ""
        if ch == "!":
            nots += 1
            pos = _skip_space(text, pos + 1)
            continue
        if ch == "(":
            frames.append((ors, xored, ands, nots))
            ors, xored, ands, nots = [], None, [], 0
            pos = _skip_space(text, pos + 1)
            continue
        node, pos = _atom(text, pos)
        while True:
            for _ in range(nots):
                node = not_(node)
            nots = 0
            ands.append(node)
            pos = _skip_space(text, pos)
            ch = text[pos] if pos < len(text) else ""
            # Anything but '&' closes the '&' group, and anything but '&' or
            # '^' also the XOR chain.
            if ch != "&":
                group = and_(*ands) if len(ands) > 1 else ands[0]
                xored = group if xored is None else xor(xored, group)
                ands = []
                if ch != "^":
                    ors.append(xored)
                    xored = None
            if ch in ("&", "^", "|"):
                pos = _skip_space(text, pos + 1)
                break
            # The group ends.
            node = or_(*ors) if len(ors) > 1 else ors[0]
            if not frames:
                if ch:
                    raise FormulaSyntaxError(
                        f"unexpected trailing input {text[pos:]!r}", pos
                    )
                return node
            if ch != ")":
                raise FormulaSyntaxError("expected ')'", pos)
            pos += 1
            ors, xored, ands, nots = frames.pop()


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts e.g. '²'


def _atom(text: str, pos: int) -> tuple[Node, int]:
    """A constant or a variable at `pos`; returns it and the offset after it."""
    ch = text[pos] if pos < len(text) else ""
    if ch in ("0", "1"):
        return const(int(ch)), pos + 1
    if ch == "x":
        end = pos + 1
        while end < len(text) and text[end] in _DIGITS:
            end += 1
        if end == pos + 1:
            raise FormulaSyntaxError("expected digits after 'x'", end)
        try:
            index = int(text[pos + 1 : end])
        except ValueError:  # more digits than int() converts
            raise FormulaSyntaxError("variable index too long", pos) from None
        if index == 0:
            raise FormulaSyntaxError("variable index 0 is not allowed", pos)
        return var(index), end
    if ch == "":
        raise FormulaSyntaxError("unexpected end of input", pos)
    raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)


def reference_render(node: Node) -> str:
    """Fully parenthesised text form, one node at a time from an explicit
    stack of pending nodes and strings."""
    out: list[str] = []
    stack: list = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            out.append(n)
        elif isinstance(n, Var):
            out.append(f"x{n.index}")
        elif isinstance(n, Const):
            out.append(str(n.value))
        elif isinstance(n, Not):
            out.append("!")
            stack.append(n.child)
        else:
            sep = " & " if isinstance(n, And) else " | " if isinstance(n, Or) else " ^ "
            kids = _kids(n)
            out.append("(")
            stack.append(")")
            for c in reversed(kids[1:]):
                stack.append(c)
                stack.append(sep)
            stack.append(kids[0])
    return "".join(out)


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
    evaluated on its own, as a single position.  Runs reach 130 free
    variables, too wide for a table."""
    slot = {i: j for j, i in enumerate(free)}
    successes = 0
    for _ in range(n):
        word = rng.getrandbits(len(free)) if free else 0

        def column(i):
            return (word >> slot[i]) & 1 if i in slot else x.bit(i)

        if _value(f.root, column, 1) == target:
            successes += 1
    return successes
