"""Exact counting under the uniform distribution.

A probability of uniform Boolean counting is a count over a power of two,
so the core counts in integers and never divides: a node's value is its
number of models over its w free variables (support minus fixed ones).
Three exact devices are layered over bit-parallel enumeration:

* independent components: children of an AND/OR/XOR with pairwise-disjoint
  free variables combine by shifts and products of their counts,
  #(A and B) = c_A c_B, #(A or B) = 2^w - (2^w_A - c_A)(2^w_B - c_B),
  #(A xor B) = c_A (2^w_B - c_B) + (2^w_A - c_A) c_B;

* plug splits: a subtree whose free variables occur nowhere else is replaced
  by a constant and weighted by its count: #F = c_T #F[T:=1] +
  (2^w_T - c_T) #F[T:=0], each term shifted to F's width;

* XOR freshening: an XOR chain of distinct variables that each occur exactly
  once in the whole formula is, in distribution, a single fresh fair bit, so
  the chain collapses to one representative variable (`_freshen`; a formula
  with no XOR over variables comes back as it is).  This rewrite preserves
  joint distributions but not the Boolean function itself, and therefore
  never leaves this module.

Conditioning on y_S = x_S is handled without rebuilding ASTs: a variable
set is one int mask in the layout of `SubsetMask` (x_i = bit i-1), and the
fixes are the pair (bits, mask), bits being `Assignment.bits`, read during
enumeration.  A node's memo key is its fixed support and their bits.
`ConditionalEvaluator._split` decides how one node splits (components, a
plug, or none: enumerate), and `_prob` is one loop over an explicit stack
that solves the parts and combines them with `_combine`, so the depth of a
decomposition is bounded by memory, not by the recursion limit.  Queries go
through `ConditionalEvaluator.count(bits, mask)`, one entry of `coalition_counts`;
`Fraction` appears only at the public surface built on it, where `_probability`
turns a count over its free variables into one.

For formulas of at most TABLE_CAP variables, `coalition_counts` gives the
exact conditional count of every subset S at once: a superset-sum (fast
zeta) transform over an integer table, O(d 2^d).  Popcounts of the evaluated
words take its first five steps, and each later step runs in the narrowest
lane that holds its sums (uint8, then uint16, then int32).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .formula import (
    And,
    Assignment,
    Const,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    Formula,
    Node,
    Or,
    SubsetMask,
    Var,
    Xor,
    _BUILD,
    _LEAF_BITS,
    _indices,
    _kids,
    _lane_blocks,
    _occurrences,
    _order,
    const,
    evaluate,
    evaluate_lanes,
    rewrite,
    var,
)

__all__ = [
    "ConditionalEvaluator",
    "TABLE_CAP",
    "coalition_counts",
    "rank_sizes",
    "satisfaction_probability",
    "conditional_agreement_probability",
    "conditional_satisfaction_probability",
]

# Widest formula given an all-coalitions table: 2^20 int32 counts, 4 MiB.
TABLE_CAP = 20


# --------------------------------------------------------------------------
# XOR freshening.  Collapses every XOR chain whose leaves are distinct
# variables occurring exactly once in the whole formula into its
# smallest-index leaf, and records the mask of the collapsed variables so that
# later conditioning can be translated (fix the representative only once all
# group members are fixed; a partially fixed group stays a fair bit).


def _freshen(root: Node):
    """Collapse every such XOR chain; returns (root', groups), groups mapping
    each representative to the mask of its members.

    One scan over the post-order finds the Xors over Vars and such Xors; a
    root with none comes back as itself.  Otherwise an Xor is marked when
    each operand is a once-occurring Var or a marked Xor: that Xor has one
    path from the root, so it is its marked parent's alone.  One `rewrite`
    puts `var` of the smallest member in place of each outermost marked Xor,
    so no intermediate Xor is built.  No other variable's occurrence count
    changes, so freshening the result finds nothing more to collapse.
    """
    candidates: dict[Node, None] = {}  # Xors over Vars and such Xors, in post-order
    for n in chain(_order(root), (root,)):
        if isinstance(n, Xor) and all(
            isinstance(k, Var) or k in candidates for k in (n.left, n.right)
        ):
            candidates[n] = None
    if not candidates:
        return root, {}
    occ = _occurrences(root)
    outermost: dict[Node, None] = {}  # the marked Xors below no marked Xor
    for n in candidates:
        kids = (n.left, n.right)
        if all(k in outermost if isinstance(k, Xor) else occ[k.index] == 1 for k in kids):
            for k in kids:
                outermost.pop(k, None)
            outermost[n] = None
    groups: dict[int, int] = {}
    reps: dict[Node, Node] = {}
    for n in outermost:
        rep = (n.support & -n.support).bit_length()
        groups[rep] = n.support
        reps[n] = var(rep)
    return rewrite(root, reps), groups


# --------------------------------------------------------------------------
# Bit-parallel enumeration over the free variables of a node.


def _masked_count(node: Node, free: int, bits: int) -> int:
    """#{assignments to the variables in mask `free` satisfying node}, the
    rest read from `bits`."""
    return sum(out.bit_count() for out in _lane_blocks(node, _indices(free), bits))


def rank_sizes(k: int) -> np.ndarray:
    """sizes[r] = popcount(r) for r < 2^k, as uint8."""
    sizes = np.zeros(1 << k, dtype=np.uint8)
    for b in range(k):
        sizes[1 << b : 2 << b] = sizes[: 1 << b] + 1
    return sizes


def _superset_sum(table: np.ndarray, bits: Iterable[int]) -> None:
    """In place, for each bit b: table[r] += table[r | 2^b] where r lacks b."""
    for b in bits:
        pairs = table.reshape(-1, 2, 1 << b)
        pairs[:, 0] += pairs[:, 1]


# _SUPERSETS[r] has bit t set iff t contains r (t, r < 32): the popcounts of
# a 32-position word ANDed with them are its first five superset-sum steps.
_SUPERSETS = np.array(
    [sum(1 << t for t in range(32) if t & r == r) for r in range(32)], np.uint32
)
# The lane of each later sum step, up to the step where it stops: after s
# steps no entry exceeds 2^s, so uint8 takes steps 5-6 and uint16 7-14.
_LANES = ((np.uint8, 7), (np.uint16, 15), (np.int32, 31))


def coalition_counts(f: Formula, x: Assignment, value: int) -> np.ndarray:
    """c[r] = #{y : y_S = x_S, f(y) = value} for every subset S of [d].

    S has rank r = sum of 2^(d-i) over i in S: x1 is the top bit, and among
    sets of one size the lexicographically first sorted tuple has the largest
    rank.  y agrees with x on S exactly when S lies inside the set T where y
    and x agree, so c is the superset sum of h[T] = [f(y_T) = value], y_T
    being x with every variable outside T flipped.  h is evaluated in blocks
    of 2^_LEAF_BITS positions (the top-rank variables fixed per block), and
    each 32-position word's popcounts against _SUPERSETS (the first 5 sum
    steps) go straight into a uint8 table.  The rest of the sum is taken in
    place, one variable at a time, widening to uint16 before step 7 and to
    int32 before step 15: a 6 MiB peak at d = 20, for a 4 MiB int32 result.
    int32 holds every count up to d = 30; callers cap d lower.
    """
    d = f.arity
    size = 1 << min(d, _LEAF_BITS)
    flip = 0 if value else (1 << size) - 1
    # Bit j of a position is variable d - j; y = x there exactly when the
    # bit is set, so each variable's lane is XORed with the complement of x.
    blocks = _lane_blocks(f.root, list(range(d, 0, -1)), x.bits ^ ((1 << d) - 1))
    blocks = (out ^ flip for out in blocks)
    if size < 32:
        # Blocks under one word are packed into one: 2^d positions in all.
        blocks = [sum(out << (i * size) for i, out in enumerate(blocks))]
        size = max(1 << d, 32)
    n = size >> 5  # words per block
    table = np.empty((max(1 << d, 32) >> 5, 32), dtype=np.uint8)
    for i, out in enumerate(blocks):
        words = np.frombuffer(out.to_bytes(n * 4, "little"), "<u4")
        np.bitwise_count(words[:, None] & _SUPERSETS, out=table[i * n : (i + 1) * n])
    table = table.reshape(-1)[: 1 << d]
    step = 5
    for lane, stop in _LANES:
        # Rebinding frees the narrower table.
        table = table.astype(lane, copy=False)
        _superset_sum(table, range(step, min(stop, d)))
        step = stop
    return table


# --------------------------------------------------------------------------
# The conditional probability engine.


_LAWS = {And: "and", Or: "or", Xor: "xor"}


def _combine(law: str, parts: Sequence[tuple[int, int]], width: int) -> int:
    """Models of a split node over its `width` free variables from its
    parts' (models, free variables): components under and/or/xor, or the
    plug split's (t, node[t:=1], node[t:=0]).  Folding can drop a part's free
    variables, so widths may sum below `width`: each one dropped doubles."""
    if law == "plug":
        (c_t, w_t), (high, w_high), (low, w_low) = parts
        return (c_t * high << (width - w_t - w_high)) + (
            ((1 << w_t) - c_t) * low << (width - w_t - w_low)
        )
    rest = width - sum(w for _, w in parts)
    if law == "and":
        return prod(c for c, _ in parts) << rest
    if law == "or":
        return (1 << width) - (prod((1 << w) - c for c, w in parts) << rest)
    acc = acc_width = 0  # xor: the parity of no parts is 0
    for c, w in parts:
        acc = acc * ((1 << w) - c) + ((1 << acc_width) - acc) * c
        acc_width += w
    return acc << rest


def _component_groups(node: Node, mask: int) -> list[Node]:
    """Children of an n-ary operator clustered by shared free variables:
    union-find over each child's free variables, so the work is linear in
    them."""
    kids = _kids(node)
    parent = list(range(len(kids)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    keep = ~mask
    seen: dict[int, int] = {}  # each free variable's first child
    for i, child in enumerate(kids):
        for v in _indices(child.support & keep):
            j = seen.setdefault(v, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters: dict[int, list[Node]] = {}
    for i, child in enumerate(kids):
        clusters.setdefault(find(i), []).append(child)
    if len(clusters) <= 1:
        return [node]
    # An Xor is binary: two clusters of it are single children.
    return [m[0] if len(m) == 1 else _BUILD[type(node)](*m) for m in clusters.values()]


class ConditionalEvaluator:
    """Exact conditional probabilities for one formula.

    Precomputes the XOR freshening of the formula once; queries then condition
    on variable fixes without rebuilding the AST.  Safe to reuse across many
    queries; results are memoised per (subtree, relevant fixes).
    """

    def __init__(self, f: Formula, enum_cap: int = DEFAULT_ENUM_CAP):
        self.formula = f
        self.enum_cap = enum_cap
        self.root, groups = _freshen(f.root)
        # Each member of an XOR group -> the group's mask, whose lowest
        # member is the representative; the groups are disjoint.
        self._groups = {v: group for group in groups.values() for v in _indices(group)}
        self._members = sum(groups.values())
        self._memo: dict = {}
        self._replaced: dict[tuple[Node, Node, int], Node] = {}

    # -- query surface ----------------------------------------------------

    def count(self, bits: int = 0, mask: int = 0) -> int:
        """#{y in {0,1}^d : y_i = bit i-1 of `bits` for each i in `mask`,
        f(y) = 1}.

        A fully fixed XOR group fixes its representative to the parity of
        its members; a partly fixed one is one fair bit of the freshened
        root, its representative free.  So the root can have fewer than
        d - |mask| free variables; each one it lacks doubles the count."""
        fixed = mask.bit_count()
        touched = mask & self._members
        while touched:  # each touched group once, found by its top fixed member
            group = self._groups[touched.bit_length()]
            touched &= ~group
            rep = group & -group
            if mask & group != group:
                mask &= ~rep
            elif (bits & group).bit_count() & 1:
                bits |= rep
            else:
                bits &= ~rep
        count, width = self._prob(self.root, bits, mask)
        return count << (self.formula.arity - fixed - width)

    def satisfaction(self, fixed: Optional[dict[int, int]] = None) -> Fraction:
        """P(f(y) = 1 | y_v = fixed[v] for all fixed v)."""
        fixed = fixed or {}
        mask = SubsetMask.from_indices(fixed, self.formula.arity)
        bits = 0
        for v, b in fixed.items():
            bits |= bool(b) << (v - 1)
        free = self.formula.arity - mask.size
        return _probability(self.count(bits, mask.bits), free)

    def agreement(self, x: Assignment, s_indices: Iterable[int]) -> Fraction:
        """P(f(y) = f(x) | y_S = x_S)."""
        target = evaluate(self.formula, x)
        mask = SubsetMask.from_indices(s_indices, x.length)
        p1 = _probability(self.count(x.bits, mask.bits), x.length - mask.size)
        return p1 if target == 1 else 1 - p1

    # -- internals ----------------------------------------------------------

    def _prob(self, root: Node, bits: int, mask: int) -> tuple[int, int]:
        """(models of root over its free variables, those outside `mask`,
        with the fixed ones read from `bits`; how many are free), by one loop
        over an explicit stack.

        A node that is constant, fully fixed, memoised or at most one block
        wide is counted at once; a wider one goes to `_split`, and its parts
        are pushed, first on top, above a frame that combines their counts.
        A node that does not split is enumerated, up to `enum_cap` variables.
        The memo keeps counts alone, keyed by the node, its fixed support and
        their bits: the key fixes the width.
        """
        value: dict[Node, tuple[int, int]] = {}
        stack: list = [root]
        while stack:
            top = stack.pop()
            if type(top) is tuple:  # (node, memo key, law, parts, width), parts done
                node, key, law, parts, width = top
                got = self._memo[key] = _combine(law, [value[p] for p in parts], width)
                value[node] = (got, width)
                continue
            if top in value:
                continue
            if isinstance(top, Const):
                value[top] = (top.value, 0)
                continue
            supp = top.support
            fixed = supp & mask
            free = supp ^ fixed
            if not free:
                got = evaluate_lanes(top, lambda i: (bits >> (i - 1)) & 1, 1)
                value[top] = (got, 0)
                continue
            free_count = free.bit_count()
            key = (top, fixed, bits & fixed)
            got = self._memo.get(key)
            if got is None:
                if free_count > _LEAF_BITS:
                    split = self._split(top, mask)
                    if split is not None:
                        law, parts = split
                        stack.append((top, key, law, parts, free_count))
                        stack.extend(reversed(parts))
                        continue
                    if free_count > self.enum_cap:
                        raise EnumerationCapExceeded(
                            free_count, self.enum_cap, "model counting"
                        )
                got = self._memo[key] = _masked_count(top, free, bits)
            value[top] = (got, free_count)
        return value[root]

    def _split(self, node: Node, mask: int) -> Optional[tuple[str, Sequence[Node]]]:
        """How `node` splits with the variables of `mask` fixed, as (law,
        parts) for `_combine`.

        Either the independent components of an And/Or/Xor under its law,
        or ("plug", (t, node[t:=1], node[t:=0])) on the plug t that
        `_find_plug` picks; None when the node must be enumerated.
        """
        law = _LAWS.get(type(node))
        if law is not None:
            groups = _component_groups(node, mask)
            if len(groups) > 1:
                return law, groups
        plug = self._find_plug(node, mask)
        if plug is None:
            return None
        high, low = self._replace(node, plug, 1), self._replace(node, plug, 0)
        return "plug", (plug, high, low)

    def _replace(self, node: Node, plug: Node, value: int) -> Node:
        """`node` with every occurrence of `plug` replaced by the constant."""
        key = (node, plug, value)
        got = self._replaced.get(key)
        if got is None:
            got = rewrite(node, {plug: const(value)})
            self._replaced[key] = got
        return got

    def _find_plug(self, node: Node, mask: int) -> Optional[Node]:
        """Largest proper subtree whose free variables are private to it.

        t qualifies when all leaves of `node` that carry its free variables
        lie below it.  No variable has more leaves below t than in `node`, so
        that holds when the two leaf counts, summed over t's free variables,
        are equal.  Ties go to the node latest in post-order, so an ancestor
        wins over its descendants and a later sibling over an earlier one.
        """
        occ_root = _occurrences(node)
        keep = ~mask
        free_width = (node.support & keep).bit_count()
        leaves: dict[Node, int] = {}  # free-variable leaves below each node
        best: Optional[Node] = None
        best_size = 0
        for current in _order(node):
            if isinstance(current, Var):
                leaves[current] = (keep >> (current.index - 1)) & 1
                continue
            below = leaves[current] = sum(leaves[c] for c in _kids(current))
            free_t = current.support & keep
            size = free_t.bit_count()
            if not size or size >= free_width or size < best_size:
                continue
            if sum(occ_root[v] for v in _indices(free_t)) == below:
                best = current
                best_size = size
        return best


# --------------------------------------------------------------------------
# Public operations.


def _probability(count: int, free: int) -> Fraction:
    """count / 2^free, refused unless 0 <= count <= 2^free: every count of
    models over `free` variables turns into a probability here."""
    if not 0 <= count <= 1 << free:
        raise ValueError(f"not a probability: {count}/2^{free}")
    return Fraction(count, 1 << free)


def satisfaction_probability(
    f: Formula, enum_cap: int = DEFAULT_ENUM_CAP
) -> Fraction:
    """Exact P(f) = |{y : f(y)=1}| / 2^d."""
    return _probability(ConditionalEvaluator(f, enum_cap).count(), f.arity)


def conditional_satisfaction_probability(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """Exact P(f(y) = 1 | y_S = x_S)."""
    if x.length != f.arity:
        raise ValueError(
            f"assignment length {x.length} does not match arity {f.arity}"
        )
    mask = SubsetMask.from_indices(s, f.arity)  # refuses indices past d
    count = ConditionalEvaluator(f, enum_cap).count(x.bits, mask.bits)
    return _probability(count, f.arity - mask.size)


def conditional_agreement_probability(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Fraction:
    """Exact P(f(y) = f(x) | y_S = x_S), enumerating the free variables."""
    p1 = conditional_satisfaction_probability(f, x, s, enum_cap)
    return p1 if evaluate(f, x) == 1 else 1 - p1
