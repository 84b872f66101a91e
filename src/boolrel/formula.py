"""Boolean formula ASTs: parsing, evaluation, truth tables, ReLU compilation.

Formulas are ASTs over variables ``x1..xd`` with NOT/AND/OR/XOR and the
constants 0/1.  AND and OR are n-ary (instance builders emit wide
conjunctions), XOR is binary and chained left-associatively.  Nodes are
hash-consed: structurally identical subtrees are the same object, so node
identity doubles as structural equality and per-node caches can key on the
object itself.  Evaluation runs a flat lane program compiled once per root
and cached on it (`evaluate_lanes`).  The parser reads the tokens of one
regex scan (`_TOKEN`); `parse` and `render` keep memos of MEMO_SIZE entries.

Surface grammar (UTF-8, whitespace insignificant)::

    expr   := or
    or     := xor ('|' xor)*
    xor    := and ('^' and)*
    and    := unary ('&' unary)*
    unary  := '!' unary | atom
    atom   := 'x' INT | '0' | '1' | '(' expr ')'

Precedence is ``!`` > ``&`` > ``^`` > ``|``.  The renderer emits a fully
parenthesised form; ``parse(render(f))`` reproduces the truth table of ``f``.
"""

from __future__ import annotations

import functools
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "Node",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Xor",
    "var",
    "const",
    "not_",
    "and_",
    "or_",
    "xor",
    "TRUE",
    "FALSE",
    "Formula",
    "Assignment",
    "SubsetMask",
    "TruthTable",
    "FormulaSyntaxError",
    "ArityMismatchError",
    "EnumerationCapExceeded",
    "DEFAULT_ENUM_CAP",
    "parse",
    "render",
    "evaluate",
    "truth_table",
    "support",
    "substitute",
    "shift_variables",
    "compose_variables",
    "rewrite",
    "from_truth_table",
    "ReluNetwork",
    "compile_to_relu",
]

DEFAULT_ENUM_CAP = 26

# Entries kept by the parse memo (text -> root) and by the render memo (root ->
# text), the most recently used first.
MEMO_SIZE = 256

# Block width of every enumeration: 2^16 positions are 8 KiB per lane.
_LEAF_BITS = 16


class FormulaSyntaxError(ValueError):
    """Malformed formula text.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ArityMismatchError(ValueError):
    """Assignment or mask length does not match the formula arity."""


class EnumerationCapExceeded(RuntimeError):
    """A request would enumerate more than the configured cap allows.

    `unit` names what `needed` counts.  Where no CLI flag raises the cap,
    `raisable` is False and the message does not ask for it.
    """

    def __init__(
        self,
        needed: int,
        cap: int,
        what: str = "enumeration",
        unit: str = "variables",
        raisable: bool = True,
    ):
        message = f"{what} over {needed} {unit} exceeds the cap of {cap}"
        if raisable:
            message += "; raise the cap explicitly to proceed"
        super().__init__(message)
        self.needed = needed
        self.cap = cap


# --------------------------------------------------------------------------
# AST nodes.  eq=False keeps identity semantics; interning below guarantees
# structural equality coincides with identity, so nodes themselves serve as
# memo keys.


class Node:
    """Base of the AST nodes; each also carries facts about itself.

    `support`, the variables below the node as an int mask in the layout of
    `SubsetMask` (x_i = bit i-1), is set when the node is built.  `_order`
    (the proper descendants in post-order) and `_program` (the lane program
    of `evaluate_lanes`) are filled in on first use.
    """

    __slots__ = ("support", "_order", "_program")

    def __post_init__(self):
        if isinstance(self, Var):
            supp = 1 << (self.index - 1)
        else:
            supp = 0
            for c in _kids(self):
                supp |= c.support
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_program", None)


@dataclass(frozen=True, eq=False, slots=True)
class Var(Node):
    index: int


@dataclass(frozen=True, eq=False, slots=True)
class Const(Node):
    value: int


@dataclass(frozen=True, eq=False, slots=True)
class Not(Node):
    child: Node


@dataclass(frozen=True, eq=False, slots=True)
class And(Node):
    children: tuple[Node, ...]


@dataclass(frozen=True, eq=False, slots=True)
class Or(Node):
    children: tuple[Node, ...]


@dataclass(frozen=True, eq=False, slots=True)
class Xor(Node):
    left: Node
    right: Node


def _kids(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (And, Or)):
        return node.children
    if isinstance(node, Xor):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.child,)
    return ()


_interned: dict = {}


def _intern(key, cls, *args) -> Node:
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = cls(*args)
    return node


def const(value: int) -> Const:
    if value not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got {value!r}")
    return _intern(("const", value), Const, value)


FALSE = const(0)
TRUE = const(1)


def var(index: int) -> Var:
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"variable index must be a positive integer, got {index!r}")
    return _intern(("var", index), Var, index)


def not_(child: Node) -> Node:
    # Only a Not over a Var, And, Or or Xor is interned: a hit needs no check.
    node = _interned.get(("not", child))
    if node is not None:
        return node
    if isinstance(child, Const):
        return const(1 - child.value)
    if isinstance(child, Not):
        return child.child
    return _intern(("not", child), Not, child)


def _gather(children: Iterable[Node], cls, absorbing: Const, neutral: Const) -> Node:
    """The folded `cls` node: flatten, drop neutral constants, dedupe, and
    give `absorbing` on an absorbing constant or a pair of complements.  It
    is interned under `(cls, its children tuple)`, so operands that are
    already a node's children find it at once."""
    key = (cls, tuple(children))
    node = _interned.get(key)
    if node is not None:
        return node
    flat: list[Node] = []
    negated: dict[Node, bool] = {}  # each operand with its Not stripped
    for c in key[1]:
        for s in c.children if type(c) is cls else (c,):
            if s is absorbing:
                return absorbing
            if s is neutral:
                continue
            is_not = type(s) is Not
            base = s.child if is_not else s
            seen = negated.get(base)
            if seen is None:
                negated[base] = is_not
                flat.append(s)
            elif seen is not is_not:
                return absorbing
    if len(flat) <= 1:
        return flat[0] if flat else neutral
    if tuple(flat) != key[1]:
        key = (cls, tuple(flat))
    return _intern(key, cls, key[1])


def and_(*children: Node) -> Node:
    return _gather(children, And, FALSE, TRUE)


def or_(*children: Node) -> Node:
    return _gather(children, Or, TRUE, FALSE)


def xor(left: Node, right: Node) -> Node:
    # Pull negations and constants out so stored XOR nodes are over plain
    # operands; a ^ a folds to 0.
    negate = False
    if isinstance(left, Not):
        left, negate = left.child, not negate
    if isinstance(right, Not):
        right, negate = right.child, not negate
    if isinstance(left, Const):
        if left.value == 1:
            negate = not negate
        result = right
    elif isinstance(right, Const):
        if right.value == 1:
            negate = not negate
        result = left
    elif left is right:
        result = FALSE
    else:
        result = _intern(("xor", left, right), Xor, left, right)
    return not_(result) if negate else result


_BUILD = {Not: not_, And: and_, Or: or_, Xor: xor}


def xor_all(operands: Iterable[Node]) -> Node:
    """Left-associative XOR chain; empty chain is 0 (xor(0, a) is a)."""
    return functools.reduce(xor, operands, FALSE)


# --------------------------------------------------------------------------
# Structural helpers.  Every walker loops over one post-order per root,
# built without recursion, so formula depth is bounded by memory alone.


def _order(root: Node) -> tuple[Node, ...]:
    """The proper descendants of `root`, each once, children before parents.

    Built once per root and cached on it.  The root itself is left out, so
    the cached tuple holds no reference back to its owner.
    """
    order = root._order
    if order is None:
        order = _descendants(root)
        object.__setattr__(root, "_order", order)
    return order


def _descendants(root: Node) -> tuple[Node, ...]:
    """`_order(root)` built afresh, without caching it."""
    out: list[Node] = []
    seen = {root}
    stack = [(root, iter(_kids(root)))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(_kids(child))))
                break
        else:
            stack.pop()
            out.append(node)
    out.pop()  # the root
    return tuple(out)


def support(node: Node) -> frozenset[int]:
    """Set of variable indices occurring in the node."""
    return frozenset(_indices(node.support))


def _indices(mask: int) -> list[int]:
    """The variable indices of a mask (x_i = bit i-1), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _occurrences(root: Node) -> dict[int, int]:
    """How many leaves of the expanded tree carry each variable: the paths
    from `root` to the variable's one `Var` node, counted parents first."""
    paths = {root: 1}
    occ: dict[int, int] = {}
    for n in chain((root,), reversed(_order(root))):
        count = paths.pop(n)
        if isinstance(n, Var):
            occ[n.index] = count
        for c in _kids(n):
            paths[c] = paths.get(c, 0) + count
    return occ


def rewrite(root: Node, swap: dict[Node, Node]) -> Node:
    """`root` with each key of `swap` replaced by its value, rebuilt bottom-up
    through the folding constructors.  The walk enters only children whose
    support meets a key's (every key needs a variable), so a subtree with no
    key below it costs one mask test and is kept; so is an unchanged root."""
    mask = 0
    for key in swap:
        mask |= key.support
    new = dict(swap)  # each node entered, with what it became
    stack = [root]
    while stack:
        n = stack[-1]
        if n in new:
            stack.pop()
            continue
        kids = _kids(n)
        pending = [c for c in kids if c.support & mask and c not in new]
        if pending:
            stack += pending
            continue
        stack.pop()
        rebuilt = tuple([new.get(c, c) for c in kids])
        new[n] = n if rebuilt == kids else _BUILD[type(n)](*rebuilt)
    return new[root]


def substitute(node: Node, fixed: dict[int, int]) -> Node:
    """Replace variables by constants and fold.  Truth-preserving."""
    return compose_variables(node, {i: const(b) for i, b in fixed.items()})


def shift_variables(node: Node, offset: int) -> Node:
    """Renumber every variable index by +offset."""
    return compose_variables(node, {i: var(i + offset) for i in support(node)})


def compose_variables(node: Node, mapping: dict[int, Node]) -> Node:
    """Substitute whole subformulas for variables; unmapped variables stay."""
    return rewrite(
        node, {var(i): mapping[i] for i in _indices(node.support) if i in mapping}
    )


# --------------------------------------------------------------------------
# Assignments and subset masks: packed little-endian bit vectors, x1 = bit 0.


@dataclass(frozen=True)
class Assignment:
    """A point of {0,1}^d packed into an int, x_i = bit (i-1)."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("assignment bits out of range for its length")

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        """Parse a bitstring; the leftmost character is x1."""
        if not isinstance(text, str):
            raise TypeError(f"assignment must be a bitstring, got {text!r}")
        if text.strip("01"):  # what is left is not a bit
            raise ValueError(f"assignment string must be over 0/1, got {text!r}")
        return cls(int(text[::-1], 2) if text else 0, len(text))

    @classmethod
    def zeros(cls, length: int) -> "Assignment":
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "Assignment":
        return cls((1 << length) - 1, length)

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexError(f"variable index {i} out of range 1..{self.length}")
        return (self.bits >> (i - 1)) & 1

    def as_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        # Binary is most significant first, and x1 is bit 0; the slice drops
        # the "0" that formats the empty assignment.
        return format(self.bits, f"0{self.length}b")[::-1][: self.length]


@dataclass(frozen=True)
class SubsetMask:
    """A subset of [d] packed into an int, index i = bit (i-1)."""

    bits: int
    length: int
    size: int = field(init=False)

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("mask bits out of range for its length")
        object.__setattr__(self, "size", self.bits.bit_count())

    @classmethod
    def from_indices(cls, indices: Iterable[int], length: int) -> "SubsetMask":
        bits = 0
        for i in indices:
            if not 1 <= i <= length:
                raise ValueError(f"index {i} out of range 1..{length}")
            bits |= 1 << (i - 1)
        return cls(bits, length)

    @classmethod
    def empty(cls, length: int) -> "SubsetMask":
        return cls(0, length)

    @classmethod
    def full(cls, length: int) -> "SubsetMask":
        return cls((1 << length) - 1, length)

    def contains(self, i: int) -> bool:
        return 1 <= i <= self.length and bool((self.bits >> (i - 1)) & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(_indices(self.bits))

    def add(self, i: int) -> "SubsetMask":
        if not 1 <= i <= self.length:
            raise ValueError(f"index {i} out of range 1..{self.length}")
        return SubsetMask(self.bits | (1 << (i - 1)), self.length)

    def complement(self) -> "SubsetMask":
        return SubsetMask(((1 << self.length) - 1) ^ self.bits, self.length)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


# --------------------------------------------------------------------------
# Formula: a root node plus an explicit arity (>= the largest index used).


@dataclass(frozen=True)
class Formula:
    root: Node
    arity: int

    def __post_init__(self):
        top = self.root.support.bit_length()
        if self.arity < top:
            raise ValueError(
                f"arity {self.arity} is below the largest variable index {top}"
            )

    @classmethod
    def of(cls, root: Node, arity: Optional[int] = None) -> "Formula":
        return cls(root, root.support.bit_length() if arity is None else arity)

    def __str__(self) -> str:
        return render(self.root)


def parse(text: str, arity: Optional[int] = None) -> Formula:
    """Parse formula text into a Formula.

    The optional arity widens the variable universe beyond the largest index
    mentioned; it may not shrink it.  The roots of the last MEMO_SIZE texts
    are kept, so a repeated text is not parsed again; a text with a syntax
    error is parsed, and refused, every time.
    """
    return Formula.of(_parse_root(text), arity)


# A token is a variable, a constant, an operator or any other character,
# which the parser refuses.  Whitespace only separates: `\s` matches what
# `str.isspace` accepts.  `\d` would also take digits such as '٣'.
_TOKEN = re.compile(r"x[0-9]+|[01!&^|()]|\S")


@functools.lru_cache(maxsize=MEMO_SIZE)
def _parse_root(text: str) -> Node:
    """The root node of formula text, read from one regex scan of its tokens.

    Operator precedence is resolved with one frame per open parenthesis: a
    frame holds the finished operands of its '|' level, the XOR chain so far
    and the earlier operands of the current '&' group, plus the count of '!'
    that wait in front of the group's next operand.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the input
    frames: list[tuple] = []  # the enclosing groups, innermost last
    ors: list[Node] = []
    xored: Optional[Node] = None
    ands: list[Node] = []
    nots = 0
    at = -1  # the token read last
    while True:
        # An operand: '!' prefixes, then '(' or an atom.
        at += 1
        tok = tokens[at]
        if tok == "!":
            nots += 1
            continue
        if tok == "(":
            frames.append((ors, xored, ands, nots))
            ors, xored, ands, nots = [], None, [], 0
            continue
        if len(tok) > 1:  # 'x' and digits; every other token is one character
            try:
                index = int(tok[1:])
            except ValueError:  # more digits than int() converts
                raise _syntax_error(text, at, "variable index too long") from None
            if not index:
                raise _syntax_error(text, at, "variable index 0 is not allowed")
            node = var(index)
        elif tok == "0" or tok == "1":
            node = TRUE if tok == "1" else FALSE
        elif tok == "x":
            raise _syntax_error(text, at, "expected digits after 'x'", 1)
        else:
            message = f"unexpected character {tok!r}" if tok else "unexpected end of input"
            raise _syntax_error(text, at, message)
        while True:
            if nots & 1:  # '!!' cancels
                node = not_(node)
            nots = 0
            at += 1
            tok = tokens[at]
            # Anything but '&' closes the '&' group, and anything but '&' or
            # '^' also the XOR chain.
            if tok == "&":
                ands.append(node)
                break
            if ands:
                ands.append(node)
                node = _gather(ands, And, FALSE, TRUE)
                ands = []
            xored = node if xored is None else xor(xored, node)
            if tok == "^":
                break
            ors.append(xored)
            xored = None
            if tok == "|":
                break
            # The group ends.
            node = _gather(ors, Or, TRUE, FALSE) if len(ors) > 1 else ors[0]
            if not frames:
                if tok:
                    raise _syntax_error(text, at)
                return node
            if tok != ")":
                raise _syntax_error(text, at, "expected ')'")
            ors, xored, ands, nots = frames.pop()


def _syntax_error(text: str, at: int, message: str = "", skip: int = 0):
    """The error at token number `at` (past the last, the end of the text),
    moved on by `skip`; with no message, that trailing input is unexpected."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    pos = (starts[at] if at < len(starts) else len(text)) + skip
    message = message or f"unexpected trailing input {text[pos:]!r}"
    return FormulaSyntaxError(message, pos)


_SEPARATOR = {And: " & ", Or: " | ", Xor: " ^ "}


@functools.lru_cache(maxsize=MEMO_SIZE)
def render(node: Node) -> str:
    """Fully parenthesised text form; parses back to the same truth table.

    The texts of the last MEMO_SIZE nodes are kept; nodes are interned, so
    the lookup is by identity.  An And/Or/Xor over literals (x_i, !x_i) is
    written as one joined string; everything else is emitted from an
    explicit stack of pending nodes and strings, so memory stays linear in
    the output whatever the depth.
    """
    out: list[str] = []
    stack: list = [node]
    while stack:
        n = stack.pop()
        kind = type(n)
        if kind is str:
            out.append(n)
        elif kind is Var:
            out.append(f"x{n.index}")
        elif kind is Const:
            out.append("1" if n.value else "0")
        elif kind is Not:
            out.append("!")
            stack.append(n.child)
        else:
            kids = (n.left, n.right) if kind is Xor else n.children
            sep = _SEPARATOR[kind]
            literals = []
            for c in kids:
                if type(c) is Var:
                    literals.append(f"x{c.index}")
                elif type(c) is Not and type(c.child) is Var:
                    literals.append(f"!x{c.child.index}")
                else:
                    break
            else:
                out.append(f"({sep.join(literals)})")
                continue
            out.append("(")
            stack.append(")")
            for c in reversed(kids[1:]):
                stack.append(c)
                stack.append(sep)
            stack.append(kids[0])
    return "".join(out)


def evaluate(f: Formula, a: Assignment) -> int:
    """Evaluate under the standard Boolean semantics: one lane of width 1."""
    if a.length != f.arity:
        raise ArityMismatchError(
            f"assignment length {a.length} does not match arity {f.arity}"
        )
    return evaluate_lanes(f.root, lambda i: (a.bits >> (i - 1)) & 1, 1)


@dataclass(frozen=True)
class TruthTable:
    """Packed table: bit j is the value at the assignment with index j."""

    bits: int
    arity: int

    def __len__(self) -> int:
        return 1 << self.arity

    def bit(self, j: int) -> int:
        return (self.bits >> j) & 1

    def ones(self) -> int:
        return self.bits.bit_count()


@functools.cache
def _var_pattern(index: int, size: int) -> int:
    """Table of x_index over `size` assignments: period 2^index, high half set."""
    half = 1 << (index - 1)
    block = ((1 << half) - 1) << half
    width = half << 1
    while width < size:
        block |= block << width
        width <<= 1
    return block & ((1 << size) - 1)


# The ops of a lane program, each with one arg.  "slot" is the value pushed
# by the node numbered arg, `out` the value an And/Or/Xor is folding and
# `acc` the And/Or root's:
#   0  push lane(arg)                  6  as 5, then push out
#   1  push slot ^ full                7  push out ^ slot (xor)
#   2  out = slot                      8  push full if arg else 0
#   3  out &= slot, unless out is 0    9  acc &= slot (the first: acc = slot);
#   4  as 3, then push out                return acc if it is 0
#   5  out |= slot, unless out is full 10 acc |= slot likewise; return acc
#                                         if it is full
# A fold with 0 or with the very object `full` (a lane that is constant over
# the block, as `_lane_blocks` gives the variables it fixes per block, and
# as `not` keeps it) takes no pass over the lane: it is the operand or the
# other side.
_MID = {And: 3, Or: 5}
_END = {And: 4, Or: 6, Xor: 7}
_TAKE = {And: 9, Or: 10}


def _program(root: Node) -> bytes | array:
    """The lane program of `root`: its (op, arg) instructions, flattened.

    Every node of the post-order and then the root push one value, so a
    node's slot is its place in that order.  An And/Or starts from its first
    operand's value.  An And/Or root instead takes in each operand as soon
    as it and the ones before it are pushed, so the run returns once the
    root is decided, and pushes nothing itself.  Built once per root and
    cached on it, as bytes when every arg fits in one, else in the narrowest
    array type that holds them; like `_order`, it holds no reference back to
    its owner.  A post-order built only to compile it is not kept.
    """
    program = root._program
    if program is None:
        code: list[int] = []
        slot: dict[Node, int] = {}
        ops = root.children if isinstance(root, (And, Or)) else ()
        taken = 0
        order = root._order if root._order is not None else _descendants(root)
        for n in order if ops else chain(order, (root,)):
            if isinstance(n, Var):
                code += (0, n.index)
            elif isinstance(n, Const):
                code += (8, n.value)
            elif isinstance(n, Not):
                code += (1, slot[n.child])
            else:
                kids = _kids(n)
                code += (2, slot[kids[0]])
                for c in kids[1:-1]:
                    code += (_MID[type(n)], slot[c])
                code += (_END[type(n)], slot[kids[-1]])
            slot[n] = len(slot)
            while taken < len(ops) and ops[taken] in slot:
                code += (_TAKE[type(root)], slot[ops[taken]])
                taken += 1
        top = max(code)
        if top < 1 << 8:
            program = bytes(code)
        else:
            program = array("H" if top < 1 << 16 else "I" if top < 1 << 32 else "Q", code)
        object.__setattr__(root, "_program", program)
    return program


def evaluate_lanes(node: Node, lane: Callable[[int], int], full: int) -> int:
    """Evaluate `node` on every bit position of the lanes at once.

    `lane(i)` is the packed column of x_i (bit s is x_i in assignment s) and
    `full` is the all-ones mask over the positions; the result is the packed
    column of the node's values.  Runs the node's `_program`; an And stops
    folding at 0 and an Or at `full`, and an And/Or root returns as soon as
    it is decided (most blocks of a CNF are 0 long before the last clause).
    The per-node lanes are freed on return.
    """
    values: list[int] = []
    push = values.append
    out = acc = None
    steps = iter(_program(node))
    for op, arg in zip(steps, steps):  # (op, arg) pairs
        if op == 2:
            out = values[arg]
        elif op == 5 or op == 6:
            v = values[arg]
            if v and out != full:
                out = v if v is full or not out else out | v
            if op == 6:
                push(out)
        elif op == 3 or op == 4:
            v = values[arg]
            if out and v is not full:
                out = v if not v or out is full else out & v
            if op == 4:
                push(out)
        elif op == 9:
            v = values[arg]
            acc = v if acc is None or acc is full else acc if v is full else acc & v
            if not acc:
                return acc
        elif op == 10:
            v = values[arg]
            acc = v if not acc else acc | v if v else acc
            if acc == full:
                return acc
        elif op == 0:
            push(lane(arg))
        elif op == 1:
            v = values[arg]
            push(full if not v else 0 if v is full else v ^ full)
        elif op == 7:
            push(out ^ values[arg])
        else:
            push(full if arg else 0)
    return values[-1] if acc is None else acc


def _lane_blocks(node: Node, free: list[int], bits: int) -> Iterator[int]:
    """Packed values of `node` at every position p < 2^len(free), by block.

    At position p, variable free[j] is bit j of p XOR bit free[j]-1 of
    `bits`; every other variable v is bit v-1 of `bits`.  Blocks hold
    2^_LEAF_BITS positions (fewer when fewer variables are free), in order
    of p: free[:_LEAF_BITS] vary inside a block as pattern lanes and the rest
    are constant lanes, fixed per block.  Each block's lanes are freed before
    the next is built, so memory is bounded by the block, not by 2^len(free).
    """
    low = min(len(free), _LEAF_BITS)
    size = 1 << low
    full = (1 << size) - 1
    lanes = {v: full if (bits >> (v - 1)) & 1 else 0 for v in _indices(node.support)}
    for j, v in enumerate(free[:low]):
        lanes[v] = _var_pattern(j + 1, size) ^ lanes.get(v, 0)
    high = [(v, (bits >> (v - 1)) & 1) for v in free[low:]]
    for block in range(1 << len(high)):
        for j, (v, b) in enumerate(high):
            lanes[v] = full if ((block >> j) & 1) ^ b else 0
        yield evaluate_lanes(node, lanes.__getitem__, full)


def table_bits(node: Node, arity: int) -> int:
    """Bit-parallel truth table of `node` over 2^arity assignments, built
    one block of positions at a time: bit j is the value at x_i = bit i-1
    of j."""
    nbytes = ((1 << min(arity, _LEAF_BITS)) + 7) // 8
    blocks = _lane_blocks(node, list(range(1, arity + 1)), 0)
    data = b"".join([out.to_bytes(nbytes, "little") for out in blocks])
    return int.from_bytes(data, "little")


def truth_table(f: Formula, enum_cap: int = DEFAULT_ENUM_CAP) -> TruthTable:
    """Full truth table, bit-parallel over blocks of 2^_LEAF_BITS positions."""
    if f.arity > enum_cap:
        raise EnumerationCapExceeded(f.arity, enum_cap, "truth table")
    return TruthTable(table_bits(f.root, f.arity), f.arity)


def from_truth_table(bits: int, arity: int) -> Formula:
    """Minterm DNF realising the given packed table."""
    size = 1 << arity
    if bits < 0 or bits >> size:
        raise ValueError("table bits out of range for the arity")
    if bits == 0:
        return Formula(FALSE, arity)
    if bits == (1 << size) - 1:
        return Formula(TRUE, arity)
    terms = []
    for j in range(size):
        if (bits >> j) & 1:
            literals = [
                var(i) if (j >> (i - 1)) & 1 else not_(var(i))
                for i in range(1, arity + 1)
            ]
            terms.append(and_(*literals))
    return Formula(or_(*terms), arity)


# --------------------------------------------------------------------------
# ReLU compilation.
#
# Gate encodings over {0,1} values:
#   NOT(z)     = 1 - z                      (absorbed into affine parts)
#   AND(a,b)   = relu(a + b - 1)            (one hidden unit)
#   OR(a,b)    = 1 - relu(1 - a - b)        (one hidden unit, affine wrapper)
#   XOR(a,b)   = (a | b) & !(a & b)         (expanded before compilation)
# N-ary gates are folded to binary left-associatively.  All weights and
# biases are small integers; forward passes multiply in float64, which is
# exact while every partial sum stays below 2^53.


@dataclass(frozen=True)
class ReluNetwork:
    """Layered network; hidden layers apply relu, the last layer is affine.

    The classified output thresholds the final affine value at 1/2.  On 0/1
    inputs every intermediate value is exactly 0 or 1.
    """

    weights: tuple
    biases: tuple
    input_dim: int

    def __post_init__(self):
        width = self.input_dim
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != width or w.shape[0] != b.shape[0]:
                raise ValueError("layer dimensions do not chain")
            width = w.shape[0]
        if width != 1:
            raise ValueError("final layer must have a single output")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(w.shape[0] for w in self.weights)

    def forward_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Thresholded outputs for a batch of 0/1 rows, shape (n, input_dim).

        Layers multiply in float64, so BLAS does the work (numpy has none for
        int64).  Before each layer, max row sum of |w| * max |z| + max |b|
        bounds every partial sum from the actual activations z; at 2^53 or
        more a float64 sum could round, and the batch is refused with
        ValueError.
        """
        z = np.asarray(inputs, dtype=np.float64).T
        if z.shape[0] != self.input_dim:
            raise ArityMismatchError(
                f"inputs have {z.shape[0]} columns, network expects {self.input_dim}"
            )
        last = len(self.weights) - 1
        for t, (w, b) in enumerate(zip(self.weights, self.biases)):
            rows = max((sum(map(abs, r)) for r in w.tolist()), default=0)
            top = int(max(z.max(initial=0), -z.min(initial=0)))
            reach = rows * top + max(map(abs, b.tolist()), default=0)
            if reach >= 1 << 53:
                raise ValueError(
                    f"layer {t + 1} sums may reach {reach} >= 2^53, "
                    "past exact float64 integers"
                )
            z = w @ z + b[:, None]
            if t != last:
                np.maximum(z, 0, out=z)
        # Exact integers: out >= 1/2 iff out >= 1.
        return (z[0] >= 1).astype(np.int64)

    def forward(self, a: Assignment) -> int:
        if a.length != self.input_dim:
            raise ArityMismatchError(
                f"assignment length {a.length} does not match input dim {self.input_dim}"
            )
        out = self.forward_batch(np.array([a.as_tuple()], dtype=np.int64))
        return int(out[0])


def _expand_xor(node: Node) -> Node:
    """Rewrite each XOR, inner ones first, as (a | b) & !(a & b) over its
    rewritten operands; other nodes are kept."""
    swap: dict[Node, Node] = {}
    for n in chain(_order(node), (node,)):
        if isinstance(n, Xor):
            a, b = rewrite(n.left, swap), rewrite(n.right, swap)
            swap[n] = and_(or_(a, b), not_(and_(a, b)))
    return rewrite(node, swap)


def compile_to_relu(f: Formula) -> ReluNetwork:
    """Compile to a ReLU network agreeing with the formula on all 0/1 inputs."""
    root = _expand_xor(f.root)
    d = f.arity

    # Wires: ('in', i) for inputs, ('g', n) for gate units.  A gate's value is
    # an affine expression (offset, {wire: coeff}) over units of its layer.
    gates: list[tuple[dict, int]] = []  # (input coefficients, input bias)
    gate_layer: list[int] = []
    wire_layer: dict = {("in", i): 0 for i in range(1, d + 1)}

    def make_gate(kind: str, a: tuple[int, dict], b: tuple[int, dict]):
        oa, ca = a
        ob, cb = b
        depth = 1 + max(
            [wire_layer[w] for w in ca] + [wire_layer[w] for w in cb] + [0]
        )
        merged: dict = {}
        for w, c in list(ca.items()) + list(cb.items()):
            merged[w] = merged.get(w, 0) + c
        gid = len(gates)
        if kind == "and":
            # unit = relu(a + b - 1); value = unit
            gates.append((merged, oa + ob - 1))
            value = (0, {("g", gid): 1})
        else:
            # unit = relu(1 - a - b); value = 1 - unit
            gates.append(({w: -c for w, c in merged.items()}, 1 - oa - ob))
            value = (1, {("g", gid): -1})
        gate_layer.append(depth)
        wire_layer[("g", gid)] = depth
        return value

    # Operands are folded left to right, each as soon as a depth-first pass
    # finishes it; that order numbers the gates.  Stack frames hold a node,
    # its next operand and the value folded so far.
    affine: dict[Node, tuple[int, dict]] = {}
    stack: list[list] = [[root, 0, None]]
    while stack:
        frame = stack[-1]
        n, i, acc = frame
        kids = _kids(n)
        if i < len(kids):
            if kids[i] not in affine:
                stack.append([kids[i], 0, None])
                continue
            # N-ary And/Or folded to a left-associative binary chain.
            got = affine[kids[i]]
            kind = "and" if isinstance(n, And) else "or"
            frame[1:] = i + 1, (got if i == 0 else make_gate(kind, acc, got))
            continue
        stack.pop()
        if isinstance(n, Var):
            affine[n] = (0, {("in", n.index): 1})
        elif isinstance(n, Const):
            affine[n] = (n.value, {})
        elif isinstance(n, Not):
            o, coeffs = acc
            affine[n] = (1 - o, {w: -c for w, c in coeffs.items()})
        else:
            affine[n] = acc

    root_offset, root_coeffs = affine[root]
    n_layers = max(gate_layer) if gate_layer else 0

    # Wire order per layer: inputs, then gates with layer <= t in id order.
    def wires_at(t: int) -> list:
        ws = [("in", i) for i in range(1, d + 1)]
        ws += [("g", g) for g in range(len(gates)) if gate_layer[g] <= t]
        return ws

    weights = []
    biases = []
    for t in range(1, n_layers + 1):
        prev = wires_at(t - 1)
        prev_pos = {w: j for j, w in enumerate(prev)}
        cur = wires_at(t)
        w_mat = np.zeros((len(cur), len(prev)), dtype=np.int64)
        b_vec = np.zeros(len(cur), dtype=np.int64)
        for row, wire in enumerate(cur):
            if wire_layer[wire] < t:
                w_mat[row, prev_pos[wire]] = 1  # relu passthrough of a 0/1 wire
            else:
                coeffs, offset = gates[wire[1]]
                for src, c in coeffs.items():
                    w_mat[row, prev_pos[src]] = c
                b_vec[row] = offset
        weights.append(w_mat)
        biases.append(b_vec)

    final_wires = wires_at(n_layers)
    final_pos = {w: j for j, w in enumerate(final_wires)}
    w_out = np.zeros((1, len(final_wires)), dtype=np.int64)
    for src, c in root_coeffs.items():
        w_out[0, final_pos[src]] = c
    b_out = np.array([root_offset], dtype=np.int64)
    weights.append(w_out)
    biases.append(b_out)

    return ReluNetwork(tuple(weights), tuple(biases), d)
