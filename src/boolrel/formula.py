"""Boolean formula ASTs: parsing, evaluation, truth tables, ReLU compilation.

Formulas are ASTs over variables ``x1..xd`` with NOT/AND/OR/XOR and the
constants 0/1.  AND and OR are n-ary (instance builders emit wide
conjunctions), XOR is binary and chained left-associatively.  Nodes are
hash-consed: structurally identical subtrees are the same object, so node
identity doubles as structural equality and per-node caches can key on the
object itself.

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

from dataclasses import dataclass, field
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
    "from_truth_table",
    "ReluNetwork",
    "compile_to_relu",
]

DEFAULT_ENUM_CAP = 26


class FormulaSyntaxError(ValueError):
    """Malformed formula text.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ArityMismatchError(ValueError):
    """Assignment or mask length does not match the formula arity."""


class EnumerationCapExceeded(RuntimeError):
    """A request would enumerate more variables than the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "enumeration"):
        super().__init__(
            f"{what} over {needed} variables exceeds the cap of {cap}; "
            f"raise the cap explicitly to proceed"
        )
        self.needed = needed
        self.cap = cap


# --------------------------------------------------------------------------
# AST nodes.  eq=False keeps identity semantics; interning below guarantees
# structural equality coincides with identity.


class Node:
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Var(Node):
    index: int


@dataclass(frozen=True, eq=False)
class Const(Node):
    value: int


@dataclass(frozen=True, eq=False)
class Not(Node):
    child: Node


@dataclass(frozen=True, eq=False)
class And(Node):
    children: tuple[Node, ...]


@dataclass(frozen=True, eq=False)
class Or(Node):
    children: tuple[Node, ...]


@dataclass(frozen=True, eq=False)
class Xor(Node):
    left: Node
    right: Node


_interned: dict = {}


def _intern(key, make):
    node = _interned.get(key)
    if node is None:
        node = make()
        _interned[key] = node
    return node


def const(value: int) -> Const:
    if value not in (0, 1):
        raise ValueError(f"constant must be 0 or 1, got {value!r}")
    return _intern(("const", value), lambda: Const(value))


FALSE = const(0)
TRUE = const(1)


def var(index: int) -> Var:
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"variable index must be a positive integer, got {index!r}")
    return _intern(("var", index), lambda: Var(index))


def not_(child: Node) -> Node:
    if isinstance(child, Const):
        return const(1 - child.value)
    if isinstance(child, Not):
        return child.child
    return _intern(("not", id(child)), lambda: Not(child))


def _gather(children: Iterable[Node], cls, absorbing: Const, neutral: Const):
    """Flatten, drop neutral constants, dedupe, detect complements."""
    flat: list[Node] = []
    seen: set[int] = set()
    for c in children:
        if isinstance(c, cls):
            sub = c.children
        else:
            sub = (c,)
        for s in sub:
            if s is absorbing:
                return None
            if s is neutral:
                continue
            if id(s) in seen:
                continue
            comp = not_(s)
            if id(comp) in seen:
                return None
            seen.add(id(s))
            flat.append(s)
    return flat


def and_(*children: Node) -> Node:
    flat = _gather(children, And, FALSE, TRUE)
    if flat is None:
        return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    key = ("and",) + tuple(id(c) for c in flat)
    return _intern(key, lambda: And(tuple(flat)))


def or_(*children: Node) -> Node:
    flat = _gather(children, Or, TRUE, FALSE)
    if flat is None:
        return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    key = ("or",) + tuple(id(c) for c in flat)
    return _intern(key, lambda: Or(tuple(flat)))


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
        key = ("xor", id(left), id(right))
        result = _intern(key, lambda: Xor(left, right))
    return not_(result) if negate else result


def xor_all(operands: Iterable[Node]) -> Node:
    """Left-associative XOR chain; empty chain is 0."""
    result: Node = FALSE
    first = True
    for op in operands:
        result = op if first else xor(result, op)
        first = False
    return result


# --------------------------------------------------------------------------
# Structural helpers.

_support_cache: dict[int, frozenset[int]] = {}


def support(node: Node) -> frozenset[int]:
    """Set of variable indices occurring in the node."""
    cached = _support_cache.get(id(node))
    if cached is not None:
        return cached
    if isinstance(node, Var):
        result = frozenset((node.index,))
    elif isinstance(node, Const):
        result = frozenset()
    elif isinstance(node, Not):
        result = support(node.child)
    elif isinstance(node, Xor):
        result = support(node.left) | support(node.right)
    else:
        result = frozenset().union(*(support(c) for c in node.children))
    # Nodes are interned for the process lifetime, so id-keyed caching is safe.
    _support_cache[id(node)] = result
    return result


def substitute(node: Node, fixed: dict[int, int]) -> Node:
    """Replace variables by constants and fold.  Truth-preserving."""
    return compose_variables(node, {i: const(b) for i, b in fixed.items()})


def shift_variables(node: Node, offset: int) -> Node:
    """Renumber every variable index by +offset."""
    return compose_variables(node, {i: var(i + offset) for i in support(node)})


def compose_variables(node: Node, mapping: dict[int, Node]) -> Node:
    """Substitute whole subformulas for variables; unmapped variables stay."""
    memo: dict[int, Node] = {}

    def walk(n: Node) -> Node:
        got = memo.get(id(n))
        if got is not None:
            return got
        if isinstance(n, Var):
            out = mapping.get(n.index, n)
        elif isinstance(n, Const):
            out = n
        elif isinstance(n, Not):
            out = not_(walk(n.child))
        elif isinstance(n, And):
            out = and_(*(walk(c) for c in n.children))
        elif isinstance(n, Or):
            out = or_(*(walk(c) for c in n.children))
        else:
            out = xor(walk(n.left), walk(n.right))
        memo[id(n)] = out
        return out

    return walk(node)


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
    def from_bits(cls, values: Iterable[int]) -> "Assignment":
        bits = 0
        n = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError(f"assignment entries must be bits, got {v!r}")
            bits |= v << i
            n = i + 1
        return cls(bits, n)

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        """Parse a bitstring; the leftmost character is x1."""
        if not all(ch in "01" for ch in text):
            raise ValueError(f"assignment string must be over 0/1, got {text!r}")
        return cls.from_bits(int(ch) for ch in text)

    @classmethod
    def from_index(cls, j: int, length: int) -> "Assignment":
        """Assignment number j of the truth-table order (x_i = bit i-1 of j)."""
        return cls(j, length)

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

    def with_bit(self, i: int, value: int) -> "Assignment":
        if not 1 <= i <= self.length:
            raise IndexError(f"variable index {i} out of range 1..{self.length}")
        mask = 1 << (i - 1)
        bits = (self.bits | mask) if value else (self.bits & ~mask)
        return Assignment(bits, self.length)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.as_tuple())


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
        return tuple(i for i in range(1, self.length + 1) if (self.bits >> (i - 1)) & 1)

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
        supp = support(self.root)
        top = max(supp) if supp else 0
        if self.arity < top:
            raise ValueError(
                f"arity {self.arity} is below the largest variable index {top}"
            )

    @classmethod
    def of(cls, root: Node, arity: Optional[int] = None) -> "Formula":
        if arity is None:
            supp = support(root)
            arity = max(supp) if supp else 0
        return cls(root, arity)

    def __str__(self) -> str:
        return render(self.root)


def parse(text: str, arity: Optional[int] = None) -> Formula:
    """Parse formula text into a Formula.

    The optional arity widens the variable universe beyond the largest index
    mentioned; it may not shrink it.
    """
    parser = _Parser(text)
    root = parser.parse_expr()
    parser.expect_end()
    return Formula.of(root, arity)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self) -> str:
        ch = self._peek()
        self.pos += 1
        return ch

    def parse_expr(self) -> Node:
        return self.parse_or()

    def parse_or(self) -> Node:
        items = [self.parse_xor()]
        while self._peek() == "|":
            self.pos += 1
            items.append(self.parse_xor())
        return or_(*items) if len(items) > 1 else items[0]

    def parse_xor(self) -> Node:
        node = self.parse_and()
        while self._peek() == "^":
            self.pos += 1
            node = xor(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        items = [self.parse_unary()]
        while self._peek() == "&":
            self.pos += 1
            items.append(self.parse_unary())
        return and_(*items) if len(items) > 1 else items[0]

    def parse_unary(self) -> Node:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return not_(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            if self._peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch in ("0", "1"):
            self.pos += 1
            return const(int(ch))
        if ch == "x":
            self.pos += 1
            digits = ""
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                digits += self.text[self.pos]
                self.pos += 1
            if not digits:
                raise FormulaSyntaxError("expected digits after 'x'", self.pos)
            index = int(digits)
            if index == 0:
                raise FormulaSyntaxError("variable index 0 is not allowed", start)
            return var(index)
        if ch == "":
            raise FormulaSyntaxError("unexpected end of input", self.pos)
        raise FormulaSyntaxError(f"unexpected character {ch!r}", self.pos)

    def expect_end(self):
        if self._peek() != "":
            raise FormulaSyntaxError(
                f"unexpected trailing input {self.text[self.pos:]!r}", self.pos
            )


def render(node: Node) -> str:
    """Fully parenthesised text form; parses back to the same truth table."""
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Not):
        return f"!{render(node.child)}"
    if isinstance(node, And):
        return "(" + " & ".join(render(c) for c in node.children) + ")"
    if isinstance(node, Or):
        return "(" + " | ".join(render(c) for c in node.children) + ")"
    return f"({render(node.left)} ^ {render(node.right)})"


def evaluate(f: Formula, a: Assignment) -> int:
    """Evaluate under the standard Boolean semantics."""
    if a.length != f.arity:
        raise ArityMismatchError(
            f"assignment length {a.length} does not match arity {f.arity}"
        )
    return _evaluate_node(f.root, a.bits, {})


# The two evaluators recurse through module-level functions that take their
# memo as an argument: a nested function calling itself would be a reference
# cycle, keeping the memo (for lanes, one big int per node) alive after the
# call returns until the cyclic collector runs.


def _evaluate_node(n: Node, bits: int, memo: dict[int, int]) -> int:
    got = memo.get(id(n))
    if got is not None:
        return got
    if isinstance(n, Var):
        out = (bits >> (n.index - 1)) & 1
    elif isinstance(n, Const):
        out = n.value
    elif isinstance(n, Not):
        out = 1 - _evaluate_node(n.child, bits, memo)
    elif isinstance(n, And):
        out = 1
        for c in n.children:
            if _evaluate_node(c, bits, memo) == 0:
                out = 0
                break
    elif isinstance(n, Or):
        out = 0
        for c in n.children:
            if _evaluate_node(c, bits, memo) == 1:
                out = 1
                break
    else:
        out = _evaluate_node(n.left, bits, memo) ^ _evaluate_node(n.right, bits, memo)
    memo[id(n)] = out
    return out


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


def _var_pattern(index: int, size: int) -> int:
    """Table of x_index over `size` assignments: period 2^index, high half set."""
    half = 1 << (index - 1)
    block = ((1 << half) - 1) << half
    width = half << 1
    while width < size:
        block |= block << width
        width <<= 1
    return block & ((1 << size) - 1)


def evaluate_lanes(node: Node, lane: Callable[[int], int], full: int) -> int:
    """Evaluate `node` on every bit position of the lanes at once.

    `lane(i)` is the packed column of x_i (bit s is x_i in assignment s) and
    `full` is the all-ones mask over the positions; the result is the packed
    column of the node's values.  The per-node lanes are freed on return.
    """
    return _lanes_node(node, lane, full, {})


def _lanes_node(
    n: Node, lane: Callable[[int], int], full: int, memo: dict[int, int]
) -> int:
    got = memo.get(id(n))
    if got is not None:
        return got
    if isinstance(n, Var):
        out = lane(n.index)
    elif isinstance(n, Const):
        out = full if n.value else 0
    elif isinstance(n, Not):
        out = _lanes_node(n.child, lane, full, memo) ^ full
    elif isinstance(n, And):
        out = full
        for c in n.children:
            out &= _lanes_node(c, lane, full, memo)
            if not out:
                break
    elif isinstance(n, Or):
        out = 0
        for c in n.children:
            out |= _lanes_node(c, lane, full, memo)
            if out == full:
                break
    else:
        out = _lanes_node(n.left, lane, full, memo) ^ _lanes_node(
            n.right, lane, full, memo
        )
    memo[id(n)] = out
    return out


def table_bits(node: Node, arity: int) -> int:
    """Bit-parallel truth table of `node` over 2^arity assignments."""
    size = 1 << arity
    return evaluate_lanes(node, lambda i: _var_pattern(i, size), (1 << size) - 1)


def truth_table(f: Formula, enum_cap: int = DEFAULT_ENUM_CAP) -> TruthTable:
    """Full truth table, bit-parallel over machine-word blocks."""
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
# biases are small integers, so forward passes are exact in int64.


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
        """Thresholded outputs for a batch of 0/1 rows, shape (n, input_dim)."""
        z = np.asarray(inputs, dtype=np.int64).T
        if z.shape[0] != self.input_dim:
            raise ArityMismatchError(
                f"inputs have {z.shape[0]} columns, network expects {self.input_dim}"
            )
        last = len(self.weights) - 1
        for t, (w, b) in enumerate(zip(self.weights, self.biases)):
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
    """Rewrite XOR via AND/OR/NOT; other nodes are kept."""
    memo: dict[int, Node] = {}

    def walk(n: Node) -> Node:
        got = memo.get(id(n))
        if got is not None:
            return got
        if isinstance(n, (Var, Const)):
            out = n
        elif isinstance(n, Not):
            out = not_(walk(n.child))
        elif isinstance(n, Xor):
            a = walk(n.left)
            b = walk(n.right)
            out = and_(or_(a, b), not_(and_(a, b)))
        else:
            rebuilt = and_ if isinstance(n, And) else or_
            out = rebuilt(*(walk(c) for c in n.children))
        memo[id(n)] = out
        return out

    return walk(node)


def compile_to_relu(f: Formula) -> ReluNetwork:
    """Compile to a ReLU network agreeing with the formula on all 0/1 inputs."""
    root = _expand_xor(f.root)
    d = f.arity

    # Wires: ('in', i) for inputs, ('g', n) for gate units.  A gate's value is
    # an affine expression (offset, {wire: coeff}) over units of its layer.
    gates: list[tuple[dict, int]] = []  # (input coefficients, input bias)
    gate_layer: list[int] = []
    wire_layer: dict = {("in", i): 0 for i in range(1, d + 1)}
    value_memo: dict[int, tuple[int, dict]] = {}

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

    def affine(n: Node) -> tuple[int, dict]:
        got = value_memo.get(id(n))
        if got is not None:
            return got
        if isinstance(n, Var):
            out = (0, {("in", n.index): 1})
        elif isinstance(n, Const):
            out = (n.value, {})
        elif isinstance(n, Not):
            o, coeffs = affine(n.child)
            out = (1 - o, {w: -c for w, c in coeffs.items()})
        else:
            # N-ary And/Or folded to a left-associative binary chain.
            kind = "and" if isinstance(n, And) else "or"
            out = affine(n.children[0])
            for child in n.children[1:]:
                out = make_gate(kind, out, affine(child))
        value_memo[id(n)] = out
        return out

    root_offset, root_coeffs = affine(root)
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
