import gc
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import boolrel.formula as formula

from boolrel.formula import (
    And,
    Assignment,
    EnumerationCapExceeded,
    Formula,
    FormulaSyntaxError,
    Not,
    Or,
    ReluNetwork,
    SubsetMask,
    Var,
    and_,
    compile_to_relu,
    const,
    evaluate,
    evaluate_lanes,
    from_truth_table,
    not_,
    or_,
    parse,
    render,
    rewrite,
    shift_variables,
    substitute,
    support,
    truth_table,
    var,
    xor,
)
from oracles import (
    _pattern,
    _table,
    _value,
    naive_count_ones,
    random_formula,
    random_formula_node,
    reference_parse,
    reference_render,
    reference_rewrite,
)

FIG1 = "(x1 & x2) | !x3"


def table_tuple(f):
    tt = truth_table(f)
    return tuple(tt.bit(j) for j in range(len(tt)))


class TestParse:
    def test_fig1_shape(self):
        f = parse(FIG1)
        assert f.arity == 3
        assert isinstance(f.root, Or)
        left, right = f.root.children
        assert isinstance(left, And)
        assert isinstance(right, Not)

    def test_single_variable(self):
        f = parse("x1")
        assert f.arity == 1
        assert isinstance(f.root, Var)

    def test_xor_self_is_all_zero(self):
        f = parse("x1 ^ x1")
        assert table_tuple(Formula(f.root, 1)) == (0, 0)

    def test_precedence(self):
        # ! > & > ^ > |
        f = parse("x1 | x2 ^ x3 & !x4")
        g = parse("x1 | (x2 ^ (x3 & (!x4)))")
        assert f.root is g.root

    def test_nary_collection(self):
        f = parse("x1 & x2 & x3")
        assert isinstance(f.root, And)
        assert len(f.root.children) == 3

    def test_syntax_error_offset(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x1 & $")
        assert err.value.offset == 5

    def test_rejects_variable_zero(self):
        with pytest.raises(FormulaSyntaxError):
            parse("x0")

    def test_rejects_bare_x(self):
        with pytest.raises(FormulaSyntaxError):
            parse("x & x1")

    def test_rejects_trailing(self):
        with pytest.raises(FormulaSyntaxError):
            parse("x1 x2")

    def test_rejects_unbalanced(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(x1 & x2")

    def test_whitespace_insignificant(self):
        assert parse("  x1&x2  ").root is parse("x1 & x2").root

    def test_roundtrip_random(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            d = rng.randint(1, 10)
            f = random_formula(rng, d, rng.randint(1, 14))
            g = parse(render(f.root), arity=d)
            assert table_tuple(f) == table_tuple(g)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("", "unexpected end of input", 0),
            ("   ", "unexpected end of input", 3),
            ("!", "unexpected end of input", 1),
            ("(x1 | x2 ^ ", "unexpected end of input", 11),
            ("x0", "variable index 0 is not allowed", 0),
            ("x00", "variable index 0 is not allowed", 0),
            ("x & x1", "expected digits after 'x'", 1),
            ("x1 x2", "unexpected trailing input 'x2'", 3),
            ("x1 )", "unexpected trailing input ')'", 3),
            ("(x1 & x2", "expected ')'", 8),
            ("((x1)", "expected ')'", 5),
            ("x1 & & x2", "unexpected character '&'", 5),
            ("()", "unexpected character ')'", 1),
            ("x1 & (x2 | )", "unexpected character ')'", 11),
            ("y1", "unexpected character 'y'", 0),
        ],
    )
    def test_error_messages_and_offsets(self, text, message, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, offset", [("x\u00b2", 1), ("x1\u0663", 2)])
    def test_non_ascii_digits_are_syntax_errors(self, text, offset):
        # str.isdigit accepts these, int() does not.
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_index_too_long_for_int_is_syntax_error(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x2 & x" + "7" * 5000)
        assert err.value.offset == 5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.integers(1, 9), st.integers(1, 30))
    def test_render_parse_is_identity(self, seed, d, budget):
        root = random_formula_node(random.Random(seed), d, budget)
        assert parse(render(root)).root is root

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.text(alphabet="x0123456789()!&|^ 01x2\t\u00a0\u00b2\u0663$y", max_size=24))
    def test_any_text_parses_or_is_a_syntax_error(self, text):
        try:
            f = parse(text)
        except FormulaSyntaxError as err:
            assert 0 <= err.offset <= len(text)
        else:
            assert isinstance(f, Formula)


def _outcome(parser, text):
    """The root `parser` gives for `text`, or its syntax error's text and offset."""
    try:
        return parser(text)
    except FormulaSyntaxError as err:
        return str(err), err.offset


def _literal(rng, v):
    return f"!x{v}" if rng.random() < 0.5 else f"x{v}"


def _cnf_text(rng, variables, clauses):
    picks = (rng.sample(variables, 3) for _ in range(clauses))
    return "(" + " & ".join(
        "(" + " | ".join(_literal(rng, v) for v in vs) + ")" for vs in picks
    ) + ")"


def _wide_text(rng, kind):
    """Text shaped like the benchmark's wide formulas: variable-disjoint 3-CNF
    blocks, XOR chains of 40-100 literals, or hosts each carrying a DNF of
    disjoint conjunctions."""
    top = 0

    def fresh(n):
        nonlocal top
        top += n
        return list(range(top - n + 1, top + 1))

    parts = []
    if kind == "blocks":
        for _ in range(rng.randint(14, 20)):
            vs = fresh(rng.randint(5, 8))
            parts.append(_cnf_text(rng, vs, len(vs)))
    elif kind == "xor":
        for _ in range(rng.randint(2, 3)):
            vs = fresh(rng.randint(6, 8))
            parts.append(_cnf_text(rng, vs, len(vs)))
            chain = fresh(rng.randint(40, 100))
            parts.append("(" + " ^ ".join(_literal(rng, v) for v in chain) + ")")
        rng.shuffle(parts)
    else:
        for _ in range(rng.randint(4, 6)):
            vs = fresh(rng.randint(8, 10))
            terms = [fresh(w) for w in range(1, rng.randint(4, 7))]
            pi = " | ".join("(" + " & ".join(f"x{v}" for v in t) + ")" for t in terms)
            op = rng.choice([" | ", " & "])
            parts.append(f"({_cnf_text(rng, vs, 2 * len(vs))}{op}({pi}))")
    return "(" + rng.choice([" & ", " | "]).join(parts) + ")"


WIDE_TEXTS = [
    _wide_text(random.Random(seed), kind)
    for seed in range(4)
    for kind in ("blocks", "xor", "gadget")
] + [_cnf_text(random.Random(d), list(range(1, d + 1)), 4 * d) for d in (20, 22, 24)]

# Pieces of texts for the differential parse test: every token kind, the
# whitespace and non-ASCII digits `str.isspace`, `str.isdigit` or `\d`
# accept, and a digit run past the 4300 digits int() converts.  Indices
# stay below 10^6: a Var's support mask has `index` bits, so a ten-digit
# index would ask for gigabytes.
TEXT_PIECES = st.sampled_from(
    list("x01!&^|() \t\x1c\u00b2\u0663$y") + ["x1", "x12", "77", "7" * 4301]
)


class TestTokenScan:
    """The one-scan parser and the literal-group renderer against the
    character-by-character parser and node-by-node renderer they replaced."""

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(st.lists(TEXT_PIECES, max_size=30))
    def test_parse_matches_the_reference(self, pieces):
        text = "".join(pieces)
        runs = re.findall("[0-9]+", text)
        assume(all(len(run) < 6 or len(run) > 4300 for run in runs))
        got = _outcome(formula._parse_root.__wrapped__, text)
        want = _outcome(reference_parse, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got is want

    def test_whitespace_is_what_isspace_accepts(self):
        for point in range(sys.maxunicode + 1):
            ch = chr(point)
            assert formula._TOKEN.findall(ch) == ([] if ch.isspace() else [ch])

    @pytest.mark.parametrize("text", WIDE_TEXTS)
    def test_wide_texts_match_the_reference(self, text):
        root = formula._parse_root.__wrapped__(text)
        assert root is reference_parse(text)
        assert render.__wrapped__(root) == reference_render(root)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.integers(1, 9), st.integers(1, 40))
    def test_render_matches_the_reference(self, seed, d, budget):
        root = random_formula_node(random.Random(seed), d, budget)
        assert render.__wrapped__(root) == reference_render(root)


def _binary(parts):
    left, op, right = parts
    return f"({left} {op} {right})"


FORMULA_TEXTS = st.recursive(
    st.one_of(st.integers(1, 12).map("x{}".format), st.sampled_from(["0", "1"])),
    lambda inner: st.one_of(
        inner.map("!{}".format),
        st.tuples(inner, st.sampled_from("&|^"), inner).map(_binary),
    ),
    max_leaves=16,
)


class TestMemo:
    """The parse and render memos change no answer."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(FORMULA_TEXTS, st.integers(0, 3))
    def test_memo_is_invisible(self, text, extra):
        f, g = parse(text), parse(text)
        assert f == g and f.root is g.root
        assert f.root is formula._parse_root.__wrapped__(text)
        assert str(f) == render.__wrapped__(f.root) == str(g)
        wide = parse(text, f.arity + extra)
        assert wide.root is f.root and wide.arity == f.arity + extra
        assert str(wide) == str(f)
        if f.arity:
            with pytest.raises(ValueError, match="below the largest"):
                parse(text, f.arity - 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(FORMULA_TEXTS, st.sampled_from(["{} &", "({}", "{} )", "{} x0", "&{}"]))
    def test_syntax_errors_are_not_memoised(self, text, corrupt):
        bad = corrupt.format(text)
        offsets = []
        for _ in range(2):
            with pytest.raises(FormulaSyntaxError) as err:
                parse(bad)
            offsets.append((str(err.value), err.value.offset))
        assert offsets[0] == offsets[1]

    def test_memos_hold_at_most_their_bound(self):
        size = formula.MEMO_SIZE
        first = parse("x1 & x2 | x3")
        for i in range(1, size + 2):
            assert str(parse(f"x{i} ^ x{i + 1}")) == f"(x{i} ^ x{i + 1})"
        assert formula._parse_root.cache_info().currsize <= size
        assert render.cache_info().currsize <= size
        # Evicted or not, a text still gives the same root and text.
        again = parse("x1 & x2 | x3")
        assert again.root is first.root and str(again) == str(first)


class TestEvaluate:
    def test_fig1_cases(self):
        f = parse(FIG1)
        # Derived by enumerating the truth table of (x1 & x2) | !x3.
        assert evaluate(f, Assignment.from_string("110")) == 1
        assert evaluate(f, Assignment.from_string("011")) == 0

    def test_constant(self):
        f = Formula(const(1), 4)
        assert evaluate(f, Assignment.zeros(4)) == 1

    def test_arity_mismatch(self):
        f = parse(FIG1)
        with pytest.raises(ValueError):
            evaluate(f, Assignment.from_string("11"))

    @pytest.mark.parametrize(
        "text",
        [
            "(x1 | x2) & x1",  # the second operand is met inside the first
            "(x1 & x2) | x1",
            "(x1 | x2) & (!x1 | x3) & (!x2 | !x3) & (x1 | !x3)",  # unsatisfiable
            "(x1 & x2) | (!x1 & x3) | (x2 & x3) | !x2",
        ],
    )
    def test_lanes_of_and_or_roots(self, text):
        # An And/Or root stops once it is decided; eight lanes at once and
        # one at a time (`evaluate`) still match the oracle's own table.
        f = parse(text, arity=3)
        lane = {i: sum(((j >> (i - 1)) & 1) << j for j in range(8)) for i in (1, 2, 3)}
        want = _table(f.root, 3)
        assert evaluate_lanes(f.root, lane.__getitem__, 0xFF) == want
        for j in range(8):
            assert evaluate(f, Assignment(j, 3)) == (want >> j) & 1

    def test_no_reference_cycles(self):
        # The evaluator frees its memo by reference counting on return, at
        # width 1 (`evaluate`) as at any other: nothing is left for the
        # cyclic collector.
        f = parse(FIG1)
        a = Assignment.from_string("110")
        lane = {1: 0b1010, 2: 0b1100, 3: 0b1111}.__getitem__
        gc.collect()
        assert evaluate(f, a) == 1
        assert evaluate_lanes(f.root, lane, 0b1111) == 0b1000
        assert gc.collect() == 0


class TestLaneProgram:
    """`evaluate_lanes` runs a program compiled once per root; it must give
    the oracle's values at any width and in any block."""

    @pytest.mark.parametrize("width", [1, 8, 64])
    def test_matches_the_oracle(self, width):
        rng = random.Random(width)
        full = (1 << width) - 1
        for _ in range(300):
            d = rng.randint(1, 8)
            root = random_formula_node(rng, d, rng.randint(1, 40))
            # Some lanes are 0 or `full` itself, as `_lane_blocks` gives the
            # variables it fixes per block.
            lanes = {
                i: rng.choice([rng.getrandbits(width), rng.getrandbits(width), 0, full])
                for i in range(1, d + 1)
            }
            want = _value(root, lanes.__getitem__, full)
            assert evaluate_lanes(root, lanes.__getitem__, full) == want, render(root)

    def test_blocks_match_the_oracle(self, monkeypatch):
        # Blocks of 2^3 positions, so every root runs its program on many
        # blocks; And/Or roots of clauses and terms return early on some.
        monkeypatch.setattr(formula, "_LEAF_BITS", 3)
        rng = random.Random(23)
        roots = [random_formula_node(rng, 7, rng.randint(2, 30)) for _ in range(100)]
        for _ in range(40):
            clauses = [
                [var(v) if rng.random() < 0.5 else not_(var(v)) for v in rng.sample(range(1, 8), 3)]
                for _ in range(rng.randint(2, 12))
            ]
            roots.append(and_(*(or_(*c) for c in clauses)))
            roots.append(or_(*(and_(*c) for c in clauses)))
        for root in roots:
            d = 7
            assert formula.table_bits(root, d) == _table(root, d), render(root)
            # Some variables free (bit j of the position XOR the base), the
            # rest fixed by the base.
            free = sorted(rng.sample(range(1, d + 1), rng.randint(0, d)))
            bits = rng.getrandbits(d)
            size = 1 << len(free)
            every = (1 << size) - 1

            def column(v):
                base = every if (bits >> (v - 1)) & 1 else 0
                if v in free:
                    return _pattern(free.index(v) + 1, size) ^ base
                return base

            want = _value(root, column, every)
            step = 1 << min(len(free), 3)
            blocks = formula._lane_blocks(root, free, bits)
            got = sum(out << (i * step) for i, out in enumerate(blocks))
            assert got == want, render(root)

    def test_and_or_roots_return_once_decided(self):
        # The root's first operand decides it, so x3's lane is not read.
        for root, low in [
            (and_(var(1), or_(var(2), var(3))), 0),
            (or_(var(1), and_(var(2), not_(var(3)))), 0b1111),
            (and_(or_(var(1), var(2)), or_(not_(var(2)), var(3))), 0),
        ]:
            read = []

            def lane(i):
                read.append(i)
                return low if i < 3 else 0b0110

            assert evaluate_lanes(root, lane, 0b1111) == low
            assert 3 not in read, render(root)

    def test_program_is_no_larger_than_the_post_order(self):
        # The program is what evaluation keeps for a root: about one byte per
        # op and per arg while the slots fit in a byte, against eight per
        # node for the cached post-order.
        rng = random.Random(29)
        roots = [random_formula_node(rng, rng.randint(2, 40), rng.randint(1, 200))
                 for _ in range(300)]
        for d in (20, 22, 24):  # the benchmark's 3-CNF sizes
            clauses = [
                [var(v) if rng.random() < 0.5 else not_(var(v)) for v in rng.sample(range(1, d + 1), 3)]
                for _ in range(4 * d)
            ]
            roots.append(and_(*(or_(*c) for c in clauses)))
        roots.append(parse(" ^ ".join(f"x{i}" for i in range(1, 2401))).root)
        for root in roots:
            program = formula._program(root)
            assert sys.getsizeof(program) <= sys.getsizeof(formula._order(root))
        # Past 255 slots each op and arg takes two bytes: a wide 3-CNF, whose
        # literals are shared by many clauses, stays within twice its order.
        clauses = [[var(v) for v in rng.sample(range(1, 61), 3)] for _ in range(240)]
        root = and_(*(or_(*c) for c in clauses))
        program = formula._program(root)
        assert sys.getsizeof(program) <= 2 * sys.getsizeof(formula._order(root))


DEEP_SCRIPT = """
import sys
from boolrel.formula import *
from boolrel.formula import evaluate_lanes

sys.setrecursionlimit(150)

# 1000 nested groups alternating '&' and '|' over x1..x6, built as text.
text = "x6"
for level in range(1000):
    text = f"(x{level % 5 + 1} {'&|'[level % 2]} {text})"
f = parse(text)
assert render(f.root) == text
assert parse(render(f.root)).root is f.root
assert support(f.root) == {1, 2, 3, 4, 5, 6}


def expected(bits):
    value = bits >> 5
    for level in range(1000):
        b = (bits >> (level % 5)) & 1
        value = (b & value) if level % 2 == 0 else (b | value)
    return value


table = sum(expected(j) << j for j in range(64))
for j in range(64):
    assert evaluate(f, Assignment(j, 6)) == expected(j)
lane = lambda i: sum(((j >> (i - 1)) & 1) << j for j in range(64))
assert evaluate_lanes(f.root, lane, (1 << 64) - 1) == table
swapped = Formula(compose_variables(f.root, {1: var(2), 2: var(1)}), 6)
for j in range(64):
    k = (j & ~3) | ((j & 1) << 1) | ((j >> 1) & 1)
    assert evaluate(swapped, Assignment(j, 6)) == expected(k)

# 100 nested groups over two variables for the ReLU compiler.
text = "x2"
for level in range(100):
    text = f"(x{level % 2 + 1} {'|&'[level % 2]} {text})"
g = parse(text)
net = compile_to_relu(g)
for j in range(4):
    assert net.forward(Assignment(j, 2)) == evaluate(g, Assignment(j, 2))

# 10^4 nested parentheses, and a missing ')' at that depth.
depth = 10 ** 4
assert parse("(" * depth + "x1" + ")" * depth).root is var(1)
assert parse("!(" * depth + "x1 & x2" + ")" * depth).root is parse("x1 & x2").root
try:
    parse("(" * depth + "x1" + ")" * (depth - 1))
except FormulaSyntaxError as err:
    assert str(err) == f"expected ')' (at offset {2 * depth + 1})"
else:
    raise AssertionError("unbalanced text parsed")
print("ok")
"""


class TestDeepFormulas:
    def test_walkers_do_not_recurse(self):
        # Every walker runs under a recursion limit far below the depth.
        proc = subprocess.run(
            [sys.executable, "-c", DEEP_SCRIPT], capture_output=True, text=True
        )
        assert proc.stderr == ""
        assert proc.stdout == "ok\n"


class TestTruthTable:
    def test_fig1_has_five_ones(self):
        tt = truth_table(parse(FIG1))
        assert len(tt) == 8
        assert tt.ones() == 5

    def test_const_zero(self):
        tt = truth_table(Formula(const(0), 3))
        assert tt.bits == 0
        assert len(tt) == 8

    def test_single_var(self):
        tt = truth_table(Formula(var(1), 1))
        assert (tt.bit(0), tt.bit(1)) == (0, 1)

    def test_cap_refusal_names_cap(self):
        f = Formula(var(1), 30)
        with pytest.raises(EnumerationCapExceeded) as err:
            truth_table(f)
        assert "26" in str(err.value)

    def test_matches_naive_eval(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.randint(1, 12)
            f = random_formula(rng, d, rng.randint(1, 16))
            assert truth_table(f).ones() == naive_count_ones(f)

    def test_bit_order_convention(self):
        # bit j of the table is the value at the binary expansion of j,
        # with x_i = bit (i-1) of j.
        f = parse("x2")
        tt = truth_table(Formula(f.root, 2))
        assert tuple(tt.bit(j) for j in range(4)) == (0, 0, 1, 1)


class TestStructure:
    def test_interning_gives_identity(self):
        a = and_(var(1), var(2))
        b = and_(var(1), var(2))
        assert a is b

    def test_fold_constants(self):
        assert and_(var(1), const(0)) is const(0)
        assert or_(var(1), const(1)) is const(1)
        assert and_(var(1), const(1)) is var(1)
        assert not_(not_(var(3))) is var(3)

    def test_complement_detection(self):
        assert and_(var(1), not_(var(1))) is const(0)
        assert or_(var(2), not_(var(2))) is const(1)
        assert parse("x1 & !x1").root is const(0)
        assert parse("x1 | !x1").root is const(1)
        assert parse("!x1 & x2 & x1").root is const(0)

    def test_gather_builds_no_extra_nodes(self):
        # Complements are found without building a Not of each operand.
        a, b = var(9001), var(9002)
        before = len(formula._interned)
        node = and_(a, b, a)
        assert len(formula._interned) == before + 1
        assert or_(node, not_(a)) is not const(1)

    def test_support_is_set_when_built(self):
        node = or_(and_(var(4), var(7)), not_(var(2)))
        assert node.support == (1 << 1) | (1 << 3) | (1 << 6)
        assert not_(node).support is node.support

    def test_order_lists_each_descendant_once_before_its_parents(self):
        shared = xor(var(1), var(2))
        root = and_(or_(shared, var(3)), not_(shared), var(4))
        order = formula._order(root)
        assert root not in order
        assert len(set(order)) == len(order)
        assert set(order) == {
            shared, var(1), var(2), var(3), var(4), or_(shared, var(3)), not_(shared)
        }
        position = {n: i for i, n in enumerate(order)}
        for n in order:
            for c in formula._kids(n):
                assert position[c] < position[n]
        assert formula._order(root) is order  # cached on the root

    def test_rewrite_keeps_untouched_nodes(self):
        f = parse("(x1 & x2) | (x3 ^ x4)")
        assert rewrite(f.root, {}) is f.root
        assert rewrite(f.root, {var(5): const(0)}) is f.root
        left = and_(var(1), var(2))
        g = rewrite(f.root, {left: const(1)})
        assert g is const(1)

    def test_gather_keys_each_node_by_its_own_children(self):
        a, b, c = var(9101), var(9102), var(9103)
        for node in (and_(a, b, c), or_(and_(a, b), and_(a, c), c), or_(a, b, a, c)):
            keys = [k for k, v in formula._interned.items() if v is node]
            assert len(keys) == 1
            assert keys[0] == (type(node), node.children)
            assert keys[0][1] is node.children

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 30))
    def test_rewrite_matches_the_reference(self, seed, d, budget):
        rng = random.Random(seed)
        root = random_formula_node(rng, d, budget)
        nodes = [n for n in formula._order(root) + (root,) if n.support]
        keys = rng.sample(nodes, min(len(nodes), rng.randint(0, 3)))
        swap = {k: random_formula_node(rng, d, 3) for k in keys}
        assert rewrite(root, swap) is reference_rewrite(
            root, lambda n, kids: swap.get(n)
        )

    def test_rewrite_enters_only_the_ancestors_of_keys(self, monkeypatch):
        clauses = [or_(*(var(3 * i + j) for j in (1, 2, 3))) for i in range(100)]
        root = and_(*clauses)
        entered = []
        kids = formula._kids
        monkeypatch.setattr(formula, "_kids", lambda n: entered.append(n) or kids(n))
        assert rewrite(root, {var(299): const(0)}) is and_(
            *clauses[:99], or_(var(298), var(300))
        )
        # Building the new nodes reads their children too; of the old nodes
        # only the key's ancestors were entered.
        assert set(entered) & {root, *formula._order(root)} == {root, clauses[99]}

    def test_support(self):
        f = parse(FIG1)
        assert support(f.root) == {1, 2, 3}

    def test_substitute(self):
        f = parse(FIG1)
        g = substitute(f.root, {3: 0})
        assert g is const(1)
        h = substitute(f.root, {3: 1})
        assert h is and_(var(1), var(2))

    def test_shift(self):
        f = parse("x1 & x2")
        assert shift_variables(f.root, 3) is and_(var(4), var(5))

    def test_from_truth_table_roundtrip(self):
        for bits in range(16):
            f = from_truth_table(bits, 2)
            assert truth_table(f).bits == bits


class TestAssignment:
    def test_string_convention_leftmost_is_x1(self):
        a = Assignment.from_string("110")
        assert (a.bit(1), a.bit(2), a.bit(3)) == (1, 1, 0)
        assert str(a) == "110"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            Assignment.zeros(3).bit(4)

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65])
    def test_string_round_trip(self, length):
        rng = random.Random(length)
        for bits in {0, (1 << length) - 1, rng.getrandbits(length) if length else 0}:
            a = Assignment(bits, length)
            text = "".join(str((bits >> i) & 1) for i in range(length))
            assert str(a) == text
            assert Assignment.from_string(text) == a
            assert Assignment.from_string(text).as_tuple() == a.as_tuple()

    @pytest.mark.parametrize("text", [" 1", "1 ", "1_0", "+1", "0b1", "\uff11", "2"])
    def test_non_bits_are_refused(self, text):
        # int(text, 2) takes all but "2" (the fullwidth digit included);
        # from_string takes none.
        with pytest.raises(ValueError):
            Assignment.from_string(text)

    @pytest.mark.parametrize("value", [1, None, ["1", "0"]])
    def test_non_string_is_type_error(self, value):
        with pytest.raises(TypeError):
            Assignment.from_string(value)


class TestSubsetMask:
    def test_popcount(self):
        s = SubsetMask.from_indices([1, 3], 5)
        assert s.size == 2
        assert s.indices() == (1, 3)
        assert s.contains(3) and not s.contains(2)

    def test_complement(self):
        s = SubsetMask.from_indices([2], 3)
        assert s.complement().indices() == (1, 3)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            SubsetMask.from_indices([4], 3)


class TestReluCompilation:
    def exhaustive_agreement(self, f):
        net = compile_to_relu(f)
        size = 1 << f.arity
        inputs = np.array(
            [[(j >> i) & 1 for i in range(f.arity)] for j in range(size)],
            dtype=np.int64,
        )
        got = net.forward_batch(inputs)
        want = np.array(
            [evaluate(f, Assignment(j, f.arity)) for j in range(size)],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(got, want)

    def test_fig1_agrees_on_all_inputs(self):
        self.exhaustive_agreement(parse(FIG1))

    def test_passthrough_single_var(self):
        net = compile_to_relu(parse("x1"))
        assert len(net.weights) == 1  # single affine layer
        self.exhaustive_agreement(parse("x1"))

    def test_negation(self):
        f = parse("!x1")
        net = compile_to_relu(f)
        assert net.forward(Assignment.from_string("0")) == 1
        assert net.forward(Assignment.from_string("1")) == 0

    def test_gates_numbered_as_depth_first_pass_meets_them(self):
        # A depth-first pass numbers the gates: the first two clauses (0, 1),
        # their fold (2), the third clause (3), the last fold (4).  Units in a
        # layer follow gate numbers, so layer 2 holds the fold (row 5) before
        # the passthrough of the third clause (row 6).
        net = compile_to_relu(parse("(x1 | x2) & (x2 | x3) & (x1 | x3)"))
        assert net.layer_sizes == (3, 6, 7, 8, 1)
        assert net.weights[1].tolist() == [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, -1, -1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
        assert net.biases[1].tolist() == [0, 0, 0, 0, 0, 1, 0]

    def test_xor_expansion(self):
        self.exhaustive_agreement(parse("x1 ^ x2 ^ x3"))

    def test_random_formulas(self):
        rng = random.Random(99)
        for _ in range(120):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, rng.randint(1, 16))
            self.exhaustive_agreement(f)

    def test_forward_batch_refuses_sums_past_float_exactness(self):
        # Layer 2 doubles the unit's 2^52: exact in int64, but a float64 sum
        # of that size could round.  The bound reads the activations, so a
        # batch that keeps the unit at 0 is still answered.
        net = ReluNetwork(
            (np.array([[1 << 52]]), np.array([[2]])),
            (np.array([0]), np.array([0])),
            1,
        )
        assert net.forward_batch(np.array([[0]])).tolist() == [0]
        with pytest.raises(ValueError, match="2\\^53"):
            net.forward_batch(np.array([[0], [1]]))

    def test_output_is_exact_bit(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_formula(rng, 5, 10)
            net = compile_to_relu(f)
            inputs = np.array(
                [[(j >> i) & 1 for i in range(5)] for j in range(32)], dtype=np.int64
            )
            z = inputs.T.astype(np.int64)
            last = len(net.weights) - 1
            for t, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = w @ z + b[:, None]
                if t != last:
                    np.maximum(z, 0, out=z)
            assert set(np.unique(z[0])) <= {0, 1}
