import gc
import random

import numpy as np
import pytest

from boolrel.formula import (
    And,
    Assignment,
    EnumerationCapExceeded,
    Formula,
    FormulaSyntaxError,
    Not,
    Or,
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
    shift_variables,
    substitute,
    support,
    truth_table,
    var,
)
from oracles import naive_count_ones, random_formula

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

    def test_no_reference_cycles(self):
        # Both evaluators free their memo by reference counting on return:
        # nothing is left for the cyclic collector.
        f = parse(FIG1)
        a = Assignment.from_string("110")
        lane = {1: 0b1010, 2: 0b1100, 3: 0b1111}.__getitem__
        gc.collect()
        assert evaluate(f, a) == 1
        assert evaluate_lanes(f.root, lane, 0b1111) == 0b1000
        assert gc.collect() == 0


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

    def test_with_bit(self):
        a = Assignment.zeros(4).with_bit(3, 1)
        assert a.as_tuple() == (0, 0, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            Assignment.zeros(3).bit(4)


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
            [evaluate(f, Assignment.from_index(j, f.arity)) for j in range(size)],
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

    def test_xor_expansion(self):
        self.exhaustive_agreement(parse("x1 ^ x2 ^ x3"))

    def test_random_formulas(self):
        rng = random.Random(99)
        for _ in range(120):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, rng.randint(1, 16))
            self.exhaustive_agreement(f)

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
