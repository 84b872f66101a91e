import random
from fractions import Fraction

import pytest

from boolrel.counting import satisfaction_probability
from boolrel.formula import from_truth_table, render, truth_table
from boolrel.gadgets import (
    build_pi,
    lower_probability_gadget,
    raise_probability_gadget,
)
from oracles import naive_probability, random_formula


class TestBuildPi:
    def test_half_is_single_variable(self):
        g = build_pi(Fraction(1, 2), 8)
        assert g.n == 1
        assert g.prob == Fraction(1, 2)
        assert render(g.pi.root) == "x1"

    def test_three_quarters_needs_ell_three(self):
        g = build_pi(Fraction(3, 4), 3)
        assert g.n == 2
        assert g.prob == Fraction(3, 4)
        assert render(g.pi.root) == "(x1 | x2)"

    def test_three_quarters_at_ell_two_stops_early(self):
        # |3/4 - 1/2| = 1/4 <= 2^-2 already holds after the first round.
        g = build_pi(Fraction(3, 4), 2)
        assert g.n == 1
        assert g.prob == Fraction(1, 2)

    def test_seven_tenths_worked_example(self):
        g = build_pi(Fraction(7, 10), 4)
        assert g.n == 6
        assert g.prob == Fraction(43, 64)
        assert [s.added_vars for s in g.trace] == [1, 2, 3]
        assert abs(Fraction(7, 10) - g.prob) == Fraction(
            1800, 64000
        )  # 0.028125
        assert abs(Fraction(7, 10) - g.prob) <= Fraction(1, 16)
        assert render(g.pi.root) == "(x1 | (x2 & x3) | (x4 & x5 & x6))"

    def test_eta_one(self):
        g = build_pi(Fraction(1), 5)
        assert g.prob == 1 - Fraction(1, 32)
        assert g.n == 5

    def test_tiny_eta_uses_and_chain(self):
        g = build_pi(Fraction(1, 1000), 3)
        assert g.kind == "and_chain"
        assert g.n == 3
        assert g.prob == Fraction(1, 8)
        assert abs(Fraction(1, 1000) - g.prob) <= Fraction(1, 8)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            build_pi(Fraction(0), 3)
        with pytest.raises(ValueError):
            build_pi(Fraction(3, 2), 3)
        with pytest.raises(ValueError):
            build_pi(Fraction(1, 2), 0)

    def test_random_builds_meet_all_bounds(self):
        rng = random.Random(1234)
        for _ in range(200):
            ell = rng.randint(1, 12)
            eta = Fraction(rng.randint(1, 4095), 4096)
            g = build_pi(eta, ell)
            assert abs(eta - g.prob) <= Fraction(1, 1 << ell)
            assert g.n <= ell * (ell + 3) // 2
            if g.kind == "iterative":
                gap_prev = eta
                for step in g.trace:
                    gap = eta - step.prob
                    assert 2 * gap <= gap_prev
                    assert gap_prev * (1 << (step.added_vars - 1)) < 1
                    gap_prev = gap

    def test_tracked_prob_matches_brute_force_small(self):
        rng = random.Random(77)
        for _ in range(40):
            ell = rng.randint(1, 6)
            eta = Fraction(rng.randint(1, 255), 256)
            g = build_pi(eta, ell)
            if g.n <= 16:
                assert truth_table(g.pi).ones() == g.prob * (1 << g.n)

    def test_monotone_dnf_shape(self):
        # No negations anywhere: the rendered text never contains '!'.
        g = build_pi(Fraction(5, 7), 9)
        assert "!" not in render(g.pi.root)


class TestRaisingGadget:
    def test_narrow_case_d1(self):
        shift = raise_probability_gadget(1, Fraction(1, 2), Fraction(3, 4))
        assert shift.gadget.kind == "and_chain"
        assert shift.gadget.n == 3
        assert shift.gadget.prob == Fraction(1, 8)
        assert shift.gadget.prob < Fraction(1, 4)
        assert shift.interval is None

    def test_interval_case_d2(self):
        shift = raise_probability_gadget(2, Fraction(1, 2), Fraction(9, 10))
        a, b = shift.interval
        assert (a, b) == (Fraction(3, 5), Fraction(4, 5))
        assert shift.gadget.prob == Fraction(43, 64)
        assert a <= shift.gadget.prob < b

    def test_boundary_values(self):
        shift = raise_probability_gadget(3, Fraction(1, 4), Fraction(1, 2))
        g = shift.gadget
        from boolrel.formula import Assignment, evaluate

        if g.n:
            assert evaluate(g.pi, Assignment.zeros(g.n)) == 0
            assert evaluate(g.pi, Assignment.ones(g.n)) == 1

    def test_biconditional_exhaustive_d2(self):
        shift = raise_probability_gadget(2, Fraction(1, 2), Fraction(9, 10))
        for bits in range(16):
            f = from_truth_table(bits, 2)
            combined = shift.apply(f)
            lhs = satisfaction_probability(f) > Fraction(1, 2)
            rhs = satisfaction_probability(combined) >= Fraction(9, 10)
            assert lhs == rhs, bits

    def test_biconditional_random_d4(self):
        rng = random.Random(5150)
        shift = raise_probability_gadget(4, Fraction(1, 4), Fraction(1, 2))
        for _ in range(60):
            f = random_formula(rng, 4, rng.randint(1, 14))
            combined = shift.apply(f)
            lhs = satisfaction_probability(f) > Fraction(1, 4)
            rhs = satisfaction_probability(combined) >= Fraction(1, 2)
            assert lhs == rhs

    def test_biconditional_exhaustive_d1(self):
        # All four functions of one variable, all three threshold pairs.
        pairs = [
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(3, 4)),
            (Fraction(1, 2), Fraction(9, 10)),
        ]
        for d1, d2 in pairs:
            shift = raise_probability_gadget(1, d1, d2)
            for bits in range(4):
                f = from_truth_table(bits, 1)
                lhs = satisfaction_probability(f) > d1
                rhs = satisfaction_probability(shift.apply(f)) >= d2
                assert lhs == rhs, (d1, d2, bits)

    def test_branch_boundary_delta2_on_grid_point(self):
        # delta2 equal to the grid point just above floor(delta1 2^d) selects
        # the narrow conjunction; the biconditional must still be exact.
        d1, d2 = Fraction(3, 10), Fraction(1, 2)
        shift = raise_probability_gadget(2, d1, d2)
        assert shift.gadget.kind == "and_chain"
        for bits in range(16):
            f = from_truth_table(bits, 2)
            lhs = satisfaction_probability(f) > d1
            rhs = satisfaction_probability(shift.apply(f)) >= d2
            assert lhs == rhs, bits

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            raise_probability_gadget(2, Fraction(3, 4), Fraction(1, 2))


class TestLoweringGadget:
    def test_trivial_case(self):
        shift = lower_probability_gadget(2, Fraction(1, 2), Fraction(3, 4))
        assert shift.gadget.kind == "trivial_one"
        assert shift.gadget.n == 0
        f = from_truth_table(0b0111, 2)
        assert shift.apply(f).root is f.root

    def test_interval_case_d3(self):
        shift = lower_probability_gadget(3, Fraction(1, 4), Fraction(3, 4))
        a, b = shift.interval
        assert (a, b) == (Fraction(1, 3), Fraction(2, 5))
        p = shift.gadget.prob
        assert a < p <= b
        # eta = 11/30 and ell = 5 follow from the interval.
        assert abs(Fraction(11, 30) - p) <= Fraction(1, 32)

    def test_equivalence_spot_check(self):
        shift = lower_probability_gadget(3, Fraction(1, 4), Fraction(3, 4))
        high = from_truth_table(0b00111111, 3)  # P = 6/8 >= 3/4
        low = from_truth_table(0b00011111, 3)  # P = 5/8 < 3/4
        assert satisfaction_probability(shift.apply(high)) > Fraction(1, 4)
        assert not satisfaction_probability(shift.apply(low)) > Fraction(1, 4)

    def test_biconditional_exhaustive_d2(self):
        shift = lower_probability_gadget(2, Fraction(1, 4), Fraction(3, 4))
        for bits in range(16):
            f = from_truth_table(bits, 2)
            combined = shift.apply(f)
            lhs = satisfaction_probability(f) >= Fraction(3, 4)
            rhs = satisfaction_probability(combined) > Fraction(1, 4)
            assert lhs == rhs, bits

    def test_biconditional_exhaustive_d1(self):
        for d1, d2 in [
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(1, 2), Fraction(3, 4)),
        ]:
            shift = lower_probability_gadget(1, d1, d2)
            for bits in range(4):
                f = from_truth_table(bits, 1)
                lhs = satisfaction_probability(f) >= d2
                rhs = satisfaction_probability(shift.apply(f)) > d1
                assert lhs == rhs, (d1, d2, bits)

    def test_combined_probability_matches_naive_small(self):
        rng = random.Random(8)
        shift = lower_probability_gadget(3, Fraction(1, 4), Fraction(3, 4))
        if shift.gadget.n <= 10:
            for _ in range(20):
                f = random_formula(rng, 3, 8)
                combined = shift.apply(f)
                if combined.arity <= 16:
                    assert (
                        satisfaction_probability(combined)
                        == naive_probability(combined)
                    )


class TestApply:
    def test_fresh_variables_offset(self):
        shift = raise_probability_gadget(2, Fraction(1, 2), Fraction(9, 10))
        f = from_truth_table(0b1000, 2)
        combined = shift.apply(f)
        assert combined.arity == 2 + shift.gadget.n
        # Host variables untouched: restricting gadget vars to 0 recovers f.
        from boolrel.formula import substitute

        stripped = substitute(
            combined.root, {i: 0 for i in range(3, combined.arity + 1)}
        )
        assert stripped is f.root

    def test_rejects_oversized_host(self):
        shift = raise_probability_gadget(2, Fraction(1, 2), Fraction(9, 10))
        with pytest.raises(ValueError):
            shift.apply(from_truth_table(0b10000000, 3))
