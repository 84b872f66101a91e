import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from boolrel.counting import coalition_counts
from boolrel.formula import (
    Assignment,
    EnumerationCapExceeded,
    Formula,
    compose_variables,
    parse,
    var,
)
from boolrel.relevance import is_delta_relevant
from boolrel.shapley import (
    characteristic_value,
    relevance_from_characteristic,
    shapley_values,
)
from oracles import (
    naive_conditional_satisfaction,
    random_assignment,
    random_formula,
    random_formula_node,
)

FIG1 = parse("(x1 & x2) | !x3")
X110 = Assignment.from_string("110")


class TestCharacteristicValue:
    def test_fig1_fix_x3(self):
        ce = characteristic_value(FIG1, X110, [3])
        # Conditional mean 1, E = 5/8.
        assert ce.value == Fraction(3, 8)
        assert ce.expectation == Fraction(5, 8)
        assert ce.value_at_x == 1

    def test_empty_set_is_zero(self):
        rng = random.Random(14)
        for _ in range(30):
            d = rng.randint(1, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            assert characteristic_value(f, x, []).value == 0

    def test_full_set(self):
        ce = characteristic_value(FIG1, X110, [1, 2, 3])
        assert ce.value == Fraction(1) - Fraction(5, 8) == Fraction(3, 8)

    def test_matches_naive(self):
        rng = random.Random(15)
        for _ in range(80):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            size = rng.randint(0, d)
            s = sorted(rng.sample(range(1, d + 1), size))
            ce = characteristic_value(f, x, s)
            want = naive_conditional_satisfaction(
                f, x, s
            ) - naive_conditional_satisfaction(f, x, [])
            assert ce.value == want

    def test_cap(self):
        f = Formula(var(1), 21)
        with pytest.raises(EnumerationCapExceeded):
            characteristic_value(f, Assignment.zeros(21), [1])


class TestShapleyValues:
    def test_single_variable(self):
        f = parse("x1")
        sv = shapley_values(f, Assignment.from_string("1"))
        assert sv.values == (Fraction(1, 2),)
        assert sv.is_efficient()

    def test_symmetry(self):
        f = parse("x1 & x2")
        sv = shapley_values(f, Assignment.from_string("11"))
        assert sv.values[0] == sv.values[1]

    def test_fig1_efficiency(self):
        sv = shapley_values(FIG1, X110)
        assert sum(sv.values) == Fraction(3, 8)
        assert sv.grand_value == Fraction(3, 8)
        assert sv.is_efficient()

    def test_dummy_variable(self):
        f = Formula(parse("x1 & x2").root, 3)  # x3 never occurs
        sv = shapley_values(f, Assignment.from_string("110"))
        assert sv.values[2] == 0

    def test_efficiency_random(self):
        rng = random.Random(16)
        for _ in range(50):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            sv = shapley_values(f, x)
            assert sv.is_efficient()

    def test_denominator_bound(self):
        rng = random.Random(17)
        for _ in range(30):
            d = rng.randint(1, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            sv = shapley_values(f, x)
            bound = 1
            for i in range(2, d + 1):
                bound *= i
            bound *= 1 << d
            for v in sv.values:
                assert bound % v.denominator == 0

    def test_matches_permutation_definition(self):
        # Independent oracle: average marginal contribution over all
        # variable orderings.
        from itertools import permutations

        rng = random.Random(18)
        for _ in range(15):
            d = rng.randint(1, 5)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)

            def nu(subset):
                cond = naive_conditional_satisfaction(f, x, sorted(subset))
                base = naive_conditional_satisfaction(f, x, [])
                return cond - base

            totals = [Fraction(0)] * d
            perms = list(permutations(range(1, d + 1)))
            for perm in perms:
                seen = set()
                for i in perm:
                    before = nu(seen)
                    seen = seen | {i}
                    totals[i - 1] += nu(seen) - before
            want = tuple(t / len(perms) for t in totals)
            assert shapley_values(f, x).values == want


    @pytest.mark.parametrize("d", [13, 16, 20])
    def test_wide_against_characteristic_value(self, d):
        # f reads three variables only; the others are null players, and the
        # three players' values follow from nu on the 8 coalitions of R.
        rng = random.Random(d)
        players = sorted(rng.sample(range(1, d + 1), 3))
        node = random_formula_node(rng, 3, 10)
        f = Formula(
            compose_variables(node, {j + 1: var(i) for j, i in enumerate(players)}),
            d,
        )
        x = random_assignment(rng, d)
        sv = shapley_values(f, x)
        assert sv.is_efficient()
        assert sv.grand_value == characteristic_value(f, x, range(1, d + 1)).value

        def nu(coalition):
            return characteristic_value(f, x, sorted(coalition)).value

        for i in range(1, d + 1):
            if i not in players:
                assert sv.values[i - 1] == 0
                continue
            others = [j for j in players if j != i]
            want = Fraction(0)
            for size in range(3):
                for s in combinations(others, size):
                    weight = Fraction(
                        math.factorial(size) * math.factorial(2 - size), 6
                    )
                    want += weight * (nu(s + (i,)) - nu(s))
            assert sv.values[i - 1] == want

    def test_grouping_matches_plain_sum(self):
        # The per-size segment sums against a plain loop over the same table.
        rng = random.Random(22)
        for d in (1, 2, 9, 12):
            f = random_formula(rng, d, 3 * d)
            x = random_assignment(rng, d)
            c = [int(v) for v in coalition_counts(f, x, 1)]
            want = []
            for i in range(1, d + 1):
                bit = 1 << (d - i)
                total = 0
                for r in range(1 << d):
                    if not r & bit:
                        size = bin(r).count("1")
                        weight = math.factorial(size) * math.factorial(d - size - 1)
                        total += (weight << size) * (2 * c[r | bit] - c[r])
                want.append(Fraction(total, math.factorial(d) << d))
            assert shapley_values(f, x).values == tuple(want)

    def test_wide_random_is_efficient(self):
        rng = random.Random(21)
        for d in (13, 16):
            f = random_formula(rng, d, 40)
            x = random_assignment(rng, d)
            assert shapley_values(f, x).is_efficient()

    def test_vector_cap(self):
        f = Formula(var(1), 21)
        with pytest.raises(EnumerationCapExceeded):
            shapley_values(f, Assignment.zeros(21))


class TestRelevanceIdentity:
    def test_fig1_examples(self):
        assert relevance_from_characteristic(FIG1, X110, [3], Fraction(1))
        assert not relevance_from_characteristic(FIG1, X110, [1], Fraction(4, 5))

    def test_full_set_delta_one(self):
        rng = random.Random(19)
        for _ in range(20):
            d = rng.randint(1, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            assert relevance_from_characteristic(
                f, x, range(1, d + 1), Fraction(1)
            )

    def test_agrees_with_direct_check(self):
        rng = random.Random(20)
        deltas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for _ in range(60):
            d = rng.randint(2, 8)
            f = random_formula(rng, d, 12)
            x = random_assignment(rng, d)
            for size in range(0, min(3, d) + 1):
                for combo in combinations(range(1, d + 1), size):
                    for delta in deltas:
                        via_nu = relevance_from_characteristic(f, x, combo, delta)
                        direct, _ = is_delta_relevant(f, x, combo, delta)
                        assert via_nu == direct
