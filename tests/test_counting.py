import gc
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boolrel.counting as counting
import boolrel.formula as formula
from boolrel.cli import _prob_json
from boolrel.counting import (
    ConditionalEvaluator,
    _probability,
    conditional_agreement_probability,
    conditional_satisfaction_probability,
    coalition_counts,
    satisfaction_probability,
)
from boolrel.formula import (
    Assignment,
    EnumerationCapExceeded,
    Formula,
    SubsetMask,
    Xor,
    and_,
    compose_variables,
    const,
    not_,
    or_,
    parse,
    shift_variables,
    truth_table,
    var,
    xor_all,
)
from oracles import (
    naive_agreement,
    naive_coalition_counts,
    naive_conditional_satisfaction,
    naive_probability,
    random_assignment,
    random_formula,
    reference_freshen,
)

FIG1 = parse("(x1 & x2) | !x3")


def _shrink_leaf(monkeypatch, bits: int):
    """Blocks of 2^bits positions, and decomposition above `bits` free
    variables."""
    monkeypatch.setattr(formula, "_LEAF_BITS", bits)
    monkeypatch.setattr(counting, "_LEAF_BITS", bits)


class TestProbability:
    def test_normalisation(self):
        assert _prob_json(_probability(4, 3)) == {
            "dyadic": "1/2^1",
            "fraction": "1/2",
            "float": 0.5,
        }
        assert _prob_json(_probability(0, 3))["dyadic"] == "0/2^0"
        assert _prob_json(_probability(8, 3))["dyadic"] == "1/2^0"

    def test_bounds(self):
        with pytest.raises(ValueError, match=r"^not a probability: 9/2\^3$"):
            _probability(9, 3)
        with pytest.raises(ValueError, match=r"^not a probability: -1/2\^0$"):
            _probability(-1, 0)

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError, match="not dyadic"):
            _prob_json(Fraction(1, 3))

    def test_float(self):
        assert _prob_json(Fraction(5, 8))["float"] == 0.625

    def test_public_probabilities_are_fractions(self):
        x = Assignment.from_string("110")
        ev = ConditionalEvaluator(FIG1)
        for p in (
            satisfaction_probability(FIG1),
            conditional_satisfaction_probability(FIG1, x, [3]),
            conditional_agreement_probability(FIG1, Assignment.from_string("001"), [3]),
            ev.satisfaction({3: 1}),
            ev.agreement(x, [1]),
        ):
            assert type(p) is Fraction


class TestSatisfactionProbability:
    def test_fig1(self):
        assert satisfaction_probability(FIG1) == Fraction(5, 8)

    def test_const_one(self):
        assert satisfaction_probability(Formula(const(1), 4)) == 1

    def test_triple_and(self):
        assert satisfaction_probability(parse("x1 & x2 & x3")) == Fraction(1, 8)

    def test_matches_naive(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(1, 12)
            f = random_formula(rng, d, rng.randint(1, 18))
            assert satisfaction_probability(f) == naive_probability(f)

    def test_cap_refusal(self):
        # A full-support XOR of 30 variables collapses by freshening, so feed
        # something that cannot decompose: a majority-style interleaving.
        terms = [
            and_(var(i), var(i + 1), var((i + 13) % 30 + 1)) for i in range(1, 29)
        ]
        f = Formula(or_(*terms), 30)
        with pytest.raises(EnumerationCapExceeded):
            satisfaction_probability(f, enum_cap=20)


class TestConditionalAgreement:
    def test_fig1_fix_x3(self):
        x = Assignment.from_string("110")
        s = SubsetMask.from_indices([3], 3)
        assert conditional_agreement_probability(FIG1, x, s) == 1

    def test_fig1_fix_x1(self):
        x = Assignment.from_string("110")
        s = SubsetMask.from_indices([1], 3)
        assert conditional_agreement_probability(FIG1, x, s) == Fraction(3, 4)

    def test_full_set_always_one(self):
        rng = random.Random(3)
        for _ in range(30):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            s = SubsetMask.full(d)
            assert conditional_agreement_probability(f, x, s) == 1

    def test_empty_set_matches_unconditional(self):
        rng = random.Random(4)
        for _ in range(100):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, 12)
            x = random_assignment(rng, d)
            p = satisfaction_probability(f)
            agree = conditional_agreement_probability(f, x, SubsetMask.empty(d))
            from boolrel.formula import evaluate

            want = p if evaluate(f, x) == 1 else 1 - p
            assert agree == want

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(250):
            d = rng.randint(2, 10)
            f = random_formula(rng, d, rng.randint(2, 18))
            x = random_assignment(rng, d)
            size = rng.randint(0, d)
            s = sorted(rng.sample(range(1, d + 1), size))
            got = conditional_agreement_probability(f, x, s)
            assert got == naive_agreement(f, x, s)

    def test_conditional_satisfaction_matches_naive(self):
        rng = random.Random(13)
        for _ in range(200):
            d = rng.randint(2, 9)
            f = random_formula(rng, d, rng.randint(2, 16))
            x = random_assignment(rng, d)
            size = rng.randint(0, d)
            s = sorted(rng.sample(range(1, d + 1), size))
            got = conditional_satisfaction_probability(f, x, s)
            assert got == naive_conditional_satisfaction(f, x, s)

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            conditional_agreement_probability(
                FIG1, Assignment.from_string("11"), SubsetMask.empty(2)
            )
        # A fix past the arity once failed as "negative shift count".
        with pytest.raises(ValueError, match="out of range"):
            ConditionalEvaluator(FIG1).satisfaction({5: 1})


def top_split(f):
    """The decomposer's split of f's top node with nothing fixed, and the
    parts' counts combined under its law, as a probability (None: no
    split)."""
    split = ConditionalEvaluator(f)._split(f.root, 0)
    if split is None:
        return None, None
    law, parts = split
    widths = [p.support.bit_count() for p in parts]
    counts = [
        int(satisfaction_probability(Formula(p, f.arity)) * (1 << w))
        for p, w in zip(parts, widths)
    ]
    width = f.root.support.bit_count()
    combined = counting._combine(law, list(zip(counts, widths)), width)
    return split, Fraction(combined, 1 << width)


class TestDecomposition:
    def test_disjoint_or(self):
        f = parse("(x1 & x2) | (x3 & x4 & x5)")
        (law, parts), combined = top_split(f)
        assert law == "or"
        probs = sorted(satisfaction_probability(Formula(p, 5))
                       for p in parts)
        assert probs == [Fraction(1, 8), Fraction(1, 4)]
        assert combined == satisfaction_probability(f) == Fraction(11, 32)
        # Independent confirmation by enumerating all 2^5 assignments.
        assert naive_probability(f) == Fraction(11, 32)

    def test_xor_of_fair_bits(self):
        f = parse("x1 ^ x2")
        (law, parts), combined = top_split(f)
        assert law == "xor" and len(parts) == 2
        assert combined == satisfaction_probability(f) == Fraction(1, 2)

    def test_fig1_value(self):
        (law, _), combined = top_split(FIG1)
        assert law == "or"
        assert combined == satisfaction_probability(FIG1) == Fraction(5, 8)

    def test_entangled_is_atom(self):
        # x2 ties the two halves, and no proper subtree is a plug.
        f = parse("(x1 & x2) | (x2 & x3)")
        assert top_split(f) == (None, None)

    def test_decomposition_equals_enumeration(self):
        rng = random.Random(21)
        laws = set()
        for _ in range(200):
            d = rng.randint(1, 12)
            f = random_formula(rng, d, rng.randint(1, 20))
            split, combined = top_split(f)
            want = naive_probability(f)
            assert satisfaction_probability(f) == want
            if split is not None:
                laws.add(split[0])
                assert combined == want
        assert laws == {"and", "or", "xor", "plug"}

    def test_monotone_in_gadget_probability(self):
        # P(f or g) = P(f) + (1 - P(f)) P(g) grows with P(g) at fixed P(f).
        host = parse("x1 & x2")
        last = Fraction(0)
        for width in (3, 2, 1):
            pi = and_(*(var(i) for i in range(3, 3 + width)))
            combined = Formula(or_(host.root, pi), 3 + width - 1)
            p = satisfaction_probability(combined)
            assert p >= last
            last = p


class TestXorFreshening:
    def xor_block_formula(self, d_payload, blocks):
        """Payload over x1..x{d_payload} applied to XOR triples of fresh vars."""
        rng = random.Random(blocks * 7 + d_payload)
        payload = random_formula(rng, d_payload, 10)
        base = d_payload
        substitution = {
            j + 1: xor_all([var(base + 3 * j + t) for t in (1, 2, 3)])
            for j in range(blocks)
        }
        wired = compose_variables(payload.root, substitution)
        return Formula(wired, base + 3 * blocks), payload

    def test_freshening_collapses_blocks(self):
        f, _ = self.xor_block_formula(3, 3)
        ev = ConditionalEvaluator(f)
        assert len(set(ev._groups.values())) >= 1

    def fixpoint_roots(self):
        """300 random roots, then an XOR-block formula for each shape."""
        rng = random.Random(17)
        roots = [
            random_formula(rng, rng.randint(8, 40), rng.randint(4, 30)).root
            for _ in range(300)
        ]
        roots += [
            self.xor_block_formula(d_payload, blocks)[0].root
            for d_payload in range(2, 7)
            for blocks in range(1, d_payload + 1)
        ]
        return roots

    def test_one_pass_reaches_the_fixpoint(self):
        # Freshening collapses in a single pass: run again on its own output
        # it finds nothing more to collapse.
        collapsed = 0
        for root in self.fixpoint_roots():
            once, groups = counting._freshen(root)
            collapsed += bool(groups)
            again, more = counting._freshen(once)
            assert again is once and more == {}, formula.render(root)
        assert collapsed >= 50

    @staticmethod
    def shared_chain_roots():
        """DAGs whose XOR chains, or parts of them, are shared."""
        x = [var(i) for i in range(1, 11)]
        inner = xor_all(x[0:2])
        chain = xor_all(x[0:4])
        return [
            and_(chain, or_(chain, x[4])),  # a whole chain used twice
            and_(xor_all([inner, x[2]]), or_(inner, x[3])),  # a shared sub-chain
            or_(xor_all([inner, x[2], x[3]]), xor_all([x[2], x[5]])),  # a shared leaf
            and_(xor_all([inner, x[4]]), xor_all([inner, x[5]])),  # two chains, one inner
            and_(xor_all([xor_all(x[4:7]), not_(chain)]), xor_all(x[7:10])),
            xor_all([and_(inner, x[2]), xor_all(x[3:6]), xor_all(x[6:9])]),
        ]

    def test_matches_the_bottom_up_reference(self):
        # The one-scan freshening gives the root (the same interned node)
        # and the groups of the parent's bottom-up pass.
        roots = self.fixpoint_roots() + self.shared_chain_roots()
        for root in roots:
            got, groups = counting._freshen(root)
            want, want_groups = reference_freshen(root)
            assert got is want and groups == want_groups, formula.render(root)

    def test_shared_chains_stay(self):
        # A chain below two parents has variables that occur twice, so only
        # the unshared chains collapse.
        want = [{}, {}, {1: 0b11}, {}, {1: 0b1111111, 8: 0b111 << 7},
                {1: 0b11, 4: 0b111 << 3, 7: 0b111 << 6}]
        for root, groups in zip(self.shared_chain_roots(), want):
            assert counting._freshen(root)[1] == groups, formula.render(root)

    def test_xor_free_root_comes_back_as_itself(self, monkeypatch):
        # No Xor over Vars, no occurrence count: the root itself, no groups.
        def refuse(root):
            raise AssertionError("occurrence counts taken for an XOR-free root")

        monkeypatch.setattr(counting, "_occurrences", refuse)
        rng = random.Random(19)
        for _ in range(100):
            root = random_formula(rng, 12, 20).root
            if any(isinstance(n, Xor) for n in (root, *formula._order(root))):
                continue
            got, groups = counting._freshen(root)
            assert got is root and groups == {}
        xor_of_clauses = parse("(x1 | x2) ^ (x3 & x4)").root
        assert counting._freshen(xor_of_clauses) == (xor_of_clauses, {})

    def test_freshening_interns_no_throwaway_xor(self):
        # Every Xor that freshening adds to the intern table is a node of
        # its result: no intermediate chain is built.  The variables are
        # shifted past any other test's, so every chain is new here.
        def xors():
            return {n for n in formula._interned.values() if isinstance(n, Xor)}

        for d_payload in range(2, 7):
            for blocks in range(1, d_payload + 1):
                f, _ = self.xor_block_formula(d_payload, blocks)
                root = shift_variables(f.root, 5000)
                before = xors()
                once, groups = counting._freshen(root)
                added = xors() - before
                assert added <= set(formula._order(once)) | {once}
        # A payload without Xor: the result has none either, so none is added.
        payload = parse("(x1 & !x2) | x3").root
        wired = compose_variables(
            payload, {j: xor_all([var(6000 + 3 * j + t) for t in range(3)]) for j in (1, 2, 3)}
        )
        before = xors()
        once, groups = counting._freshen(wired)
        assert len(groups) == 3 and xors() == before

    def test_unconditional_matches_naive(self):
        for d_payload, blocks in [(2, 2), (3, 2), (3, 3)]:
            f, _ = self.xor_block_formula(d_payload, blocks)
            assert (
                satisfaction_probability(f) == naive_probability(f)
            )

    def test_conditioning_group_members_matches_naive(self):
        rng = random.Random(31)
        for trial in range(60):
            d_payload = rng.randint(2, 3)
            blocks = rng.randint(1, 3)
            f, _ = self.xor_block_formula(d_payload, blocks)
            d = f.arity
            x = random_assignment(rng, d)
            size = rng.randint(0, min(d, 5))
            s = sorted(rng.sample(range(1, d + 1), size))
            got = conditional_agreement_probability(f, x, s)
            want = naive_agreement(f, x, s)
            assert got == want, (trial, str(f), str(x), s)

    def test_fully_fixed_group_is_constant(self):
        # f = (r1 ^ r2 ^ r3) & x4; fixing the whole trio pins the block.
        f = Formula(and_(xor_all([var(1), var(2), var(3)]), var(4)), 4)
        x = Assignment.from_string("1011")
        got = conditional_agreement_probability(f, x, [1, 2, 3])
        assert got == naive_agreement(f, x, [1, 2, 3])
        got_partial = conditional_agreement_probability(f, x, [1, 2])
        assert got_partial == naive_agreement(f, x, [1, 2])

    def test_count_reads_only_the_masked_bits(self):
        # A payload over x1..xp with XOR chains of fresh variables wired in;
        # random masks fix groups fully, partly or not at all, and the bits
        # of x outside the mask must not matter.
        rng = random.Random(37)
        seen = set()
        for trial in range(200):
            p = rng.randint(1, 4)
            payload = random_formula(rng, p, rng.randint(2, 10))
            d, chains = p, {}
            for i in rng.sample(range(1, p + 1), rng.randint(1, p)):
                width = rng.randint(1, 3)
                if d + width > 10:
                    break
                chains[i] = xor_all([var(d + t) for t in range(1, width + 1)])
                d += width
            f = Formula(compose_variables(payload.root, chains), d)
            ev = ConditionalEvaluator(f)
            x = random_assignment(rng, d)
            s = SubsetMask(rng.getrandbits(d), d)
            for group in set(ev._groups.values()):
                hit = s.bits & group
                seen.add("full" if hit == group else "part" if hit else "none")
            case = (trial, str(f), str(x), str(s))
            got = ev.count(x.bits, s.bits)
            assert got == ev.count(x.bits & s.bits, s.bits), case
            p1 = naive_conditional_satisfaction(f, x, s.indices())
            assert got == p1 * (1 << (d - s.size)), case
        assert seen == {"full", "part", "none"}


class TestForcedDecomposition:
    """Shrink the enumeration leaf so every device runs on naive-checkable
    formulas."""

    def test_engine_matches_naive_with_tiny_leaf(self, monkeypatch):
        _shrink_leaf(monkeypatch, 2)
        rng = random.Random(314)
        for _ in range(150):
            d = rng.randint(3, 10)
            f = random_formula(rng, d, rng.randint(4, 18))
            x = random_assignment(rng, d)
            size = rng.randint(0, min(4, d))
            s = sorted(rng.sample(range(1, d + 1), size))
            got = conditional_agreement_probability(f, x, s)
            assert got == naive_agreement(f, x, s), (str(f), str(x), s)

    def test_structured_guard_and_xor_shape(self, monkeypatch):
        # The shape the set-choice reduction emits: clause guards on (u, v)
        # plus a payload reading u and triple-XOR blocks.
        _shrink_leaf(monkeypatch, 3)
        rng = random.Random(278)
        for _ in range(40):
            k = rng.randint(1, 2)
            rest = rng.randint(1, 3)
            payload = random_formula(rng, k + rest, 10)
            blocks = {
                k + j: xor_all(
                    [var(2 * k + c * rest + j) for c in range(3)]
                )
                for j in range(1, rest + 1)
            }
            wired = compose_variables(payload.root, blocks)
            clauses = [
                or_(var(i), var(k + i)) for i in range(1, k + 1)
            ]
            arity = 2 * k + 3 * rest
            f = Formula(and_(wired, *clauses), arity)
            x = random_assignment(rng, arity)
            size = rng.randint(0, min(4, arity))
            s = sorted(rng.sample(range(1, arity + 1), size))
            got = conditional_agreement_probability(f, x, s)
            assert got == naive_agreement(f, x, s)


class TestDecomposerProperty:
    def test_every_split_kind_matches_naive(self):
        # Blocks of 2, 4 and 8 positions send every node wider than that
        # through _split; each kind of split it returns is recorded.
        kinds = set()
        split = ConditionalEvaluator._split

        def recording(self, node, fixed):
            out = split(self, node, fixed)
            if out is None:
                kinds.add("enumerate")
            else:
                kinds.add("plug" if out[0] == "plug" else "component")
            return out

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(data=st.data())
        def check(data):
            d = data.draw(st.integers(1, 10), label="d")
            rng = random.Random(data.draw(st.integers(0, 1 << 32), label="seed"))
            f = random_formula(rng, d, data.draw(st.integers(4, 24), label="size"))
            x = Assignment(data.draw(st.integers(0, (1 << d) - 1), label="x"), d)
            s = sorted(data.draw(st.sets(st.integers(1, d)), label="fixed"))
            bits = data.draw(st.sampled_from([1, 2, 3]), label="leaf bits")
            with pytest.MonkeyPatch.context() as mp:
                _shrink_leaf(mp, bits)
                mp.setattr(ConditionalEvaluator, "_split", recording)
                got = ConditionalEvaluator(f).satisfaction({i: x.bit(i) for i in s})
            assert got == naive_conditional_satisfaction(f, x, s)

        check()
        assert kinds == {"component", "plug", "enumerate"}


class TestPlugSplit:
    def test_large_disjoint_plug(self):
        # (payload or big-AND-block) with the block wider than the leaf size:
        # exercises the plug split rather than enumeration.
        payload = parse("(x1 & x2) | (!x1 & x3)")
        block = and_(*(var(i) for i in range(4, 24)))
        f = Formula(and_(or_(payload.root, block), var(24)), 24)
        p = satisfaction_probability(f)
        p_payload = naive_probability(payload)
        p_block = Fraction(1, 1 << 20)
        want = (p_payload + (1 - p_payload) * p_block) * Fraction(1, 2)
        assert p == want

    def test_conditioning_into_plug(self):
        payload = parse("(x1 & x2) | (!x1 & x3)")
        block = and_(*(var(i) for i in range(4, 24)))
        f = Formula(or_(payload.root, block), 23)
        x = Assignment.ones(23)
        # Fix part of the block: remaining block probability 2^-5.
        s = list(range(4, 19))
        got = conditional_satisfaction_probability(f, x, s)
        p_payload = naive_probability(payload)
        want = p_payload + (1 - p_payload) * Fraction(1, 1 << 5)
        assert got == want


def _subset_of_rank(r: int, d: int) -> list[int]:
    return [i for i in range(1, d + 1) if (r >> (d - i)) & 1]


class TestCoalitionCounts:
    def test_rank_order(self):
        # x1 is the top bit: {1} has rank 4 and {3} rank 1 at d = 3.
        c = coalition_counts(parse("x1"), Assignment.from_string("0"), 1)
        assert list(c) == [1, 0]
        c = coalition_counts(Formula(var(1), 3), Assignment.from_string("100"), 1)
        assert c[4] == 4 and c[1] == 2 and c[7] == 1

    def test_matches_naive(self):
        rng = random.Random(80)
        for _ in range(60):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            for value in (0, 1):
                c = coalition_counts(f, x, value)
                for r in range(1 << d):
                    s = _subset_of_rank(r, d)
                    p1 = naive_conditional_satisfaction(f, x, s)
                    want = p1 if value else 1 - p1
                    assert Fraction(int(c[r]), 1 << (d - len(s))) == want

    def test_blocks_match_naive(self, monkeypatch):
        # Two-bit blocks: most variables are fixed per block.
        _shrink_leaf(monkeypatch, 2)
        rng = random.Random(81)
        for _ in range(30):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            c = coalition_counts(f, x, 1)
            for r in range(1 << d):
                s = _subset_of_rank(r, d)
                assert Fraction(int(c[r]), 1 << (d - len(s))) == (
                    naive_conditional_satisfaction(f, x, s)
                )

    def test_wide_table_matches_evaluator(self):
        rng = random.Random(82)
        d = 19  # three top-rank variables fixed per block
        f = random_formula(rng, d, 40)
        x = random_assignment(rng, d)
        c = coalition_counts(f, x, 0)
        ev = ConditionalEvaluator(f)
        for r in [0, (1 << d) - 1] + [rng.getrandbits(d) for _ in range(40)]:
            s = _subset_of_rank(r, d)
            want = 1 - ev.satisfaction({i: x.bit(i) for i in s})
            assert Fraction(int(c[r]), 1 << (d - len(s))) == want

    @pytest.mark.parametrize("d", [0, 1, 5, 6, 7, 8, 14, 15, 16, 17, 20])
    def test_widening_edges(self, d):
        # The constant 1 puts 2^(d - |S|) in every entry, the largest count
        # each sum step can reach, on both sides of each lane change.
        f = Formula(const(1), d)
        x = Assignment((1 << d) // 3, d)
        sizes = np.array([bin(r).count("1") for r in range(1 << d)])
        ones = coalition_counts(f, x, 1)
        assert ones.dtype == np.int32
        assert np.array_equal(ones, np.left_shift(1, d - sizes))
        zeros = coalition_counts(f, x, 0)
        assert zeros.dtype == np.int32 and not zeros.any()

    def test_full_table_matches_oracle(self):
        # d = 18 fixes two top-rank variables per block and runs the last
        # three sum steps in int32.
        rng = random.Random(83)
        d = 18
        f = random_formula(rng, d, 40)
        x = random_assignment(rng, d)
        for value in (0, 1):
            want = naive_coalition_counts(f, x, value)
            assert np.array_equal(coalition_counts(f, x, value), want)

    def test_table_memory(self):
        # The peak is the uint16 table and its int32 widening, 6 MiB at
        # d = 20; a uint8 table kept alive past its widening reads 7 MiB.
        rng = random.Random(84)
        d = 20
        f = random_formula(rng, d, 40)
        x = random_assignment(rng, d)
        formula._var_pattern.cache_clear()  # the cold pattern cache counts too
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            coalition_counts(f, x, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert peak <= 6.5 * (1 << 20), peak / (1 << 20)


def _random_3cnf(rng: random.Random, d: int, clauses: int) -> list[list[int]]:
    """Clauses as signed variable indices (-v for !x_v)."""
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, d + 1), 3)]
        for _ in range(clauses)
    ]


def _cnf_formula(cnf: list[list[int]], d: int) -> Formula:
    return Formula(
        and_(*(or_(*(var(v) if v > 0 else not_(var(-v)) for v in c)) for c in cnf)),
        d,
    )


class TestBlockedCount:
    def test_blocks_match_naive(self, monkeypatch):
        # Blocks of 2^2 positions: free counts 0..9 fall below, at and above
        # the block width, and the fixed variables sit between free ones
        # inside the block as well as among the block-fixed ones above it.
        _shrink_leaf(monkeypatch, 2)
        rng = random.Random(83)
        widths = set()
        for _ in range(120):
            d = rng.randint(1, 9)
            f = random_formula(rng, d, 12)
            x = random_assignment(rng, d)
            s = sorted(rng.sample(range(1, d + 1), rng.randint(0, d)))
            free = [i for i in range(1, d + 1) if i not in s]
            widths.add(len(free))
            got = counting._masked_count(
                f.root, SubsetMask.from_indices(free, d).bits, x.bits
            )
            want = naive_conditional_satisfaction(f, x, s) * (1 << len(free))
            assert got == want, (str(f), str(x), s)
        assert {0, 1, 2, 3, 4} <= widths
        # Pinned cases: x2 fixed inside the first block (between x1 and x3),
        # x5 fixed among the block-fixed variables x4 and x6.
        f = parse("(x1 ^ x2 ^ x3) | (x4 & x5 & !x6)")
        x = Assignment.from_string("010011")
        for fixed_set in ([2], [5], [2, 5]):
            free = [i for i in range(1, 7) if i not in fixed_set]
            got = counting._masked_count(
                f.root, SubsetMask.from_indices(free, 6).bits, x.bits
            )
            want = naive_conditional_satisfaction(f, x, fixed_set) * (1 << len(free))
            assert got == want

    def test_memory_bounded_by_block(self):
        # 2^22 positions; the whole-range lanes would be 512 KiB per node.
        # With the cyclic collector off, only lanes freed by reference
        # counting come back.
        rng = random.Random(22)
        d = 22
        cnf = _random_3cnf(rng, d, 3 * d)
        f = _cnf_formula(cnf, d)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            count = counting._masked_count(f.root, (1 << d) - 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert peak < 8 << 20, peak
        # The count itself, from a numpy evaluation over all 2^22 rows.
        rows = np.arange(1 << d, dtype=np.uint32)
        sat = np.ones(1 << d, dtype=bool)
        for c in cnf:
            clause = np.zeros(1 << d, dtype=bool)
            for v in c:
                clause |= ((rows >> (abs(v) - 1)) & 1).astype(bool) == (v > 0)
            sat &= clause
        assert count == int(sat.sum())

    def test_truth_table_memory_bounded_by_block(self):
        # The 2^22-bit table is 512 KiB; the whole-range lanes it was once
        # built from peaked at 60 MiB.
        rng = random.Random(23)
        d = 22
        cnf = _random_3cnf(rng, d, 3 * d)
        f = _cnf_formula(cnf, d)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            bits = truth_table(f).bits
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert peak < 8 << 20, peak
        # Bit j is the value at x_i = bit i-1 of j, from a numpy evaluation.
        rows = np.arange(1 << d, dtype=np.uint32)
        sat = np.ones(1 << d, dtype=bool)
        for c in cnf:
            clause = np.zeros(1 << d, dtype=bool)
            for v in c:
                clause |= ((rows >> (abs(v) - 1)) & 1).astype(bool) == (v > 0)
            sat &= clause
        want = np.packbits(sat, bitorder="little").tobytes()
        assert bits == int.from_bytes(want, "little")
