import random
from fractions import Fraction

import pytest

from boolrel.counting import satisfaction_probability
from boolrel.formula import (
    Assignment,
    EnumerationCapExceeded,
    Formula,
    and_,
    not_,
    or_,
    parse,
    render,
    var,
    xor,
)
from boolrel.reductions import (
    ProblemInstance,
    inapprox_parameters,
    oracle_verdict,
    reduce_emajsat_to_ip1,
    reduce_ip1_to_ip2,
    reduce_ip2_to_relevant_input,
    reduce_sat_to_ip3,
    sat_ip3_parameters,
    verify_reduction,
)
from boolrel.relevance import Verdict
from oracles import random_formula

HALF = Fraction(1, 2)


def emajsat(f, k):
    return ProblemInstance(kind="emajsat", f=f, k=k)


def sat(f):
    return ProblemInstance(kind="sat", f=f)


class TestEmajsatToIp1:
    def test_shape_d2_k1(self):
        inst = emajsat(parse("x1 & x2"), 1)
        out = reduce_emajsat_to_ip1(inst)
        assert out.kind == "ip1"
        assert out.f.arity == 4
        assert out.k == 2
        assert str(out.x) == "0100"
        assert out.layout == {"u": (1, 1), "v": (2, 2), "r": (3, 3), "t": (4, 4)}
        # Phi(u1, r1) xor ((u1 xor v1) and t) over u1=x1, v1=x2, r1=x3, t=x4.
        want = xor(and_(var(1), var(3)), and_(xor(var(1), var(2)), var(4)))
        assert out.f.root is want

    def test_yes_preservation(self):
        inst = emajsat(parse("x1 & (x2 | x3)"), 1)
        assert oracle_verdict(inst) is Verdict.YES
        assert oracle_verdict(reduce_emajsat_to_ip1(inst)) is Verdict.YES

    def test_no_preservation(self):
        inst = emajsat(parse("x1 ^ x2"), 1)
        assert oracle_verdict(inst) is Verdict.NO
        assert oracle_verdict(reduce_emajsat_to_ip1(inst)) is Verdict.NO

    def test_arity_bookkeeping(self):
        rng = random.Random(23)
        for _ in range(20):
            d = rng.randint(1, 5)
            k = rng.randint(1, d)
            f = random_formula(rng, d, 8)
            out = reduce_emajsat_to_ip1(emajsat(f, k))
            assert out.f.arity == d + k + 1
            assert out.k == 2 * k


class TestIp1ToIp2:
    def make_ip1(self):
        return reduce_emajsat_to_ip1(emajsat(parse("x1 & (x2 | x3)"), 1))

    def test_shape(self):
        src = self.make_ip1()
        out = reduce_ip1_to_ip2(src, HALF)
        d = src.f.arity
        n = out.f.arity - d - 1
        assert n >= 0
        assert out.k == src.k
        assert out.delta == HALF
        # x' ends in all ones across t and the gadget block.
        tail = str(out.x)[d:]
        assert tail == "1" * (n + 1)
        from boolrel.formula import evaluate

        assert evaluate(out.f, out.x) == 1

    def test_yes_preservation(self):
        src = self.make_ip1()
        assert oracle_verdict(src) is Verdict.YES
        out = reduce_ip1_to_ip2(src, HALF)
        assert oracle_verdict(out) is Verdict.YES

    def test_no_preservation(self):
        src = reduce_emajsat_to_ip1(emajsat(parse("x1 ^ x2"), 1))
        assert oracle_verdict(src) is Verdict.NO
        out = reduce_ip1_to_ip2(src, HALF)
        assert oracle_verdict(out) is Verdict.NO

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            reduce_ip1_to_ip2(self.make_ip1(), Fraction(1, 4))


class TestIp2ToRelevantInput:
    def make_ip2(self, formula, k, x):
        return ProblemInstance(
            kind="ip2",
            f=parse(formula),
            x=Assignment.from_string(x),
            k=k,
            delta=HALF,
        )

    def test_shape_d3_k1(self):
        src = self.make_ip2("x1 & (x2 | x3)", 1, "100")
        out = reduce_ip2_to_relevant_input(src)
        assert out.f.arity == 2 * 1 + 3 * 2 == 8
        assert out.k == 1
        assert out.layout == {
            "u": (1, 1),
            "v": (2, 2),
            "r1": (3, 4),
            "r2": (5, 6),
            "r3": (7, 8),
        }
        from boolrel.formula import evaluate

        assert evaluate(out.f, out.x) == 1

    def test_yes_preservation(self):
        src = self.make_ip2("x1 & (x2 | x3)", 1, "100")
        assert oracle_verdict(src) is Verdict.YES
        out = reduce_ip2_to_relevant_input(src)
        assert oracle_verdict(out) is Verdict.YES

    def test_no_preservation(self):
        # P(Phi | y_S = x_S) over S in {{}, {1}} stays at or below 1/2 - eps.
        src = self.make_ip2("x1 & x2 & x3", 1, "111")
        assert oracle_verdict(src) is Verdict.NO
        out = reduce_ip2_to_relevant_input(src)
        assert oracle_verdict(out) is Verdict.NO

    def test_point_evaluating_to_zero(self):
        # Phi(x) = 0 exercises the output flip.  The constructed point still
        # satisfies the reduced formula, and the reduced verdict tracks the
        # agreement form of the source question (which the flip encodes); the
        # plain satisfaction form only coincides when Phi(x) = 1, as it does
        # on every instance the upstream step produces.
        from boolrel.counting import conditional_agreement_probability
        from boolrel.formula import evaluate
        from itertools import combinations

        for formula, x in [("x1 & x2 & x3", "000"), ("x1 | x2", "00")]:
            src = self.make_ip2(formula, 1, x)
            assert evaluate(src.f, src.x) == 0
            out = reduce_ip2_to_relevant_input(src)
            assert evaluate(out.f, out.x) == 1
            agreement_yes = any(
                conditional_agreement_probability(src.f, src.x, combo) >= HALF
                for size in range(0, src.k + 1)
                for combo in combinations(range(1, src.k + 1), size)
            )
            assert (oracle_verdict(out) is Verdict.YES) == agreement_yes

    def test_arity_bookkeeping(self):
        rng = random.Random(29)
        for _ in range(15):
            d = rng.randint(1, 5)
            k = rng.randint(1, d)
            f = random_formula(rng, d, 8)
            x = Assignment(rng.getrandbits(d), d)
            src = ProblemInstance(kind="ip2", f=f, x=x, k=k, delta=HALF)
            out = reduce_ip2_to_relevant_input(src)
            assert out.f.arity == 2 * k + 3 * (d - k)


class TestSatToIp3:
    def test_parameters_worked_example(self):
        assert sat_ip3_parameters(3, HALF, Fraction(1, 4)) == (3, 3)

    def test_shape(self):
        out = reduce_sat_to_ip3(parse("x1 | x2", arity=3), HALF, Fraction(1, 4))
        assert out.k == 9
        assert out.m == 9
        assert out.f.arity == 9 + 9 + 3 == 21
        assert out.layout["v"] == (10, 21)
        from boolrel.formula import evaluate

        assert evaluate(out.f, out.x) == 1

    def test_yes_preservation(self):
        out = reduce_sat_to_ip3(parse("x1 | x2"), HALF, Fraction(1, 4))
        assert oracle_verdict(out) is Verdict.YES

    def test_no_preservation(self):
        unsat = parse("x1 & !x1", arity=1)
        out = reduce_sat_to_ip3(unsat, HALF, Fraction(1, 4))
        assert oracle_verdict(out) is Verdict.NO

    def test_m_override(self):
        out = reduce_sat_to_ip3(parse("x1"), HALF, Fraction(1, 4), m_prime=7)
        assert out.m == 7
        with pytest.raises(ValueError):
            reduce_sat_to_ip3(parse("x1 | x2"), HALF, Fraction(1, 4), m_prime=1)


class TestSatOracle:
    def test_models_in_one_block_of_many(self):
        # 20 free variables are 2^4 enumeration blocks: the only model is
        # the all-ones row in the last block, then a row of a middle block.
        ones = and_(*(var(i) for i in range(1, 21)))
        assert oracle_verdict(sat(Formula(ones, 20))) is Verdict.YES
        middle = and_(*(not_(var(i)) if i == 18 else var(i) for i in range(1, 21)))
        assert oracle_verdict(sat(Formula(middle, 20))) is Verdict.YES
        none = and_(ones, not_(var(20)))
        assert oracle_verdict(sat(Formula(none, 20))) is Verdict.NO

    def test_refuses_above_26(self):
        with pytest.raises(EnumerationCapExceeded, match="sat oracle"):
            oracle_verdict(sat(Formula(var(1), 27)))


class TestInapproxParameters:
    def test_worked_example(self):
        rec = inapprox_parameters(3, HALF, Fraction(1, 4), HALF)
        assert rec.q == 3
        assert rec.p == 3
        assert rec.k_prime == 9
        assert rec.m_prime == 325
        assert rec.d_prime == 337
        assert rec.check is True
        assert rec.m_rounding == "exact"

    def test_m_prime_at_least_k_prime(self):
        rng = random.Random(31)
        for _ in range(30):
            d = rng.randint(1, 6)
            delta = rng.choice([HALF, Fraction(3, 4)])
            gamma = rng.choice([Fraction(0), delta / 2])
            alpha = rng.choice([Fraction(1, 4), HALF, Fraction(3, 4)])
            rec = inapprox_parameters(d, delta, gamma, alpha)
            assert rec.m_prime >= rec.k_prime

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            inapprox_parameters(3, HALF, Fraction(1, 4), Fraction(1))

    def test_check_holds_on_small_sweep(self):
        for d in (1, 3, 6):
            for alpha in (Fraction(1, 4), HALF, Fraction(3, 4)):
                rec = inapprox_parameters(d, HALF, Fraction(1, 4), alpha)
                assert rec.check is True


class TestVerifyReduction:
    def test_pass_pair(self):
        src = emajsat(parse("x1 & (x2 | x3)"), 1)
        out = reduce_emajsat_to_ip1(src)
        check = verify_reduction(src, out)
        assert check.passed
        assert (check.source_verdict, check.reduced_verdict) == (
            Verdict.YES,
            Verdict.YES,
        )

    def test_mismatched_kinds_rejected(self):
        src = emajsat(parse("x1"), 1)
        ip3 = reduce_sat_to_ip3(parse("x1"), HALF, Fraction(1, 4))
        with pytest.raises(ValueError):
            verify_reduction(src, ip3)

    def test_detects_broken_reduction(self):
        src = emajsat(parse("x1 ^ x2"), 1)  # a No instance
        # A bogus "reduction": an IP1 instance that is trivially Yes.
        bogus = ProblemInstance(
            kind="ip1",
            f=parse("x1"),
            x=Assignment.from_string("1"),
            k=1,
        )
        check = verify_reduction(src, bogus)
        assert not check.passed

    def test_full_chain_single_instance(self):
        src = emajsat(parse("x1 & (x2 | x3)"), 1)
        ip1 = reduce_emajsat_to_ip1(src)
        ip2 = reduce_ip1_to_ip2(ip1, HALF)
        ri = reduce_ip2_to_relevant_input(ip2)
        assert verify_reduction(src, ip1).passed
        assert verify_reduction(ip1, ip2).passed
        assert verify_reduction(ip2, ri).passed


class TestProducedInstancesAgainstNaive:
    """Oracle verdicts on real reduced instances, re-derived naively where
    the arity permits full enumeration."""

    def test_ri_instance_from_chain_matches_naive_search(self):
        from itertools import combinations

        rng = random.Random(53)
        for _ in range(12):
            d = rng.randint(2, 4)
            f = random_formula(rng, d, 8)
            x = Assignment(rng.getrandbits(d), d)
            src = ProblemInstance(kind="ip2", f=f, x=x, k=1, delta=HALF)
            ri = reduce_ip2_to_relevant_input(src)
            assert ri.f.arity <= 11
            want = None
            for size in range(0, ri.k + 1):
                if want:
                    break
                for combo in combinations(range(1, ri.f.arity + 1), size):
                    from oracles import naive_agreement

                    if naive_agreement(ri.f, ri.x, combo) >= HALF:
                        want = combo
                        break
            got = oracle_verdict(ri)
            assert (got is Verdict.YES) == (want is not None)

    def test_ip2_instance_from_chain_matches_naive_search(self):
        from itertools import combinations

        from oracles import naive_conditional_satisfaction

        rng = random.Random(54)
        for _ in range(8):
            # d=1 sources keep the gadget small enough to enumerate fully.
            f = random_formula(rng, 1, 4)
            src = ProblemInstance(kind="emajsat", f=f, k=1)
            ip1 = reduce_emajsat_to_ip1(src)
            ip2 = reduce_ip1_to_ip2(ip1, HALF)
            assert ip2.f.arity <= 14
            want = False
            for size in range(0, ip2.k + 1):
                for combo in combinations(range(1, ip2.k + 1), size):
                    if naive_conditional_satisfaction(ip2.f, ip2.x, combo) >= HALF:
                        want = True
                        break
                if want:
                    break
            assert (oracle_verdict(ip2) is Verdict.YES) == want


class TestXorProbabilityFacts:
    """P(Phi xor Psi) under independence, for P(Psi) in {0, 1/2, 1}."""

    def test_all_three_cases(self):
        rng = random.Random(37)
        for _ in range(40):
            d = rng.randint(1, 5)
            f = random_formula(rng, d, 8)
            p = satisfaction_probability(f)
            fresh = var(d + 1)
            fresh2 = var(d + 2)
            cases = [
                (parse("0").root, Fraction(0), p),
                (fresh, HALF, HALF),
                (xor(fresh, fresh2), HALF, HALF),
                (parse("1").root, Fraction(1), 1 - p),
            ]
            for psi, p_psi, want in cases:
                assert satisfaction_probability(
                    Formula(psi, f.arity + 2)
                ) == p_psi
                combined = Formula(xor(f.root, psi), f.arity + 2)
                got = satisfaction_probability(combined)
                assert got == want


class TestMixingIdentity:
    """P(Phi xor Psi | A) = 1/2 + (P(Phi | A,B) - 1/2) P(B) for the
    duplicate-and-compare shapes."""

    @staticmethod
    def conditional(num_f: Formula, cond: Formula) -> Fraction:
        joint = Formula(
            and_(num_f.root, cond.root), max(num_f.arity, cond.arity)
        )
        base = Formula(cond.root, joint.arity)
        pj = satisfaction_probability(joint)
        pb = satisfaction_probability(base)
        return pj / pb

    def test_identity_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            k = rng.randint(1, 2)
            extra = rng.randint(0, 2)
            d = k + extra
            arity = 2 * k + extra + 1  # u, v, r, t
            phi_host = random_formula(rng, d, 8)
            remap = {
                i: var(i) if i <= k else var(k + i) for i in range(1, d + 1)
            }
            from boolrel.formula import compose_variables

            phi = compose_variables(phi_host.root, remap)
            t_index = arity
            mismatch = or_(*(xor(var(i), var(k + i)) for i in range(1, k + 1)))
            match = and_(*(not_(xor(var(i), var(k + i))) for i in range(1, k + 1)))
            psi = and_(mismatch, var(t_index))
            # A constrains each coordinate to u_i = 0, v_i = 1, or nothing.
            literals = []
            for i in range(1, k + 1):
                choice = rng.choice(["zero", "one", "free"])
                if choice == "zero":
                    literals.append(not_(var(i)))
                elif choice == "one":
                    literals.append(var(k + i))
            a_node = and_(*literals) if literals else parse("1").root
            a = Formula(a_node, arity)
            lhs = self.conditional(
                Formula(xor(phi, psi), arity), a
            )
            phi_f = Formula(phi, arity)
            ab = Formula(and_(a.root, match), arity)
            p_phi_ab = self.conditional(phi_f, ab)
            p_b = satisfaction_probability(Formula(match, arity))
            rhs = HALF + (p_phi_ab - HALF) * p_b
            assert lhs == rhs


class TestInstanceSerialisation:
    def test_roundtrip(self):
        src = emajsat(parse("x1 & (x2 | x3)"), 1)
        out = reduce_ip1_to_ip2(reduce_emajsat_to_ip1(src), HALF)
        data = out.to_json_dict()
        back = ProblemInstance.from_json_dict(data)
        assert back.kind == out.kind
        assert back.f.arity == out.f.arity
        assert str(back.x) == str(out.x)
        assert back.k == out.k
        assert back.delta == out.delta
        assert back.layout == out.layout
        assert render(back.f.root) == render(out.f.root)

    def test_layout_partition_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                kind="ip1",
                f=parse("x1 & x2"),
                x=Assignment.from_string("11"),
                k=1,
                layout={"u": (1, 1)},  # leaves variable 2 uncovered
            )
