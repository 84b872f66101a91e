"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from boolrel.cli import run as cli_run
from boolrel.counting import satisfaction_probability
from boolrel.formula import (
    And,
    Assignment,
    Formula,
    Node,
    Or,
    Xor,
    and_,
    compile_to_relu,
    evaluate,
    from_truth_table,
    not_,
    or_,
    truth_table,
    xor,
)
from boolrel.gadgets import build_pi, lower_probability_gadget, raise_probability_gadget
from boolrel.reductions import (
    ProblemInstance,
    inapprox_parameters,
    reduce_emajsat_to_ip1,
    reduce_ip1_to_ip2,
    reduce_ip2_to_relevant_input,
    reduce_sat_to_ip3,
    verify_reduction,
)
from boolrel.relevance import (
    Verdict,
    amplified_sample_relevance,
    is_delta_relevant,
    sample_relevance,
)
from boolrel.shapley import relevance_from_characteristic, shapley_values
from oracles import naive_agreement, random_assignment, random_formula

HALF = Fraction(1, 2)


def report_line(number: int, ok: bool, text: str):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}]: {text}")
    assert ok, f"criterion {number} failed: {text}"


class TestCriterion1:
    def test_exact_relevance_against_naive_enumerator(self):
        rng = random.Random(101)
        deltas = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
        checked = 0
        mismatches = 0
        for _ in range(500):
            d = rng.randint(1, 10)
            f = random_formula(rng, d, rng.randint(2, 16))
            x = random_assignment(rng, d)
            for size in range(0, min(3, d) + 1):
                for combo in combinations(range(1, d + 1), size):
                    want = naive_agreement(f, x, combo)
                    delta = rng.choice(deltas)
                    got_verdict, got_prob = is_delta_relevant(f, x, combo, delta)
                    checked += 1
                    if got_prob != want or got_verdict != (
                        want >= delta
                    ):
                        mismatches += 1
        report_line(
            1,
            mismatches == 0,
            f"exact relevance vs naive enumerator on {checked} subset checks "
            f"across 500 formulas (d <= 10), {mismatches} mismatches",
        )


class TestCriterion2:
    def test_pi_gadget_bounds(self):
        rng = random.Random(202)
        failures = []
        for trial in range(200):
            ell = rng.randint(1, 12)
            if trial % 10 == 0:
                eta = Fraction(rng.randint(1, 7), 8 << ell)  # force and-chain
                if eta > 1:
                    eta = Fraction(1, 1 << ell)
            else:
                eta = Fraction(rng.randint(1, 1 << 20), 1 << 20)
            g = build_pi(eta, ell)
            if abs(eta - g.prob) > Fraction(1, 1 << ell):
                failures.append((eta, ell, "accuracy"))
            if g.n > ell * (ell + 3) // 2:
                failures.append((eta, ell, "size"))
            if g.kind == "iterative":
                gap_prev = eta
                p_prev = Fraction(0)
                for step in g.trace:
                    if step.prob != p_prev + (1 - p_prev) / (1 << step.added_vars):
                        failures.append((eta, ell, "recurrence"))
                    gap = eta - step.prob
                    if 2 * gap > gap_prev:
                        failures.append((eta, ell, "halving"))
                    if gap_prev * (1 << (step.added_vars - 1)) >= 1:
                        failures.append((eta, ell, "width-bound"))
                    gap_prev, p_prev = gap, step.prob
            if g.n <= 26:
                brute = Fraction(truth_table(g.pi).ones(), 1 << g.n)
                if brute != g.prob:
                    failures.append((eta, ell, "brute-force"))
            else:
                decomposed = satisfaction_probability(g.pi)
                if decomposed != g.prob:
                    failures.append((eta, ell, "decomposition"))
        report_line(
            2,
            not failures,
            f"pi gadget bounds on 200 random (eta, ell <= 12): "
            f"{len(failures)} violations",
        )


class TestCriterion3:
    RAISE_PAIRS = [
        (Fraction(1, 4), HALF),
        (HALF, Fraction(3, 4)),
        (HALF, Fraction(9, 10)),
    ]
    LOWER_PAIRS = [(Fraction(1, 4), Fraction(3, 4)), (HALF, Fraction(3, 4))]

    def formulas(self):
        rng = random.Random(303)
        for bits in range(16):
            yield from_truth_table(bits, 2)
        for _ in range(500):
            d = rng.randint(3, 8)
            yield random_formula(rng, d, rng.randint(2, 16))

    def test_raising_and_lowering_biconditionals(self):
        raise_shifts = {}
        lower_shifts = {}
        bad = 0
        total = 0
        for f in self.formulas():
            p = satisfaction_probability(f)
            for d1, d2 in self.RAISE_PAIRS:
                key = (f.arity, d1, d2)
                if key not in raise_shifts:
                    raise_shifts[key] = raise_probability_gadget(f.arity, d1, d2)
                combined = raise_shifts[key].apply(f)
                lhs = p > d1
                rhs = satisfaction_probability(combined) >= d2
                total += 1
                bad += lhs != rhs
            for d1, d2 in self.LOWER_PAIRS:
                key = (f.arity, d1, d2)
                if key not in lower_shifts:
                    lower_shifts[key] = lower_probability_gadget(f.arity, d1, d2)
                combined = lower_shifts[key].apply(f)
                lhs = p >= d2
                rhs = satisfaction_probability(combined) > d1
                total += 1
                bad += lhs != rhs
        report_line(
            3,
            bad == 0,
            f"raising/lowering biconditionals on 16 exhaustive d=2 plus 500 "
            f"random d in 3..8 formulas ({total} checks), {bad} failures",
        )


def shuffled_copy(node: Node, rng: random.Random) -> Node:
    """Semantically equal rebuild with permuted operand order."""
    if isinstance(node, (And, Or)):
        kids = [shuffled_copy(c, rng) for c in node.children]
        rng.shuffle(kids)
        return and_(*kids) if isinstance(node, And) else or_(*kids)
    if isinstance(node, Xor):
        return xor(shuffled_copy(node.right, rng), shuffled_copy(node.left, rng))
    from boolrel.formula import Not

    if isinstance(node, Not):
        return not_(shuffled_copy(node.child, rng))
    return node


class TestCriterion4:
    def run_chain(self, f: Formula, k: int) -> bool:
        src = ProblemInstance(kind="emajsat", f=f, k=k)
        ip1 = reduce_emajsat_to_ip1(src)
        ip2 = reduce_ip1_to_ip2(ip1, HALF)
        ri = reduce_ip2_to_relevant_input(ip2)
        return (
            verify_reduction(src, ip1).passed
            and verify_reduction(ip1, ip2).passed
            and verify_reduction(ip2, ri).passed
        )

    def test_exhaustive_d2_chain(self):
        bad = 0
        for bits in range(16):
            for k in (1, 2):
                if not self.run_chain(from_truth_table(bits, 2), k):
                    bad += 1
        report_line(
            4,
            bad == 0,
            f"exhaustive d=2 chain sweep (16 functions x k in {{1,2}}), "
            f"{bad} broken chains",
        )

    def test_sampled_d3_chain(self):
        rng = random.Random(404)
        bad = 0
        for _ in range(100):
            f = random_formula(rng, 3, rng.randint(2, 12))
            k = rng.choice([1, 2])
            if not self.run_chain(f, k):
                bad += 1
        report_line(
            4,
            bad == 0,
            f"sampled d=3 chain sweep (100 random functions, k in {{1,2}}), "
            f"{bad} broken chains",
        )

    def test_sat_to_ip3(self):
        rng = random.Random(405)
        satisfiable = []
        unsatisfiable = []
        while len(satisfiable) < 50 or len(unsatisfiable) < 50:
            d = rng.randint(1, 3)
            f = random_formula(rng, d, rng.randint(2, 10))
            if truth_table(f).ones() > 0:
                if len(satisfiable) < 50:
                    satisfiable.append(f)
            elif len(unsatisfiable) < 50:
                unsatisfiable.append(f)
            if len(unsatisfiable) < 50:
                base = random_formula(rng, d, rng.randint(2, 8))
                twisted = Formula(
                    xor(base.root, shuffled_copy(base.root, rng)), base.arity
                )
                if truth_table(twisted).ones() == 0 and twisted.arity >= 1:
                    unsatisfiable.append(twisted)
        bad = 0
        for f in satisfiable + unsatisfiable:
            src = ProblemInstance(kind="sat", f=f)
            out = reduce_sat_to_ip3(f, HALF, Fraction(1, 4))
            if not verify_reduction(src, out).passed:
                bad += 1
        report_line(
            4,
            bad == 0,
            f"sat->ip3 on 50 satisfiable + 50 unsatisfiable formulas (d <= 3), "
            f"{bad} broken reductions",
        )


class TestCriterion5:
    DELTA = Fraction(3, 4)
    GAMMA = Fraction(1, 10)

    def planted_instances(self):
        """(formula, x, exact agreement, truth) with margin >= 0.05."""
        rng = random.Random(505)
        instances = []
        while len(instances) < 200:
            upper = len(instances) % 2 == 0
            if upper:
                eta = Fraction(815 + rng.randint(0, 135), 1000)  # 0.815..0.95
            else:
                eta = Fraction(105 + rng.randint(0, 485), 1000)  # 0.105..0.59
            g = build_pi(eta, 10)
            p = g.prob
            if upper and p < self.DELTA + Fraction(1, 20):
                continue
            if not upper and p > self.DELTA - self.GAMMA - Fraction(1, 20):
                continue
            x = Assignment.ones(g.pi.arity)
            instances.append((g.pi, x, p, upper))
        return instances

    def test_single_run_error_rate(self):
        instances = self.planted_instances()
        errors = 0
        runs = 0
        for index, (f, x, _, truth_yes) in enumerate(instances):
            for s in range(5):
                out = sample_relevance(
                    f, x, [], self.DELTA, self.GAMMA, seed=index * 1000 + s
                )
                got_yes = out.verdict is Verdict.YES
                errors += got_yes != truth_yes
                runs += 1
        assert runs == 1000
        # Allow 1/3 plus a 99% binomial margin for 1000 trials.
        margin = 2.326 * math.sqrt((1 / 3) * (2 / 3) / runs)
        bound = 1 / 3 + margin
        rate = errors / runs
        report_line(
            5,
            rate <= bound,
            f"single-run sampler error rate {rate:.4f} over 1000 seeded runs "
            f"on 200 planted instances (bound {bound:.4f})",
        )

    def test_amplified_error_rate(self):
        instances = self.planted_instances()
        errors = 0
        runs = 0
        for index, (f, x, _, truth_yes) in enumerate(instances):
            for s in range(2):
                out = amplified_sample_relevance(
                    f, x, [], self.DELTA, self.GAMMA,
                    seed=7_000_000 + index * 100 + s, rounds=15,
                )
                got_yes = out.verdict is Verdict.YES
                errors += got_yes != truth_yes
                runs += 1
        rate = errors / runs
        report_line(
            5,
            rate <= 0.05,
            f"amplified (15 rounds) error rate {rate:.4f} over {runs} runs "
            f"(bound 0.05)",
        )


class TestCriterion6:
    def test_identity_and_efficiency(self):
        rng = random.Random(606)
        deltas = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
        identity_bad = 0
        efficiency_bad = 0
        checks = 0
        for _ in range(200):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, rng.randint(2, 14))
            x = random_assignment(rng, d)
            for size in range(0, min(3, d) + 1):
                for combo in combinations(range(1, d + 1), size):
                    for delta in deltas:
                        via_nu = relevance_from_characteristic(f, x, combo, delta)
                        direct, _ = is_delta_relevant(f, x, combo, delta)
                        checks += 1
                        identity_bad += via_nu != direct
            sv = shapley_values(f, x)
            efficiency_bad += not sv.is_efficient()
        report_line(
            6,
            identity_bad == 0 and efficiency_bad == 0,
            f"characteristic-function identity on {checks} checks "
            f"({identity_bad} mismatches) and exact efficiency on 200 Shapley "
            f"vectors ({efficiency_bad} gaps)",
        )


class TestCriterion7:
    def test_parameter_arithmetic(self):
        bad = []
        for d in range(1, 7):
            for delta in (HALF, Fraction(3, 4)):
                for gamma in (Fraction(0), delta / 2):
                    for alpha in (Fraction(1, 4), HALF, Fraction(3, 4)):
                        rec = inapprox_parameters(d, delta, gamma, alpha)
                        if not rec.check:
                            bad.append((d, delta, gamma, alpha))
        worked = inapprox_parameters(3, HALF, Fraction(1, 4), HALF)
        worked_ok = (
            worked.k_prime == 9
            and worked.p == 3
            and worked.m_prime == 325
            and worked.d_prime == 337
        )
        report_line(
            7,
            not bad and worked_ok,
            f"inapproximability check flag over the full sweep ({len(bad)} "
            f"failures); worked value set k'=9, p=3, m'=325, d'=337 "
            f"{'reproduced' if worked_ok else 'NOT reproduced'}",
        )


class TestCriterion8:
    def test_relu_agreement(self):
        rng = random.Random(808)
        bad = 0
        for _ in range(500):
            d = rng.randint(1, 10)
            f = random_formula(rng, d, rng.randint(2, 16))
            net = compile_to_relu(f)
            size = 1 << d
            inputs = np.array(
                [[(j >> i) & 1 for i in range(d)] for j in range(size)],
                dtype=np.int64,
            )
            got = net.forward_batch(inputs)
            want = np.array(
                [evaluate(f, Assignment(j, d)) for j in range(size)],
                dtype=np.int64,
            )
            if not np.array_equal(got, want):
                bad += 1
        report_line(
            8,
            bad == 0,
            f"ReLU compilation agreement on 500 random formulas (d <= 10), "
            f"{bad} disagreements",
        )


class TestCriterion9:
    def test_sampling_reports_are_byte_identical(self):
        rng = random.Random(909)
        trials = []
        for i in range(60):
            trials.append(
                [
                    "sample", "--formula", "(x1&x2)|!x3", "--x", "110",
                    "--set", rng.choice(["", "1", "1,2", "3"]),
                    "--delta", rng.choice(["0.75", "3/4", "0.9"]),
                    "--gamma", "0.1",
                    "--seed", str(rng.getrandbits(63)),
                ]
            )
        for i in range(25):
            trials.append(
                [
                    "decide-gapped", "--formula", "x1 ^ x2 ^ x3", "--x", "101",
                    "--k", "1", "--delta", "0.9", "--gamma", "0.2",
                    "--seed", str(rng.getrandbits(63)),
                ]
            )
        for i in range(15):
            trials.append(
                [
                    "greedy", "--formula", "(x1&x2)|!x3", "--x", "110",
                    "--delta", "0.95", "--gamma", "0.15",
                    "--seed", str(rng.getrandbits(63)),
                ]
            )
        assert len(trials) == 100
        bad = 0
        for argv in trials:
            _, first, _ = cli_run(argv)
            _, second, _ = cli_run(argv)
            if first.encode() != second.encode():
                bad += 1
        report_line(
            9,
            bad == 0,
            f"byte-identical reports for re-run sampling subcommands "
            f"(100 trials), {bad} diverged",
        )
