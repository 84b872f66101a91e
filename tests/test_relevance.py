import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import boolrel.counting as counting
import boolrel.relevance as relevance
from boolrel.formula import (
    DEFAULT_ENUM_CAP,
    FALSE,
    EnumerationCapExceeded,
    Assignment,
    Formula,
    SubsetMask,
    and_,
    compose_variables,
    const,
    not_,
    or_,
    parse,
    support,
    var,
    xor,
    xor_all,
)
from boolrel.relevance import (
    DEFAULT_SAMPLE_CAP,
    RelevanceQuery,
    SampleCapExceeded,
    SearchCapExceeded,
    Verdict,
    _subseed,
    amplified_sample_relevance,
    decide_gapped,
    decide_relevant_input,
    greedy_min_relevant,
    is_delta_relevant,
    sample_count,
    sample_relevance,
    solve_emajsat,
    solve_ip1,
    solve_ip2,
    solve_ip3,
    solve_min_relevant_input,
)
from oracles import (
    naive_agreement,
    naive_conditional_satisfaction,
    naive_draw_successes,
    random_assignment,
    random_formula,
    random_formula_node,
)

FIG1 = parse("(x1 & x2) | !x3")
X110 = Assignment.from_string("110")


def naive_first_witness(f, x, k, delta):
    """Reference size-lex search without any pruning."""
    from itertools import combinations

    for size in range(0, k + 1):
        for combo in combinations(range(1, f.arity + 1), size):
            if naive_agreement(f, x, combo) >= delta:
                return combo
    return None


class TestIsDeltaRelevant:
    def test_fig1_singleton_one(self):
        ok, prob = is_delta_relevant(FIG1, X110, [1], Fraction(3, 4))
        assert ok and prob == Fraction(3, 4)

    def test_fig1_singleton_one_stricter(self):
        ok, prob = is_delta_relevant(FIG1, X110, [1], Fraction(4, 5))
        assert not ok and prob == Fraction(3, 4)

    def test_full_set_delta_one(self):
        rng = random.Random(2)
        for _ in range(20):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            ok, prob = is_delta_relevant(f, x, SubsetMask.full(d), Fraction(1))
            assert ok and prob == 1


class TestDecideRelevantInput:
    def test_fig1_witness_x3(self):
        report = decide_relevant_input(FIG1, X110, 1, Fraction(1))
        assert report.verdict is Verdict.YES
        assert report.witness.indices() == (3,)
        assert report.probability == 1

    def test_substituted_point_all_ones(self):
        # At x = (1,1,1): {3} gives 1/4 but {1} and {2} give exactly 3/4,
        # so k=1 at delta=3/4 is a Yes with lexicographically first witness {1}.
        x = Assignment.from_string("111")
        assert naive_agreement(FIG1, x, [3]) == Fraction(1, 4)
        assert naive_agreement(FIG1, x, [1]) == Fraction(3, 4)
        assert naive_agreement(FIG1, x, [2]) == Fraction(3, 4)
        report = decide_relevant_input(FIG1, x, 1, Fraction(3, 4))
        assert report.verdict is Verdict.YES
        assert report.witness.indices() == (1,)
        # Raising delta just above 3/4 flips it to a No.
        report = decide_relevant_input(FIG1, x, 1, Fraction(4, 5))
        assert report.verdict is Verdict.NO

    def test_k_equals_d_always_yes(self):
        rng = random.Random(6)
        for _ in range(20):
            d = rng.randint(1, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            report = decide_relevant_input(f, x, d, Fraction(1))
            assert report.verdict is Verdict.YES

    def test_matches_unpruned_reference(self):
        rng = random.Random(40)
        deltas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for _ in range(150):
            d = rng.randint(2, 7)
            f = random_formula(rng, d, rng.randint(2, 12))
            x = random_assignment(rng, d)
            k = rng.randint(1, d)
            delta = rng.choice(deltas)
            want = naive_first_witness(f, x, k, delta)
            report = decide_relevant_input(f, x, k, delta)
            if want is None:
                assert report.verdict is Verdict.NO
            else:
                assert report.verdict is Verdict.YES
                assert report.witness.indices() == want

    def test_witness_revalidates_exactly(self):
        rng = random.Random(41)
        for _ in range(60):
            d = rng.randint(2, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            report = decide_relevant_input(f, x, d, Fraction(3, 4))
            if report.verdict is Verdict.YES:
                ok, _ = is_delta_relevant(
                    f, x, report.witness, Fraction(3, 4)
                )
                assert ok

    def test_prune_bound_equality_is_not_pruned(self):
        # At the root, agreement is 1/4 and the one remaining pick can at
        # most double it to exactly 1/2; a witness sits exactly there, so a
        # strict-vs-nonstrict slip in the prune comparison would lose it.
        f = parse("x1 & x2")
        x = Assignment.from_string("11")
        assert naive_agreement(f, x, []) == Fraction(1, 4)
        assert naive_agreement(f, x, [1]) == Fraction(1, 2)
        report = decide_relevant_input(f, x, 1, Fraction(1, 2))
        assert report.verdict is Verdict.YES
        assert report.witness.indices() == (1,)

    def test_search_cap(self):
        f = Formula(parse("x1").root, 25)
        with pytest.raises(SearchCapExceeded):
            decide_relevant_input(f, Assignment.zeros(25), 1, Fraction(1, 2))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            decide_relevant_input(FIG1, X110, 0, Fraction(1, 2))


class TestSolveMinRelevantInput:
    def test_fig1_delta_one(self):
        k, witness = solve_min_relevant_input(FIG1, X110, Fraction(1))
        assert k == 1 and witness.indices() == (3,)

    def test_fig1_delta_five_eighths(self):
        k, witness = solve_min_relevant_input(FIG1, X110, Fraction(5, 8))
        assert k == 0 and witness.indices() == ()

    def test_constant_formula(self):
        f = Formula(const(1), 4)
        k, witness = solve_min_relevant_input(f, Assignment.zeros(4), Fraction(1))
        assert k == 0 and witness.size == 0

    def test_monotone_in_delta(self):
        rng = random.Random(50)
        grid = [Fraction(i, 8) for i in range(1, 9)]
        for _ in range(40):
            d = rng.randint(2, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            sizes = [solve_min_relevant_input(f, x, delta)[0] for delta in grid]
            assert sizes == sorted(sizes)


class TestSampler:
    def test_sample_counts(self):
        assert sample_count(Fraction(1, 5)) == 55
        assert sample_count(Fraction(1, 10)) == 220
        assert sample_count(Fraction(1, 20)) == 879

    def test_sample_count_exact_where_floats_are_not(self):
        # n is about 2.2e18, past 2^53: the float formula rounds it to a
        # multiple of 512 (2197224577336219392).
        gamma = Fraction("1e-9")
        assert sample_count(gamma) == 2197224577336219383
        assert sample_count(gamma) != math.ceil(
            2.0 * math.log(3.0) / float(gamma * gamma)
        )

    def test_sample_count_against_decimal_ln3(self):
        rng = random.Random(12)
        with localcontext() as ctx:
            ctx.prec = 80
            two_ln3 = Fraction(2 * Decimal(3).ln())
        for _ in range(200):
            gamma = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9))
            assert sample_count(gamma) == math.ceil(two_ln3 / (gamma * gamma))

    def test_constant_formula_always_agrees(self):
        f = Formula(const(1), 5)
        out = sample_relevance(
            f, Assignment.zeros(5), [], Fraction(9, 10), Fraction(1, 10), seed=7
        )
        assert out.verdict is Verdict.YES
        assert out.estimate == 1.0
        assert out.samples == 220

    def test_deterministic_given_seed(self):
        rng = random.Random(71)
        for _ in range(10):
            f = random_formula(rng, 6, 10)
            x = random_assignment(rng, 6)
            seed = rng.getrandbits(64)
            a = sample_relevance(f, x, [2], Fraction(3, 4), Fraction(1, 10), seed)
            b = sample_relevance(f, x, [2], Fraction(3, 4), Fraction(1, 10), seed)
            assert a == b

    def test_rejects_gamma_zero(self):
        with pytest.raises(ValueError):
            sample_relevance(FIG1, X110, [1], Fraction(1, 2), Fraction(0), 1)

    @pytest.mark.parametrize("index", [0, 4])
    def test_rejects_index_outside_the_formula(self, index):
        # As is_delta_relevant does: x0 and x4 are not variables of FIG1.
        delta, gamma = Fraction(3, 4), Fraction(1, 10)
        refusal = f"index {index} out of range 1..3"
        with pytest.raises(ValueError, match=refusal):
            sample_relevance(FIG1, X110, [index], delta, gamma, 7)
        with pytest.raises(ValueError, match=refusal):
            amplified_sample_relevance(FIG1, X110, [index], delta, gamma, 7, 5)

    def test_tie_answers_yes(self):
        # Agreement is exactly 1/2 for f = x1 with S empty; the acceptance
        # threshold delta - gamma/2 = 1/2 makes ties reachable.
        f = parse("x1")
        x = Assignment.from_string("1")
        delta, gamma = Fraction(11, 20), Fraction(1, 10)
        n = sample_count(gamma)
        tie_seed = None
        for seed in range(500):
            out = sample_relevance(f, x, [], delta, gamma, seed)
            if Fraction(out.successes, n) == delta - gamma / 2:
                tie_seed = seed
                break
        assert tie_seed is not None
        out = sample_relevance(f, x, [], delta, gamma, tie_seed)
        assert out.verdict is Verdict.YES

    def test_error_rate_on_planted_instances(self):
        # Exact agreement 1 vs threshold 0.9: never errs.  Exact agreement
        # 1/2 vs (delta - gamma) = 0.65: single-run error rate must stay
        # well under 1/3 across seeds.
        f = parse("x1 ^ x2 ^ x3")
        x = Assignment.from_string("111")
        errors = 0
        trials = 300
        for seed in range(trials):
            out = sample_relevance(
                f, x, [1], Fraction(3, 4), Fraction(1, 10), seed
            )
            if out.verdict is Verdict.YES:  # truth: 1/2 < 0.65, should be No
                errors += 1
        assert errors / trials < 1 / 3


def _transcript_case(rng, width):
    """Formula over x1..x(width+2) with width free variables.  The fixed
    x(width+2) is outside the support; the other fixed variable, the first
    and last free ones and those at the 64-bit word edges are inside it."""
    d = width + 2
    fixed_in = rng.randint(1, d - 1)
    free = tuple(i for i in range(1, d) if i != fixed_in)
    body = FALSE
    if width:
        rename = {j + 1: var(i) for j, i in enumerate(free)}
        body = compose_variables(random_formula_node(rng, width, 16), rename)
    edges = [free[j] for j in sorted({0, 63, 64, width - 1}) if 0 <= j < width]
    root = xor(body, xor_all(var(i) for i in [fixed_in] + edges))
    assert d not in support(root) and {fixed_in, *edges} <= support(root)
    return Formula(root, d), random_assignment(rng, d), free


class TestBitSlicedSampler:
    def test_transcript_matches_per_draw_reference(self):
        rng = random.Random(2025)
        for width in (0, 1, 31, 32, 33, 63, 64, 65, 130):
            for n in (1, 7, 8, 55, 879):
                f, x, free = _transcript_case(rng, width)
                assert len(free) == width
                target = rng.randint(0, 1)
                seed = rng.getrandbits(64)
                fast, slow = random.Random(seed), random.Random(seed)
                got = relevance._successes(f, x, [(free, fast)], n, target)
                want = naive_draw_successes(f, x, free, n, slow, target)
                assert got == [want], (width, n)
                assert fast.getrandbits(32) == slow.getrandbits(32), (width, n)

    def test_blocks_of_draws(self):
        # Runs longer than one bit-parallel block, split at its edges.
        rng = random.Random(31)
        f, x, free = _transcript_case(rng, 9)
        block = relevance._DRAW_BLOCK
        for n in (block - 1, block, block + 1, 2 * block + 5):
            fast, slow = random.Random(n), random.Random(n)
            got = relevance._successes(f, x, [(free, fast)], n, 1)
            assert got == [naive_draw_successes(f, x, free, n, slow, 1)]
            assert fast.getrandbits(32) == slow.getrandbits(32)

    def _check_jobs(self, f, x, frees, n, target, seed):
        """One _successes call over jobs (free, rng), each against its own
        reference run, with every rng left in its reference state."""
        seeds = [_subseed(seed, f"job-{j}") for j in range(len(frees))]
        fast = [random.Random(s) for s in seeds]
        slow = [random.Random(s) for s in seeds]
        got = relevance._successes(f, x, list(zip(frees, fast)), n, target)
        want = [
            naive_draw_successes(f, x, free, n, rng, target)
            for free, rng in zip(frees, slow)
        ]
        assert got == want
        assert [r.getrandbits(32) for r in fast] == [r.getrandbits(32) for r in slow]

    def test_jobs_match_one_reference_run_each(self):
        # Greedy's jobs free different sets of one size; rounds share one.
        rng = random.Random(1907)
        for width in (0, 1, 31, 32, 33, 63, 64, 65, 130):
            f, x, free = _transcript_case(rng, width)
            for n in (1, 9, 220):
                target = rng.randint(0, 1)
                others = [
                    tuple(sorted(rng.sample(range(1, f.arity + 1), width)))
                    for _ in range(4)
                ]
                cases = [[free] * 3, [free] + others]
                for frees in cases:
                    self._check_jobs(f, x, frees, n, target, rng.getrandbits(64))

    def test_jobs_across_pass_edges(self):
        # A pass holds at most _DRAW_BLOCK draws summed over its jobs: runs
        # just under, at and over one pass, and jobs split into groups.
        rng = random.Random(1908)
        f, x, free = _transcript_case(rng, 9)
        block = relevance._DRAW_BLOCK
        d = f.arity
        frees = [free] + [
            tuple(sorted(rng.sample(range(1, d + 1), 9))) for _ in range(4)
        ]
        for n in (block // 5 - 1, block // 5, block // 5 + 1, block // 2 + 1):
            self._check_jobs(f, x, frees, n, 1, n)
        for n in (block - 1, block, block + 1, 2 * block + 5):
            self._check_jobs(f, x, frees[:2], n, 0, n)

    def test_cap_sized_run(self):
        # gamma = 1/690 is the largest unit fraction within the cap.
        gamma = Fraction(1, 690)
        n = sample_count(gamma)
        assert n <= DEFAULT_SAMPLE_CAP < sample_count(Fraction(1, 691))
        f = parse("x1 ^ x64")
        x = Assignment.zeros(64)
        out = sample_relevance(f, x, [], Fraction(1, 2), gamma, seed=8)
        assert out.samples == n
        rng = random.Random(8)
        words = (rng.getrandbits(64) for _ in range(n))
        assert out.successes == sum(((w ^ (w >> 63)) & 1) == 0 for w in words)


class TestSampleCap:
    def test_refused_before_any_draw(self, monkeypatch):
        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError("drew before the cap check")

        monkeypatch.setattr(relevance, "random", SimpleNamespace(Random=NoDraws))
        gamma, delta = Fraction("1e-9"), Fraction(3, 4)
        calls = [
            lambda: sample_relevance(FIG1, X110, [1], delta, gamma, 1),
            lambda: amplified_sample_relevance(
                FIG1, X110, [1], delta, gamma, 1, rounds=3
            ),
            lambda: decide_gapped(FIG1, X110, 1, delta, gamma, 1, rounds=3),
            lambda: greedy_min_relevant(FIG1, X110, delta, gamma, 1, rounds=3),
        ]
        for call in calls:
            with pytest.raises(SampleCapExceeded):
                call()

    def test_just_above_cap(self):
        with pytest.raises(SampleCapExceeded):
            sample_relevance(FIG1, X110, [], Fraction(1, 2), Fraction(1, 691), 1)


class TestAmplified:
    def test_single_round_equals_plain(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_formula(rng, 5, 8)
            x = random_assignment(rng, 5)
            seed = rng.getrandbits(32)
            amp = amplified_sample_relevance(
                f, x, [1], Fraction(3, 4), Fraction(1, 10), seed, rounds=1
            )
            # Round 0 uses the derived sub-seed, not the raw seed.
            plain = sample_relevance(
                f, x, [1], Fraction(3, 4), Fraction(1, 10), _subseed(seed, "round-0")
            )
            assert amp.verdict is plain.verdict

    def test_even_rounds_rejected(self):
        with pytest.raises(ValueError):
            amplified_sample_relevance(
                FIG1, X110, [1], Fraction(3, 4), Fraction(1, 10), 1, rounds=4
            )

    @pytest.mark.parametrize("rounds", [1, 3, 5])
    def test_yes_rounds_count_plain_runs(self, rounds):
        # Round r is the plain run at sub-seed "round-r", so the amplified
        # tally is the number of those runs that answer Yes.
        rng = random.Random(100 + rounds)
        for _ in range(8):
            d = rng.randint(2, 7)
            f = random_formula(rng, d, 10)
            x = random_assignment(rng, d)
            s = sorted(rng.sample(range(1, d + 1), rng.randint(0, d - 1)))
            seed = rng.getrandbits(64)
            delta, gamma = Fraction(rng.randint(11, 20), 20), Fraction(1, 10)
            amp = amplified_sample_relevance(f, x, s, delta, gamma, seed, rounds)
            plain = [
                sample_relevance(f, x, s, delta, gamma, _subseed(seed, f"round-{r}"))
                for r in range(rounds)
            ]
            assert amp.yes_rounds == sum(p.verdict is Verdict.YES for p in plain)
            assert amp.rounds == rounds
            assert amp.samples_per_round == plain[0].samples
            want = Verdict.YES if 2 * amp.yes_rounds > rounds else Verdict.NO
            assert amp.verdict is want


class TestDecideGapped:
    def test_fig1_planted_yes(self):
        report = decide_gapped(
            FIG1, X110, 1, Fraction(19, 20), Fraction(1, 5), seed=2024
        )
        assert report.verdict is Verdict.YES
        assert report.witness.indices() == (3,)
        assert report.promise_dependent

    def test_xor_family_no(self):
        f = parse("x1 ^ x2 ^ x3 ^ x4")
        x = Assignment.from_string("1010")
        report = decide_gapped(f, x, 3, Fraction(9, 10), Fraction(1, 5), seed=99)
        assert report.verdict is Verdict.NO

    def test_k_equals_d_yes(self):
        f = parse("x1 & x2")
        x = Assignment.from_string("11")
        report = decide_gapped(f, x, 2, Fraction(1), Fraction(1, 5), seed=1)
        assert report.verdict is Verdict.YES


class TestGreedy:
    def test_fig1(self):
        k, s = greedy_min_relevant(
            FIG1, X110, Fraction(19, 20), Fraction(1, 10), seed=5
        )
        assert (k, s.indices()) == (1, (3,))

    def test_constant(self):
        f = Formula(const(1), 3)
        k, s = greedy_min_relevant(
            f, Assignment.zeros(3), Fraction(1), Fraction(1, 10), seed=5
        )
        assert (k, s.size) == (0, 0)

    def test_full_conjunction_needs_everything(self):
        f = parse("x1 & x2 & x3 & x4 & x5 & x6")
        x = Assignment.ones(6)
        k, s = greedy_min_relevant(
            f, x, Fraction(1), Fraction(1, 100), seed=11, rounds=3
        )
        assert k == 6
        assert s.indices() == (1, 2, 3, 4, 5, 6)

    def test_result_is_exactly_relevant_at_weakened_threshold(self):
        rng = random.Random(60)
        for trial in range(10):
            d = rng.randint(2, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            k, s = greedy_min_relevant(
                f, x, Fraction(4, 5), Fraction(1, 10), seed=trial
            )
            ok, _ = is_delta_relevant(f, x, s, Fraction(4, 5) - Fraction(1, 10))
            assert ok


def reference_greedy(f, x, delta, gamma, seed, rounds):
    """greedy_min_relevant rebuilt from public calls: amplified accept checks,
    exact re-checks at delta - gamma, and one plain run per candidate whose
    success count is the estimate (the smallest index wins a tie)."""
    d = f.arity
    current: tuple[int, ...] = ()
    while True:
        tag = "accept-" + ",".join(map(str, current))
        out = amplified_sample_relevance(
            f, x, current, delta, gamma, _subseed(seed, tag), rounds
        )
        if out.verdict is Verdict.YES and is_delta_relevant(
            f, x, current, delta - gamma
        )[0]:
            return len(current), current
        best, best_successes = None, -1
        for v in range(1, d + 1):
            if v in current:
                continue
            sub = _subseed(seed, f"estimate-{len(current)}-{v}")
            successes = sample_relevance(
                f, x, sorted(current + (v,)), delta, gamma, sub
            ).successes
            if successes > best_successes:
                best, best_successes = v, successes
        current = tuple(sorted(current + (best,)))


def reference_decide_gapped(f, x, k, delta, gamma, seed, rounds):
    """decide_gapped rebuilt from public calls: the first set, in
    size-then-lexicographic order, whose amplified check at the sub-seed
    "set-<S>" accepts, or None."""
    for size in range(k + 1):
        for subset in combinations(range(1, f.arity + 1), size):
            tag = "set-" + ",".join(map(str, subset))
            out = amplified_sample_relevance(
                f, x, subset, delta, gamma, _subseed(seed, tag), rounds
            )
            if out.verdict is Verdict.YES:
                return subset
    return None


def _witness(report):
    return report.witness.indices() if report.verdict is Verdict.YES else None


class TestSampledLayer:
    """The sampled calls against each other and against public references."""

    def test_decide_gapped_equals_public_reference(self):
        rng = random.Random(1909)
        for trial in range(30):
            d = rng.randint(1, 7)
            f = random_formula(rng, d, rng.randint(4, 14))
            x = random_assignment(rng, d)
            k = rng.randint(1, d)
            delta = Fraction(rng.randint(12, 20), 20)
            gamma = Fraction(1, rng.choice([5, 10]))
            seed = rng.getrandbits(64)
            got = _witness(decide_gapped(f, x, k, delta, gamma, seed, rounds=3))
            want = reference_decide_gapped(f, x, k, delta, gamma, seed, 3)
            assert got == want, (trial, str(f), str(x), k)

    @pytest.mark.parametrize("block", [None, 2 * 165, 1 << 14])
    def test_decide_gapped_witness_at_chunk_edges(self, monkeypatch, block):
        # A chunk holds _DRAW_BLOCK // (rounds n) candidates of one size.
        # x_j | (x_a & x_b & x_c) at all ones: only {x_j} of the sets of size
        # <= 1 reaches 1 - gamma/2 (the others stay at or below 5/8).
        if block is not None:
            monkeypatch.setattr(relevance, "_DRAW_BLOCK", block)
        delta, gamma, rounds = Fraction(1), Fraction(1, 5), 3
        assert rounds * sample_count(gamma) == 165
        chunk = max(1, relevance._DRAW_BLOCK // 165)
        d = max(chunk, 4) + 3
        x = Assignment.ones(d)
        for j in sorted({1, (chunk + 1) // 2, chunk, chunk + 1, d}):
            a, b, c = [v for v in (1, 2, 3, 4) if v != j][:3]
            f = Formula(or_(var(j), and_(var(a), var(b), var(c))), d)
            report = decide_gapped(f, x, 1, delta, gamma, j, rounds, search_cap=d)
            assert _witness(report) == (j,)
            assert reference_decide_gapped(f, x, 1, delta, gamma, j, rounds) == (j,)
        parity = Formula(xor_all(var(i) for i in range(1, d + 1)), d)
        report = decide_gapped(parity, x, 1, delta, gamma, 0, rounds, search_cap=d)
        assert report.verdict is Verdict.NO
        assert reference_decide_gapped(parity, x, 1, delta, gamma, 0, rounds) is None

    def test_greedy_equals_public_reference(self):
        rng = random.Random(1905)
        for trial in range(30):
            d = rng.randint(1, 8)
            f = random_formula(rng, d, rng.randint(4, 14))
            x = random_assignment(rng, d)
            delta = Fraction(rng.randint(12, 20), 20)
            gamma = Fraction(1, rng.choice([5, 10]))
            seed = rng.getrandbits(64)
            k, s = greedy_min_relevant(f, x, delta, gamma, seed, rounds=3)
            want = reference_greedy(f, x, delta, gamma, seed, 3)
            assert (k, s.indices()) == want, (trial, str(f), str(x))

    def test_greedy_parity_needs_every_variable(self):
        # No proper subset of a parity's variables moves its agreement off
        # 1/2, so at delta 1 greedy grows to the full set, where the accept
        # check always passes.
        f = parse("x1 ^ x2 ^ x3 ^ x4")
        x = Assignment.from_string("1010")
        for seed in range(5):
            k, s = greedy_min_relevant(f, x, Fraction(1), Fraction(1, 5), seed)
            assert (k, s.indices()) == (4, (1, 2, 3, 4))

    def test_sample_count_once_per_call(self, monkeypatch):
        # n depends only on gamma: each public sampled call sizes its runs
        # exactly once, however many rounds or candidates it draws.
        sized = []
        real_count = relevance.sample_count

        def count(gamma):
            sized.append(gamma)
            return real_count(gamma)

        monkeypatch.setattr(relevance, "sample_count", count)
        delta, gamma = Fraction(3, 4), Fraction(1, 5)
        f = parse("x1 ^ x2 ^ x3 ^ x4")
        x = Assignment.from_string("1010")
        for call in (
            lambda: sample_relevance(FIG1, X110, [1], delta, gamma, 1),
            lambda: amplified_sample_relevance(FIG1, X110, [1], delta, gamma, 1, 5),
            lambda: decide_gapped(f, x, 2, Fraction(9, 10), gamma, 3, rounds=5),
            lambda: greedy_min_relevant(f, x, Fraction(1), gamma, 3, rounds=5),
        ):
            sized.clear()
            call()
            assert len(sized) == 1


class TestDrawBudget:
    """The sampled searches refuse at the first candidate, in search order,
    whose draws would pass the budget, and answer as before up to it."""

    DELTA, GAMMA, ROUNDS = Fraction(1), Fraction(1, 5), 3  # 55 draws a run

    @pytest.mark.parametrize("block", [None, 165, 4 * 165 + 1])
    def test_decide_gapped_refuses_at_the_same_candidate(self, monkeypatch, block):
        # Candidate c of the search (0-based) ends at (c + 1) * 165 draws.
        if block is not None:
            monkeypatch.setattr(relevance, "_DRAW_BLOCK", block)
        d = 6
        x = Assignment.ones(d)
        parity = Formula(xor_all(var(i) for i in range(1, d + 1)), d)
        args = (self.DELTA, self.GAMMA, 0, self.ROUNDS)
        # The witness {x4} is candidate 4: it answers while the budget pays
        # for 4 candidates past the first, and is refused one draw short.
        planted = Formula(or_(var(4), and_(var(1), var(2), var(3))), d)
        for budget, want in ((5 * 165, (4,)), (5 * 165 - 1, None)):
            monkeypatch.setattr(relevance, "DRAW_BUDGET", budget)
            if want is None:
                with pytest.raises(relevance.DrawBudgetExceeded, match=str(budget)):
                    decide_gapped(planted, x, 1, *args)
            else:
                assert _witness(decide_gapped(planted, x, 1, *args)) == want
        # No: all 1 + 6 + 15 candidates of size <= 2 fit exactly, or refuse.
        monkeypatch.setattr(relevance, "DRAW_BUDGET", 22 * 165)
        assert decide_gapped(parity, x, 2, *args).verdict is Verdict.NO
        monkeypatch.setattr(relevance, "DRAW_BUDGET", 22 * 165 - 1)
        with pytest.raises(relevance.DrawBudgetExceeded):
            decide_gapped(parity, x, 2, *args)

    def test_greedy_refuses_past_the_budget(self, monkeypatch):
        # On a 4-variable parity greedy runs 5 accept checks (165 draws
        # each) and steps of 4, 3, 2 and 1 estimates (55 draws each).
        f = parse("x1 ^ x2 ^ x3 ^ x4")
        x = Assignment.from_string("1010")
        args = (self.DELTA, self.GAMMA, 3, self.ROUNDS)
        total = 5 * 165 + 10 * 55
        monkeypatch.setattr(relevance, "DRAW_BUDGET", total)
        k, s = greedy_min_relevant(f, x, *args)
        assert (k, s.indices()) == (4, (1, 2, 3, 4))
        for budget in (total - 1, 165 + 4 * 55 - 1, 164):
            monkeypatch.setattr(relevance, "DRAW_BUDGET", budget)
            with pytest.raises(relevance.DrawBudgetExceeded, match="greedy"):
                greedy_min_relevant(f, x, *args)

    def test_one_check_past_the_budget_draws_nothing(self, monkeypatch):
        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError("drew past the draw budget")

        monkeypatch.setattr(relevance, "random", SimpleNamespace(Random=NoDraws))
        rounds = relevance.DRAW_BUDGET // 55 + 1  # odd; one check passes the budget
        args = (self.DELTA, self.GAMMA, 1, rounds)
        with pytest.raises(relevance.DrawBudgetExceeded):
            decide_gapped(FIG1, X110, 1, *args)
        with pytest.raises(relevance.DrawBudgetExceeded):
            greedy_min_relevant(FIG1, X110, *args)

    def test_budget_is_a_cap_refusal(self):
        assert relevance.DRAW_BUDGET == 16 * DEFAULT_SAMPLE_CAP
        assert issubclass(relevance.DrawBudgetExceeded, EnumerationCapExceeded)


class TestOracles:
    def test_emajsat_yes(self):
        f = parse("x1 & (x2 | x3)")
        assert solve_emajsat(f, 1) is True  # x1=1 gives 3/4 > 1/2

    def test_emajsat_strictness(self):
        f = parse("x1 ^ x2")
        assert solve_emajsat(f, 1) is False  # both prefixes give exactly 1/2

    def test_ip1_example(self):
        f = parse("x1 & (x2 | x3)")
        x = Assignment.from_string("100")
        assert solve_ip1(f, x, 1) is True  # S={1}: P = 3/4

    def test_ip1_respects_first_k(self):
        # Only x3 pushes the probability over 1/2, but it is outside [k].
        f = parse("x3 & (x1 | x2)")
        x = Assignment.from_string("111")
        assert solve_ip1(f, x, 2) is False
        assert solve_ip1(f, x, 3) is True

    def test_ip2_threshold(self):
        f = parse("x1 & (x2 | x3)")
        x = Assignment.from_string("100")
        assert solve_ip2(f, x, 1, Fraction(3, 4)) is True
        assert solve_ip2(f, x, 1, Fraction(4, 5)) is False

    def test_ip3_planted_yes(self):
        report = solve_ip3(FIG1, X110, 1, 2, Fraction(1), Fraction(1, 4))
        assert report is Verdict.YES

    def test_ip3_xor_family_no(self):
        f = parse("x1 ^ x2 ^ x3 ^ x4")
        x = Assignment.from_string("0000")
        assert (
            solve_ip3(f, x, 2, 3, Fraction(9, 10), Fraction(1, 5)) is Verdict.NO
        )

    def test_ip3_indeterminate_gap(self):
        # Max agreement over sets of size <= 1 is 1/2 (inside the gap
        # [0.6, 0.9)); the full pair reaches 1 so the No condition fails too.
        f = parse("x1 & x2")
        x = Assignment.from_string("11")
        verdict = solve_ip3(f, x, 1, 2, Fraction(9, 10), Fraction(3, 10))
        assert verdict is Verdict.INDETERMINATE

    def test_gap_coherence(self):
        rng = random.Random(70)
        for _ in range(40):
            d = rng.randint(2, 6)
            f = random_formula(rng, d, 8)
            x = random_assignment(rng, d)
            k = rng.randint(1, d)
            delta = rng.choice([Fraction(1, 2), Fraction(3, 4), Fraction(1)])
            report = decide_relevant_input(f, x, k, delta)
            if report.verdict is Verdict.YES:
                for m in range(k, d + 1):
                    for gamma in (Fraction(0), delta / 2):
                        assert (
                            solve_ip3(f, x, k, m, delta, gamma) is Verdict.YES
                        )


class TestXorFamilyClosedForm:
    def test_every_proper_subset_is_exactly_half(self):
        from itertools import combinations

        from boolrel.counting import conditional_agreement_probability

        for d in range(2, 8):
            f = parse(" ^ ".join(f"x{i}" for i in range(1, d + 1)))
            x = Assignment.ones(d)
            for size in range(0, d):
                for combo in combinations(range(1, d + 1), size):
                    p = conditional_agreement_probability(f, x, combo)
                    assert p == Fraction(1, 2)


class TestRelevanceQuery:
    def test_json_roundtrip(self):
        q = RelevanceQuery(
            f=FIG1,
            x=X110,
            k=2,
            delta=Fraction(3, 4),
            gamma=Fraction(1, 10),
            seed=42,
        )
        data = q.to_json_dict()
        back = RelevanceQuery.from_json_dict(data)
        assert back.delta == q.delta
        assert back.gamma == q.gamma
        assert str(back.x) == str(q.x)
        assert back.seed == 42

    def test_decimal_delta_is_exact(self):
        q = RelevanceQuery.from_json_dict(
            {"formula": "x1", "x": "1", "k": 1, "delta": "0.95"}
        )
        assert q.delta == Fraction(19, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            RelevanceQuery(f=FIG1, x=X110, k=9, delta=Fraction(1, 2))
        with pytest.raises(ValueError):
            RelevanceQuery(f=FIG1, x=X110, k=1, delta=Fraction(3, 2))


# --------------------------------------------------------------------------
# The coalition-table path against the subset DFS and the naive oracles.

# 1/4, 3/16 and 1/256 land exactly on counts at several widths, so the
# strict and non-strict tests part there, and pruning meets equality.
DELTAS = (
    Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(7, 8), Fraction(1, 3),
    Fraction(1, 4), Fraction(3, 16), Fraction(1, 256),
)


@st.composite
def instances(draw, max_d=8):
    d = draw(st.integers(1, max_d))
    leaves = st.one_of(st.integers(1, d).map(var), st.integers(0, 1).map(const))
    nodes = st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(not_),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: and_(*cs)),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: or_(*cs)),
            st.tuples(kids, kids).map(lambda ab: xor(*ab)),
        ),
        max_leaves=14,
    )
    f = Formula(draw(nodes), d)
    return f, Assignment(draw(st.integers(0, (1 << d) - 1)), d)


def table_and_dfs(call):
    """call() on the table path, then with the table cap forced to 0."""
    table = call()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relevance, "TABLE_CAP", 0)
        dfs = call()
    return table, dfs


def naive_witness(f, x, target, width, max_size, threshold, strict):
    """(S, c(S)) for the first S meeting the threshold, c(S) the number of
    points agreeing with x on S where f equals target."""
    for size in range(max_size + 1):
        for combo in combinations(range(1, width + 1), size):
            p1 = naive_conditional_satisfaction(f, x, combo)
            p = p1 if target else 1 - p1
            if p > threshold if strict else p >= threshold:
                return combo, int(p * (1 << (f.arity - size)))
    return None


class TestTableAndSearchPaths:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instances(), st.data())
    def test_same_witness_and_probability(self, instance, data):
        f, x = instance
        width = data.draw(st.integers(0, f.arity))
        max_size = data.draw(st.integers(0, width))
        threshold = data.draw(st.sampled_from(DELTAS))
        strict = data.draw(st.booleans())
        target = data.draw(st.integers(0, 1))
        args = (max_size, threshold, strict)
        table, dfs = table_and_dfs(
            lambda: relevance._witness_search(
                f, x, target, width, DEFAULT_ENUM_CAP
            )(*args)
        )
        assert table == dfs
        assert table == naive_witness(f, x, target, width, *args)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances(), st.data())
    def test_public_operations_agree(self, instance, data):
        f, x = instance
        k = data.draw(st.integers(1, f.arity))
        m = data.draw(st.integers(k, f.arity))
        delta = data.draw(st.sampled_from(DELTAS))
        for call in (
            lambda: decide_relevant_input(f, x, k, delta),
            lambda: solve_min_relevant_input(f, x, delta),
            lambda: solve_ip1(f, x, k),
            lambda: solve_ip2(f, x, k, delta),
            lambda: solve_ip3(f, x, k, m, delta, delta / 3),
        ):
            table, dfs = table_and_dfs(call)
            assert table == dfs
        want = naive_first_witness(f, x, k, delta)
        report = decide_relevant_input(f, x, k, delta)
        assert (report.witness.indices() if report.witness else None) == want

    def test_ip1_strict_threshold_at_exactly_half(self):
        # P(f) = 1/2 exactly at S = {}: only the strict test moves on to {1}.
        f = Formula(var(1), 2)
        x = Assignment.from_string("11")
        hits = []
        for strict in (False, True):
            table, dfs = table_and_dfs(
                lambda: relevance._witness_search(f, x, 1, 2, DEFAULT_ENUM_CAP)(
                    2, Fraction(1, 2), strict
                )
            )
            assert table == dfs
            hits.append(table)
        # Counts over the 2^(2 - |S|) points: 2 of 4 at {}, 2 of 2 at {1}.
        assert hits == [((), 2), ((1,), 2)]
        assert solve_ip2(f, x, 1, Fraction(1, 2)) and solve_ip1(f, x, 1)
        assert not solve_ip1(Formula(var(2), 2), x, 1)

    def test_multi_block_table_matches_dfs(self):
        # d = 17 builds its table in two blocks of leaf positions; k = 15
        # and 17 split ranks into unequal halves, k = 16 into equal ones.
        rng = random.Random(90)
        for d in (15, 16, 17):
            f = random_formula(rng, d, 30)
            x = random_assignment(rng, d)
            for delta in (Fraction(7, 8), Fraction(2, 3)):
                table, dfs = table_and_dfs(
                    lambda: decide_relevant_input(f, x, 2, delta)
                )
                assert table == dfs

    def test_first_set_in_a_later_block(self):
        # Size 1 at k = 4: {3} and {4} have high part 00 and are gathered
        # first, {1} and {2} (high parts 10 and 01) next.  {2} and {3} hit;
        # the lexicographically first, {2}, is in the later block.
        f = Formula(and_(var(2), var(3)), 4)
        x = Assignment.from_string("1111")
        search = relevance._witness_search(f, x, 1, 4, DEFAULT_ENUM_CAP)
        assert search(4, Fraction(1, 2), False) == ((2,), 4)  # 4 of 8
        assert search(4, Fraction(1, 2), True) == ((2, 3), 4)  # 4 of 4
        assert naive_witness(f, x, 1, 4, 4, Fraction(1, 2), False)[0] == (2,)

    def test_odd_widths(self):
        # Odd k: the high part has one bit more than the low part.
        rng = random.Random(91)
        for d in (5, 7, 9):
            for _ in range(6):
                f = random_formula(rng, d, 14)
                x = random_assignment(rng, d)
                target = rng.randint(0, 1)
                search = relevance._witness_search(f, x, target, d, DEFAULT_ENUM_CAP)
                for threshold in DELTAS:
                    for strict in (False, True):
                        args = (d, threshold, strict)
                        want = naive_witness(f, x, target, d, *args)
                        assert search(*args) == want, (str(f), str(x), args)

    def test_widths_zero_and_one(self):
        f = parse("(x1 & x2) | !x3")
        x = Assignment.from_string("110")
        for width in (0, 1):
            for target in (0, 1):
                search = relevance._witness_search(f, x, target, width, DEFAULT_ENUM_CAP)
                for threshold in DELTAS:
                    for strict in (False, True):
                        args = (width, threshold, strict)
                        want = naive_witness(f, x, target, width, *args)
                        assert search(*args) == want, (width, target, args)

    def test_full_depth_parity(self):
        # Every proper subset leaves parity at 1/2: only all 20 variables
        # reach delta = 1, so every size is scanned.
        d = 20
        f = Formula(xor_all(var(i) for i in range(1, d + 1)), d)
        x = Assignment(0b1011, d)
        k, witness = solve_min_relevant_input(f, x, Fraction(1))
        assert (k, witness) == (d, SubsetMask.full(d))
        report = decide_relevant_input(f, x, d, Fraction(1))
        assert report.witness == SubsetMask.full(d)
        assert report.probability == 1

    def test_path_rule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("subset DFS ran")

        monkeypatch.setattr(relevance, "_first_witness", refuse)
        f = Formula(parse("(x1 & x2) | x20").root, 20)
        x = Assignment.from_string("0" * 19 + "1")
        report = decide_relevant_input(f, x, 1, Fraction(1))
        assert report.witness.indices() == (20,)
        with pytest.raises(AssertionError, match="subset DFS ran"):
            decide_relevant_input(f, x, 1, Fraction(1), enum_cap=19)


def _names_used(code) -> set[str]:
    """Global and attribute names a code object reads, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_used(const)
    return names


def test_exact_core_counts_without_fractions():
    # The decomposer and both subset searches work on integer counts;
    # Fraction stays at the public surface.
    for fn in (
        counting.ConditionalEvaluator._prob,
        counting.ConditionalEvaluator._split,
        counting._combine,
        relevance._first_witness,
        relevance._table_witness,
        relevance._witness_search,
    ):
        assert "Fraction" not in _names_used(fn.__code__), fn.__qualname__
