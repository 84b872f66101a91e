"""Relevance decision problems, exact and sampled.

Exact operations count: P(f(y) = target | y_S = x_S) is c(S) / 2^(d-|S|),
c(S) being the number of points y with y_S = x_S and f(y) = target, and a
set of size s meets a rational threshold exactly when c(S) reaches the
integer `_count_threshold` of s.  Subset searches return the first witness
in size-then-lexicographic order, and both of them accept by that one test.
A formula of d <= min(TABLE_CAP, enum_cap) variables is searched in its
coalition table (counting.coalition_counts), size by size, and the first
size with a hit returns its largest rank.  Wider formulas run a subset DFS.
As c(S) <= c(P) for P inside S, it skips a shorter prefix by the same test,
so pruning never changes the returned witness.

Sampled operations draw n = ceil(2 ln 3 / gamma^2) assignments per run (exact,
at most DEFAULT_SAMPLE_CAP, else SampleCapExceeded before any draw) from a
64-bit-seeded Mersenne Twister (``random.Random``).  Each sample is the
value ``getrandbits(width)`` would return, one bit per free variable, none
when nothing is free; its lowest bit feeds the smallest free index.  A block
of draws is taken with one ``getrandbits`` call that yields the same 32-bit
outputs in the same order, so the transcript is unchanged.  The draws are
bit-sliced (transposed so that bit s of a variable's lane is its value in
draw s) and the formula is evaluated once over the lanes of a pass.  Sub-seeds
for amplification rounds and per-candidate runs are derived by SHA-256 over
"seed:tag" strings, so every transcript replays byte-identically from the run
seed.  Each public sampled call checks delta and gamma and sizes its runs once
(`_sample_size`), evaluates f(x) once, and draws every run, round or estimate
through one primitive (`_successes`).  It takes many runs at once, each with
its own generator: the rounds of an amplified check, the estimates of a greedy
step, or a chunk of decide_gapped's candidates share each pass.  The two
sampled searches count their draws in candidate order and refuse
(DrawBudgetExceeded) where the next candidate would pass DRAW_BUDGET.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Iterable, Optional

import numpy as np

from ._intmath import ln3_bounds
from .counting import (
    TABLE_CAP,
    ConditionalEvaluator,
    _probability,
    coalition_counts,
    conditional_agreement_probability,
    rank_sizes,
)
from .formula import (
    Assignment,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    Formula,
    SubsetMask,
    evaluate,
    evaluate_lanes,
    parse,
)

__all__ = [
    "Verdict",
    "RelevanceQuery",
    "RelevanceReport",
    "SampleOutcome",
    "AmplifiedOutcome",
    "SearchCapExceeded",
    "SampleCapExceeded",
    "DrawBudgetExceeded",
    "DEFAULT_SEARCH_CAP",
    "DEFAULT_SAMPLE_CAP",
    "DRAW_BUDGET",
    "sample_count",
    "is_delta_relevant",
    "decide_relevant_input",
    "solve_min_relevant_input",
    "sample_relevance",
    "amplified_sample_relevance",
    "decide_gapped",
    "greedy_min_relevant",
    "solve_emajsat",
    "solve_ip1",
    "solve_ip2",
    "solve_ip3",
]

DEFAULT_SEARCH_CAP = 20
DEFAULT_SAMPLE_CAP = 1 << 20  # draws per run; gamma = 1/690 (n = 1046099) fits
DRAW_BUDGET = 16 * DEFAULT_SAMPLE_CAP  # draws per sampled search, all runs
_DRAW_BLOCK = 1 << 12  # draws per bit-parallel pass: bounds the lanes' memory


class SearchCapExceeded(EnumerationCapExceeded):
    """Subset search refused: the variable count exceeds the cap."""


class SampleCapExceeded(EnumerationCapExceeded):
    """Sampling refused: one run would need more draws than the cap."""

    def __init__(self, gamma: Fraction):
        self.gamma, self.cap = gamma, DEFAULT_SAMPLE_CAP
        RuntimeError.__init__(
            self, f"gamma = {gamma} needs more than {self.cap} draws per sampling run"
        )


class DrawBudgetExceeded(EnumerationCapExceeded):
    """A sampled search refused: its runs would draw more than DRAW_BUDGET
    samples in all."""

    def __init__(self, what: str):
        self.cap = DRAW_BUDGET
        RuntimeError.__init__(
            self,
            f"{what} would draw more than the draw budget of {DRAW_BUDGET} samples",
        )


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RelevanceQuery:
    """A parsed problem instance for the relevance operations."""

    f: Formula
    x: Assignment
    k: int
    delta: Fraction
    gamma: Fraction = Fraction(0)
    s: Optional[SubsetMask] = None
    m: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.x.length != self.f.arity:
            raise ValueError("assignment length does not match formula arity")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if not 0 <= self.gamma < self.delta:
            raise ValueError("gamma must lie in [0, delta)")
        if not 0 <= self.k <= self.f.arity:
            raise ValueError("k must lie in 0..d")
        if self.m is not None and not self.k <= self.m <= self.f.arity:
            raise ValueError("m must lie in k..d")
        if self.s is not None and self.s.length != self.f.arity:
            raise ValueError("subset mask length does not match formula arity")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelevanceQuery":
        """The query a JSON object describes; x defaults to all zeros and k
        to min(1, d)."""
        f = parse(data["formula"])
        if data.get("x") is None:
            x = Assignment.zeros(f.arity)
        else:
            x = Assignment.from_string(data["x"])
        if x.length > f.arity:
            f = Formula(f.root, x.length)
        s = None
        if data.get("set") is not None:
            s = SubsetMask.from_indices(
                (int(i) for i in data["set"]), f.arity
            )
        return cls(
            f=f,
            x=x,
            k=int(data["k"]) if data.get("k") is not None else min(1, f.arity),
            delta=_rational(data["delta"]),
            gamma=_rational(data.get("gamma", 0)),
            s=s,
            m=int(data["m"]) if data.get("m") is not None else None,
            seed=int(data["seed"]) if data.get("seed") is not None else None,
        )

    def to_json_dict(self) -> dict:
        out = {
            "formula": str(self.f),
            "x": str(self.x),
            "k": self.k,
            "delta": str(self.delta),
            "gamma": str(self.gamma),
        }
        if self.s is not None:
            out["set"] = list(self.s.indices())
        if self.m is not None:
            out["m"] = self.m
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _rational(value) -> Fraction:
    """Exact rational from "p/q", a finite decimal string, or an int.

    Anything else, a zero denominator included, is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # JSON numbers arrive as floats; convert through the shortest decimal
        # representation so "0.95" means exactly 19/20.
        return Fraction(str(value))
    try:
        return Fraction(str(value).strip())
    except ZeroDivisionError as err:
        raise ValueError(f"zero denominator: {value!r}") from err


@dataclass(frozen=True)
class RelevanceReport:
    """Outcome of a decision operation.

    Exact runs carry the witness's exact probability; sampled runs carry the
    number of samples per run instead.  promise_dependent marks verdicts
    that are only contracted under the gap promise.
    """

    verdict: Verdict
    witness: Optional[SubsetMask]
    method: str
    probability: Optional[Fraction] = None
    samples: Optional[int] = None
    promise_dependent: bool = False

    def __post_init__(self):
        if self.verdict is Verdict.YES and self.witness is None:
            raise ValueError("a Yes verdict requires a witness")


# --------------------------------------------------------------------------
# Exact operations.


def is_delta_relevant(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    delta: Fraction,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[bool, Fraction]:
    """Exact test of P(f(y) = f(x) | y_S = x_S) >= delta."""
    prob = conditional_agreement_probability(f, x, s, enum_cap)
    return prob >= Fraction(delta), prob


def _first_witness(
    universe: tuple[int, ...],
    max_size: int,
    count_of: Callable[[int], int],
    d: int,
    threshold: Fraction,
    strict: bool,
) -> Optional[tuple[tuple[int, ...], int]]:
    """First subset (size-major, then lexicographic) whose count meets the
    threshold, as (S, c(S)); count_of takes S as a mask (x_i = bit i-1).

    At size s, c >= _count_threshold(threshold, d - s, strict) accepts a set
    and keeps a shorter prefix: no extension counts more than its prefix.
    Per size, a depth-first loop over a stack of (prefix, its mask, first
    index its next pick may take) visits prefixes in lexicographic order.
    """
    memo: dict[int, int] = {}  # each prefix is probed once
    for size in range(0, max_size + 1):
        need = _count_threshold(threshold, d - size, strict)
        stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
        while stack:
            prefix, mask, start = stack.pop()
            c = memo.get(mask)
            if c is None:
                c = memo[mask] = count_of(mask)
            if c < need:
                continue
            remaining = size - len(prefix)
            if not remaining:
                return prefix, c
            stack += [
                (prefix + (universe[j],), mask | 1 << (universe[j] - 1), j + 1)
                for j in reversed(range(start, len(universe) - remaining + 1))
            ]
    return None


def _count_threshold(threshold: Fraction, free: int, strict: bool) -> int:
    """Least count c with c / 2^free meeting the threshold, clipped to
    0..2^free + 1 (2^free + 1 accepts nothing)."""
    scaled = threshold.numerator << free
    least = scaled // threshold.denominator + 1 if strict else -(
        -scaled // threshold.denominator
    )
    return min(max(least, 0), (1 << free) + 1)


def _table_witness(
    counts: np.ndarray,
    d: int,
    max_size: int,
    threshold: Fraction,
    strict: bool,
) -> Optional[tuple[tuple[int, ...], int]]:
    """_first_witness read off a coalition table over the first k variables
    (2^k entries, x1 the top bit) of a d-variable formula.

    Scans size by size and stops at the first size with a hit, whose largest
    hit rank is its lexicographically first set.  A rank splits into its
    ceil(k/2) high bits and floor(k/2) low bits, so the ranks of size s are
    the sums of a high part of popcount a and a low part of popcount s - a:
    one gathered block of the table per split a, and no rank of a larger
    size is read.
    """
    k = len(counts).bit_length() - 1
    high, low = k - k // 2, k // 2
    high_sizes, low_sizes = rank_sizes(high), rank_sizes(low)
    # Per popcount, a column of high parts (shifted into place) and a row of
    # low parts: a broadcast sum of one of each is a block of ranks.
    highs = [np.flatnonzero(high_sizes == a)[:, None] << low for a in range(high + 1)]
    lows = [np.flatnonzero(low_sizes == b) for b in range(low + 1)]
    for size in range(min(max_size, k) + 1):
        need = _count_threshold(threshold, d - size, strict)
        best = -1
        for a in range(max(0, size - low), min(high, size) + 1):
            ranks = highs[a] + lows[size - a]
            # Every rank is in range: "clip" only skips take's checked copy.
            hit = counts.take(ranks, mode="clip") >= need
            if hit.any():
                best = max(best, int(ranks[hit].max()))
        if best >= 0:
            witness = tuple(i for i in range(1, k + 1) if (best >> (k - i)) & 1)
            return witness, int(counts[best])
    return None


def _witness_search(
    f: Formula, x: Assignment, target: int, width: int, enum_cap: int
) -> Callable[[int, Fraction, bool], Optional[tuple[tuple[int, ...], int]]]:
    """first(max_size, threshold, strict): the first subset S of x1..x_width
    with P(f(y) = target | y_S = x_S) meeting the threshold, as (S, c(S)),
    c(S) = #{y : y_S = x_S, f(y) = target}.

    Formulas of d <= min(TABLE_CAP, enum_cap) variables build one coalition
    table and slice out the subsets of x1..x_width (ranks that are multiples
    of 2^(d-width)); wider ones run the pruned subset DFS.
    """
    d = f.arity
    if d <= min(TABLE_CAP, enum_cap):
        # The scan gathers from the slice: copy it when it is strided.
        table = coalition_counts(f, x, target)
        counts = np.ascontiguousarray(table[:: 1 << (d - width)])
        return lambda max_size, threshold, strict: _table_witness(
            counts, d, max_size, threshold, strict
        )
    ev = ConditionalEvaluator(f, enum_cap)

    def count_of(mask: int) -> int:
        ones = ev.count(x.bits, mask)
        return ones if target == 1 else (1 << (d - mask.bit_count())) - ones

    universe = tuple(range(1, width + 1))
    return lambda max_size, threshold, strict: _first_witness(
        universe, max_size, count_of, d, threshold, strict
    )


def _check_search_cap(d: int, search_cap: int, k: Optional[int] = None):
    """Refuse a k outside 1..d, then a d above the search cap."""
    if k is not None and not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    if d > search_cap:
        raise SearchCapExceeded(d, search_cap, "subset search")


def decide_relevant_input(
    f: Formula,
    x: Assignment,
    k: int,
    delta: Fraction,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> RelevanceReport:
    """Is there a delta-relevant set of size <= k?  Exact subset search.

    Subsets are tried in size-then-lexicographic order and the first witness
    is returned, so reports are reproducible.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    _check_search_cap(f.arity, search_cap, k)
    search = _witness_search(f, x, evaluate(f, x), f.arity, enum_cap)
    hit = search(k, delta, False)
    if hit is None:
        return RelevanceReport(Verdict.NO, None, "exact-search")
    witness, count = hit
    return RelevanceReport(
        Verdict.YES,
        SubsetMask.from_indices(witness, f.arity),
        "exact-search",
        probability=_probability(count, f.arity - len(witness)),
    )


def solve_min_relevant_input(
    f: Formula,
    x: Assignment,
    delta: Fraction,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[int, SubsetMask]:
    """Smallest k admitting a delta-relevant set; k = 0 when the empty set
    already meets delta."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    _check_search_cap(f.arity, search_cap)
    search = _witness_search(f, x, evaluate(f, x), f.arity, enum_cap)
    hit = search(f.arity, delta, False)
    assert hit is not None  # the full set is always 1-relevant
    witness, _ = hit
    return len(witness), SubsetMask.from_indices(witness, f.arity)


# --------------------------------------------------------------------------
# Sampled operations.


def sample_count(gamma: Fraction) -> int:
    """n = ceil(2 ln 3 / gamma^2), exactly: 2 ln 3 / gamma^2 is irrational, so
    narrowing the bounds on ln 3 ends with both giving the same ceiling."""
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive for sampling")
    num, den = 2 * gamma.denominator**2, gamma.numerator**2
    precision = max(64, num.bit_length() - den.bit_length() + 64)
    while True:
        lo, hi = (
            -(-num * b.numerator // (den * b.denominator))
            for b in ln3_bounds(precision)
        )
        if lo == hi:
            return lo
        precision *= 2


def _sample_size(
    delta: Fraction, gamma: Fraction, rounds: int = 1
) -> tuple[int, int]:
    """(n, need) for the runs of one sampled call at (delta, gamma), after
    checking both: n = sample_count(gamma), refused above DEFAULT_SAMPLE_CAP,
    and a run of n draws answers Yes at need = ceil(n (delta - gamma/2))
    successes or more.  As ln 3 > 1, n > 2 / gamma^2 refuses a tiny gamma
    before ln 3 is narrowed for it.  The number of rounds per check is checked
    last."""
    if gamma <= 0:
        raise ValueError("ungapped sampling is unsound: gamma must be positive")
    if not 0 < delta <= 1 or gamma >= delta:
        raise ValueError("need 0 < delta <= 1 and 0 < gamma < delta")
    a, b = gamma.numerator, gamma.denominator
    if DEFAULT_SAMPLE_CAP * a * a <= 2 * b * b:
        raise SampleCapExceeded(gamma)
    n = sample_count(gamma)
    if n > DEFAULT_SAMPLE_CAP:
        raise SampleCapExceeded(gamma)
    if rounds < 1 or rounds % 2 == 0:
        raise ValueError(f"rounds must be an odd positive integer, got {rounds}")
    dn, dd = delta.numerator, delta.denominator
    return n, -(-n * (2 * dn * b - a * dd) // (2 * dd * b))


def _subseed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SampleOutcome:
    verdict: Verdict
    estimate: float
    successes: int
    samples: int


@dataclass(frozen=True)
class AmplifiedOutcome:
    verdict: Verdict
    yes_rounds: int
    rounds: int
    samples_per_round: int


def _successes(
    f: Formula,
    x: Assignment,
    jobs: list[tuple[tuple[int, ...], random.Random]],
    n: int,
    target: int,
) -> list[int]:
    """For each job (free, rng), how many of its n draws make f equal
    target: bit j of a draw sets free[j], x sets the other variables.  Every
    sampled call draws through here.

    All jobs free the same number w of variables.  A pass takes a block of m
    draws from each job of a group (at most _DRAW_BLOCK draws in all): one
    rng.getrandbits(32 W m) call, W = ceil(w / 32), takes the 32-bit outputs
    that m getrandbits(w) calls would, lowest word first, and a draw keeps
    the top bits of its last word.  The blocks lie side by side in one lane
    per variable (bit s of job g's segment is the variable in its draw s;
    segments are padded to a byte edge), a variable x fixes in a job is
    constant over that job's segment, and the formula is evaluated once per
    pass.  Each job's successes are counted off its own segment.
    """
    d = f.arity
    width = len(jobs[0][0]) if jobs else 0
    words = -(-width // 32)
    # Entry i is x_i (entry 0 is unused), so rows are variable indices.
    x_bits = np.unpackbits(
        np.frombuffer((x.bits << 1).to_bytes(d // 8 + 1, "little"), np.uint8),
        count=d + 1,
        bitorder="little",
    )
    m = min(n, _DRAW_BLOCK)
    per_pass = max(1, _DRAW_BLOCK // m)
    counts: list[int] = []
    for first in range(0, len(jobs), per_pass):
        frees, rngs = zip(*jobs[first : first + per_pass])
        g = len(frees)
        rows = np.array(frees, np.intp).reshape(g, width)
        successes = [0] * g
        for start in range(0, n, m):
            size = min(m, n - start)
            span = -(-size // 8)  # bytes per segment
            stride = g * span  # bytes per lane
            # The low `size` bits of each segment set.
            full = ((1 << size) - 1) * ((1 << 8 * stride) - 1) // ((1 << 8 * span) - 1)
            segments = np.frombuffer(full.to_bytes(stride, "little"), np.uint8)
            # (variable, job, byte): x's value, then each job's draws.
            lanes = np.multiply.outer(x_bits, segments).reshape(d + 1, g, span)
            # With nothing free nothing is drawn: getrandbits(0) takes no output.
            block = 4 * words * size  # bytes of one job's draws
            raw = bytearray()
            for rng in rngs:
                raw += rng.getrandbits(8 * block).to_bytes(block, "little")
            draws = np.frombuffer(raw, "<u4").reshape(g, size, words)
            draws[..., words - 1 :] >>= 32 * words - width  # the last word, if any
            bits = np.unpackbits(draws.view(np.uint8), axis=2, bitorder="little")
            lanes[rows, np.arange(g)[:, None]] = np.packbits(
                np.ascontiguousarray(bits[..., :width].transpose(0, 2, 1)),
                axis=2,
                bitorder="little",
            )
            packed = lanes.tobytes()

            def lane(i: int) -> int:
                return int.from_bytes(packed[i * stride : (i + 1) * stride], "little")

            out = evaluate_lanes(f.root, lane, full).to_bytes(stride, "little")
            for j in range(g):
                hits = int.from_bytes(out[j * span : (j + 1) * span], "little")
                successes[j] += hits.bit_count() if target else size - hits.bit_count()
        counts += successes
    return counts


def _free(d: int, s: SubsetMask | Iterable[int]) -> tuple[int, ...]:
    """The variables of x1..xd outside S, ascending; refuses an index of S
    outside 1..d."""
    fixed = SubsetMask.from_indices(s, d).bits
    return tuple(i for i in range(1, d + 1) if not fixed >> (i - 1) & 1)


def _yes_rounds(
    f: Formula,
    x: Assignment,
    checks: list[tuple[tuple[int, ...], int]],
    n: int,
    target: int,
    need: int,
    rounds: int,
) -> list[int]:
    """For each amplified check (free, seed), how many of its rounds answer
    Yes (at least `need` successes); round r draws at the sub-seed
    "round-r".  All checks share one _successes call."""
    jobs = [
        (free, random.Random(_subseed(seed, f"round-{r}")))
        for free, seed in checks
        for r in range(rounds)
    ]
    yes = np.array(_successes(f, x, jobs, n, target)) >= need
    return yes.reshape(-1, rounds).sum(axis=1).tolist()


def sample_relevance(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    delta: Fraction,
    gamma: Fraction,
    seed: int,
) -> SampleOutcome:
    """Monte-Carlo relevance check with two-sided error at most 1/3.

    Draws n = ceil(2 ln 3 / gamma^2) uniform assignments to the complement of
    S, estimates the agreement frequency xi, and answers No exactly when
    xi < delta - gamma/2 (ties answer Yes).  The threshold comparison is done
    in exact integer arithmetic on the success count.
    """
    delta, gamma = Fraction(delta), Fraction(gamma)
    n, need = _sample_size(delta, gamma)
    job = (_free(f.arity, s), random.Random(seed))
    (successes,) = _successes(f, x, [job], n, evaluate(f, x))
    accept = successes >= need
    return SampleOutcome(
        verdict=Verdict.YES if accept else Verdict.NO,
        estimate=successes / n,
        successes=successes,
        samples=n,
    )


def amplified_sample_relevance(
    f: Formula,
    x: Assignment,
    s: SubsetMask | Iterable[int],
    delta: Fraction,
    gamma: Fraction,
    seed: int,
    rounds: int,
) -> AmplifiedOutcome:
    """Majority vote over independent sampling rounds: round r is
    sample_relevance's run at the sub-seed "round-r"."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    n, need = _sample_size(delta, gamma, rounds)
    (yes,) = _yes_rounds(
        f, x, [(_free(f.arity, s), seed)], n, evaluate(f, x), need, rounds
    )
    verdict = Verdict.YES if 2 * yes > rounds else Verdict.NO
    return AmplifiedOutcome(verdict, yes, rounds, n)


def decide_gapped(
    f: Formula,
    x: Assignment,
    k: int,
    delta: Fraction,
    gamma: Fraction,
    seed: int,
    rounds: int = 15,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> RelevanceReport:
    """Sampled subset search for the gapped decision problem.

    Answers Yes with the first accepted candidate in size-lexicographic
    order.  Under the promise (some set of size <= k is delta-relevant, or
    none is even (delta-gamma)-relevant) each candidate check errs with
    probability at most 3^-Omega(rounds); outside the promise the verdict is
    not contracted, which the report flags.

    Candidate S is amplified_sample_relevance's check at the sub-seed
    "set-<S>".  Candidates of one size are checked in chunks of about one
    bit-parallel pass; the candidates after the first accepted one in a chunk
    are drawn for nothing, but never change the answer.  The search refuses
    (DrawBudgetExceeded) at the first candidate whose draws would pass
    DRAW_BUDGET, whatever the chunk size.
    """
    delta, gamma = Fraction(delta), Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive for the gapped problem")
    _check_search_cap(f.arity, search_cap, k)
    n, need = _sample_size(delta, gamma, rounds)
    target = evaluate(f, x)
    each, drawn = rounds * n, 0
    chunk = max(1, _DRAW_BLOCK // each)
    universe = tuple(range(1, f.arity + 1))
    for size in range(k + 1):
        sets = combinations(universe, size)
        while pulled := list(islice(sets, chunk)):
            batch = pulled[: (DRAW_BUDGET - drawn) // each]  # those the budget pays for
            drawn += len(batch) * each
            checks = []
            for c in batch:
                # c is ascending and inside 1..d: its free tuple is the runs
                # of the universe between its members.
                free, prev = (), 0
                for i in c:
                    free += universe[prev : i - 1]
                    prev = i
                free += universe[prev:]
                checks.append((free, _subseed(seed, "set-" + ",".join(map(str, c)))))
            yes = _yes_rounds(f, x, checks, n, target, need, rounds)
            for subset, votes in zip(batch, yes):
                if 2 * votes > rounds:
                    return RelevanceReport(
                        Verdict.YES,
                        SubsetMask.from_indices(subset, f.arity),
                        "sampled-search",
                        samples=n,
                        promise_dependent=True,
                    )
            if len(batch) < len(pulled):
                raise DrawBudgetExceeded("decide-gapped")
    return RelevanceReport(
        Verdict.NO, None, "sampled-search", samples=n, promise_dependent=True
    )


def greedy_min_relevant(
    f: Formula,
    x: Assignment,
    delta: Fraction,
    gamma: Fraction,
    seed: int,
    rounds: int = 15,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[int, SubsetMask]:
    """Greedy upper bound for the minimisation problem.  No factor guarantee.

    Grows S by the variable with the best sampled agreement estimate and
    stops once the amplified check accepts; whenever the exact check is
    tractable the candidate must also verify as (delta-gamma)-relevant
    exactly, so the returned set always does.  A step's estimates share one
    _successes call.  Refuses (DrawBudgetExceeded) before a check or a step
    whose draws would pass DRAW_BUDGET.
    """
    delta, gamma = Fraction(delta), Fraction(gamma)
    d = f.arity
    n, need = _sample_size(delta, gamma, rounds)
    target = evaluate(f, x)
    current: tuple[int, ...] = ()
    drawn = 0

    def exact_ok(subset: tuple[int, ...]) -> bool:
        if d - len(subset) > enum_cap:
            return True  # not verifiable at this scale; trust the sampler
        ok, _ = is_delta_relevant(f, x, subset, delta - gamma, enum_cap)
        return ok

    while True:
        drawn += rounds * n
        if drawn > DRAW_BUDGET:
            raise DrawBudgetExceeded("greedy")
        rest = _free(d, current)
        tag = "accept-" + ",".join(map(str, current))
        (yes,) = _yes_rounds(
            f, x, [(rest, _subseed(seed, tag))], n, target, need, rounds
        )
        if 2 * yes > rounds and exact_ok(current):
            return len(current), SubsetMask.from_indices(current, d)
        # The full set passes both checks (its runs draw nothing and
        # delta <= 1), so some variable is left to add.
        drawn += len(rest) * n
        if drawn > DRAW_BUDGET:
            raise DrawBudgetExceeded("greedy")
        jobs = [
            (
                rest[:j] + rest[j + 1 :],
                random.Random(_subseed(seed, f"estimate-{len(current)}-{v}")),
            )
            for j, v in enumerate(rest)
        ]
        estimates = _successes(f, x, jobs, n, target)
        # index() finds the first of equal estimates: the smallest v.
        best = rest[estimates.index(max(estimates))]
        current = tuple(sorted(current + (best,)))


# --------------------------------------------------------------------------
# Brute-force oracles for the reduction targets.


def solve_emajsat(
    f: Formula,
    k: int,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> bool:
    """Does some assignment to the first k variables make a strict majority
    of completions satisfying?"""
    _check_search_cap(f.arity, search_cap, k)
    ev = ConditionalEvaluator(f, enum_cap)
    completions = 1 << (f.arity - k)
    for u_bits in range(1 << k):
        if 2 * ev.count(u_bits, (1 << k) - 1) > completions:
            return True
    return False


def solve_ip1(
    f: Formula,
    x: Assignment,
    k: int,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> bool:
    """Is there S within the first k variables with P(f | y_S = x_S) > 1/2?"""
    _check_search_cap(f.arity, search_cap, k)
    search = _witness_search(f, x, 1, k, enum_cap)
    return search(k, Fraction(1, 2), True) is not None


def solve_ip2(
    f: Formula,
    x: Assignment,
    k: int,
    delta: Fraction,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> bool:
    """Is there S within the first k variables with P(f | y_S = x_S) >= delta?"""
    delta = Fraction(delta)
    _check_search_cap(f.arity, search_cap, k)
    search = _witness_search(f, x, 1, k, enum_cap)
    return search(k, delta, False) is not None


def solve_ip3(
    f: Formula,
    x: Assignment,
    k: int,
    m: int,
    delta: Fraction,
    gamma: Fraction,
    search_cap: int = DEFAULT_SEARCH_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Verdict:
    """Promise problem with probability gap gamma and size gap k <= m.

    Yes when a delta-relevant set of size <= k exists; No when no set of size
    <= m is even (delta-gamma)-relevant; Indeterminate in the gap between.
    """
    delta, gamma = Fraction(delta), Fraction(gamma)
    if not 1 <= k <= m <= f.arity:
        raise ValueError("need 1 <= k <= m <= d")
    if not 0 < delta <= 1 or not 0 <= gamma < delta:
        raise ValueError("need 0 < delta <= 1 and 0 <= gamma < delta")
    _check_search_cap(f.arity, search_cap)
    search = _witness_search(f, x, evaluate(f, x), f.arity, enum_cap)
    if search(k, delta, False) is not None:
        return Verdict.YES
    if search(m, delta - gamma, False) is None:
        return Verdict.NO
    return Verdict.INDETERMINATE
