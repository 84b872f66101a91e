"""Executable reductions between the relevance decision problems.

Each transformer consumes a tagged ProblemInstance and emits the next
instance in the chain, recording how the new variable universe is laid out
in named blocks.  verify_reduction replays both sides through the exact
brute-force oracles and checks that Yes/No is preserved; it never samples.

Chain steps:

* majority-of-completions search -> first-k fixing (variable duplication),
* first-k fixing at threshold 1/2 -> threshold delta (raising gadget on OR),
* first-k fixing -> free set choice (clause guards plus triple-XOR copies),
* satisfiability -> doubly gapped relevance (AND tail plus column copies).

The inapproximability parameter arithmetic is exact where possible; real
powers are evaluated with directed rounding so a reported `true` for the
strict inequality check is always sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._intmath import ceil_log2, floor_log2, pow_bounds
from .formula import (
    Assignment,
    EnumerationCapExceeded,
    Formula,
    Node,
    _indices,
    _lane_blocks,
    and_,
    compose_variables,
    const,
    evaluate,
    or_,
    parse,
    truth_table,  # unused here; perfbench/tracing.py wraps reductions.truth_table
    var,
    xor,
)
from .gadgets import raise_probability_gadget
from .relevance import (
    Verdict,
    _rational,
    decide_relevant_input,
    solve_emajsat,
    solve_ip1,
    solve_ip2,
    solve_ip3,
)

__all__ = [
    "ProblemInstance",
    "ReductionCheck",
    "InapproxParameters",
    "reduce_emajsat_to_ip1",
    "reduce_ip1_to_ip2",
    "reduce_ip2_to_relevant_input",
    "reduce_sat_to_ip3",
    "inapprox_parameters",
    "verify_reduction",
]

KINDS = ("sat", "emajsat", "ip1", "ip2", "ip3", "relevant_input")

_NEEDS_X = {"ip1", "ip2", "ip3", "relevant_input"}
_NEEDS_K = {"emajsat", "ip1", "ip2", "ip3", "relevant_input"}


@dataclass(frozen=True)
class ProblemInstance:
    """A tagged instance of one of the chain's problems.

    layout names index blocks of the variable universe as inclusive 1-based
    ranges; reduced instances carry the block structure of their
    construction so downstream tools can address the copies.
    """

    kind: str
    f: Formula
    x: Optional[Assignment] = None
    k: Optional[int] = None
    m: Optional[int] = None
    delta: Optional[Fraction] = None
    gamma: Optional[Fraction] = None
    layout: Optional[dict[str, tuple[int, int]]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind in _NEEDS_X:
            if self.x is None:
                raise ValueError(f"{self.kind} instances need an assignment")
            if self.x.length != self.f.arity:
                raise ValueError("assignment length does not match arity")
        if self.kind in _NEEDS_K:
            if self.k is None or not 1 <= self.k <= self.f.arity:
                raise ValueError(f"{self.kind} instances need 1 <= k <= d")
        if self.kind == "ip3":
            if self.m is None or not self.k <= self.m <= self.f.arity:
                raise ValueError("ip3 instances need k <= m <= d")
            if self.delta is None or self.gamma is None:
                raise ValueError("ip3 instances need delta and gamma")
        if self.kind == "ip2" and self.delta is None:
            raise ValueError("ip2 instances need delta")
        if self.layout is not None:
            covered = []
            for name, (lo, hi) in self.layout.items():
                if lo > hi:
                    raise ValueError(f"layout block {name} is empty")
                covered.extend(range(lo, hi + 1))
            if sorted(covered) != list(range(1, self.f.arity + 1)):
                raise ValueError("layout blocks must partition the variables")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "formula": str(self.f), "d": self.f.arity}
        if self.x is not None:
            out["x"] = str(self.x)
        if self.k is not None:
            out["k"] = self.k
        if self.m is not None:
            out["m"] = self.m
        if self.delta is not None:
            out["delta"] = str(self.delta)
        if self.gamma is not None:
            out["gamma"] = str(self.gamma)
        if self.layout is not None:
            out["layout"] = {name: list(span) for name, span in self.layout.items()}
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemInstance":
        f = parse(data["formula"])
        if data.get("d") is not None and int(data["d"]) > f.arity:
            f = Formula(f.root, int(data["d"]))
        x = Assignment.from_string(data["x"]) if data.get("x") is not None else None
        if x is not None and x.length > f.arity:
            f = Formula(f.root, x.length)
        layout = None
        if data.get("layout") is not None:
            layout = {
                name: (int(lo), int(hi))
                for name, (lo, hi) in data["layout"].items()
            }
        return cls(
            kind=data["kind"],
            f=f,
            x=x,
            k=int(data["k"]) if data.get("k") is not None else None,
            m=int(data["m"]) if data.get("m") is not None else None,
            delta=_rational(data["delta"]) if data.get("delta") is not None else None,
            gamma=_rational(data["gamma"]) if data.get("gamma") is not None else None,
            layout=layout,
        )


def _require(inst: ProblemInstance, kind: str):
    if inst.kind != kind:
        raise ValueError(f"expected a {kind} instance, got {inst.kind}")


# --------------------------------------------------------------------------
# E-Maj-Sat -> IP1: duplicate the first k variables so that fixing an
# original variable encodes assigning 0 and fixing its copy encodes 1.


def reduce_emajsat_to_ip1(inst: ProblemInstance) -> ProblemInstance:
    _require(inst, "emajsat")
    d, k = inst.f.arity, inst.k
    # u: 1..k, v: k+1..2k, r: 2k+1..d+k, t: d+k+1.
    remap = {i: var(i) if i <= k else var(k + i) for i in range(1, d + 1)}
    phi = compose_variables(inst.f.root, remap)
    mismatch = or_(*(xor(var(i), var(k + i)) for i in range(1, k + 1)))
    t_index = d + k + 1
    root = xor(phi, and_(mismatch, var(t_index)))
    x_bits = ((1 << k) - 1) << k  # zeros, then k ones, then zeros
    x_prime = Assignment(x_bits, d + k + 1)
    layout = {"u": (1, k), "v": (k + 1, 2 * k)}
    if d > k:
        layout["r"] = (2 * k + 1, d + k)
    layout["t"] = (t_index, t_index)
    return ProblemInstance(
        kind="ip1",
        f=Formula(root, d + k + 1),
        x=x_prime,
        k=2 * k,
        layout=layout,
    )


# --------------------------------------------------------------------------
# IP1 -> IP2: AND with a fresh fair bit halves every conditional probability,
# then the raising gadget moves the > 1/4 threshold to >= delta.


def reduce_ip1_to_ip2(inst: ProblemInstance, delta: Fraction) -> ProblemInstance:
    _require(inst, "ip1")
    delta = Fraction(delta)
    if not Fraction(1, 2) <= delta < 1:
        raise ValueError("delta must lie in [1/2, 1)")
    d = inst.f.arity
    t_index = d + 1
    host = Formula(and_(inst.f.root, var(t_index)), d + 1)
    shift = raise_probability_gadget(d + 1, Fraction(1, 4), delta)
    combined = shift.apply(host)
    n = shift.gadget.n
    x_prime = Assignment(
        inst.x.bits | (((1 << (n + 1)) - 1) << d), d + 1 + n
    )  # (x, 1, 1_n)
    if evaluate(combined, x_prime) != 1:
        raise AssertionError("construction must satisfy the reduced point")
    layout = {"y": (1, d), "t": (t_index, t_index), "gadget": (d + 2, d + 1 + n)}
    if n == 0:
        layout.pop("gadget")
    return ProblemInstance(
        kind="ip2",
        f=combined,
        x=x_prime,
        k=inst.k,
        delta=delta,
        layout=layout,
    )


# --------------------------------------------------------------------------
# IP2 -> Relevant-Input: guard clauses force any useful set into the first
# 2k coordinates; the free variables are re-supplied as XORs of three copies
# so that small sets cannot bias them.
#
# The output-polarity flip (xor with the negated point value) makes the
# reduced question track the agreement form of the source threshold,
# P(f(y) = f(x) | y_S = x_S) >= delta.  Instances built by the upstream step
# always satisfy f(x) = 1, where that coincides with the plain satisfaction
# form the IP2 oracle decides.


def reduce_ip2_to_relevant_input(
    inst: ProblemInstance, delta: Optional[Fraction] = None
) -> ProblemInstance:
    _require(inst, "ip2")
    delta = Fraction(delta) if delta is not None else inst.delta
    if not Fraction(1, 2) <= delta < 1:
        raise ValueError("delta must lie in [1/2, 1)")
    d, k = inst.f.arity, inst.k
    rest = d - k
    # u: 1..k, v: k+1..2k, r1/r2/r3: three blocks of size rest.
    mapping: dict[int, Node] = {}
    for j in range(1, rest + 1):
        r1 = var(2 * k + j)
        r2 = var(2 * k + rest + j)
        r3 = var(2 * k + 2 * rest + j)
        mapping[k + j] = xor(xor(r1, r2), r3)
    phi = compose_variables(inst.f.root, mapping)
    fx = evaluate(inst.f, inst.x)
    flipped = xor(phi, const(1 - fx))
    clauses = [
        or_(xor(var(i), const(1 - inst.x.bit(i))), var(k + i))
        for i in range(1, k + 1)
    ]
    root = and_(flipped, *clauses)
    arity = 2 * k + 3 * rest

    x_bits = 0
    for i in range(1, k + 1):  # u block carries x_[k]
        if inst.x.bit(i):
            x_bits |= 1 << (i - 1)
    x_bits |= ((1 << k) - 1) << k  # v block all ones
    for copy in range(3):  # three copies of x_[k]^c
        for j in range(1, rest + 1):
            if inst.x.bit(k + j):
                x_bits |= 1 << (2 * k + copy * rest + j - 1)
    x_prime = Assignment(x_bits, arity)
    reduced = Formula(root, arity)
    if evaluate(reduced, x_prime) != 1:
        raise AssertionError("construction must satisfy the reduced point")
    layout = {"u": (1, k), "v": (k + 1, 2 * k)}
    for copy, name in enumerate(("r1", "r2", "r3")):
        if rest:
            start = 2 * k + copy * rest + 1
            layout[name] = (start, start + rest - 1)
    return ProblemInstance(
        kind="relevant_input",
        f=reduced,
        x=x_prime,
        k=k,
        delta=delta,
        layout=layout,
    )


# --------------------------------------------------------------------------
# SAT -> IP3: q stacked copies of every variable make satisfying assignments
# reachable by fixing at most dq coordinates, while an AND tail of m'+p fresh
# variables keeps every small set useless when the formula is unsatisfiable.


def sat_ip3_parameters(d: int, delta: Fraction, gamma: Fraction) -> tuple[int, int]:
    """(q, p) = (ceil(log2(d/(1-delta))), floor(log2(1/(delta-gamma))) + 1)."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    if not 0 < delta < 1 or not 0 <= gamma < delta:
        raise ValueError("need 0 < delta < 1 and 0 <= gamma < delta")
    q = ceil_log2(Fraction(d) / (1 - delta))
    p = floor_log2(1 / (delta - gamma)) + 1
    return q, p


def reduce_sat_to_ip3(
    f: Formula,
    delta: Fraction,
    gamma: Fraction,
    m_prime: Optional[int] = None,
) -> ProblemInstance:
    delta, gamma = Fraction(delta), Fraction(gamma)
    d = f.arity
    if d < 1:
        raise ValueError("the SAT instance needs at least one variable")
    q, p = sat_ip3_parameters(d, delta, gamma)
    k_prime = d * q
    if m_prime is None:
        m_prime = k_prime
    if m_prime < k_prime:
        raise ValueError(f"m' must be at least k' = {k_prime}")
    mapping = {
        i: and_(*(var((j - 1) * d + i) for j in range(1, q + 1)))
        for i in range(1, d + 1)
    }
    phi = compose_variables(f.root, mapping)
    tail_lo = d * q + 1
    tail_hi = d * q + m_prime + p
    tail = and_(*(var(i) for i in range(tail_lo, tail_hi + 1)))
    root = or_(phi, tail)
    arity = tail_hi
    x_prime = Assignment.ones(arity)
    reduced = Formula(root, arity)
    if evaluate(reduced, x_prime) != 1:
        raise AssertionError("construction must satisfy the reduced point")
    layout = {
        f"u{j}": ((j - 1) * d + 1, j * d) for j in range(1, q + 1)
    }
    layout["v"] = (tail_lo, tail_hi)
    return ProblemInstance(
        kind="ip3",
        f=reduced,
        x=x_prime,
        k=k_prime,
        m=m_prime,
        delta=delta,
        gamma=gamma,
        layout=layout,
    )


# --------------------------------------------------------------------------
# Inapproximability parameter arithmetic.


@dataclass(frozen=True)
class InapproxParameters:
    """All derived quantities, with the verified strict inequality flag.

    check certifies k' * d'^(1-alpha) < m' using an upper bound on the left
    side, so True is sound.  m_rounding records whether the ceiling defining
    m' was computed exactly or settled from the upper end of an enclosing
    interval.
    """

    d: int
    delta: Fraction
    gamma: Fraction
    alpha: Fraction
    q: int
    p: int
    k_prime: int
    m_prime: int
    d_prime: int
    check: bool
    m_rounding: str

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "delta": str(self.delta),
            "gamma": str(self.gamma),
            "alpha": str(self.alpha),
            "q": self.q,
            "p": self.p,
            "k_prime": self.k_prime,
            "m_prime": self.m_prime,
            "d_prime": self.d_prime,
            "check": self.check,
            "m_rounding": self.m_rounding,
        }


def inapprox_parameters(
    d: int, delta: Fraction, gamma: Fraction, alpha: Fraction
) -> InapproxParameters:
    """m' = ceil(max(2k'(k'^(1-a) + p^(1-a)), (2k')^(1/a) + 1)) and friends."""
    delta, gamma, alpha = Fraction(delta), Fraction(gamma), Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    q, p = sat_ip3_parameters(d, delta, gamma)
    k_prime = d * q

    one_minus = 1 - alpha
    inv_alpha = 1 / alpha

    m_prime = None
    rounding = "exact"
    for precision in (32, 64, 128, 256):
        k_lo, k_hi = pow_bounds(k_prime, one_minus, precision)
        p_lo, p_hi = pow_bounds(p, one_minus, precision)
        t2_lo, t2_hi = pow_bounds(2 * k_prime, inv_alpha, precision)
        lo = max(2 * k_prime * (k_lo + p_lo), t2_lo + 1)
        hi = max(2 * k_prime * (k_hi + p_hi), t2_hi + 1)
        if math.ceil(lo) == math.ceil(hi):
            m_prime = math.ceil(lo)
            break
    if m_prime is None:
        m_prime = math.ceil(hi)
        rounding = "upper"

    d_prime = k_prime + m_prime + p

    check = None
    for precision in (32, 64, 128, 256):
        d_lo, d_hi = pow_bounds(d_prime, one_minus, precision)
        if k_prime * d_hi < m_prime:
            check = True
            break
        if k_prime * d_lo >= m_prime:
            check = False
            break
    if check is None:
        check = False  # could not certify the strict inequality

    return InapproxParameters(
        d=d,
        delta=delta,
        gamma=gamma,
        alpha=alpha,
        q=q,
        p=p,
        k_prime=k_prime,
        m_prime=m_prime,
        d_prime=d_prime,
        check=check,
        m_rounding=rounding,
    )


# --------------------------------------------------------------------------
# Oracle-backed verification.


_ORACLE_ENUM_CAP = 40  # free variables the oracles' counts may enumerate
_ORACLE_BUDGET = 5_000_000  # candidate subsets a search oracle may face

_EXPECTED_PAIRS = {
    ("emajsat", "ip1"),
    ("ip1", "ip2"),
    ("ip2", "relevant_input"),
    ("sat", "ip3"),
}


@dataclass(frozen=True)
class ReductionCheck:
    source_verdict: Verdict
    reduced_verdict: Verdict
    consistent: Optional[bool]
    skipped: bool
    detail: str

    @property
    def passed(self) -> bool:
        return bool(self.consistent)

    def to_json_dict(self) -> dict:
        return {
            "source_verdict": self.source_verdict.value,
            "reduced_verdict": self.reduced_verdict.value,
            "consistent": self.consistent,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def oracle_verdict(inst: ProblemInstance) -> Verdict:
    """Run the matching brute-force oracle; refuses oversized instances."""
    d = inst.f.arity

    def budget_check(universe: int, limit: int, what: str):
        candidates = sum(math.comb(universe, size) for size in range(limit + 1))
        if candidates > _ORACLE_BUDGET:
            raise EnumerationCapExceeded(
                candidates, _ORACLE_BUDGET, what, "candidate subsets", raisable=False
            )

    if inst.kind == "sat":
        if d > 26:
            raise EnumerationCapExceeded(d, 26, "sat oracle", raisable=False)
        # A model exists iff some block of the support's assignments has one.
        blocks = _lane_blocks(inst.f.root, _indices(inst.f.root.support), 0)
        return Verdict.YES if any(blocks) else Verdict.NO
    if inst.kind == "emajsat":
        if inst.k > 24:
            raise EnumerationCapExceeded(inst.k, 24, "emajsat oracle", raisable=False)
        yes = solve_emajsat(inst.f, inst.k, search_cap=d, enum_cap=_ORACLE_ENUM_CAP)
        return Verdict.YES if yes else Verdict.NO
    if inst.kind == "ip1":
        budget_check(inst.k, inst.k, "ip1 oracle")
        yes = solve_ip1(
            inst.f, inst.x, inst.k, search_cap=d, enum_cap=_ORACLE_ENUM_CAP
        )
        return Verdict.YES if yes else Verdict.NO
    if inst.kind == "ip2":
        budget_check(inst.k, inst.k, "ip2 oracle")
        yes = solve_ip2(
            inst.f, inst.x, inst.k, inst.delta, search_cap=d, enum_cap=_ORACLE_ENUM_CAP
        )
        return Verdict.YES if yes else Verdict.NO
    if inst.kind == "ip3":
        budget_check(d, inst.m, "ip3 oracle")
        return solve_ip3(
            inst.f,
            inst.x,
            inst.k,
            inst.m,
            inst.delta,
            inst.gamma,
            search_cap=d,
            enum_cap=_ORACLE_ENUM_CAP,
        )
    if inst.kind == "relevant_input":
        budget_check(d, inst.k, "relevant-input oracle")
        report = decide_relevant_input(
            inst.f, inst.x, inst.k, inst.delta, search_cap=d, enum_cap=_ORACLE_ENUM_CAP
        )
        return report.verdict
    raise ValueError(f"no oracle for kind {inst.kind!r}")


def verify_reduction(
    source: ProblemInstance, reduced: ProblemInstance
) -> ReductionCheck:
    """Confirm Yes/No preservation by running both brute-force oracles.

    Exact oracles only; instances beyond the enumeration or search budget are
    refused with the limiting dimension named.
    """
    if (source.kind, reduced.kind) not in _EXPECTED_PAIRS:
        raise ValueError(
            f"cannot verify a {source.kind} -> {reduced.kind} reduction"
        )
    sv = oracle_verdict(source)
    rv = oracle_verdict(reduced)
    if sv is Verdict.INDETERMINATE or rv is Verdict.INDETERMINATE:
        return ReductionCheck(
            sv, rv, None, True, "indeterminate verdict inside the promise gap"
        )
    consistent = sv is rv
    detail = "biconditional preserved" if consistent else "verdicts diverge"
    return ReductionCheck(sv, rv, consistent, False, detail)
