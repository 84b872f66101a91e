"""Monotone DNF gadgets that shift satisfaction-probability thresholds.

Three constructions:

* ``build_pi(eta, ell)``: a monotone DNF over at most ell(ell+3)/2 fresh
  variables whose satisfaction probability approximates eta within 2^-ell.
  Built iteratively: each round appends a conjunction of Delta-n fresh
  variables, chosen as the smallest width that keeps the running probability
  at or below eta; the gap to eta at least halves every round.

* ``raise_probability_gadget(d, d1, d2)``: Pi such that, for every host f on
  d variables, P(f) > d1 iff P(f or Pi) >= d2.  Attach by OR.

* ``lower_probability_gadget(d, d1, d2)``: Pi such that P(f) >= d2 iff
  P(f and Pi) > d1.  Attach by AND.

All probabilities are tracked exactly; interval requirements on P(Pi) are
asserted after construction and failures raise GadgetConstructionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._intmath import floor_log2
from .counting import satisfaction_probability
from .formula import (
    Assignment,
    Formula,
    Node,
    TRUE,
    and_,
    evaluate,
    or_,
    shift_variables,
    var,
)

__all__ = [
    "Gadget",
    "ProbabilityShift",
    "GadgetConstructionError",
    "build_pi",
    "raise_probability_gadget",
    "lower_probability_gadget",
]


class GadgetConstructionError(RuntimeError):
    """An internal interval or bound check failed; this is a construction bug."""


@dataclass(frozen=True)
class TraceStep:
    """One iteration record: variables added and the probability reached."""

    added_vars: int
    prob: Fraction


@dataclass(frozen=True)
class Gadget:
    """A monotone DNF with its exactly tracked satisfaction probability.

    kind is "iterative" for the general construction, "and_chain" for the
    small-eta single-conjunction case, and "trivial_one" for the constant-1
    degenerate case of the lowering construction (flagged because it violates
    Pi(0)=0).
    """

    pi: Formula
    n: int
    prob: Fraction
    trace: tuple[TraceStep, ...]
    kind: str

    def __post_init__(self):
        if self.kind != "trivial_one":
            zero_in = _eval_uniform(self.pi, 0)
            one_in = _eval_uniform(self.pi, 1)
            if zero_in != 0 or one_in != 1:
                raise GadgetConstructionError(
                    "gadget must map the all-zeros input to 0 and all-ones to 1"
                )
        tracked = satisfaction_probability(self.pi)
        if tracked != self.prob:
            raise GadgetConstructionError(
                f"tracked probability {self.prob} does not match "
                f"recomputed {tracked}"
            )


def _eval_uniform(f: Formula, bit: int) -> int:
    a = Assignment.ones(f.arity) if bit else Assignment.zeros(f.arity)
    return evaluate(f, a)


def _validate_trace(eta: Fraction, ell: int, trace: tuple[TraceStep, ...], n: int):
    gap_prev = eta  # |eta - p_0| with p_0 = 0
    p_prev = Fraction(0)
    for step in trace:
        # p_{i+1} = p_i + (1 - p_i) 2^-dn, and the gap at least halves.
        expect = p_prev + (1 - p_prev) * Fraction(1, 1 << step.added_vars)
        if step.prob != expect:
            raise GadgetConstructionError("trace recurrence violated")
        gap = eta - step.prob
        if gap < 0 or 2 * gap > gap_prev:
            raise GadgetConstructionError("trace gap failed to halve")
        # dn_i < -log2(eta - p_i) + 1, i.e. (eta - p_i) 2^(dn_i - 1) < 1.
        # For dn_i = 1 the bound comes for free unless eta = 1 exactly, where
        # the minimality premise behind it is vacuous.
        if step.added_vars > 1 and gap_prev * (1 << (step.added_vars - 1)) >= 1:
            raise GadgetConstructionError("per-step width bound violated")
        gap_prev = gap
        p_prev = step.prob
    if n > ell * (ell + 3) // 2:
        raise GadgetConstructionError("total variable bound violated")


def build_pi(eta: Fraction, ell: int) -> Gadget:
    """Monotone DNF whose probability is within 2^-ell of eta.

    For eta <= 2^-ell the gadget is a single conjunction of ell variables.
    Otherwise conjunction blocks are appended until |eta - p| <= 2^-ell,
    which takes at most ell rounds.
    """
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    tol = Fraction(1, 1 << ell)

    if eta <= tol:
        return _and_chain(ell)

    terms: list[Node] = []
    trace: list[TraceStep] = []
    p = Fraction(0)
    n = 0
    while eta - p > tol:
        dn = 1
        while p + (1 - p) * Fraction(1, 1 << dn) > eta:
            dn += 1
        terms.append(and_(*(var(n + j) for j in range(1, dn + 1))))
        n += dn
        p = p + (1 - p) * Fraction(1, 1 << dn)
        trace.append(TraceStep(dn, p))
    _validate_trace(eta, ell, tuple(trace), n)
    if abs(eta - p) > tol:
        raise GadgetConstructionError("accuracy target missed")
    pi = Formula(or_(*terms) if len(terms) > 1 else terms[0], n)
    return Gadget(
        pi=pi,
        n=n,
        prob=p,
        trace=tuple(trace),
        kind="iterative",
    )


def _and_chain(width: int) -> Gadget:
    """The single conjunction x1 & ... & x_width, of probability 2^-width."""
    prob = Fraction(1, 1 << width)
    return Gadget(
        pi=Formula(and_(*(var(i) for i in range(1, width + 1))), width),
        n=width,
        prob=prob,
        trace=(TraceStep(width, prob),),
        kind="and_chain",
    )


@dataclass(frozen=True)
class ProbabilityShift:
    """A gadget plus how to attach it to a host formula.

    attach == "or" realises: P(f) > delta1  iff  P(f | Pi) >= delta2.
    attach == "and" realises: P(f) >= delta2 iff P(f & Pi) > delta1.
    Valid for every host f of arity at most host_arity.
    """

    gadget: Gadget
    attach: str
    host_arity: int
    delta1: Fraction
    delta2: Fraction
    interval: Optional[tuple[Fraction, Fraction]]

    def apply(self, f: Formula) -> Formula:
        """Attach the gadget on fresh variables appended after f's."""
        if f.arity > self.host_arity:
            raise ValueError(
                f"host arity {f.arity} exceeds the gadget's domain "
                f"{self.host_arity}"
            )
        if self.gadget.n == 0:
            combined = and_(f.root, TRUE) if self.attach == "and" else f.root
            return Formula(combined, f.arity)
        shifted = shift_variables(self.gadget.pi.root, f.arity)
        joined = (
            or_(f.root, shifted) if self.attach == "or" else and_(f.root, shifted)
        )
        return Formula(joined, f.arity + self.gadget.n)


def raise_probability_gadget(
    d: int, delta1: Fraction, delta2: Fraction
) -> ProbabilityShift:
    """Gadget turning a strict > delta1 threshold into >= delta2 under OR.

    Hosts have probabilities on the grid j/2^d.  When delta2 already sits at
    or below the next grid point above delta1, a bare conjunction narrower
    than delta2 - delta1 suffices; otherwise P(Pi) is steered into the
    half-open interval [a, b) determined by the two critical grid points.
    """
    delta1, delta2 = Fraction(delta1), Fraction(delta2)
    if not 0 < delta1 < delta2 < 1:
        raise ValueError("need 0 < delta1 < delta2 < 1")
    if d < 1:
        raise ValueError("host arity must be positive")
    scale = 1 << d
    low = math.floor(delta1 * scale)

    if delta2 <= Fraction(low + 1, scale):
        gadget = _and_chain(floor_log2(1 / (delta2 - delta1)) + 1)
        if not gadget.prob < delta2 - delta1:
            raise GadgetConstructionError("narrow-case probability too large")
        return ProbabilityShift(gadget, "or", d, delta1, delta2, None)

    a = Fraction(delta2 * scale - low - 1, scale - low - 1)
    b = Fraction(delta2 * scale - low, scale - low)
    eta = (a + b) / 2
    ell = floor_log2(2 / (b - a)) + 1
    gadget = build_pi(eta, ell)
    if not (a <= gadget.prob < b):
        raise GadgetConstructionError(
            f"raising gadget probability {gadget.prob} escaped [{a}, {b})"
        )
    return ProbabilityShift(gadget, "or", d, delta1, delta2, (a, b))


def lower_probability_gadget(
    d: int, delta1: Fraction, delta2: Fraction
) -> ProbabilityShift:
    """Gadget turning a >= delta2 threshold into a strict > delta1 under AND.

    When the grid point just below delta2 is already at or below delta1 the
    constant-1 gadget works (flagged trivial_one); otherwise P(Pi) is steered
    into the half-open interval (a, b].
    """
    delta1, delta2 = Fraction(delta1), Fraction(delta2)
    if not 0 < delta1 < delta2 < 1:
        raise ValueError("need 0 < delta1 < delta2 < 1")
    if d < 1:
        raise ValueError("host arity must be positive")
    scale = 1 << d
    high = math.ceil(delta2 * scale)

    if Fraction(high - 1, scale) <= delta1:
        gadget = Gadget(
            pi=Formula(TRUE, 0),
            n=0,
            prob=Fraction(1),
            trace=(),
            kind="trivial_one",
        )
        return ProbabilityShift(gadget, "and", d, delta1, delta2, None)

    a = Fraction(delta1 * scale, high)
    b = Fraction(delta1 * scale, high - 1)
    eta = (a + b) / 2
    ell = floor_log2(2 / (b - a)) + 1
    gadget = build_pi(eta, ell)
    if not (a < gadget.prob <= b):
        raise GadgetConstructionError(
            f"lowering gadget probability {gadget.prob} escaped ({a}, {b}]"
        )
    return ProbabilityShift(gadget, "and", d, delta1, delta2, (a, b))
