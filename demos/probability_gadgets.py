"""Monotone DNF gadgets that steer satisfaction probabilities.

Three constructions: a DNF whose probability approximates any target within
2^-ell on O(ell^2) variables, and two wrappers that move decision thresholds
(strictly-above-delta1 becomes at-least-delta2 under OR; at-least-delta2
becomes strictly-above-delta1 under AND) for every host formula at once.

Run: python demos/probability_gadgets.py
"""

from fractions import Fraction

from boolrel import (
    build_pi,
    from_truth_table,
    lower_probability_gadget,
    raise_probability_gadget,
    satisfaction_probability,
)

# --- the probability approximator -----------------------------------------
eta, ell = Fraction(7, 10), 4
g = build_pi(eta, ell)
print(f"target eta = {eta}, accuracy 2^-{ell}")
print(f"gadget: {g.pi} on {g.n} variables")
print(f"probability {g.prob} = {float(g.prob):.6f}")
print("iteration trace (conjunction width added, probability reached):")
running = Fraction(0)
for step in g.trace:
    gap = eta - step.prob
    print(
        f"  +{step.added_vars} vars -> p = {step.prob} "
        f"(gap to eta {float(gap):.6f})"
    )
print()

# The gap at least halves per round, so ell rounds always suffice; the
# conjunction widths obey dn < -log2(gap) + 1, giving n <= ell(ell+3)/2.
print(f"variables used: {g.n} <= {ell * (ell + 3) // 2} bound")
print()

# --- raising a threshold ---------------------------------------------------
# For hosts on 2 variables: P(f) > 1/2 iff P(f | Pi) >= 9/10, for all 16 f.
shift = raise_probability_gadget(2, Fraction(1, 2), Fraction(9, 10))
a, b = shift.interval
print(f"raising gadget for d=2, 1/2 -> 9/10: needs P(Pi) in [{a}, {b})")
print(f"built P(Pi) = {shift.gadget.prob} on {shift.gadget.n} fresh variables")
print("check over all 16 functions of two variables:")
agree = 0
for bits in range(16):
    f = from_truth_table(bits, 2)
    lhs = satisfaction_probability(f) > Fraction(1, 2)
    rhs = satisfaction_probability(shift.apply(f)) >= Fraction(9, 10)
    agree += lhs == rhs
print(f"  biconditional holds for {agree}/16 functions")
print()

# --- lowering a threshold --------------------------------------------------
shift = lower_probability_gadget(3, Fraction(1, 4), Fraction(3, 4))
a, b = shift.interval
print(f"lowering gadget for d=3, 3/4 -> 1/4: needs P(Pi) in ({a}, {b}]")
print(f"built P(Pi) = {shift.gadget.prob} on {shift.gadget.n} fresh variables")
high = from_truth_table(0b00111111, 3)  # P = 6/8
low = from_truth_table(0b00011111, 3)  # P = 5/8
for name, f in (("P=6/8 host", high), ("P=5/8 host", low)):
    combined = satisfaction_probability(shift.apply(f))
    verdict = "> 1/4" if combined > Fraction(1, 4) else "<= 1/4"
    print(f"  {name}: P(f & Pi) = {combined} {verdict}")
print()

# Degenerate corners the constructions handle explicitly: a target already
# reachable by a bare conjunction, and the constant-1 lowering gadget.
narrow = raise_probability_gadget(1, Fraction(1, 2), Fraction(3, 4))
print(f"d=1, 1/2 -> 3/4 uses a bare conjunction: {narrow.gadget.pi}")
trivial = lower_probability_gadget(2, Fraction(1, 2), Fraction(3, 4))
print(f"d=2, 3/4 -> 1/2 is satisfied by the constant gadget: kind = {trivial.gadget.kind}")
