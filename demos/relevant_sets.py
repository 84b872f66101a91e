"""Which input bits pin down a Boolean function's output?

A walkthrough of delta-relevant sets: fix the variables in S at their values
from x, randomise the rest uniformly, and ask how often the function value
survives.  S is delta-relevant when that agreement probability is at least
delta.

Run: python demos/relevant_sets.py
"""

from fractions import Fraction

from boolrel import (
    Assignment,
    SubsetMask,
    conditional_agreement_probability,
    decide_relevant_input,
    parse,
    solve_min_relevant_input,
    truth_table,
)

# The running example: a tiny two-gate circuit.
f = parse("(x1 & x2) | !x3")
x = Assignment.from_string("110")

print(f"function:   {f}")
print(f"input:      x = {x},  f(x) = 1")
print(f"truth table has {truth_table(f).ones()} ones out of {len(truth_table(f))}")
print()

# Agreement probabilities for every subset of the variables.  Note that the
# empty set already agrees 5/8 of the time (that is just P(f = 1)), and that
# fixing x3 = 0 alone forces the output: !x3 short-circuits the OR.
print("agreement probabilities P(f(y) = f(x) | y_S = x_S):")
for indices in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
    s = SubsetMask.from_indices(indices, f.arity)
    p = conditional_agreement_probability(f, x, s)
    print(f"  S = {str(s):9}  ->  {str(p):7} = {float(p):.4f}")
print()

# The decision problem: is there a delta-relevant set of size at most k?
for delta in (Fraction(1), Fraction(3, 4), Fraction(5, 8)):
    report = decide_relevant_input(f, x, k=1, delta=delta)
    line = f"delta = {delta}:  k=1 -> {report.verdict.value}"
    if report.witness is not None:
        line += f", witness {report.witness} (agreement {report.probability})"
    print(line)
print()

# The minimisation problem, swept over delta: the classic trade-off between
# how certain we want to be and how many variables we must pin.
print("smallest delta-relevant set as delta grows:")
for num in range(1, 9):
    delta = Fraction(num, 8)
    k, witness = solve_min_relevant_input(f, x, delta)
    print(f"  delta = {str(delta):4}  ->  k* = {k}, S = {witness}")
