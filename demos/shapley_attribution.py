"""Shapley attribution, its link to relevant sets, and the ReLU view.

The coalition value of a variable subset is the conditional mean of the
function given those variables pinned at x, minus the unconditional mean.
Relevance and this characteristic function determine each other exactly, and
the same circuit runs verbatim as a thresholded ReLU network.

Run: python demos/shapley_attribution.py
"""

from fractions import Fraction

import numpy as np

from boolrel import (
    Assignment,
    characteristic_value,
    compile_to_relu,
    evaluate,
    is_delta_relevant,
    parse,
    relevance_from_characteristic,
    shapley_values,
)

f = parse("(x1 & x2) | !x3")
x = Assignment.from_string("110")
print(f"function {f} at x = {x}")
print()

# Coalition values: nu({}) = 0 by construction, nu([d]) = f(x) - E(f).
print("characteristic function nu(S) = E[f | y_S = x_S] - E[f]:")
for indices in [(), (1,), (2,), (3,), (1, 2), (1, 2, 3)]:
    ce = characteristic_value(f, x, indices)
    print(f"  nu({set(indices) if indices else '{}'})".ljust(18) + f"= {ce.value}")
print()

sv = shapley_values(f, x)
print("Shapley attribution of nu([d]) to the variables:")
for i, phi in enumerate(sv.values, start=1):
    print(f"  phi_{i} = {str(phi):7} ({float(phi):+.4f})")
print(f"  sum   = {sum(sv.values)} = nu([d]) = {sv.grand_value} (efficiency)")
print()

# x3 carries the most weight: fixing it alone already decides the output.
# The identity |nu(S) + E - f(x)| <= 1 - delta recovers delta-relevance.
print("relevance via the characteristic identity vs the direct check:")
for indices, delta in [((3,), Fraction(1)), ((1,), Fraction(4, 5)), ((1,), Fraction(3, 4))]:
    via_nu = relevance_from_characteristic(f, x, indices, delta)
    direct, prob = is_delta_relevant(f, x, indices, delta)
    print(
        f"  S={set(indices)}, delta={delta}: identity says {via_nu}, "
        f"direct check says {direct} (agreement {prob})"
    )
print()

# The circuit as a ReLU network: NOT is affine, AND/OR cost one unit each,
# and thresholding the final affine output at 1/2 reproduces the function.
net = compile_to_relu(f)
print(f"compiled ReLU network, layer sizes {net.layer_sizes}:")
inputs = np.array([[(j >> i) & 1 for i in range(3)] for j in range(8)], dtype=np.int64)
outputs = net.forward_batch(inputs)
rows = []
for j in range(8):
    a = Assignment(j, 3)
    rows.append(f"  {a} -> net {int(outputs[j])}, formula {evaluate(f, a)}")
print("\n".join(rows))
print(f"agreement on all 8 inputs: {all(int(outputs[j]) == evaluate(f, Assignment(j, 3)) for j in range(8))}")
