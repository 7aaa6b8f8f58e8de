"""Exponential generating functions, held as their exact sequence values.

Everything in this package has an EGF: exp(x + x^2/2) for involutions,
exp(x + ... + x^l/l) for bounded cycles, and an integral transform that
turns any EGF into the EGF of its partial sums.  Truncated series that hold
the integer sequence values make these identities checkable exactly, term by
term.
"""

from involutions import (
    TruncatedEGF,
    involution_egf,
    partial_sum_transform,
    series_exp,
)
from involutions.involution import involution_number
from involutions.partialsum import partial_sum
from involutions.series import cycle_egf_exponent

f = involution_egf(12)
print("exp(x + x^2/2) recovers the involution numbers:")
print(" ", [f.egf_coefficient(n) for n in range(13)])
print(" ", [involution_number(n) for n in range(13)])

print()
print("w(x) + e^x * integral(e^(-t) w(t) dt) sums any EGF's coefficients;")
print("applied to the involution EGF it yields the partial sums:")
g = partial_sum_transform(f)
print(" ", [g.egf_coefficient(n) for n in range(13)])
print(" ", [partial_sum(n) for n in range(13)])

print()
print("exp(x + x^2/2 + x^3/3) counts permutations with cycles of length")
print("at most 3:")
h = series_exp(cycle_egf_exponent(3, 10))
print(" ", [h.egf_coefficient(n) for n in range(11)])

print()
print("The transform works for arbitrary series, e.g. the EGF of 2^n:")
w = TruncatedEGF([2**n for n in range(8)])
sums = partial_sum_transform(w)
print("  coefficients:", [w.egf_coefficient(n) for n in range(8)])
print("  partial sums:", [sums.egf_coefficient(n) for n in range(8)])
