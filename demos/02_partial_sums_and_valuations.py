"""Partial sums of involution numbers and their 2-adic structure.

The running totals a(n) = I(0) + ... + I(n) satisfy their own three-term
recurrence and a closed binomial form.  Their powers of 2 follow an exact
periodic-with-a-twist pattern, and a rational companion sequence b(k)
carries 2-adic valuation exactly k.
"""

from involutions import (
    b_k,
    involution_number,
    nu2_involution,
    nu2_partial_sum,
    nu3_partial_sum,
    partial_sum,
    partial_sum_by_binomial,
)
from involutions.exactnum import nu_int

print("n, a(n) as the running sum of I(n), by binomial form:")
for n in range(11):
    print(f"  {n:2d}  {partial_sum(n):6d}  {partial_sum_by_binomial(n):6d}")

print()
print("2-adic valuations (closed forms vs direct factorization):")
print("  n   nu2(I(n))  nu2(a(n))")
for n in range(1, 17):
    assert nu2_involution(n) == nu_int(involution_number(n), 2)
    print(f"  {n:2d}     {nu2_involution(n):2d}        {nu2_partial_sum(n):2d}")

print()
print("The valuation of a(n) spikes at n = 4k-1; dividing out 4k leaves the")
print("rational sequence b(k) with nu2(b(k)) = k exactly:")
for k in range(1, 6):
    b = b_k(k)
    print(f"  k={k}: b(k) = {b},  4k*b(k) = a(4k-1) = {partial_sum(4 * k - 1)}")

print()
print("Powers of 3 in a(n) are rarer; nonzero only at n = 4, 6, 8 mod 9:")
for n in range(1, 30):
    v = nu3_partial_sum(n)
    if v:
        print(f"  nu3(a({n})) = {v}")
