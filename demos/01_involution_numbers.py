"""Involution numbers from three independent directions.

The sequence 1, 1, 2, 4, 10, 26, ... counts permutations that are their own
inverse.  This demo computes it by recurrence, by finite sum, and by a
two-block splitting identity, then looks at the refinement by fixed points
and its relation to the Hermite polynomials.
"""

from involutions import (
    hermite_poly,
    involution_number,
    involution_number_bisplit,
    involution_number_by_sum,
    involution_poly,
    poly_text,
)


def t_text(coeffs):
    """A polynomial in t, given by its coefficients of t^0, t^1, ..."""
    return poly_text((((k,), coeffs[k]) for k in reversed(range(len(coeffs)))), ["t"])


print("n, I(n) by recurrence, by finite sum, by bisplit:")
for n in range(11):
    print(
        f"  {n:2d}  {involution_number(n):6d}  "
        f"{involution_number_by_sum(n):6d}  "
        f"{involution_number_bisplit(n // 2, n - n // 2):6d}"
    )

print()
print("Fixed-point refinement: the coefficient of t^k counts involutions")
print("with exactly k fixed points.")
for n in range(7):
    p = involution_poly(n)
    print(f"  I({n}; t) = {t_text(p)},  I({n}; 1) = {sum(p)},  matchings I({n}; 0) = {p[0]}")

print()
print("Flipping the sign of every other even-degree-gap coefficient turns")
print("the involution polynomial into the probabilist's Hermite polynomial:")
for n in (3, 4, 5):
    print(f"  I({n}; t) = {t_text(involution_poly(n))}")
    print(f"  H_{n}(t)  = {t_text(hermite_poly(n))}")
