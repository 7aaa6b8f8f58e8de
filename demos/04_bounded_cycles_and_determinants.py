"""Permutations with bounded cycle length, three ways.

d(n, l) counts permutations of n symbols with no cycle longer than l.  It
comes out of an l-term recurrence, out of the cycle-index polynomial (which
remembers the whole cycle type, not just the total), and out of the
determinant of a banded Toeplitz matrix.  The paper's matrix has Gaussian-
integer entries; conjugating it by diag(i^k) gives a real matrix with the
same determinant, which is the one expanded here.  A brute-force census over
all n! permutations confirms everything for small n.
"""

from involutions import (
    cycle_index_poly,
    enumerate_census,
    restricted_count,
    toeplitz_determinant,
)
from involutions.oracle import census_cycle_index_terms

print("d(n, l) for n <= 8:")
header = "  n: " + "".join(f"  l={l:<6d}" for l in range(1, 6))
print(header)
for n in range(9):
    row = "".join(f"{restricted_count(n, l):8d}" for l in range(1, 6))
    print(f"  {n}: {row}")

print()
print("Cycle-index polynomial for n = 5, l = 4 (coefficients count")
print("permutations of each cycle type):")
poly = cycle_index_poly(5, 4)
print(f"  {poly}")
print(f"  total (all Y = 1): {poly.sum_of_coefficients()} = d(5, 4)")

print()
print("The banded Toeplitz determinant gives the same polynomial:")
det = toeplitz_determinant(5, 4)
print(f"  {det}")
print(f"  equal to the recurrence version: {det == poly}")

print()
print("Exhaustive enumeration over 8! permutations agrees:")
census = enumerate_census(8)
for l in (2, 3, 4):
    print(
        f"  l={l}: census {sum(census_cycle_index_terms(census, l).values())}, "
        f"recurrence {restricted_count(8, l)}"
    )
