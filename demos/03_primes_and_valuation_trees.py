"""Which primes divide involution numbers, and how deeply.

A prime p is "inefficient" when it divides some I(n) with n < p.  For an
inefficient prime, organizing the indices n by residue classes of growing
p-power moduli produces a tree whose terminal vertices pin the exact
valuation nu_p(I(n)) for every n in their class.
"""

from involutions import (
    build_valuation_tree,
    conjecture_check,
    inefficient_primes_upto,
    is_efficient,
)

print("Inefficient primes up to 100:", inefficient_primes_upto(100))
print("3 efficient?", is_efficient(3), " 5 efficient?", is_efficient(5))

print()
print("Valuation tree for p = 5, three levels:")
tree = build_valuation_tree(5, 3)
for level in tree.levels:
    for v in level:
        status = (
            f"terminal, nu5 = {v.valuation}"
            if v.terminal
            else f"open, nu5 >= {v.level}"
        )
        print(f"  n = {v.residue} mod {5 ** v.level}: {status}")

print()
print("At every level so far, exactly one residue class stays open.")
report = conjecture_check(5, 5)
print(report.to_text())

print()
print("The same single-open-class shape appears for p = 13:")
print(conjecture_check(13, 3).to_text())
